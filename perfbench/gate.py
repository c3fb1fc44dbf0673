"""Correctness and determinism gates: any problem fails the whole run."""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple

#: A subscription's served answer: ``(value, definite, settled)``.
Answer = Tuple[object, bool, bool]


def cell_problems(records: Sequence[Mapping], checks: Sequence[str]) -> List[str]:
    """Cells that did not finish ``ok`` with zero check failures.

    A flicker cell must also leave node ``v`` not believing the deleted far
    edge (``believes_deleted_edge == 0``).
    """
    problems = []
    for record in records:
        cell = record.get("cell_id")
        metrics = record.get("metrics") or {}
        if record.get("status") != "ok":
            problems.append(f"cell {cell}: status {record.get('status')!r}")
            continue
        if metrics.get("check_failures", 0.0) != 0.0:
            problems.append(f"cell {cell}: {metrics['check_failures']:g} check failures")
        if "flicker_ghost" in checks and metrics.get("believes_deleted_edge") != 0.0:
            problems.append(f"cell {cell}: node v believes the deleted far edge")
    return problems


def answer_problems(answers: Mapping[str, Answer], truth: Mapping[str, bool]) -> List[str]:
    """Subscriptions whose settled answer is not definite or disagrees with the truth."""
    problems = []
    for sid, expected in truth.items():
        value, definite, settled = answers.get(sid, (None, False, False))
        if not settled or not definite:
            problems.append(f"subscription {sid}: not settled to a definite answer")
        elif value is not expected:
            problems.append(f"subscription {sid}: answered {value}, ground truth {expected}")
    for sid in answers.keys() - truth.keys():
        problems.append(f"subscription {sid}: not in the generated subscription set")
    return problems


def mismatches(signatures: Sequence[Mapping], labels: Sequence[str]) -> List[str]:
    """Fields on which any signature differs from the first one."""
    problems = []
    first = signatures[0]
    for label, other in zip(labels[1:], signatures[1:]):
        for key in sorted(first.keys() | other.keys()):
            if first.get(key) != other.get(key):
                problems.append(
                    f"{key}: {labels[0]} gave {first.get(key)!r}, {label} gave {other.get(key)!r}"
                )
    return problems

