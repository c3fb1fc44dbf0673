"""Exact outputs of the link-log converter, pinned across versions.

:class:`~repro.serve.ingest.LogConverter` turns timestamped link up/down
records into the rounds a served graph replays, so a change to how it
buckets, coalesces or de-no-ops records changes every served answer.  This
module pins, for the example log and for seeded synthetic logs, the digest of
the converted ``trace.rounds`` (each round's insert and delete lists in their
emitted order), the ``stats`` in their key order, and the exact message of
each malformed feed in :data:`ERRORS`.

The synthetic logs cover out-of-order timestamps under an explicit origin,
one edge reported several times in a bucket, ups of links already up and
downs of links already down, explicit ``round`` fields mixed with
timestamps, quiet gaps between buckets, a ``max_quiet_gap`` clamp, op
aliases in mixed case, and records handed over as parsed dicts.

``tests/test_converter_outputs.py`` reconverts every case and names the
first case and field that differ.  A change that alters conversion on
purpose regenerates the file and says why::

    PYTHONPATH=src python tests/converter_outputs.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.serve import LogConversionError, LogConverter

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "tests" / "data" / "converter_outputs.json"
EXAMPLE = ROOT / "examples" / "serving_churn_log.jsonl"

_OPS = ("up", "up", "down", "down", "insert", "delete", "UP", "Down")


def synthetic_records(
    seed: int, *, n: int, count: int, jitter: float = 0.0, gap: float = 30.0,
    explicit_rounds: float = 0.0,
) -> List[Dict[str, Any]]:
    """``count`` seeded link records over ``range(n)``.

    Timestamps advance by small steps with an occasional quiet gap of up to
    ``gap`` seconds, and each is pulled back by up to ``jitter`` seconds, so
    records arrive out of order.  A share ``explicit_rounds`` of the records
    carries a ``round`` field; half of those drop ``ts``.
    """
    rng = random.Random(seed)
    clock = 0.0
    records = []
    for _ in range(count):
        clock += rng.uniform(1.0, gap) if rng.random() < 0.03 else rng.choice((0.0, 0.1, 0.3, 0.8))
        u, v = rng.sample(range(n), 2)
        record: Dict[str, Any] = {
            "ts": round(max(0.0, clock - rng.uniform(0.0, jitter)), 3),
            "u": u,
            "v": v,
            "op": rng.choice(_OPS),
        }
        if rng.random() < explicit_rounds:
            record["round"] = rng.randrange(int(clock) + 2)
            if rng.random() < 0.5:
                del record["ts"]
        records.append(record)
    return records


def _lines(records: List[Dict[str, Any]]) -> List[str]:
    return [json.dumps(record) for record in records]


def _jittered(seed: int):
    records = synthetic_records(seed, n=6, count=400, jitter=1.5)
    return lambda: LogConverter(6, round_duration=0.5, origin_ts=0.0).convert_lines(_lines(records))


def _rounds(seed: int):
    records = synthetic_records(seed, n=8, count=300, explicit_rounds=0.25)
    # The first timestamped record sets the origin, so it must be the earliest.
    records.insert(0, {"ts": 0.0, "u": 0, "v": 1, "op": "up"})
    return lambda: LogConverter(8).convert_lines(_lines(records))


def _clamped(seed: int):
    records = synthetic_records(seed, n=6, count=300, gap=60.0)
    return lambda: LogConverter(6, max_quiet_gap=3).convert_lines(_lines(records))


def _parsed(seed: int):
    records = synthetic_records(seed, n=6, count=200, jitter=0.6, explicit_rounds=0.1)
    return lambda: LogConverter(6, origin_ts=0.0).convert_records(records)


def _clamp_boundary():
    # Gaps of exactly max_quiet_gap quiet rounds, one more, and two more.
    records = [{"ts": ts, "u": 0, "v": 1 + i % 2, "op": "up"} for i, ts in enumerate((0, 3, 7, 12))]
    return lambda: LogConverter(4, max_quiet_gap=2).convert_lines(_lines(records))


#: Case name -> a call returning a :class:`~repro.serve.ingest.ConvertedLog`.
CASES: Dict[str, Callable[[], Any]] = {
    "example": lambda: LogConverter(20).convert_file(EXAMPLE),
    **{f"jittered-s{seed}": _jittered(seed) for seed in (1, 2, 3)},
    **{f"rounds-s{seed}": _rounds(seed) for seed in (1, 2)},
    **{f"clamped-s{seed}": _clamped(seed) for seed in (1, 2)},
    "clamp-boundary": _clamp_boundary(),
    "parsed-s1": _parsed(1),
}

_GOOD = json.dumps({"ts": 0.5, "u": 0, "v": 1, "op": "up"})

#: Case name -> the lines of a feed whose conversion must fail.
ERRORS: Dict[str, List[str]] = {
    "not-json": [_GOOD, "{oops"],
    "not-an-object": [_GOOD, "[1, 2]"],
    "bad-op": [_GOOD, json.dumps({"ts": 1, "u": 0, "v": 1, "op": "flap"})],
    "missing-endpoint": [_GOOD, json.dumps({"ts": 1, "u": 0, "op": "up"})],
    "non-integer-endpoint": [_GOOD, json.dumps({"ts": 1, "u": 0, "v": 1.0, "op": "up"})],
    "self-loop": [_GOOD, json.dumps({"ts": 1, "u": 2, "v": 2, "op": "up"})],
    "negative-node": [_GOOD, json.dumps({"ts": 1, "u": -1, "v": 2, "op": "up"})],
    "out-of-range": [_GOOD, json.dumps({"ts": 1, "u": 0, "v": 8, "op": "up"})],
    "missing-ts": [_GOOD, json.dumps({"u": 0, "v": 1, "op": "up"})],
    "non-finite-ts": [_GOOD, '{"ts": NaN, "u": 0, "v": 1, "op": "up"}'],
    "bad-round": [_GOOD, json.dumps({"round": 1.5, "u": 0, "v": 1, "op": "up"})],
    "before-origin": [_GOOD, json.dumps({"ts": 0.25, "u": 1, "v": 2, "op": "up"})],
    "blank-lines-count": [_GOOD, "", "   ", json.dumps({"ts": 1, "u": 0, "v": 1, "op": "?"})],
}


def _digest(value: Any) -> str:
    return hashlib.sha1(json.dumps(value).encode()).hexdigest()


def convert_case(name: str) -> Dict[str, Any]:
    """One case's pinned outputs."""
    converted = CASES[name]()
    trace = converted.trace
    return {
        "n": trace.n,
        "rounds": trace.num_rounds,
        "events": trace.total_changes,
        "rounds_digest": _digest([[list(map(list, ins)), list(map(list, dels))]
                                  for ins, dels in trace.rounds]),
        "stats": [[key, value] for key, value in converted.stats.items()],
    }


def error_of(name: str) -> str:
    """The message a malformed feed's conversion raises."""
    try:
        LogConverter(8).convert_lines(ERRORS[name])
    except LogConversionError as exc:
        return str(exc)
    raise AssertionError(f"error case {name!r} converted without an error")


def compute() -> Dict[str, Any]:
    """The baseline document."""
    return {
        "outputs": {name: convert_case(name) for name in CASES},
        "errors": {name: error_of(name) for name in ERRORS},
    }


def first_difference(expected: Dict[str, Any], actual: Dict[str, Any]) -> List[str]:
    """``[case, field, expected, actual]`` of the first difference, or ``[]``."""

    def flatten(doc: Dict[str, Any]) -> Dict[Tuple[str, str], Any]:
        flat = {(name, key): value for name, fields in doc["outputs"].items()
                for key, value in fields.items()}
        flat.update({(name, "error"): message for name, message in doc["errors"].items()})
        return flat

    want, got = flatten(expected), flatten(actual)
    for key in sorted(set(want) | set(got)):
        if want.get(key) != got.get(key):
            return [*key, repr(want.get(key)), repr(got.get(key))]
    return []


def render(doc: Dict[str, Any]) -> str:
    """The baseline file's exact text for ``doc``."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def main() -> int:
    doc = compute()
    BASELINE.write_text(render(doc))
    print(f"wrote {len(CASES)} conversions and {len(ERRORS)} errors to {BASELINE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
