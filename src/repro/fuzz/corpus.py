"""The reproducer corpus: minimized failing schedules as permanent regressions.

A :class:`CorpusStore` owns one directory (``ResultStore``-style JSONL)::

    <root>/
      corpus.jsonl   # one CorpusEntry per line, appended as failures land

Every entry is a self-contained scripted reproducer -- algorithm, ``n``, the
(minimized) schedule and the recorded
:class:`~repro.fuzz.signature.FailureSignature` -- plus an ``expect`` verdict:

* ``expect == "fail"``: the bug is open; replay is OK while the failure
  class still reproduces, and *flags the entry as stale the moment the
  failure stops reproducing* (the bug got fixed -- flip the entry to
  ``"pass"`` and keep it forever as a regression guard).
* ``expect == "pass"``: the bug is fixed; replay is OK while the cell runs
  clean under dense and sparse.

The committed corpus under ``tests/data/fuzz_corpus/`` is replayed by the
tier-1 suite, so every bug the fuzzer ever minimized keeps being retested on
both scheduling policies forever.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional

from ..experiments.spec import ExperimentSpec
from ..obs.sink import read_jsonl
from .signature import FailureSignature, evaluate_spec, trace_fingerprint

__all__ = ["CorpusEntry", "CorpusStore", "ReplayOutcome"]

_EXPECTS = ("fail", "pass")


@dataclass
class CorpusEntry:
    """One stored reproducer.

    ``faults``/``fault_params``/``seed`` make fault-triggered reproducers
    self-contained: the scripted schedule is the *logical* topology and the
    fault plan (a pure function of the seed) rebuilds the physical faults on
    replay.  All three default to the fault-free values, so entries recorded
    before fault support round-trip bit-identically with unchanged ids.
    Every entry replays under dense and sparse; :meth:`from_dict` ignores the
    ``modes`` key older corpora carry.
    """

    algorithm: str
    n: int
    trace: Dict[str, Any]  # TopologyTrace.to_dict() form
    signature: FailureSignature
    expect: str = "fail"
    drain: bool = True
    note: str = ""
    provenance: Dict[str, Any] = field(default_factory=dict)
    added_at: float = 0.0
    faults: str = "none"
    fault_params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.expect not in _EXPECTS:
            raise ValueError(f"expect must be one of {_EXPECTS}, got {self.expect!r}")

    @property
    def entry_id(self) -> str:
        rounds = [(r["insert"], r["delete"]) for r in self.trace["rounds"]]
        # The fault tag joins the digest only when set: fault-free ids are
        # byte-identical to those of entries recorded before fault support.
        algorithm = self.algorithm
        if self.faults != "none":
            tag = json.dumps(
                {"faults": self.faults, "params": self.fault_params, "seed": self.seed},
                sort_keys=True,
            )
            algorithm = f"{self.algorithm}@{tag}"
        return trace_fingerprint(algorithm, self.n, rounds, drain=self.drain)[:16]

    @property
    def num_rounds(self) -> int:
        return len(self.trace["rounds"])

    def spec(self) -> ExperimentSpec:
        """The self-contained scripted cell this entry replays as."""
        return ExperimentSpec(
            algorithm=self.algorithm,
            adversary="scripted",
            n=self.n,
            rounds=None,
            seed=self.seed,
            adversary_params={"trace": json.loads(json.dumps(self.trace))},
            drain=self.drain,
            faults=self.faults,
            fault_params=dict(self.fault_params),
        )

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        data = {
            "entry_id": self.entry_id,
            "algorithm": self.algorithm,
            "n": self.n,
            "trace": self.trace,
            "signature": self.signature.to_dict(),
            "expect": self.expect,
            "drain": self.drain,
            "note": self.note,
            "provenance": dict(self.provenance),
            "added_at": self.added_at,
        }
        if self.faults != "none":
            data["faults"] = self.faults
            data["fault_params"] = dict(self.fault_params)
            data["seed"] = self.seed
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CorpusEntry":
        return cls(
            algorithm=str(data["algorithm"]),
            n=int(data["n"]),
            trace=dict(data["trace"]),
            signature=FailureSignature.from_dict(data.get("signature", {})),
            expect=str(data.get("expect", "fail")),
            drain=bool(data.get("drain", True)),
            note=str(data.get("note", "")),
            provenance=dict(data.get("provenance", {})),
            added_at=float(data.get("added_at", 0.0)),
            faults=str(data.get("faults", "none")),
            fault_params=dict(data.get("fault_params", {})),
            seed=int(data.get("seed", 0)),
        )


@dataclass
class ReplayOutcome:
    """The verdict of replaying one corpus entry."""

    entry: CorpusEntry
    observed: FailureSignature
    ok: bool
    detail: str

    def describe(self) -> str:
        verdict = "ok" if self.ok else "STALE/FAIL"
        return f"[{self.entry.entry_id}] {self.entry.algorithm} n={self.entry.n} ({self.entry.num_rounds} rounds): {verdict} -- {self.detail}"


class CorpusStore:
    """JSONL-backed store of minimized reproducers."""

    CORPUS_FILE = "corpus.jsonl"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.corpus_path = self.root / self.CORPUS_FILE
        # Stored entry ids, loaded lazily once and maintained incrementally by
        # :meth:`add` so a long fuzz session does not re-parse the whole file
        # per bank.  (Per-instance: concurrent external writers are not part
        # of the corpus contract.)
        self._known_ids: Optional[set[str]] = None

    # ------------------------------------------------------------------ #
    # Reading / writing
    # ------------------------------------------------------------------ #
    def entries(self) -> List[CorpusEntry]:
        """All stored entries, oldest first (later duplicates are dropped).

        Undecodable lines are skipped (appends are flushed line-by-line, so
        broken JSON can only be a torn append that was never acknowledged).
        A line that *parses* but does not form a valid entry is different: it
        is a hand-edit gone wrong, and silently dropping it would remove a
        regression guard from the replay gate -- so it raises instead.
        """
        if not self.corpus_path.exists():
            return []
        out: List[CorpusEntry] = []
        seen: set[str] = set()
        for lineno, data in read_jsonl(self.corpus_path):
            try:
                entry = CorpusEntry.from_dict(data)
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(
                    f"{self.corpus_path}:{lineno}: invalid corpus entry ({exc}); "
                    "fix the hand-edited line instead of letting the reproducer "
                    "silently drop out of the replay gate"
                ) from exc
            if entry.entry_id not in seen:
                seen.add(entry.entry_id)
                out.append(entry)
        return out

    def add(self, entry: CorpusEntry) -> bool:
        """Append ``entry`` unless its schedule is already stored.

        Returns whether the entry was new.  The line is flushed immediately,
        matching :class:`~repro.experiments.store.ResultStore` durability.
        """
        if self._known_ids is None:
            self._known_ids = {existing.entry_id for existing in self.entries()}
        if entry.entry_id in self._known_ids:
            return False
        if not entry.added_at:
            entry.added_at = time.time()
        self.root.mkdir(parents=True, exist_ok=True)
        with self.corpus_path.open("a") as handle:
            handle.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")
            handle.flush()
        self._known_ids.add(entry.entry_id)
        return True

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #
    def replay(self, entry: CorpusEntry) -> ReplayOutcome:
        """Re-run one reproducer and grade it against its ``expect`` verdict."""
        observed, _ = evaluate_spec(entry.spec())
        if entry.expect == "pass":
            ok = not observed.is_failure
            detail = (
                "replays clean (fixed bug stays fixed)"
                if ok
                else f"regression: {observed.describe()}"
            )
        else:
            ok = observed.matches(entry.signature)
            if ok:
                detail = f"still reproduces: {observed.describe()}"
            elif observed.is_failure:
                detail = (
                    f"failure class changed: recorded {entry.signature.describe()}, "
                    f"observed {observed.describe()}"
                )
            else:
                detail = (
                    "stopped failing-as-expected (bug fixed?); flip the entry's "
                    "expect to 'pass' to keep it as a permanent regression"
                )
        return ReplayOutcome(entry=entry, observed=observed, ok=ok, detail=detail)

    def replay_all(
        self,
        *,
        progress: Optional[Callable[[ReplayOutcome, int, int], None]] = None,
    ) -> List[ReplayOutcome]:
        """Replay every stored entry; see :meth:`replay` for grading."""
        entries = self.entries()
        outcomes: List[ReplayOutcome] = []
        for i, entry in enumerate(entries):
            outcome = self.replay(entry)
            outcomes.append(outcome)
            if progress is not None:
                progress(outcome, i + 1, len(entries))
        return outcomes
