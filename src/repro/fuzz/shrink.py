"""ddmin-style shrinking of diverging / check-failing schedules.

Given any failing cell (a :class:`~repro.verification.differential.Divergence`,
a structured check failure, or a run that raises), the shrinker produces a
*minimal* scripted trace that still reproduces the same failure class, by
repeatedly deleting rounds and events and renaming nodes and re-validating
every candidate through the differential harness:

1. **Round ddmin** -- delete contiguous chunks of rounds (halving chunk size
   down to single rounds).
2. **Event ddmin** -- delete chunks of individual insert/delete events.
3. **Empty-round elision** -- drop quiet rounds entirely.
4. **Node renaming** -- compact the referenced node ids to ``0 .. k-1`` and
   shrink ``n`` accordingly (this is why scripted replay is strict about
   out-of-range node ids).

Deleting events can orphan later ones (a delete of a never-inserted edge), so
every candidate is first passed through :func:`legalize`, which drops events
that are illegal against the running edge set -- re-validation then decides
whether the legalized schedule still reproduces.  Verdicts are cached by
schedule fingerprint, because ddmin revisits overlapping candidates.

Every *accepted* reduction step reproduces the original failure class by
construction (a candidate is only kept when :meth:`FailureSignature.matches`
holds), shrinking is deterministic, and re-shrinking a minimized schedule is
a no-op -- invariants pinned by ``tests/test_fuzz_shrinker.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..experiments.spec import ExperimentSpec
from ..obs.telemetry import TELEMETRY
from ..simulator.trace import TopologyTrace
from .generators import build_fuzz_adversary
from .signature import FailureSignature, evaluate_spec, trace_fingerprint

__all__ = ["ShrinkResult", "Shrinker", "legalize", "materialize_trace", "shrink_failure"]

Edge = Tuple[int, int]
Round = Tuple[List[Edge], List[Edge]]


def _canon(edge) -> Edge:
    a, b = int(edge[0]), int(edge[1])
    return (a, b) if a < b else (b, a)


def legalize(rounds: Sequence) -> List[Round]:
    """Drop events that are illegal against the running edge set.

    Keeps, per round, deletions of currently present edges and insertions of
    currently absent ones, at most one event per edge per round (deletions
    win ties, mirroring :meth:`RoundChanges.of`'s delete-first ordering).
    A legal schedule passes through unchanged.
    """
    present: set[Edge] = set()
    out: List[Round] = []
    for ins, dels in rounds:
        touched: set[Edge] = set()
        keep_dels: List[Edge] = []
        keep_ins: List[Edge] = []
        for e in map(_canon, dels):
            if e in present and e not in touched:
                keep_dels.append(e)
                touched.add(e)
                present.discard(e)
        for e in map(_canon, ins):
            if e not in present and e not in touched:
                keep_ins.append(e)
                touched.add(e)
                present.add(e)
        out.append((keep_ins, keep_dels))
    return out


def materialize_trace(spec: ExperimentSpec) -> TopologyTrace:
    """The explicit schedule a spec's adversary realizes.

    ``scripted`` cells carry it inline (or as a file), ``fuzz`` cells
    regenerate it from the seed; for anything else the adversary is re-driven
    against a bare network (assuming an always-consistent view, which holds
    for every open-loop adversary).
    """
    if spec.adversary == "scripted":
        params = dict(spec.adversary_params)
        if "trace" in params:
            return TopologyTrace.from_dict(params["trace"])
        return TopologyTrace.load(params["trace_path"])
    if spec.adversary == "fuzz":
        # The builder the registry uses, so defaults can never drift between
        # the schedule that ran and the schedule being materialized.
        return build_fuzz_adversary(
            spec.n, spec.rounds, spec.seed, dict(spec.adversary_params)
        ).trace
    from ..experiments.registry import build_adversary
    from ..simulator.adversary import AdversaryView
    from ..simulator.network import DynamicNetwork

    adversary = build_adversary(
        spec.adversary, n=spec.n, rounds=spec.rounds, seed=spec.seed,
        params=spec.adversary_params,
    )
    network = DynamicNetwork(spec.n)
    trace = TopologyTrace(n=spec.n)
    budget = spec.rounds if spec.rounds is not None else 10_000
    while trace.num_rounds < budget and not adversary.is_done:
        view = AdversaryView.from_network(network, network.round_index + 1, True)
        changes = adversary.changes_for_round(view)
        if changes is None:
            break
        network.apply_changes(network.round_index + 1, changes)
        trace.append(changes)
    return trace


@dataclass
class ShrinkResult:
    """What one shrink session did and what it ended with."""

    original: ExperimentSpec
    minimized: ExperimentSpec
    signature: FailureSignature
    rounds_before: int
    rounds_after: int
    events_before: int
    events_after: int
    n_before: int
    n_after: int
    candidates_tried: int = 0
    cache_hits: int = 0
    accepted_steps: int = 0

    @property
    def trace_dict(self) -> Dict:
        """The minimized schedule in the scripted adversary's inline format."""
        return self.minimized.adversary_params["trace"]

    def describe(self) -> str:
        return (
            f"shrunk {self.rounds_before} rounds / {self.events_before} events / "
            f"n={self.n_before} -> {self.rounds_after} rounds / "
            f"{self.events_after} events / n={self.n_after} "
            f"({self.candidates_tried} candidates, {self.cache_hits} cache hits); "
            f"failure: {self.signature.describe()}"
        )


def _num_events(rounds: Sequence[Round]) -> int:
    return sum(len(ins) + len(dels) for ins, dels in rounds)


class Shrinker:
    """Minimizes failing schedules through the differential harness.

    Every candidate is re-validated under dense and sparse.

    Args:
        max_candidates: harness-run budget; when exhausted, the best
            reduction found so far is returned.
        min_n: smallest network the node-renaming pass may produce.
        progress: optional ``progress(event, detail)`` callback
            (``event in {"candidate", "accepted", "pass"}``).
    """

    def __init__(
        self,
        *,
        max_candidates: int = 1500,
        min_n: int = 2,
        progress: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        self.max_candidates = max_candidates
        self.min_n = min_n
        self.progress = progress
        self._cache: Dict[str, bool] = {}
        self._tried = 0
        self._cache_hits = 0
        self._accepted = 0

    # ------------------------------------------------------------------ #
    # Candidate evaluation
    # ------------------------------------------------------------------ #
    def _spec_for(self, template: ExperimentSpec, rounds: Sequence[Round], n: int) -> ExperimentSpec:
        data = template.to_dict()
        data.update(
            adversary="scripted",
            n=n,
            rounds=None,
            adversary_params={
                "trace": {
                    "n": n,
                    "rounds": [
                        {"insert": [list(e) for e in ins], "delete": [list(e) for e in dels]}
                        for ins, dels in rounds
                    ],
                }
            },
            checks=[],
            record_trace=True,
        )
        return ExperimentSpec.from_dict(data)

    def _reproduces(
        self, template: ExperimentSpec, target: FailureSignature, rounds: Sequence[Round], n: int
    ) -> bool:
        rounds = legalize(rounds)
        key = trace_fingerprint(template.algorithm, n, rounds, drain=template.drain)
        if key in self._cache:
            self._cache_hits += 1
            if TELEMETRY.enabled:
                TELEMETRY.count("fuzz.shrink_cache_hits")
            return self._cache[key]
        if self._tried >= self.max_candidates:
            return False  # budget exhausted: stop accepting further reductions
        self._tried += 1
        if TELEMETRY.enabled:
            TELEMETRY.count("fuzz.shrink_candidates")
        signature, _ = evaluate_spec(self._spec_for(template, rounds, n))
        verdict = signature.matches(target)
        self._cache[key] = verdict
        if self.progress is not None:
            self.progress("candidate", f"{len(rounds)} rounds -> {signature.describe()}")
        return verdict

    # ------------------------------------------------------------------ #
    # Reduction passes
    # ------------------------------------------------------------------ #
    @staticmethod
    def _ddmin(items: List, reproduces: Callable[[List], bool]) -> List:
        """Complement-based ddmin: greedily delete chunks, halving chunk size."""
        chunk = max(1, len(items) // 2)
        while True:
            reduced = False
            start = 0
            while start < len(items):
                candidate = items[:start] + items[start + chunk:]
                if len(candidate) < len(items) and reproduces(candidate):
                    items = candidate
                    reduced = True
                else:
                    start += chunk
            if not reduced:
                if chunk == 1:
                    return items
                chunk = max(1, chunk // 2)

    def _pass_rounds(self, template, target, rounds: List[Round], n: int) -> List[Round]:
        return self._ddmin(rounds, lambda cand: self._reproduces(template, target, cand, n))

    def _pass_events(self, template, target, rounds: List[Round], n: int) -> List[Round]:
        flat = [
            (i, kind, e)
            for i, (ins, dels) in enumerate(rounds)
            for kind, edges in (("i", ins), ("d", dels))
            for e in edges
        ]

        def rebuild(events: List) -> List[Round]:
            out: List[Round] = [([], []) for _ in rounds]
            for i, kind, e in events:
                out[i][0 if kind == "i" else 1].append(e)
            return out

        kept = self._ddmin(
            flat, lambda cand: self._reproduces(template, target, rebuild(cand), n)
        )
        return rebuild(kept)

    def _pass_drop_empty(self, template, target, rounds: List[Round], n: int) -> List[Round]:
        compact = [r for r in rounds if r[0] or r[1]]
        if len(compact) < len(rounds) and self._reproduces(template, target, compact, n):
            return compact
        return rounds

    def _pass_rename(
        self, template, target, rounds: List[Round], n: int
    ) -> Tuple[List[Round], int]:
        used = sorted({x for ins, dels in rounds for e in ins + dels for x in e})
        new_n = max(len(used), self.min_n)
        mapping = {old: i for i, old in enumerate(used)}
        if new_n >= n and all(mapping[x] == x for x in used):
            return rounds, n
        renamed = [
            (
                sorted(_canon((mapping[a], mapping[b])) for a, b in ins),
                sorted(_canon((mapping[a], mapping[b])) for a, b in dels),
            )
            for ins, dels in rounds
        ]
        if self._reproduces(template, target, renamed, new_n):
            return renamed, new_n
        # Renaming may perturb id-dependent behavior; try only shrinking n to
        # the highest referenced id without touching the ids themselves.
        tight_n = max(max(used, default=1) + 1, self.min_n)
        if tight_n < n and self._reproduces(template, target, rounds, tight_n):
            return rounds, tight_n
        return rounds, n

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def shrink(
        self, spec: ExperimentSpec, signature: Optional[FailureSignature] = None
    ) -> ShrinkResult:
        """Minimize ``spec``'s schedule while it reproduces ``signature``.

        ``signature`` defaults to whatever failure the spec currently
        exhibits; a spec that does not fail is rejected (there is nothing to
        preserve).  Returns the :class:`ShrinkResult` whose ``minimized``
        spec is a self-contained ``scripted`` cell.
        """
        rounds = legalize(
            [(list(map(_canon, ins)), list(map(_canon, dels))) for ins, dels in
             materialize_trace(spec).rounds]
        )
        n = spec.n
        if signature is None:
            signature, _ = evaluate_spec(self._spec_for(spec, rounds, n))
        if not signature.is_failure:
            raise ValueError(f"cell {spec.cell_id} does not fail; nothing to shrink")
        before_rounds, before_events, before_n = len(rounds), _num_events(rounds), n

        while True:
            progress_snapshot = (len(rounds), _num_events(rounds), n)
            for name in ("rounds", "events", "drop_empty"):
                handler = getattr(self, f"_pass_{name}")
                candidate = legalize(handler(spec, signature, rounds, n))
                if candidate != rounds:
                    self._accepted += 1
                rounds = candidate
                if self.progress is not None:
                    self.progress("pass", f"{name}: {len(rounds)} rounds")
            rounds, n = self._pass_rename(spec, signature, rounds, n)
            if (len(rounds), _num_events(rounds), n) == progress_snapshot:
                break
            if self._tried >= self.max_candidates:
                break

        minimized = self._spec_for(spec, rounds, n)
        return ShrinkResult(
            original=spec,
            minimized=minimized,
            signature=signature,
            rounds_before=before_rounds,
            rounds_after=len(rounds),
            events_before=before_events,
            events_after=_num_events(rounds),
            n_before=before_n,
            n_after=n,
            candidates_tried=self._tried,
            cache_hits=self._cache_hits,
            accepted_steps=self._accepted,
        )


def shrink_failure(
    spec: ExperimentSpec,
    signature: Optional[FailureSignature] = None,
    *,
    max_candidates: int = 1500,
    progress: Optional[Callable[[str, str], None]] = None,
) -> ShrinkResult:
    """Convenience wrapper: one fresh :class:`Shrinker` session."""
    return Shrinker(max_candidates=max_candidates, progress=progress).shrink(
        spec, signature
    )
