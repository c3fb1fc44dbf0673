"""Recording and replaying topology-change traces.

Every experiment in the benchmark harness is driven by an adversary; for
reproducibility (and to compare two algorithms on *exactly* the same dynamic
graph) the simulator can record the realized schedule as a
:class:`TopologyTrace` and replay it later.  Traces serialise to plain JSON so
they can be stored next to benchmark results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .adversary import Adversary, AdversaryView
from .events import Edge, RoundChanges

__all__ = ["TopologyTrace", "TraceRecordingAdversary", "TraceReplayAdversary"]


@dataclass
class TopologyTrace:
    """A realized topology-change schedule.

    Attributes:
        n: number of nodes the trace was produced for.
        rounds: one entry per round, each a pair
            ``(inserted_edges, deleted_edges)`` of edge sequences.  Entries
            are read, never mutated: the quiet rounds of a converted log all
            share one ``((), ())``.
    """

    n: int
    rounds: List[Tuple[Sequence[Edge], Sequence[Edge]]] = field(default_factory=list)

    def append(self, changes: RoundChanges) -> None:
        """Record one round's batch."""
        self.rounds.append((changes.insertions, changes.deletions))

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def total_changes(self) -> int:
        return sum(len(ins) + len(dels) for ins, dels in self.rounds)

    def changes_for(self, index: int) -> RoundChanges:
        """The batch recorded for the ``index``-th round (0-based)."""
        ins, dels = self.rounds[index]
        return RoundChanges.of(insert=ins, delete=dels)

    def max_node_id(self) -> int:
        """The largest node id any recorded event references (``-1`` if none)."""
        return max(
            (x for ins, dels in self.rounds for edge in (*ins, *dels) for x in edge),
            default=-1,
        )

    def check_fits(self, n: int) -> "TopologyTrace":
        """Reject replay on a network smaller than the one the trace declares.

        Returns the trace itself; :meth:`validate_nodes` then holds every
        edge to the declared range.
        """
        if self.n > n:
            raise ValueError(f"trace was recorded for n={self.n} but the spec has n={n}")
        return self

    def validate_nodes(self, n: Optional[int] = None) -> "TopologyTrace":
        """Reject schedules referencing nodes outside ``range(n)``.

        ``n`` defaults to the trace's own declared node count.  Raises
        ``ValueError`` naming the first offending round and edge; returns the
        trace itself so construction sites can chain the call.  Replay is
        strict on purpose: a trace touching nodes absent from the initial
        network was either recorded for a different network or corrupted,
        and the fuzz shrinker's node-renaming pass depends on such schedules
        failing loudly instead of half-applying.
        """
        limit = self.n if n is None else n
        for index, (ins, dels) in enumerate(self.rounds):
            for edge in (*ins, *dels):
                for x in edge:
                    if not 0 <= x < limit:
                        raise ValueError(
                            f"trace references node {x} (edge {tuple(edge)} in round "
                            f"{index + 1}) but the initial network only has nodes "
                            f"0..{limit - 1}"
                        )
        return self

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        return {
            "n": self.n,
            "rounds": [
                {"insert": [list(e) for e in ins], "delete": [list(e) for e in dels]}
                for ins, dels in self.rounds
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "TopologyTrace":
        """Rebuild a trace from its :meth:`to_dict` form, checking every round.

        Trace files, inline ``trace`` specs and fuzz-corpus entries all load
        through here.  Each round is built as a :class:`RoundChanges` (which
        canonicalizes its edges and rejects self loops, negative ids,
        malformed edges and an edge touched twice) and replayed against a
        running edge set, so a trace that inserts a present edge or deletes
        an absent one is rejected too.  Raises ``ValueError`` naming the
        round (1-based) and the edge, before anything is replayed.  Node ids
        are checked against ``n`` by :meth:`validate_nodes`.
        """
        try:
            trace = cls(n=int(data["n"]))
            entries = list(data["rounds"])
        except (KeyError, TypeError, ValueError):
            raise ValueError("a trace needs an integer 'n' and a 'rounds' list") from None
        present: Set[Edge] = set()
        for index, entry in enumerate(entries, start=1):
            if not isinstance(entry, dict) or "insert" not in entry or "delete" not in entry:
                raise ValueError(f"trace round {index} needs an 'insert' and a 'delete' list")
            try:
                changes = RoundChanges.of(insert=entry["insert"], delete=entry["delete"])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"trace round {index}: {exc}") from None
            for edge in changes.deletions:
                if edge not in present:
                    raise ValueError(f"trace round {index}: cannot delete missing edge {edge}")
                present.remove(edge)
            for edge in changes.insertions:
                if edge in present:
                    raise ValueError(f"trace round {index}: cannot insert existing edge {edge}")
                present.add(edge)
            trace.append(changes)
        return trace

    def save(self, path: str | Path) -> None:
        """Write the trace as JSON."""
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "TopologyTrace":
        """Read a trace previously written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))


class TraceRecordingAdversary(Adversary):
    """Wraps another adversary and records the schedule it actually produced."""

    def __init__(self, inner: Adversary, n: int) -> None:
        self.inner = inner
        self.trace = TopologyTrace(n=n)

    def changes_for_round(self, view: AdversaryView) -> Optional[RoundChanges]:
        changes = self.inner.changes_for_round(view)
        if changes is not None:
            self.trace.append(changes)
        return changes

    @property
    def is_done(self) -> bool:
        return self.inner.is_done


class TraceReplayAdversary(Adversary):
    """Replays a previously recorded :class:`TopologyTrace` round by round.

    The trace is validated up front: a schedule referencing node ids outside
    the trace's declared ``range(n)`` is rejected with a clear error (see
    :meth:`TopologyTrace.validate_nodes`) rather than surfacing mid-run or
    silently relying on the host network being larger than recorded.
    """

    def __init__(self, trace: TopologyTrace) -> None:
        self.trace = trace.validate_nodes()
        self._cursor = 0

    def changes_for_round(self, view: AdversaryView) -> Optional[RoundChanges]:
        if self._cursor >= self.trace.num_rounds:
            return None
        changes = self.trace.changes_for(self._cursor)
        self._cursor += 1
        return changes

    @property
    def is_done(self) -> bool:
        return self._cursor >= self.trace.num_rounds
