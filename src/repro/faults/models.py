"""Seeded, deterministic fault models.

A :class:`FaultModel` describes *environmental* failures layered on top of the
adversary's topology schedule: lossy links, crashing nodes, correlated
regional outages and partition/heal cycles.  Every model is a pure function
of ``(seed, round, ...)`` -- no hidden RNG state that depends on call order --
so the same spec produces bit-identical fault schedules under the dense and
sparse scheduling policies, in every process, and a scripted replay of a fuzzed schedule
re-derives exactly the physical topology the original run saw.

Two fault surfaces exist:

* **delivery faults** (``affects_delivery``): the engine consults
  :meth:`FaultModel.drops_message` for every non-silent envelope *after*
  bandwidth charging and send accounting, *before* inbox insertion.  A
  dropped message is sent-but-lost: it costs bandwidth and shows up in
  ``num_envelopes``/``bits_sent`` exactly like a delivered one, so the
  per-round records stay engine-independent.
* **topology faults** (``affects_topology``): the
  :class:`~repro.faults.overlay.FaultOverlayAdversary` masks the adversary's
  *logical* graph down to the *physical* graph the algorithm runs on --
  edges incident to down nodes and edges cut by a partition disappear, and
  reappear on recovery/heal.  Crashed nodes receive their edge-delete
  indications (the network tears the links; the model has no fail-silent
  notion below the topology layer).

The :class:`FaultPlan` is the per-run handle shared by the overlay, the
engines and the drain loop: it carries the model, the amnesia reset schedule,
the fault statistics, and the drain-freeze latch (fault activity stops when
the drain phase starts, so lossy cells still converge; pass
``during_drain=true`` to keep faulting through the drain).
"""

from __future__ import annotations

from hashlib import blake2b
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

__all__ = [
    "FaultModel",
    "UniformLoss",
    "GilbertElliottLoss",
    "CrashRecover",
    "RegionalOutage",
    "PartitionCycle",
    "FaultPlan",
    "FAULTS",
    "FAULT_NONE",
    "register_fault",
    "build_fault_plan",
]

#: Spec value meaning "no fault model"; kept out of the registry so campaign
#: grids can sweep ``sorted(FAULTS)`` without a no-op cell sneaking in.
FAULT_NONE = "none"


def _digest(*parts) -> int:
    """A 64-bit digest of the given parts (stable across processes/platforms).

    The builtin ``hash()`` is salted per process, so every fault decision
    goes through blake2b instead: same seed, same round, same answer, in
    every process (campaign workers included).
    """
    h = blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode("ascii"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big")


def _unit(*parts) -> float:
    """A deterministic draw in ``[0, 1)`` keyed by the given parts."""
    return _digest(*parts) / 2**64


class FaultModel:
    """Base class: a no-fault model; subclasses override the hooks they use.

    Args:
        n: network size.
        seed: the spec seed; every decision is keyed by it.
    """

    #: Registry name (set per subclass; used to key the digest stream so two
    #: models with the same seed make independent decisions).
    name = "base"
    #: Whether the model masks edges (consulted via the overlay adversary).
    affects_topology = False
    #: Whether the model drops messages (consulted in the engines' send loop).
    affects_delivery = False
    #: Whether recovering nodes lose their local state (amnesia variant).
    amnesia = False

    def __init__(self, n: int, seed: int) -> None:
        if n <= 0:
            raise ValueError("fault model needs a positive network size")
        self.n = int(n)
        self.seed = int(seed)

    # -- delivery surface ---------------------------------------------- #
    def drops_message(self, round_index: int, sender: int, target: int) -> bool:
        """Whether the envelope ``sender -> target`` is lost this round."""
        return False

    # -- topology surface ---------------------------------------------- #
    def down_nodes(self, round_index: int) -> FrozenSet[int]:
        """Nodes that are crashed (all incident edges masked) this round."""
        return frozenset()

    def cuts_edge(self, round_index: int, u: int, v: int) -> bool:
        """Whether the (undirected) edge ``{u, v}`` is severed this round."""
        return False


class UniformLoss(FaultModel):
    """Independent per-message loss: each envelope is dropped w.p. ``p``."""

    name = "uniform_loss"
    affects_delivery = True

    def __init__(self, n: int, seed: int, *, p: float = 0.05) -> None:
        super().__init__(n, seed)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], got {p}")
        self.p = float(p)

    def drops_message(self, round_index: int, sender: int, target: int) -> bool:
        if self.p <= 0.0:
            return False
        return _unit(self.seed, self.name, round_index, sender, target) < self.p


class GilbertElliottLoss(FaultModel):
    """Bursty loss: a two-state Gilbert-Elliott chain per directed link.

    Each link is *good* or *bad*; per round it enters the bad state w.p.
    ``p_enter`` and leaves it w.p. ``p_exit``.  Messages are dropped w.p.
    ``loss_bad`` while bad (``loss_good`` while good, default 0).  The chain
    is advanced lazily with a monotone per-link cursor, but the state at any
    round is a pure function of ``(seed, link, round)`` -- the walk from
    round 1 -- so the call pattern (which differs between engines) cannot
    change the answers.
    """

    name = "burst_loss"
    affects_delivery = True

    def __init__(
        self,
        n: int,
        seed: int,
        *,
        p_enter: float = 0.05,
        p_exit: float = 0.3,
        loss_good: float = 0.0,
        loss_bad: float = 0.9,
    ) -> None:
        super().__init__(n, seed)
        for label, value in (
            ("p_enter", p_enter),
            ("p_exit", p_exit),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {value}")
        self.p_enter = float(p_enter)
        self.p_exit = float(p_exit)
        self.loss_good = float(loss_good)
        self.loss_bad = float(loss_bad)
        # Per-link chain cursor: (u, v) -> (last advanced round, in bad state).
        self._chain: Dict[Tuple[int, int], Tuple[int, bool]] = {}

    def _bad(self, round_index: int, u: int, v: int) -> bool:
        last, bad = self._chain.get((u, v), (0, False))
        if round_index < last:
            # Out-of-order query (never happens in a forward run); replay the
            # walk from the start so the answer stays call-order independent.
            last, bad = 0, False
        for r in range(last + 1, round_index + 1):
            if bad:
                bad = _unit(self.seed, self.name, "exit", u, v, r) >= self.p_exit
            else:
                bad = _unit(self.seed, self.name, "enter", u, v, r) < self.p_enter
        self._chain[(u, v)] = (round_index, bad)
        return bad

    def drops_message(self, round_index: int, sender: int, target: int) -> bool:
        p = self.loss_bad if self._bad(round_index, sender, target) else self.loss_good
        if p <= 0.0:
            return False
        return _unit(self.seed, self.name, "drop", round_index, sender, target) < p


class CrashRecover(FaultModel):
    """Independent node crash/recover cycles.

    Rounds are grouped into epochs of ``cycle`` rounds.  Per (node, epoch),
    the node crashes w.p. ``crash_p`` and stays down for ``downtime``
    consecutive rounds at a seeded offset inside the epoch.  With
    ``amnesia=True`` a recovering node comes back with a **fresh** algorithm
    instance (its local state is lost); otherwise it is a clean stop/resume
    and only its edges flapped.
    """

    name = "crash"
    affects_topology = True

    def __init__(
        self,
        n: int,
        seed: int,
        *,
        crash_p: float = 0.2,
        cycle: int = 8,
        downtime: int = 3,
        amnesia: bool = False,
    ) -> None:
        super().__init__(n, seed)
        if not 0.0 <= crash_p <= 1.0:
            raise ValueError(f"crash_p must be in [0, 1], got {crash_p}")
        if cycle < 1 or downtime < 1 or downtime > cycle:
            raise ValueError(
                f"need 1 <= downtime <= cycle, got cycle={cycle} downtime={downtime}"
            )
        self.crash_p = float(crash_p)
        self.cycle = int(cycle)
        self.downtime = int(downtime)
        self.amnesia = bool(amnesia)

    def _is_down(self, round_index: int, v: int) -> bool:
        if round_index < 1:
            return False
        epoch, offset = divmod(round_index - 1, self.cycle)
        if _unit(self.seed, self.name, "crash", v, epoch) >= self.crash_p:
            return False
        slots = self.cycle - self.downtime + 1
        start = _digest(self.seed, self.name, "start", v, epoch) % slots
        return start <= offset < start + self.downtime

    def down_nodes(self, round_index: int) -> FrozenSet[int]:
        return frozenset(
            v for v in range(self.n) if self._is_down(round_index, v)
        )


class RegionalOutage(FaultModel):
    """Correlated failures: contiguous node regions crash together.

    The node range is split into ``regions`` contiguous blocks; per
    (region, epoch) the whole block goes down w.p. ``outage_p`` for
    ``downtime`` rounds, modelling a rack/zone losing power rather than
    independent node failures.
    """

    name = "regional"
    affects_topology = True

    def __init__(
        self,
        n: int,
        seed: int,
        *,
        regions: int = 3,
        outage_p: float = 0.25,
        cycle: int = 10,
        downtime: int = 4,
        amnesia: bool = False,
    ) -> None:
        super().__init__(n, seed)
        if regions < 1 or regions > n:
            raise ValueError(f"need 1 <= regions <= n, got {regions}")
        if not 0.0 <= outage_p <= 1.0:
            raise ValueError(f"outage_p must be in [0, 1], got {outage_p}")
        if cycle < 1 or downtime < 1 or downtime > cycle:
            raise ValueError(
                f"need 1 <= downtime <= cycle, got cycle={cycle} downtime={downtime}"
            )
        self.regions = int(regions)
        self.outage_p = float(outage_p)
        self.cycle = int(cycle)
        self.downtime = int(downtime)
        self.amnesia = bool(amnesia)

    def _region_of(self, v: int) -> int:
        # A contiguous balanced split of 0..n-1: the first
        # (n % regions) regions get one extra node.  regions <= n, so the
        # base block size is always >= 1.
        base, extra = divmod(self.n, self.regions)
        if v < (base + 1) * extra:
            return v // (base + 1)
        return extra + (v - (base + 1) * extra) // base

    def _region_down(self, round_index: int, region: int) -> bool:
        if round_index < 1:
            return False
        epoch, offset = divmod(round_index - 1, self.cycle)
        if _unit(self.seed, self.name, "outage", region, epoch) >= self.outage_p:
            return False
        slots = self.cycle - self.downtime + 1
        start = _digest(self.seed, self.name, "start", region, epoch) % slots
        return start <= offset < start + self.downtime

    def down_nodes(self, round_index: int) -> FrozenSet[int]:
        downs = [
            g for g in range(self.regions) if self._region_down(round_index, g)
        ]
        if not downs:
            return frozenset()
        down_set = set(downs)
        return frozenset(
            v for v in range(self.n) if self._region_of(v) in down_set
        )


class PartitionCycle(FaultModel):
    """Partition/heal cycles: the network splits in two, then heals.

    Every ``period`` rounds a new cycle starts: for the first ``split``
    rounds every edge crossing a seeded 2-coloring of the nodes is severed
    (the coloring is re-drawn per cycle, so different cuts are exercised);
    for the remaining rounds the cut heals and the masked edges reappear.
    """

    name = "partition"
    affects_topology = True

    def __init__(
        self, n: int, seed: int, *, period: int = 10, split: int = 4
    ) -> None:
        super().__init__(n, seed)
        if period < 1 or split < 0 or split > period:
            raise ValueError(
                f"need 0 <= split <= period, got period={period} split={split}"
            )
        self.period = int(period)
        self.split = int(split)

    def _side(self, cycle: int, v: int) -> int:
        return _digest(self.seed, self.name, "side", cycle, v) & 1

    def cuts_edge(self, round_index: int, u: int, v: int) -> bool:
        if round_index < 1 or self.split == 0:
            return False
        cycle, offset = divmod(round_index - 1, self.period)
        if offset >= self.split:
            return False
        return self._side(cycle, u) != self._side(cycle, v)


class FaultPlan:
    """The per-run fault handle shared by overlay, engines and drain loop.

    One plan is built per cell/run from the spec's ``faults``/``fault_params``
    fields.  It owns the model, the amnesia reset schedule (recorded by the
    overlay, consumed by the engines), the fault statistics (merged into the
    cell metrics as ``fault_*`` keys), and the drain-freeze latch.

    The ``algorithm_factory`` attribute is set by whoever wires the plan into
    a run (:class:`~repro.simulator.runner.SimulationRunner`); the engine
    calls :meth:`fresh_node` through it to rebuild amnesiac nodes.
    """

    def __init__(self, model: FaultModel, *, during_drain: bool = False) -> None:
        self.model = model
        self.name = model.name
        self.during_drain = bool(during_drain)
        self.algorithm_factory: Optional[Callable] = None
        self.stats: Dict[str, int] = {
            "fault_messages_dropped": 0,
            "fault_node_resets": 0,
            "fault_masked_edges": 0,
            "fault_down_node_rounds": 0,
        }
        self._resets_by_round: Dict[int, Tuple[int, ...]] = {}
        self._draining = False

    # -- surfaces ------------------------------------------------------ #
    @property
    def affects_topology(self) -> bool:
        return self.model.affects_topology

    @property
    def affects_delivery(self) -> bool:
        return self.model.affects_delivery

    # -- delivery ------------------------------------------------------ #
    def message_dropped(self, round_index: int, sender: int, target: int) -> bool:
        """Engine hook: whether this envelope is lost (and count it if so)."""
        if self._draining:
            return False
        if self.model.drops_message(round_index, sender, target):
            self.stats["fault_messages_dropped"] += 1
            return True
        return False

    # -- amnesia resets ------------------------------------------------ #
    def record_resets(self, round_index: int, nodes: Sequence[int]) -> None:
        """Overlay hook: these nodes recover with fresh state this round."""
        if nodes:
            self._resets_by_round[round_index] = tuple(nodes)
            self.stats["fault_node_resets"] += len(nodes)

    def resets_for_round(self, round_index: int) -> Tuple[int, ...]:
        """Engine hook: node ids to rebuild right after the topology stage."""
        return self._resets_by_round.get(round_index, ())

    def fresh_node(self, v: int, n: int):
        """Build a blank algorithm instance for a recovering amnesiac node."""
        if self.algorithm_factory is None:
            raise RuntimeError(
                "fault plan has no algorithm_factory; it was never wired into a run"
            )
        return self.algorithm_factory(v, n)

    # -- topology accounting (overlay hook) ---------------------------- #
    def note_topology_round(self, *, masked_edges: int, down_nodes: int) -> None:
        self.stats["fault_masked_edges"] += masked_edges
        self.stats["fault_down_node_rounds"] += down_nodes

    # -- drain freeze --------------------------------------------------- #
    def enter_drain(self) -> None:
        """Freeze fault activity for the drain phase (unless opted in).

        Drain rounds never consult the adversary, so topology faults freeze
        on their own; message loss would keep firing and can livelock a
        self-stabilizing protocol that is re-sending the same lost update
        forever, so it is latched off here.  ``during_drain=true`` keeps the
        loss on (for experiments that *want* to observe non-convergence).
        """
        if not self.during_drain:
            self._draining = True


#: Registered fault model builders, keyed by spec/CLI name.
FAULTS: Dict[str, Callable[..., FaultModel]] = {}


def register_fault(name: str, builder: Callable[..., FaultModel]) -> None:
    """Register a fault model builder under ``name`` (spec ``faults`` value)."""
    if name == FAULT_NONE:
        raise ValueError(f"{FAULT_NONE!r} is reserved for 'no faults'")
    if name in FAULTS:
        raise ValueError(f"fault model {name!r} already registered")
    FAULTS[name] = builder


for _cls in (UniformLoss, GilbertElliottLoss, CrashRecover, RegionalOutage, PartitionCycle):
    register_fault(_cls.name, _cls)


def build_fault_plan(
    name: str, *, n: int, seed: int, params: Optional[Dict] = None
) -> Optional[FaultPlan]:
    """Build the :class:`FaultPlan` for a spec's fault axis (``None`` if off).

    ``params`` are the spec's ``fault_params``; the plan-level
    ``during_drain`` knob lives there too, every other key is forwarded to
    the model builder.  Unknown names/params surface as ``ValueError`` so the
    CLI reports them as usage errors.
    """
    if name == FAULT_NONE:
        return None
    builder = FAULTS.get(name)
    if builder is None:
        raise ValueError(
            f"unknown fault model {name!r}; choose from "
            f"{FAULT_NONE}, {', '.join(sorted(FAULTS))}"
        )
    kwargs = dict(params or {})
    during_drain = bool(kwargs.pop("during_drain", False))
    try:
        model = builder(n, seed, **kwargs)
    except TypeError as exc:
        raise ValueError(f"bad fault_params for {name!r}: {exc}") from exc
    return FaultPlan(model, during_drain=during_drain)
