"""The node-algorithm interface of the highly dynamic model.

A distributed dynamic data structure is split among the nodes: node ``v``
holds a part ``DS_v`` which it updates in reaction to the topology indications
it receives and the messages of its neighbors, and which must answer queries
*without any communication* -- either correctly or by declaring itself
inconsistent.

:class:`NodeAlgorithm` captures exactly the per-round hooks of Figure 1 of the
paper:

1. ``on_topology_change`` -- the node is notified of insertions/deletions of
   its incident edges (beginning of the round).
2. ``compose_messages`` -- the *react & send* half-round: the node may send
   one :class:`~repro.simulator.messages.Envelope` to each current neighbor.
3. ``on_messages`` -- the *receive & update* half-round.
4. ``query`` / ``is_consistent`` -- the end-of-round query window, evaluated
   purely on local state.

Implementations live in :mod:`repro.core`; the simulator only relies on this
interface.

Quiescence
----------
The model is highly dynamic but *locally sparse*: in a typical round only a
handful of nodes are touched by changes or messages.  The sparse round engine
(:class:`~repro.simulator.rounds.SparseRoundEngine`) exploits this by skipping
the per-round hooks of nodes that declare themselves **quiescent** through the
:class:`QuiescenceProtocol` extension.  Declaring quiescence is a contract:
while :meth:`NodeAlgorithm.is_quiescent` returns ``True``, running the hooks
with no input must be a no-op, i.e.

* ``on_topology_change(r, (), ())`` leaves the local state unchanged,
* ``compose_messages(r)`` returns no non-silent envelope,
* ``on_messages(r, {})`` leaves the local state unchanged, and
* ``is_consistent()`` keeps returning the same value,

so skipping the node is observationally identical to running it.  The default
implementation returns ``False`` (the node is always active), which preserves
the dense semantics for algorithms that have not been ported.
"""

from __future__ import annotations

import enum
import hashlib
from abc import ABC, abstractmethod
from collections import deque
from typing import Any, Callable, Dict, Mapping, Protocol, Sequence, runtime_checkable

from .messages import Envelope

__all__ = [
    "NodeAlgorithm",
    "AlgorithmFactory",
    "QuiescenceProtocol",
    "ColumnarProtocol",
    "canonical_state",
    "state_fingerprint",
]


def canonical_state(obj: Any) -> Any:
    """A deterministic, order-independent canonical form of a state value.

    Sets and dicts are sorted (by the repr of their canonicalized elements, so
    mixed-type keys are fine), sequences become tuples, and arbitrary objects
    recurse into their ``__dict__`` under their class name -- which keeps the
    result independent of memory addresses and hash randomization.  Used by
    :func:`state_fingerprint` to compare node state across engines and
    processes.
    """
    if isinstance(obj, enum.Enum):
        # Before the int/str check: an IntEnum/StrEnum member must canonicalize
        # by identity, not by value.  Enum members reach here through queued
        # protocol items (e.g. EdgeOp) whenever an *undrained* node is
        # fingerprinted; their vars() is a mappingproxy, so without this case
        # they would fail the default-repr check below.
        return ("enum", type(obj).__name__, obj.name)
    if isinstance(obj, (str, int, float, bool, bytes, type(None))):
        return obj
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted((repr(canonical_state(x)) for x in obj))))
    if isinstance(obj, dict):
        return (
            "dict",
            tuple(
                sorted(
                    (repr(canonical_state(k)), repr(canonical_state(v)))
                    for k, v in obj.items()
                )
            ),
        )
    if isinstance(obj, (list, tuple, deque)):
        return ("seq", tuple(canonical_state(x) for x in obj))
    if hasattr(obj, "__dict__"):
        return ("obj", type(obj).__name__, canonical_state(vars(obj)))
    rendered = repr(obj)
    if " object at 0x" in rendered:
        # A default repr embeds the memory address, which differs between
        # processes and runs and would turn an identical run into a spurious
        # final-state divergence.  Fail loudly instead.
        raise TypeError(
            f"cannot canonicalize {type(obj).__name__} (no __dict__ and only a "
            "default repr); give it a deterministic __repr__ or state attributes"
        )
    return ("repr", rendered)


def state_fingerprint(obj: Any) -> str:
    """A stable digest of an object's full local state.

    Two objects of the same class whose (recursively canonicalized) attribute
    dictionaries coincide get the same fingerprint, regardless of process,
    hash seed, or set/dict insertion order.  The differential verification
    harness uses this to assert final-node-state identity across round
    engines without shipping whole node objects around.
    """
    payload = repr((type(obj).__name__, canonical_state(vars(obj))))
    return hashlib.sha1(payload.encode()).hexdigest()


@runtime_checkable
class QuiescenceProtocol(Protocol):
    """The activity self-report consumed by the sparse round engine.

    An object satisfying this protocol can tell the engine that, absent new
    topology indications or incoming messages, running its round hooks would
    be a no-op (see the module docstring for the exact contract).  Every
    :class:`NodeAlgorithm` satisfies it structurally via the conservative
    default; algorithms override :meth:`is_quiescent` to unlock
    activity-proportional scheduling.
    """

    def is_quiescent(self) -> bool:
        """Whether skipping this node's hooks is currently a no-op."""
        ...


@runtime_checkable
class ColumnarProtocol(Protocol):
    """The batched send/receive surface of the sparse policy's batch transport.

    When every node of a population is an instance of one class implementing
    this protocol, the :class:`~repro.simulator.rounds.SparseRoundEngine`
    runs the *react & send* and *receive & update* half-rounds over **all**
    of the active nodes at once, writing rows into a shared per-round
    :class:`~repro.simulator.columnar.SendBuffer` (struct-of-arrays: parallel
    ``senders`` / ``targets`` / ``edges`` / ``ops`` / ``patterns`` /
    ``empty_flags`` columns) instead of allocating one
    :class:`~repro.simulator.messages.Envelope` per link.  Per-node state
    stays authoritative in the instances -- queries, consistency checks and
    :func:`state_fingerprint` are untouched -- only the message traffic is
    columnar.

    Contract (pinned by the dense-vs-sparse differential identity gate):

    * ``columnar_compose`` must mutate each sender exactly as
      ``compose_messages`` would (queue dequeues included) and append one row
      per **non-silent** envelope, in the same per-sender target order that
      ``compose_messages`` iterates, with the row's ``edge``/``op``/
      ``pattern`` matching the envelope payload (``None`` columns for a
      payload-free "queue non-empty" signal) and ``empty_flag`` matching the
      envelope's ``is_empty`` bit.
    * ``columnar_deliver`` must be observationally identical to calling
      ``on_messages`` per receiver with an inbox holding exactly the rows of
      ``groups[receiver]`` keyed by sender in row order.  Receivers without a
      group entry received nothing and must still run their empty-inbox
      update.

    Classes not implementing the protocol, mixed populations, and subclasses
    that override ``compose_messages`` or ``on_messages`` without re-porting
    these classmethods stay on the per-envelope transport, so every
    registered algorithm runs under both scheduling policies.
    """

    @classmethod
    def columnar_compose(cls, nodes, senders, round_index, buf) -> None:
        """Batched ``compose_messages`` over ``senders`` (ascending ids)."""
        ...

    @classmethod
    def columnar_deliver(cls, nodes, round_index, receivers, buf, groups) -> None:
        """Batched ``on_messages`` over ``receivers`` (ascending ids)."""
        ...


class NodeAlgorithm(ABC):
    """Abstract base class for the per-node part of a distributed dynamic DS.

    Attributes:
        node_id: identifier of this node (``0 .. n-1``).
        n: total number of nodes in the network (known to all nodes, as usual
            in the CONGEST model).
    """

    def __init__(self, node_id: int, n: int) -> None:
        self.node_id = node_id
        self.n = n

    # ------------------------------------------------------------------ #
    # Round hooks (called by the round engine)
    # ------------------------------------------------------------------ #
    @abstractmethod
    def on_topology_change(
        self, round_index: int, inserted: Sequence[int], deleted: Sequence[int]
    ) -> None:
        """React to this round's indications about incident edges.

        Args:
            round_index: index of the current round ``i``.
            inserted: neighbors gained at the beginning of round ``i``.
            deleted: neighbors lost at the beginning of round ``i``.

        Called exactly once per round for every node, possibly with empty
        sequences if the node was not touched by any change.
        """

    @abstractmethod
    def compose_messages(self, round_index: int) -> Dict[int, Envelope]:
        """Produce the envelopes to send this round, keyed by neighbor id.

        The engine delivers an envelope only if the target is a *current*
        neighbor (an edge of ``G_i``); addressing a non-neighbor is a
        programming error and the engine rejects it.  Returning an empty dict
        (or omitting a neighbor) is interpreted by that neighbor as a silent
        envelope, i.e. ``IsEmpty = true``.
        """

    @abstractmethod
    def on_messages(self, round_index: int, received: Mapping[int, Envelope]) -> None:
        """Process the envelopes received from neighbors this round.

        ``received`` contains an entry for every *current* neighbor that sent
        a non-silent envelope.  Silence from a neighbor must be interpreted as
        ``IsEmpty = true`` per the paper's convention; implementations that
        need to notice silence explicitly should combine this mapping with
        their own adjacency knowledge.
        """

    # ------------------------------------------------------------------ #
    # Query window (no communication allowed)
    # ------------------------------------------------------------------ #
    @abstractmethod
    def is_consistent(self) -> bool:
        """Whether the local data structure currently declares itself consistent."""

    @abstractmethod
    def query(self, query: Any) -> Any:
        """Answer a query from local state only.

        The concrete query and answer types are defined by each problem in
        :mod:`repro.core.queries`.  Implementations must not access any other
        node or the network.
        """

    # ------------------------------------------------------------------ #
    # Quiescence (see QuiescenceProtocol)
    # ------------------------------------------------------------------ #
    def is_quiescent(self) -> bool:
        """Whether skipping this node's hooks is currently a no-op.

        The conservative default keeps unported algorithms on the dense
        schedule: a node that never declares quiescence is visited every
        round, exactly as :class:`~repro.simulator.rounds.RoundEngine` would.
        Overrides must honour the contract in the module docstring.
        """
        return False

    # ------------------------------------------------------------------ #
    # Optional introspection
    # ------------------------------------------------------------------ #
    def local_state_size(self) -> int:
        """A rough count of items held locally (for memory profiling)."""
        return 0

    def state_fingerprint(self) -> str:
        """A stable digest of this node's full local state (see :func:`state_fingerprint`)."""
        return state_fingerprint(self)


#: A factory building the algorithm instance for one node.  The runner calls
#: ``factory(node_id, n)`` once per node before the simulation starts.
AlgorithmFactory = Callable[[int, int], NodeAlgorithm]
