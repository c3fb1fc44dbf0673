"""The batch transport: one round's traffic as a struct of arrays.

The sparse scheduling policy (:class:`~repro.simulator.rounds.SparseRoundEngine`)
carries a round's messages on one of two transports.  The per-envelope
transport allocates an :class:`~repro.simulator.messages.Envelope` (plus
payload dataclass plus per-node dict) per link.  The batch transport is used
instead whenever the whole population is one class implementing the opt-in
:class:`~repro.simulator.node.ColumnarProtocol` (currently the
``triangle`` family and ``robust2hop``): that class composes the round's
entire traffic into one shared :class:`SendBuffer` -- parallel ``senders`` /
``targets`` / ``edges`` / ``ops`` / ``patterns`` / ``empty_flags`` columns --
and the engine groups rows by receiver in one sweep, so delivery walks the
grouped rows through the same message handlers the per-envelope path uses.
Targets are checked row by row against the network, and the whole buffer is
priced in O(1) from three row counters unless some row can exceed the
budget (see :meth:`~repro.simulator.bandwidth.BandwidthPolicy.charge_rows`).

Both transports produce bit-identical
:class:`~repro.simulator.metrics.RoundRecord` streams, bandwidth accounting,
fault statistics and final node state; the differential harness pins this by
running the dense policy (always per-envelope) against the sparse one.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .messages import id_bits

__all__ = ["SendBuffer", "batch_port"]


class SendBuffer:
    """One round's outgoing traffic as a struct of parallel arrays.

    Each row is one **non-silent** envelope: ``senders[i] -> targets[i]``
    carrying ``edges[i]`` / ``ops[i]`` / ``patterns[i]`` as an edge-event
    payload (all three ``None`` for a payload-free "queue non-empty" control
    signal) with the envelope's ``IsEmpty`` bit in ``empty_flags[i]``.  The
    three counters price the whole buffer in O(1): a row costs
    ``2 * id_bits(n) + 2`` payload bits when it carries an edge event plus
    one control bit when ``empty_flags`` is ``False``.
    """

    __slots__ = (
        "senders",
        "targets",
        "edges",
        "ops",
        "patterns",
        "empty_flags",
        "payload_rows",
        "flag_rows",
        "payload_flag_rows",
    )

    def __init__(self) -> None:
        self.senders: List[int] = []
        self.targets: List[int] = []
        self.edges: List = []
        self.ops: List = []
        self.patterns: List = []
        self.empty_flags: List[bool] = []
        #: rows carrying a payload (edge event)
        self.payload_rows = 0
        #: rows whose IsEmpty bit is False (cost one control bit)
        self.flag_rows = 0
        #: rows with both (size = payload + control bit, the maximum)
        self.payload_flag_rows = 0

    def clear(self) -> None:
        self.senders.clear()
        self.targets.clear()
        self.edges.clear()
        self.ops.clear()
        self.patterns.clear()
        self.empty_flags.clear()
        self.payload_rows = 0
        self.flag_rows = 0
        self.payload_flag_rows = 0

    def __len__(self) -> int:
        return len(self.senders)

    def row_size_bits(self, i: int, payload_bits: int) -> int:
        """Exact envelope size of row ``i`` (mirrors ``Envelope.size_bits``)."""
        return (payload_bits if self.edges[i] is not None else 0) + (
            0 if self.empty_flags[i] else 1
        )

    def price(self, n: int) -> Tuple[int, int, Iterator[Tuple[int, int, int]]]:
        """``(total bits, largest row's bits, rows)`` for an ``n``-node network.

        The totals come from the counters in O(1); ``rows`` lazily yields
        ``(sender, target, size)`` in row order for the per-row fallback of
        :meth:`~repro.simulator.bandwidth.BandwidthPolicy.charge_rows`.
        """
        payload_bits = 2 * id_bits(n) + 2
        if self.payload_flag_rows:
            largest = payload_bits + 1
        elif self.payload_rows:
            largest = payload_bits
        else:
            largest = 1 if self.flag_rows else 0
        rows = (
            (sender, target, self.row_size_bits(i, payload_bits))
            for i, (sender, target) in enumerate(zip(self.senders, self.targets))
        )
        return payload_bits * self.payload_rows + self.flag_rows, largest, rows

    def group(self, dropped: Optional[Callable[[int, int], bool]] = None) -> Dict[int, List[int]]:
        """Row indices by receiver, each group in ascending row order.

        Rows are appended sender-ascending (the active sweep is sorted), so
        each receiver's group lists its senders in exactly the order the
        per-envelope transport inserts inbox keys.  Rows ``dropped(sender,
        target)`` reports lost were charged and counted already; they just
        join no group ("sent-but-lost").
        """
        groups: Dict[int, List[int]] = {}
        targets = self.targets
        if dropped is not None:
            senders = self.senders
            for i in range(len(targets)):
                if dropped(senders[i], targets[i]):
                    continue
                group = groups.get(targets[i])
                if group is None:
                    groups[targets[i]] = [i]
                else:
                    group.append(i)
        else:
            for i, t in enumerate(targets):
                group = groups.get(t)
                if group is None:
                    groups[t] = [i]
                else:
                    group.append(i)
        return groups


def _columnar_port(cls) -> bool:
    """Whether ``cls`` can be scheduled through its columnar classmethods.

    The class (or an ancestor) must provide ``columnar_compose`` /
    ``columnar_deliver``, and neither ``compose_messages`` nor
    ``on_messages`` may be overridden *below* the class that provided them --
    a subclass that changes the per-envelope hooks without re-porting the
    batched ones would silently diverge, so it stays on the per-envelope
    transport instead.
    """
    mro = cls.__mro__
    owner_idx = next(
        (i for i, k in enumerate(mro) if "columnar_compose" in k.__dict__), None
    )
    if owner_idx is None or not any("columnar_deliver" in k.__dict__ for k in mro):
        return False
    for name in ("compose_messages", "on_messages"):
        definer_idx = next(i for i, k in enumerate(mro) if name in k.__dict__)
        if definer_idx < owner_idx:
            return False
    return True


def batch_port(nodes: Iterable) -> Optional[type]:
    """The class whose batch transport can carry rounds over ``nodes``, if any.

    The batched path needs one homogeneous ported class: mixed populations
    would interleave per-class buffers and break the ascending-sender row
    order the delivery identity depends on.
    """
    kinds = {type(algo) for algo in nodes}
    if len(kinds) == 1:
        cls = kinds.pop()
        if _columnar_port(cls):
            return cls
    return None
