"""Typed message accounting for the on-chip network.

The TLA policies trade hardware for messages, so the message budget is
a first-class result of the paper: TLH-L1 inflates LLC requests ~600x,
TLH-L2 ~8x, while ECI/QBS add under 50 % to the (tiny) back-invalidate
stream — about 2 extra transactions per 1000 cycles (Sections V.A-V.C).
:class:`TrafficMeter` counts every message type so benchmarks can
reproduce those ratios.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict


class MessageType(enum.Enum):
    """Every message class that crosses the core<->LLC interconnect."""

    #: demand request arriving at the LLC (L2 miss)
    LLC_REQUEST = "llc_request"
    #: request from the LLC to memory
    MEMORY_REQUEST = "memory_request"
    #: inclusion-enforcing invalidate, LLC -> core caches
    BACK_INVALIDATE = "back_invalidate"
    #: early invalidate of the next potential victim (ECI)
    ECI_INVALIDATE = "eci_invalidate"
    #: residency query, LLC -> core caches (QBS)
    QBS_QUERY = "qbs_query"
    #: temporal locality hint, core cache -> LLC (TLH)
    TLH_HINT = "tlh_hint"
    #: dirty data written back toward memory
    WRITEBACK = "writeback"
    #: prefetch request issued into the L2
    PREFETCH = "prefetch"
    #: clean/dirty core-cache victim inserted into an exclusive LLC
    EXCLUSIVE_FILL = "exclusive_fill"
    #: snoop probe to a core (non-inclusive hierarchies lack the filter)
    SNOOP_PROBE = "snoop_probe"

    # Members are singletons compared by identity and only ever used as
    # keys of insertion-ordered dicts, so the identity hash (in C) can
    # replace ``Enum.__hash__`` (a Python call hashing the name) on the
    # per-message ``TrafficMeter.record`` path.
    __hash__ = object.__hash__


@dataclass
class TrafficMeter:
    """Counts messages by type; the interconnect's odometer."""

    counts: Dict[MessageType, int] = field(
        default_factory=lambda: {m: 0 for m in MessageType}
    )

    def record(self, message: MessageType, count: int = 1) -> None:
        """Count ``count`` messages of the given type."""
        self.counts[message] += count

    def count(self, message: MessageType) -> int:
        return self.counts[message]

    def total(self) -> int:
        return sum(self.counts.values())

    def reset(self) -> None:
        for message in self.counts:
            self.counts[message] = 0

    # -- derived quantities used by the paper's traffic discussion ----------
    @property
    def invalidate_traffic(self) -> int:
        """All invalidate-class messages from the LLC to the cores."""
        return (
            self.counts[MessageType.BACK_INVALIDATE]
            + self.counts[MessageType.ECI_INVALIDATE]
        )

    @property
    def llc_request_traffic(self) -> int:
        """Demand requests plus hint traffic arriving at the LLC."""
        return (
            self.counts[MessageType.LLC_REQUEST]
            + self.counts[MessageType.TLH_HINT]
        )

    def per_kilo_cycles(self, message: MessageType, cycles: int) -> float:
        """Messages of a type per 1000 cycles (Section V.B's metric)."""
        if cycles <= 0:
            return 0.0
        return 1000.0 * self.counts[message] / cycles

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict view keyed by message value (for reports/JSON)."""
        return {m.value: c for m, c in self.counts.items()}
