"""Temporal Locality Hints (TLH) — paper Section III.A.

On every hit in a participating core cache, a non-data hint is sent
to the LLC, which promotes the line in its replacement state.  With
the same temporal information as the core caches, the LLC almost
never chooses a hot line as its victim, eliminating inclusion victims.

The cost is traffic: the hint rate is proportional to core-cache hits
(the paper measures ~600x more LLC requests for TLH-L1, ~8x for
TLH-L2), so the paper treats TLH as a *limit study*.  The
``sample_rate`` knob reproduces the Section V.A sensitivity study in
which only 1 / 2 / 10 / 20 % of L1 hits send hints.

Variants are selected by which cache kinds participate:
TLH-IL1 ``("il1",)``, TLH-DL1 ``("dl1",)``, TLH-L1 ``("il1", "dl1")``,
TLH-L2 ``("l2",)``, TLH-L1-L2 ``("il1", "dl1", "l2")``.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable

from ..coherence import MessageType
from ..errors import ConfigurationError
from ..telemetry.events import EVENT_TLH_HINT
from .tla import TLAPolicy

_TLH_HINT = MessageType.TLH_HINT


class TemporalLocalityHints(TLAPolicy):
    """Send LLC replacement-state hints on core-cache hits."""

    name = "tlh"

    def __init__(
        self,
        levels: Iterable[str] = ("il1", "dl1"),
        sample_rate: float = 1.0,
        mru_filter: bool = False,
    ) -> None:
        super().__init__()
        self.levels: FrozenSet[str] = frozenset(levels)
        if not self.levels:
            raise ConfigurationError("TLH needs at least one participating level")
        if not 0.0 <= sample_rate <= 1.0:
            raise ConfigurationError("sample_rate must be in [0, 1]")
        self.sample_rate = sample_rate
        #: only hint on hits to non-MRU lines — MRU hits carry little
        #: new information (the line was hinted very recently) and are
        #: the bulk of the traffic, so this is the paper's suggested
        #: cheap filter.
        self.mru_filter = mru_filter
        # Deterministic sampling: after n eligible hits exactly
        # floor(n * rate) hints have fired — reproducible without an
        # RNG and immune to float-accumulation drift.
        self._eligible_hits = 0
        self._fired = 0
        self.hints_sent = 0
        self.hints_dropped = 0
        #: hints that found (and promoted) their line in the LLC.
        self.hints_applied = 0

    def hit_hook(self) -> Callable[[int, str, int], None]:
        """:meth:`on_core_cache_hit`, or one closure doing a plain hint.

        Sampled and MRU-filtered TLH keep the method.  Plain TLH sends a
        hint on every participating hit, about 600x the LLC request
        rate for TLH-L1, so its hook does what the method does in one
        call: count the message and the hint, emit the tracer event
        when a tracer is attached, and promote the line in the LLC
        (through ``Cache.promote``, which owns the LLC's counters).
        """
        if self.mru_filter or self.sample_rate < 1.0:
            return self.on_core_cache_hit
        hierarchy = self._require_hierarchy()
        levels = self.levels
        counts = hierarchy.traffic.counts
        promote = hierarchy.llc.promote

        def hint(core_id: int, kind: str, line_addr: int) -> None:
            if kind not in levels:
                return
            counts[_TLH_HINT] += 1
            self.hints_sent += 1
            tracer = hierarchy.tracer
            if tracer is not None:
                tracer.emit(
                    hierarchy.clock, EVENT_TLH_HINT, core=core_id, line=line_addr
                )
            if promote(line_addr):
                self.hints_applied += 1

        return hint

    def on_core_cache_hit(self, core_id: int, kind: str, line_addr: int) -> None:
        if kind not in self.levels:
            return
        hierarchy = self._require_hierarchy()
        if self.mru_filter:
            cache = hierarchy.cores[core_id].cache_for_kind(kind)
            if cache.policy.last_hit_was_mru:
                self.hints_dropped += 1
                return
        if self.sample_rate < 1.0:
            self._eligible_hits += 1
            due = int(self._eligible_hits * self.sample_rate + 1e-9)
            if due <= self._fired:
                self.hints_dropped += 1
                return
            self._fired = due
        hierarchy.traffic.record(MessageType.TLH_HINT)
        self.hints_sent += 1
        if hierarchy.tracer is not None:
            hierarchy.tracer.emit(
                hierarchy.clock, EVENT_TLH_HINT, core=core_id, line=line_addr
            )
        if hierarchy.llc.promote(line_addr):
            self.hints_applied += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        levels = "+".join(sorted(self.levels))
        return f"<TLH levels={levels} rate={self.sample_rate}>"
