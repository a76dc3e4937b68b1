"""Telemetry settings: one frozen config, environment-overridable.

``TelemetryConfig`` controls both kinds of time-resolved observability:

* *event tracing* (``enabled``) — the :class:`~repro.telemetry.Tracer`
  records typed :class:`~repro.telemetry.events.TraceEvent` objects,
  optionally category-filtered and sampled, and exporters write them
  as JSONL / Chrome-trace files under ``out_dir``;
* *interval collection* (``interval``) — the
  :class:`~repro.telemetry.IntervalCollector` folds traffic counters
  into fixed-cycle-window time series exposed on ``SimResult``.

Everything defaults to off: a default-constructed config is inert and
the simulator takes the exact pre-telemetry fast path (asserted by the
golden regression tests).

Environment knobs (mirrored by the ``--trace*`` CLI flags of
``repro.experiments``):

``REPRO_TRACE=1``            enable event tracing
``REPRO_TRACE_OUT=dir``      export directory (default ``traces``)
``REPRO_TRACE_SAMPLE=n``     keep 1 in n eligible events
``REPRO_TRACE_INTERVAL=c``   interval window in cycles (0 = default)
``REPRO_TRACE_CATEGORIES=a,b``  only trace these event categories
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple

from ..config import env_flag
from ..errors import ConfigurationError
from .events import ALL_CATEGORIES

#: window used for interval series when tracing is on and no explicit
#: ``interval`` was configured; small enough to resolve thrash bursts
#: on scaled machines, large enough that window counts are not noise.
DEFAULT_INTERVAL = 5_000

#: default cap on recorded events per simulation; overflowing events
#: are counted (``Tracer.dropped``) but not stored.
DEFAULT_MAX_EVENTS = 1_000_000


@dataclass(frozen=True)
class TelemetryConfig:
    """What to trace, how densely, and where exports land."""

    enabled: bool = False
    out_dir: str = "traces"
    sample: int = 1
    interval: int = 0
    categories: Tuple[str, ...] = ()
    max_events: int = DEFAULT_MAX_EVENTS

    def __post_init__(self) -> None:
        if self.sample <= 0:
            raise ConfigurationError("trace sample must be positive (1 = all)")
        if self.interval < 0:
            raise ConfigurationError("trace interval must be non-negative")
        if self.max_events <= 0:
            raise ConfigurationError("max_events must be positive")
        unknown = set(self.categories) - set(ALL_CATEGORIES)
        if unknown:
            raise ConfigurationError(
                f"unknown trace categories: {sorted(unknown)}; "
                f"known: {ALL_CATEGORIES}"
            )

    @property
    def active(self) -> bool:
        """Does this config ask for any telemetry work at all?"""
        return self.enabled or self.interval > 0

    @property
    def effective_interval(self) -> int:
        """The interval window to use: explicit, or a default when tracing."""
        if self.interval:
            return self.interval
        return DEFAULT_INTERVAL if self.enabled else 0

    @classmethod
    def from_env(cls) -> "TelemetryConfig":
        env = os.environ
        categories = tuple(
            token
            for token in env.get("REPRO_TRACE_CATEGORIES", "").split(",")
            if token
        )
        return cls(
            enabled=env_flag("REPRO_TRACE", False),
            out_dir=env.get("REPRO_TRACE_OUT", "traces"),
            sample=int(env.get("REPRO_TRACE_SAMPLE", 1)),
            interval=int(env.get("REPRO_TRACE_INTERVAL", 0)),
            categories=categories,
        )
