"""Post-run analysis utilities.

Trace-event sinks that characterise *why* a hierarchy behaves as it
does.  Each has :meth:`repro.telemetry.Tracer.emit`'s signature, so it
attaches live in the tracer's slot (``hierarchy.tracer = analyzer``)
or replays a recorded log (``for event in tracer.events:
analyzer.emit(*event)``):

* :class:`VictimReuseAnalyzer` — tracks every inclusion victim and
  whether (and how soon) its line was re-fetched, separating the
  harmful victims (hot lines that bounce back from memory) from the
  harmless ones (dead lines that were leaving anyway).  This is the
  measurement behind the paper's central claim that inclusion victims
  — not capacity — explain the inclusive/non-inclusive gap.
* :class:`SetPressureProfiler` — per-set LLC fill/eviction pressure,
  showing which sets thrash and therefore where victims come from.
"""

from .victims import VictimRecord, VictimReuseAnalyzer
from .sets import SetPressureProfiler
from .interference import (
    AppInterference,
    interference_profile,
    interference_summary,
    most_victimised,
)

__all__ = [
    "VictimRecord",
    "VictimReuseAnalyzer",
    "SetPressureProfiler",
    "AppInterference",
    "interference_profile",
    "interference_summary",
    "most_victimised",
]
