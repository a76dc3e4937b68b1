"""Performance metrics and report formatting.

The paper compares policies with the *throughput* metric (sum of
IPCs, normalised to the baseline inclusive hierarchy) and verified
its conclusions also hold under weighted speedup and harmonic-mean
fairness (footnote 5); all three are provided here, along with the
MPKI/miss-reduction helpers the cache-performance figures use and
geometric means for the "All(105)" bars.
"""

from .throughput import (
    geomean,
    hmean_fairness,
    normalized_throughput,
    throughput,
    weighted_speedup,
)
from .stats import counter_conservation, miss_reduction, mpki
from .report import format_table, format_scurve
from .progress import ProgressReporter, format_eta
from .charts import (
    describe_hierarchy,
    format_barchart,
    format_grouped_barchart,
)

__all__ = [
    "geomean",
    "hmean_fairness",
    "normalized_throughput",
    "throughput",
    "weighted_speedup",
    "counter_conservation",
    "miss_reduction",
    "mpki",
    "format_table",
    "format_scurve",
    "ProgressReporter",
    "format_eta",
    "describe_hierarchy",
    "format_barchart",
    "format_grouped_barchart",
]
