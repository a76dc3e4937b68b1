"""Multi-programmed performance metrics (paper footnote 5).

Also home to the *host*-throughput helpers (:func:`host_rate`,
:func:`aggregate_host`): simulated-work-per-wall-second rates computed
from the per-execution ``RunSummary.host`` digests that
:mod:`repro.perf` attaches.  Simulated metrics above measure the
machine being modelled; host metrics measure the simulator doing the
modelling.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..errors import ConfigurationError


def throughput(ipcs: Sequence[float]) -> float:
    """Plain sum-of-IPCs throughput."""
    if not ipcs:
        raise ConfigurationError("throughput needs at least one IPC")
    return float(sum(ipcs))


def normalized_throughput(
    ipcs: Sequence[float], baseline_ipcs: Sequence[float]
) -> float:
    """Throughput relative to a baseline run of the same mix."""
    base = throughput(baseline_ipcs)
    if base <= 0:
        raise ConfigurationError("baseline throughput must be positive")
    return throughput(ipcs) / base


def weighted_speedup(
    ipcs: Sequence[float], isolated_ipcs: Sequence[float]
) -> float:
    """Sum of per-application speedups over their isolated runs."""
    _check_pairs(ipcs, isolated_ipcs)
    return sum(ipc / iso for ipc, iso in zip(ipcs, isolated_ipcs))


def hmean_fairness(ipcs: Sequence[float], isolated_ipcs: Sequence[float]) -> float:
    """Harmonic mean of normalised IPCs (balances throughput/fairness)."""
    _check_pairs(ipcs, isolated_ipcs)
    total = 0.0
    for ipc, iso in zip(ipcs, isolated_ipcs):
        if ipc <= 0:
            raise ConfigurationError("IPC values must be positive")
        total += iso / ipc
    return len(ipcs) / total


def geomean(values: Sequence[float]) -> float:
    """Geometric mean; the paper's "All" bars aggregate with this."""
    if not values:
        raise ConfigurationError("geomean needs at least one value")
    log_sum = 0.0
    for value in values:
        if value <= 0:
            raise ConfigurationError("geomean requires positive values")
        log_sum += math.log(value)
    return math.exp(log_sum / len(values))


def _check_pairs(ipcs: Sequence[float], isolated: Sequence[float]) -> None:
    if not ipcs or len(ipcs) != len(isolated):
        raise ConfigurationError("need matching, non-empty IPC sequences")
    if any(value <= 0 for value in isolated):
        raise ConfigurationError("isolated IPCs must be positive")


# -- host (simulator) throughput ---------------------------------------------
def host_rate(work: float, seconds: float) -> float:
    """Simulated work units per wall second; 0.0 for a zero-length span.

    The zero-duration guard matters on the consumer side: cached
    summaries (``host=None``) and instantaneous jobs must fold into
    aggregates as "no rate" rather than dividing by zero.  Negative
    inputs are configuration errors, not noise, and raise.
    """
    if work < 0:
        raise ConfigurationError("work must be non-negative")
    if seconds < 0:
        raise ConfigurationError("seconds must be non-negative")
    if seconds == 0:
        return 0.0
    return work / seconds


#: running ``(jobs, instructions, accesses, busy_s)`` host totals.
HostTotals = Tuple[int, int, int, float]
HOST_ZERO: HostTotals = (0, 0, 0, 0.0)


def aggregate_host(
    hosts: Iterable[Optional[Dict]],
    workers: int = 1,
    wall_s: Optional[float] = None,
) -> Dict[str, float]:
    """Fold per-job host digests into one sweep-level summary.

    ``hosts`` are ``RunSummary.host`` dicts; ``None`` entries (cached
    or pre-perf summaries) are skipped but the executed-job rates stay
    correct because rates are recomputed from the summed totals, not
    averaged.  With the sweep's ``wall_s`` and worker count, the pool
    utilisation ``busy_s / (workers * wall_s)`` is included.
    """
    totals = HOST_ZERO
    for host in hosts:
        totals = fold_host(totals, host)
    return host_summary(totals, workers, wall_s)


def fold_host(totals: HostTotals, host: Optional[Dict]) -> HostTotals:
    """Add one host digest to running totals (an empty one adds
    nothing), so a long-lived consumer keeps four numbers instead of
    every digest."""
    if not host:
        return totals
    jobs, instructions, accesses, busy_s = totals
    return (
        jobs + 1,
        instructions + int(host.get("instructions", 0)),
        accesses + int(host.get("accesses", 0)),
        busy_s + float(host.get("job_wall_s", host.get("wall_s", 0.0))),
    )


def host_summary(
    totals: HostTotals, workers: int = 1, wall_s: Optional[float] = None
) -> Dict[str, float]:
    """The :func:`aggregate_host` summary of folded totals."""
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    if wall_s is not None and wall_s < 0:
        raise ConfigurationError("wall_s must be non-negative")
    jobs, instructions, accesses, busy_s = totals
    aggregate: Dict[str, float] = {
        "jobs": jobs,
        "instructions": instructions,
        "accesses": accesses,
        "busy_s": busy_s,
        "instructions_per_s": host_rate(instructions, busy_s),
        "accesses_per_s": host_rate(accesses, busy_s),
    }
    if wall_s is not None and wall_s > 0:
        aggregate["wall_s"] = wall_s
        aggregate["utilisation"] = min(1.0, busy_s / (workers * wall_s))
    return aggregate
