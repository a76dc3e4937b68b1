"""CPU-time stack sampling: the host-time split of the code that runs.

:class:`PhaseSampler` arms ``ITIMER_PROF`` and records the Python stack
on every ``SIGPROF``.  Nothing in the simulator is instrumented, so a
sampled job runs the loop an unsampled one runs: the bare loop, with
its inline L1 probe and miss closure wherever their gates hold.
:meth:`PhaseSampler.report` splits the span into the simulator's
phases; :meth:`PhaseSampler.collapsed` and :meth:`PhaseSampler.top`
render the exact stacks for ``python -m repro.perf profile``.

Signals reach only the main thread, so the sampler arms only there, and
only while no ``ITIMER_PROF`` is armed (an outer sampler keeps its
timer); a sampler that did not arm reports None.  Linux delivers
``ITIMER_PROF`` at the scheduler tick (~250 samples per CPU second at
HZ=250) whatever the interval asked, so a split needs seconds of run.
"""

from __future__ import annotations

import functools
import signal
import threading
from collections import Counter
from pathlib import Path
from types import CodeType, FrameType
from typing import Dict, Iterable, List, Optional

from .phase import (
    PHASE_BACK_INVALIDATE,
    PHASE_EXECUTE_JOB,
    PHASE_L1_ACCESS,
    PHASE_LLC_ACCESS,
    PHASE_REPLACEMENT,
    PHASE_SIM_LOOP,
    PHASE_TRACE_GEN,
)

#: seconds of process CPU time between samples asked of ``ITIMER_PROF``.
INTERVAL_S = 0.001


def _codes(functions: Iterable) -> List[CodeType]:
    """Each function's code object plus every code object nested in it
    (closures, generator bodies), found by walking ``co_consts``."""
    found: List[CodeType] = []
    pending = [function.__code__ for function in functions]
    while pending:
        code = pending.pop()
        found.append(code)
        pending.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return found


@functools.lru_cache(maxsize=None)
def phase_table() -> Dict[CodeType, str]:
    """Code object -> host phase: the one place the split is decided.

    Code objects, not names, because ``access``, ``fill`` and ``run``
    each name several functions.  Two costs land in ``sim_loop`` by
    construction: the bare loop's inline L1 probe is code inside the
    loop, and each record's draw from the zipped trace batch is a C
    call the loop makes.  ``llc_access`` starts at an L2 miss, in
    ``_llc_demand`` or the miss closure's LLC leg.  Built once per
    process, on first use.
    """
    from ..core.eci import EarlyCoreInvalidation
    from ..core.qbs import QueryBasedSelection
    from ..core.tlh import TemporalLocalityHints
    from ..cpu.cmp import CMPSimulator
    from ..cpu.core import SimulatedCore
    from ..hierarchy import BaseHierarchy
    from ..workloads import synthetic

    modes = [BaseHierarchy]
    for mode in modes:
        modes.extend(mode.__subclasses__())

    def every_mode(name: str) -> List:
        return [vars(mode)[name] for mode in modes if name in vars(mode)]

    phases = {
        PHASE_SIM_LOOP: [
            CMPSimulator.run, SimulatedCore._bare_loop, SimulatedCore._probed_loop,
        ],
        PHASE_TRACE_GEN: [
            synthetic._mixture_trace_python,
            synthetic._mixture_trace_numpy,
            synthetic._batch_lists,
            synthetic._mixture_batches_numpy,
            synthetic._numpy_batch_maker,
            synthetic._BatchMemo.replay,
            synthetic._BatchMemo._batch,
        ],
        PHASE_L1_ACCESS: [
            BaseHierarchy.access,
            BaseHierarchy._beyond_l1,
            BaseHierarchy._make_miss_path,
            TemporalLocalityHints.hit_hook,
            TemporalLocalityHints.on_core_cache_hit,
        ],
        PHASE_LLC_ACCESS: [
            BaseHierarchy._make_llc_demand, *every_mode("_llc_demand"),
        ],
        PHASE_REPLACEMENT: [
            BaseHierarchy._fill_llc,
            QueryBasedSelection.select_llc_victim,
            EarlyCoreInvalidation.after_llc_miss_fill,
        ],
        PHASE_BACK_INVALIDATE: [
            BaseHierarchy._back_invalidate, *every_mode("_on_llc_eviction"),
        ],
    }
    return {
        code: phase
        for phase, functions in phases.items()
        for code in _codes(functions)
    }


def _frame_name(code: CodeType) -> str:
    """``file:line:qualified name`` (``co_qualname`` is 3.11+)."""
    name = getattr(code, "co_qualname", code.co_name)
    return f"{Path(code.co_filename).name}:{code.co_firstlineno}:{name}"


class PhaseSampler:
    """Context manager sampling the main thread's Python stack.

    ``with PhaseSampler() as sampler: ...`` arms the timer where it can
    (:attr:`armed`) and counts each distinct stack, as a tuple of code
    objects innermost first, in :attr:`stacks`.  Every exit path
    disarms the timer and puts the previous ``SIGPROF`` handler back.
    """

    def __init__(self) -> None:
        self.stacks: Counter = Counter()
        self.armed = False
        self._previous = None

    def __enter__(self) -> "PhaseSampler":
        if threading.current_thread() is threading.main_thread() and not any(
            signal.getitimer(signal.ITIMER_PROF)
        ):
            self._previous = signal.signal(signal.SIGPROF, self._sample)
            signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
            self.armed = True
        return self

    def __exit__(self, *exc_info) -> None:
        if self.armed:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            # signal.signal first runs any SIGPROF still pending, with
            # this sampler's handler, then installs the previous one.
            signal.signal(signal.SIGPROF, self._previous)

    def _sample(self, signum: int, frame: Optional[FrameType]) -> None:
        codes = []
        while frame is not None:
            codes.append(frame.f_code)
            frame = frame.f_back
        self.stacks[tuple(codes)] += 1

    def phase_samples(self) -> Counter:
        """Samples per phase: a stack counts for the phase of its
        innermost frame in :func:`phase_table`, else ``execute_job``."""
        table = phase_table()
        samples: Counter = Counter()
        for stack, count in self.stacks.items():
            phase = next(
                (table[code] for code in stack if code in table), PHASE_EXECUTE_JOB
            )
            samples[phase] += count
        return samples

    def report(
        self, result, span_s: float
    ) -> Optional[Dict[str, Dict[str, float]]]:
        """:meth:`PhaseTimer.report`'s shape for a span of ``span_s``
        wall seconds that ran the one simulation ``result`` (a
        :class:`repro.cpu.SimResult`), or None if the sampler did not
        arm.

        ``s`` is the phase's sample share times ``span_s``, so the
        phases sum to the span (which is ``execute_job``'s when no
        sample landed).  ``count`` comes from ``result``'s counters,
        never from samples: records executed for ``trace_gen`` and
        ``l1_access``, ``llc_request`` messages for ``llc_access``, LLC
        fills for ``replacement``, back-invalidate plus ECI-invalidate
        messages for ``back_invalidate``, one loop and one job.
        """
        if not self.armed:
            return None
        samples = self.phase_samples()
        total = sum(samples.values())
        if not total:
            samples[PHASE_EXECUTE_JOB] = total = 1
        records = result.host["accesses"]
        traffic = result.traffic
        counts = {
            PHASE_SIM_LOOP: 1,
            PHASE_TRACE_GEN: records,
            PHASE_L1_ACCESS: records,
            PHASE_LLC_ACCESS: traffic["llc_request"],
            PHASE_REPLACEMENT: result.llc_stats["fills"],
            PHASE_BACK_INVALIDATE: traffic["back_invalidate"] + traffic["eci_invalidate"],
            PHASE_EXECUTE_JOB: 1,
        }
        return {
            phase: {"s": span_s * samples[phase] / total, "count": counts[phase]}
            for phase in sorted(counts)
        }

    def collapsed(self) -> List[str]:
        """Exact collapsed-stack lines, ``outer;...;inner N``, the input
        of flamegraph.pl, speedscope and inferno."""
        return sorted(
            ";".join(_frame_name(code) for code in reversed(stack)) + f" {count}"
            for stack, count in self.stacks.items()
        )

    def top(self, count: int = 15) -> List[str]:
        """The ``count`` functions with the most self samples, widest first."""
        own: Counter = Counter()
        for stack, samples in self.stacks.items():
            if stack:
                own[stack[0]] += samples
        total = sum(own.values()) or 1
        return [
            f"{samples:7d} {100 * samples / total:5.1f}%  {_frame_name(code)}"
            for code, samples in own.most_common(count)
        ]
