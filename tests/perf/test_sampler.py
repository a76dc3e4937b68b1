"""PhaseSampler on its own: where it arms, nesting, and sampled shares."""

import math
import random
import signal
import threading
import time

from repro import baseline_hierarchy, build_hierarchy
from repro.perf.sampler import PhaseSampler, phase_table

#: two-sided 99.9 % quantile of the standard normal distribution.
Z_999 = 3.2905


def _spin(seconds):
    """Burn ``seconds`` of process CPU time."""
    start = time.process_time()
    while time.process_time() - start < seconds:
        pass


def _heavy(seconds):
    _spin(seconds)


def _light(seconds):
    _spin(seconds)


class TestArming:
    def test_disarmed_and_restored_after_exit(self):
        handler = signal.getsignal(signal.SIGPROF)
        with PhaseSampler() as sampler:
            assert signal.getitimer(signal.ITIMER_PROF)[0] > 0
            _spin(0.1)
        assert sampler.armed
        assert sum(sampler.stacks.values()) > 0
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGPROF) is handler

    def test_nested_sampler_reports_none_and_outer_keeps_sampling(self):
        with PhaseSampler() as outer:
            with PhaseSampler() as inner:
                _spin(0.05)
            assert not inner.armed
            assert inner.report(None, 0.0) is None
            # the inner exit left the outer's timer and handler alone
            assert signal.getitimer(signal.ITIMER_PROF)[0] > 0
            assert signal.getsignal(signal.SIGPROF) == outer._sample
            before = sum(outer.stacks.values())
            _spin(0.1)
        assert outer.armed
        assert sum(outer.stacks.values()) > before

    def test_off_the_main_thread_it_reports_none(self):
        samplers = []

        def work():
            with PhaseSampler() as sampler:
                _spin(0.05)
            samplers.append(sampler)

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(10)
        assert not thread.is_alive()
        [sampler] = samplers
        assert not sampler.armed
        assert sampler.report(None, 0.0) is None
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


class TestSampledShares:
    def test_shares_fall_inside_their_binomial_interval(self, monkeypatch):
        """Two busy functions with a measured, uneven CPU split, mapped
        through the phase table: over >= 1 s of CPU each one's share of
        their samples lies inside its 99.9 % binomial interval.

        Samples come at the scheduler tick, so a fixed-length cycle
        could lock onto it; each spin's length is drawn from a seeded
        range, so a cycle's length spreads over several ticks and the
        samples stay independent.
        """
        table = phase_table()
        monkeypatch.setitem(table, _heavy.__code__, "llc_access")
        monkeypatch.setitem(table, _light.__code__, "trace_gen")
        rng = random.Random(27)
        spins = (
            ("llc_access", _heavy, 0.001, 0.011),
            ("trace_gen", _light, 0.0005, 0.0035),
        )
        cpu = {"llc_access": 0.0, "trace_gen": 0.0}
        with PhaseSampler() as sampler:
            while sum(cpu.values()) < 1.2:
                for phase, busy, low, high in spins:
                    start = time.process_time()
                    busy(rng.uniform(low, high))
                    cpu[phase] += time.process_time() - start
        samples = sampler.phase_samples()
        n = samples["llc_access"] + samples["trace_gen"]
        assert n >= 100
        for phase in cpu:
            p = cpu[phase] / sum(cpu.values())
            bound = Z_999 * math.sqrt(n * p * (1 - p)) + 0.5
            assert abs(samples[phase] - n * p) <= bound, (phase, samples, cpu)


class TestPhaseTable:
    def test_llc_access_starts_at_the_l2_miss(self):
        """The miss closure (L2 probe, L1 fill and spill) is core-cache
        work; its LLC leg, like every mode's ``_llc_demand``, is not."""
        table = phase_table()
        hierarchy = build_hierarchy(baseline_hierarchy(2, scale=1 / 64))
        assert table[hierarchy._make_miss_path(0).__code__] == "l1_access"
        assert table[type(hierarchy)._beyond_l1.__code__] == "l1_access"
        assert table[hierarchy._make_llc_demand().__code__] == "llc_access"
        assert table[type(hierarchy)._llc_demand.__code__] == "llc_access"
