"""The statistics core: correctness, invariants, and CI coverage.

The coverage test is the load-bearing one — a bootstrap that does not
achieve (roughly) its configured coverage would make every interval in
every report a lie.  It is a seeded Monte-Carlo study, so the measured
coverage is a fixed number and the assertion band cannot flake.

The bulk resamplers must also equal, bit for bit, the per-draw loops
they replaced; those loops live on here as the reference.
"""

import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import EvalError
from repro.eval import stats as eval_stats
from repro.eval import (
    bootstrap_ci,
    derive_seed,
    geomean,
    geomean_ratio,
    holm_correction,
    paired_deltas,
    paired_stats,
    permutation_pvalue,
    sign_test_pvalue,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestBasics:
    def test_paired_deltas_are_candidate_minus_baseline(self):
        assert paired_deltas([1.0, 2.0], [3.0, 1.0]) == [2.0, -1.0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(EvalError, match="differ in length"):
            paired_deltas([1.0], [1.0, 2.0])

    def test_geomean_of_ratios(self):
        # ratios 2 and 8 -> geomean 4.
        assert geomean_ratio([1.0, 1.0], [2.0, 8.0]) == pytest.approx(4.0)

    def test_geomean_ratio_skips_nonpositive_pairs(self):
        assert geomean_ratio([0.0, 1.0], [5.0, 3.0]) == pytest.approx(3.0)
        assert geomean_ratio([0.0], [5.0]) is None

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(EvalError, match="positive"):
            geomean([1.0, -2.0])

    def test_derive_seed_is_stable_and_tag_sensitive(self):
        assert derive_seed(2010, "a") == derive_seed(2010, "a")
        assert derive_seed(2010, "a") != derive_seed(2010, "b")
        assert derive_seed(2010, "a") != derive_seed(2011, "a")


class TestPermutationTest:
    def test_exact_for_small_n(self):
        # n=3, all positive: only the all-positive and all-negative of
        # the 8 sign assignments reach |sum| >= observed -> p = 2/8.
        assert permutation_pvalue([1.0, 1.0, 1.0]) == pytest.approx(0.25)

    def test_symmetric_under_negation(self):
        deltas = [0.3, -0.1, 0.7, 0.2, 0.5]
        assert permutation_pvalue(deltas) == pytest.approx(
            permutation_pvalue([-d for d in deltas])
        )

    def test_monte_carlo_branch_is_seed_stable(self):
        rng = random.Random(7)
        deltas = [rng.gauss(0.2, 1.0) for _ in range(20)]  # 2^20 >> budget
        p1 = permutation_pvalue(deltas, resamples=500, seed=11)
        p2 = permutation_pvalue(deltas, resamples=500, seed=11)
        assert p1 == p2
        assert 0.0 < p1 <= 1.0  # +1 correction: never exactly zero

    def test_empty_rejected(self):
        with pytest.raises(EvalError):
            permutation_pvalue([])

    @pytest.mark.parametrize("resamples", [0, -5])
    def test_nonpositive_resamples_rejected(self, resamples):
        # n = 13 takes the Monte-Carlo branch, where -5 resamples once
        # produced p = -0.25 and 0 resamples a silent 1.0.
        with pytest.raises(EvalError, match="resamples"):
            permutation_pvalue([0.5] * 13, resamples=resamples)
        with pytest.raises(EvalError, match="resamples"):
            permutation_pvalue([0.5] * 3, resamples=resamples)


class TestSignTest:
    def test_all_one_sided(self):
        # 5/5 positive: p = 2 * C(5,0)/2^5 = 1/16.
        assert sign_test_pvalue([1.0] * 5) == pytest.approx(2 / 32)

    def test_ties_dropped(self):
        assert sign_test_pvalue([0.0, 0.0]) == 1.0
        assert sign_test_pvalue([1.0, 0.0, 1.0, 1.0, 1.0, 1.0]) == (
            pytest.approx(2 / 32)
        )


class TestHolm:
    def test_known_example(self):
        # Step-down by hand: sorted raws scale as 0.01*3=0.03,
        # 0.03*2=0.06, 0.04*1=0.04; the running max lifts the final
        # one to 0.06 as well.
        assert holm_correction([0.01, 0.04, 0.03]) == pytest.approx(
            [0.03, 0.06, 0.06]
        )

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_adjusted_dominates_raw_and_caps_at_one(self, pvalues):
        adjusted = holm_correction(pvalues)
        assert len(adjusted) == len(pvalues)
        for raw, adj in zip(pvalues, adjusted):
            assert adj >= raw - 1e-12
            assert adj <= 1.0 + 1e-12

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=2,
            max_size=10,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_order_preserving(self, pvalues):
        adjusted = holm_correction(pvalues)
        order = sorted(range(len(pvalues)), key=lambda i: (pvalues[i], i))
        ranked = [adjusted[i] for i in order]
        assert ranked == sorted(ranked)


class TestBootstrap:
    @given(
        st.lists(finite_floats, min_size=2, max_size=20),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_interval_is_ordered_and_within_sample_range(self, deltas, seed):
        low, high = bootstrap_ci(deltas, resamples=200, seed=seed)
        assert low <= high
        assert min(deltas) - 1e-9 <= low and high <= max(deltas) + 1e-9

    def test_same_seed_same_interval(self):
        deltas = [0.1, 0.5, -0.2, 0.4, 0.3]
        assert bootstrap_ci(deltas, seed=3) == bootstrap_ci(deltas, seed=3)

    def test_coverage_tracks_the_configured_level(self):
        """The property the reports stand on: a 90% CI covers the true
        mean ~90% of the time.  300 seeded synthetic experiments, n=15
        normal deltas with true mean 0.3 — fully deterministic, so the
        measured coverage is one fixed number checked against a band
        wide enough for bootstrap small-sample undercoverage and
        nothing else."""
        experiments = 300
        confidence = 0.90
        true_mean = 0.3
        covered = 0
        for index in range(experiments):
            rng = random.Random(1000 + index)
            deltas = [rng.gauss(true_mean, 1.0) for _ in range(15)]
            low, high = bootstrap_ci(
                deltas, confidence=confidence, resamples=300, seed=index
            )
            if low <= true_mean <= high:
                covered += 1
        coverage = covered / experiments
        assert 0.82 <= coverage <= 0.97, f"coverage {coverage}"

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(EvalError):
            bootstrap_ci([])
        with pytest.raises(EvalError):
            bootstrap_ci([1.0], confidence=1.5)
        with pytest.raises(EvalError):
            bootstrap_ci([1.0], resamples=0)


class TestPairedStats:
    def test_assembles_consistently(self):
        a = [1.0, 1.1, 0.9, 1.2]
        b = [1.3, 1.2, 1.0, 1.1]
        stats = paired_stats(a, b, resamples=200)
        assert stats.n == 4
        assert stats.mean_delta == pytest.approx(
            stats.mean_b - stats.mean_a
        )
        assert stats.ci_low <= stats.mean_delta <= stats.ci_high
        assert stats.wins + stats.losses + stats.ties == 4
        assert set(stats.to_dict()) >= {"n", "ci_low", "p_permutation"}


# -- bulk draws vs the per-draw reference loops --------------------------------


def scalar_bootstrap_ci(deltas, confidence, resamples, seed):
    """The original per-draw bootstrap (reference)."""
    rng = random.Random(seed)
    n = len(deltas)
    means = sorted(
        math.fsum(deltas[rng.randrange(n)] for _ in range(n)) / n
        for _ in range(resamples)
    )
    alpha = (1.0 - confidence) / 2.0
    lo_index = int(math.floor(alpha * (resamples - 1)))
    hi_index = int(math.ceil((1.0 - alpha) * (resamples - 1)))
    return means[lo_index], means[hi_index]


def scalar_permutation_pvalue(deltas, resamples, seed):
    """The original per-draw permutation test (reference)."""
    n = len(deltas)
    observed = abs(math.fsum(deltas))
    if 2 ** n <= max(resamples, 4096):
        hits = 0
        for mask in range(2 ** n):
            total = 0.0
            for index, delta in enumerate(deltas):
                total += delta if mask >> index & 1 else -delta
            if abs(total) >= observed - 1e-12:
                hits += 1
        return hits / 2 ** n
    rng = random.Random(seed)
    hits = 0
    for _ in range(resamples):
        total = 0.0
        for delta in deltas:
            total += delta if rng.random() < 0.5 else -delta
        if abs(total) >= observed - 1e-12:
            hits += 1
    return (hits + 1) / (resamples + 1)


#: deltas drawn from a handful of values, so ties and zero sums occur.
tied_floats = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-13, 3.25])


def sample(n, values):
    """``n`` deltas cycling through ``values`` (keeps examples small)."""
    return [values[index % len(values)] for index in range(n)]


class TestBulkMatchesScalarReference:
    """n from 1 to 300 covers the top-byte (n <= 255) and full-word
    draw paths and the exact-enumeration branch (n <= 12); a tiny
    chunk bound forces draws to carry across chunks."""

    @given(
        n=st.integers(min_value=1, max_value=300),
        values=st.lists(
            st.one_of(finite_floats, tied_floats), min_size=1, max_size=40
        ),
        resamples=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**48),
        chunk=st.sampled_from([1, 7, 64, eval_stats.DRAW_CHUNK_WORDS]),
    )
    @example(n=1, values=[0.0], resamples=5, seed=0, chunk=1)
    @example(n=255, values=[0.0], resamples=3, seed=1, chunk=7)
    @example(n=256, values=[1.0, -1.0], resamples=3, seed=2, chunk=7)
    @example(n=300, values=[0.5, 0.5, -0.25], resamples=2, seed=3, chunk=64)
    @settings(max_examples=80, deadline=None)
    def test_identical_results(self, n, values, resamples, seed, chunk):
        deltas = sample(n, values)
        with mock.patch.object(eval_stats, "DRAW_CHUNK_WORDS", chunk):
            assert bootstrap_ci(
                deltas, 0.9, resamples, seed
            ) == scalar_bootstrap_ci(deltas, 0.9, resamples, seed)
            assert permutation_pvalue(
                deltas, resamples, seed
            ) == scalar_permutation_pvalue(deltas, resamples, seed)

    @pytest.mark.parametrize("n", [1, 12, 13, 35, 255, 256])
    def test_default_resamples(self, n):
        rng = random.Random(n)
        deltas = [rng.gauss(0.05, 0.2) for _ in range(n)]
        assert bootstrap_ci(deltas) == scalar_bootstrap_ci(
            deltas, 0.95, 2000, 2010
        )
        assert permutation_pvalue(deltas) == scalar_permutation_pvalue(
            deltas, 2000, 2010
        )

    @pytest.mark.parametrize("n", [1, 13, 40])
    def test_all_zero_deltas(self, n):
        deltas = [0.0] * n
        assert bootstrap_ci(deltas, resamples=300) == (0.0, 0.0)
        assert permutation_pvalue(deltas, resamples=300) == (
            scalar_permutation_pvalue(deltas, 300, 2010)
        ) == 1.0
