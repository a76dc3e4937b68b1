"""The statistics core: correctness, invariants, and CI coverage.

The coverage test is the load-bearing one — a bootstrap that does not
achieve (roughly) its configured coverage would make every interval in
every report a lie.  It is a seeded Monte-Carlo study, so the measured
coverage is a fixed number and the assertion band cannot flake.

The numpy array passes must also equal, bit for bit, the per-draw
loops ``repro.eval.stats`` keeps as its reference and numpy-less path.
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
    build_report,
    derive_seed,
    geomean,
    geomean_ratio,
    holm_correction,
    paired_deltas,
    paired_stats,
    permutation_pvalue,
    render_json,
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


# -- array passes vs the per-draw reference loops -----------------------------

reference_bootstrap_ci = eval_stats._reference_bootstrap_ci
reference_permutation_pvalue = eval_stats._reference_permutation_pvalue


def assert_same_bits(got, want):
    """``repr`` equality: ``==`` passes -0.0 for 0.0, but
    ``render_json`` prints the two differently."""
    assert repr(got) == repr(want)


def assert_matches_reference(deltas, confidence, resamples, seed):
    assert_same_bits(
        bootstrap_ci(deltas, confidence, resamples, seed),
        reference_bootstrap_ci(deltas, confidence, resamples, seed),
    )
    assert_same_bits(
        permutation_pvalue(deltas, resamples, seed),
        reference_permutation_pvalue(deltas, resamples, seed),
    )


#: deltas drawn from a handful of values, so ties and zero sums occur.
tied_floats = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-13, 3.25])

#: subnormals and the smallest normal, whose sums and means underflow.
tiny_floats = st.sampled_from(
    [5e-324, -5e-324, 1e-310, -2.5e-320, 2.2250738585072014e-308]
)

#: any magnitude from subnormal to 1e300, for wide exponent spreads.
wide_floats = st.floats(
    min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False
)


def sample(n, values):
    """``n`` deltas cycling through ``values`` (keeps examples small)."""
    return [values[index % len(values)] for index in range(n)]


class TestBulkMatchesScalarReference:
    """The numpy array passes against the per-draw loops, by ``repr``.

    n from 1 to 300 covers uint8 (n <= 256) and uint16 index storage
    and the exact-enumeration branch (n <= 12); tiny chunk and block
    caps force draws across chunks and rows across blocks."""

    @given(
        n=st.integers(min_value=1, max_value=300),
        values=st.lists(
            st.one_of(finite_floats, tied_floats, tiny_floats, wide_floats),
            min_size=1,
            max_size=40,
        ),
        resamples=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**48),
        chunk=st.sampled_from([1, 7, 64, eval_stats.DRAW_CHUNK_WORDS]),
        block=st.sampled_from([1, 3, eval_stats.BLOCK_ROWS]),
    )
    @example(n=1, values=[0.0], resamples=5, seed=0, chunk=1, block=1)
    @example(n=255, values=[0.0], resamples=3, seed=1, chunk=7, block=3)
    @example(n=256, values=[1.0, -1.0], resamples=3, seed=2, chunk=7, block=1)
    @example(
        n=300, values=[0.5, 0.5, -0.25], resamples=2, seed=3, chunk=64,
        block=256,
    )
    @example(
        n=13, values=[5e-324, -5e-324, 0.0], resamples=40, seed=4, chunk=7,
        block=3,
    )
    @example(
        n=40, values=[1e300, -1e-300, 3.0, -1e150], resamples=60, seed=5,
        chunk=64, block=3,
    )
    @settings(max_examples=80, deadline=None)
    def test_identical_results(self, n, values, resamples, seed, chunk, block):
        deltas = sample(n, values)
        with mock.patch.object(eval_stats, "DRAW_CHUNK_WORDS", chunk), \
                mock.patch.object(eval_stats, "BLOCK_ROWS", block):
            assert_matches_reference(deltas, 0.9, resamples, seed)

    @pytest.mark.parametrize("n", [1, 12, 13, 35, 255, 256])
    def test_default_resamples(self, n):
        rng = random.Random(n)
        deltas = [rng.gauss(0.05, 0.2) for _ in range(n)]
        assert_matches_reference(deltas, 0.95, 2000, 2010)

    @pytest.mark.parametrize("n", [1, 13, 40])
    def test_all_zero_deltas(self, n):
        deltas = [0.0] * n
        assert bootstrap_ci(deltas, resamples=300) == (0.0, 0.0)
        assert permutation_pvalue(deltas, resamples=300) == (
            reference_permutation_pvalue(deltas, 300, 2010)
        ) == 1.0

    @pytest.mark.parametrize(
        "values, seed, ends",
        [
            # means of -5e-324 underflow to -0.0 and tie with 0.0.
            ([5e-324, -5e-324, 5e-324], 0, "(-0.0, 5e-324)"),
            ([-5e-324, 0.0], 0, "(-5e-324, -0.0)"),
        ],
    )
    def test_signed_zero_end_follows_row_order(self, values, seed, ends):
        assert repr(bootstrap_ci(values, 0.9, 50, seed)) == ends
        assert_matches_reference(values, 0.9, 50, seed)

    @pytest.mark.parametrize("n", [2, 13, 35, 257])
    @pytest.mark.parametrize(
        "values",
        [[0.0, -0.0], [5e-324, -5e-324, 0.0], [1.0, -1.0, -0.0],
         [-5e-324, -0.0, 1e-310, -1e-310]],
    )
    def test_zero_ends_at_report_scale(self, n, values):
        """Tied and underflowing sums around zero, 2000 resamples."""
        deltas = sample(n, values)
        for seed in range(3):
            assert_matches_reference(deltas, 0.95, 2000, seed)

    @pytest.mark.parametrize("n", [1, 12, 13, 35, 300])
    @pytest.mark.parametrize(
        "value", [-0.0, 0.0, 5e-324, -1e-310, 0.1, -3.25, 1e300]
    )
    def test_all_tied_deltas_exit_early(self, n, value):
        deltas = [value] * n
        with mock.patch.object(eval_stats.SeedDraws, "indices") as drawn:
            assert_same_bits(
                bootstrap_ci(deltas, 0.95, 500, 7),
                reference_bootstrap_ci(deltas, 0.95, 500, 7),
            )
        drawn.assert_not_called()

    @pytest.mark.parametrize(
        "deltas",
        [[1.0, -1.0], [0.5, -0.25, -0.25] * 5, [2e-14, -3e-14] * 20,
         [3.0, -0.0, -3.0] * 11],
    )
    def test_null_sum_permutation_exits_early(self, deltas):
        """|sum| <= 1e-12: every assignment reaches the threshold."""
        with mock.patch.object(eval_stats.SeedDraws, "flips") as drawn:
            assert permutation_pvalue(deltas, 500, 7) == 1.0
        drawn.assert_not_called()
        assert reference_permutation_pvalue(deltas, 500, 7) == 1.0

    @pytest.mark.parametrize(
        "deltas", [[math.inf, 1.0], [math.nan, 0.5, -0.5], [1.0] * 12 + [-math.inf]]
    )
    def test_non_finite_deltas_take_the_reference(self, deltas):
        assert_matches_reference(deltas, 0.9, 40, 3)

    def test_overflowing_sums_raise_as_the_reference(self):
        deltas = [1.5e308, 1.5e308, 1.0]
        with pytest.raises(OverflowError):
            reference_bootstrap_ci(deltas, 0.9, 20, 1)
        with pytest.raises(OverflowError):
            bootstrap_ci(deltas, 0.9, 20, 1)


class TestWithoutNumpy:
    """With ``_np`` unset the per-draw loops run, as on an install
    without numpy, and every result stays the same."""

    def test_resamplers_agree(self):
        rng = random.Random(5)
        for n in (7, 35):
            deltas = [rng.gauss(0.1, 0.5) for _ in range(n)]
            with_numpy = (bootstrap_ci(deltas), permutation_pvalue(deltas))
            with mock.patch.object(eval_stats, "_np", None):
                without = (bootstrap_ci(deltas), permutation_pvalue(deltas))
            assert_same_bits(with_numpy, without)

    def test_report_agrees(self, mc_records):
        with_numpy = render_json(build_report(mc_records, resamples=300))
        with mock.patch.object(eval_stats, "_np", None):
            without = render_json(build_report(mc_records, resamples=300))
        assert with_numpy == without
