"""Paired statistics on seeded resampling, in numpy array passes.

The paper's claims are *paired* comparisons: the same workload runs
under two policies and the per-workload difference is what carries
evidence (Figures 11-16 are all built this way).  This module supplies
exactly the machinery those comparisons need and nothing more:

* percentile **bootstrap confidence intervals** on the mean paired
  delta;
* a **sign-flip permutation test** (exact enumeration for small n,
  seeded Monte-Carlo above that) for "is the mean delta zero?";
* the exact binomial **sign test** as a distribution-free cross-check;
* **Holm-Bonferroni correction** for the many comparisons one report
  makes;
* **geomean-of-ratios** summaries, the standard way to aggregate
  throughput ratios across workloads.

Every interval and p-value is the one the per-draw reference loops
below give: ``rng.randrange(n)`` per bootstrap draw and
``rng.random() < 0.5`` per sign flip, on an explicitly seeded
:class:`random.Random` (no global random state), so a report built
twice from the same inputs is byte-identical (pinned by
``tests/eval/test_report.py``).  With numpy the resamplers reproduce
those loops bit for bit in array passes; without it the loops run.

Both draw 32-bit Mersenne Twister words, which
``rng.getrandbits(32 * m)`` hands out m at a time:
``randrange(n)`` is one word shifted right by ``32 - n.bit_length()``,
redrawn while the result is ``>= n``, and ``random() < 0.5`` holds
exactly when the first of its two words has its top bit clear.

* **Bootstrap.**  Row sums ``A`` come from numpy in blocks, each with
  the bound ``B = S (n + 2) 2**-52 + 2**-1074`` on its distance from
  the row's :func:`math.fsum` (``S`` the row's sum of magnitudes).
  For each interval end of rank k, rows whose whole ``[A - B, A + B]``
  lies below the k-th smallest ``A - B``, or above the k-th smallest
  ``A + B``, cannot hold the k-th exact sum; only the rows left get
  ``math.fsum``.  An end that divides to zero is read off the full
  sort instead, where stable row order picks its sign.
* **Permutation.**  Row totals add the signed columns one at a time,
  the loop's left-to-right IEEE addition done elementwise.

:class:`SeedDraws` holds one seed's draws per pair count, so a report
makes each cell seed's draws once and reuses them in every policy
comparison.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import EvalError

try:  # numpy runs the resamplers in array passes; the loops work too.
    import numpy as _np
except ImportError:  # pragma: no cover - CI runs tests/eval both ways
    _np = None

#: default resample count for bootstrap and permutation routines —
#: enough for stable 3-decimal p-values at report scale.  A 45-cell
#: report over 35 pairs at this count takes 60-90 ms on a 2-vCPU
#: x86-64 VM with numpy, 0.85-1.3 s with the per-draw loops.
DEFAULT_RESAMPLES = 2000

#: upper bound on the Mersenne Twister words drawn per bulk request:
#: the transient buffers stay in the tens of KiB whatever
#: ``resamples`` is, and larger chunks measured no faster.
DRAW_CHUNK_WORDS = 1 << 12

#: resample rows per array pass: bounds the float64 blocks of the
#: bootstrap row sums and the sign-flip totals.
BLOCK_ROWS = 256

#: default two-sided confidence level for bootstrap intervals.
DEFAULT_CONFIDENCE = 0.95

#: default base seed (the paper's publication year, like the workload
#: generators use); every routine derives its own stream from it.
DEFAULT_SEED = 2010


def derive_seed(base: int, tag: str) -> int:
    """A deterministic per-comparison seed from a base seed and a tag.

    Hashes through :mod:`hashlib` (not ``hash()``), so the derived
    stream is independent of ``PYTHONHASHSEED`` and the process — the
    same property the job keys rely on.
    """
    digest = hashlib.sha1(f"{base}:{tag}".encode()).hexdigest()
    return int(digest[:12], 16)


def mean(values: Sequence[float]) -> float:
    if not values:
        raise EvalError("mean of an empty sample")
    return math.fsum(values) / len(values)


def paired_deltas(
    a: Sequence[float], b: Sequence[float]
) -> List[float]:
    """Per-pair differences ``b[i] - a[i]`` (candidate minus baseline)."""
    if len(a) != len(b):
        raise EvalError(
            f"paired samples differ in length: {len(a)} vs {len(b)}"
        )
    return [bv - av for av, bv in zip(a, b)]


def _ranks(confidence: float, resamples: int) -> Tuple[int, int]:
    """Positions of the percentile interval's ends in the sorted means."""
    alpha = (1.0 - confidence) / 2.0
    return (
        int(math.floor(alpha * (resamples - 1))),
        int(math.ceil((1.0 - alpha) * (resamples - 1))),
    )


def _enumerates(n: int, resamples: int) -> bool:
    """Whether the permutation test enumerates all ``2**n`` signs."""
    return 2 ** n <= max(resamples, 4096)


def _reference_bootstrap_ci(
    deltas: Sequence[float], confidence: float, resamples: int, seed: int
) -> Tuple[float, float]:
    """The per-draw bootstrap, one ``randrange`` per draw (reference)."""
    rng = Random(seed)
    n = len(deltas)
    means = sorted(
        math.fsum(deltas[rng.randrange(n)] for _ in range(n)) / n
        for _ in range(resamples)
    )
    lo_index, hi_index = _ranks(confidence, resamples)
    return means[lo_index], means[hi_index]


def _reference_permutation_pvalue(
    deltas: Sequence[float], resamples: int, seed: int
) -> float:
    """The per-draw sign-flip test, one ``random`` per flip (reference)."""
    n = len(deltas)
    observed = abs(math.fsum(deltas))
    # Exhaustive for small n: every p-value is a rational with a
    # fixed denominator, so repeated reports agree to the last bit.
    if _enumerates(n, resamples):
        hits = 0
        for mask in range(2 ** n):
            total = 0.0
            for index, delta in enumerate(deltas):
                total += delta if mask >> index & 1 else -delta
            if abs(total) >= observed - 1e-12:
                hits += 1
        return hits / 2 ** n
    rng = Random(seed)
    hits = 0
    for _ in range(resamples):
        total = 0.0
        for delta in deltas:
            total += delta if rng.random() < 0.5 else -delta
        if abs(total) >= observed - 1e-12:
            hits += 1
    return (hits + 1) / (resamples + 1)


def _words(rng: Random, count: int):
    """The next ``count`` 32-bit outputs of ``rng``, as a uint32 array.

    ``getrandbits`` fills its result from the least significant word
    up, in draw order, so the little-endian bytes hold the i-th word
    at ``[4 * i, 4 * i + 4)`` on any host.
    """
    return _np.frombuffer(
        rng.getrandbits(32 * count).to_bytes(4 * count, "little"), "<u4"
    )


def _randrange_draws(rng: Random, n: int, count: int):
    """The next ``count`` values of ``rng.randrange(n)``, in one array.

    Each chunk asks for the words still needed at the acceptance rate
    ``n / 2**k`` (at least one half), capped at ``DRAW_CHUNK_WORDS``;
    draws past ``count`` in the last chunk are dropped.
    """
    k = n.bit_length()
    draws = _np.empty(count, _np.min_scalar_type(n - 1))
    filled = 0
    while filled < count:
        wanted = count - filled
        words = _words(rng, min(DRAW_CHUNK_WORDS, -(-(wanted << k) // n)))
        kept = words >> (32 - k)
        kept = kept[kept < n][:wanted]
        draws[filled:filled + len(kept)] = kept
        filled += len(kept)
    return draws


def _flip_draws(rng: Random, count: int):
    """The next ``count`` sign flips: True where ``rng.random() >= 0.5``.

    ``random()`` spends two words a call, so the flips are the top bits
    of the even-numbered words, counted across chunks.
    """
    flips = _np.empty(count, bool)
    filled = parity = 0
    remaining = 2 * count
    while remaining:
        size = min(DRAW_CHUNK_WORDS, remaining)
        tops = _words(rng, size)[parity::2] >> 31
        flips[filled:filled + len(tops)] = tops
        filled += len(tops)
        parity ^= size & 1
        remaining -= size
    return flips


def _finite_array(deltas: Sequence[float]):
    """``deltas`` as float64, when numpy is present and no sum over
    them can overflow (where ``math.fsum`` raises); else ``None``."""
    if _np is None:
        return None
    values = _np.array(deltas, dtype=float)
    reach = 4.0 * len(values) * float(_np.abs(values).max())
    return values if math.isfinite(reach) else None


def _exact_sums(pick, rows) -> List[float]:
    """``math.fsum`` of each row of indices into ``pick``'s values."""
    return [math.fsum(map(pick, row)) for row in rows.tolist()]


class SeedDraws:
    """One seed's resampling draws, made once per pair count.

    A report resamples every policy comparison of one (metric, slice)
    cell from that cell's seed, so comparisons with equal pair counts
    draw the same indices and signs: holding them here makes them
    once.  The methods are the resamplers; :func:`bootstrap_ci`,
    :func:`permutation_pvalue` and :func:`paired_stats` call them on a
    fresh instance.
    """

    def __init__(self, seed: int, resamples: int) -> None:
        self.seed = seed
        self.resamples = resamples
        self._indices: Dict[int, object] = {}
        self._flips: Dict[int, object] = {}

    def indices(self, n: int):
        """``resamples x n`` bootstrap draws, one resample per row."""
        if n not in self._indices:
            self._indices[n] = _randrange_draws(
                Random(self.seed), n, self.resamples * n
            ).reshape(self.resamples, n)
        return self._indices[n]

    def flips(self, n: int):
        """``resamples x n`` sign flips, one assignment per row."""
        if n not in self._flips:
            self._flips[n] = _flip_draws(
                Random(self.seed), self.resamples * n
            ).reshape(self.resamples, n)
        return self._flips[n]

    def bootstrap_ci(
        self, deltas: Sequence[float], confidence: float
    ) -> Tuple[float, float]:
        """See :func:`bootstrap_ci`."""
        if not deltas:
            raise EvalError("bootstrap over an empty sample")
        if not 0.0 < confidence < 1.0:
            raise EvalError("confidence must be in (0, 1)")
        if self.resamples < 1:
            raise EvalError("resamples must be positive")
        values = _finite_array(deltas)
        if values is None:
            return _reference_bootstrap_ci(
                deltas, confidence, self.resamples, self.seed
            )
        n = len(deltas)
        bits = values.view(_np.int64)
        if (bits == bits[0]).all():
            # Every resample is n copies of one float: one mean.
            same = math.fsum([deltas[0]] * n) / n
            return same, same
        rows = self.indices(n)
        sums = _np.empty(self.resamples)
        bounds = _np.empty(self.resamples)
        for start in range(0, self.resamples, BLOCK_ROWS):
            block = values.take(rows[start:start + BLOCK_ROWS])
            stop = start + len(block)
            block.sum(axis=1, out=sums[start:stop])
            _np.abs(block, out=block).sum(axis=1, out=bounds[start:stop])
        # |sum - fsum| <= S * (gamma_{n-1} + 2**-53) in any summation
        # order; twice that, plus the subnormal floor for underflow.
        bounds *= (n + 2) * 2.0 ** -52
        bounds += 2.0 ** -1074
        low = sums - bounds
        high = sums + bounds
        pick = values.tolist().__getitem__
        ends = []
        for rank in _ranks(confidence, self.resamples):
            # Rows wholly below the rank-th lowest bound, or above the
            # rank-th highest, cannot hold the rank-th exact sum.
            below = high < _np.partition(low, rank)[rank]
            open_rows = ~below & (low <= _np.partition(high, rank)[rank])
            exact = sorted(_exact_sums(pick, rows[open_rows]))
            end = exact[rank - int(_np.count_nonzero(below))] / n
            if end == 0:
                # -0.0 == 0.0, so the reference's stable sort takes the
                # sign of the first such row: read it off the full sort.
                end = sorted(
                    total / n
                    for start in range(0, self.resamples, BLOCK_ROWS)
                    for total in _exact_sums(
                        pick, rows[start:start + BLOCK_ROWS]
                    )
                )[rank]
            ends.append(end)
        return ends[0], ends[1]

    def permutation_pvalue(self, deltas: Sequence[float]) -> float:
        """See :func:`permutation_pvalue`."""
        if not deltas:
            raise EvalError("permutation test over an empty sample")
        if self.resamples < 1:
            raise EvalError("resamples must be positive")
        values = _finite_array(deltas)
        if values is None:
            return _reference_permutation_pvalue(
                deltas, self.resamples, self.seed
            )
        n = len(deltas)
        threshold = abs(math.fsum(deltas)) - 1e-12
        if threshold <= 0:
            # Every assignment's |total| reaches the threshold.
            return 1.0
        if _enumerates(n, self.resamples):
            # Sign masks in order: bit j clear (the first half) takes
            # -delta_j, and each total is still summed left to right.
            totals = _np.zeros(1)
            for delta in values:
                totals = _np.concatenate((totals - delta, totals + delta))
            return int(_np.count_nonzero(abs(totals) >= threshold)) / 2 ** n
        flips = self.flips(n)
        negated = -values
        hits = 0
        for start in range(0, self.resamples, BLOCK_ROWS):
            terms = _np.where(flips[start:start + BLOCK_ROWS], negated, values)
            totals = _np.zeros(len(terms))
            for column in terms.T:
                totals += column
            hits += int(_np.count_nonzero(abs(totals) >= threshold))
        return (hits + 1) / (self.resamples + 1)

    def paired_stats(
        self, a: Sequence[float], b: Sequence[float], confidence: float
    ) -> PairedStats:
        """See :func:`paired_stats`."""
        deltas = paired_deltas(a, b)
        ci_low, ci_high = self.bootstrap_ci(deltas, confidence)
        return PairedStats(
            n=len(deltas),
            mean_a=mean(a),
            mean_b=mean(b),
            mean_delta=mean(deltas),
            ci_low=ci_low,
            ci_high=ci_high,
            p_permutation=self.permutation_pvalue(deltas),
            p_sign=sign_test_pvalue(deltas),
            geomean_ratio=geomean_ratio(a, b),
            wins=sum(1 for delta in deltas if delta > 0),
            losses=sum(1 for delta in deltas if delta < 0),
            ties=sum(1 for delta in deltas if delta == 0),
        )


def bootstrap_ci(
    deltas: Sequence[float],
    confidence: float = DEFAULT_CONFIDENCE,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = DEFAULT_SEED,
) -> Tuple[float, float]:
    """Percentile-bootstrap CI for the mean of ``deltas``.

    Resamples the paired deltas with replacement ``resamples`` times
    and reads the interval off the sorted resample means.  The
    percentile method is used (rather than BCa) because report tables
    need honest, explainable intervals more than second-order
    accuracy; the coverage property test in ``tests/eval`` pins that
    the achieved coverage tracks ``confidence`` on synthetic data.
    """
    return SeedDraws(seed, resamples).bootstrap_ci(deltas, confidence)


def permutation_pvalue(
    deltas: Sequence[float],
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = DEFAULT_SEED,
) -> float:
    """Two-sided sign-flip permutation p-value for mean(deltas) == 0.

    Under the null, each pair's delta is symmetric around zero, so
    every sign assignment is equally likely.  With ``2**n`` at or
    below the resample budget the test enumerates all assignments
    (exact p, zero Monte-Carlo noise); above it, it draws seeded
    random assignments and applies the standard +1 correction so the
    estimate can never claim p == 0.
    """
    return SeedDraws(seed, resamples).permutation_pvalue(deltas)


def sign_test_pvalue(deltas: Sequence[float]) -> float:
    """Exact two-sided binomial sign test (ties dropped).

    Distribution-free and unaffected by outliers — the cross-check
    column next to the permutation test: when the two disagree wildly,
    a few extreme workloads are driving the mean.
    """
    positive = sum(1 for delta in deltas if delta > 0)
    negative = sum(1 for delta in deltas if delta < 0)
    n = positive + negative
    if n == 0:
        return 1.0
    k = min(positive, negative)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n
    return min(1.0, 2.0 * tail)


def holm_correction(pvalues: Sequence[float]) -> List[float]:
    """Holm-Bonferroni adjusted p-values, in the input order.

    Step-down: the smallest p is scaled by m, the next by m-1, ...,
    with the running maximum enforced so adjusted values are monotone
    in the raw ordering.  Controls family-wise error at the level the
    adjusted values are compared against, for any dependence between
    the tests — the right default when one report tests every
    (policy, metric, slice) cell.
    """
    m = len(pvalues)
    order = sorted(range(m), key=lambda i: (pvalues[i], i))
    adjusted = [0.0] * m
    running = 0.0
    for rank, index in enumerate(order):
        running = max(running, min(1.0, (m - rank) * pvalues[index]))
        adjusted[index] = running
    return adjusted


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise EvalError("geomean of an empty sample")
    if any(value <= 0 for value in values):
        raise EvalError("geomean requires positive values")
    return math.exp(math.fsum(math.log(value) for value in values) / len(values))


def geomean_ratio(
    a: Sequence[float], b: Sequence[float]
) -> Optional[float]:
    """Geomean of per-pair ratios ``b[i] / a[i]``.

    Pairs where either side is non-positive carry no ratio information
    (a zero-throughput run is a failure, not a measurement) and are
    skipped; ``None`` when no pair qualifies.
    """
    if len(a) != len(b):
        raise EvalError(
            f"paired samples differ in length: {len(a)} vs {len(b)}"
        )
    ratios = [bv / av for av, bv in zip(a, b) if av > 0 and bv > 0]
    if not ratios:
        return None
    return geomean(ratios)


@dataclass(frozen=True)
class PairedStats:
    """Everything one A/B table cell needs about one paired sample."""

    n: int
    mean_a: float
    mean_b: float
    mean_delta: float
    ci_low: float
    ci_high: float
    p_permutation: float
    p_sign: float
    geomean_ratio: Optional[float]
    #: pair counts by delta sign (b > a / b < a / equal).
    wins: int
    losses: int
    ties: int

    def to_dict(self) -> Dict:
        return {
            "n": self.n,
            "mean_a": self.mean_a,
            "mean_b": self.mean_b,
            "mean_delta": self.mean_delta,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "p_permutation": self.p_permutation,
            "p_sign": self.p_sign,
            "geomean_ratio": self.geomean_ratio,
            "wins": self.wins,
            "losses": self.losses,
            "ties": self.ties,
        }


def paired_stats(
    a: Sequence[float],
    b: Sequence[float],
    confidence: float = DEFAULT_CONFIDENCE,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = DEFAULT_SEED,
) -> PairedStats:
    """The full paired-comparison summary for one metric on one slice."""
    return SeedDraws(seed, resamples).paired_stats(a, b, confidence)
