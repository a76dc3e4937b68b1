"""Paired statistics on seeded, dependency-free resampling.

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

Everything resamples through an explicitly seeded
:class:`random.Random` — no numpy, no scipy, no global random state —
so a report built twice from the same inputs is byte-identical
(pinned by ``tests/eval/test_report.py``).

The resamplers draw in bulk yet reproduce, bit for bit, what a
per-draw loop of ``rng.randrange(n)`` (bootstrap) and
``rng.random() < 0.5`` (permutation) on the same seed would give.
Both consume 32-bit Mersenne Twister words, which
``rng.getrandbits(32 * m)`` hands out m at a time:

* ``randrange(n)`` is one word shifted right by
  ``32 - n.bit_length()``, redrawn while the result is ``>= n``;
* ``random() < 0.5`` holds exactly when the first of its two words
  has its top bit clear.

The filtering runs in C (``bytes.translate`` over each word's top
byte when ``n <= 255``, ``map``/``filter`` above that), bootstrap
means keep their per-row :func:`math.fsum` and permutation totals are
summed strictly left to right, so every interval and p-value equals
the scalar loops' (``tests/eval/test_stats.py`` keeps those loops as
the reference).
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
import sys
from array import array
from dataclasses import dataclass
from itertools import cycle, islice, repeat
from random import Random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import EvalError

#: default resample count for bootstrap and permutation routines —
#: enough for stable 3-decimal p-values at report scale.  A 45-cell
#: report over 35 pairs at this count takes 0.4-0.55 s on a 2-vCPU
#: x86-64 VM (1.0-1.9 s with per-draw loops).
DEFAULT_RESAMPLES = 2000

#: upper bound on the Mersenne Twister words drawn per bulk request:
#: the transient buffers stay in the tens of KiB whatever
#: ``resamples`` is, and larger chunks measured no faster.
DRAW_CHUNK_WORDS = 1 << 12

#: top byte of a word -> 1 when its top bit is set (``random() >= 0.5``).
_TOP_BIT = bytes(byte >> 7 for byte in range(256))

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


def _words(rng: Random, count: int) -> bytes:
    """The next ``count`` 32-bit outputs of ``rng``, 4 bytes each.

    ``getrandbits`` fills its result from the least significant word
    up, in draw order, so the little-endian bytes hold the i-th word
    at ``[4 * i, 4 * i + 4)`` on any host.
    """
    return rng.getrandbits(32 * count).to_bytes(4 * count, "little")


def _randrange_draws(rng: Random, n: int, count: int) -> Iterator[Sequence[int]]:
    """The next ``count`` values of ``rng.randrange(n)``, in chunks.

    Each chunk asks for the words still needed at the acceptance rate
    ``n / 2**k`` (at least one half), capped at ``DRAW_CHUNK_WORDS``;
    draws past ``count`` in the last chunk are dropped.
    """
    k = n.bit_length()
    if k <= 8:
        # The kept bits all sit in the word's top byte.
        table = bytes(byte >> (8 - k) for byte in range(256))
        reject = bytes(byte for byte in range(256) if byte >> (8 - k) >= n)
    while count > 0:
        raw = _words(rng, min(DRAW_CHUNK_WORDS, -(-(count << k) // n)))
        if k <= 8:
            draws: Sequence[int] = raw[3::4].translate(table, reject)
        else:
            words = array("I", raw)
            if sys.byteorder == "big":
                words.byteswap()
            draws = list(
                filter(n.__gt__, map(operator.rshift, words, repeat(32 - k)))
            )
        if len(draws) > count:
            draws = draws[:count]
        count -= len(draws)
        yield draws


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
    if not deltas:
        raise EvalError("bootstrap over an empty sample")
    if not 0.0 < confidence < 1.0:
        raise EvalError("confidence must be in (0, 1)")
    if resamples < 1:
        raise EvalError("resamples must be positive")
    n = len(deltas)
    pick = list(deltas).__getitem__
    means: List[float] = []
    pending: List[float] = []
    for draws in _randrange_draws(Random(seed), n, resamples * n):
        pending.extend(map(pick, draws))
        end = len(pending) - len(pending) % n
        means.extend(
            math.fsum(pending[start:start + n]) / n
            for start in range(0, end, n)
        )
        del pending[:end]
    means.sort()
    alpha = (1.0 - confidence) / 2.0
    lo_index = int(math.floor(alpha * (resamples - 1)))
    hi_index = int(math.ceil((1.0 - alpha) * (resamples - 1)))
    return means[lo_index], means[hi_index]


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
    if not deltas:
        raise EvalError("permutation test over an empty sample")
    if resamples < 1:
        raise EvalError("resamples must be positive")
    n = len(deltas)
    observed = abs(math.fsum(deltas))
    # Exhaustive for small n: every p-value is a rational with a
    # fixed denominator, so repeated reports agree to the last bit.
    if 2 ** n <= max(resamples, 4096):
        hits = 0
        for mask in range(2 ** n):
            total = 0.0
            for index, delta in enumerate(deltas):
                total += delta if mask >> index & 1 else -delta
            if abs(total) >= observed - 1e-12:
                hits += 1
        return hits / 2 ** n
    rng = Random(seed)
    signed = [(delta, -delta) for delta in deltas]
    threshold = observed - 1e-12
    rows_per_chunk = max(1, DRAW_CHUNK_WORDS // (2 * n))
    hits = 0
    remaining = resamples
    while remaining:
        rows = min(rows_per_chunk, remaining)
        remaining -= rows
        # random() spends two words per call; the top byte of the
        # first sits at offset 3 of each 8-byte pair.
        flips = _words(rng, 2 * n * rows)[3::8].translate(_TOP_BIT)
        terms = map(operator.getitem, cycle(signed), flips)
        totals = [
            functools.reduce(operator.add, islice(terms, n), 0.0)
            for _ in range(rows)
        ]
        hits += sum(map(threshold.__le__, map(abs, totals)))
    return (hits + 1) / (resamples + 1)


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
    deltas = paired_deltas(a, b)
    ci_low, ci_high = bootstrap_ci(deltas, confidence, resamples, seed)
    return PairedStats(
        n=len(deltas),
        mean_a=mean(a),
        mean_b=mean(b),
        mean_delta=mean(deltas),
        ci_low=ci_low,
        ci_high=ci_high,
        p_permutation=permutation_pvalue(deltas, resamples, seed),
        p_sign=sign_test_pvalue(deltas),
        geomean_ratio=geomean_ratio(a, b),
        wins=sum(1 for delta in deltas if delta > 0),
        losses=sum(1 for delta in deltas if delta < 0),
        ties=sum(1 for delta in deltas if delta == 0),
    )
