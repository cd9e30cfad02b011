"""Seeded sampling harness and statistical oracles.

Streams are counter-based (Philox) and separated through SeedSequence spawn
keys, so (seed, stream_id) fully determines a batch and distinct stream ids
are statistically independent.  Every sampler draws the same (count, N)
matrix by the inverse transform -log(1 - U)/rate, one uniform per variable
consumed in replication-major order, and reduces its rows: the sum, the
minimum, the maximum, or the r-th smallest (np.partition).  The matrix is
drawn and reduced SAMPLE_BLOCK rows at a time, which consumes the stream in
the same order, so working memory is O(SAMPLE_BLOCK x N) plus the result,
and a request returns at most core.MAX_VALUES draws.
Reruns with the same (seed, stream_id, count) are bit-identical, and on one
stream the r=1 and r=N order statistics equal the minimum and the maximum
draw for draw.

The goodness-of-fit side provides the one-sample Kolmogorov-Smirnov test at
the asymptotic 1% level and an empirical independence (factorization) check
of a joint sample against the product of its marginals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RatesLike, _check_count, _check_integer, as_rate_vector
from .errors import ContractError, DomainError
from .orderstats import OrderStatisticRequest

# Asymptotic one-sample KS critical constant at level alpha = 0.01, valid
# for n > 35 (all shipped tests use n >= 1e4).
KS_CONSTANT_ALPHA_01 = 1.628

# The factorization statistic compares an empirical joint cdf with the
# product of empirical marginals; three KS half-widths is a conservative
# bound for the null at the grid resolutions used here.
FACTORIZATION_BOUND_MULTIPLE = 3.0

# The factorization statistic is taken on an m x m grid of the marginal quantiles i/(m+1).
FACTORIZATION_GRID = 10

# The samplers draw and reduce this many rows of the (count, N) matrix at a
# time.  Generator.random fills its output from the stream in order, so the
# draws are those of one (count, N) call bit for bit; a row reduction sees
# only its own row, so the values are too.
SAMPLE_BLOCK = 8192

# A block is divided by the negated rates this many rows at a time: one
# contiguous division by a tile of them, where a broadcast divisor runs an
# inner loop of length N per row.  Division is elementwise, so the bits stay.
_DIVISOR_ROWS = 128

# numpy sums a contiguous row of up to this many values in eight interleaved
# partial sums (its pairwise_sum), and a longer one by halving it.
_PAIRWISE_BLOCK = 128


def make_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Counter-based generator for non-negative integers (seed, stream_id); distinct ids are disjoint."""
    seed, stream_id = _check_integer(seed, "seed"), _check_integer(stream_id, "stream_id")
    if min(seed, stream_id) < 0:
        raise DomainError(f"seed and stream_id must be non-negative, got {seed} and {stream_id}")
    ss = np.random.SeedSequence(seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Monte Carlo draws with their provenance (seed, stream id, count)."""

    values: np.ndarray
    seed: int
    stream_id: int
    count: int

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size != self.count:
            raise ContractError(
                f"batch length {v.size} does not match declared count {self.count}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class GoodnessOfFitReport:
    """One-sample KS result at level alpha = 0.01; passed iff statistic < critical."""

    ks_statistic: float
    n: int
    critical_value: float
    passed: bool

    def __post_init__(self) -> None:
        if self.passed != (self.ks_statistic < self.critical_value):
            raise ContractError("pass flag inconsistent with statistic and critical value")


@dataclass(frozen=True)
class FactorizationReport:
    """Max deviation between joint and product-of-marginal empirical cdfs."""

    max_deviation: float
    bound: float
    n: int
    grid_size: int
    passed: bool

    def __post_init__(self) -> None:
        if self.passed != (self.max_deviation <= self.bound):
            raise ContractError("pass flag inconsistent with deviation and bound")


def _draw_blocks(rv, count: int, rng: np.random.Generator):
    """Yield (rows, block): the draw matrix's rows in SAMPLE_BLOCK-row blocks.

    Every block is formed in one buffer, so a block is valid only until the
    next one is drawn.
    """
    # one uniform per variable, replication-major; 1-U keeps the log argument
    # in (0, 1] so draws are finite.  -log1p(-u)/rate is formed in place in
    # the uniforms' buffer (negations are exact, so the bits are those of the
    # one-expression form).
    neg_rates = -np.asarray(rv.rates)
    tile = np.tile(neg_rates, _DIVISOR_ROWS)
    buffer = np.empty((min(count, SAMPLE_BLOCK), rv.n))
    for start in range(0, count, SAMPLE_BLOCK):
        u = buffer[: min(SAMPLE_BLOCK, count - start)]
        rng.random(out=u)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        whole = u.shape[0] - u.shape[0] % _DIVISOR_ROWS
        groups = u[:whole].reshape(-1, tile.size)
        np.divide(groups, tile, out=groups)
        np.divide(u[whole:], neg_rates, out=u[whole:])
        yield slice(start, start + u.shape[0]), u


def _reduce_columns(ufunc, x: np.ndarray, out: np.ndarray) -> None:
    """ufunc over the columns of x into out, one column at a time, from the first.

    For np.minimum and np.maximum the order does not change the result, and
    for np.add it is numpy's own order in a row of fewer than 8 values.
    Whole columns avoid x.min(axis=1)'s short reduction per row (about 3x
    faster at 1e5 x 8).
    """
    np.copyto(out, x[:, 0])
    for j in range(1, x.shape[1]):
        ufunc(out, x[:, j], out=out)


def _row_sums(x: np.ndarray, out: np.ndarray) -> None:
    """x.sum(axis=1) into out bit for bit for a C-contiguous x, adding whole columns in numpy's order.

    numpy adds a row of n < 8 values one after another.  For 8 <= n <=
    _PAIRWISE_BLOCK it keeps eight partial sums r_j = x_j + x_{j+8} + ...
    over the first n - n % 8 values, joins them as ((r_0 + r_1) + (r_2 + r_3))
    + ((r_4 + r_5) + (r_6 + r_7)) and adds the rest one after another.
    Longer rows are left to numpy.  Whole columns avoid its short reduction
    per row (3-10x faster at 8192 x 2..12); at most four columns are held
    besides x and out, two below 16 columns.
    """
    n = x.shape[1]
    if n > _PAIRWISE_BLOCK:
        np.sum(x, axis=1, out=out)
        return
    if n < 8:
        _reduce_columns(np.add, x, out)
        return
    whole = n - n % 8

    def partial(j: int) -> np.ndarray:  # r_j: column j of x itself below 16 columns
        if whole == 8:
            return x[:, j]
        r = np.add(x[:, j], x[:, j + 8])
        for i in range(j + 16, whole, 8):
            r += x[:, i]
        return r

    def pair(j: int, dest=None) -> np.ndarray:  # r_j + r_{j+1}
        return np.add(partial(j), partial(j + 1), out=dest)

    pair(0, out)
    out += pair(2)
    right = pair(4)
    right += pair(6)
    out += right
    for i in range(whole, n):
        out += x[:, i]


def _sample(rates: RatesLike, count: int, seed: int, stream_id: int, reduce) -> SampleBatch:
    """Draw the (count, N) matrix on the (seed, stream_id) stream; reduce(x, out) writes a block's row values to out."""
    rv = as_rate_vector(rates)
    count = _check_count(count, "count", 1)
    values = np.empty(count)
    for rows, x in _draw_blocks(rv, count, make_stream(seed, stream_id)):
        reduce(x, values[rows])
    return SampleBatch(values, int(seed), int(stream_id), count)


def sample_sum(rates: RatesLike, count: int, seed: int, stream_id: int = 0) -> SampleBatch:
    """iid draws of the sum of the component variables."""
    return _sample(rates, count, seed, stream_id, _row_sums)


def sample_min(rates: RatesLike, count: int, seed: int, stream_id: int = 0) -> SampleBatch:
    """iid draws of the minimum."""
    return _sample(rates, count, seed, stream_id, lambda x, out: _reduce_columns(np.minimum, x, out))


def sample_max(rates: RatesLike, count: int, seed: int, stream_id: int = 0) -> SampleBatch:
    """iid draws of the maximum."""
    return _sample(rates, count, seed, stream_id, lambda x, out: _reduce_columns(np.maximum, x, out))


def sample_order(
    rates: RatesLike, r: int, count: int, seed: int, stream_id: int = 0
) -> SampleBatch:
    """iid draws of the r-th order statistic, the r-th smallest entry of each row."""
    req = OrderStatisticRequest(rates, r)
    k = req.r - 1
    return _sample(req.rates, count, seed, stream_id, lambda x, out: np.copyto(out, np.partition(x, k, axis=1)[:, k]))


def sample_min_range_pairs(
    rate_1: float, rate_2: float, count: int, seed: int, stream_id: int = 0
) -> np.ndarray:
    """(count, 2) array of (min, max - min) pairs for two independent variables."""
    rv = as_rate_vector((rate_1, rate_2))
    count = _check_count(count, "count", 1)
    pairs = np.empty((count, 2))
    for rows, x in _draw_blocks(rv, count, make_stream(seed, stream_id)):
        lo, spread = pairs[rows, 0], pairs[rows, 1]
        np.minimum(x[:, 0], x[:, 1], out=lo)
        np.maximum(x[:, 0], x[:, 1], out=spread)
        spread -= lo
    return pairs


def ks_test(batch: SampleBatch, cdf) -> GoodnessOfFitReport:
    """One-sample Kolmogorov-Smirnov test of a batch against a reference cdf.

    ``cdf`` may be scalar or vectorized over numpy arrays.  Raises
    DomainError for a NaN or infinite sample value, and ContractError if the
    probe values are NaN, outside [0, 1] or non-monotone.
    """
    x = np.sort(batch.values)
    n = x.size
    if n == 0:
        raise DomainError("KS test requires a non-empty batch")
    if not (np.isfinite(x[0]) and np.isfinite(x[-1])):  # the sort puts -inf first, +inf and NaN last
        raise DomainError("KS test requires finite sample values")
    try:
        f = np.asarray(cdf(x), dtype=np.float64)
        if f.shape != x.shape:
            raise TypeError
    except (TypeError, ValueError):
        f = np.array([float(cdf(v)) for v in x])
    if not (f.min() >= -1e-12 and f.max() <= 1.0 + 1e-12):  # a NaN propagates and fails both
        raise ContractError("reference cdf is NaN or leaves [0, 1] on the sample")
    if n > 1 and np.min(np.diff(f)) < -1e-12:
        raise ContractError("reference cdf is not monotone on the sample")
    steps = np.arange(n + 1, dtype=np.float64) / n  # i / n for i = 0..n
    d_plus = float(np.max(steps[1:] - f))
    d_minus = float(np.max(f - steps[:-1]))
    ks = max(d_plus, d_minus, 0.0)
    critical = KS_CONSTANT_ALPHA_01 / math.sqrt(n)
    return GoodnessOfFitReport(ks, n, critical, ks < critical)


def _linear_quantiles(x: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """np.quantile(x, qs) bit for bit, with its default linear method, for 0 < qs < 1, from one sort.

    The virtual index (n - 1) q splits into a whole part i and a fraction g,
    and the quantile interpolates s[i] and s[i + 1] as numpy's _lerp does:
    from the lower end below g = 1/2, from the upper end from 1/2 on.  The
    sort replaces np.quantile's partition and its np.unique, which imports
    numpy.ma.
    """
    s = np.sort(x)
    virtual = (s.size - 1) * qs
    whole = np.floor(virtual)
    g = virtual - whole
    i = whole.astype(np.intp)
    lo, hi = s[i], s[i + 1]
    diff = hi - lo
    return np.where(g >= 0.5, hi - diff * (1 - g), lo + diff * g)


def _margin_cells(x: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """np.searchsorted(np.quantile(x, qs), x, side="left") bit for bit, as uint8 (qs.size < 256).

    The count of thresholds below each value, one comparison pass per
    threshold, in place of a binary search per value.
    """
    cells = np.zeros(x.size, dtype=np.uint8)
    for threshold in _linear_quantiles(x, qs):
        cells += x > threshold
    return cells


def factorization_test(pairs) -> FactorizationReport:
    """Empirical independence check of paired samples.

    Compares the joint empirical cdf with the product of the marginal
    empirical cdfs on a grid of marginal quantiles; the pair passes when the
    max deviation stays within three KS half-widths of zero.  Each margin's
    thresholds come from one sort (the bits of np.quantile), and each value's
    cell is the count of thresholds below it (the bits of np.searchsorted
    with side="left"), kept in one byte per pair.  Raises DomainError for
    fewer than 1e4 pairs and for a NaN or infinite value, which the sort
    would place differently from np.quantile.
    """
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError("pairs must be an (n, 2) array")
    n = arr.shape[0]
    if n < 10_000:
        raise DomainError(f"factorization test needs at least 1e4 pairs, got {n}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("factorization test requires finite pairs")
    m = FACTORIZATION_GRID
    qs = np.arange(1, m + 1) / (m + 1)
    # the cell bu (m + 1) + bv of every pair, below 256 for m <= 15
    cells = _margin_cells(np.ascontiguousarray(arr[:, 0]), qs)
    cells *= np.uint8(m + 1)
    cells += _margin_cells(np.ascontiguousarray(arr[:, 1]), qs)
    # cell counts, then a 2-d cumulative sum gives joint cdf values at the
    # thresholds; the last row/column hold the marginals
    counts = np.bincount(cells, minlength=(m + 1) ** 2).reshape(m + 1, m + 1).astype(np.float64)
    cum = counts.cumsum(axis=0).cumsum(axis=1)
    joint = cum[:m, :m] / n
    f_u = cum[:m, m] / n
    g_v = cum[m, :m] / n
    deviation = float(np.max(np.abs(joint - np.outer(f_u, g_v))))
    bound = FACTORIZATION_BOUND_MULTIPLE * KS_CONSTANT_ALPHA_01 / math.sqrt(n)
    return FactorizationReport(deviation, bound, n, m, deviation <= bound)
