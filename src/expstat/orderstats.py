"""Order statistics of independent heterogeneous exponentials.

The minimum is exponential with the summed rate.  The maximum has the
product cdf prod_n (1 - exp(-lambda_n z)); conditioning on which variable is
largest gives its density as the derivative of that product,
sum_n lambda_n exp(-lambda_n z) prod_{m != n} (1 - exp(-lambda_m z)), a sum
of non-negative terms that is stable for any N.  The same density expanded
by inclusion-exclusion is a signed mixture with one term per non-empty
subset S of the rates, coefficient (-1)^(|S|+1) (sum of S) and rate (sum of
S); it is kept for exact integrals only.  The first variable to die is n
with probability lambda_n / (sum of the rates); by memorylessness the range
(max - min) is then the maximum of the others, independent of the minimum,
so the maximum is the minimum plus an independent range for any N.

The cdf of a general order statistic is a Poisson-binomial tail computed by
dynamic programming over the events {X_n <= z}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ExponentialLaw,
    RatesLike,
    RateVector,
    SignedExponentialMixture,
    _check_integer,
    _check_points,
    _grid_blocks,
    as_rate_vector,
)
from .errors import CapacityError, DomainError

# The inclusion-exclusion mixture has 2^N - 1 terms, about 100 bytes each at
# peak; beyond 20 rates only the product forms and sampling remain available.
SUBSET_LIMIT = 20

# Step of the central finite difference behind the intermediate order densities
# (relative to z below it, see order_statistic_pdf).
DIFFERENCE_STEP = 1e-5


@dataclass(frozen=True)
class OrderStatisticRequest:
    """The r-th smallest of N independent exponentials (r=1 min, r=N max)."""

    rates: RateVector
    r: int

    def __post_init__(self) -> None:
        rv = as_rate_vector(self.rates)
        object.__setattr__(self, "rates", rv)
        r = _check_integer(self.r, "order r")
        if not 1 <= r <= rv.n:
            raise DomainError(f"order must satisfy 1 <= r <= {rv.n}, got {r}")
        object.__setattr__(self, "r", r)


def min_law(rates: RatesLike) -> ExponentialLaw:
    """The minimum is exponential with rate sum_n lambda_n."""
    return ExponentialLaw(as_rate_vector(rates).total)


def max_mixture(rates: RatesLike) -> SignedExponentialMixture:
    """Inclusion-exclusion density of the maximum as a signed mixture.

    Subset sums are accumulated over the rates in ascending order, so the
    mixture is independent of the input permutation; subsets with equal rate
    sums merge into a single term.  Memory is about 100 bytes x 2^N at peak
    (tracemalloc: 6.1 MiB at N = 16, 98 MiB in 0.4 s at N = 20), so it is
    capacity-limited to SUBSET_LIMIT = 20 rates.
    """
    rv = as_rate_vector(rates)
    if rv.n > SUBSET_LIMIT:
        raise CapacityError(
            f"inclusion-exclusion over {rv.n} rates exceeds the {SUBSET_LIMIT}-rate "
            "limit; max_pdf, max_cdf and sampling remain available"
        )
    sums = np.empty(0, dtype=np.float64)
    signs = np.empty(0, dtype=np.float64)
    for lam in sorted(rv.rates):
        sums = np.concatenate((sums, [lam], sums + lam))
        signs = np.concatenate((signs, [1.0], -signs))
    return SignedExponentialMixture(
        signs * sums, sums, np.zeros(sums.size, dtype=np.int64), is_density=True
    )


def max_pdf(rates: RatesLike, z: float | np.ndarray) -> float | np.ndarray:
    """Density of the maximum at a scalar or an array z, the derivative of the max_cdf product.

    sum_n lambda_n exp(-lambda_n z) prod_{m != n} (1 - exp(-lambda_m z)), with
    the products over the other rates taken from prefix and suffix products,
    so nothing is divided by 1 - exp(-lambda z) and z = 0 gives exactly 0 for
    N >= 2.  Points are taken core.GRID_BLOCK at a time (core._grid_blocks):
    each row operation is elementwise and each column sums its rows in order,
    so the values are those of one block bit for bit, and memory is
    O(N x GRID_BLOCK + points).
    """
    lam = np.asarray(as_rate_vector(rates).rates)[:, None]
    zz = _check_points(z)
    points = np.atleast_1d(zz)
    values = np.empty_like(points)
    n = lam.shape[0]
    for block in _grid_blocks(points.size):
        x = -lam * points[None, block]  # -(lambda z), for both exponentials: the negation is exact
        p = np.expm1(x)
        np.negative(p, out=p)  # 1 - exp(-lambda z)
        terms = np.multiply(np.exp(x, out=x), lam, out=x)
        # one row per rate, so each step multiplies whole rows of points
        below = np.ones(x.shape[1])  # prod_{m < k} p_m
        above = np.ones(x.shape[1])  # prod_{m > n - 1 - k} p_m
        for k in range(1, n):
            below *= p[k - 1]
            terms[k] *= below
            above *= p[n - k]
            terms[n - 1 - k] *= above
        np.add.reduce(terms, axis=0, out=values[block])
    return float(values[0]) if isinstance(zz, float) else values


def max_cdf(rates: RatesLike, z: float | np.ndarray) -> float | np.ndarray:
    """P(max <= z) = prod_n (1 - exp(-lambda_n z)) at a scalar or an array z; stable for any N.

    Both paths multiply the factors in rate order, which gives the bits of
    np.prod over a (points, N) matrix.  An array multiplies in one row of
    points per rate, without np.prod's short reduction per point, so memory
    is O(points).  A scalar takes its N factors from one np.expm1 call over
    the rates (math.expm1 differs from numpy's in the last bit on a few
    percent of arguments) and multiplies them as Python floats with math.prod.
    """
    rv = as_rate_vector(rates)
    zz = _check_points(z)
    if isinstance(zz, float):
        return math.prod((-np.expm1(-np.asarray(rv.rates) * zz)).tolist())
    lam = rv.rates
    values = -np.expm1(-lam[0] * zz)
    for rate in lam[1:]:
        values *= -np.expm1(-rate * zz)
    return values


def _range_law(kernel, rates: RatesLike, z) -> float | np.ndarray:
    """sum_n (lambda_n / Lambda) kernel(rates without n, z), accumulated into one array."""
    rv = as_rate_vector(rates)
    if rv.n < 2:
        raise DomainError(f"the range needs at least two rates, got {rv.n}")
    zz = _check_points(z)
    lam, total = rv.rates, rv.total
    values = np.zeros(np.shape(zz))
    for n, rate in enumerate(lam):
        values += rate / total * kernel(lam[:n] + lam[n + 1 :], zz)
    return float(values) if isinstance(zz, float) else values


def range_pdf(rates: RatesLike, z: float | np.ndarray) -> float | np.ndarray:
    """Density of max - min for N >= 2 rates, sum_n (lambda_n / Lambda) max_pdf(rates without n, z).

    Lambda is the sum of the rates.  The terms are non-negative, so it is stable for any N;
    O(N^2 x points) time and, through max_pdf's blocks, O(N x GRID_BLOCK + points) memory.
    Exact integrals come from max_mixture of each leave-one-out set with the same weights.
    """
    return _range_law(max_pdf, rates, z)


def range_cdf(rates: RatesLike, z: float | np.ndarray) -> float | np.ndarray:
    """P(max - min <= z) = sum_n (lambda_n / Lambda) max_cdf(rates without n, z); see range_pdf."""
    return _range_law(max_cdf, rates, z)


def _check_scalar_point(z) -> float:
    """A checked scalar point; DomainError for an array, which these kernels do not take."""
    z = _check_points(z)
    if not isinstance(z, float):
        raise DomainError(f"order-statistic laws take one point at a time, got shape {z.shape}")
    return z


def order_statistic_cdf(req: OrderStatisticRequest, z: float) -> float:
    """P(X_(r) <= z) at a scalar z.

    The extremes take their closed forms: r=N (N=1 included) is max_cdf's
    product, the bits of the DP below, and r=1 is min_cdf, within a few ulp
    of it.  Other orders take the Poisson-binomial tail P(at least r of
    {X_n <= z}) by dynamic programming over the independent Bernoulli
    indicators, O(N^2) per point.  The DP runs on Python floats: numpy's
    per-operation overhead dominates on the N+1 entries of one point, so
    this is 3-5x faster than array slices at N <= 12, and slower beyond N
    near 130.  Entries above the number m of indicators folded in so far
    are exact zeros and are skipped, so the result is the same bit for bit
    as the all-entries recurrence.
    """
    rv, r = req.rates, req.r
    z = _check_scalar_point(z)
    n = len(rv.rates)
    if r == n:
        return max_cdf(rv, z)
    if r == 1:
        return min_cdf(rv, z)
    dp = [1.0] + [0.0] * n
    for m, pn in enumerate((-np.expm1(-np.asarray(rv.rates) * z)).tolist(), start=1):
        qn = 1.0 - pn
        for k in range(m, 0, -1):
            dp[k] = dp[k] * qn + dp[k - 1] * pn
        dp[0] *= qn
    return min(1.0, math.fsum(dp[r:]))


def order_statistic_pdf(req: OrderStatisticRequest, z: float) -> float:
    """Density of the r-th order statistic at a scalar z.

    Exact for r=1 (minimum) and r=N (maximum).  Intermediate orders take the
    central difference (F(z + h) - F(z - h)) / 2h of the dynamic-programming
    cdf F, with h = DIFFERENCE_STEP from z = DIFFERENCE_STEP on and
    h = DIFFERENCE_STEP z below it, so the stencil never reaches below 0 and
    z = 0 gives exactly 0.  Near zero F grows like z^r, and the difference
    is off by about (r-1)(r-2)/6 (h/z)^2 relative: below 1e-10 on the
    relative step, but a third at r=3 and z = DIFFERENCE_STEP, falling to
    3e-5 at z = 1e-3, on the fixed one.
    """
    rv = req.rates
    z = _check_scalar_point(z)
    if req.r == 1:
        return min_pdf(rv, z)
    if req.r == rv.n:
        return max_pdf(rv, z)
    h = DIFFERENCE_STEP if z >= DIFFERENCE_STEP else DIFFERENCE_STEP * z
    lo = z - h
    hi = z + h
    f_lo = order_statistic_cdf(req, lo)
    f_hi = order_statistic_cdf(req, hi)
    return max((f_hi - f_lo) / (hi - lo), 0.0) if hi > lo else 0.0


def min_pdf(rates: RatesLike, z: float | np.ndarray) -> float | np.ndarray:
    """Density Lambda exp(-Lambda z) of the minimum, Lambda = RateVector.total; math.exp on a scalar, np.exp on an array."""
    rate = as_rate_vector(rates).total
    zz = _check_points(z)
    return rate * (math.exp(-rate * zz) if isinstance(zz, float) else np.exp(-rate * zz))


def min_cdf(rates: RatesLike, z: float | np.ndarray) -> float | np.ndarray:
    """P(min <= z) = 1 - exp(-z sum_n lambda_n) at a scalar or an array z, via expm1.

    The summed rate is RateVector.total, which raises CapacityError when it
    leaves the double range.
    """
    rate = as_rate_vector(rates).total
    zz = _check_points(z)
    if isinstance(zz, float):
        return -math.expm1(-rate * zz)
    return -np.expm1(-rate * zz)
