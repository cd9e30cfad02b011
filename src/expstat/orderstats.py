"""Order statistics of independent heterogeneous exponentials.

The minimum is exponential with the summed rate Lambda.  The maximum has the
product cdf P = prod_n (1 - exp(-lambda_n z)); conditioning on the last to
die gives its density P' as the derivative of the product.  The first to die
is n with probability lambda_n / Lambda, and by memorylessness the range
(max - min) is independent of the minimum, so max = min + range for any N.
One product-rule pass over the rates gives P' and the range's cdf and
density, all from non-negative terms.  P' expanded by inclusion-exclusion is
a signed mixture with one term per non-empty subset of the rates, kept for
exact integrals only.

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
    """Inclusion-exclusion density of the maximum as a signed mixture, for exact integrals.

    One term per non-empty subset S of the rates, coefficient (-1)^(|S|+1)
    (sum of S) and rate (sum of S).  Subset sums are accumulated over the
    rates in ascending order, so the mixture is independent of the input
    permutation; subsets with equal rate sums merge into a single term.
    Memory is about 100 bytes x 2^N at peak (tracemalloc: 6.1 MiB at N = 16,
    98 MiB in 0.4 s at N = 20), so it is capacity-limited to SUBSET_LIMIT = 20 rates.
    """
    rv = as_rate_vector(rates)
    if rv.n > SUBSET_LIMIT:
        raise CapacityError(
            f"inclusion-exclusion over {rv.n} rates exceeds the {SUBSET_LIMIT}-rate "
            "limit; max_pdf, max_cdf and sampling remain available"
        )
    sums = signs = np.empty(0, dtype=np.float64)
    for lam in sorted(rv.rates):
        sums = np.concatenate((sums, [lam], sums + lam))
        signs = np.concatenate((signs, [1.0], -signs))
    return SignedExponentialMixture(signs * sums, sums, np.zeros(sums.size, dtype=np.int64), is_density=True)


def _product_rule(rates: RatesLike, z, law: str) -> float | np.ndarray:
    """max_pdf, range_pdf or range_cdf (``law``) at a scalar or an array z, from one pass over the rates.

    With p_k = 1 - exp(-lambda_k z), u_k = lambda_k exp(-lambda_k z) and w_k = lambda_k / Lambda,
    step k folds rate k into P = prod p (max_cdf), P' (max_pdf), S = sum_n w_n prod_{m != n} p_m
    (range_cdf) and S' (range_pdf) by the product rule, from P = p_0, P' = u_0, S = w_0 and S' = 0:
    every term is non-negative and nothing is divided.  Points are taken core.GRID_BLOCK at a
    time, each block's arrays gone before the next block's are formed.
    """
    rv = as_rate_vector(rates)
    if law != "max_pdf" and rv.n < 2:
        raise DomainError(f"the range needs at least two rates, got {rv.n}")
    zz = _check_points(z)
    lam = np.asarray(rv.rates)[:, None]
    # max_pdf takes no Lambda, which leaves the double range before the density does
    weights = (lam[:, 0] / rv.total).tolist() if law != "max_pdf" else None
    points = np.atleast_1d(zz)
    values = np.empty_like(points)
    for block in _grid_blocks(points.size):
        values[block] = _product_rule_block(lam, weights, points[None, block], law)
    return float(values[0]) if isinstance(zz, float) else values


def _product_rule_block(lam: np.ndarray, weights: list[float] | None, z: np.ndarray, law: str) -> np.ndarray:
    """One block of _product_rule: two (N, block) arrays p and u and, for the range (weights w), three rows."""
    u = -lam * z  # -(lambda z), for both exponentials: the negation is exact
    p = np.expm1(u)
    np.negative(p, out=p)
    np.multiply(np.exp(u, out=u), lam, out=u)
    cdf, pdf = p[0], u[0]  # rows 0 are read only here, so they carry P and P' in place
    s, ds = (np.full(z.shape[1], weights[0]), np.zeros(z.shape[1])) if weights else (None, None)
    for k, (pk, uk) in enumerate(zip(p[1:], u[1:]), start=1):
        if weights:  # the range, from the old P, P' and S
            ds *= pk
            ds += pdf * weights[k]
            ds += s * uk
            s *= pk
            s += cdf * weights[k]
        pdf *= pk
        pdf += np.multiply(uk, cdf, out=uk)
        cdf *= pk
    return {"max_pdf": pdf, "range_pdf": ds, "range_cdf": s}[law]


def max_pdf(rates: RatesLike, z: float | np.ndarray) -> float | np.ndarray:
    """Density of the maximum at a scalar or an array z, the derivative of the max_cdf product.

    sum_n lambda_n exp(-lambda_n z) prod_{m != n} (1 - exp(-lambda_m z)),
    accumulated in rate order as P' <- P' p_k + P u_k (_product_rule): 0 at
    z = 0 for N >= 2, the bits of one block, O(N x points) time and
    O(N x GRID_BLOCK + points) memory.
    """
    return _product_rule(rates, z, "max_pdf")


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


def range_pdf(rates: RatesLike, z: float | np.ndarray) -> float | np.ndarray:
    """Density of max - min for N >= 2 rates, sum_n (lambda_n / Lambda) max_pdf(rates without n, z).

    Lambda is the sum of the rates.  It is S' of max_pdf's pass (_product_rule): stable for
    any N, O(N x points) time, O(N x GRID_BLOCK + points) memory.
    """
    return _product_rule(rates, z, "range_pdf")


def range_cdf(rates: RatesLike, z: float | np.ndarray) -> float | np.ndarray:
    """P(max - min <= z) = sum_n (lambda_n / Lambda) max_cdf(rates without n, z), S of range_pdf's pass."""
    return _product_rule(rates, z, "range_cdf")


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
    lo, hi = z - h, z + h
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
