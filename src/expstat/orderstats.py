"""Order statistics of independent heterogeneous exponentials.

The minimum is exponential with the summed rate.  The maximum has the
product cdf prod_n (1 - exp(-lambda_n z)); conditioning on which variable is
largest gives its density as the derivative of that product,
sum_n lambda_n exp(-lambda_n z) prod_{m != n} (1 - exp(-lambda_m z)), a sum
of non-negative terms that is stable for any N.  The same density expanded
by inclusion-exclusion is a signed mixture with one term per non-empty
subset S of the rates, coefficient (-1)^(|S|+1) (sum of S) and rate (sum of
S); it is kept for exact integrals only.  For two variables the range
(max - min) is a positive two-term mixture, independent of the minimum by
memorylessness, which yields a second construction of the maximum density
as a convolution; the two paths must agree term for term.

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
    _check_points,
    _check_rate,
    as_rate_vector,
    mixture_sum,
)
from .convolution import conv_mixture
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
        r = int(self.r)
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
    N >= 2.  Memory is O(N x points).
    """
    lam = np.asarray(as_rate_vector(rates).rates)[:, None]
    zz = _check_points(z)
    x = lam * np.atleast_1d(zz)
    p = -np.expm1(-x)
    terms = lam * np.exp(-x)
    # one row per rate, so each step multiplies whole rows of points
    below = np.ones(x.shape[1])  # prod_{m < k} p_m
    above = np.ones(x.shape[1])  # prod_{m > n - 1 - k} p_m
    n = lam.shape[0]
    for k in range(1, n):
        below *= p[k - 1]
        terms[k] *= below
        above *= p[n - k]
        terms[n - 1 - k] *= above
    values = terms.sum(axis=0)
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


def range2_mixture(rate_1: float, rate_2: float) -> SignedExponentialMixture:
    """Density of max - min for two variables: a genuine two-term mixture.

    The slower variable is the more likely survivor, so the component
    densities are weighted by the other rate:
    (rate_1/(rate_1+rate_2)) f_2 + (rate_2/(rate_1+rate_2)) f_1.
    """
    for r in (rate_1, rate_2):
        _check_rate(r, "rates")
    total = rate_1 + rate_2
    return SignedExponentialMixture.from_terms(
        [
            (rate_1 / total * rate_2, rate_2, 0),
            (rate_2 / total * rate_1, rate_1, 0),
        ],
        is_density=True,
    )


def max2_via_convolution(rate_1: float, rate_2: float) -> SignedExponentialMixture:
    """Density of the two-variable maximum built as min + independent range.

    The minimum is Exp(rate_1 + rate_2) and independent of the range, so the
    maximum density is the weighted sum of two two-rate convolutions.  Equals
    max_mixture(rate_1, rate_2) term for term after canonicalization.
    """
    for r in (rate_1, rate_2):
        _check_rate(r, "rates")
    total = rate_1 + rate_2
    parts = [
        conv_mixture(RateVector((total, rate_2))).scaled(rate_1 / total),
        conv_mixture(RateVector((total, rate_1))).scaled(rate_2 / total),
    ]
    return mixture_sum(parts, is_density=True)


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
        rate = min_law(rv).rate
        return rate * math.exp(-rate * z)
    if req.r == rv.n:
        return max_pdf(rv, z)
    h = DIFFERENCE_STEP if z >= DIFFERENCE_STEP else DIFFERENCE_STEP * z
    lo = z - h
    hi = z + h
    f_lo = order_statistic_cdf(req, lo)
    f_hi = order_statistic_cdf(req, hi)
    return max((f_hi - f_lo) / (hi - lo), 0.0) if hi > lo else 0.0


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
