"""Order statistics of independent heterogeneous exponentials.

The minimum is exponential with the summed rate.  The maximum has an
inclusion-exclusion density: one term per non-empty subset S of the rates,
with coefficient (-1)^(|S|+1) (sum of S) and rate (sum of S); its cdf also
has the unconditionally stable product form prod_n (1 - exp(-lambda_n z)).
For two variables the range (max - min) is a positive two-term mixture,
independent of the minimum by memorylessness, which yields a second
construction of the maximum density as a convolution; the two paths must
agree term for term.

General order statistics are sampled by accumulating exponential spacings
(the remaining-rates sum governs each spacing, and the variable that exits
is chosen proportionally to its rate), and their cdf is a Poisson-binomial
tail computed by dynamic programming over the events {X_n <= z}.
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
    exp_cdf,
    exp_pdf,
    mixture_eval,
    mixture_sum,
)
from .convolution import conv_mixture
from .errors import CapacityError, DomainError

# The inclusion-exclusion mixture has 2^N - 1 terms; 2^25 is still desk
# scale, beyond that only the product-form cdf and sampling remain available.
SUBSET_LIMIT = 25


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
    sums merge into a single term.  Capacity-limited to SUBSET_LIMIT rates.
    """
    rv = as_rate_vector(rates)
    if rv.n > SUBSET_LIMIT:
        raise CapacityError(
            f"inclusion-exclusion over {rv.n} rates exceeds the {SUBSET_LIMIT}-rate "
            "limit; max_cdf and sampling remain available"
        )
    sums = np.empty(0, dtype=np.float64)
    signs = np.empty(0, dtype=np.float64)
    for lam in sorted(rv.rates):
        sums = np.concatenate((sums, [lam], sums + lam))
        signs = np.concatenate((signs, [1.0], -signs))
    return SignedExponentialMixture(
        signs * sums, sums, np.zeros(sums.size, dtype=np.int64), is_density=True
    )


def max_pdf(rates: RatesLike, z: float) -> float:
    """Density of the maximum at z >= 0."""
    return max(mixture_eval(max_mixture(rates), z), 0.0)


def max_cdf(rates: RatesLike, z: float | np.ndarray) -> float | np.ndarray:
    """P(max <= z) = prod_n (1 - exp(-lambda_n z)) at a scalar or an array z; stable for any N."""
    lam = np.asarray(as_rate_vector(rates).rates)
    zz = _check_points(z)
    values = np.prod(-np.expm1(-lam[None, :] * np.atleast_1d(zz)[:, None]), axis=1)
    return float(values[0]) if isinstance(zz, float) else values


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


def order_statistic_sample(req: OrderStatisticRequest, rng_stream: np.random.Generator) -> float:
    """One draw of the r-th order statistic by accumulating spacings.

    By memorylessness the wait for the next smallest value is exponential
    with the sum of the remaining rates, and the variable that achieves it
    is the k-th remaining one with probability lambda_k / (remaining sum).
    Consumes r spacing uniforms and r-1 selection uniforms.
    """
    remaining = list(req.rates.rates)
    acc = 0.0
    for step in range(req.r):
        total = math.fsum(remaining)
        u = rng_stream.random()
        while u == 0.0:  # pragma: no cover - probability 2**-53
            u = rng_stream.random()
        acc += -math.log(u) / total
        if step == req.r - 1:
            break
        v = rng_stream.random() * total
        cum = 0.0
        pick = len(remaining) - 1
        for i, lam in enumerate(remaining):
            cum += lam
            if v < cum:
                pick = i
                break
        remaining.pop(pick)
    return acc


def order_statistic_cdf(req: OrderStatisticRequest, z: float) -> float:
    """P(X_(r) <= z) as the Poisson-binomial tail P(at least r of {X_n <= z}).

    Dynamic programming over the independent Bernoulli indicators; reduces
    to the minimum's exponential cdf at r=1 and to the product form at r=N.
    """
    rv = req.rates
    z = _check_points(z)
    if rv.n > SUBSET_LIMIT:
        raise CapacityError(
            f"order-statistic cdf over {rv.n} rates exceeds the {SUBSET_LIMIT}-rate limit"
        )
    p = -np.expm1(-np.asarray(rv.rates) * z)
    dp = np.zeros(rv.n + 1)
    dp[0] = 1.0
    for pn in p:
        dp[1:] = dp[1:] * (1.0 - pn) + dp[:-1] * pn
        dp[0] *= 1.0 - pn
    return float(min(1.0, math.fsum(dp[req.r :])))


def order_statistic_pdf(req: OrderStatisticRequest, z: float, h: float = 1e-5) -> float:
    """Density of the r-th order statistic.

    Exact for r=1 (minimum) and r=N (maximum); intermediate orders use a
    central finite difference of the dynamic-programming cdf with step h.
    """
    rv = req.rates
    z = _check_points(z)
    if req.r == 1:
        return exp_pdf(min_law(rv), z)
    if req.r == rv.n:
        return max_pdf(rv, z)
    lo = max(z - h, 0.0)
    hi = z + h
    f_lo = order_statistic_cdf(req, lo)
    f_hi = order_statistic_cdf(req, hi)
    return max((f_hi - f_lo) / (hi - lo), 0.0)


def min_cdf(rates: RatesLike, z: float) -> float:
    """P(min <= z), the exponential cdf at the summed rate."""
    return exp_cdf(min_law(rates), z)
