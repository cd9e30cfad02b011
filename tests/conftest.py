"""Shared test helpers: seeded rate-set generators and grid builders."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from expstat import conv_pdf, conv_quantile
from expstat.orderstats import max_mixture


def random_rate_sets(
    seed: int,
    n_sets: int,
    n_min: int = 2,
    n_max: int = 8,
    low: float = 1e-2,
    high: float = 1e2,
    min_gap: float = 1e-3,
) -> list[tuple[float, ...]]:
    """Log-uniform random rate sets with a minimum relative gap, reproducible."""
    rng = np.random.default_rng(seed)
    sets: list[tuple[float, ...]] = []
    while len(sets) < n_sets:
        n = int(rng.integers(n_min, n_max + 1))
        r = np.exp(rng.uniform(np.log(low), np.log(high), size=n))
        r.sort()
        if n == 1 or float(np.min((r[1:] - r[:-1]) / r[1:])) > min_gap:
            sets.append(tuple(float(x) for x in r))
    return sets


def quantile_grid(rates, n_points: int = 20, p_lo: float = 0.02, p_hi: float = 0.98) -> np.ndarray:
    """Evaluation points at sum-law quantiles, away from the deep tails."""
    return np.array([conv_quantile(rates, p) for p in np.linspace(p_lo, p_hi, n_points)])


def gamma_limit_error(lambda_mean: float, delta: float, z_grid) -> float:
    """Max deviation of the rates (lam(1+d), lam(1-d)) sum density from Gamma(2, lam).

    The deviation decays quadratically in delta; at delta = 0 the clustered
    path evaluates the Gamma(2, lambda_mean) density exactly, so the
    deviation is zero.
    """
    zz = np.asarray(z_grid, dtype=np.float64)
    reference = lambda_mean**2 * zz * np.exp(-lambda_mean * zz)
    approx = conv_pdf((lambda_mean * (1.0 + delta), lambda_mean * (1.0 - delta)), zz)
    return float(np.max(np.abs(approx - reference)))


def _laplace(m, s: float) -> tuple[float, float]:
    """(sum_i c_i / (rate_i + s), the transform of a degree-0 mixture; sum_i |c_i| / (rate_i + s), its rounding sum)."""
    assert not m.degrees.any()
    return (
        math.fsum((m.coefficients / (m.rates + s)).tolist()),
        math.fsum((np.abs(m.coefficients) / (m.rates + s)).tolist()),
    )


def merge_residual_ratio(rates, s: float) -> float:
    """Residual of max = min + independent range in Laplace space, over 2 eps times its rounding sums.

    L_max(s) = Lambda/(Lambda + s) sum_n (lambda_n/Lambda) L_max(rates without n)(s), each
    side's transform taken from max_mixture, whose inclusion-exclusion coefficients cancel.
    A term c/(rate + s) rounds in its subset sum as well as in its shift and its division,
    hence 2 eps; 1.2e5 random sets of 2-7 rates read at most 0.42 of that.
    """
    total = math.fsum(rates)
    left, left_rounding = _laplace(max_mixture(rates), s)
    parts, right_rounding = [], 0.0
    for n, rate in enumerate(rates):
        value, rounding = _laplace(max_mixture(rates[:n] + rates[n + 1 :]), s)
        parts.append(rate / total * value)
        right_rounding += rate / total * rounding
    shrink = total / (total + s)
    residual = abs(left - shrink * math.fsum(parts))
    return residual / (2.0 * np.finfo(float).eps * (left_rounding + shrink * right_rounding))


def rate_strategy(min_size: int = 1, max_size: int = 8):
    """Hypothesis strategy for plain positive rate lists."""
    return st.lists(
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False),
        min_size=min_size,
        max_size=max_size,
    )


def _min_relative_gap(values: list[float]) -> float:
    ordered = sorted(values)
    if len(ordered) < 2:
        return float("inf")
    return min((b - a) / b for a, b in zip(ordered, ordered[1:]))


def separated_rate_strategy(min_size: int = 2, max_size: int = 8, min_gap: float = 1e-3):
    """Rate lists whose sorted entries are separated by a relative gap."""
    return rate_strategy(min_size, max_size).filter(lambda r: _min_relative_gap(r) > min_gap)
