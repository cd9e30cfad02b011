"""Sum-of-exponentials laws: coefficients, densities, transforms, limits."""

import logging
import math
import statistics
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from conftest import gamma_limit_error, quantile_grid, random_rate_sets, separated_rate_strategy
from expstat import (
    CapacityError,
    DomainError,
    NumericalError,
    RateVector,
    char_fn_linear_combination,
    char_fn_product,
    conv_cdf,
    conv_coefficients,
    conv_mixture,
    conv_moments,
    conv_pdf,
    conv_quantile,
    mixture_cdf,
    mixture_eval,
    mixture_moment,
    mixture_quantile,
    sum_pdf_quadrature,
)
from expstat import SignedExponentialMixture, convolution, core
from expstat.convolution import conv_pdf_phase_type, sum_route
from expstat.core import CDF_CLAMP_WINDOW, mixture_eval_grid
from expstat.orderstats import max_mixture

E_INV = math.exp(-1.0)
LN2 = math.log(2.0)


def _identity_tolerance(coeffs) -> float:
    return 1e-8 * max(coeffs.condition_estimate, 1.0)


# ---------------------------------------------------------------------------
# partial-fraction coefficients


def test_coefficients_two_rates_exact():
    out = conv_coefficients((1.0, 2.0))
    assert out.coefficients == (2.0, -1.0)
    assert out.rates == (1.0, 2.0)


def test_coefficients_three_rates_exact():
    out = conv_coefficients((1.0, 2.0, 3.0))
    assert out.coefficients == (3.0, -3.0, 1.0)


def test_coefficients_single_rate():
    assert conv_coefficients((4.0,)).coefficients == (1.0,)


def test_coefficients_match_brute_force_products():
    # the geometric ladder has 21 rates and |A_n| up to 2.3e13
    ladder = tuple(1.05**k for k in range(21))
    for rates in random_rate_sets(seed=11, n_sets=20, n_min=2, n_max=8) + [ladder]:
        out = conv_coefficients(rates)
        for n, lam in enumerate(rates):
            brute = 1.0
            for j, other in enumerate(rates):
                if j != n:
                    brute *= other / (other - lam)
            assert out.coefficients[n] == pytest.approx(brute, rel=1e-13)


def test_coefficients_reject_clustered_rates():
    with pytest.raises(DomainError, match="partial-fraction coefficients need pairwise-distinct rates"):
        conv_coefficients((1.0, 1.0))
    # unequal rates are distinct however close: A = (b, -a) / (b - a), about 2e12 in magnitude
    a, b = 2.0, 2.0 + 1e-12
    assert conv_coefficients((a, b)).coefficients == (b / (b - a), a / (a - b))
    # 70 rates 1e-6 apart: the middle products pass the double range
    with pytest.raises(NumericalError, match="not a finite double"):
        conv_coefficients(tuple(1.0 + 1e-6 * k for k in range(70)))


def test_coefficient_identities_random_sets():
    # sum A_n = 1 and sum A_n lambda_n^k = 0 for k = 1..N-1, scaled by the
    # conditioning of the expansion
    for rates in random_rate_sets(seed=12, n_sets=30, n_min=2, n_max=10):
        out = conv_coefficients(rates)
        tol = _identity_tolerance(out)
        a = np.array(out.coefficients)
        lam = np.array(out.rates)
        assert abs(math.fsum(a) - 1.0) <= tol
        for k in range(1, len(rates)):
            scale = float(np.max(lam)) ** k
            assert abs(math.fsum(a * lam**k)) <= tol * scale


def test_coefficients_log_space_path_matches_direct_products():
    # 21 rates used to leave the direct-product window for a log-space sum;
    # every A_n is now the direct product, checked on a geometric rate ladder
    rates = tuple(1.05**k for k in range(21))
    out = conv_coefficients(rates)
    for n in (0, 10, 20):
        brute = 1.0
        for j, other in enumerate(rates):
            if j != n:
                brute *= other / (other - rates[n])
        assert out.coefficients[n] == pytest.approx(brute, rel=1e-10)


# ---------------------------------------------------------------------------
# density values against frozen and independent oracles


def test_conv_pdf_two_rates_frozen_value():
    assert conv_pdf((1.0, 2.0), LN2) == pytest.approx(0.5, rel=1e-14)


def test_conv_pdf_repeated_rate_frozen_value():
    # two unit rates give z * exp(-z)
    assert conv_pdf((1.0, 1.0), 1.0) == E_INV


def test_conv_pdf_vanishes_at_origin():
    assert conv_pdf((1.0, 2.0), 0.0) == 0.0
    for rates in random_rate_sets(seed=13, n_sets=10, n_min=2, n_max=6):
        assert abs(conv_pdf(rates, 0.0)) <= 1e-10


def test_conv_pdf_single_rate_is_exponential():
    assert conv_pdf((3.0,), 0.5) == pytest.approx(3.0 * math.exp(-1.5), rel=1e-15)


def test_conv_pdf_matches_direct_convolution_integral():
    # independent route: scipy adaptive quadrature of f1(u) f2(z-u) du
    for rates in ((1.0, 2.0), (0.3, 7.0), (5.0, 5.5)):
        l1, l2 = rates
        for z in (0.2, 1.0, 3.0):
            ref, err = integrate.quad(
                lambda u: l1 * math.exp(-l1 * u) * l2 * math.exp(-l2 * (z - u)),
                0.0,
                z,
                epsabs=1e-13,
                epsrel=1e-12,
            )
            assert err < 1e-10
            assert conv_pdf(rates, z) == pytest.approx(ref, rel=1e-10, abs=1e-13)


def test_conv_pdf_matches_spline_panel_quadrature():
    for rates in random_rate_sets(seed=14, n_sets=8, n_min=2, n_max=6):
        z = quantile_grid(rates, n_points=10)
        ref = sum_pdf_quadrature(rates, z)
        mine = np.array([conv_pdf(rates, float(x)) for x in z])
        np.testing.assert_allclose(mine, ref, rtol=1e-8)


def test_erlang_mixture_matches_gamma_cdf():
    # three equal rates: cdf must equal the regularized lower incomplete gamma
    mix = conv_mixture((2.0, 2.0, 2.0))
    assert mix.terms == ((4.0, 2.0, 2),)
    for z in (0.1, 0.5, 1.0, 2.5, 6.0):
        assert mixture_cdf(mix, z) == pytest.approx(
            float(special.gammainc(3.0, 2.0 * z)), abs=1e-12
        )


def _mp_gamma_law(n, rate, z=None, p=None):
    """pdf and cdf of Gamma(n, rate) at z, or its p-quantile, at 40 digits."""
    with mpmath.workdps(40):
        lam = mpmath.mpf(rate)
        if p is not None:
            cdf = lambda t: mpmath.gammainc(n, 0, lam * t, regularized=True) - p  # noqa: E731
            return mpmath.findroot(cdf, (n / lam / 2, 2 * n / lam), solver="anderson")
        z = mpmath.mpf(z)
        return lam**n * z ** (n - 1) * mpmath.exp(-lam * z) / mpmath.factorial(n - 1), mpmath.gammainc(n, 0, lam * z, regularized=True)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, rate", [(172, 1.0), (120, 1000.0), (120, 0.001)])
def test_erlang_block_coefficients_outside_the_double_range(n, rate):
    # the one coefficient rate^n / (n-1)! is 8e-310 (subnormal), 1.8e163 and 1.8e-557: the normal
    # one is formed although rate^n overflows, the others raise CapacityError naming the cluster
    rates = (rate,) * n
    mean = n / rate
    calls = {
        "pdf": lambda: conv_pdf(rates, mean),
        "pdf grid": lambda: conv_pdf(rates, np.array([mean]))[0],
        "cdf": lambda: conv_cdf(rates, mean),
        "median": lambda: conv_quantile(rates, 0.5),
    }
    if rate != 1000.0:
        for call in calls.values():
            with pytest.raises(CapacityError, match=f"cluster of {n} rates at {rate!r}"):
                call()
        return
    pdf, cdf = _mp_gamma_law(n, rate, z=mean)
    refs = {"pdf": pdf, "pdf grid": pdf, "cdf": cdf, "median": _mp_gamma_law(n, rate, p=0.5)}
    for name, call in calls.items():
        assert abs(call() / refs[name] - 1) <= 1e-10, name


@pytest.mark.filterwarnings("error")
def test_erlang_pdf_stays_finite_where_the_power_overflows():
    # z^k overflows: inf * exp(-z) = inf * 0 was NaN from z = 1e155 for (1, 1, 1), and
    # z^149 / 149! at z = 150 was inf
    assert conv_pdf((1.0, 1.0, 1.0), 1e155) == 0.0
    assert conv_pdf((1.0, 1.0, 1.0), np.array([1.0, 1e155, 1e200, 1e300])).tolist() == [
        conv_pdf((1.0, 1.0, 1.0), 1.0), 0.0, 0.0, 0.0,
    ]
    ref = _mp_gamma_law(150, 1.0, z=150.0)[0]
    for got in (conv_pdf((1.0,) * 150, 150.0), conv_pdf((1.0,) * 150, np.array([1.0, 150.0]))[1]):
        assert abs(got / ref - 1) <= 1e-10, got


def test_confluent_mixture_hand_value():
    # rates (1, 1, 2): 2 z e^{-z} - 2 e^{-z} + 2 e^{-2z}
    mix = conv_mixture((1.0, 1.0, 2.0))
    assert mix.terms == (
        (-2.0, 1.0, 0),
        (2.0, 1.0, 1),
        (2.0, 2.0, 0),
    )
    assert mixture_moment(mix, 0) == pytest.approx(1.0, abs=1e-14)
    z = np.linspace(0.0, 12.0, 200)
    expected = -2.0 * np.exp(-z) + 2.0 * z * np.exp(-z) + 2.0 * np.exp(-2.0 * z)
    np.testing.assert_allclose(mixture_eval_grid(mix, z), expected, rtol=1e-13, atol=1e-14)


def _mp_erlang_block_terms(rates) -> dict:
    """{(rate, degree): coefficient} of the sum density at 60 digits, from Taylor series products.

    Independent of the library's log-derivative recurrence: each factor
    (x + gap)^(-m) of phi_g, x = s + mu_g, is expanded as
    sum_j binom(m+j-1, j) (-1)^j gap^(-m-j) x^j and the series are multiplied.
    """
    counts = {}
    for r in rates:
        counts[r] = counts.get(r, 0) + 1
    with mpmath.workdps(60):
        mu = {r: mpmath.mpf(r) for r in counts}
        scale = mpmath.fprod(mu[r] ** m for r, m in counts.items())
        terms = {}
        for g, m_g in counts.items():
            series = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (m_g - 1)
            for h, m_h in counts.items():
                if h != g:
                    gap = mu[h] - mu[g]
                    factor = [mpmath.binomial(m_h + j - 1, j) * (-1) ** j * gap ** (-m_h - j) for j in range(m_g)]
                    series = [mpmath.fsum(series[i] * factor[r - i] for i in range(r + 1)) for r in range(m_g)]
            for k in range(1, m_g + 1):
                terms[(g, k - 1)] = float(scale * series[m_g - k] / mpmath.factorial(k - 1))
    return {key: value for key, value in terms.items() if value}


def test_erlang_block_coefficients_are_the_correctly_rounded_residues():
    # a float recurrence was off by a median 1 ulp and up to 1e3 ulp on such sets
    rng = np.random.default_rng(2024)
    for _ in range(200):
        clusters = int(rng.integers(2, 7))
        mult = rng.integers(1, 5, clusters)
        mult[0] = max(mult[0], 2)
        rates = tuple(float(r) for r, m in zip(rng.uniform(0.1, 10.0, clusters), mult) for _ in range(m))
        expected = _mp_erlang_block_terms(rates)
        mix = conv_mixture(rates)
        got = {(c.rate, c.degree): c.coefficient for c in mix.terms}
        assert got == expected, rates


def test_gamma_block_of_a_thousand_rates_raises_at_once():
    # the one coefficient 1.3^1000 / 999! is about 1e-2451; the float recurrence took 3 s on its zeros
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=r"cluster of 1000 rates at 1\.3 "):
        conv_mixture((1.3,) * 1000)
    assert time.perf_counter() - start < 0.5


def test_confluent_mixture_matches_quadrature():
    rates = (1.0, 1.0, 2.0)
    z = np.array([0.3, 0.9, 1.7, 3.2, 5.0])
    ref = sum_pdf_quadrature(rates, z)
    mix = conv_mixture(rates)
    np.testing.assert_allclose(mixture_eval_grid(mix, z), ref, rtol=1e-8)


@settings(deadline=None, max_examples=20)
@given(separated_rate_strategy(min_size=2, max_size=6), st.floats(0.01, 5.0))
def test_conv_pdf_scaling_invariance(rates, c):
    # S(c * rates) has density c^{-1} f(z / c); relative agreement to 1e-12
    rates = tuple(rates)
    scaled = tuple(c * r for r in rates)
    z = 1.0
    a = conv_pdf(rates, z)
    b = conv_pdf(scaled, z / c) / c
    assert b == pytest.approx(a, rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# phase-type route


def test_phase_type_structure():
    # stages 1, 2, 3 in series, then the absorbing state; the last stage's exit rate leads into it
    q = convolution._absorbing_generator(RateVector((1.0, 2.0, 3.0)))
    np.testing.assert_array_equal(np.diag(q), [-1.0, -2.0, -3.0, 0.0])
    np.testing.assert_array_equal(np.diag(q, k=1), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(q.sum(axis=1), [0.0, 0.0, 0.0, 0.0])
    assert np.count_nonzero(q) == 6
    assert not q.flags.writeable
    route, form = sum_route((1.0, 1.0005, 2.0))
    assert route == "phase-type"
    np.testing.assert_array_equal(form, convolution._absorbing_generator(RateVector((1.0, 1.0005, 2.0))))


def _bidiagonal_generator(n: int, g: float) -> tuple[np.ndarray, float, float]:
    rates = tuple((1.0 + g) ** i for i in range(n))
    mean, var = conv_moments(rates)
    return convolution._absorbing_generator(RateVector(rates)), mean, math.sqrt(var)


def _assert_entrywise_close(got: np.ndarray, a: np.ndarray, rel: float) -> None:
    with mpmath.workdps(50):
        ref = mpmath.expm(mpmath.matrix(a.tolist()))
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                if ref[i, j] == 0:
                    assert got[i, j] == 0.0, (i, j)
                else:
                    assert abs((mpmath.mpf(got[i, j]) - ref[i, j]) / ref[i, j]) <= rel, (i, j, got[i, j])


@pytest.mark.parametrize("n", range(2, 13))
def test_metzler_expm_matches_mpmath_entry_by_entry(n):
    # the tiny (0, n-1) entries at 0.01 mean are where a Pade expm loses all digits
    for g in (1e-6, 1e-4, 1e-2, 0.2):
        sub, mean, sd = _bidiagonal_generator(n, g)
        for z in (0.01 * mean, mean, mean + 10.0 * sd):
            _assert_entrywise_close(convolution.expm(sub * z), sub * z, 1e-12)


def test_metzler_expm_matches_mpmath_on_a_dense_matrix():
    rng = np.random.default_rng(3)
    a = rng.uniform(0.0, 1.0, (7, 7))
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -a.sum(axis=1) - rng.uniform(0.0, 1.0, 7))
    for scale in (0.1, 1.0, 10.0):
        _assert_entrywise_close(convolution.expm(a * scale), a * scale, 1e-12)


def _mp_sum_cdf(rates, z) -> float:
    # closed form at 100 digits: the coefficients of N=12, g=1e-4 reach ~1e36
    with mpmath.workdps(100):
        lam = [mpmath.mpf(r) for r in rates]
        total = mpmath.mpf(0)
        for n, ln in enumerate(lam):
            coeff = mpmath.mpf(1)
            for j, lj in enumerate(lam):
                if j != n:
                    coeff *= lj / (lj - ln)
            total += coeff * mpmath.exp(-ln * mpmath.mpf(z))
        return float(1 - total)


PHASE_CHAINS = [tuple((1.0 + g) ** i for i in range(n)) for g in (1e-4, 5e-4) for n in range(3, 13)]


def test_phase_route_quantiles_hold_a_1e12_residual_against_mpmath():
    for rates in PHASE_CHAINS:
        assert sum_route(rates)[0] == "phase-type"
        for p in (1e-3, 0.05, 0.5, 0.95, 1.0 - 1e-4, 1.0 - 1e-6):
            q = conv_quantile(rates, p)
            assert abs(_mp_sum_cdf(rates, q) - p) <= 1e-12, (rates, p, q)


def test_phase_route_quantile_takes_few_matrix_exponentials(monkeypatch):
    # each Newton or bisection step costs one expm, and the bracket top one more only when a
    # step leaves the bracket (measured: mean 3.76, most 4)
    calls = []
    expm = convolution.expm
    monkeypatch.setattr(convolution, "expm", lambda a: calls.append(1) or expm(a))
    counts = []
    for rates in PHASE_CHAINS:
        for k in range(1, 20):
            calls.clear()
            conv_quantile(rates, 0.05 * k)
            counts.append(len(calls))
    assert statistics.mean(counts) <= 4.5
    assert max(counts) <= 6


def test_phase_route_quantile_still_checks_its_residual(monkeypatch):
    # a cdf that jumps by 1e-9 across every level leaves no point within 1e-10
    absorption = convolution._absorption

    def jumping(q, t):
        cdf, pdf = absorption(q, t)
        return cdf + (5e-10 if cdf >= 0.3 else -5e-10), pdf

    monkeypatch.setattr(convolution, "_absorption", jumping)
    with pytest.raises(NumericalError, match="quantile residual"):
        conv_quantile((1.0, 1.0005, 2.0), 0.3)


def _mp_absorption(rates, z) -> tuple[float, float]:
    """(cdf, pdf) of the sum at z by uniformization in mpmath, a sum of non-negative terms.

    With Lambda = max rate, P = I + Q / Lambda is stochastic and
    expm(Q z) = sum_k e^{-Lambda z} (Lambda z)^k / k! P^k; row 0 of P^k is
    carried stage by stage, so nothing cancels and 40 digits hold in both tails.
    """
    with mpmath.workdps(40):
        lam = [mpmath.mpf(r) for r in rates]
        n = len(lam)
        x = max(lam) * mpmath.mpf(z)
        move = [r / max(lam) for r in lam]
        state = [mpmath.mpf(1)] + [mpmath.mpf(0)] * n
        weight = mpmath.exp(-x)
        cdf = pdf = mpmath.mpf(0)
        k = 0
        while True:
            cdf += weight * state[n]
            pdf += weight * state[n - 1]
            # the Poisson weights beyond k sum to at most weight (k+1)/(k+1-x), and every entry is at most 1
            if k > x and min(cdf, pdf) > 0 and weight * (k + 1) / (k + 1 - x) < mpmath.mpf(10) ** -30 * min(cdf, pdf):
                return float(cdf), float(pdf * lam[-1])
            state = [state[0] * (1 - move[0])] + [
                state[j] * (1 - move[j]) + state[j - 1] * move[j - 1] for j in range(1, n)
            ] + [state[n] + state[n - 1] * move[n - 1]]
            k += 1
            weight *= x / k


def _tail_points(rates) -> np.ndarray:
    mean, var = conv_moments(rates)
    sd = math.sqrt(var)
    return np.array([1e-3 * mean, 1e-2 * mean, 0.1 * mean, 0.5 * mean, mean, mean + 5.0 * sd, mean + 20.0 * sd])


def _assert_tail_accuracy(rates, cdf, pdf, z) -> None:
    for c, p, x in zip(cdf, pdf, z):
        ref_cdf, ref_pdf = _mp_absorption(rates, float(x))
        assert abs(c - ref_cdf) <= 1e-10 * ref_cdf, (rates, x, c, ref_cdf)
        assert abs(p - ref_pdf) <= 1e-10 * ref_pdf, (rates, x, p, ref_pdf)


# rates closer than 1e-9 relative: no longer merged into a cluster, so they reach the chain as given
_SUB_NANO_GAP_SETS = [
    (1.0, 1.0 + 1e-12, 2.0),
    (1.0, 1.0 + 3e-10, 1.0 + 6e-10, 0.5),
    (0.3,) * 4 + (0.3 * (1.0 + 1e-13),),
    (2.0, 2.0 * (1.0 + 1e-11), 2.0 * (1.0 - 1e-11), 1.0, 5.0),
    (1.0, 1.0 + 1e-15, 1.0 + 2e-15),
]
_SUB_NANO_GAP_IDS = ["gap1e-12", "gaps3e-10", "gap1e-13", "gaps1e-11", "gaps1e-15"]

# a repeated rate beside other rates: the Erlang-block mixture these used to take was off by
# 5e3 (first set), 9e17 (second), 1.0 (third) and 9e19 (fourth) relative at these points
_CLUSTER_SETS = [
    (0.3,) * 3 + (0.31,) * 2 + (5.0,),
    (1.7,) * 3 + tuple(1.7 * 1.0011**i for i in range(1, 5)),
    (1.7,) * 4 + tuple(1.7 * 1.01**i for i in range(1, 5)),
    (0.5, 0.6, 3.0) * 4,
    (0.2, 0.25) * 4,
    (1.0, 1.0, 4.0),
]
_CLUSTER_IDS = ["0.3x3-0.31x2-5", "1.7x3-g1.1e-3", "1.7x4-g1e-2", "(0.5,0.6,3)x4", "(0.2,0.25)x4", "1-1-4"]


@pytest.mark.parametrize(
    "rates",
    [(1.0, 1.0005, 2.0, 0.7, 0.7007), tuple((1.0 + 1e-4) ** i for i in range(4)), tuple((1.0 + 1e-4) ** i for i in range(8))]
    + _SUB_NANO_GAP_SETS
    + _CLUSTER_SETS,
    ids=["two-pairs", "N4-g1e-4", "N8-g1e-4"] + _SUB_NANO_GAP_IDS + _CLUSTER_IDS,
)
def test_phase_route_holds_both_tails_against_mpmath(rates):
    # the cdf is the absorbing-state entry, not 1 - survival: at 1e-3 mean the
    # latter was off by 3e-3 relative on the first set and by 8e5 on the last
    assert sum_route(rates)[0] == "phase-type"
    z = _tail_points(rates)
    _assert_tail_accuracy(rates, conv_cdf(rates, z), conv_pdf(rates, z), z)
    for p in (1e-3, 0.5, 1.0 - 1e-6):
        assert abs(conv_cdf(rates, conv_quantile(rates, p)) - p) <= 1e-10


@pytest.mark.parametrize(
    "rates",
    [tuple((1.0 + g) ** i for i in range(n)) for n, g in ((6, 1.1e-3), (8, 1e-2), (10, 1e-2), (12, 0.05), (12, 0.2))]
    + _SUB_NANO_GAP_SETS,
    ids=["N6-g1.1e-3", "N8-g1e-2", "N10-g1e-2", "N12-g0.05", "N12-g0.2"] + _SUB_NANO_GAP_IDS,
)
def test_absorbing_chain_holds_both_tails_against_mpmath(rates):
    # the closed-form table families and nearly defective generators, evaluated
    # on their raw rates: no cluster snap is needed for entrywise accuracy
    z = _tail_points(rates)
    cdf, pdf = convolution._absorption(convolution._absorbing_generator(RateVector(rates)), z)
    _assert_tail_accuracy(rates, cdf, pdf, z)


def test_chain_cdf_above_the_median_is_one_minus_the_transient_mass():
    # the absorbing entry read 1 - 5e-10 at z = 1e6 and 0 from z = 1e50, and its worst
    # absolute error on these sets was 4.6e-14 (scalar) and 2.6e-14 (array)
    far = np.array([1e6, 1e50, 1e200])
    for rates in ((1.0, 1.0005, 2.0), (1.0, 1.0005, 2.0, 0.7, 0.7007)):
        assert [conv_cdf(rates, float(z)) for z in far] == [1.0, 1.0, 1.0]
        assert conv_cdf(rates, far).tolist() == [1.0, 1.0, 1.0]
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(3, 9))
        steps = np.cumprod(1.0 + rng.uniform(1e-4, 9e-4, n - 1))
        rates = tuple(float(x) for x in rng.uniform(0.2, 5.0) * np.concatenate(([1.0], steps)))
        assert sum_route(rates)[0] == "phase-type"
        mean, var = conv_moments(rates)
        z = mean + np.arange(16) * math.sqrt(var)
        grid = conv_cdf(rates, z)
        for x, value in zip(z.tolist(), grid.tolist()):
            ref = _mp_absorption(rates, x)[0]
            assert abs(value - ref) <= 5e-15, (rates, x, value, ref)
            assert abs(conv_cdf(rates, x) - ref) <= 5e-15, (rates, x, ref)


@pytest.mark.parametrize("n", range(1, 13))
def test_scalar_absorption_is_the_one_point_array_bit_for_bit(n):
    # a float reads row 0 of one expm; the array walk takes the same expm from state 0
    rng = np.random.default_rng(n)
    rates = tuple(rng.uniform(0.05, 20.0, n))
    q = convolution._absorbing_generator(RateVector(rates))
    for z in (0.0, 1e-6, 0.3, 2.0, 17.0):
        cdf, pdf = convolution._absorption(q, z)
        cdf_array, pdf_array = convolution._absorption(q, np.array([z]))
        assert type(cdf) is type(pdf) is float
        assert (cdf, pdf) == (cdf_array[0], pdf_array[0]), z


def test_phase_pdf_matches_closed_form_distinct():
    for rates in ((1.0, 2.0), (0.4, 1.1, 3.7), (2.0, 9.0, 10.0, 30.0)):
        for z in (0.1, 0.8, 2.0):
            assert conv_pdf_phase_type(rates, z) == pytest.approx(
                conv_pdf(rates, z), rel=1e-10
            )


def test_phase_pdf_repeated_rates_matches_gamma_density():
    # Erlang(8, 2) through the matrix exponential
    rates = (2.0,) * 8
    for z in (1.0, 3.0, 5.0):
        ref = 2.0 * (2.0 * z) ** 7 * math.exp(-2.0 * z) / math.factorial(7)
        assert conv_pdf_phase_type(rates, z) == pytest.approx(ref, rel=1e-12)


def test_phase_pdf_near_degenerate_within_bound():
    # the matrix route runs on raw nearly-defective data; agreement with the
    # repeated-rate limit stays within 1e-8
    val = conv_pdf_phase_type((1.0, 1.0 + 1e-8), 1.0)
    assert val == pytest.approx(E_INV, abs=1e-8)


@pytest.mark.parametrize("n", [2, 5, 12, 20])
def test_phase_curve_repeated_rates_matches_gamma_density(n):
    # the grid pass carries initial . expm(S z) across 4001 points; the
    # non-negative products keep it at the one-expm-per-point accuracy
    rate = 2.0
    z = np.linspace(0.0, (n + 10.0 * math.sqrt(n)) / rate, 4001)
    ref = stats.gamma.pdf(z, n, scale=1.0 / rate)
    got = conv_pdf_phase_type((rate,) * n, z)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref)


def test_phase_curve_is_independent_of_point_order_and_repeats():
    rates = (1.0, 1.0005, 2.0, 0.7, 0.7007)
    assert sum_route(rates)[0] == "phase-type"
    z = np.linspace(0.0, 20.0, 401)
    rng = np.random.default_rng(7)
    idx = rng.permutation(np.concatenate([np.arange(z.size), np.arange(0, z.size, 3)]))
    for fn in (conv_pdf, conv_cdf):
        np.testing.assert_array_equal(fn(rates, z[idx]), fn(rates, z)[idx])


def test_phase_curve_takes_one_expm_per_distinct_gap(monkeypatch):
    calls = []
    expm = convolution.expm
    monkeypatch.setattr(convolution, "expm", lambda a: calls.append(1) or expm(a))
    rates = (1.0, 1.0005, 2.0)
    z = np.linspace(0.0, 30.0, 4001)
    for fn in (conv_pdf, conv_cdf):
        calls.clear()
        fn(rates, z)
        assert len(calls) <= 32
    calls.clear()
    conv_pdf(rates, 1.7)
    assert len(calls) == 1


def test_phase_curve_memory_without_recurring_gaps():
    # random points share no gap, so no step matrix is kept
    rates = tuple((1.0 + 5e-4) ** i for i in range(20))
    z = np.random.default_rng(11).uniform(0.0, 60.0, 4001)
    tracemalloc.start()
    try:
        conv_pdf(rates, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_dispatch_is_continuous_across_the_handoff():
    # for the pair (1, b) the bound 2 max|A_n| eps = 2 b / (b - 1) eps reaches CDF_CLAMP_WINDOW
    # at b - 1 = 4.4e-4; the adjacent doubles on either side take different routes
    eps = math.ulp(1.0)
    b = 1.0 + 2.0 * eps / (CDF_CLAMP_WINDOW - 2.0 * eps)
    near = [b + k * math.ulp(b) for k in range(-16, 17)]  # adjacent doubles around the estimate
    routes = [sum_route((1.0, x))[0] for x in near]
    i = routes.index("closed-form")
    assert i > 0 and set(routes[:i]) == {"phase-type"} and set(routes[i:]) == {"closed-form"}, routes
    below, above = near[i - 1], near[i]
    assert above - 1.0 == pytest.approx(4.44e-4, rel=1e-3)
    z = np.array([1e-3, 0.1, 0.5, 1.0, 2.0, 4.0, 10.0, 40.0])
    for fn in (conv_pdf, conv_cdf):
        assert np.max(np.abs(fn((1.0, below), z) - fn((1.0, above), z))) <= 1e-12
        for x in z.tolist():
            assert abs(fn((1.0, below), x) - fn((1.0, above), x)) <= 1e-12


def test_distinct_rates_take_the_closed_form_exactly_within_its_rounding_bound():
    eps = math.ulp(1.0)
    rng = np.random.default_rng(23)
    sets = [tuple(float(x) for x in np.geomspace(0.1, 10.0, n)) for n in range(2, 30)]
    sets += [tuple((1.0 + g) ** i for i in range(n)) for g in (1e-4, 4e-4, 5e-4, 1e-3, 1e-2, 0.1) for n in (2, 3, 5, 8)]
    sets += [tuple(rng.uniform(0.05, 20.0, int(rng.integers(2, 13))).tolist()) for _ in range(200)]
    routes = set()
    for rates in sets:
        bound = len(rates) * conv_coefficients(rates).condition_estimate * eps
        route, form = sum_route(rates)
        assert route == ("closed-form" if bound <= CDF_CLAMP_WINDOW else "phase-type"), (rates, bound)
        if route == "closed-form":
            assert form == conv_mixture(rates)
            # the mixture's own cdf terms -(c / rate) expm1(-rate z) are each at most |A_n|
            largest = float(np.max(np.abs(form.coefficients / form.rates)))
            assert len(rates) * largest * eps <= CDF_CLAMP_WINDOW * (1.0 + 1e-12)
        routes.add(route)
    assert routes == {"closed-form", "phase-type"}
    # coefficients that are not finite doubles send the sum to the chain
    crowded = tuple(1.0 + i * 1e-14 for i in range(25))
    with pytest.raises(NumericalError, match="not a finite double"):
        conv_coefficients(crowded)
    assert sum_route(crowded)[0] == "phase-type"


NEAR_GAPS = (1e-4, 5e-4, 1.1e-3, 2e-3, 1e-2)  # the near-equal benchmark's gap families


def test_routes_that_moved_with_the_rounding_bound():
    # routed by the smallest relative gap (1e-3), these took the other route
    for g in NEAR_GAPS[2:]:  # N max|A_n| from 1.2e4 (g = 1e-2, N = 3) up
        for n in range(3, 9):
            assert sum_route(tuple((1.0 + g) ** i for i in range(n)))[0] == "phase-type", (g, n)
    for n in (20, 48, 100):  # log-spaced 0.1..10: N max|A_n| = 1.9e4 at N = 20
        assert sum_route(tuple(np.geomspace(0.1, 10.0, n)))[0] == "phase-type", n
    for n in (2, 8, 12, 16):  # log-spaced sums up to N = 16 keep the closed form
        assert sum_route(tuple(np.geomspace(0.1, 10.0, n)))[0] == "closed-form", n
    # a small gap with small A_n: N max|A_n| is 4.0e3 and 6
    assert sum_route((1.0, 1.0005))[0] == "closed-form"
    assert sum_route((10.0, 10.005, 0.01))[0] == "closed-form"
    assert sum_route((1.0, 1.0005, 2.0))[0] == "phase-type"  # 1.2e4


@pytest.mark.parametrize("g", NEAR_GAPS)
def test_near_equal_families_hold_the_reference_without_clamps(g, caplog):
    # g = 1.1e-3, 2e-3 and 1e-2 took the closed form, off by up to 0.15 relative in the
    # pdf and logging clamps beyond the window; every set here now takes the chain
    for n in range(3, 9):
        rates = tuple((1.0 + g) ** i for i in range(n))
        mean = math.fsum(1.0 / r for r in rates)
        z = mean * np.array([0.25, 0.5, 1.0, 2.0, 3.0])
        with caplog.at_level(logging.DEBUG, logger="expstat"):
            pdf, cdf = conv_pdf(rates, z), conv_cdf(rates, z)
            quantiles = {p: conv_quantile(rates, p) for p in (1e-3, 0.05, 0.5, 0.95, 1.0 - 1e-6)}
        assert not caplog.records, [r.getMessage() for r in caplog.records]
        for x, got_cdf, got_pdf in zip(z.tolist(), cdf.tolist(), pdf.tolist()):
            ref_cdf, ref_pdf = _mp_absorption(rates, x)
            assert abs(got_cdf - ref_cdf) <= 1e-10 * ref_cdf, (rates, x)
            assert abs(got_pdf - ref_pdf) <= 1e-10 * ref_pdf, (rates, x)
        for p, q in quantiles.items():
            assert abs(_mp_absorption(rates, q)[0] - p) <= 1e-12, (rates, p, q)


# expm calls per quantile at p = 1e-12, 1e-6, 1 - 1e-6 and 1 - 1e-10 when Newton started at
# the mean, on the chains (1 + g)^i, g = 1e-4 and 5e-4 (the larger gaps took the closed form)
_MEAN_START_TAIL_COUNTS = {3: (26, 15, 19, 28), 4: (28, 16, 19, 28), 5: (29, 17, 19, 28),
                           6: (29, 17, 19, 28), 7: (30, 17, 19, 27), 8: (30, 17, 19, 28)}


def test_tail_quantiles_take_no_more_matrix_exponentials_than_from_the_mean(monkeypatch):
    # measured with the gamma start and Newton on log F: 3-4, 4-5, 5-6 and 6-11
    calls = []
    expm = convolution.expm
    monkeypatch.setattr(convolution, "expm", lambda a: calls.append(1) or expm(a))
    for g in NEAR_GAPS:
        for n, counts in _MEAN_START_TAIL_COUNTS.items():
            rates = tuple((1.0 + g) ** i for i in range(n))
            for p, bound in zip((1e-12, 1e-6, 1.0 - 1e-6, 1.0 - 1e-10), counts):
                calls.clear()
                conv_quantile(rates, p)
                assert len(calls) <= bound, (g, n, p, len(calls))
                assert len(calls) <= (6 if p < 0.5 else 12), (g, n, p, len(calls))


def _mp_gamma_cdf(shape, rate, z) -> float:
    with mpmath.workdps(40):
        return float(mpmath.gammainc(shape, 0, mpmath.mpf(rate) * mpmath.mpf(z), regularized=True))


def _mp_max_cdf(rates, z) -> float:
    with mpmath.workdps(40):
        return float(mpmath.fprod([-mpmath.expm1(-mpmath.mpf(r) * mpmath.mpf(z)) for r in rates]))


PHASE_SET = (1.0, 1.0005, 2.0, 0.7, 0.7007)

# (solver, reference cdf) for every evaluator the one quantile solver serves
QUANTILE_EVALUATORS = {
    "gamma closed form": (lambda p: conv_quantile((2.0, 2.0, 2.0), p), lambda q: _mp_gamma_cdf(3, 2.0, q)),
    "distinct closed form": (
        lambda p: mixture_quantile(conv_mixture((1.0, 2.0, 3.0)), p),
        lambda q: _mp_sum_cdf((1.0, 2.0, 3.0), q),
    ),
    "distinct closed form, N = 5": (
        lambda p: mixture_quantile(conv_mixture((0.3, 0.7, 1.9, 4.4, 8.0)), p),
        lambda q: _mp_sum_cdf((0.3, 0.7, 1.9, 4.4, 8.0), q),
    ),
    "erlang-block mixture": (
        lambda p: mixture_quantile(conv_mixture((1.0, 1.0, 4.0)), p),
        lambda q: _mp_absorption((1.0, 1.0, 4.0), q)[0],
    ),
    "max mixture": (
        lambda p: mixture_quantile(max_mixture((0.3, 1.0, 7.0, 2.0)), p),
        lambda q: _mp_max_cdf((0.3, 1.0, 7.0, 2.0), q),
    ),
    "chain (1, 1, 4)": (lambda p: conv_quantile((1.0, 1.0, 4.0), p), lambda q: _mp_absorption((1.0, 1.0, 4.0), q)[0]),
    "chain, phase set": (lambda p: conv_quantile(PHASE_SET, p), lambda q: _mp_absorption(PHASE_SET, q)[0]),
}


@pytest.mark.parametrize("evaluator", QUANTILE_EVALUATORS)
def test_every_evaluator_round_trips_its_quantiles_against_mpmath(evaluator):
    assert sum_route((2.0, 2.0, 2.0))[0] == sum_route((1.0, 2.0, 3.0))[0] == "closed-form"
    assert sum_route((1.0, 1.0, 4.0))[0] == sum_route(PHASE_SET)[0] == "phase-type"
    solve, reference = QUANTILE_EVALUATORS[evaluator]
    for p in (1e-12, 1e-6, 0.05, 0.5, 0.95, 1.0 - 1e-6, 1.0 - 1e-10):
        q = solve(p)
        assert abs(reference(q) - p) <= 1e-10, (evaluator, p, q)


@pytest.mark.parametrize(
    "mean, var",
    [(-2096.0, 0.0), (0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -1e-3), (math.nan, 1.0), (1.0, math.nan),
     (math.inf, 1.0), (1.0, math.inf)],
)
def test_degenerate_moments_raise_numerical_error_before_any_evaluation(mean, var):
    # the gamma start divides by the variance and takes its square root, so the check comes first
    def never(t):
        raise AssertionError(f"evaluated at {t!r}")

    with pytest.raises(NumericalError, match="give the quantile bracket top"):
        core._newton_quantile(never, 0.5, mean, var)


STIFF = (0.01, 0.01, 100.0)


def test_chain_quantiles_stop_at_the_cdf_noise_floor(monkeypatch):
    # the chain's cdf noise (about 4e-12 at the median of the stiff set, times 1/pdf = 320 in t)
    # exceeds the step tolerance, so Newton used to dither until its bracket closed: 13, 21 and
    # 18 expm calls on the stiff set, 12 on 48 log-spaced rates
    calls = []
    expm = convolution.expm
    monkeypatch.setattr(convolution, "expm", lambda a: calls.append(1) or expm(a))
    log_spaced = tuple(float(x) for x in np.geomspace(0.1, 10.0, 48))
    for rates, levels in ((STIFF, (0.05, 0.5, 0.95)), (log_spaced, (0.5,))):
        assert sum_route(rates)[0] == "phase-type"
        for p in levels:
            calls.clear()
            q = conv_quantile(rates, p)
            assert len(calls) <= 6, (rates, p, len(calls))
            assert abs(_mp_absorption(rates, q)[0] - p) <= 1e-12, (rates, p, q)


def test_closed_form_upper_tail_quantiles_stop_at_the_cdf_quantum(monkeypatch):
    # above the median F rounds to multiples of eps/2 near 1, below the old floor 1e-10 (1 - p),
    # so Newton dithered until its bracket closed: 34 and 22 cdf evaluations on the closed form.
    # The quantiles of this closed-form set now solve on the chain: 7 and 8 expm calls
    rates = (0.3, 0.7, 1.9, 2.5, 6.0)
    assert sum_route(rates)[0] == "closed-form"
    calls = []
    expm = convolution.expm
    monkeypatch.setattr(convolution, "expm", lambda a: calls.append(1) or expm(a))
    for p in (1.0 - 1e-6, 1.0 - 1e-10):
        calls.clear()
        q = conv_quantile(rates, p)
        assert 0 < len(calls) <= 10, (p, len(calls))
        assert abs(_mp_sum_cdf(rates, q) - p) <= 1e-10, (p, q)


# sets whose pdf and cdf take the closed form; routed there too, their quantiles at p = 1e-12 were
# off by 5.2e-4, 1.9e-5 and 2.1e-6 relative
CLOSED_FORM_TAIL_SETS = {
    "log-spaced N = 12": tuple(float(x) for x in np.geomspace(0.1, 10.0, 12)),
    "r8": tuple(float(x) for x in np.geomspace(0.1, 10.0, 8)),
    "five rates": (0.3, 0.7, 1.9, 2.5, 6.0),
}


@pytest.mark.parametrize("name", CLOSED_FORM_TAIL_SETS)
def test_multi_cluster_quantiles_solve_on_the_chain_in_both_tails(name, monkeypatch):
    rates = CLOSED_FORM_TAIL_SETS[name]
    assert sum_route(rates)[0] == "closed-form"
    calls = []
    expm = convolution.expm
    monkeypatch.setattr(convolution, "expm", lambda a: calls.append(1) or expm(a))
    for p in (1e-12, 1e-8, 1.0 - 1e-8):
        calls.clear()
        q = conv_quantile(rates, p)
        assert calls, (name, p)
        assert abs(_mp_absorption(rates, q)[0] - p) <= 1e-12 * p, (name, p, q)


def test_single_cluster_quantiles_keep_their_gamma_term(monkeypatch):
    # one cluster has one exact term, and the chain's cost grows with N
    monkeypatch.setattr(convolution, "expm", lambda a: pytest.fail("the Gamma law took the chain"))
    for rates in ((2.0, 2.0, 2.0), (3.0,) * 100):
        for p in (1e-12, 0.5, 1.0 - 1e-8):
            q = conv_quantile(rates, p)
            assert abs(_mp_gamma_cdf(len(rates), rates[0], q) - p) <= 1e-10, (rates, p, q)


def test_chain_at_160_rates_raises_no_warning_and_keeps_its_mass():
    # from N = 152 the cumulative product behind expm's Taylor coefficients passed 170!, which
    # numpy reported as an overflow in accumulate; past 170! the coefficients are the 0 that 1/k!
    # rounds to.  The mass holds to the 2^s eps (s squarings, 12 to 14 here) that expm documents
    rates = tuple(float(x) for x in np.geomspace(0.1, 10.0, 160))
    mean = conv_moments(rates)[0]
    q = convolution._absorbing_generator(RateVector(rates))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = mean * np.array([0.5, 1.0, 2.0])
        cdf = conv_cdf(rates, z)
        for x, c in zip(z.tolist(), cdf.tolist()):
            row = convolution.expm(q * x)[0]
            absorbed, survival = float(row[-1]), float(row[:-1].sum())
            assert abs(absorbed + survival - 1.0) <= 1e-10, (x, absorbed, survival)
            assert c == pytest.approx(absorbed if survival >= 0.5 else 1.0 - survival, rel=1e-12, abs=1e-300)
    assert 0.0 < cdf[0] < cdf[1] < cdf[2] < 1.0


@pytest.mark.parametrize(
    "rates, route",
    [
        ((0.5, 1.0, 4.0), "closed-form"),
        ((1.0, 1.0, 4.0), "phase-type"),
        ((1.0, 1.0005, 2.0), "phase-type"),
        ((2.0, 2.0, 2.0), "closed-form"),
    ],
)
def test_array_and_scalar_sum_law_agree_on_every_route(rates, route):
    assert sum_route(rates)[0] == route
    z = np.linspace(0.0, 8.0, 41)
    for fn in (conv_pdf, conv_cdf):
        grid = fn(rates, z)
        scalar = np.array([fn(rates, float(x)) for x in z])
        assert grid.shape == z.shape
        np.testing.assert_allclose(grid, scalar, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# cdf, quantile, moments


def test_conv_cdf_frozen_value():
    assert conv_cdf((1.0, 2.0), LN2) == pytest.approx(0.25, rel=1e-13)
    assert conv_cdf((1.0, 2.0), 0.0) == 0.0


def test_conv_cdf_repeated_rates_matches_gamma():
    for z in (0.2, 1.0, 3.0):
        assert conv_cdf((1.0, 1.0, 1.0), z) == pytest.approx(
            float(special.gammainc(3.0, z)), abs=1e-12
        )


def test_conv_cdf_phase_window_agrees_with_erlang_limit():
    # gap below the switch threshold routes through the matrix exponential
    assert conv_cdf((1.0, 1.0 + 1e-6), 1.0) == pytest.approx(
        float(special.gammainc(2.0, 1.0)), abs=1e-6
    )


def test_conv_quantile_roundtrip():
    chain = tuple((1.0 + 5e-4) ** i for i in range(6))
    for rates in ((1.0, 2.0), (0.1, 1.0, 10.0), (1.0, 1.0, 4.0), (1.0, 1.0001, 2.0), chain):
        for p in (0.05, 0.25, 0.5, 0.9, 0.99):
            z = conv_quantile(rates, p)
            assert conv_cdf(rates, z) == pytest.approx(p, abs=1e-9)


def test_conv_quantile_frozen_value():
    assert conv_quantile((1.0, 2.0), 0.25) == pytest.approx(LN2, abs=3e-13)


def test_conv_moments_values():
    mean, var = conv_moments((1.0, 2.0))
    assert mean == pytest.approx(1.5, rel=1e-15)
    assert var == pytest.approx(1.25, rel=1e-15)
    mean1, var1 = conv_moments((4.0,))
    assert mean1 == 0.25
    assert var1 == 0.0625


def test_conv_moments_outside_the_double_range_raise_capacity_error():
    # the sum 1e308 + 1e308 overflows, 1e-200^2 underflows to 0, and 1/1e-160^2 overflows to inf
    for rates in ((1e-308, 1e-308), (1e-200,), (1e-160,), (1.0, 1e-160)):
        with pytest.raises(CapacityError, match="double range"):
            conv_moments(rates)
    # the phase route brackets its quantile from the moments
    assert sum_route((1e-200, 1e-200, 2e-200))[0] == "phase-type"
    with pytest.raises(CapacityError, match="double range"):
        conv_quantile((1e-200, 1e-200, 2e-200), 0.5)
    # a finite result keeps the bits of the formulas
    rates = (1e-150, 3e-150, 7.0)
    assert conv_moments(rates) == (math.fsum(1.0 / r for r in rates), math.fsum(1.0 / (r * r) for r in rates))


@settings(deadline=None, max_examples=25)
@given(separated_rate_strategy(min_size=2, max_size=8))
def test_conv_mixture_normalization(rates):
    mix = conv_mixture(tuple(rates))
    kappa = conv_coefficients(tuple(rates)).condition_estimate
    assert mixture_moment(mix, 0) == pytest.approx(1.0, abs=max(1e-10, 1e-12 * kappa))


def test_conv_mixture_normalization_clustered():
    for rates in ((1.0, 1.0), (2.0, 2.0, 2.0), (1.0, 1.0, 2.0), (0.5, 0.5, 3.0, 3.0, 9.0)):
        assert mixture_moment(conv_mixture(rates), 0) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# characteristic function


def test_char_fn_at_zero_is_one():
    for rates in ((1.0,), (1.0, 2.0), (0.3, 0.9, 2.7)):
        assert char_fn_product(rates, 0.0) == 1.0 + 0.0j


def test_char_fn_product_frozen_value():
    # (1/(1-i)) * (2/(2-i)) = 0.2 + 0.6i
    assert char_fn_product((1.0, 2.0), 1.0) == pytest.approx(0.2 + 0.6j, abs=1e-15)


def test_char_fn_single_modulus_bounded():
    for t in np.linspace(-30.0, 30.0, 61):
        value = char_fn_product((2.0,), float(t))
        assert value == 2.0 / (2.0 - 1j * float(t))
        assert abs(value) <= 1.0 + 1e-15


def test_char_fn_linear_combination_matches_product():
    for rates in random_rate_sets(seed=15, n_sets=20, n_min=2, n_max=8):
        scale = 10.0 * max(rates)
        for t in np.linspace(-scale, scale, 21):
            lhs = char_fn_product(rates, float(t))
            rhs = char_fn_linear_combination(rates, float(t))
            assert abs(lhs - rhs) <= 1e-12


def test_char_fn_linear_combination_rejects_clustered():
    # the one distinct-rate rule, conv_coefficients', with its message
    with pytest.raises(DomainError, match="partial-fraction coefficients need pairwise-distinct rates"):
        char_fn_linear_combination((1.0, 1.0), 1.0)


# ---------------------------------------------------------------------------
# the transform identity at a real Laplace point: t = -i mu gives
# sum_n A_n lambda_n / (lambda_n - mu) = prod_j lambda_j / (lambda_j - mu)


def _identity_residual(rates, mu):
    t = -1j * mu
    return abs(char_fn_linear_combination(rates, t) - char_fn_product(rates, t))


def test_identity_check_two_rates_exact():
    # both sides equal (1/(1-3)) * (2/(2-3)) = 1 at mu = 3
    assert char_fn_product((1.0, 2.0), -3j) == 1.0
    assert _identity_residual((1.0, 2.0), 3.0) <= 1e-12


def test_identity_check_three_rates():
    assert _identity_residual((1.0, 2.0, 3.0), 5.0) <= 1e-10


def test_identity_check_single_rate_trivial():
    assert _identity_residual((2.0,), 3.0) == 0.0


def test_identity_check_rejects_probe_collision():
    # i t at a rate is a pole of its factor; both evaluators refuse it
    for fn in (char_fn_product, char_fn_linear_combination):
        with pytest.raises(DomainError, match="pole"):
            fn((1.0, 2.0), -2j)
        with pytest.raises(DomainError, match="pole"):
            fn((1.0, 2.0), -1j * (2.0 + 1e-12))
        fn((1.0, 2.0), -1j * (2.0 + 1e-8))  # outside the 1e-9 window
        fn((1.0, 2.0), 2.0)  # a real frequency never reaches a pole


def test_identity_check_random_probes():
    for rates in random_rate_sets(seed=16, n_sets=20, n_min=2, n_max=8):
        kappa = conv_coefficients(rates).condition_estimate
        assert _identity_residual(rates, 0.37 * min(rates)) <= 1e-8 * max(kappa, 1.0)


def test_identity_at_half_the_smallest_rate_is_the_real_probe_bit_for_bit():
    # the check suite evaluates t = -0.5j min(rates); CPython divides (r+0j)/(d+0j) exactly as r/d,
    # so both sides carry the bits of the real-arithmetic identity with a zero imaginary part
    for rates in random_rate_sets(seed=17, n_sets=20, n_min=2, n_max=8):
        mu = 0.5 * min(rates)
        coeffs = conv_coefficients(rates)
        left = math.fsum(a * (r / (r - mu)) for a, r in zip(coeffs.coefficients, coeffs.rates))
        right = 1.0
        for r in rates:
            right *= r / (r - mu)
        t = -0.5j * min(rates)
        assert char_fn_linear_combination(rates, t) == complex(left, 0.0)
        assert char_fn_product(rates, t) == complex(right, 0.0)
        assert _identity_residual(rates, mu) == abs(left - right)


# ---------------------------------------------------------------------------
# gamma limit


def test_gamma_limit_error_vanishes_at_zero_split():
    z = np.linspace(0.0, 10.0, 200)
    assert gamma_limit_error(1.0, 0.0, z) == 0.0


def test_gamma_limit_error_decays_quadratically():
    z = np.linspace(0.0, 10.0, 200)
    errs = [gamma_limit_error(1.0, d, z) for d in (1e-1, 1e-2, 1e-3)]
    assert errs[0] / errs[1] == pytest.approx(100.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(100.0, rel=0.2)


def test_gamma_limit_single_point_matches_quadrature():
    # lambda = 1, delta = 0.1 perturbed pair evaluated at z = 1
    rates = (1.1, 0.9)
    mine = conv_pdf(rates, 1.0)
    ref = float(sum_pdf_quadrature(rates, np.array([1.0]))[0])
    assert mine == pytest.approx(ref, abs=1e-9)


# ---------------------------------------------------------------------------
# many well-separated rates: the closed form's cancellation defect.  Rates
# log-spaced over 0.1..10 are far apart at every N, but max |A_n| grows from
# 24 at N=12 to 5e20 at N=100, and the closed form's values carry none of
# their digits in the lower tail.  The chain holds them.

_LOG_SPACED_N = (8, 12, 20, 40, 100)
_MEAN_MULTIPLES = (1e-3, 1e-2, 0.1, 0.5, 1.0, 3.0)


def _log_spaced_reference(n):
    """Rates, points and the (cdf, pdf) arrays of the distinct-rate closed form in 60 + 2N digits.

    The terms reach |A_n| lambda_n ~ 1e21 at N=100, where the cdf at 1e-3 of
    the mean is 4.5e-225; 2N digits cover that cancellation with 60 to spare
    (60 + 4N digits agree to 1.3e-16).
    """
    rates = tuple(float(x) for x in np.geomspace(0.1, 10.0, n))
    points = math.fsum(1.0 / r for r in rates) * np.array(_MEAN_MULTIPLES)
    with mpmath.workdps(60 + 2 * n):
        lam = [mpmath.mpf(r) for r in rates]
        coeffs = [mpmath.fprod(lj / (lj - ln) for j, lj in enumerate(lam) if j != i) for i, ln in enumerate(lam)]
        cdf = [-mpmath.fsum(a * mpmath.expm1(-l * z) for a, l in zip(coeffs, lam)) for z in points.tolist()]
        pdf = [mpmath.fsum(a * l * mpmath.exp(-l * z) for a, l in zip(coeffs, lam)) for z in points.tolist()]
    return rates, points, np.array([float(v) for v in cdf]), np.array([float(v) for v in pdf])


def _worst_relative(got, ref):
    return float(np.max(np.abs(got - ref) / np.abs(ref)))


@pytest.mark.parametrize("n", _LOG_SPACED_N)
def test_chain_holds_many_log_spaced_rates_to_the_reference(n):
    # measured: pdf 5.4e-13 and cdf 4.8e-13 relative point by point, 1.2e-12 pdf on the array path, at N=100
    rates, points, cdf, pdf = _log_spaced_reference(n)
    q = convolution._absorbing_generator(RateVector(rates))
    scalar_cdf, scalar_pdf = np.array([convolution._absorption(q, z) for z in points.tolist()]).T
    array_cdf, array_pdf = convolution._absorption(q, points)
    for got, ref in ((scalar_cdf, cdf), (scalar_pdf, pdf), (array_cdf, cdf), (array_pdf, pdf)):
        assert _worst_relative(got, ref) <= 5e-12


_LOWER_TAIL_LOSS = pytest.mark.xfail(
    raises=AssertionError, strict=True, reason="the closed form, within its rounding bound, loses the lower tail's digits"
)


@pytest.mark.parametrize("n", [pytest.param(n, marks=_LOWER_TAIL_LOSS) if n < 20 else n for n in _LOG_SPACED_N])
def test_routed_sum_holds_many_log_spaced_rates_to_the_reference(n):
    # N max|A_n| is 32 at N=8 and 289 at N=12, so those take the closed form, off by 0.51 / 4.5
    # (pdf / cdf) and 1.0 / 1.0 relative at 1e-3 of the mean; from N=20 on the chain holds them
    rates, points, cdf, pdf = _log_spaced_reference(n)
    assert _worst_relative(conv_pdf(rates, points), pdf) <= 5e-12
    assert _worst_relative(conv_cdf(rates, points), cdf) <= 5e-12


# ---------------------------------------------------------------------------
# the closed-form sum path: the distinct-rate form built in rate order, points checked once


def _shuffled(n, seed):
    rates = np.exp(np.random.default_rng(seed).uniform(math.log(0.1), math.log(10.0), n))
    return tuple(float(r) for r in rates)


_DISTINCT_FORMS = {
    **{f"shuffled N={n}": _shuffled(n, 300 + n) for n in range(1, 13)},
    **{f"log-spaced N={n}": tuple(float(x) for x in np.geomspace(0.1, 10.0, n)) for n in (8, 12)},
    "1e300, 1": (1e300, 1.0),
    "1e-200, 2e-200, 1": (1e-200, 2e-200, 1.0),
    "a zero term, 1e-200, 1e200": (1e-200, 1e200),
}


@pytest.mark.parametrize("name", _DISTINCT_FORMS)
def test_distinct_form_is_the_generic_constructor_fed_unsorted_terms_bit_for_bit(name):
    rates = _DISTINCT_FORMS[name]
    coeffs = conv_coefficients(rates)
    # fastest rate first, so the constructor sorts and merges them
    terms = sorted(((a * r, r, 0) for a, r in zip(coeffs.coefficients, coeffs.rates)), key=lambda t: -t[1])
    generic = SignedExponentialMixture.from_terms(terms, is_density=True)
    mixture = conv_mixture(rates)
    assert mixture == generic
    for field in ("coefficients", "rates", "degrees"):
        got, expected = getattr(mixture, field), getattr(generic, field)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), (name, field)
    route, form = sum_route(rates)
    assert route == "phase-type" or form == mixture


@pytest.mark.parametrize("rates", [(1.0, 1.0, 2.0), (2.0, 2.0, 2.0), (0.5, 0.6, 3.0) * 4, (1.0, 1.0, 2.0, 3.0, 3.0)])
def test_erlang_block_mixtures_keep_their_bits(rates):
    # _confluent_terms lists each cluster's degrees in increasing order, so they pass canonical
    terms = convolution._confluent_terms(RateVector(rates).cluster_rates, RateVector(rates).cluster_sizes)
    mixture = conv_mixture(rates)
    generic = SignedExponentialMixture.from_terms(terms[::-1], is_density=True)
    assert mixture.terms == generic.terms and mixture.coefficients.tobytes() == generic.coefficients.tobytes()
    assert mixture.terms == tuple(terms)


@pytest.mark.parametrize("rates", [(0.3, 0.7, 1.9, 2.5, 6.0), (3.0, 0.2, 1.1), (3.0,), (2.0, 2.0, 2.0)])
def test_sum_curves_have_the_bits_of_the_mixture_kernels(rates):
    route, form = sum_route(rates)
    assert route == "closed-form"
    zz = np.linspace(0.0, 12.0, 4001)
    assert conv_pdf(rates, zz).tobytes() == mixture_eval(form, zz).tobytes()
    assert conv_cdf(rates, zz).tobytes() == mixture_cdf(form, zz).tobytes()
    for z in (0.0, 0.7, 3.0, 1e300):
        for law, kernel in ((conv_pdf, mixture_eval), (conv_cdf, mixture_cdf)):
            got, expected = law(rates, z), kernel(form, z)
            assert type(got) is float and got == expected and math.copysign(1.0, got) == math.copysign(1.0, expected)


_BAD_POINTS = {
    "negative": (-1.0, "points must be finite and non-negative, got -1.0"),
    "nan": (float("nan"), "points must be finite and non-negative, got nan"),
    "inf in a list": ([0.5, float("inf")], "points must be finite and non-negative, got inf"),
    "negative in an array": (np.array([1.0, -2.0]), "points must be finite and non-negative, got -2.0"),
    "nan before a negative": (np.array([np.nan, -2.0]), "points must be finite and non-negative, got nan"),
    "string": ("0.5", "points must be real numbers, got '0.5'"),
    "string list": (["0.5"], "points must be real numbers, got ['0.5']"),
    "complex": (1j, "points must be real numbers, got 1j"),
    "2-d": (np.ones((2, 2)), "points must be a scalar or a 1-d array, got shape (2, 2)"),
    "huge int": (10**400, "points must be finite and non-negative, got an int of 1329 bits"),
}
_BAD_RATES = {
    "negative": ((1.0, -2.0), "rates must be finite and positive, got -2.0"),
    "empty": ((), "rate vector must be non-empty"),
    "string": (("abc",), "rates must be finite and positive, got 'abc'"),
    "none": ((None, 1.0), "rates must be finite and positive, got None"),
    "scalar": (3.0, "rates must be a sequence of numbers, got 3.0"),
}


@pytest.mark.parametrize("name", _BAD_POINTS)
def test_sum_laws_and_grid_kernels_report_a_bad_point_as_before(name):
    z, message = _BAD_POINTS[name]
    calls = [(law, rates) for law in (conv_pdf, conv_cdf) for rates in ((1.0, 2.0, 3.0), (1.0, 1.0, 2.0), (1.0, 1.0005, 2.0))]
    calls += [(law, rates) for law in (conv_pdf, conv_cdf) for rates, _ in _BAD_RATES.values()]  # the point comes first
    calls += [(kernel, conv_mixture((1.0, 2.0))) for kernel in (core.mixture_eval_grid, core.mixture_cdf_grid)]
    for fn, first in calls:
        with pytest.raises(DomainError) as info:
            fn(first, z)
        assert str(info.value) == message, (fn.__name__, first)


@pytest.mark.parametrize("name", _BAD_RATES)
def test_sum_laws_report_bad_rates_as_before(name):
    rates, message = _BAD_RATES[name]
    for law in (conv_pdf, conv_cdf):
        for z in (1.0, np.linspace(0.0, 1.0, 5)):
            with pytest.raises(DomainError) as info:
                law(rates, z)
            assert str(info.value) == message
