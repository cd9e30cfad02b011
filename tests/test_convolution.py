"""Sum-of-exponentials laws: coefficients, densities, transforms, limits."""

import math
import statistics
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from conftest import gamma_limit_error, quantile_grid, random_rate_sets, separated_rate_strategy
from expstat import (
    CapacityError,
    DegenerateRatesError,
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
    conv_pdf_phase_type,
    conv_quantile,
    mixture_cdf,
    mixture_eval,
    mixture_integral,
    partial_fraction_identity_check,
    sum_pdf_quadrature,
    sum_route,
)
from expstat import convolution
from expstat.core import mixture_eval_grid

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
    with pytest.raises(DegenerateRatesError):
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
    assert mixture_integral(mix) == pytest.approx(1.0, abs=1e-14)
    z = np.linspace(0.0, 12.0, 200)
    expected = -2.0 * np.exp(-z) + 2.0 * z * np.exp(-z) + 2.0 * np.exp(-2.0 * z)
    np.testing.assert_allclose(mixture_eval_grid(mix, z), expected, rtol=1e-13, atol=1e-14)


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
    # one expm tests the bracket top, then each Newton or bisection step costs one
    calls = []
    expm = convolution.expm
    monkeypatch.setattr(convolution, "expm", lambda a: calls.append(1) or expm(a))
    counts = []
    for rates in PHASE_CHAINS:
        for k in range(1, 20):
            calls.clear()
            conv_quantile(rates, 0.05 * k)
            counts.append(len(calls))
    assert statistics.mean(counts) <= 8
    assert max(counts) <= 12


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


def test_dispatch_is_continuous_across_switch_threshold():
    # rate pairs whose relative gap straddles 1e-3 by one part in 1e7: the
    # matrix and closed-form routes must hand over without a jump
    g_star = 1e-3 / (1.0 - 1e-3)
    g_lo = g_star * (1.0 - 1e-7)
    g_hi = g_star * (1.0 + 1e-7)
    assert RateVector((1.0, 1.0 + g_lo)).min_cross_cluster_gap < 1e-3
    assert RateVector((1.0, 1.0 + g_hi)).min_cross_cluster_gap >= 1e-3
    for z in (0.5, 1.0, 2.0, 4.0):
        assert abs(conv_pdf((1.0, 1.0 + g_lo), z) - conv_pdf((1.0, 1.0 + g_hi), z)) < 1e-8


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
    assert mixture_integral(mix) == pytest.approx(1.0, abs=max(1e-10, 1e-12 * kappa))


def test_conv_mixture_normalization_clustered():
    for rates in ((1.0, 1.0), (2.0, 2.0, 2.0), (1.0, 1.0, 2.0), (0.5, 0.5, 3.0, 3.0, 9.0)):
        assert mixture_integral(conv_mixture(rates)) == pytest.approx(1.0, abs=1e-10)


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
    with pytest.raises(DegenerateRatesError):
        char_fn_linear_combination((1.0, 1.0), 1.0)


# ---------------------------------------------------------------------------
# partial-fraction identity probe


def test_identity_check_two_rates_exact():
    # both sides equal (1/(1-3)) * (2/(2-3)) = 1 at probe 3
    assert partial_fraction_identity_check((1.0, 2.0), 3.0) <= 1e-12


def test_identity_check_three_rates():
    assert partial_fraction_identity_check((1.0, 2.0, 3.0), 5.0) <= 1e-10


def test_identity_check_single_rate_trivial():
    assert partial_fraction_identity_check((2.0,), 3.0) == 0.0


def test_identity_check_rejects_probe_collision():
    with pytest.raises(DomainError):
        partial_fraction_identity_check((1.0, 2.0), 2.0)
    with pytest.raises(DomainError):
        partial_fraction_identity_check((1.0, 2.0), 2.0 + 1e-12)


def test_identity_check_random_probes():
    for rates in random_rate_sets(seed=16, n_sets=20, n_min=2, n_max=8):
        kappa = conv_coefficients(rates).condition_estimate
        assert partial_fraction_identity_check(rates, 0.37 * min(rates)) <= 1e-8 * max(
            kappa, 1.0
        )


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
