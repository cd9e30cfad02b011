"""Order statistics of independent heterogeneous exponentials."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_rate_sets, separated_rate_strategy
from expstat import (
    CapacityError,
    DomainError,
    OrderStatisticRequest,
    SampleBatch,
    ks_test,
    max2_via_convolution,
    max_cdf,
    max_mixture,
    max_pdf,
    min_cdf,
    min_law,
    mixture_cdf,
    mixture_eval,
    mixture_integral,
    mixture_moment,
    mixture_quantile,
    order_statistic_cdf,
    order_statistic_pdf,
    range2_mixture,
    sample_order,
)
from expstat.montecarlo import make_stream

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# minimum


def test_min_law_pools_rates():
    assert min_law((1.0, 2.0)).rate == 3.0
    assert min_law((4.0,)).rate == 4.0


@settings(deadline=None)
@given(separated_rate_strategy(min_size=1, max_size=8))
def test_min_law_total_property(rates):
    assert min_law(tuple(rates)).rate == pytest.approx(sum(rates), rel=1e-15)


def test_min_cdf_value():
    assert min_cdf((1.0, 2.0), LN2) == pytest.approx(1.0 - 0.125, rel=1e-14)


# ---------------------------------------------------------------------------
# maximum


def test_max_mixture_two_rates_exact_terms():
    mix = max_mixture((1.0, 2.0))
    assert mix.terms == ((1.0, 1.0, 0), (2.0, 2.0, 0), (-3.0, 3.0, 0))


def test_max_mixture_equal_rates_exact_terms():
    mix = max_mixture((1.0, 1.0))
    assert mix.terms == ((2.0, 1.0, 0), (-2.0, 2.0, 0))


def test_max_mixture_vanishes_at_origin():
    for rates in random_rate_sets(seed=21, n_sets=10, n_min=2, n_max=8):
        assert abs(mixture_eval(max_mixture(rates), 0.0)) <= 1e-10


def test_max_cdf_frozen_value():
    # (1 - e^{-z})(1 - e^{-2z}) at z = ln 2 is (1/2)(3/4)
    assert max_cdf((1.0, 2.0), LN2) == pytest.approx(0.375, rel=1e-14)
    assert max_cdf((1.0, 2.0), 0.0) == 0.0


@pytest.mark.parametrize("n", range(1, 21))
def test_max_cdf_is_the_row_product_bit_for_bit(n):
    # the reference: np.prod over the (points, N) matrix of factors
    rng = np.random.default_rng(100 + n)
    lam = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=n))
    mean = float(np.sum(1.0 / lam))
    # the scalar path at z = 0, 1e-300, the lower tail, the body and the upper tail
    points = np.array([0.0, 1e-300, 1e-12 * mean, 0.7, mean, 60.0 * mean, 1e4 * mean])
    for z in (points, rng.uniform(0.0, 10.0, 4001), rng.uniform(0.0, 10.0, 100_000)):
        expected = np.prod(-np.expm1(-lam[None, :] * z[:, None]), axis=1)
        assert max_cdf(lam, z).tobytes() == expected.tobytes()
    for z, expected in zip(points.tolist(), max_cdf(lam, points).tolist()):
        for point in (z, np.float64(z)):
            got = max_cdf(lam, point)
            assert type(got) is float
            assert got == expected, (lam, z)


def test_max_cdf_single_rate_is_exponential():
    assert max_cdf((2.0,), 0.7) == pytest.approx(-math.expm1(-1.4), rel=1e-15)


def test_max_mixture_cdf_matches_product_form():
    rng = np.random.default_rng(23)
    for n in (2, 3, 5, 8, 12):
        rates = tuple(np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=n)))
        mix = max_mixture(rates)
        hi = mixture_quantile(mix, 0.999)
        for z in np.linspace(hi / 50.0, hi, 50):
            assert abs(mixture_cdf(mix, float(z)) - max_cdf(rates, float(z))) <= 1e-9


def test_max_mixture_normalization_up_to_twelve():
    rng = np.random.default_rng(24)
    for n in (2, 5, 9, 12):
        rates = tuple(np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=n)))
        assert mixture_integral(max_mixture(rates)) == pytest.approx(1.0, abs=1e-10)


def test_max_pdf_matches_cdf_derivative():
    rates = (0.5, 1.5, 4.0)
    h = 1e-5
    for z in (0.3, 1.0, 2.5):
        fd = (max_cdf(rates, z + h) - max_cdf(rates, z - h)) / (2.0 * h)
        assert max_pdf(rates, z) == pytest.approx(fd, abs=1e-6)


def test_max_pdf_is_zero_at_origin():
    for rates in ((1.0, 2.0), (0.5, 1.5, 4.0), tuple(float(k) for k in range(1, 13))):
        assert max_pdf(rates, 0.0) == 0.0
        assert max_pdf(rates, np.array([0.0, 1.0]))[0] == 0.0
    assert max_pdf((2.5,), 0.0) == 2.5


def test_max_pdf_matches_compensated_inclusion_exclusion():
    rng = np.random.default_rng(25)
    for n in range(1, 9):
        rates = tuple(float(x) for x in np.exp(rng.uniform(np.log(0.1), np.log(10.0), n)))
        mix = max_mixture(rates)
        z = np.linspace(0.0, mixture_quantile(mix, 0.999), 60)
        exact = np.array([mixture_eval(mix, float(x)) for x in z])
        peak = float(np.max(exact))
        assert np.max(np.abs(max_pdf(rates, z) - exact)) <= 1e-12 * peak
        assert abs(max_pdf(rates, float(z[7])) - exact[7]) <= 1e-12 * peak


def test_max_pdf_beyond_the_subset_limit():
    # 30 rates: the inclusion-exclusion mixture would need 2^30 - 1 terms
    rates = tuple(0.1 * 1.2**k for k in range(30))
    z = np.linspace(0.0, 200.0, 2001)
    pdf = max_pdf(rates, z)
    assert np.all(np.isfinite(pdf)) and np.all(pdf >= 0.0)
    assert np.trapezoid(pdf, z) == pytest.approx(max_cdf(rates, 200.0), abs=1e-4)
    h = 1e-5
    for x in (5.0, 20.0, 60.0):
        fd = (max_cdf(rates, x + h) - max_cdf(rates, x - h)) / (2.0 * h)
        assert max_pdf(rates, x) == pytest.approx(fd, rel=1e-6)


def test_max_capacity_limit():
    # about 100 bytes per subset term at peak: 99 MiB at 20 rates, 3.3 GB at 25
    for n in (21, 26):
        with pytest.raises(CapacityError):
            max_mixture(tuple(float(k) for k in range(1, n + 1)))


# ---------------------------------------------------------------------------
# two-variable range and the convolution identity


def test_range2_equal_rates_is_exponential():
    mix = range2_mixture(1.0, 1.0)
    assert mix.terms == ((1.0, 1.0, 0),)


def test_range2_frozen_values():
    # (2/3) e^{-z} + (1/3) * 2 e^{-2z}
    mix = range2_mixture(1.0, 2.0)
    assert mix.terms == ((2.0 / 3.0, 1.0, 0), (2.0 / 3.0, 2.0, 0))
    assert mixture_eval(mix, 0.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert mixture_moment(mix, 1) == pytest.approx(5.0 / 6.0, rel=1e-14)
    assert mixture_integral(mix) == pytest.approx(1.0, abs=1e-15)


def test_range2_monte_carlo_cross_check():
    rng = np.random.default_rng(25)
    n = 200_000
    x1 = rng.exponential(1.0, size=n)
    x2 = rng.exponential(0.5, size=n)  # rate 2
    observed = np.abs(x1 - x2)
    mix = range2_mixture(1.0, 2.0)
    batch = SampleBatch(observed, seed=25, stream_id=0, count=n)
    report = ks_test(batch, lambda z: mixture_cdf(mix, float(z)))
    assert report.passed


def test_max2_via_convolution_matches_direct_terms():
    direct = max_mixture((1.0, 2.0))
    routed = max2_via_convolution(1.0, 2.0)
    assert [(t.rate, t.degree) for t in routed.terms] == [
        (t.rate, t.degree) for t in direct.terms
    ]
    for a, b in zip(routed.terms, direct.terms):
        assert abs(a.coefficient - b.coefficient) <= 1e-12


def test_max2_via_convolution_equal_rates():
    routed = max2_via_convolution(1.0, 1.0)
    assert routed.terms == ((2.0, 1.0, 0), (-2.0, 2.0, 0))


@settings(deadline=None, max_examples=40)
@given(
    st.floats(0.05, 50.0),
    st.floats(0.05, 50.0),
)
def test_max2_routes_agree_termwise(r1, r2):
    direct = max_mixture((r1, r2))
    routed = max2_via_convolution(r1, r2)
    assert routed.coefficients.shape == direct.coefficients.shape
    scale = float(np.max(np.abs(direct.coefficients)))
    np.testing.assert_allclose(routed.coefficients, direct.coefficients, atol=1e-12 * scale)
    np.testing.assert_array_equal(routed.rates, direct.rates)


def test_max2_integrates_to_one():
    assert mixture_integral(max2_via_convolution(0.3, 7.0)) == pytest.approx(1.0, abs=1e-12)


def test_min_plus_range_decomposes_the_maximum():
    # sample M = min + independent range draw; its law must match max_cdf
    rates = (1.0, 2.0)
    n = 100_000
    rng = make_stream(26, 0)
    m = -np.log1p(-rng.random(n)) / 3.0
    mix = range2_mixture(*rates)
    weights = np.array([t.coefficient / t.rate for t in mix.terms])
    comp_rates = np.array([t.rate for t in mix.terms])
    pick = rng.random(n) < weights[0]
    r = -np.log1p(-rng.random(n)) / np.where(pick, comp_rates[0], comp_rates[1])
    batch = SampleBatch(m + r, seed=26, stream_id=0, count=n)
    report = ks_test(batch, lambda z: max_cdf(rates, float(z)))
    assert report.passed


# ---------------------------------------------------------------------------
# general order statistics


def test_request_validates_order():
    with pytest.raises(DomainError):
        OrderStatisticRequest((1.0, 2.0), 0)
    with pytest.raises(DomainError):
        OrderStatisticRequest((1.0, 2.0), 3)
    req = OrderStatisticRequest((1.0, 2.0), 2)
    assert req.r == 2


def test_order_cdf_reduces_to_min_and_max():
    rates = (0.4, 1.3, 2.2, 5.0)
    for z in (0.1, 0.6, 1.5, 4.0):
        low = order_statistic_cdf(OrderStatisticRequest(rates, 1), z)
        assert abs(low - min_cdf(rates, z)) <= 1e-12
        high = order_statistic_cdf(OrderStatisticRequest(rates, len(rates)), z)
        assert abs(high - max_cdf(rates, z)) <= 1e-12


def test_order_cdf_monotone_in_z():
    req = OrderStatisticRequest((1.0, 2.0, 3.0), 2)
    z = np.linspace(0.0, 8.0, 200)
    vals = np.array([order_statistic_cdf(req, float(x)) for x in z])
    assert np.all(np.diff(vals) >= -1e-14)
    assert vals[0] == 0.0
    assert vals[-1] == pytest.approx(1.0, abs=1e-9)


def test_order_cdf_decreasing_in_order():
    rates = (0.7, 1.9, 3.1, 4.3)
    z = 1.0
    vals = [
        order_statistic_cdf(OrderStatisticRequest(rates, r), z)
        for r in range(1, len(rates) + 1)
    ]
    assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))


def test_order_cdf_reduces_to_min_and_max_at_30_rates():
    # the dynamic program enumerates no subsets, so it has no subset limit
    rates = tuple(0.1 * 1.2**k for k in range(30))
    for z in (0.01, 0.5, 3.0, 20.0, 80.0):
        low = order_statistic_cdf(OrderStatisticRequest(rates, 1), z)
        assert abs(low - min_cdf(rates, z)) <= 1e-14
        high = order_statistic_cdf(OrderStatisticRequest(rates, 30), z)
        assert abs(high - max_cdf(rates, z)) <= 1e-14


def _order_cdf_numpy_reference(rates, r, z):
    """The array-slice Poisson-binomial DP that order_statistic_cdf replaced."""
    p = -np.expm1(-np.asarray(rates) * z)
    dp = np.zeros(len(rates) + 1)
    dp[0] = 1.0
    for pn in p:
        dp[1:] = dp[1:] * (1.0 - pn) + dp[:-1] * pn
        dp[0] *= 1.0 - pn
    return float(min(1.0, math.fsum(dp[r:])))


def test_order_cdf_float_dp_is_bit_identical_to_array_dp():
    rng = np.random.default_rng(20261018)
    for n in range(1, 21):
        for _ in range(3):
            rates = tuple(float(x) for x in np.exp(rng.uniform(math.log(0.01), math.log(100.0), n)))
            mean = math.fsum(1.0 / x for x in rates)
            # z=0, the deep lower tail, the body, and the deep upper tail
            points = [0.0, 1e-300, 1e-12 * mean, *rng.exponential(mean, 4).tolist(), 60.0 * mean, 1e4 * mean]
            max_row = max_cdf(rates, np.array(points)).tolist()
            for r in range(1, n + 1):
                req = OrderStatisticRequest(rates, r)
                for z, max_z in zip(points, max_row):
                    expected = _order_cdf_numpy_reference(rates, r, z)
                    if r == n:  # max_cdf's product, so its array path is the DP too
                        assert max_z == expected, (rates, z)
                    for point in (float(z), np.float64(z)):
                        got = order_statistic_cdf(req, point)
                        assert type(got) is float
                        if r == 1 < n:
                            # the minimum's closed form, a few ulp from the DP
                            assert got == min_cdf(rates, float(z)), (rates, z)
                            assert abs(got - expected) <= 4 * math.ulp(expected), (rates, z)
                        else:
                            assert got == expected, (rates, r, z)


@pytest.mark.parametrize("rates", [(0.5, 1.5, 4.0), (0.2, 0.3, 1.1, 2.0, 7.5, 9.0)])
def test_ks_with_scalar_extreme_order_cdf_matches_array_min_and_max(rates):
    # ks_test falls back to one call per draw for the scalar order cdf
    n = len(rates)
    for r, array_cdf in ((1, lambda x: min_cdf(rates, x)), (n, lambda x: max_cdf(rates, x))):
        batch = sample_order(rates, r, 10_000, seed=71, stream_id=r)
        req = OrderStatisticRequest(rates, r)
        scalar = ks_test(batch, lambda x: order_statistic_cdf(req, float(x)))
        vectorized = ks_test(batch, array_cdf)
        assert abs(scalar.ks_statistic - vectorized.ks_statistic) <= 1e-15, r
        assert scalar.passed == vectorized.passed


def test_rate_sums_outside_the_double_range_raise_capacity_error():
    rates = (1e308, 1e308)
    calls = {
        "min_law": lambda: min_law(rates),
        "min_cdf": lambda: min_cdf(rates, 1.0),
        "min_cdf array": lambda: min_cdf(rates, np.array([0.0, 1.0])),
        "order pdf r=1": lambda: order_statistic_pdf(OrderStatisticRequest(rates, 1), 1.0),
        "order cdf r=1": lambda: order_statistic_cdf(OrderStatisticRequest(rates, 1), 1.0),
    }
    for call in calls.values():
        with pytest.raises(CapacityError, match="double range"):
            call()
    # the maximum needs no sum of rates
    assert max_cdf(rates, 1.0) == 1.0
    assert max_cdf(rates, np.array([0.0, 1.0])).tolist() == [0.0, 1.0]
    assert order_statistic_cdf(OrderStatisticRequest(rates, 2), 1.0) == 1.0


def test_order_pdf_reduces_to_exact_forms():
    rates = (1.0, 2.0, 3.0)
    for z in (0.2, 0.9, 2.0):
        pdf_min = order_statistic_pdf(OrderStatisticRequest(rates, 1), z)
        assert pdf_min == pytest.approx(6.0 * math.exp(-6.0 * z), rel=1e-12)
        pdf_max = order_statistic_pdf(OrderStatisticRequest(rates, 3), z)
        assert pdf_max == pytest.approx(max_pdf(rates, z), rel=1e-12)


def test_order_pdf_central_matches_cdf_derivative():
    req = OrderStatisticRequest((1.0, 2.0, 3.0), 2)
    h = 1e-5
    for z in (0.3, 1.0, 2.0):
        fd = (order_statistic_cdf(req, z + h) - order_statistic_cdf(req, z - h)) / (2 * h)
        assert order_statistic_pdf(req, z) == pytest.approx(fd, abs=1e-8)


def _mp_order_pdf(rates, r, z):
    """sum_n lambda_n e^{-lambda_n z} P(exactly r-1 of the others <= z), the leave-one-out Poisson binomial, at 50 digits."""
    with mpmath.workdps(50):
        z = mpmath.mpf(z)
        total = mpmath.mpf(0)
        for n, rate in enumerate(rates):
            dp = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (len(rates) - 1)
            for m, other in enumerate(x for i, x in enumerate(rates) if i != n):
                p = -mpmath.expm1(-mpmath.mpf(other) * z)
                for k in range(m + 1, 0, -1):
                    dp[k] = dp[k] * (1 - p) + dp[k - 1] * p
                dp[0] *= 1 - p
            total += rate * mpmath.exp(-rate * z) * dp[r - 1]
        return total


@pytest.mark.parametrize(
    "rates, r",
    [((1.0, 2.0, 3.0), 2), ((0.5, 1.0, 2.0, 3.0, 5.0, 8.0), 3), ((0.3, 1.0, 2.5, 4.0, 7.0), 4)],
)
def test_intermediate_order_pdf_is_zero_at_origin_and_exact_near_it(rates, r):
    req = OrderStatisticRequest(rates, r)
    assert order_statistic_pdf(req, 0.0) == 0.0
    for z in (1e-9, 1e-7, 5e-6):
        ref = _mp_order_pdf(rates, r, z)
        assert float(abs(order_statistic_pdf(req, z) / ref - 1)) <= 1e-8, z


def test_order_sample_distribution_matches_dp_cdf():
    req = OrderStatisticRequest((1.0, 2.0, 3.0), 2)
    batch = sample_order(req.rates, req.r, 100_000, seed=32, stream_id=0)
    report = ks_test(batch, lambda z: order_statistic_cdf(req, float(z)))
    assert report.passed


def test_order_sample_is_deterministic_per_seed():
    rates = (0.5, 1.5, 2.5, 3.5)
    a = sample_order(rates, 3, 1, seed=33, stream_id=5).values
    xs = sample_order(rates, 3, 50, seed=33, stream_id=5).values
    ys = sample_order(rates, 3, 50, seed=33, stream_id=5).values
    assert xs.tobytes() == ys.tobytes()
    assert a[0] == xs[0]
