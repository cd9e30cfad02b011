"""Order statistics of independent heterogeneous exponentials."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import merge_residual_ratio, random_rate_sets, separated_rate_strategy
from expstat import (
    CapacityError,
    DomainError,
    OrderStatisticRequest,
    SignedExponentialMixture,
    conv_mixture,
    ks_test,
    max_cdf,
    max_pdf,
    min_cdf,
    mixture_cdf,
    mixture_eval,
    mixture_moment,
    mixture_quantile,
    order_statistic_cdf,
    order_statistic_pdf,
    range_cdf,
    range_pdf,
    sample_order,
)
from expstat import core
from expstat.convolution import expm
from expstat.montecarlo import SampleBatch, make_stream
from expstat.orderstats import max_mixture, min_law

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
    # each subset contributes sign * (its sum) / (its sum) = +-1 exactly, so the integral is 1.0 to
    # the bit, also where integer rates give equal subset sums that merge into one term
    rng = np.random.default_rng(24)
    for n in range(1, 13):
        for _ in range(5):
            rates = tuple(np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=n)))
            assert mixture_moment(max_mixture(rates), 0) == 1.0, rates
            integers = tuple(float(x) for x in rng.integers(1, 5, size=n))
            assert mixture_moment(max_mixture(integers), 0) == 1.0, integers


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


@pytest.mark.parametrize("law, outputs", [(max_pdf, 1), (range_pdf, 3)])
def test_max_and_range_pdf_hold_blocks_of_points_not_the_whole_grid(law, outputs):
    # unblocked, max_pdf held two (N, points) arrays: 43 MB traced here, 27 times its output
    rates = tuple(float(x) for x in np.geomspace(0.1, 10.0, 12))
    z = np.linspace(0.0, 40.0, 200_000)
    law(rates, z[:10])
    tracemalloc.start()
    try:
        law(rates, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # range_pdf also holds its sum and the weighted leave-one-out term; a block has up to
    # 2 GRID_BLOCK points, and the next block's two arrays are formed before the last ones go
    assert peak < outputs * z.nbytes + 8 * len(rates) * core.GRID_BLOCK * 8


@pytest.mark.parametrize("law", [max_pdf, range_pdf])
def test_max_and_range_pdf_blocks_keep_the_bits_of_one_block(law, monkeypatch):
    rates = (0.3, 0.7, 1.0, 1.9, 2.5, 4.4, 8.0, 9.5, 11.0, 12.5, 15.0, 20.0)
    z = np.random.default_rng(41).uniform(0.0, 12.0, 5000)
    for size in (64, 999, 2500):
        monkeypatch.setattr(core, "GRID_BLOCK", 10**6)
        whole = law(rates, z)
        monkeypatch.setattr(core, "GRID_BLOCK", size)
        assert law(rates, z).tobytes() == whole.tobytes(), size


def test_max_capacity_limit():
    # about 100 bytes per subset term at peak: 99 MiB at 20 rates, 3.3 GB at 25
    for n in (21, 26):
        with pytest.raises(CapacityError):
            max_mixture(tuple(float(k) for k in range(1, n + 1)))


# ---------------------------------------------------------------------------
# the range and the merge identity max = min + independent range


def _leave_one_out(rates):
    """(weight lambda_n / Lambda, the rates without n) for each n."""
    total = math.fsum(rates)
    return [(rate / total, rates[:n] + rates[n + 1 :]) for n, rate in enumerate(rates)]


def test_range2_equal_rates_is_exponential():
    z = np.linspace(0.0, 8.0, 33)
    assert range_pdf((1.0, 1.0), z).tobytes() == np.exp(-z).tobytes()
    assert range_cdf((1.0, 1.0), z).tobytes() == (-np.expm1(-z)).tobytes()


def test_range2_frozen_values():
    # (2/3) e^{-z} + (1/3) * 2 e^{-2z}, with mean (2/3) 1/2 + (1/3) 1 = 5/6 from the leave-one-out maxima
    assert range_pdf((1.0, 2.0), 0.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
    z = np.array([0.0, 0.5, 1.0, 3.0])
    np.testing.assert_allclose(range_pdf((1.0, 2.0), z), 2.0 / 3.0 * (np.exp(-z) + np.exp(-2.0 * z)), rtol=4.5e-16)
    parts = _leave_one_out((1.0, 2.0))
    assert math.fsum(w * mixture_moment(max_mixture(rest), 1) for w, rest in parts) == pytest.approx(5.0 / 6.0, rel=1e-15)
    assert math.fsum(w * mixture_moment(max_mixture(rest), 0) for w, rest in parts) == pytest.approx(1.0, abs=1e-15)


def test_range_of_two_rates_is_the_two_term_mixture():
    # (rate_1 / total) f_2 + (rate_2 / total) f_1: the slower variable is the likelier survivor
    rng = np.random.default_rng(27)
    for _ in range(200):
        a, b = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 2))
        z = np.linspace(0.0, 10.0 / min(a, b), 50)
        pdf = a / (a + b) * b * np.exp(-b * z) + b / (a + b) * a * np.exp(-a * z)
        cdf = a / (a + b) * -np.expm1(-b * z) + b / (a + b) * -np.expm1(-a * z)
        np.testing.assert_allclose(range_pdf((a, b), z), pdf, rtol=4.5e-16, atol=0.0)
        np.testing.assert_allclose(range_cdf((a, b), z), cdf, rtol=4.5e-16, atol=0.0)


def test_range_integrals_come_from_the_leave_one_out_max_mixtures():
    rates = (0.3, 1.1, 2.0, 4.5)
    parts = _leave_one_out(rates)
    assert math.fsum(w * mixture_moment(max_mixture(rest), 0) for w, rest in parts) == pytest.approx(1.0, abs=1e-14)
    mean = math.fsum(w * mixture_moment(max_mixture(rest), 1) for w, rest in parts)
    # E[max] - E[min] by the merge identity
    expected = mixture_moment(max_mixture(rates), 1) - 1.0 / math.fsum(rates)
    assert mean == pytest.approx(expected, rel=1e-13)
    assert range_cdf(rates, 200.0) == pytest.approx(1.0, abs=4.5e-16)  # the weights sum to 1 within rounding


def test_range_scalar_and_array_paths_agree_and_one_rate_raises():
    rates = (0.4, 1.3, 2.2, 5.0)
    z = np.array([0.0, 0.05, 0.7, 3.0])
    for law in (range_pdf, range_cdf):
        values = law(rates, z)
        for point, value in zip(z.tolist(), values.tolist()):
            got = law(rates, point)
            assert type(got) is float
            assert got == pytest.approx(value, rel=1e-15, abs=0.0)
        with pytest.raises(DomainError):
            law((2.0,), 1.0)
        with pytest.raises(DomainError):
            law(rates, -1.0)
    assert range_cdf(rates, 0.0) == 0.0
    assert range_pdf(rates, 0.0) == 0.0  # N - 1 >= 2 survivors: the range starts flat


def test_range2_monte_carlo_cross_check():
    rng = np.random.default_rng(25)
    n = 200_000
    x1 = rng.exponential(1.0, size=n)
    x2 = rng.exponential(0.5, size=n)  # rate 2
    batch = SampleBatch(np.abs(x1 - x2), seed=25, stream_id=0, count=n)
    assert ks_test(batch, lambda z: range_cdf((1.0, 2.0), z)).passed


def _mp_range(rates, z):
    """(pdf, cdf) of the range at 50 digits: the leave-one-out maxima, each by the product rule."""
    with mpmath.workdps(50):
        lam = [mpmath.mpf(x) for x in rates]
        total = mpmath.fsum(lam)
        z = mpmath.mpf(z)
        p = [-mpmath.expm1(-x * z) for x in lam]
        pdf = cdf = mpmath.mpf(0)
        for n, rate in enumerate(lam):
            rest = [i for i in range(len(lam)) if i != n]
            cdf += rate / total * mpmath.fprod(p[i] for i in rest)
            for k in rest:
                density = lam[k] * mpmath.exp(-lam[k] * z) * mpmath.fprod(p[i] for i in rest if i != k)
                pdf += rate / total * density
        return pdf, cdf


def _mp_range_mean(rates):
    """E[max] - E[min] at 50 digits, E[max] by inclusion-exclusion over subsets."""
    with mpmath.workdps(50):
        lam = [mpmath.mpf(x) for x in rates]
        e_max = mpmath.mpf(0)
        for mask in range(1, 2 ** len(lam)):
            subset = [x for i, x in enumerate(lam) if mask >> i & 1]
            e_max += (-1) ** (len(subset) + 1) / mpmath.fsum(subset)
        return e_max - 1 / mpmath.fsum(lam)


def test_range_matches_a_50_digit_reference():
    rng = np.random.default_rng(28)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        rates = tuple(float(x) for x in np.exp(rng.uniform(math.log(0.1), math.log(10.0), n)))
        z = np.array([1e-3, 0.1, 1.0, 5.0, 30.0]) * float(_mp_range_mean(rates))
        for point, pdf, cdf in zip(z, range_pdf(rates, z), range_cdf(rates, z)):
            ref_pdf, ref_cdf = _mp_range(rates, point)
            assert float(abs(pdf / ref_pdf - 1)) <= 1e-13, (rates, point)
            assert float(abs(cdf / ref_cdf - 1)) <= 1e-13, (rates, point)


def test_merge_identity_max_is_min_plus_range_for_two_to_seven_rates():
    # the maximum's transform is the minimum's Lambda/(Lambda + s) times the range's
    rng = np.random.default_rng(29)
    sets = [(1.0, 1.0), (1.0, 2.0), (1.0, 1.0, 1.0, 3.0)]
    for n in range(2, 8):
        for _ in range(8):
            sets.append(tuple(float(x) for x in np.exp(rng.uniform(math.log(0.05), math.log(20.0), n))))
    for rates in sets:
        total = math.fsum(rates)
        for s in (0.0, 0.1 * total, total, 10.0 * total):
            assert merge_residual_ratio(rates, s) <= 1.0, (rates, s)


def _max2_via_convolution(r1, r2):
    """Exp(Lambda) convolved with the two-rate range law, whose leave-one-out maxima are Exp(other rate)."""
    total = r1 + r2
    terms = []
    for weight, other in ((r1 / total, r2), (r2 / total, r1)):
        terms += [(weight * c, rate, k) for c, rate, k in conv_mixture((total, other)).terms]
    return SignedExponentialMixture.from_terms(terms, is_density=True)


def test_max2_via_convolution_matches_direct_terms():
    direct = max_mixture((1.0, 2.0))
    routed = _max2_via_convolution(1.0, 2.0)
    assert [(t.rate, t.degree) for t in routed.terms] == [
        (t.rate, t.degree) for t in direct.terms
    ]
    for a, b in zip(routed.terms, direct.terms):
        assert abs(a.coefficient - b.coefficient) <= 1e-12
    z = np.linspace(0.0, 10.0, 41)
    np.testing.assert_allclose(
        range_pdf((1.0, 2.0), z),
        (1.0 / 3.0) * 2.0 * np.exp(-2.0 * z) + (2.0 / 3.0) * np.exp(-z),
        rtol=1e-15,
    )


def test_max2_via_convolution_equal_rates():
    routed = _max2_via_convolution(1.0, 1.0)
    assert routed.terms == ((2.0, 1.0, 0), (-2.0, 2.0, 0))


@settings(deadline=None, max_examples=40)
@given(st.floats(0.05, 50.0), st.floats(0.05, 50.0), st.floats(0.0, 10.0))
def test_merge_identity_holds_for_any_two_rates(r1, r2, s):
    assert merge_residual_ratio((r1, r2), s * (r1 + r2)) <= 1.0


def test_max2_integrates_to_one():
    rates = (0.3, 7.0)
    assert mixture_moment(max_mixture(rates), 0) == pytest.approx(1.0, abs=1e-12)
    # at s = 0 the merge identity compares the integrals of max and of min + range
    assert merge_residual_ratio(rates, 0.0) <= 1.0
    assert range_cdf(rates, 200.0) == pytest.approx(1.0, abs=2.3e-16)


def test_min_plus_range_decomposes_the_maximum():
    # draw M = Exp(Lambda) + R, with R the maximum of the rates without n, n picked with
    # probability lambda_n / Lambda; its law must be max_cdf
    n = 100_000
    for rates in ((1.0, 2.0), (0.5, 1.0, 2.0, 3.0)):
        lam = np.asarray(rates)
        rng = make_stream(26, len(rates))
        m = -np.log1p(-rng.random(n)) / lam.sum()
        first = np.searchsorted(np.cumsum(lam / lam.sum()), rng.random(n), side="right")
        x = -np.log1p(-rng.random((n, lam.size))) / lam
        x[np.arange(n), np.minimum(first, lam.size - 1)] = 0.0
        batch = SampleBatch(m + x.max(axis=1), seed=26, stream_id=len(rates), count=n)
        assert ks_test(batch, lambda z: max_cdf(rates, z)).passed, rates


def _first_death_chain(rates):
    """Generator of the alive set: state S (a bit mask) moves to S without n at rate lambda_n."""
    q = np.zeros((2 ** len(rates), 2 ** len(rates)))
    for alive in range(1, 2 ** len(rates)):
        for n, rate in enumerate(rates):
            if alive >> n & 1:
                q[alive, alive & ~(1 << n)] += rate
                q[alive, alive] -= rate
    return q


def _mass_below(state, keep):
    """state[keep].sum(), or 1 minus the other mass above 1/2, where the squarings cost it accuracy."""
    inside = state[keep].sum()
    return inside if inside < 0.5 else 1.0 - state[~keep].sum()


def test_order_max_and_range_laws_match_the_first_death_chain():
    # an oracle independent of the DP and the product forms: the exponential of the
    # chain of alive sets (Metzler, so convolution.expm is accurate entry by entry)
    rng = np.random.default_rng(30)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        rates = tuple(float(x) for x in np.exp(rng.uniform(math.log(0.1), math.log(10.0), n)))
        full, total = 2**n - 1, math.fsum(rates)
        alive = np.array([bin(state).count("1") for state in range(2**n)])
        singles = [1 << k for k in range(n)]
        start = np.eye(2**n)[full]
        after_first = np.zeros(2**n)  # the alive sets once the first variable has died
        for k, rate in enumerate(rates):
            after_first[full & ~(1 << k)] = rate / total
        q = _first_death_chain(rates)
        for z in np.array([1e-3, 0.1, 0.5, 1.0, 2.0, 5.0]) * math.fsum(1.0 / x for x in rates):
            step = expm(q * z)
            state = start @ step
            for r in range(1, n + 1):
                # X_(r) <= z when at most N - r variables are still alive
                expected = _mass_below(state, alive <= n - r)
                assert abs(order_statistic_cdf(OrderStatisticRequest(rates, r), float(z)) / expected - 1) <= 1e-12
            # the maximum's density is the flow into the empty set
            expected = sum(state[s] * rate for s, rate in zip(singles, rates))
            assert abs(max_pdf(rates, float(z)) / expected - 1) <= 1e-12, (rates, z)
            state = after_first @ step
            expected = sum(state[s] * rate for s, rate in zip(singles, rates))
            assert abs(range_pdf(rates, float(z)) / expected - 1) <= 1e-12, (rates, z)
            assert abs(range_cdf(rates, float(z)) / _mass_below(state, alive == 0) - 1) <= 1e-12, (rates, z)


# ---------------------------------------------------------------------------
# general order statistics


def test_request_validates_order():
    with pytest.raises(DomainError):
        OrderStatisticRequest((1.0, 2.0), 0)
    with pytest.raises(DomainError):
        OrderStatisticRequest((1.0, 2.0), 3)
    req = OrderStatisticRequest((1.0, 2.0), 2)
    assert req.r == 2
    assert type(OrderStatisticRequest((1.0, 2.0), np.int64(2)).r) is int


@pytest.mark.parametrize("r", [2.7, 2.0, "x", None])
def test_request_refuses_an_order_that_is_not_an_integer(r):
    # 2.7 was truncated to 2, and "x" raised an untyped ValueError
    with pytest.raises(DomainError, match="integer"):
        OrderStatisticRequest((1.0, 2.0, 3.0), r)


def test_sample_order_refuses_a_fractional_order():
    # 1.9 drew the minimum
    with pytest.raises(DomainError, match="integer"):
        sample_order((1.0, 2.0, 3.0), 1.9, 100, seed=1)


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
