"""Seeded sampling, goodness of fit, and the independence check."""

import math
import tracemalloc

import numpy as np
import pytest

from expstat import montecarlo
from expstat import (
    ContractError,
    DomainError,
    FactorizationReport,
    GoodnessOfFitReport,
    SampleBatch,
    conv_cdf,
    conv_moments,
    factorization_test,
    ks_test,
    max_cdf,
    min_cdf,
    sample_max,
    sample_min,
    sample_min_range_pairs,
    sample_order,
    sample_sum,
)
from expstat.core import ExponentialLaw
from expstat.montecarlo import _linear_quantiles, _margin_cells, make_stream


# ---------------------------------------------------------------------------
# streams and batches


def test_make_stream_is_reproducible():
    a = make_stream(5, 0).random(10)
    b = make_stream(5, 0).random(10)
    np.testing.assert_array_equal(a, b)


def test_make_stream_ids_are_disjoint():
    a = make_stream(5, 0).random(10)
    b = make_stream(5, 1).random(10)
    assert not np.array_equal(a, b)


def test_disjoint_streams_are_uncorrelated():
    n = 100_000
    a = make_stream(77, 0).random(n)
    b = make_stream(77, 1).random(n)
    rho = float(np.corrcoef(a, b)[0, 1])
    assert abs(rho) < 4.0 / math.sqrt(n)


def test_sample_batch_validates_count():
    with pytest.raises(ContractError):
        SampleBatch(np.zeros(3), seed=0, stream_id=0, count=4)


def test_batch_values_are_read_only():
    batch = sample_sum((1.0, 2.0), 10, seed=1)
    with pytest.raises(ValueError):
        batch.values[0] = 0.0


# ---------------------------------------------------------------------------
# samplers


def test_sample_sum_deterministic_and_positive():
    a = sample_sum((1.0, 2.0), 1000, seed=42, stream_id=3)
    b = sample_sum((1.0, 2.0), 1000, seed=42, stream_id=3)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.values.tobytes() == b.values.tobytes()
    assert np.all(a.values > 0.0)


def test_sample_sum_mean_matches_clt_band():
    rates = (1.0, 2.0)
    n = 1_000_000
    batch = sample_sum(rates, n, seed=101)
    mean, var = conv_moments(rates)
    assert abs(batch.values.mean() - mean) <= 3.0 * math.sqrt(var / n)


def test_sample_min_mean_matches_clt_band():
    n = 1_000_000
    batch = sample_min((1.0, 2.0), n, seed=102)
    assert abs(batch.values.mean() - 1.0 / 3.0) <= 3.0 * (1.0 / 3.0) / 1e3


def test_sample_max_passes_ks_against_product_cdf():
    rates = (0.5, 1.0, 2.0)
    batch = sample_max(rates, 100_000, seed=103)
    report = ks_test(batch, lambda z: max_cdf(rates, float(z)))
    assert report.passed


def test_sample_order_matches_order_sampler_stream():
    batch = sample_order((1.0, 2.0, 3.0), 2, 500, seed=104, stream_id=2)
    again = sample_order((1.0, 2.0, 3.0), 2, 500, seed=104, stream_id=2)
    np.testing.assert_array_equal(batch.values, again.values)
    assert batch.count == 500


def test_sample_order_extremes_are_the_min_and_max_draws():
    # one draw matrix behind every sampler: r=1 and r=N pick the row min and max
    for rates in ((2.0,), (1.0, 2.0, 3.0), (0.4, 0.9, 1.6, 2.6, 3.9)):
        n = len(rates)
        low = sample_order(rates, 1, 2000, seed=109, stream_id=3)
        high = sample_order(rates, n, 2000, seed=109, stream_id=3)
        assert low.values.tobytes() == sample_min(rates, 2000, seed=109, stream_id=3).values.tobytes()
        assert high.values.tobytes() == sample_max(rates, 2000, seed=109, stream_id=3).values.tobytes()


def test_sample_rejects_bad_count():
    with pytest.raises(DomainError):
        sample_sum((1.0,), 0, seed=1)


def test_sample_min_range_pairs_shape_and_determinism():
    pairs = sample_min_range_pairs(1.0, 2.0, 20_000, seed=105)
    assert pairs.shape == (20_000, 2)
    assert np.all(pairs >= 0.0)
    again = sample_min_range_pairs(1.0, 2.0, 20_000, seed=105)
    assert pairs.tobytes() == again.tobytes()


def test_column_reductions_give_the_bits_of_the_row_reductions():
    rates = (0.3, 0.7, 1.0, 1.9, 2.5, 4.4, 8.0, 9.5)
    u = make_stream(107, 4).random((100_000, len(rates)))
    x = -np.log1p(-u) / np.asarray(rates)[None, :]
    assert sample_min(rates, 100_000, seed=107, stream_id=4).values.tobytes() == x.min(axis=1).tobytes()
    assert sample_max(rates, 100_000, seed=107, stream_id=4).values.tobytes() == x.max(axis=1).tobytes()
    assert sample_sum(rates, 100_000, seed=107, stream_id=4).values.tobytes() == x.sum(axis=1).tobytes()
    u = make_stream(108, 0).random((20_000, 2))
    x = -np.log1p(-u) / np.array([1.0, 2.0])[None, :]
    expected = np.column_stack((x.min(axis=1), x.max(axis=1) - x.min(axis=1)))
    assert sample_min_range_pairs(1.0, 2.0, 20_000, seed=108).tobytes() == expected.tobytes()


@pytest.mark.parametrize("block", [1, 7, 64, montecarlo.SAMPLE_BLOCK])
def test_blocked_draws_give_the_bits_of_one_draw_matrix(monkeypatch, block):
    # counts below, at and across block boundaries, against one (count, N) draw
    monkeypatch.setattr(montecarlo, "SAMPLE_BLOCK", block)
    for rates, count in (((0.3, 0.7, 1.9, 2.5, 8.0), 3 * block + 2), ((1.1,), block), ((2.0, 2.0, 5.0), 1), ((0.4, 2.5), 2 * block - 1)):
        u = make_stream(110, 1).random((count, len(rates)))
        x = -np.log1p(-u) / np.asarray(rates)[None, :]
        assert sample_sum(rates, count, seed=110, stream_id=1).values.tobytes() == x.sum(axis=1).tobytes()
        assert sample_min(rates, count, seed=110, stream_id=1).values.tobytes() == x.min(axis=1).tobytes()
        assert sample_max(rates, count, seed=110, stream_id=1).values.tobytes() == x.max(axis=1).tobytes()
        for r in range(1, len(rates) + 1):
            expected = np.partition(x, r - 1, axis=1)[:, r - 1]
            assert sample_order(rates, r, count, seed=110, stream_id=1).values.tobytes() == expected.tobytes()
        if len(rates) == 2:
            pairs = sample_min_range_pairs(*rates, count, seed=110, stream_id=1)
            lo, hi = x.min(axis=1), x.max(axis=1)
            assert pairs.flags.c_contiguous
            assert pairs.tobytes() == np.column_stack((lo, hi - lo)).tobytes()


def test_sampler_memory_is_one_block_plus_the_result():
    # the (count, N) matrix is never held whole: 6.4 MB at 1e5 x 8, 3.2 MB at 2e5 x 2
    rates = (0.3, 0.7, 1.0, 1.9, 2.5, 4.4, 8.0, 9.5)
    block = montecarlo.SAMPLE_BLOCK * 8 * 8
    for sample in (sample_sum, sample_min, sample_max, lambda *a: sample_order(a[0], 4, *a[1:])):
        tracemalloc.start()
        try:
            sample(rates, 100_000, 112)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 800_000 + 3 * block
    tracemalloc.start()
    try:
        sample_min_range_pairs(1.0, 2.0, 200_000, 112)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_200_000 + 3 * montecarlo.SAMPLE_BLOCK * 2 * 8


def test_factorization_cell_counts_match_a_per_pair_count():
    pairs = sample_min_range_pairs(1.0, 3.0, 20_000, seed=109)
    m = 10
    qs = np.arange(1, m + 1) / (m + 1)
    bu = np.searchsorted(np.quantile(pairs[:, 0], qs), pairs[:, 0], side="left")
    bv = np.searchsorted(np.quantile(pairs[:, 1], qs), pairs[:, 1], side="left")
    counts = np.zeros((m + 1, m + 1))
    np.add.at(counts, (bu, bv), 1.0)
    cum = counts.cumsum(axis=0).cumsum(axis=1) / pairs.shape[0]
    expected = float(np.max(np.abs(cum[:m, :m] - np.outer(cum[:m, m], cum[m, :m]))))
    assert factorization_test(pairs).max_deviation == expected


# ---------------------------------------------------------------------------
# KS test


def test_ks_accepts_correct_law():
    batch = sample_sum((1.0, 2.0), 100_000, seed=106)
    report = ks_test(batch, lambda z: conv_cdf((1.0, 2.0), float(z)))
    assert report.passed
    assert report.critical_value == pytest.approx(1.628 / math.sqrt(100_000), rel=1e-12)


def test_ks_rejects_wrong_law_with_known_distance():
    # Exp(1) data against an Exp(2) reference: the true KS distance is 1/4
    law = ExponentialLaw(1.0)
    rng = make_stream(107, 0)
    values = -np.log1p(-rng.random(100_000))
    batch = SampleBatch(values, seed=107, stream_id=0, count=100_000)
    report = ks_test(batch, lambda z: min_cdf((2.0,), float(z)))
    assert not report.passed
    assert report.ks_statistic == pytest.approx(0.25, abs=0.01)
    assert law.rate == 1.0


def test_ks_single_observation_statistic():
    batch = SampleBatch(np.array([0.7]), seed=0, stream_id=0, count=1)
    report = ks_test(batch, lambda z: -np.expm1(-z))
    f = min_cdf((1.0,), 0.7)
    assert report.ks_statistic == pytest.approx(max(1.0 - f, f), rel=1e-12)


def test_ks_false_failure_rate_is_calibrated():
    # 200 correct-law batches at alpha = 0.01: expect ~2 failures, allow 5; the minimum of two
    # rates through a scalar cdf, and the maximum of eight through max_cdf on the whole batch
    rates = (0.3, 0.7, 1.0, 1.9, 2.5, 4.4, 8.0, 9.5)
    for sampler, cdf in (
        (lambda seed: sample_min((1.0, 3.0), 10_000, seed=seed, stream_id=4), lambda z: min_cdf((1.0, 3.0), float(z))),
        (lambda seed: sample_max(rates, 10_000, seed=seed, stream_id=2), lambda z: max_cdf(rates, z)),
    ):
        failures = 0
        for seed in range(200):
            failures += 0 if ks_test(sampler(seed), cdf).passed else 1
        assert failures <= 5


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_ks_rejects_non_finite_draws(bad):
    # a cdf that does not check its points would turn the statistic into NaN
    values = -np.log1p(-make_stream(114, 0).random(10_000))
    values[17] = bad
    batch = SampleBatch(values, seed=114, stream_id=0, count=10_000)
    with pytest.raises(DomainError):
        ks_test(batch, lambda x: -np.expm1(-x))


def test_ks_rejects_non_monotone_reference():
    batch = sample_sum((1.0, 2.0), 1000, seed=108)
    with pytest.raises(ContractError):
        ks_test(batch, lambda z: 0.5 + 0.4 * math.sin(3.0 * z))


def test_ks_rejects_out_of_range_reference():
    batch = sample_sum((1.0, 2.0), 1000, seed=109)
    with pytest.raises(ContractError):
        ks_test(batch, lambda z: 1.5 * conv_cdf((1.0, 2.0), float(z)))


def test_report_flags_must_be_consistent():
    with pytest.raises(ContractError):
        GoodnessOfFitReport(ks_statistic=0.5, n=100, critical_value=0.1, passed=True)
    with pytest.raises(ContractError):
        FactorizationReport(max_deviation=0.5, bound=0.1, n=10_000, grid_size=10, passed=True)


# ---------------------------------------------------------------------------
# factorization test


def test_factorization_accepts_independent_pairs():
    rng = make_stream(110, 0)
    pairs = rng.random((100_000, 2))
    report = factorization_test(pairs)
    assert report.passed


def test_factorization_accepts_min_range_pairs():
    pairs = sample_min_range_pairs(1.0, 2.0, 200_000, seed=111)
    report = factorization_test(pairs)
    assert report.passed


def test_factorization_rejects_comonotone_pairs():
    # (X, X) has joint cdf min(F, G) and the deviation approaches 1/4 - 1/9-ish
    x = -np.log1p(-make_stream(112, 0).random(100_000))
    report = factorization_test(np.column_stack((x, x)))
    assert not report.passed
    assert report.max_deviation > 0.2


def test_factorization_requires_enough_pairs():
    rng = make_stream(113, 0)
    with pytest.raises(DomainError):
        factorization_test(rng.random((9_999, 2)))


def test_factorization_rejects_bad_shape():
    with pytest.raises(DomainError):
        factorization_test(np.zeros((10_000, 3)))


@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_factorization_rejects_non_finite_pairs(column, bad):
    pairs = make_stream(115, 0).random((10_000, 2))
    pairs[5_000, column] = bad
    with pytest.raises(DomainError):
        factorization_test(pairs)


@pytest.mark.parametrize("n", [10_000, 200_000, 200_001])
@pytest.mark.parametrize("ties", [False, True])
def test_factorization_is_np_quantile_and_searchsorted_bit_for_bit(n, ties):
    pairs = sample_min_range_pairs(0.4, 2.5, n, seed=116)
    if ties:
        pairs = np.round(pairs, 2)
    m = 10
    qs = np.arange(1, m + 1) / (m + 1)
    for x in (np.ascontiguousarray(pairs[:, 0]), np.ascontiguousarray(pairs[:, 1])):
        thresholds = np.quantile(x, qs)
        assert _linear_quantiles(x, qs).tobytes() == thresholds.tobytes()
        assert np.array_equal(_margin_cells(x, qs), np.searchsorted(thresholds, x, side="left"))
    bu = np.searchsorted(np.quantile(pairs[:, 0], qs), pairs[:, 0], side="left")
    bv = np.searchsorted(np.quantile(pairs[:, 1], qs), pairs[:, 1], side="left")
    counts = np.bincount(bu * (m + 1) + bv, minlength=(m + 1) ** 2).reshape(m + 1, m + 1)
    cum = counts.cumsum(axis=0).cumsum(axis=1) / n
    expected = float(np.max(np.abs(cum[:m, :m] - np.outer(cum[:m, m], cum[m, :m]))))
    assert factorization_test(pairs).max_deviation == expected
