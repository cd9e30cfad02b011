"""Seeded sampling, goodness of fit, and the independence check."""

import math
import tracemalloc

import numpy as np
import pytest

from expstat import montecarlo
from expstat import (
    CapacityError,
    ContractError,
    DomainError,
    conv_cdf,
    conv_moments,
    factorization_test,
    ks_test,
    max_cdf,
    min_cdf,
    range_cdf,
    sample_max,
    sample_min,
    sample_min_range_pairs,
    sample_order,
    sample_sum,
)
from expstat.core import MAX_VALUES, ExponentialLaw
from expstat.montecarlo import (
    FactorizationReport,
    GoodnessOfFitReport,
    SampleBatch,
    _linear_quantiles,
    _margin_cells,
    make_stream,
)


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


def test_sample_refuses_a_fractional_count():
    # 2.5 drew two values
    with pytest.raises(DomainError, match="count must be an integer"):
        sample_sum((1.0, 2.0), 2.5, 1)
    with pytest.raises(DomainError, match="count must be an integer"):
        sample_min_range_pairs(1.0, 2.0, 20_000.0, 1)
    assert sample_sum((1.0, 2.0), np.int64(3), np.uint32(1), np.int8(2)).count == 3


@pytest.mark.parametrize("seed, stream_id", [(1.5, 0), (1, 0.5), ("1", 0), (-1, 0), (1, -2)])
def test_streams_refuse_seeds_and_ids_that_are_not_non_negative_integers(seed, stream_id):
    with pytest.raises(DomainError, match="seed|stream_id"):
        make_stream(seed, stream_id)
    with pytest.raises(DomainError, match="seed|stream_id"):
        sample_max((1.0, 2.0), 10, seed, stream_id)


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
    # sample_sum adds whole columns in numpy's order: one after another below 8 columns, eight
    # partial sums and a tree from 8 to 128, numpy's own row sum past its 128-value block
    for n in (2, 7, 9, 16, 17, 40, 130):
        rates = tuple(float(r) for r in np.geomspace(0.1, 10.0, n))
        u = make_stream(117, n).random((10_000, n))
        x = -np.log1p(-u) / np.asarray(rates)[None, :]
        assert sample_sum(rates, 10_000, seed=117, stream_id=n).values.tobytes() == x.sum(axis=1).tobytes(), n
        assert sample_min(rates, 10_000, seed=117, stream_id=n).values.tobytes() == x.min(axis=1).tobytes(), n
        assert sample_max(rates, 10_000, seed=117, stream_id=n).values.tobytes() == x.max(axis=1).tobytes(), n


@pytest.mark.parametrize("block", [1, 7, 64, montecarlo.SAMPLE_BLOCK])
def test_blocked_draws_give_the_bits_of_one_draw_matrix(monkeypatch, block):
    # counts below, at and across block boundaries, against one (count, N) draw
    monkeypatch.setattr(montecarlo, "SAMPLE_BLOCK", block)
    # 2 block + 127 rows leave a last block that is no whole number of the divisor's 128-row tiles
    cases = (
        ((0.3, 0.7, 1.9, 2.5, 8.0), 3 * block + 2),
        ((1.1,), block),
        ((2.0, 2.0, 5.0), 1),
        ((0.4, 2.5), 2 * block - 1),
        ((0.6, 1.3, 2.2, 3.1, 4.7, 5.5, 6.0, 9.1, 11.0), 2 * block + 127),
    )
    for rates, count in cases:
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
    # a first draw imports numpy.random's lazy modules (about 690 KB), which are not the sampler's
    sample_sum(rates, 10, 112)
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


def test_a_count_past_max_values_raises_capacity_error_before_allocating():
    # 1e9 draws would be an 8 GB result; the largest shipped requests, check's 2e5 pairs and the
    # tests' 1e6 draws, stay 10x and more below the bound
    assert 10 * 1_000_000 <= MAX_VALUES
    count = MAX_VALUES + 1
    samplers = (
        lambda: sample_sum((1.0, 2.0), count, 1),
        lambda: sample_min((1.0, 2.0), count, 1),
        lambda: sample_max((1.0, 2.0), count, 1),
        lambda: sample_order((1.0, 2.0, 3.0), 2, count, 1),
        lambda: sample_min_range_pairs(1.0, 2.0, count, 1),
        lambda: sample_sum((1.0,), 10**9, 1),
    )
    for sample in samplers:
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=f"count {count}|count 1000000000"):
                sample()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
    assert sample_sum((1.0, 2.0), 1, 1).count == 1


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ks_rejects_a_non_finite_reference_cdf(bad):
    # a NaN slipped past the monotonicity and range checks and read ks_statistic=nan, passed=False
    batch = sample_sum((1.0, 2.0), 1000, seed=115)

    def cdf(z):
        values = conv_cdf((1.0, 2.0), z)
        values[500] = bad
        return values

    with pytest.raises(ContractError, match="NaN or leaves"):
        ks_test(batch, cdf)
    with pytest.raises(ContractError, match="NaN or leaves"):
        ks_test(batch, lambda z: bad)


def _ks_test_pass_per_check(batch, cdf):
    """ks_test with one pass per check and per statistic, before its passes were folded."""
    if not np.all(np.isfinite(batch.values)):
        raise DomainError("KS test requires finite sample values")
    x = np.sort(batch.values)
    n = x.size
    if n == 0:
        raise DomainError("KS test requires a non-empty batch")
    try:
        f = np.asarray(cdf(x), dtype=np.float64)
        if f.shape != x.shape:
            raise TypeError
    except (TypeError, ValueError):
        f = np.array([float(cdf(v)) for v in x])
    if not np.all((f >= -1e-12) & (f <= 1.0 + 1e-12)):
        raise ContractError("reference cdf is NaN or leaves [0, 1] on the sample")
    if np.any(np.diff(f) < -1e-12):
        raise ContractError("reference cdf is not monotone on the sample")
    i = np.arange(1, n + 1, dtype=np.float64)
    d_plus = float(np.max(i / n - f))
    d_minus = float(np.max(f - (i - 1.0) / n))
    ks = max(d_plus, d_minus, 0.0)
    critical = montecarlo.KS_CONSTANT_ALPHA_01 / math.sqrt(n)
    return GoodnessOfFitReport(ks, n, critical, ks < critical)


def _ks_outcome(ks, batch, cdf):
    try:
        report = ks(batch, cdf)
    except (DomainError, ContractError) as exc:
        return type(exc), str(exc)
    return report.ks_statistic.hex(), report.n, report.critical_value.hex(), report.passed


@pytest.mark.parametrize("seed", [121, 122, 123, 124, 125])
def test_ks_reports_and_errors_are_those_of_one_pass_per_check(seed):
    rates = (0.4, 1.1, 2.5)
    batch = sample_sum(rates, 20_000, seed=seed)
    shifted = SampleBatch(batch.values * 1.02, seed=seed, stream_id=0, count=20_000)
    ones = SampleBatch(np.ones(3), seed=seed, stream_id=0, count=3)

    def poisoned(bad, at):
        values = batch.values.copy()
        values[at] = bad
        return SampleBatch(values, seed=seed, stream_id=0, count=values.size)

    def spoiled(bad, at):
        def cdf(z):
            values = conv_cdf(rates, z)
            values[at] = bad
            return values

        return cdf

    cases = [
        (batch, lambda z: conv_cdf(rates, z)),  # vectorized, passes
        (shifted, lambda z: conv_cdf(rates, z)),  # a wrong scale
        (SampleBatch(batch.values[:500], seed=seed, stream_id=0, count=500), lambda z: conv_cdf(rates, float(z))),  # scalar
        (ones, lambda z: min_cdf((1.0,), z)),  # tied values
        (SampleBatch(batch.values[:1], seed=seed, stream_id=0, count=1), lambda z: -np.expm1(-z)),
        (SampleBatch(np.empty(0), seed=seed, stream_id=0, count=0), lambda z: -np.expm1(-z)),
    ]
    for bad in (math.nan, math.inf, -math.inf):
        cases += [(poisoned(bad, seed % 97), lambda z: conv_cdf(rates, z)), (batch, spoiled(bad, seed % 89))]
    cases += [
        (batch, spoiled(-2e-12, 0)),  # below the range window
        (batch, spoiled(-5e-13, 0)),  # inside it
        (batch, spoiled(1.0 + 2e-12, -1)),  # above it
        (batch, spoiled(0.5, -1)),  # a fall from near 1 to 1/2
        (batch, lambda z: 0.5 + 0.4 * np.sin(3.0 * z)),
    ]
    for case, cdf in cases:
        assert _ks_outcome(ks_test, case, cdf) == _ks_outcome(_ks_test_pass_per_check, case, cdf)


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


@pytest.mark.parametrize("rates", [(0.5, 1.0, 3.0), (0.2, 0.7, 1.0, 2.5, 6.0), tuple(np.geomspace(0.1, 10.0, 8))])
def test_min_and_range_factorize_and_the_range_follows_its_law(rates):
    # the pairs come from a numpy matrix, not from the library's samplers
    count = 200_000
    x = np.random.default_rng(116).exponential(1.0 / np.asarray(rates), size=(count, len(rates)))
    low = x.min(axis=1)
    spread = x.max(axis=1) - low
    assert factorization_test(np.column_stack((low, spread))).passed
    batch = SampleBatch(spread, seed=116, stream_id=0, count=count)
    assert ks_test(batch, lambda z: range_cdf(rates, z)).passed


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
