"""Tests of the benchmark's own parts: the mpmath oracle, the tracer, the tail rule, the verdict.

Run from the repository root with ``python3 -m pytest benchmarks -q``.
"""

import math
import os
import sys

import mpmath
import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import baseline  # noqa: E402
import expstat  # noqa: E402
import expstat.cli  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _separated_sets(seed: int, count: int, n_max: int = 4):
    rng = np.random.default_rng(seed)
    sets = []
    while len(sets) < count:
        n = int(rng.integers(2, n_max + 1))
        rates = np.sort(np.exp(rng.uniform(math.log(0.1), math.log(10.0), n)))
        if np.min(np.diff(rates) / rates[1:]) > 0.1:
            sets.append(tuple(float(r) for r in rng.permutation(rates)))
    return sets


@pytest.mark.parametrize("n", [1, 2, 5, 9])
@pytest.mark.parametrize("rate", [0.3, 2.0])
def test_sum_law_is_gamma_for_exact_repeats(n, rate):
    rates = (rate,) * n
    for z in (0.0, 0.1, 1.0, 4.0, 20.0):
        with mpmath.workdps(40):
            pdf = rate**n * mpmath.mpf(z) ** (n - 1) * mpmath.exp(-rate * z) / mpmath.factorial(n - 1)
            cdf = mpmath.gammainc(n, 0, rate * z, regularized=True)
        assert _rel(oracle.sum_pdf(rates, z), float(pdf)) <= 1e-14
        # the cdf is 1 - survival at GUARD_DIGITS precision: exact to ~1e-30 absolute
        assert abs(oracle.sum_cdf(rates, z) - float(cdf)) <= 1e-14 * float(cdf) + 1e-28


def test_sum_law_matches_library_on_separated_sets():
    for rates in _separated_sets(20261017, 30):
        for p in (0.05, 0.3, 0.5, 0.8, 0.99):
            z = expstat.conv_quantile(rates, p)
            assert _rel(oracle.sum_pdf(rates, z), expstat.conv_pdf(rates, z)) <= 1e-10
            assert _rel(oracle.sum_cdf(rates, z), expstat.conv_cdf(rates, z)) <= 1e-10


def test_order_laws_match_library_on_separated_sets():
    for rates in _separated_sets(4242, 20):
        n = len(rates)
        mean = math.fsum(1.0 / r for r in rates)
        for z in (0.1 * mean, 0.5 * mean, mean, 3.0 * mean):
            assert _rel(oracle.max_pdf(rates, z), expstat.max_pdf(rates, z)) <= 1e-10
            assert _rel(oracle.max_cdf(rates, z), expstat.max_cdf(rates, z)) <= 1e-12
            assert _rel(oracle.min_cdf(rates, z), expstat.min_cdf(rates, z)) <= 1e-12
            for r in range(1, n + 1):
                req = expstat.OrderStatisticRequest(rates, r)
                assert _rel(oracle.order_cdf(rates, r, z), expstat.order_statistic_cdf(req, z)) <= 1e-12
                # the library's intermediate orders are a finite difference with step 1e-5,
                # whose rounding error (~1e-11 absolute) dominates in the far tail
                exact = oracle.order_pdf(rates, r, z)
                assert abs(exact - expstat.order_statistic_pdf(req, z)) <= 1e-6 * exact + 1e-10


def test_order_pdf_is_the_derivative_of_order_cdf():
    rates = (0.4, 1.3, 2.2, 5.0)
    for r in range(1, 5):
        for z in (0.05, 0.4, 1.5):
            with mpmath.workdps(50):
                slope = mpmath.diff(
                    lambda t: mpmath.fsum(oracle._count_distribution(oracle._event_probabilities(rates, t))[r:]),
                    mpmath.mpf(z),
                )
            assert _rel(oracle.order_pdf(rates, r, z), float(slope)) <= 1e-14


def test_order_pdf_vanishes_at_zero_for_intermediate_orders():
    rates = (1.0, 2.0, 3.0)
    assert oracle.order_pdf(rates, 2, 0.0) == 0.0
    assert oracle.order_pdf(rates, 1, 0.0) == pytest.approx(6.0, rel=1e-15)
    # exact value at z = 1e-6 is about 2.2e-5 (the library's finite difference gives 1.2e-4)
    assert oracle.order_pdf(rates, 2, 1e-6) == pytest.approx(2.2e-5, rel=1e-3)


@pytest.mark.parametrize("gap", [1e-4, 1.1e-3, 1e-2])
def test_working_precision_covers_near_equal_cancellation(gap, monkeypatch):
    rates = tuple(1.7 * (1.0 + gap) ** i for i in range(8)) + (1.7, 1.7)
    points = (0.5, 4.0, 9.0)
    values = [(oracle.sum_pdf(rates, z), oracle.sum_cdf(rates, z)) for z in points]
    monkeypatch.setattr(oracle, "GUARD_DIGITS", oracle.GUARD_DIGITS + 40)
    for z, (pdf, cdf) in zip(points, values):
        assert _rel(pdf, oracle.sum_pdf(rates, z)) <= 1e-15
        assert _rel(cdf, oracle.sum_cdf(rates, z)) <= 1e-15


def test_tracer_wraps_every_binding_and_restores_them():
    original = expstat.convolution.conv_pdf
    req = expstat.cli.CurveRequest("order", (1.0, 2.0, 3.0), 2, 0.0, 3.0, 11, "pdf")
    tracer = tracing.Tracer()
    tracer.prepare()
    bound = tracer.bindings()
    assert "expstat.cli.conv_pdf" in bound and "expstat.convolution.conv_pdf" in bound
    assert "expstat.conv_pdf" in bound
    tracer.install()
    try:
        assert expstat.cli.conv_pdf is expstat.convolution.conv_pdf is not original
        _, error, seconds = tracer.run_request(0, expstat.cli._curve_values, req, np.linspace(0.0, 3.0, 11))
    finally:
        tracer.uninstall()
    assert error is None
    assert expstat.cli.conv_pdf is original and expstat.convolution.conv_pdf is original
    assert isinstance(expstat.core.as_rate_vector((1.0, 2.0)), expstat.core.RateVector)
    assert tracer.calls["orderstats.order_statistic_pdf"] == 11
    assert tracer.calls["orderstats.order_statistic_cdf"] == 22
    assert tracer.check_spans() == []
    assert sum(tracer.self_s.values()) <= seconds
    # a span moved outside its parent, or a self time that disagrees with the intervals, is reported
    tracer.self_s["orderstats.order_statistic_pdf"] += 1e-3
    assert any("order_statistic_pdf" in problem for problem in tracer.check_spans())
    tracer.self_s["orderstats.order_statistic_pdf"] -= 1e-3
    tracer.end[1] = tracer.end[0] + 1.0
    assert any("outside" in problem for problem in tracer.check_spans())


def test_tracer_counts_kernel_work_and_errors():
    tracer = tracing.Tracer()
    tracer.prepare()
    tracer.install()
    try:
        mixture = expstat.conv_mixture((1.0, 1.0, 2.0))
        expstat.core.mixture_cdf_grid(mixture, np.linspace(0.0, 1.0, 7))
        with pytest.raises(expstat.DomainError):
            expstat.convolution.conv_pdf((1.0, 2.0), -1.0)
    finally:
        tracer.uninstall()
    assert tracer.counters["core.grid_term_points"] == 3 * 7
    assert tracer.counters["core.grid_bytes_computed"] == 8 * 3 * 7
    assert tracer.counters["core.gammainc.elements"] == 3 * 7
    assert tracer.errors["convolution.conv_pdf"] == 1


def test_tail_is_highest_percentile_with_ten_beyond():
    latencies = [float(i) for i in range(1, 201)]
    value, percentile, beyond = run.tail_latency(latencies)
    assert value == 190.0 and beyond == 10 and percentile == 95.0
    assert sum(x > value for x in latencies) == 10
    assert run.tail_latency([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    # below 100 samples a tenth of them, rounded up, lie beyond the tail
    assert run.tail_latency([float(i) for i in range(18)]) == (15.0, 100.0 * 16 / 18, 2)
    assert run.tail_latency([float(i) for i in range(40)]) == (35.0, 90.0, 4)
    assert run.tail_latency([5.0]) == (5.0, 100.0, 0)


def test_verdict_accepts_recorded_failures_at_their_rate_only(monkeypatch):
    known = {
        "failures": {"sum.cdf.erlang": {"z>0": {"failed": 1, "requests": 160}}},
        "family_requests": {"sum.cdf.erlang": 160, "sum.pdf.closed": 600, "curve.max.cdf": 15},
    }
    monkeypatch.setattr(baseline, "load", lambda workload: known)
    detail = [(10, "z=12.2: 0.0093 vs reference 0.0092")]
    assert baseline.verdict("grid_curves", {"sum.cdf.erlang": {"z>0": detail}}, {"sum.cdf.erlang": 8}) == []
    every = baseline.verdict("grid_curves", {"sum.cdf.erlang": {"z>0": detail * 8}}, {"sum.cdf.erlang": 8})
    assert len(every) == 1 and every[0][:2] == ("sum.cdf.erlang", "z>0") and "more than" in every[0][2]
    # a new kind in a family with 160 recorded requests: rate bound 3/160 > 1%, so it fails at once
    new_kind = baseline.verdict("grid_curves", {"sum.cdf.erlang": {"z=0": detail}}, {"sum.cdf.erlang": 8})
    assert len(new_kind) == 1 and new_kind[0][2].startswith("new failure")
    unseen_family = baseline.verdict("grid_curves", {"sum.cdf.closed": {"z>0": detail}}, {"sum.cdf.closed": 8})
    assert len(unseen_family) == 1
    # a rare new kind in a family with 600 recorded requests passes once, not when the family breaks
    assert baseline.verdict("grid_curves", {"sum.pdf.closed": {"z=0": detail}}, {"sum.pdf.closed": 24}) == []
    broken = baseline.verdict("grid_curves", {"sum.pdf.closed": {"z=0": detail * 24}}, {"sum.pdf.closed": 24})
    assert len(broken) == 1
    # one cli curve of a kind per run: any new failure of it fails the run
    assert len(baseline.verdict("cli", {"curve.max.cdf": {"z>0": detail}}, {"curve.max.cdf": 1})) == 1


def test_allowed_failures_is_a_binomial_tail_bound():
    assert baseline.allowed_failures(0.0, 10) == 0
    assert baseline.allowed_failures(1.0, 10) == 10
    k = baseline.allowed_failures(0.05, 30)
    tail = sum(math.comb(30, j) * 0.05**j * 0.95 ** (30 - j) for j in range(k + 1, 31))
    assert tail <= baseline.FALSE_ALARM < tail + math.comb(30, k) * 0.05**k * 0.95 ** (30 - k)
