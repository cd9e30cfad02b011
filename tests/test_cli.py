"""Command-line interface: CSV output, exit codes, seeding, check suite."""

import io
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from expstat import (
    DomainError,
    OrderStatisticRequest,
    RateVector,
    conv_coefficients,
    conv_mixture,
    conv_pdf,
    max_cdf,
    max_pdf,
    order_statistic_cdf,
    order_statistic_pdf,
    sample_sum,
)
from expstat import cli
from expstat.cli import DEFAULT_SEED, SEED_ENV_VAR, main
from expstat.convolution import sum_route
from expstat.core import MAX_VALUES, mixture_eval_grid

LN2 = math.log(2.0)


def run_cli(argv, monkeypatch=None, env_seed=None):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    if monkeypatch is not None:
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        if env_seed is not None:
            monkeypatch.setenv(SEED_ENV_VAR, str(env_seed))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if exc.code is not None else 0
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    lines = text.strip().split("\n")
    header, rows = lines[0], lines[1:]
    return header, [tuple(float(f) for f in row.split(",")) for row in rows]


# ---------------------------------------------------------------------------
# curve


def test_curve_emits_header_and_requested_points(monkeypatch):
    code, out, _ = run_cli(
        ["curve", "--stat", "sum", "--rates", "1,2", "--range", "0:4", "--points", "9"],
        monkeypatch,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == "z,value"
    assert len(rows) == 9
    assert rows[0] == (0.0, 0.0)
    assert rows[-1][0] == 4.0


def test_curve_values_round_trip_bit_exact(monkeypatch):
    code, out, _ = run_cli(
        ["curve", "--stat", "sum", "--rates", "1,2", "--range", "0:10", "--points", "41"],
        monkeypatch,
    )
    assert code == 0
    _, rows = parse_csv(out)
    zz = np.linspace(0.0, 10.0, 41)
    expected = np.maximum(mixture_eval_grid(conv_mixture((1.0, 2.0)), zz), 0.0)
    for (z_read, v_read), z, v in zip(rows, zz, expected):
        assert z_read == z
        assert v_read == v


def test_curve_max_cdf_frozen_value(monkeypatch):
    code, out, _ = run_cli(
        [
            "curve",
            "--stat",
            "max",
            "--rates",
            "1,2",
            "--quantity",
            "cdf",
            "--range",
            f"{LN2}:{2 * LN2}",
            "--points",
            "2",
        ],
        monkeypatch,
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][1] == pytest.approx(0.375, rel=1e-14)
    assert rows[1][1] == pytest.approx(max_cdf((1.0, 2.0), 2 * LN2), rel=1e-14)


def test_curve_max_pdf_memory_stays_linear_in_rates(monkeypatch):
    # the inclusion-exclusion grid over 2^20 - 1 subset sums needed about 10 GB
    rates = tuple(0.1 * 1.25**k for k in range(20))
    argv = ["curve", "--stat", "max", "--quantity", "pdf", "--rates", ",".join(map(repr, rates))]
    tracemalloc.start()
    try:
        code, out, _ = run_cli(argv + ["--points", "401"], monkeypatch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 50e6
    _, rows = parse_csv(out)
    assert len(rows) == 401
    assert rows[0][1] == 0.0
    assert [v for _, v in rows] == list(max_pdf(rates, np.linspace(0.0, 10.0, 401)))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["curve", "--stat", "sum", "--rates", "1,2", "--points", str(MAX_VALUES + 1)], f"points {MAX_VALUES + 1} is over"),
        (["curve", "--stat", "max", "--rates", "1,2", "--points", "1000000000"], "points 1000000000 is over"),
        (["sample", "--stat", "sum", "--rates", "1,2", "--count", str(MAX_VALUES + 1)], f"count {MAX_VALUES + 1} is over"),
    ],
)
def test_a_request_past_max_values_exits_2_before_allocating(monkeypatch, argv, message):
    # np.linspace of 1e9 points, or 1e9 draws, would be an 8 GB array; CI's largest curve has
    # 4001 points, and the benchmark's largest sample 2e5 draws
    assert 1000 * 4001 <= MAX_VALUES and 50 * 200_000 <= MAX_VALUES
    tracemalloc.start()
    try:
        code, out, err = run_cli(argv, monkeypatch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert message in err
    assert peak < 1_000_000


def test_curve_min_cdf_is_pooled_exponential(monkeypatch):
    code, out, _ = run_cli(
        [
            "curve",
            "--stat",
            "min",
            "--rates",
            "1,2",
            "--quantity",
            "cdf",
            "--range",
            "0:2",
            "--points",
            "5",
        ],
        monkeypatch,
    )
    assert code == 0
    _, rows = parse_csv(out)
    for z, v in rows:
        assert v == pytest.approx(-math.expm1(-3.0 * z), rel=1e-14)


def test_curve_order_statistic_requires_r(monkeypatch):
    code, _, err = run_cli(
        ["curve", "--stat", "order", "--rates", "1,2,3", "--range", "0:2"],
        monkeypatch,
    )
    assert code == 2
    assert "--r" in err


def test_curve_rejects_r_for_plain_statistics(monkeypatch):
    code, _, _ = run_cli(
        ["curve", "--stat", "sum", "--rates", "1,2", "--r", "1"], monkeypatch
    )
    assert code == 2


def test_curve_order_statistic_values(monkeypatch):
    code, out, _ = run_cli(
        [
            "curve",
            "--stat",
            "order",
            "--rates",
            "1,2,3",
            "--r",
            "3",
            "--quantity",
            "cdf",
            "--range",
            "0:1",
            "--points",
            "2",
        ],
        monkeypatch,
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[1][1] == pytest.approx(max_cdf((1.0, 2.0, 3.0), 1.0), abs=1e-12)


@pytest.mark.parametrize("r", [1, 12])
def test_curve_extreme_orders_match_pointwise_order_statistics(monkeypatch, r):
    # r=1 and r=N take the whole-grid minimum and maximum kernels
    rates = tuple(0.3 * 1.4**i for i in range(12))
    req = OrderStatisticRequest(rates, r)
    argv = ["curve", "--stat", "order", "--rates", ",".join(map(repr, rates)), "--r", str(r), "--range", "0:12"]
    for quantity, fn, scale in (("pdf", order_statistic_pdf, None), ("cdf", order_statistic_cdf, 1.0)):
        code, out, _ = run_cli(argv + ["--quantity", quantity, "--points", "401"], monkeypatch)
        assert code == 0
        z, got = np.array(parse_csv(out)[1]).T
        ref = np.array([fn(req, float(x)) for x in z])
        assert np.max(np.abs(got - ref)) <= 1e-14 * (scale or np.max(ref))


def test_curve_rejects_bad_inputs(monkeypatch):
    bad_cases = [
        ["curve", "--stat", "sum", "--rates", "1,-2"],
        ["curve", "--stat", "sum", "--rates", "1,2", "--range", "oops"],
        ["curve", "--stat", "sum", "--rates", "1,2", "--points", "1"],
        ["curve", "--stat", "sum", "--rates", "1,2", "--range", "5:1"],
        ["curve", "--stat", "typo", "--rates", "1,2"],
    ]
    for argv in bad_cases:
        code, _, _ = run_cli(argv, monkeypatch)
        assert code == 2, argv


def test_curve_request_refuses_a_fractional_order():
    # r = 2.7 was truncated to 2 before the order-statistic request could refuse it
    with pytest.raises(DomainError, match="order r must be an integer"):
        cli.CurveRequest("order", (1.0, 2.0, 3.0), 2.7, 0.0, 1.0, 3, "cdf")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("points", 2.5, "points must be an integer"),
        ("points", "401", "points must be an integer"),
        ("z_min", "0", "z_min must be real numbers"),
        ("z_max", "10", "z_max must be real numbers"),
        ("z_min", [0.0], "range must satisfy"),
        ("z_min", -1, "z_min must be finite and non-negative, got -1$"),
        ("z_max", float("nan"), "z_max must be finite and non-negative, got nan$"),
    ],
)
def test_curve_request_refuses_unchecked_arguments(field, value, message):
    # points=2.5 passed validation and failed in np.linspace with numpy's TypeError, and "401"
    # and "0" raised TypeError from <; each message names its field, where z_min=-1 said "points"
    args = dict(statistic="sum", rates=(1.0, 2.0), r=None, z_min=0.0, z_max=10.0, points=401, quantity="pdf")
    args[field] = value
    with pytest.raises(DomainError, match=message):
        cli.CurveRequest(**args)


def test_curve_request_holds_its_checked_values():
    req = cli.CurveRequest("sum", (1.0, 2.0), None, np.float32(0.0), np.int64(3), np.int64(5), "pdf")
    assert (req.z_min, req.z_max, req.points) == (0.0, 3.0, 5)
    assert type(req.z_min) is float and type(req.z_max) is float and type(req.points) is int


# ---------------------------------------------------------------------------
# sample


def test_sample_deterministic_given_seed(monkeypatch):
    argv = ["sample", "--stat", "sum", "--rates", "1,2", "--count", "64", "--seed", "7"]
    code_a, out_a, _ = run_cli(argv, monkeypatch)
    code_b, out_b, _ = run_cli(argv, monkeypatch)
    assert code_a == code_b == 0
    assert out_a == out_b
    header, rows = parse_csv(out_a)
    assert header == "value"
    assert len(rows) == 64
    assert all(v[0] > 0.0 for v in rows)


@pytest.mark.parametrize("count", [1, 2, 8191, 8192, 8193, 100_000])
def test_csv_blocks_match_per_row_formatting(count):
    # the rows are written GRID_BLOCK at a time; the text is that of one format(v, ".17g") per value
    rates = (0.3, 1.0, 2.5)
    out = io.StringIO()
    assert cli.cmd_sample("sum", rates, None, count, 31, out=out) == 0
    draws = sample_sum(rates, count, 31).values
    assert out.getvalue() == "\n".join(["value"] + [format(v, ".17g") for v in draws]) + "\n"
    if count < 2:
        return
    out = io.StringIO()
    assert cli.cmd_curve(cli.CurveRequest("sum", rates, None, 0.0, 12.0, count, "pdf"), out=out) == 0
    zz = np.linspace(0.0, 12.0, count)
    rows = [f"{format(z, '.17g')},{format(v, '.17g')}" for z, v in zip(zz, conv_pdf(rates, zz))]
    assert out.getvalue() == "\n".join(["z,value"] + rows) + "\n"


def test_sample_env_seed_matches_explicit_flag(monkeypatch):
    base = ["sample", "--stat", "min", "--rates", "1,2", "--count", "32"]
    _, via_flag, _ = run_cli(base + ["--seed", "99"], monkeypatch)
    _, via_env, _ = run_cli(base, monkeypatch, env_seed=99)
    assert via_flag == via_env


def test_sample_flag_overrides_env_seed(monkeypatch):
    base = ["sample", "--stat", "min", "--rates", "1,2", "--count", "32"]
    _, with_flag, _ = run_cli(base + ["--seed", "1"], monkeypatch, env_seed=2)
    _, env_only, _ = run_cli(base, monkeypatch, env_seed=2)
    _, flag_only, _ = run_cli(base + ["--seed", "1"], monkeypatch)
    assert with_flag == flag_only
    assert with_flag != env_only


def test_sample_default_seed_is_documented_constant(monkeypatch):
    base = ["sample", "--stat", "sum", "--rates", "1,2", "--count", "16"]
    _, default_out, _ = run_cli(base, monkeypatch)
    _, explicit_out, _ = run_cli(base + ["--seed", str(DEFAULT_SEED)], monkeypatch)
    assert default_out == explicit_out


def test_sample_rejects_bad_env_seed(monkeypatch):
    code, _, err = run_cli(
        ["sample", "--stat", "sum", "--rates", "1,2", "--count", "4"],
        monkeypatch,
        env_seed="not-a-number",
    )
    assert code == 2
    assert SEED_ENV_VAR in err


def test_sample_mean_sane(monkeypatch):
    code, out, _ = run_cli(
        ["sample", "--stat", "min", "--rates", "1,2", "--count", "100000", "--seed", "3"],
        monkeypatch,
    )
    assert code == 0
    _, rows = parse_csv(out)
    mean = float(np.mean([r[0] for r in rows]))
    assert abs(mean - 1.0 / 3.0) <= 3.0 * (1.0 / 3.0) / math.sqrt(100000)


def test_sample_order_requires_matching_r(monkeypatch):
    code, _, _ = run_cli(
        ["sample", "--stat", "order", "--rates", "1,2,3", "--count", "4"], monkeypatch
    )
    assert code == 2
    code, _, _ = run_cli(
        ["sample", "--stat", "sum", "--rates", "1,2", "--count", "4", "--r", "1"],
        monkeypatch,
    )
    assert code == 2
    code, out, _ = run_cli(
        [
            "sample",
            "--stat",
            "order",
            "--rates",
            "1,2,3",
            "--r",
            "2",
            "--count",
            "8",
            "--seed",
            "5",
        ],
        monkeypatch,
    )
    assert code == 0
    assert len(parse_csv(out)[1]) == 8


def test_sample_rejects_nonpositive_count(monkeypatch):
    code, _, _ = run_cli(
        ["sample", "--stat", "sum", "--rates", "1,2", "--count", "0"], monkeypatch
    )
    assert code == 2


def test_sample_refuses_a_fractional_order():
    # r = 1.9 drew the minimum
    with pytest.raises(DomainError, match="order r must be an integer"):
        cli.cmd_sample("order", (1.0, 2.0, 3.0), 1.9, 2, 1, out=io.StringIO())


# ---------------------------------------------------------------------------
# check


def test_check_passes_on_distinct_rates(monkeypatch):
    code, out, _ = run_cli(["check", "--rates", "1,2,3", "--seed", "11"], monkeypatch)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("INFO")
    verdicts = [ln for ln in lines if ln.startswith("CHECK ")]
    assert verdicts, out
    assert all(" PASS " in ln or ln.endswith("PASS") or " SKIP" in ln for ln in verdicts)
    assert any(" PASS" in ln for ln in verdicts)
    assert not any(" FAIL" in ln for ln in verdicts)


def test_check_reports_clusters_and_skips_identities(monkeypatch):
    code, out, _ = run_cli(["check", "--rates", "1,1,2", "--seed", "11"], monkeypatch)
    assert code == 0
    assert "SKIP" in out
    assert not any(" FAIL" in ln for ln in out.strip().split("\n"))


def test_check_oracle_triangle_holds_the_mixture_against_the_chain(monkeypatch):
    # 1,1,2 evaluates on the chain; the triangle's mixture vertex must still be checked
    assert sum_route((1.0, 1.0, 2.0))[0] == "phase-type"
    monkeypatch.setattr(cli, "conv_mixture", lambda rates: conv_mixture((1.0, 1.0, 2.0 * (1.0 + 1e-6))))
    passed, metric = cli._check_oracle_triangle(RateVector((1.0, 1.0, 2.0)), 11)
    assert passed is False, metric


def test_check_near_degenerate_exits_clean(monkeypatch):
    code, out, _ = run_cli(
        ["check", "--rates", "1,1.000000000001,3", "--seed", "11"], monkeypatch
    )
    assert code == 0, out
    assert not any(" FAIL" in ln for ln in out.strip().split("\n"))


@pytest.mark.parametrize("rates", [(1.0, 1.0005, 2.0), (1.0, 1.000001, 2.0), (1.0, 1.000000000001, 3.0)])
def test_check_transform_bound_follows_the_coefficients(rates):
    # an absolute 1e-12 failed on correct code: the linear combination's rounding grows with sum |A_n|;
    # at (1, 1 + 1e-12, 3), sum |A_n| = 3e12 puts the bound at 3, above the transform's modulus 1
    total = math.fsum(abs(a) for a in conv_coefficients(rates).coefficients)
    for seed in range(1, 13):
        passed, metric = cli._check_transform(RateVector(rates), seed)
        if 1e-12 * total >= 1.0:
            assert passed is None and metric.startswith("bound 3.000e+00 = 1e-12 sum|A_n| is not below 1"), metric
        else:
            assert passed, (seed, metric)
            assert ", bound " in metric


@pytest.mark.parametrize("rates", ["1,2,3", "1,1,4", "1,1.0005,2"])
def test_check_reports_the_route_sum_route_takes(monkeypatch, rates):
    _, out, _ = run_cli(["check", "--rates", rates, "--seed", "11"], monkeypatch)
    path = out.split("\n")[0].split("evaluation_path=")[1]
    assert path == sum_route([float(r) for r in rates.split(",")])[0]


def test_check_reports_a_typed_error_as_a_failure_and_runs_the_rest(monkeypatch):
    # rates near 1e-200: the variance sum 1/rate^2 overflows, so the oracle triangle's quantiles
    # raise CapacityError, which used to abort the suite after the INFO line
    code, out, err = run_cli(["check", "--rates", "1e-200,1.5e-200", "--seed", "11"], monkeypatch)
    assert code == 1 and err == "", err
    verdicts = {ln.split()[1]: ln.split()[2] for ln in out.strip().split("\n") if ln.startswith("CHECK ")}
    assert len(out.strip().split("\n")) == 8 and len(verdicts) == 7, out
    assert [name for name, verdict in verdicts.items() if verdict != "PASS"] == ["oracle_triangle"], out
    assert "CHECK oracle_triangle FAIL CapacityError: the mean and variance of a sum" in out


def test_check_passes_many_log_spaced_rates_on_the_chain(monkeypatch):
    # 48 rates log-spaced over 0.1..10: max|A_n| = 1.1e9, so the sum takes the chain, whose
    # quantiles answer where the closed form's residual raised NumericalError
    rates = ",".join(repr(float(x)) for x in np.geomspace(0.1, 10.0, 48))
    code, out, err = run_cli(["check", "--rates", rates, "--seed", "11"], monkeypatch)
    assert code == 0 and err == "", err
    assert out.split("\n")[0].endswith("evaluation_path=phase-type")
    assert "FAIL" not in out and out.count("\nCHECK ") == 7, out


def test_check_refuses_a_negative_seed_before_any_line(monkeypatch):
    # np.random.default_rng raised a ValueError traceback from inside the transform check
    code, out, err = run_cli(["check", "--rates", "1,2", "--seed", "-1"], monkeypatch)
    assert code == 2 and out == "", out
    assert "seed and stream_id must be non-negative" in err
    with pytest.raises(DomainError):
        cli.cmd_check((1.0, 2.0), -1, out=io.StringIO())


def test_identity_checks_skip_once_their_allowance_reaches_one():
    # 100 rates log-spaced over 0.1..10: max|A_n| = 5e20, so a 1e-8 max|A_n| tolerance and a
    # 1e-12 sum|A_n| bound pass anything at the transforms' scale of 1
    wide = RateVector(tuple(float(x) for x in np.geomspace(0.1, 10.0, 100)))
    status, detail = cli._check_identities(wide, 11)
    assert status is None and "= 1e-8 max|A_n| is not below 1 (max|A_n| = " in detail, detail
    status, detail = cli._check_transform(wide, 11)
    assert status is None and "= 1e-12 sum|A_n| is not below 1 (sum|A_n| = " in detail, detail
    narrow = RateVector(tuple(float(x) for x in np.geomspace(0.1, 10.0, 12)))  # max|A_n| = 24
    assert cli._check_identities(narrow, 11)[0] is True
    assert cli._check_transform(narrow, 11)[0] is True


def test_check_table_names_each_check_once_in_output_order():
    names = [name for name, _ in cli._CHECKS]
    assert names == [
        "coefficient_identities",
        "transform_equality",
        "normalization",
        "oracle_triangle",
        "min_ks",
        "max_ks",
        "min_range_independence",
    ]


def test_check_rejects_invalid_rates(monkeypatch):
    code, _, _ = run_cli(["check", "--rates", "1,0"], monkeypatch)
    assert code == 2


# ---------------------------------------------------------------------------
# process-level behaviour


def test_module_entry_point_round_trip():
    argv = [
        sys.executable,
        "-m",
        "expstat",
        "sample",
        "--stat",
        "max",
        "--rates",
        "0.5,1.5",
        "--count",
        "32",
        "--seed",
        "21",
    ]
    first = subprocess.run(argv, capture_output=True, timeout=120)
    second = subprocess.run(argv, capture_output=True, timeout=120)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.startswith(b"value\n")


def test_process_exit_code_for_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "expstat", "curve", "--stat", "sum", "--rates", "bad"],
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 2


def test_scipy_optimize_and_interpolate_stay_off_the_import_path():
    # No scipy module at all is loaded by the import, by closed-form, Erlang and order curves, by
    # sampling, by `check` (its quadrature oracle included), by the cdf of an Erlang (degree >= 1)
    # term, scalar or on a grid, or by a quantile on either route;
    # scipy.special alone was about 0.3 s and 25 MB of a cold process.
    script = (
        "import io, sys, contextlib\n"
        "import numpy as np\n"
        "import expstat, expstat.cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    for argv in (\n"
        "        ['curve', '--stat', 'sum', '--rates', '1,2,3', '--points', '11'],\n"
        "        ['curve', '--stat', 'sum', '--quantity', 'cdf', '--rates', '1,2,3', '--points', '11'],\n"
        "        ['curve', '--stat', 'sum', '--quantity', 'cdf', '--rates', '1,1,2', '--points', '11'],\n"
        "        ['curve', '--stat', 'order', '--r', '2', '--rates', '1,2,3', '--points', '11'],\n"
        "        ['curve', '--stat', 'max', '--quantity', 'cdf', '--rates', '1,2,3', '--points', '11'],\n"
        "        ['sample', '--stat', 'sum', '--rates', '1,2,3', '--count', '1000'],\n"
        "        ['check', '--rates', '1,2,3'],\n"
        "        ['check', '--rates', '1,1,2'],\n"
        "    ):\n"
        "        assert expstat.cli.main(argv) == 0, argv\n"
        "expstat.conv_quantile((1.0, 1.0005, 2.0), 0.5)\n"
        "expstat.conv_quantile((1.0, 1.0, 2.0), 0.5)\n"
        "expstat.conv_cdf((1.0, 1.0, 2.0), 1.0)\n"
        "expstat.conv_cdf((1.0, 1.0, 2.0), np.linspace(0.0, 5.0, 101))\n"
        "erlang = expstat.conv_mixture((1.0, 1.0, 2.0))\n"
        "expstat.mixture_cdf(erlang, 1.0)\n"
        "expstat.mixture_cdf(erlang, np.linspace(0.0, 5.0, 101))\n"
        "expstat.mixture_quantile(erlang, 0.5)\n"
        "print('loaded:', *[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["loaded:"]


def test_cli_commands_leave_numpy_ma_unloaded():
    # np.quantile and np.unique import numpy.ma, about 20 ms and 4.5 MB of a cold process
    script = (
        "import io, sys, contextlib\n"
        "import expstat.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (\n"
        "        ['curve', '--stat', 'sum', '--rates', '1,2,3', '--points', '11'],\n"
        "        ['sample', '--stat', 'sum', '--rates', '1,2,3', '--count', '1000'],\n"
        "        ['check', '--rates', '1,2'],\n"
        "        ['check', '--rates', '1,2,3'],\n"
        "    ):\n"
        "        assert expstat.cli.main(argv) == 0, argv\n"
        "print('loaded:', *[m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')])\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["loaded:"]
