"""Seeded request generators, the library calls they time, and their checks.

A request is generated from (seed, index) alone, so a run that gets further
sees the same inputs as a shorter run up to the point where it stopped.  The
kind of request (statistic, quantity, N) depends on the index only and
repeats every ``CYCLES[workload]`` requests; a run times whole cycles, so
every run of a workload times the same mix of kinds.  Each request has three
parts:

* ``call``: the timed part, library calls only;
* ``reduce``: untimed, turns the output into a small record (a seeded subset
  of points, batch statistics), so memory stays flat over a run;
* ``check``: run after the timed loop, compares the record with the mpmath
  reference in ``oracle`` and returns a list of failures, each a pair
  (kind, detail); the kinds are what ``baseline.py`` keeps track of.

Library functions are always looked up through their module at call time
(``expstat.cli._curve_values``), never bound at import, so the tracer's
wrappers see every call.

Budgets (the repository's own acceptance tolerances):

* densities and cdfs: |value - ref| <= 1e-7 * max(|ref|, 1e-3 * peak), where
  peak is 1 for a cdf and the reference density at the curve's arg-max for a
  pdf; the floor keeps the deep tails, where double precision carries only
  absolute accuracy, from demanding more than 1e-10 of the peak;
* quantiles: |F_ref(q) - p| <= 1e-10;
* goodness of fit: KS statistic at most the level-1e-6 critical value
  sqrt(ln(2/1e-6)/2)/sqrt(n), both the library's statistic and one computed
  here from the mpmath cdf on a seeded subset of the sample.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import expstat.cli
import expstat.convolution
import expstat.core
import expstat.montecarlo
import expstat.orderstats

import oracle

REL_BUDGET = 1e-7
PEAK_FLOOR = 1e-3
QUANTILE_RESIDUAL = 1e-10
KS_LEVEL = 1e-6
KS_CRITICAL = math.sqrt(math.log(2.0 / KS_LEVEL) / 2.0)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RATE_LOW, RATE_HIGH = 0.1, 10.0
MIN_SEPARATION = 1e-2
# Sums of these sizes get exact repeats (the Erlang-block path): about a
# quarter of the sums, fixed by N so that every run has the same share.
REPEAT_SIZES = (4, 8, 12)

CURVE_KINDS = tuple((s, q) for s in ("sum", "min", "max", "order") for q in ("pdf", "cdf"))
NEAR_GAPS = (1e-4, 5e-4, 1.1e-3, 2e-3, 1e-2)
QUANTILE_LEVELS = tuple(round(0.05 * k, 2) for k in range(1, 20))
CURVE_CHECK_POINTS = 6
SAMPLE_CHECK_POINTS = 48


Failure = tuple[str, str]


@dataclass
class Request:
    index: int
    family: str
    call: Callable[[], object]
    reduce: Callable[[object], dict]
    check: Callable[[dict], list[Failure]]
    size: int
    subprocess: bool = False


def request_rng(seed: int, index: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(index), int(stream)])


def separated_rates(rng: np.random.Generator, n: int, distinct: int | None = None) -> tuple[float, ...]:
    """n log-uniform rates over [0.1, 10]; distinct values at least 1% apart.

    With ``distinct`` < n only that many values are drawn and the rest are
    exact copies, taken in turn, which sends the sum law down the
    Erlang-block path.
    """
    k = distinct or n
    while True:
        values = np.sort(np.exp(rng.uniform(math.log(RATE_LOW), math.log(RATE_HIGH), k)))
        if k == 1 or float(np.min(np.diff(values) / values[1:])) >= MIN_SEPARATION:
            break
    if k < n:
        values = values[np.arange(n) % k]
    rng.shuffle(values)
    return tuple(float(v) for v in values)


def curve_range(statistic: str, rates) -> float:
    if statistic == "min":
        return 8.0 / math.fsum(rates)
    mean = math.fsum(1.0 / r for r in rates)
    return mean + 6.0 * math.sqrt(math.fsum(1.0 / (r * r) for r in rates))


# ---------------------------------------------------------------------------
# checks


def _within(value: float, ref: float, scale: float) -> bool:
    return abs(value - ref) <= REL_BUDGET * max(abs(ref), PEAK_FLOOR * scale)


def reduce_curve(values, zz: np.ndarray, quantity: str, rng: np.random.Generator) -> dict:
    values = np.asarray(values, dtype=np.float64)
    if values.shape != zz.shape:
        return {"error": ("shape", f"{values.shape} != {zz.shape}")}
    if not np.all(np.isfinite(values)):
        return {"error": ("non-finite values", f"{int(np.sum(~np.isfinite(values)))} of {values.size}")}
    n = zz.size
    picks = {0, n - 1, *(int(i) for i in rng.choice(n, CURVE_CHECK_POINTS, replace=False))}
    peak_index = int(np.argmax(values)) if quantity == "pdf" else None
    if peak_index is not None:
        picks.add(peak_index)
    idx = sorted(picks)
    return {"z": zz[idx].tolist(), "v": values[idx].tolist(), "peak_z": None if peak_index is None else float(zz[peak_index])}


def check_curve(record: dict, reference, quantity: str) -> list[Failure]:
    """The first point off the reference, as kind ``z=0`` or ``z>0``."""
    if "error" in record:
        return [tuple(record["error"])]
    if quantity == "cdf":
        scale = 1.0
        if any(v < 0.0 or v > 1.0 for v in record["v"]):
            return [("cdf outside [0, 1]", f"{min(record['v'])!r}..{max(record['v'])!r}")]
    else:
        scale = reference(record["peak_z"])
        if any(v < 0.0 for v in record["v"]):
            return [("negative density", f"{min(record['v'])!r}")]
    for z, v in zip(record["z"], record["v"]):
        ref = reference(z)
        if not _within(v, ref, scale):
            return [("z=0" if z == 0.0 else "z>0", f"z={z:.6g}: {v!r} vs reference {ref!r}")]
    return []


def cdf_values(cdf, x: np.ndarray) -> np.ndarray:
    """Evaluate a scalar or vectorized cdf on x, the way ``montecarlo.ks_test`` does."""
    try:
        values = np.asarray(cdf(x), dtype=np.float64)
        if values.shape == x.shape:
            return values
    except (TypeError, ValueError):
        pass
    return np.array([float(cdf(v)) for v in x])


def reduce_sample(values: np.ndarray, count: int, cdf_lib, rng: np.random.Generator) -> dict:
    """Keep a seeded subset of the sorted sample with its ranks and library cdf values."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (count,):
        return {"error": ("draw count", f"{values.size} draws, expected {count}")}
    if not np.all(np.isfinite(values)) or np.any(values < 0.0):
        return {"error": ("draw values", "draws not finite and non-negative")}
    ordered = np.sort(values)
    ranks = sorted({0, count - 1, *(int(i) for i in rng.choice(count, SAMPLE_CHECK_POINTS, replace=False))})
    x = ordered[ranks]
    record = {"n": count, "rank": ranks, "x": x.tolist()}
    if cdf_lib is not None:
        record["cdf_lib"] = cdf_values(cdf_lib, x).tolist()
    return record


def check_sample(record: dict, reference) -> list[Failure]:
    """KS distance on the kept subset against the reference cdf, plus the library's cdf values."""
    if "error" in record:
        return [tuple(record["error"])]
    failures = []
    n = record["n"]
    critical = KS_CRITICAL / math.sqrt(n)
    worst = 0.0
    for i, (rank, x) in enumerate(zip(record["rank"], record["x"])):
        ref = reference(x)
        worst = max(worst, (rank + 1) / n - ref, ref - rank / n)
        if "cdf_lib" in record and not failures and not _within(record["cdf_lib"][i], ref, 1.0):
            failures.append(("library cdf", f"at {x:.6g}: {record['cdf_lib'][i]!r} vs reference {ref!r}"))
    if worst > critical:
        failures.append(("subset KS", f"distance {worst:.5f} > critical {critical:.5f} (level {KS_LEVEL:g})"))
    return failures


def check_ks_report(report, n: int) -> list[Failure]:
    if report.n != n:
        return [("KS count", f"KS report counts {report.n} draws, expected {n}")]
    critical = KS_CRITICAL / math.sqrt(n)
    if not report.ks_statistic <= critical:
        return [("KS statistic", f"{report.ks_statistic:.5f} > critical {critical:.5f} (level {KS_LEVEL:g})")]
    return []


# ---------------------------------------------------------------------------
# in-process curves (the library path behind `expstat curve`, without CSV)


def curve_values(statistic: str, quantity: str, rates, r, z_max: float, points: int):
    cli = expstat.cli
    req = cli.CurveRequest(statistic, rates, r, 0.0, z_max, points, quantity)
    return cli._curve_values(req, np.linspace(0.0, z_max, points))


def curve_request(index: int, family: str, statistic: str, quantity: str, rates, r, points: int, rng) -> Request:
    z_max = curve_range(statistic, rates)
    zz = np.linspace(0.0, z_max, points)
    reference = oracle.law(statistic, quantity, rates, r)
    return Request(
        index,
        family,
        call=lambda: curve_values(statistic, quantity, rates, r, z_max, points),
        reduce=lambda out: reduce_curve(out, zz, quantity, rng),
        check=lambda rec: check_curve(rec, reference, quantity),
        size=len(rates),
    )


def grid_curves(seed: int, index: int) -> Request:
    """4001-point pdf/cdf curves; the kind cycles every 8 requests, N every 11.

    Exact repeats are drawn only for the sum, whose Erlang-block path they
    exercise (family ``sum.<quantity>.erlang``, else ``.closed``); the
    maximum keeps all 2^N - 1 distinct subset sums, so its memory peak does
    not depend on the draw.  The order r and the number of distinct rates
    follow the cycle number, so runs with other seeds time the same shapes.
    """
    rng = request_rng(seed, index)
    turn = index // CYCLES["grid_curves"]
    statistic, quantity = CURVE_KINDS[index % len(CURVE_KINDS)]
    n = 12 - index % 11
    r = None
    if statistic == "order":
        n = max(n, 3)
        r = 2 + (turn + n) % (n - 2)
    repeats = statistic == "sum" and n in REPEAT_SIZES
    rates = separated_rates(rng, n, 1 + (turn + n) % (n - 1) if repeats else None)
    family = f"{statistic}.{quantity}" + ((".erlang" if repeats else ".closed") if statistic == "sum" else "")
    return curve_request(index, family, statistic, quantity, rates, r, 4001, rng)


# ---------------------------------------------------------------------------
# near-equal sums


def near_equal_rates(rng, family: int, n: int) -> tuple[tuple[float, ...], str]:
    base = math.exp(rng.uniform(math.log(RATE_LOW), math.log(RATE_HIGH)))
    if family < len(NEAR_GAPS):
        g = NEAR_GAPS[family]
        rates = [base * (1.0 + g) ** i for i in range(n)]
        label = f"g={g:g}"
    else:
        # an exact-repeat cluster next to a near-equal chain
        g = NEAR_GAPS[n % len(NEAR_GAPS)]
        m = max(2, n // 2)
        rates = [base] * m + [base * (1.0 + g) ** i for i in range(1, n - m + 1)]
        label = f"cluster+g={g:g}"
    rng.shuffle(rates)
    return tuple(float(x) for x in rates), label


def quantile_sweep(rates) -> list:
    """conv_quantile at every level; a level that raises yields its exception.

    Every level is attempted, so a request costs the same whether or not an
    early level fails.
    """
    conv = expstat.convolution
    values = []
    for p in QUANTILE_LEVELS:
        try:
            values.append(conv.conv_quantile(rates, p))
        except expstat.ExpstatError as exc:
            values.append(exc)
    return values


def check_quantiles(values, rates) -> list[Failure]:
    """The first failing level, as kind ``quantile <exception type>``, ``quantile value`` or ``quantile residual``."""
    if len(values) != len(QUANTILE_LEVELS):
        return [("quantile count", f"{len(values)} quantiles, expected {len(QUANTILE_LEVELS)}")]
    for p, q in zip(QUANTILE_LEVELS, values):
        if isinstance(q, list):
            return [(f"quantile {q[0]}", f"level {p}: {q[1]}")]
        if not (math.isfinite(q) and q >= 0.0):
            return [("quantile value", f"level {p}: {q!r}")]
        residual = abs(oracle.sum_cdf(rates, q) - p)
        if residual > QUANTILE_RESIDUAL:
            return [("quantile residual", f"level {p}: cdf residual {residual:.3e} > {QUANTILE_RESIDUAL:g}")]
    return []


def near_equal(seed: int, index: int) -> Request:
    """One near-equal rate vector per request: 401-point sum pdf and cdf curves
    and a 19-level quantile sweep, all through the library's public paths.

    The family (five gaps, then the cluster family) and N (3..8) follow a
    Latin square, so every six consecutive requests cover each family and
    each N once and the full 36-request cycle covers every pair.
    """
    rng = request_rng(seed, index)
    families = len(NEAR_GAPS) + 1
    family = index % families
    n = 3 + (index + index // families) % 6
    rates, label = near_equal_rates(rng, family, n)
    z_max = curve_range("sum", rates)
    zz = np.linspace(0.0, z_max, 401)
    pdf_ref = oracle.law("sum", "pdf", rates)
    cdf_ref = oracle.law("sum", "cdf", rates)

    def call():
        return (
            curve_values("sum", "pdf", rates, None, z_max, 401),
            curve_values("sum", "cdf", rates, None, z_max, 401),
            quantile_sweep(rates),
        )

    def reduce(out):
        pdf, cdf, quantiles = out
        return {
            "pdf": reduce_curve(pdf, zz, "pdf", rng),
            "cdf": reduce_curve(cdf, zz, "cdf", rng),
            "q": [[type(q).__name__, str(q)] if isinstance(q, Exception) else float(q) for q in quantiles],
        }

    def check(rec):
        return (
            [(f"pdf {kind}", detail) for kind, detail in check_curve(rec["pdf"], pdf_ref, "pdf")]
            + [(f"cdf {kind}", detail) for kind, detail in check_curve(rec["cdf"], cdf_ref, "cdf")]
            + check_quantiles(rec["q"], rates)
        )

    return Request(index, label, call=call, reduce=reduce, check=check, size=n)


# ---------------------------------------------------------------------------
# seeded sampling with goodness of fit

VALIDATE_KINDS = ("sum", "min", "max", "order", "pairs")
DRAWS = {"sum": 100_000, "min": 100_000, "max": 100_000, "order": 10_000, "pairs": 200_000}


def library_cdf(kind: str, rates, r):
    """The library's cdf that a batch of this kind is tested against (scalar or vectorized)."""
    if kind == "sum":
        mixture = expstat.convolution.conv_mixture(rates)
        return lambda x: expstat.core.mixture_cdf_grid(mixture, x)
    if kind == "min":
        rate = expstat.orderstats.min_law(rates).rate
        return lambda x: -np.expm1(-rate * x)
    if kind == "max":
        lam = np.asarray(rates)
        return lambda x: np.prod(-np.expm1(-lam[None, :] * x[:, None]), axis=1)
    req = expstat.orderstats.OrderStatisticRequest(rates, r)
    return lambda x: expstat.orderstats.order_statistic_cdf(req, float(x))


SAMPLERS = {"sum": "sample_sum", "min": "sample_min", "max": "sample_max"}


def _validate_batch(kind: str, rates, r, seed: int, count: int):
    mc = expstat.montecarlo
    if kind == "order":
        batch = mc.sample_order(rates, r, count, seed)
    else:
        batch = getattr(mc, SAMPLERS[kind])(rates, count, seed)
    return batch, mc.ks_test(batch, library_cdf(kind, rates, r))


def _validate_pairs(rates, seed: int, count: int):
    mc = expstat.montecarlo
    pairs = mc.sample_min_range_pairs(rates[0], rates[1], count, seed)
    return pairs, mc.factorization_test(pairs)


def validate(seed: int, index: int) -> Request:
    """Seeded draws plus goodness of fit; kind cycles every 5 requests.

    N runs over 2..8 so that each kind meets every N once in 35 requests;
    as in ``grid_curves`` the order r and the number of distinct rates follow
    the cycle number.
    Sums with exact repeats (the Erlang-block path) form the family
    ``sum.erlang``, the others ``sum.closed``.
    """
    rng = request_rng(seed, index)
    turn = index // CYCLES["validate"]
    kind = VALIDATE_KINDS[index % len(VALIDATE_KINDS)]
    n = 2 if kind == "pairs" else 2 + (index + index // len(VALIDATE_KINDS)) % 7
    repeats = kind == "sum" and n in REPEAT_SIZES
    rates = separated_rates(rng, n, 1 + (turn + n) % (n - 1) if repeats else None)
    r = 1 + (turn + n) % n if kind == "order" else None
    draw_seed = int(rng.integers(2**31))
    count = DRAWS[kind]
    sample_rng = request_rng(seed, index, 1)

    if kind == "pairs":

        def reduce(out):
            pairs, report = out
            if pairs.shape != (count, 2):
                return {"error": ("pairs shape", f"{pairs.shape}")}
            return {
                "passed": bool(report.passed),
                "deviation": float(report.max_deviation),
                "min": reduce_sample(pairs[:, 0], count, None, sample_rng),
                "range": reduce_sample(pairs[:, 1], count, None, sample_rng),
            }

        def check(rec):
            if "error" in rec:
                return [tuple(rec["error"])]
            failures = [] if rec["passed"] else [("factorization", f"deviation {rec['deviation']:.5f}")]
            failures += [(f"min {k}", d) for k, d in check_sample(rec["min"], lambda z: oracle.min_cdf(rates, z))]
            range_ref = lambda z: oracle.range2_cdf(rates[0], rates[1], z)  # noqa: E731
            return failures + [(f"range {k}", d) for k, d in check_sample(rec["range"], range_ref)]

        return Request(index, "pairs", call=lambda: _validate_pairs(rates, draw_seed, count), reduce=reduce, check=check, size=n)

    reference = oracle.law(kind, "cdf", rates, r)
    family = f"sum.{'erlang' if repeats else 'closed'}" if kind == "sum" else kind

    def reduce(out):
        batch, report = out
        record = reduce_sample(batch.values, count, library_cdf(kind, rates, r), sample_rng)
        record["ks"] = check_ks_report(report, count)
        return record

    def check(rec):
        return rec.get("ks", []) + check_sample(rec, reference)

    return Request(index, family, call=lambda: _validate_batch(kind, rates, r, draw_seed, count), reduce=reduce, check=check, size=n)


# ---------------------------------------------------------------------------
# cold command-line calls

CHECK_SIZES = (2, 3, 8)
CLI_CYCLE = 3 + len(CHECK_SIZES)
# The order-statistic sampler costs about twice the others at N=8; it is
# timed in-process by `validate`, and left out here so that every cycle
# costs about the same.
CLI_SAMPLES = ("sum", "min", "max")
CHECK_NAMES = (
    "coefficient_identities",
    "transform_equality",
    "normalization",
    "oracle_triangle",
    "min_ks",
    "max_ks",
    "min_range_independence",
)


def _rates_arg(rates) -> str:
    return ",".join(repr(x) for x in rates)


def run_cli(argv: list[str], traced_summary: str | None = None):
    """One cold `python -m expstat` call; returns (exit code, stdout, stderr).

    With ``traced_summary`` the call goes through cli_child.py and leaves its
    spans in that file.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("EXPSTAT_SEED", None)
    if traced_summary is None:
        cmd = [sys.executable, "-m", "expstat", *argv]
    else:
        child = os.path.join(ROOT, "benchmarks", "cli_child.py")
        cmd = [sys.executable, child, traced_summary, *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=150)
    return proc.returncode, proc.stdout, proc.stderr


def cli(seed: int, index: int) -> Request:
    """Cycles of six cold calls: two 4001-point curves, one 1e5-row sample and
    ``check`` at N = 2, 3 and 8.

    Across cycles the curves run through pdf and cdf of every statistic and
    the sample through ``CLI_SAMPLES``; curve and sample N run over 2..8.
    """
    rng = request_rng(seed, index)
    cycle, position = divmod(index, CLI_CYCLE)
    if position < 2:
        statistic, quantity = CURVE_KINDS[(2 * cycle + 3 * position) % len(CURVE_KINDS)]
        n = 2 + cycle % 7
        r = None
        if statistic == "order":
            n = max(n, 3)
            r = 2 + (cycle + n) % (n - 2)
        rates = separated_rates(rng, n)
        z_max = curve_range(statistic, rates)
        zz = np.linspace(0.0, z_max, 4001)
        argv = ["curve", "--stat", statistic, "--rates", _rates_arg(rates), "--quantity", quantity]
        argv += ["--range", f"0:{z_max!r}", "--points", "4001"] + ([] if r is None else ["--r", str(r)])
        reference = oracle.law(statistic, quantity, rates, r)

        def reduce(out):
            code, stdout, _ = out
            if code != 0:
                return {"error": ("exit code", f"{code}")}
            lines = stdout.decode().split("\n")
            if lines[0] != "z,value" or lines[-1] != "" or len(lines) != 4003:
                return {"error": ("malformed CSV", f"{len(lines)} lines")}
            table = np.array([row.split(",") for row in lines[1:-1]], dtype=np.float64)
            if not np.array_equal(table[:, 0], zz):
                return {"error": ("grid column", "differs from the requested grid")}
            return reduce_curve(table[:, 1], zz, quantity, rng)

        return Request(
            index,
            f"curve.{statistic}.{quantity}",
            call=lambda summary=None: run_cli(argv, summary),
            reduce=reduce,
            check=lambda rec: check_curve(rec, reference, quantity),
            size=n,
            subprocess=True,
        )

    if position == 2:
        statistic = CLI_SAMPLES[cycle % len(CLI_SAMPLES)]
        n = 2 + cycle % 7
        rates = separated_rates(rng, n)
        count = 100_000
        argv = ["sample", "--stat", statistic, "--rates", _rates_arg(rates), "--count", str(count)]
        argv += ["--seed", str(int(rng.integers(2**31)))]
        reference = oracle.law(statistic, "cdf", rates)

        def reduce(out):
            code, stdout, _ = out
            if code != 0:
                return {"error": ("exit code", f"{code}")}
            lines = stdout.decode().split("\n")
            if lines[0] != "value" or lines[-1] != "":
                return {"error": ("malformed CSV", f"{len(lines)} lines")}
            return reduce_sample(np.array(lines[1:-1], dtype=np.float64), count, None, rng)

        return Request(
            index,
            f"sample.{statistic}",
            call=lambda summary=None: run_cli(argv, summary),
            reduce=reduce,
            check=lambda rec: check_sample(rec, reference),
            size=n,
            subprocess=True,
        )

    n = CHECK_SIZES[position - 3]
    rates = separated_rates(rng, n)
    argv = ["check", "--rates", _rates_arg(rates), "--seed", str(int(rng.integers(2**31)))]

    def reduce(out):
        code, stdout, _ = out
        verdicts = {}
        for line in stdout.decode().splitlines():
            parts = line.split(" ", 3)
            if parts[0] == "CHECK":
                verdicts[parts[1]] = (parts[2], parts[3] if len(parts) > 3 else "")
        return {"code": code, "verdicts": verdicts}

    def check(rec):
        """One failure per failing check name; the exit code must say whether any failed."""
        failures = [(name, detail) for name, (status, detail) in rec["verdicts"].items() if status == "FAIL"]
        if (rec["code"] != 0) != bool(failures):
            failures.append(("exit code", f"{rec['code']}"))
        if set(rec["verdicts"]) != set(CHECK_NAMES):
            failures.append(("check names", f"{sorted(rec['verdicts'])}"))
        if any(status not in ("PASS", "SKIP", "FAIL") for status, _ in rec["verdicts"].values()):
            failures.append(("verdict", "unexpected verdict"))
        return failures

    return Request(
        index,
        "check",
        call=lambda summary=None: run_cli(argv, summary),
        reduce=reduce,
        check=check,
        size=n,
        subprocess=True,
    )


WORKLOADS = {
    "grid_curves": grid_curves,
    "near_equal": near_equal,
    "validate": validate,
    "cli": cli,
}
# Requests after which the sequence of request kinds repeats.
CYCLES = {
    "grid_curves": len(CURVE_KINDS) * 11,
    "near_equal": (len(NEAR_GAPS) + 1) * 6,
    "validate": len(VALIDATE_KINDS) * 7,
    "cli": CLI_CYCLE,
}


# ---------------------------------------------------------------------------
# warm-up: one small call per code path, so the timed loop starts warm


def warm_up(workload: str) -> None:
    rates = (0.5, 1.5, 2.5)
    if workload in ("grid_curves", "near_equal"):
        for statistic, quantity in CURVE_KINDS:
            curve_values(statistic, quantity, rates, 2 if statistic == "order" else None, 5.0, 101)
        curve_values("sum", "pdf", (1.0, 1.0001, 2.0), None, 5.0, 11)
        quantile_sweep(rates)
        quantile_sweep((1.0, 1.0001, 2.0))
    elif workload == "validate":
        for kind in ("sum", "min", "max", "order"):
            _validate_batch(kind, rates, 2 if kind == "order" else None, 1, 1000)
        _validate_pairs(rates, 1, 10_000)
    else:
        import io

        sink = io.StringIO()
        req = expstat.cli.CurveRequest("sum", rates, None, 0.0, 5.0, 11, "pdf")
        expstat.cli.cmd_curve(req, out=sink)
        expstat.cli.cmd_sample("sum", rates, None, 100, 1, out=sink)
