"""Command-line interface.

Three subcommands:

* ``curve``: evaluate the pdf or cdf of the sum, min, max, or r-th order
  statistic on an equally spaced grid, emitting ``z,value`` CSV rows with 17
  significant digits (bit-exact round trip).
* ``sample``: seeded draws of the same statistics, one value per row.
* ``check``: run the verification suite on the given rates, one CHECK line
  per entry of the ``_CHECKS`` table (coefficient identities, transform
  equality, normalization, oracle triangle, KS tests and the min/range
  independence check), each ending in PASS, FAIL or SKIP with its metric.
  An identity check whose allowance, scaled by the coefficients' size, is
  not below 1 (the transforms' own scale) cannot fail and is skipped.

Argument rules live in the library: its DomainError or CapacityError on an
argument is a usage error.

Exit status: 0 on success, 1 when a ``check`` fails, 2 on usage errors.
The EXPSTAT_SEED environment variable supplies the default seed; an explicit
``--seed`` flag overrides it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .convolution import (
    char_fn_linear_combination,
    char_fn_product,
    conv_cdf,
    conv_coefficients,
    conv_mixture,
    conv_pdf,
    conv_pdf_phase_type,
    conv_quantile,
    sum_route,
)
from .core import (
    GRID_BLOCK,
    RatesLike,
    RateVector,
    _check_count,
    _check_points,
    _term_values,
    as_rate_vector,
    mixture_eval,
    mixture_moment,
)
from .errors import CapacityError, DomainError, ExpstatError
from .montecarlo import (
    factorization_test,
    ks_test,
    make_stream,
    sample_max,
    sample_min,
    sample_min_range_pairs,
    sample_order,
    sample_sum,
)
from .orderstats import (
    OrderStatisticRequest,
    max_cdf,
    max_pdf,
    min_cdf,
    min_pdf,
    order_statistic_cdf,
    order_statistic_pdf,
)
from .quadrature import sum_pdf_quadrature

DEFAULT_SEED = 1729
SEED_ENV_VAR = "EXPSTAT_SEED"

_STATISTICS = ("sum", "min", "max", "order")
_QUANTITIES = ("pdf", "cdf")


def _check_statistic(statistic: str, r) -> None:
    """DomainError unless statistic is one of _STATISTICS, with an order r given exactly for "order"."""
    if statistic not in _STATISTICS:
        raise DomainError(f"statistic must be one of {_STATISTICS}, got {statistic!r}")
    if (r is not None) != (statistic == "order"):
        raise DomainError("--r is required for --stat order and not allowed otherwise")


@dataclass(frozen=True)
class CurveRequest:
    """Validated request for an equally spaced pdf/cdf curve."""

    statistic: str
    rates: RateVector
    r: Optional[int]
    z_min: float
    z_max: float
    points: int
    quantity: str

    def __post_init__(self) -> None:
        _check_statistic(self.statistic, self.r)
        if self.quantity not in _QUANTITIES:
            raise DomainError(f"quantity must be one of {_QUANTITIES}, got {self.quantity!r}")
        object.__setattr__(self, "rates", as_rate_vector(self.rates))
        z_min, z_max = _check_points(self.z_min, "z_min"), _check_points(self.z_max, "z_max")
        if not (isinstance(z_min, float) and isinstance(z_max, float) and z_min < z_max):
            raise DomainError(f"range must satisfy 0 <= z_min < z_max, got {self.z_min}:{self.z_max}")
        points = _check_count(self.points, "points", 2)
        for name, value in (("z_min", z_min), ("z_max", z_max), ("points", points)):
            object.__setattr__(self, name, value)
        if self.statistic == "order":
            OrderStatisticRequest(self.rates, self.r)


def _write_rows(out, header: str, table: np.ndarray) -> None:
    """Write the header, then each row of the (rows, columns) table as comma-separated %.17g values.

    One %-format per GRID_BLOCK rows, so the text held at once is O(GRID_BLOCK)
    rows; %.17g gives the characters of format(v, ".17g").
    """
    out.write(header + "\n")
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    for start in range(0, table.shape[0], GRID_BLOCK):
        rows = table[start : start + GRID_BLOCK]
        out.write((row * rows.shape[0]) % tuple(rows.ravel().tolist()))


def _curve_values(req: CurveRequest, zz: np.ndarray) -> np.ndarray:
    rv = req.rates
    statistic = req.statistic
    if statistic == "order" and req.r in (1, rv.n):
        # the extreme orders are the minimum and the maximum, whose kernels take the whole grid
        statistic = "min" if req.r == 1 else "max"
    if statistic == "order":
        law = order_statistic_pdf if req.quantity == "pdf" else order_statistic_cdf
        req_order = OrderStatisticRequest(rv, req.r)
        return np.array([law(req_order, float(z)) for z in zz])
    # built per call, so the kernels are looked up when the curve is evaluated
    pdf, cdf = {"sum": (conv_pdf, conv_cdf), "min": (min_pdf, min_cdf), "max": (max_pdf, max_cdf)}[statistic]
    return (pdf if req.quantity == "pdf" else cdf)(rv, zz)


def cmd_curve(req: CurveRequest, out=None) -> int:
    """Write the requested curve as ``z,value`` CSV to standard output."""
    out = out if out is not None else sys.stdout
    zz = np.linspace(req.z_min, req.z_max, req.points)
    _write_rows(out, "z,value", np.column_stack((zz, _curve_values(req, zz))))
    return 0


def cmd_sample(statistic: str, rates: RatesLike, r: Optional[int], count: int, seed: int, out=None) -> int:
    """Write seeded draws of the requested statistic, one value per row.

    Memory is O(SAMPLE_BLOCK x N + count): the sampler's block of draws, the
    count values and GRID_BLOCK rows of text at a time.
    """
    out = out if out is not None else sys.stdout
    rv = as_rate_vector(rates)
    _check_statistic(statistic, r)
    samplers = {"sum": sample_sum, "min": sample_min, "max": sample_max}
    samplers["order"] = lambda rv, count, seed: sample_order(rv, r, count, seed)
    batch = samplers[statistic](rv, count, seed)
    _write_rows(out, "value", batch.values[:, None])
    return 0


# ---------------------------------------------------------------------------
# the check suite


def _check_identities(rv: RateVector, seed: int) -> tuple[Optional[bool], str]:
    if not rv.is_distinct:
        return None, "repeated rates, no distinct-rate coefficients"
    coeffs = conv_coefficients(rv)
    kappa = coeffs.condition_estimate
    tol = 1e-8 * kappa
    if tol >= 1.0:
        return None, f"tolerance {tol:.3e} = 1e-8 max|A_n| is not below 1 (max|A_n| = {kappa:.3e})"
    a, lam = np.asarray(coeffs.coefficients), np.asarray(coeffs.rates)
    worst = abs(math.fsum(a) - 1.0) / tol
    for k in range(1, rv.n):
        residual = abs(math.fsum(a * lam**k))
        worst = max(worst, residual / (tol * np.max(lam) ** k))
    # the transform identity at the real Laplace point 0.5 min(rates), where both sides are real
    t = -0.5j * min(rv.rates)
    worst = max(worst, abs(char_fn_linear_combination(rv, t) - char_fn_product(rv, t)) / tol)
    return worst <= 1.0, f"worst residual ratio {worst:.3e}"


def _check_transform(rv: RateVector, seed: int) -> tuple[Optional[bool], str]:
    if not rv.is_distinct:
        return None, "repeated rates, no distinct-rate coefficients"
    # the linear combination rounds each term to about eps |A_n|, so its error grows with
    # sum |A_n|, which is never below sum A_n = 1
    total = math.fsum(abs(a) for a in conv_coefficients(rv).coefficients)
    bound = 1e-12 * total
    if bound >= 1.0:
        return None, f"bound {bound:.3e} = 1e-12 sum|A_n| is not below 1 (sum|A_n| = {total:.3e})"
    rng = np.random.default_rng(seed)
    t_max = 10.0 * max(rv.rates)
    worst = 0.0
    for t in rng.uniform(-t_max, t_max, size=100):
        worst = max(worst, abs(char_fn_product(rv, float(t)) - char_fn_linear_combination(rv, float(t))))
    return worst <= bound, f"max abs diff {worst:.3e}, bound {bound:.3e}"


def _check_normalization(rv: RateVector, seed: int) -> tuple[Optional[bool], str]:
    route, form = sum_route(rv)
    if route == "phase-type":
        far = conv_quantile(rv, 0.5) * 40.0
        err = abs(conv_cdf(rv, far) - 1.0)
        return err <= 1e-9, f"|cdf(far) - 1| = {err:.3e} (phase path)"
    # the closed form's own total mass: the cdf is clipped to [0, 1], so it would hide sum A_n > 1
    err = abs(mixture_moment(form, 0) - 1.0)
    return err <= 1e-10, f"max |integral - 1| = {err:.3e}"


def _check_oracle_triangle(rv: RateVector, seed: int) -> tuple[Optional[bool], str]:
    # three independent forms on every route: the chain, the signed mixture and the quadrature
    z = np.array([conv_quantile(rv, p) for p in np.linspace(0.05, 0.95, 20)])
    chain = conv_pdf_phase_type(rv, z)
    mixture = conv_mixture(rv)
    closed = mixture_eval(mixture, z)
    quad = sum_pdf_quadrature(rv, z)
    # the mixture rounds each term to about eps of its size, so it is allowed its terms' sum in eps
    terms = np.abs(_term_values(mixture.coefficients[:, None], mixture.degrees[:, None], mixture.rates[:, None], z))
    rounding = mixture.n_terms * np.finfo(float).eps * terms.sum(axis=0) / np.abs(chain)
    worst = 0.0
    for a, b, allowance in ((closed, chain, 1e-7 + rounding), (closed, quad, 1e-7 + rounding), (chain, quad, 1e-7)):
        relative = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
        worst = max(worst, float(np.max(relative / allowance)))
    return worst <= 1.0, f"worst pairwise rel diff / allowance {worst:.3e}"


def _check_ks(rv: RateVector, seed: int, statistic: str) -> tuple[Optional[bool], str]:
    sampler, cdf, stream_id = (sample_min, min_cdf, 1) if statistic == "min" else (sample_max, max_cdf, 2)
    report = ks_test(sampler(rv, 100_000, seed, stream_id=stream_id), lambda x: cdf(rv, x))
    return report.passed, f"D = {report.ks_statistic:.5f}, critical {report.critical_value:.5f}"


def _check_factorization(rv: RateVector, seed: int) -> tuple[Optional[bool], str]:
    if rv.n != 2:
        return None, "defined for two rates"
    report = factorization_test(sample_min_range_pairs(rv.rates[0], rv.rates[1], 200_000, seed, stream_id=3))
    return report.passed, f"max deviation {report.max_deviation:.5f}, bound {report.bound:.5f}"


# The check suite in output order: each check takes (rates, seed) and returns (PASS True, FAIL
# False or SKIP None, detail).  The kernels are looked up when a check runs, not bound here.
_CHECKS = (
    ("coefficient_identities", _check_identities),
    ("transform_equality", _check_transform),
    ("normalization", _check_normalization),
    ("oracle_triangle", _check_oracle_triangle),
    ("min_ks", partial(_check_ks, statistic="min")),
    ("max_ks", partial(_check_ks, statistic="max")),
    ("min_range_independence", _check_factorization),
)


def cmd_check(rates: RatesLike, seed: int, out=None) -> int:
    """Run the verification suite; one CHECK line per test, exit 0 iff none fails.

    The seed must be one the samplers take, a non-negative integer; else DomainError before any
    line is written.  A check that raises an ExpstatError fails with the error's type and message;
    the rest still run.
    """
    out = out if out is not None else sys.stdout
    rv = as_rate_vector(rates)
    make_stream(seed)  # the samplers' seed rule, applied before the first line
    clusters = [[rv.rates[i] for i in group] for group in rv.clusters]
    path, _ = sum_route(rv)
    out.write(f"INFO rates={list(rv.rates)} clusters={clusters} evaluation_path={path}\n")
    failed = False
    for name, check in _CHECKS:
        try:
            status, detail = check(rv, seed)
        except ExpstatError as exc:
            status, detail = False, f"{type(exc).__name__}: {exc}"
        failed |= status is False
        out.write(f"CHECK {name} {'SKIP' if status is None else 'PASS' if status else 'FAIL'} {detail}\n")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing


def _parse_rates(text: str, parser: argparse.ArgumentParser) -> RateVector:
    try:
        return as_rate_vector([part for part in text.split(",") if part.strip() != ""])
    except DomainError as exc:
        parser.error(f"invalid rates {text!r}: {exc}")


def _parse_range(text: str, parser: argparse.ArgumentParser) -> tuple[float, float]:
    try:
        lo_text, hi_text = text.split(":")
        return float(lo_text), float(hi_text)
    except ValueError:
        parser.error(f"invalid range {text!r}: expected the form min:max")


def _resolve_seed(value: Optional[int], parser: argparse.ArgumentParser) -> int:
    if value is not None:
        return value
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            parser.error(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    return DEFAULT_SEED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expstat",
        description="Exact laws for sums and order statistics of independent exponentials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="evaluate a pdf or cdf on an equally spaced grid")
    sample = sub.add_parser("sample", help="draw seeded samples of a statistic")
    check = sub.add_parser("check", help="run the verification suite on the given rates")
    for command in (curve, sample):
        command.add_argument("--stat", required=True, choices=_STATISTICS)
    for command in (curve, sample, check):
        command.add_argument("--rates", required=True, help="comma-separated positive rates")
    for command in (curve, sample):
        command.add_argument("--r", type=int, default=None, help="order (with --stat order)")
    curve.add_argument("--quantity", choices=_QUANTITIES, default="pdf")
    curve.add_argument("--range", default="0:10", help="grid endpoints as min:max")
    curve.add_argument("--points", type=int, default=401)
    sample.add_argument("--count", type=int, required=True)
    for command in (sample, check):
        command.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "curve":
            lo, hi = _parse_range(args.range, parser)
            rv = _parse_rates(args.rates, parser)
            return cmd_curve(CurveRequest(args.stat, rv, args.r, lo, hi, args.points, args.quantity))
        rv = _parse_rates(args.rates, parser)
        seed = _resolve_seed(args.seed, parser)
        if args.command == "sample":
            return cmd_sample(args.stat, rv, args.r, args.count, seed)
        return cmd_check(rv, seed)
    except (DomainError, CapacityError) as exc:
        parser.error(str(exc))
    except ExpstatError as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
