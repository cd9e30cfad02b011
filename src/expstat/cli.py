"""Command-line interface.

Three subcommands:

* ``curve``: evaluate the pdf or cdf of the sum, min, max, or r-th order
  statistic on an equally spaced grid, emitting ``z,value`` CSV rows with 17
  significant digits (bit-exact round trip).
* ``sample``: seeded draws of the same statistics, one value per row.
* ``check``: run the internal verification suite (coefficient identities,
  transform equality, oracle triangle, normalizations, KS tests, and the
  min/range independence check) on the given rates.

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
    partial_fraction_identity_check,
    sum_route,
)
from .core import GRID_BLOCK, RatesLike, RateVector, _term_values, as_rate_vector, mixture_eval, mixture_integral
from .errors import CapacityError, DegenerateRatesError, DomainError, ExpstatError
from .montecarlo import (
    factorization_test,
    ks_test,
    sample_max,
    sample_min,
    sample_min_range_pairs,
    sample_order,
    sample_sum,
)
from .orderstats import (
    OrderStatisticRequest,
    max_cdf,
    max_mixture,
    max_pdf,
    min_cdf,
    min_law,
    order_statistic_cdf,
    order_statistic_pdf,
)
from .quadrature import sum_pdf_quadrature

DEFAULT_SEED = 1729
SEED_ENV_VAR = "EXPSTAT_SEED"

_STATISTICS = ("sum", "min", "max", "order")
_QUANTITIES = ("pdf", "cdf")


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
        if self.statistic not in _STATISTICS:
            raise DomainError(f"statistic must be one of {_STATISTICS}, got {self.statistic!r}")
        if self.quantity not in _QUANTITIES:
            raise DomainError(f"quantity must be one of {_QUANTITIES}, got {self.quantity!r}")
        object.__setattr__(self, "rates", as_rate_vector(self.rates))
        if not (self.z_min >= 0.0 and self.z_min < self.z_max and math.isfinite(self.z_max)):
            raise DomainError(
                f"range must satisfy 0 <= z_min < z_max, got {self.z_min}:{self.z_max}"
            )
        if self.points < 2:
            raise DomainError(f"points must be at least 2, got {self.points}")
        if (self.r is not None) != (self.statistic == "order"):
            raise DomainError("--r is required for --stat order and not allowed otherwise")
        if self.statistic == "order":
            OrderStatisticRequest(self.rates, int(self.r))


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
    if statistic == "sum":
        return (conv_pdf if req.quantity == "pdf" else conv_cdf)(rv, zz)
    if statistic == "min":
        if req.quantity == "pdf":
            rate = min_law(rv).rate
            return rate * np.exp(-rate * zz)
        return min_cdf(rv, zz)
    if statistic == "max":
        return (max_pdf if req.quantity == "pdf" else max_cdf)(rv, zz)
    req_order = OrderStatisticRequest(rv, int(req.r))
    if req.quantity == "pdf":
        return np.array([order_statistic_pdf(req_order, float(z)) for z in zz])
    return np.array([order_statistic_cdf(req_order, float(z)) for z in zz])


def cmd_curve(req: CurveRequest, out=None) -> int:
    """Write the requested curve as ``z,value`` CSV to standard output."""
    out = out if out is not None else sys.stdout
    zz = np.linspace(req.z_min, req.z_max, req.points)
    _write_rows(out, "z,value", np.column_stack((zz, _curve_values(req, zz))))
    return 0


def cmd_sample(
    statistic: str,
    rates: RatesLike,
    r: Optional[int],
    count: int,
    seed: int,
    out=None,
) -> int:
    """Write seeded draws of the requested statistic, one value per row.

    Memory is O(SAMPLE_BLOCK x N + count): the sampler's block of draws, the
    count values and GRID_BLOCK rows of text at a time.
    """
    out = out if out is not None else sys.stdout
    rv = as_rate_vector(rates)
    if statistic == "sum":
        batch = sample_sum(rv, count, seed)
    elif statistic == "min":
        batch = sample_min(rv, count, seed)
    elif statistic == "max":
        batch = sample_max(rv, count, seed)
    elif statistic == "order":
        batch = sample_order(rv, int(r), count, seed)
    else:
        raise DomainError(f"statistic must be one of {_STATISTICS}, got {statistic!r}")
    _write_rows(out, "value", batch.values[:, None])
    return 0


# ---------------------------------------------------------------------------
# the check suite


def _check_identities(rv: RateVector, results: list) -> None:
    if not rv.is_distinct:
        results.append(("coefficient_identities", None, "repeated rates, no distinct-rate coefficients"))
        return
    coeffs = conv_coefficients(rv)
    kappa = coeffs.condition_estimate
    a = np.asarray(coeffs.coefficients)
    lam = np.asarray(coeffs.rates)
    tol = 1e-8 * kappa
    worst = abs(math.fsum(a) - 1.0) / tol
    for k in range(1, rv.n):
        residual = abs(math.fsum(a * lam**k))
        worst = max(worst, residual / (tol * np.max(lam) ** k))
    worst = max(worst, partial_fraction_identity_check(rv, 0.5 * min(rv.rates)) / tol)
    results.append(("coefficient_identities", worst <= 1.0, f"worst residual ratio {worst:.3e}"))


def _check_transform(rv: RateVector, seed: int, results: list) -> None:
    if not rv.is_distinct:
        results.append(("transform_equality", None, "repeated rates, no distinct-rate coefficients"))
        return
    # the linear combination rounds each term to about eps |A_n|, so its error grows with
    # sum |A_n|, which is never below sum A_n = 1
    bound = 1e-12 * math.fsum(abs(a) for a in conv_coefficients(rv).coefficients)
    rng = np.random.default_rng(seed)
    t_max = 10.0 * max(rv.rates)
    worst = 0.0
    for t in rng.uniform(-t_max, t_max, size=100):
        p = char_fn_product(rv, float(t))
        l = char_fn_linear_combination(rv, float(t))
        worst = max(worst, abs(p - l))
    results.append(("transform_equality", worst <= bound, f"max abs diff {worst:.3e}, bound {bound:.3e}"))


def _check_normalization(rv: RateVector, results: list) -> None:
    route, form = sum_route(rv)
    if route == "phase-type":
        far = conv_quantile(rv, 0.5) * 40.0
        err = abs(conv_cdf(rv, far) - 1.0)
        results.append(("normalization", err <= 1e-9, f"|cdf(far) - 1| = {err:.3e} (phase path)"))
        return
    err = abs(mixture_integral(form) - 1.0)
    if rv.n <= 12:
        err = max(err, abs(mixture_integral(max_mixture(rv)) - 1.0))
    results.append(("normalization", err <= 1e-10, f"max |integral - 1| = {err:.3e}"))


def _check_oracle_triangle(rv: RateVector, results: list) -> None:
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
    results.append(("oracle_triangle", worst <= 1.0, f"worst pairwise rel diff / allowance {worst:.3e}"))


def _check_ks(rv: RateVector, seed: int, statistic: str, results: list) -> None:
    sampler, cdf, stream_id = (sample_min, min_cdf, 1) if statistic == "min" else (sample_max, max_cdf, 2)
    report = ks_test(sampler(rv, 100_000, seed, stream_id=stream_id), lambda x: cdf(rv, x))
    results.append(
        (f"{statistic}_ks", report.passed, f"D = {report.ks_statistic:.5f}, critical {report.critical_value:.5f}")
    )


def _check_factorization(rv: RateVector, seed: int, results: list) -> None:
    if rv.n != 2:
        results.append(("min_range_independence", None, "defined for two rates"))
        return
    pairs = sample_min_range_pairs(rv.rates[0], rv.rates[1], 200_000, seed, stream_id=3)
    report = factorization_test(pairs)
    results.append(
        (
            "min_range_independence",
            report.passed,
            f"max deviation {report.max_deviation:.5f}, bound {report.bound:.5f}",
        )
    )


def cmd_check(rates: RatesLike, seed: int, out=None) -> int:
    """Run the verification suite; one CHECK line per test, exit 0 iff none fails.

    A check that raises an ExpstatError fails with the error's type and message; the rest still run.
    """
    out = out if out is not None else sys.stdout
    rv = as_rate_vector(rates)
    clusters = [[rv.rates[i] for i in group] for group in rv.clusters]
    path, _ = sum_route(rv)
    out.write(f"INFO rates={list(rv.rates)} clusters={clusters} evaluation_path={path}\n")
    results: list[tuple[str, Optional[bool], str]] = []
    for name, check in (
        ("coefficient_identities", lambda: _check_identities(rv, results)),
        ("transform_equality", lambda: _check_transform(rv, seed, results)),
        ("normalization", lambda: _check_normalization(rv, results)),
        ("oracle_triangle", lambda: _check_oracle_triangle(rv, results)),
        ("min_ks", lambda: _check_ks(rv, seed, "min", results)),
        ("max_ks", lambda: _check_ks(rv, seed, "max", results)),
        ("min_range_independence", lambda: _check_factorization(rv, seed, results)),
    ):
        try:
            check()
        except ExpstatError as exc:
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    for name, status, metric in results:
        out.write(f"CHECK {name} {'SKIP' if status is None else 'PASS' if status else 'FAIL'} {metric}\n")
    return 1 if any(status is False for _, status, _ in results) else 0


# ---------------------------------------------------------------------------
# argument parsing


def _parse_rates(text: str, parser: argparse.ArgumentParser) -> RateVector:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
        return as_rate_vector(values)
    except (ValueError, DomainError) as exc:
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
    curve.add_argument("--stat", required=True, choices=_STATISTICS)
    curve.add_argument("--rates", required=True, help="comma-separated positive rates")
    curve.add_argument("--r", type=int, default=None, help="order (with --stat order)")
    curve.add_argument("--quantity", choices=_QUANTITIES, default="pdf")
    curve.add_argument("--range", default="0:10", help="grid endpoints as min:max")
    curve.add_argument("--points", type=int, default=401)

    sample = sub.add_parser("sample", help="draw seeded samples of a statistic")
    sample.add_argument("--stat", required=True, choices=_STATISTICS)
    sample.add_argument("--rates", required=True, help="comma-separated positive rates")
    sample.add_argument("--r", type=int, default=None, help="order (with --stat order)")
    sample.add_argument("--count", type=int, required=True)
    sample.add_argument("--seed", type=int, default=None)

    check = sub.add_parser("check", help="run the verification suite on the given rates")
    check.add_argument("--rates", required=True, help="comma-separated positive rates")
    check.add_argument("--seed", type=int, default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "curve":
            lo, hi = _parse_range(args.range, parser)
            req = CurveRequest(
                statistic=args.stat,
                rates=_parse_rates(args.rates, parser),
                r=args.r,
                z_min=lo,
                z_max=hi,
                points=args.points,
                quantity=args.quantity,
            )
            return cmd_curve(req)
        if args.command == "sample":
            rv = _parse_rates(args.rates, parser)
            if (args.r is not None) != (args.stat == "order"):
                parser.error("--r is required for --stat order and not allowed otherwise")
            if args.count < 1:
                parser.error(f"--count must be at least 1, got {args.count}")
            seed = _resolve_seed(args.seed, parser)
            return cmd_sample(args.stat, rv, args.r, args.count, seed)
        rv = _parse_rates(args.rates, parser)
        seed = _resolve_seed(args.seed, parser)
        return cmd_check(rv, seed)
    except (DomainError, DegenerateRatesError, CapacityError) as exc:
        parser.error(str(exc))
    except ExpstatError as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
