#!/usr/bin/env python3
"""Compare the three density routes (closed form, matrix, quadrature).

Prints the pointwise values and pairwise relative spreads on a quantile grid
so numerical drift between the routes is visible at a glance.

Usage:
    python3 scripts/route_agreement.py --rates 1,2,3 --points 10
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from expstat import conv_pdf, conv_pdf_phase_type, conv_quantile, sum_pdf_quadrature, sum_route


def spread(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rates", required=True, help="comma-separated positive rates")
    parser.add_argument("--points", type=int, default=10)
    args = parser.parse_args(argv)

    rates = tuple(float(part) for part in args.rates.split(","))
    probs = np.linspace(0.05, 0.95, args.points)
    z = np.array([conv_quantile(rates, float(p)) for p in probs])
    closed = conv_pdf(rates, z)
    phase = conv_pdf_phase_type(rates, z)
    quad = sum_pdf_quadrature(rates, z)
    worst = np.maximum.reduce([spread(closed, phase), spread(closed, quad), spread(phase, quad)])

    print(f"conv_pdf route: {sum_route(rates)[0]}")
    print(f"{'z':>12} {'closed':>18} {'phase':>18} {'quadrature':>18} {'max rel spread':>15}")
    for row in zip(z, closed, phase, quad, worst):
        print("{:12.6f} {:18.12e} {:18.12e} {:18.12e} {:15.3e}".format(*row))
    print(f"worst pairwise relative spread: {float(np.max(worst)):.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
