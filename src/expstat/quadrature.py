"""Quadrature oracle for the density of a sum of independent exponentials.

This module deliberately avoids the closed forms implemented elsewhere in
the package: the density is built by convolving the component densities one
at a time on a resolved grid.  Each convolution step represents the current
density as a cubic spline and integrates spline-segment-times-exponential
products exactly (in terms of lower incomplete gamma functions), so the only
error is spline interpolation error, of order (rate * spacing)^4 per level.

It is a verification tool, not a hot path: the closed-form and phase-type
evaluations are checked against it in tests and in the ``check`` command.
``CubicSpline`` is imported inside the two functions that build splines, so
importing the package (and every command but ``check``) never loads
scipy.interpolate, about 19 MB resident together with the scipy.optimize it
pulls in.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc

from .core import RatesLike, _check_points, as_rate_vector
from .errors import DomainError

# Relative node spacing: rate * spacing <= H_REL wherever a component kernel
# is still alive.  0.012 gives a worst-case relative error near 5e-9 over
# random rate sets with N <= 8, comfortably inside the 1e-7 oracle budget.
H_REL = 0.012

# rate * t beyond which a component kernel is treated as fully decayed.
CUTOFF = 45.0

_MAX_FINE_NODES = 4000


def build_grid(rates: RatesLike, z_max: float) -> np.ndarray:
    """Grid on [0, z_max] resolving every exponential scale in ``rates``.

    Three zones: a uniform fine zone where the fastest kernel is alive, a
    geometric zone where spacing grows proportionally to t, and a uniform
    tail paced by the slowest rate.
    """
    rv = as_rate_vector(rates)
    if z_max <= 0.0:
        raise DomainError(f"z_max must be positive, got {z_max!r}")
    lmax = max(rv.rates)
    lmin = min(rv.rates)
    nodes = [np.array([0.0])]
    t_fine = min(z_max, CUTOFF / lmax)
    n_fine = max(16, int(math.ceil(t_fine / (H_REL / lmax))))
    nodes.append(np.linspace(0.0, t_fine, min(n_fine, _MAX_FINE_NODES) + 1))
    if z_max > t_fine:
        ratio = 1.0 + H_REL / CUTOFF
        t_geo_end = min(z_max, CUTOFF / lmin)
        if t_geo_end > t_fine:
            n_geo = int(math.ceil(math.log(t_geo_end / t_fine) / math.log(ratio)))
            nodes.append(t_fine * ratio ** np.arange(1, n_geo + 1))
        if z_max > t_geo_end:
            n_tail = int(math.ceil((z_max - t_geo_end) / (H_REL / lmin)))
            nodes.append(np.linspace(t_geo_end, z_max, n_tail + 1))
    grid = np.unique(np.concatenate(nodes))
    return grid[grid <= z_max * (1.0 + 1e-12)]


def convolve_exponential(grid: np.ndarray, values: np.ndarray, rate: float) -> np.ndarray:
    """Convolve the spline through (grid, values) with rate*exp(-rate*u).

    Writing the result as g(z) = int_0^z f(z-u) rate e^{-rate u} du and
    splitting at the grid nodes gives the recurrence

        g(x_{i+1}) = e^{-rate*dx_i} g(x_i) + int_0^{dx_i} p_i(dx_i - u) rate e^{-rate u} du,

    where p_i is the spline cubic on segment i.  The segment integrals reduce
    to regularized lower incomplete gamma values, so each level is exact up
    to spline interpolation error.
    """
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(grid, values)
    c = spline.c  # (4, nseg): c[0]*s^3 + c[1]*s^2 + c[2]*s + c[3]
    d = np.diff(grid)
    x = rate * d
    # coefficients of q(u) = p(d - u) as a polynomial in u
    a0, a1, a2, a3 = c[3], c[2], c[1], c[0]
    q0 = a0 + a1 * d + a2 * d**2 + a3 * d**3
    q1 = -(a1 + 2.0 * a2 * d + 3.0 * a3 * d**2)
    q2 = a2 + 3.0 * a3 * d
    q3 = -a3
    # int_0^d u^m rate e^{-rate u} du = (m! / rate^m) P(m+1, rate*d)
    beta = (
        q0 * gammainc(1, x)
        + q1 * (1.0 / rate) * gammainc(2, x)
        + q2 * (2.0 / rate**2) * gammainc(3, x)
        + q3 * (6.0 / rate**3) * gammainc(4, x)
    )
    alpha = np.exp(-x)
    out = np.empty_like(values)
    out[0] = 0.0
    acc = 0.0
    for i, (a, b) in enumerate(zip(alpha.tolist(), beta.tolist())):
        acc = acc * a + b
        out[i + 1] = acc
    return out


def sum_pdf_quadrature(rates: RatesLike, z_points: np.ndarray) -> np.ndarray:
    """Density of the sum of independent exponentials by iterated convolution.

    Works for any positive rates, repeated or distinct; convolutions run in
    descending rate order so the fine grid zone always matches the sharpest
    surviving kernel.
    """
    from scipy.interpolate import CubicSpline

    rv = as_rate_vector(rates)
    z = np.atleast_1d(_check_points(z_points))
    ordered = sorted(rv.rates, reverse=True)
    if len(ordered) == 1:
        return ordered[0] * np.exp(-ordered[0] * z)
    z_max = float(np.max(z)) if z.size else 1.0
    grid = build_grid(rv, max(z_max, 1e-6))
    values = ordered[0] * np.exp(-ordered[0] * grid)
    for rate in ordered[1:]:
        values = convolve_exponential(grid, values, rate)
    return CubicSpline(grid, values)(z)
