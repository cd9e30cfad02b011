"""Quadrature oracle for the density of a sum of independent exponentials.

This module deliberately avoids the closed forms implemented elsewhere in
the package: the density is built by convolving the component densities one
at a time on a resolved grid.  Each convolution step represents the current
density f by its piecewise cubic Hermite interpolant, which matches the
node values and the node slopes, and integrates each segment's cubic times
an exponential exactly (in terms of regularized lower incomplete gamma
values), so the only error is interpolation error, of order
(rate * spacing)^4 per level.

The slopes are exact, so no spline system is solved.  The first density
lambda_1 e^{-lambda_1 z} has slope -lambda_1 f, and each convolution
g = f * Exp(lambda), g(z) = int_0^z f(s) lambda e^{-lambda (z - s)} ds,
has g' = lambda (f - g), which the node values of f and g give.  The
incomplete gamma values P(m, x), m = 1..4, come from one core.gammainc call
per level, which the Erlang-term cdfs use too, and a downward recurrence of
non-negative terms.  The convolution recurrence runs as scaled cumulative
products and sums over blocks of nodes, not a Python loop per node.

It is a verification tool, not a hot path: the closed-form and phase-type
evaluations are checked against it in tests and in the ``check`` command.
"""

from __future__ import annotations

import math

import numpy as np

from .core import RatesLike, _check_points, as_rate_vector, gammainc
from .errors import CapacityError, DomainError

# Relative node spacing: rate * spacing <= H_REL wherever a component kernel
# is still alive.  0.012 gives a worst-case relative error near 5e-9 over
# random rate sets with N <= 8, comfortably inside the 1e-7 oracle budget.
H_REL = 0.012

# rate * t beyond which a component kernel is treated as fully decayed.
CUTOFF = 45.0

_MAX_FINE_NODES = 4000

# Most nodes build_grid lays: about 100 MB at the oracle's peak of 205 bytes per node (tracemalloc,
# N = 2..8).  ``check`` on rates in 0.1..10 needs at most about 21,000 (48 log-spaced rates: 16,867).
_MAX_GRID_NODES = 500_000

# Largest decay sum rate*dx over one block of convolve_exponential's recurrence:
# e^-600 is a normal double, and 1 / e^-600 leaves room below the overflow at e^709.
_BLOCK_DECAY = 600.0


def build_grid(rates: RatesLike, z_max: float) -> np.ndarray:
    """Grid on [0, z_max] resolving every exponential scale in ``rates``.

    Three zones: a uniform fine zone where the fastest kernel is alive, a
    geometric zone where spacing grows proportionally to t, and a uniform
    tail paced by the slowest rate.  CapacityError, before anything is
    allocated, when they would hold more than _MAX_GRID_NODES nodes.
    """
    rv = as_rate_vector(rates)
    if z_max <= 0.0:
        raise DomainError(f"z_max must be positive, got {z_max!r}")
    lmax = max(rv.rates)
    lmin = min(rv.rates)
    ratio = 1.0 + H_REL / CUTOFF
    t_fine = min(z_max, CUTOFF / lmax)
    t_geo_end = min(z_max, CUTOFF / lmin)
    n_fine = min(max(16, int(math.ceil(t_fine / (H_REL / lmax)))), _MAX_FINE_NODES)
    # counted as floats, so a count past the double range is inf, not an OverflowError
    n_geo = math.log(t_geo_end / t_fine) / math.log(ratio)
    n_tail = (z_max - t_geo_end) / (H_REL / lmin)
    nodes = n_fine + n_geo + n_tail
    if nodes > _MAX_GRID_NODES:
        count = f"{nodes:.3g} nodes" if nodes < math.inf else "a node count past the double range"
        raise CapacityError(f"the quadrature grid on [0, {z_max!r}] needs {count}, over {_MAX_GRID_NODES}")
    zones = [np.linspace(0.0, t_fine, n_fine + 1), t_fine * ratio ** np.arange(1, math.ceil(n_geo) + 1)]
    if n_tail > 0.0:
        zones.append(np.linspace(t_geo_end, z_max, math.ceil(n_tail) + 1))
    grid = np.sort(np.concatenate(zones))
    grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
    return grid[grid <= z_max * (1.0 + 1e-12)]


def convolve_exponential(
    grid: np.ndarray, values: np.ndarray, slopes: np.ndarray, rate: float
) -> tuple[np.ndarray, np.ndarray]:
    """Convolve the Hermite interpolant of (grid, values, slopes) with rate*exp(-rate*u).

    Writing the result as g(z) = int_0^z f(z-u) rate e^{-rate u} du and
    splitting at the grid nodes gives the recurrence

        g(x_{i+1}) = e^{-rate*dx_i} g(x_i) + int_0^{dx_i} q_i(u) rate e^{-rate u} du,

    where q_i(u) = p_i(dx_i - u) is the segment's Hermite cubic read from its
    right end: q_i(0) = f(x_{i+1}), q_i'(0) = -f'(x_{i+1}).  The segment
    integrals reduce to regularized lower incomplete gamma values, one
    gammainc call per level, so each level is exact up to interpolation error.
    The recurrence runs in blocks of nodes (_decaying_recurrence), not in a
    Python loop per node.  Returns g and its exact node slopes rate (f - g).
    """
    d = np.diff(grid)
    x = rate * d
    y0, y1 = values[:-1], values[1:]
    m0, m1 = slopes[:-1], slopes[1:]
    secant = (y1 - y0) / d
    # q(u) = q0 + q1 u + q2 u^2 + q3 u^3
    q0 = y1
    q1 = -m1
    q2 = (m0 + 2.0 * m1 - 3.0 * secant) / d
    q3 = (2.0 * secant - m0 - m1) / d**2
    # int_0^d u^m rate e^{-rate u} du = (m! / rate^m) P(m+1, rate*d), with P(m, x) =
    # P(m+1, x) + x^m e^{-x} / m! below P(4, x): non-negative terms, so no cancellation
    t1 = x * np.exp(-x)
    t2 = t1 * x / 2.0
    p4 = gammainc(4, x)
    p3 = p4 + t2 * x / 3.0
    p2 = p3 + t2
    p1 = p2 + t1
    beta = q0 * p1 + q1 * (1.0 / rate) * p2 + q2 * (2.0 / rate**2) * p3 + q3 * (6.0 / rate**3) * p4
    out = _decaying_recurrence(x, beta)
    return out, rate * (values - out)


def _decaying_recurrence(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """g_0 = 0 and g_{i+1} = e^{-x_i} g_i + beta_i for x_i >= 0, in blocks of nodes.

    A block of steps s..e-1 whose decay sum x_s + ... + x_{e-1} stays within
    _BLOCK_DECAY takes g_k = P_k (g_s + sum_{s<=j<k} beta_j / P_{j+1}), where
    P_k is the running product of the e^{-x_i} from s: a cumulative product,
    a cumulative sum and two passes.  P_k >= e^-600 stays a normal double,
    and a ratio P_k / P_{j+1} carries the rounding of the steps between j
    and k only, as the step-by-step loop does.  A block of one step, as every
    step decaying more than _BLOCK_DECAY by itself is, is taken directly,
    g = e^{-x} g + beta, which is beta once e^{-x} underflows.
    """
    alpha = np.exp(-x)
    decay = np.concatenate(([0.0], np.cumsum(x)))
    # the last node a block starting at each node may reach
    reach = (np.searchsorted(decay, decay[:-1] + _BLOCK_DECAY, side="right") - 1).tolist()
    out = np.empty(x.size + 1)
    out[0] = 0.0
    s = 0
    while s < x.size:
        e = reach[s]
        if e <= s + 1:
            out[s + 1] = alpha[s] * out[s] + beta[s]
            s += 1
        else:
            run = np.cumprod(alpha[s:e])
            out[s + 1 : e + 1] = run * (out[s] + np.cumsum(beta[s:e] / run))
            s = e
    return out


def _hermite(grid: np.ndarray, values: np.ndarray, slopes: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The piecewise cubic Hermite interpolant of (grid, values, slopes) at z (the end cubics extrapolate)."""
    i = np.clip(np.searchsorted(grid, z, side="right") - 1, 0, grid.size - 2)
    d = grid[i + 1] - grid[i]
    s = z - grid[i]
    y0, y1, m0, m1 = values[i], values[i + 1], slopes[i], slopes[i + 1]
    secant = (y1 - y0) / d
    c2 = (3.0 * secant - 2.0 * m0 - m1) / d
    c3 = (m0 + m1 - 2.0 * secant) / d**2
    return y0 + s * (m0 + s * (c2 + s * c3))


def sum_pdf_quadrature(rates: RatesLike, z_points: np.ndarray) -> np.ndarray:
    """Density of the sum of independent exponentials by iterated convolution.

    Works for any positive rates, repeated or distinct; convolutions run in
    descending rate order so the fine grid zone always matches the sharpest
    surviving kernel.
    """
    rv = as_rate_vector(rates)
    z = np.atleast_1d(_check_points(z_points))
    ordered = sorted(rv.rates, reverse=True)
    if len(ordered) == 1:
        return ordered[0] * np.exp(-ordered[0] * z)
    z_max = float(np.max(z)) if z.size else 1.0
    grid = build_grid(rv, max(z_max, 1e-6))
    values = ordered[0] * np.exp(-ordered[0] * grid)
    slopes = -ordered[0] * values
    for rate in ordered[1:]:
        values, slopes = convolve_exponential(grid, values, slopes, rate)
    return _hermite(grid, values, slopes, z)
