"""The quadrature oracle: Hermite convolution with exact slopes and its incomplete gamma values (core.gammainc)."""

import tracemalloc

import mpmath
import numpy as np
import pytest

from conftest import random_rate_sets
from expstat import CapacityError, conv_quantile, sum_pdf_quadrature
from expstat.core import gammainc
from expstat.quadrature import _BLOCK_DECAY, _MAX_GRID_NODES, _decaying_recurrence, _hermite, build_grid


def _mp_sum_pdf(rates, z):
    """The distinct-rate closed form sum_n A_n lambda_n e^{-lambda_n z} at 60 digits."""
    with mpmath.workdps(60):
        lam = [mpmath.mpf(r) for r in rates]
        total = mpmath.mpf(0)
        for n, ln in enumerate(lam):
            coeff = mpmath.mpf(1)
            for j, lj in enumerate(lam):
                if j != n:
                    coeff *= lj / (lj - ln)
            total += coeff * ln * mpmath.exp(-ln * mpmath.mpf(z))
        return total


ORACLE_SETS = random_rate_sets(71, 30, low=0.1, high=10.0) + random_rate_sets(72, 30, low=0.01, high=100.0)


def test_quadrature_oracle_holds_1e_9_against_mpmath():
    worst = 0.0
    for rates in ORACLE_SETS:
        lam = np.asarray(rates)
        mean, sd = float(np.sum(1.0 / lam)), float(np.sqrt(np.sum(lam**-2.0)))
        z = np.concatenate((mean * np.array([0.1, 0.3, 0.6, 1.0]), mean + sd * np.array([1.0, 2.0, 4.0])))
        quad = sum_pdf_quadrature(rates, z)
        for zi, qi in zip(z.tolist(), quad.tolist()):
            ref = _mp_sum_pdf(rates, zi)
            worst = max(worst, float(abs(qi / ref - 1)))
    assert worst <= 1e-9, worst


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_lower_gamma_matches_mpmath(m):
    x = np.concatenate(([0.0], np.geomspace(1e-12, 100.0, 300), [m * (1 - 1e-15), float(m), m * (1 + 1e-15)]))
    got = gammainc(m, x)
    assert got[0] == 0.0
    with mpmath.workdps(40):
        ref = [mpmath.gammainc(m, 0, mpmath.mpf(v), regularized=True) for v in x[1:].tolist()]
    worst = max(float(abs(g / r - 1)) for g, r in zip(got[1:].tolist(), ref))
    assert worst <= 5e-14, worst


def _loop_recurrence(x, beta):
    """g_0 = 0 and g_{i+1} = e^{-x_i} g_i + beta_i, one node at a time."""
    out = [0.0]
    for a, b in zip(np.exp(-x).tolist(), beta.tolist()):
        out.append(out[-1] * a + b)
    return np.array(out)


def _loop_quadrature(rates, z):
    """The iterated convolution with four incomplete gamma calls per level and the per-node loop."""
    ordered = sorted(rates, reverse=True)
    grid = build_grid(rates, float(np.max(z)))
    values = ordered[0] * np.exp(-ordered[0] * grid)
    slopes = -ordered[0] * values
    for rate in ordered[1:]:
        d = np.diff(grid)
        x = rate * d
        secant = (values[1:] - values[:-1]) / d
        q2 = (slopes[:-1] + 2.0 * slopes[1:] - 3.0 * secant) / d
        q3 = (2.0 * secant - slopes[:-1] - slopes[1:]) / d**2
        beta = (
            values[1:] * gammainc(1, x)
            - slopes[1:] / rate * gammainc(2, x)
            + q2 * (2.0 / rate**2) * gammainc(3, x)
            + q3 * (6.0 / rate**3) * gammainc(4, x)
        )
        out = _loop_recurrence(x, beta)
        values, slopes = out, rate * (values - out)
    return _hermite(grid, values, slopes, z)


# each set's first convolution decays over at least three blocks; the last has single
# steps decaying past e^-709 in its tail, which overflow a block's scaled sum
LOOP_SETS = [(0.05, 30.0, 40.0), (0.02, 0.3, 3.0, 25.0, 90.0), (1e-5, 10.0, 10.5)]


@pytest.mark.parametrize("rates", LOOP_SETS)
def test_blocked_recurrence_matches_the_per_node_loop(rates):
    mean = sum(1.0 / r for r in rates)
    grid = build_grid(rates, 5.0 * mean)
    x = sorted(rates)[-2] * np.diff(grid)
    assert x.sum() >= 3 * _BLOCK_DECAY
    beta = np.random.default_rng(17).uniform(0.0, 1.0, x.size) * x
    got, ref = _decaying_recurrence(x, beta), _loop_recurrence(x, beta)
    assert np.all(np.isfinite(got))
    assert got[0] == 0.0 and np.max(np.abs(got[1:] - ref[1:]) / ref[1:]) <= 1e-12
    z = np.linspace(0.02 * mean, 5.0 * mean, 30)
    quad, loop = sum_pdf_quadrature(rates, z), _loop_quadrature(rates, z)
    assert np.all(np.isfinite(quad))
    assert np.max(np.abs(quad - loop) / np.abs(loop)) <= 1e-12


def test_a_grid_past_the_double_range_raises_capacity_error():
    # (z - 45 / min rate) min rate / H_REL tail nodes is 8.3e309 at z = 1e308, and math.ceil of it raised
    # OverflowError: cannot convert float infinity to integer; the count itself is inf
    with pytest.raises(CapacityError, match=r"needs a node count past the double range, over 500000$"):
        sum_pdf_quadrature((1.0, 2.0), [1.0, 1e308])


@pytest.mark.parametrize(
    "rates, z, nodes",
    [
        ((1.0, 2.0), 1e7, "8.33e\\+08"),  # the tail: about 6.7 GB per float64 array of the grid
        ((1e-300, 1e300), 1.0, "2.58e\\+06"),  # the geometric zone between the rates' scales
    ],
    ids=["tail", "geometric"],
)
def test_a_grid_past_the_node_bound_raises_capacity_error_before_allocating(rates, z, nodes):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"needs {nodes} nodes"):
            sum_pdf_quadrature(rates, [1.0, z])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_the_largest_check_grid_stays_far_below_the_node_bound():
    # check's oracle_triangle evaluates the quadrature up to the 0.95 quantile; CI runs it on these 48 rates
    rates = tuple(float(x) for x in np.geomspace(0.1, 10.0, 48))
    assert build_grid(rates, conv_quantile(rates, 0.95)).size <= _MAX_GRID_NODES / 20
