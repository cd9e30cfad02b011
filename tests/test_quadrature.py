"""The quadrature oracle: Hermite convolution with exact slopes and its incomplete gamma values (core.gammainc)."""

import mpmath
import numpy as np
import pytest

from conftest import random_rate_sets
from expstat import sum_pdf_quadrature
from expstat.core import gammainc


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
