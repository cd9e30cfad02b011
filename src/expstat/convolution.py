"""Distribution of the sum of independent heterogeneous exponentials.

For pairwise-distinct rates the density has the closed form

    f(z) = sum_n A_n * lambda_n * exp(-lambda_n z),
    A_n  = prod_{j != n} lambda_j / (lambda_j - lambda_n),

a signed combination whose coefficients blow up as rates approach each
other.  Every sum-law operation takes one of two routes, chosen by
``sum_route``:

* ``closed-form``: a signed mixture, either the combination above for
  distinct rates whose rounding bound N max|A_n| eps is at most
  CDF_CLAMP_WINDOW or, when every rate is the same, the one exact Gamma term;
* ``phase-type``: every other rate vector, that is distinct rates past
  that bound and any repeated rate beside other rates, is evaluated as
  the absorption time of a chain of N stages in series plus one
  absorbing state.  With E = expm(Q z) for its
  (N+1) x (N+1) generator Q, the pdf is E[0, N-1] lambda_N and the cdf is
  E[0, N], or one minus the transient mass above the median.  ``expm``
  here is the entrywise-accurate exponential of a Metzler matrix (Xue &
  Ye, Math. Comp. 2013), built from sums and products of non-negative
  numbers, so both tails keep their relative accuracy whatever the gaps,
  and scipy.linalg is not imported.

Quantiles take safeguarded Newton steps from the gamma quantile in
core._newton_quantile: the Gamma law on its one term, every other sum on
the chain whatever the route of its pdf and cdf, one expm per step.

Repeated rates beside other rates give the confluent (Erlang-block)
expansion of conv_mixture, whose coefficients cancel once two clusters
meet (9e19 relative at 1e-3 of the mean on (0.5, 0.6, 3.0) x 4), so those
sums run on the chain at any gap; close but unequal rates are not merged.
The bound sees both the gaps and N, and it is absolute: far in the lower
tail a closed form keeps its absolute accuracy, not its relative one.

char_fn_product and char_fn_linear_combination evaluate the two sides of
the paper's transform identity prod_j lambda_j / (lambda_j - i t) =
sum_n A_n lambda_n / (lambda_n - i t): at a real t the characteristic
function, at t = -i mu (a real Laplace point) the coefficients'
partial-fraction identity.  Both are cheap consistency tests of the A_n.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .core import (
    CDF_CLAMP_WINDOW,
    RatesLike,
    RateVector,
    SignedExponentialMixture,
    _cdf_grid,
    _check_points,
    _eval_grid,
    _newton_quantile,
    as_rate_vector,
    factorial,
    mixture_quantile,
)
from .errors import CapacityError, DomainError, NumericalError

# ---------------------------------------------------------------------------
# partial-fraction coefficients


@dataclass(frozen=True)
class ConvolutionCoefficients:
    """Coefficients A_n of the distinct-rate closed form, one per rate.

    ``condition_estimate`` (max |A_n|) measures how much alternating-sign
    cancellation the closed form incurs; identity residuals scale with it.
    """

    rates: tuple[float, ...]
    coefficients: tuple[float, ...]

    @property
    def condition_estimate(self) -> float:
        return max(abs(a) for a in self.coefficients)


def conv_coefficients(rates: RatesLike) -> ConvolutionCoefficients:
    """A_n = prod_{j != n} lambda_j / (lambda_j - lambda_n) for distinct rates, by the direct product.

    Any two unequal rates qualify, however close: each factor is formed from
    the rates as given.  Raises DomainError when a rate is repeated
    (conv_pdf / conv_mixture build Erlang blocks for those instead), and
    NumericalError when a product overflows or is otherwise not finite.
    """
    rv = as_rate_vector(rates)
    if not rv.is_distinct:
        raise DomainError(
            "partial-fraction coefficients need pairwise-distinct rates; "
            "use conv_pdf/conv_mixture, which handle repeated rates"
        )
    lam = rv.rates
    coeffs = []
    for i, ln in enumerate(lam):
        prod = 1.0
        for j, lj in enumerate(lam):
            if j != i:
                prod *= lj / (lj - ln)
        if not math.isfinite(prod):
            raise NumericalError(f"coefficient A_{i} = {prod!r} at rate {ln!r} is not a finite double")
        coeffs.append(prod)
    return ConvolutionCoefficients(rates=lam, coefficients=tuple(coeffs))


# ---------------------------------------------------------------------------
# confluent (repeated-rate) expansion

def _confluent_terms(mu: tuple[float, ...], mult: tuple[int, ...]) -> list[tuple[float, float, int]]:
    """Mixture terms of the sum density for cluster rates mu with multiplicities, each coefficient rounded once.

    The Laplace transform is C prod_g (s+mu_g)^{-m_g} with C = prod mu_g^{m_g}.  In partial
    fractions, prod_g (s+mu_g)^{-m_g} = sum_g sum_{k=1}^{m_g} d_{m_g-k} (s+mu_g)^{-k}, where d_r is
    the r-th Taylor coefficient at -mu_g of phi_g(s) = prod_{h != g} (s+mu_h)^{-m_h}, and inverting
    (s+mu)^{-k} to z^{k-1} e^{-mu z}/(k-1)! gives the terms (C d_{m_g-k}/(k-1)!, mu_g, k-1).  With
    w_h = 1/(mu_g - mu_h), the log-derivatives of phi_g give the Leibniz recurrence

        d_0 = prod_{h != g} (-w_h)^{m_h},  r d_r = sum_{j=1}^{r} t_j d_{r-j},  t_j = sum_{h != g} m_h w_h^j.

    Every step runs in exact rationals (the rates are dyadic), so each coefficient is the correctly
    rounded residue.  Each inverse gap is formed once per pair of clusters and its powers by repeated
    multiplication.  A single cluster (the Gamma law) has no w_h, so d = [1, 0, ...] and only its top
    coefficient is formed.  Raises CapacityError, naming the cluster, when a nonzero coefficient lies
    outside the normal double range.
    """
    q = [Fraction(m) for m in mu]
    c_total = math.prod(m**k for m, k in zip(q, mult))
    inverse = {(g, h): 1 / (q[g] - q[h]) for g in range(len(q)) for h in range(g)}  # each pair once
    terms = []
    for g, m_g in enumerate(mult):
        others = [(inverse[g, h] if h < g else -inverse[h, g], mult[h]) for h in range(len(q)) if h != g]  # (w_h, m_h)
        d = [math.prod(((-w) ** m for w, m in others), start=Fraction(1))]
        powers, t = [Fraction(m) for _, m in others], [0]  # m_h w_h^j and t_j, j = 0, 1, ...
        for r in range(1, m_g if others else 1):
            powers = [p * w for p, (w, _) in zip(powers, others)]
            t.append(sum(powers))
            d.append(sum(t[j] * d[r - j] for j in range(1, r + 1)) / r)
        for k in range(m_g - len(d) + 1, m_g + 1):
            coeff = c_total * d[m_g - k] / math.factorial(k - 1)
            if coeff and not sys.float_info.min <= abs(coeff) <= sys.float_info.max:
                magnitude = math.log10(abs(coeff.numerator)) - math.log10(coeff.denominator)
                raise CapacityError(
                    f"the degree-{k - 1} coefficient of the cluster of {m_g} rates at {mu[g]!r} "
                    f"is about 1e{magnitude:.0f}, outside the normal double range"
                )
            terms.append((float(coeff), mu[g], k - 1))
    return terms


def conv_mixture(rates: RatesLike) -> SignedExponentialMixture:
    """Signed-mixture form of the sum density.

    Distinct rates give the degree-0 closed form (conv_coefficients, in
    floats); each repeated rate contributes Erlang-block terms of degree up
    to multiplicity - 1 at that rate, formed exactly and rounded once
    (_confluent_terms), and all rates equal recovers the Gamma(N, rate)
    density.  conv_pdf and conv_cdf evaluate it only where sum_route finds
    its cancellation harmless, and conv_quantile only for the Gamma law.
    """
    rv = as_rate_vector(rates)
    if rv.is_distinct:
        return _distinct_mixture(conv_coefficients(rv))
    return SignedExponentialMixture.from_terms(_confluent_terms(rv.cluster_rates, rv.cluster_sizes), is_density=True)


def _distinct_mixture(coeffs: ConvolutionCoefficients) -> SignedExponentialMixture:
    """The degree-0 density terms A_n lambda_n exp(-lambda_n z) of distinct-rate coefficients, sorted by rate (canonical)."""
    rates, a = (np.array(v) for v in zip(*sorted(zip(coeffs.rates, coeffs.coefficients))))
    return SignedExponentialMixture(a * rates, rates, np.zeros(rates.size, dtype=np.int64), is_density=True)


# ---------------------------------------------------------------------------
# phase-type route: the absorbing chain


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for a Metzler matrix (off-diagonal entries >= 0), accurate entry by entry.

    The scheme of Xue & Ye (Math. Comp. 2013): shift to the non-negative
    b = a + shift I with shift = max(-diag a), scale by 2^-s so that
    ||b||_inf 2^-s < 1/2, sum at least n + 17 terms of the Taylor series of
    exp(b 2^-s) (Paterson-Stockmeyer: about 2 sqrt(n + 17) matrix products),
    multiply by exp(-shift 2^-s) and square s times.  Every step adds and
    multiplies non-negative numbers, so no entry cancels: each is accurate to
    a few eps relative, times the 2^s that the conditioning of exp(-shift)
    itself imposes.  A Pade approximant is accurate only relative to the norm
    of the whole matrix.  The (i, j) entry first appears at power j - i <= n - 1,
    so a rule that stopped on small terms could end before it appears; for a
    bidiagonal b the 17 or more terms past that power leave a truncation
    below 2^-18 / 18! of the entry.
    """
    n = a.shape[0]
    b = np.array(a, dtype=np.float64)
    diagonal = b.reshape(-1)[:: n + 1]
    shift = -float(diagonal.min())
    diagonal += shift
    s = max(math.frexp(2.0 * float(b.sum(axis=1).max()))[1], 0)
    terms = n + 17
    p = math.isqrt(terms - 1) + 1  # powers b^0..b^p, then Horner in b^p over q blocks
    q = -(-terms // p)
    powers = np.empty((p + 1, n, n))
    powers[0] = np.eye(n)
    powers[1] = b * 2.0**-s
    for j in range(2, p + 1):
        np.matmul(powers[j - 1], powers[1], out=powers[j])
    inverse_factorials = 1.0 / factorial(np.arange(p * q))  # 1/inf = 0 past k = 170, where k! overflows
    blocks = (inverse_factorials.reshape(q, p) @ powers[:p].reshape(p, n * n)).reshape(q, n, n)
    e = blocks[q - 1]
    for i in range(q - 2, -1, -1):
        e = e @ powers[p] + blocks[i]
    e *= math.exp(-shift * 2.0**-s)
    for _ in range(s):
        e = e @ e
    return e


def _absorbing_generator(rv: RateVector) -> np.ndarray:
    """Generator Q of the sum as an absorption time: read-only, (N+1) x (N+1).

    States 0..N-1 are the exponential stages in series, in input order, and
    state N absorbs: row n < N holds -lambda_n on the diagonal and lambda_n
    to its right, row N is zero.  Q is Metzler, so expm(Q z) is a matrix of
    sums of non-negative terms, whatever the gaps between the rates.
    """
    lam = np.array(rv.rates)
    stages = np.arange(lam.size)
    q = np.zeros((lam.size + 1, lam.size + 1))
    q[stages, stages] = -lam
    q[stages, stages + 1] = lam
    q.setflags(write=False)
    return q


def _absorption(q: np.ndarray, zz: float | np.ndarray) -> tuple[float | np.ndarray, float | np.ndarray]:
    """(cdf, pdf) of the absorption time of generator q at checked points (a float or an array).

    The chain starts in state 0, so its state at time z is row 0 of
    E = expm(Q z), and the pdf is E[0, N-1] lambda_N.  Each entry of a
    Metzler exponential keeps its relative accuracy, so the cdf takes the
    form that does not cancel: the absorbing entry E[0, N] where the
    transient mass T = sum_{j<N} E[0, j] is at least 1/2, and 1 - T above
    the median, where E[0, N] loses mass in the squarings.  Both lie in [0, 1].
    A scalar reads row 0 of one expm(Q z), the identity row at z = 0.  An
    array takes one pass over the points in sorted order, which carries the
    state from each point to the next by the semigroup step
    state . expm(Q gap), so a grid costs one matrix exponential per distinct
    gap (about 10-20 for a linspace grid) rather than one per point.  Only a
    gap that recurs keeps its step matrix: memory is O(points x N) plus at
    most one (N+1) x (N+1) matrix per distinct recurring gap, plus expm's
    workspace while a step is formed, its p + 1 powers and q Horner blocks
    (p, q about sqrt(N + 17)), about (2 sqrt(N + 17) + 4)(N + 1)^2 doubles.
    A non-finite state raises NumericalError.
    """
    n = q.shape[0] - 1
    if isinstance(zz, float):
        row = expm(q * zz)[0] if zz else np.eye(1, n + 1)[0]
        transient = float(row[:n].sum())
        entry, absorbed = row[n - 1 :].tolist()
        if not math.isfinite(transient + absorbed):
            raise NumericalError(f"matrix exponential produced {row.tolist()!r} at z={zz!r} (n={n})")
        return 1.0 - transient if transient < 0.5 else absorbed, entry * float(q[n - 1, n])
    points = np.ravel(zz)
    order = np.argsort(points, kind="stable")
    gaps = np.diff(points[order], prepend=0.0).tolist()
    steps = {gap: None for gap, count in Counter(gaps).items() if count > 1}
    state = np.zeros(n + 1)
    state[0] = 1.0
    rows = np.empty((len(points), n + 1))  # row 0 of expm(Q z) at each point
    for i, gap in zip(order.tolist(), gaps):
        if gap:
            step = steps.get(gap)
            if step is None:
                step = expm(q * gap)
                if gap in steps:
                    steps[gap] = step
            state = state @ step
        rows[i] = state
    transient = rows[:, :n].sum(axis=1)
    finite = np.isfinite(transient + rows[:, n])
    if not finite.all():
        i = int(np.argmin(finite))
        raise NumericalError(f"matrix exponential produced {rows[i].tolist()!r} at z={float(points[i])!r} (n={n})")
    return np.where(transient < 0.5, 1.0 - transient, rows[:, n]), rows[:, n - 1] * q[n - 1, n]


def conv_pdf_phase_type(rates: RatesLike, z: float | np.ndarray) -> float | np.ndarray:
    """Density E[0, N-1] lambda_N of E = expm(Q z), Q the absorbing generator of the rates.

    ``z`` is a scalar (float result, one matrix exponential) or an array
    (one matrix exponential per distinct gap between sorted points, see
    _absorption).  Every entry of the exponential is accurate to a few eps
    relative, so the density keeps its relative accuracy into both tails.
    """
    q = _absorbing_generator(as_rate_vector(rates))
    return _absorption(q, _check_points(z))[1]


# ---------------------------------------------------------------------------
# public sum-law operations


def sum_route(rates: RatesLike) -> tuple[str, Union[SignedExponentialMixture, np.ndarray]]:
    """The evaluation route of the sum law and the form it evaluates; the one place it is decided.

    ("closed-form", mixture) for a single repeated rate (one exact Gamma term)
    and for distinct rates whose cdf rounding N max|A_n| eps (a sum of N
    terms, each at most max|A_n|) is at most CDF_CLAMP_WINDOW; else
    ("phase-type", Q), Q the absorbing generator.
    """
    rv = as_rate_vector(rates)
    if len(rv.clusters) == 1:
        return "closed-form", conv_mixture(rv)
    try:
        coeffs = conv_coefficients(rv) if rv.is_distinct else None
    except NumericalError:  # an A_n that is not a finite double
        coeffs = None
    if coeffs is not None and rv.n * coeffs.condition_estimate * math.ulp(1.0) <= CDF_CLAMP_WINDOW:
        return "closed-form", _distinct_mixture(coeffs)
    return "phase-type", _absorbing_generator(rv)


def conv_pdf(rates: RatesLike, z: float | np.ndarray) -> float | np.ndarray:
    """Density of the sum at z >= 0 (a scalar or an array), on the sum_route route; points checked once, before the rates."""
    zz = _check_points(z)
    route, form = sum_route(rates)
    if route == "phase-type":
        return _absorption(form, zz)[1]
    return float(_eval_grid(form, np.atleast_1d(zz))[0]) if isinstance(zz, float) else _eval_grid(form, zz)


def conv_cdf(rates: RatesLike, z: float | np.ndarray) -> float | np.ndarray:
    """Distribution function of the sum, scalar or array z, same routes and checks as conv_pdf."""
    zz = _check_points(z)
    route, form = sum_route(rates)
    if route == "phase-type":
        return _absorption(form, zz)[0]
    return float(_cdf_grid(form, np.atleast_1d(zz))[0]) if isinstance(zz, float) else _cdf_grid(form, zz)


def conv_quantile(rates: RatesLike, p: float) -> float:
    """Inverse cdf of the sum; cdf residual at most 1e-10.

    The Gamma law (one cluster) solves on its one exact term through
    mixture_quantile.  Every other sum solves on the chain, whatever route
    its pdf and cdf take: the closed form's rounding is absolute, and at
    p = 1e-12 its quantile was off by up to 5e-4 relative.  Newton takes the
    sum's moments and one expm(Q t) per step (_absorption), about 4 per
    quantile.
    """
    rv = as_rate_vector(rates)
    if len(rv.clusters) == 1:
        return mixture_quantile(conv_mixture(rv), p)
    mean, var = conv_moments(rv)
    q = _absorbing_generator(rv)
    return _newton_quantile(lambda t: _absorption(q, t), p, mean, var)


def conv_moments(rates: RatesLike) -> tuple[float, float]:
    """(mean, variance) of the sum: sum 1/lambda_n and sum 1/lambda_n^2.

    Raises CapacityError when either leaves the double range: a sum past it
    (fsum's OverflowError), lambda_n^2 underflowing to 0, or 1/lambda_n^2
    overflowing to inf.
    """
    rv = as_rate_vector(rates)
    try:
        mean = math.fsum(1.0 / r for r in rv.rates)
        var = math.fsum(1.0 / (r * r) for r in rv.rates)
        if var < math.inf:
            return mean, var
    except (OverflowError, ZeroDivisionError):
        pass
    raise CapacityError(
        f"the mean and variance of a sum with rates down to {min(rv.rates)!r} lie outside the double range"
    )


# ---------------------------------------------------------------------------
# the transform identity


def _transform_factors(rates: tuple[float, ...], t: complex) -> list[complex]:
    """lambda_n / (lambda_n - i t) for each rate, at a real or complex frequency t.

    Raises DomainError when i t lies within 1e-9 relative of a rate, where
    its factor has a pole; a real t never does.
    """
    s = 1j * t
    for r in rates:
        if abs(r - s) <= 1e-9 * max(r, abs(s)):
            raise DomainError(f"frequency {t!r} puts i t at the pole of rate {r!r}")
    return [r / (r - s) for r in rates]


def char_fn_product(rates: RatesLike, t: complex) -> complex:
    """Transform of the sum at a real or complex frequency t, prod_n lambda_n / (lambda_n - i t).

    A real t gives the characteristic function (|value| <= 1, value(0) = 1),
    t = -i mu the product prod_n lambda_n / (lambda_n - mu).
    """
    value = complex(1.0)
    for factor in _transform_factors(as_rate_vector(rates).rates, t):
        value *= factor
    return value


def char_fn_linear_combination(rates: RatesLike, t: complex) -> complex:
    """The same transform as sum_n A_n lambda_n / (lambda_n - i t), for distinct rates.

    Real and imaginary parts are each accumulated with compensated summation
    since the A_n alternate in sign.  Repeated rates raise conv_coefficients'
    DomainError.
    """
    coeffs = conv_coefficients(rates)
    parts = [a * f for a, f in zip(coeffs.coefficients, _transform_factors(coeffs.rates, t))]
    return complex(math.fsum(p.real for p in parts), math.fsum(p.imag for p in parts))
