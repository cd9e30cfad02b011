"""Distribution of the sum of independent heterogeneous exponentials.

For pairwise-distinct rates the density has the closed form

    f(z) = sum_n A_n * lambda_n * exp(-lambda_n z),
    A_n  = prod_{j != n} lambda_j / (lambda_j - lambda_n),

a signed combination whose coefficients blow up as rates approach each
other.  Every sum-law operation takes one of two routes, chosen by
``sum_route``:

* ``closed-form``: a signed mixture, either the combination above for
  well-separated distinct rates or, when every rate is the same, the one
  exact Gamma term;
* ``phase-type``: every other rate vector, that is distinct rates closer
  than ``SWITCH_THRESHOLD`` (relative) and any repeated rate beside other
  rates, is evaluated as the absorption time of a chain of N stages in
  series plus one absorbing state.  With E = expm(Q z) for its
  (N+1) x (N+1) generator Q, the pdf is E[0, N-1] lambda_N and the cdf is
  E[0, N].  ``expm`` here is the entrywise-accurate exponential of a
  Metzler matrix (Xue & Ye, Math. Comp. 2013), built from sums and
  products of non-negative numbers, so both tails keep their relative
  accuracy whatever the gaps, and scipy.linalg is not imported; the
  route's quantiles take safeguarded Newton steps, one expm each.

Repeated rates beside other rates give the confluent (Erlang-block)
expansion of conv_mixture, whose coefficients cancel once two clusters
meet just as those of close distinct rates do: on (0.5, 0.6, 3.0) x 4 its
cdf is off by 9e19 relative at 1e-3 of the mean, where the chain holds
1e-13, so those sums run on the chain at any gap.  The rates are taken as
given: close but unequal rates are not merged into a cluster.  The gap
rule ignores the number of rates, so the handoff is not continuous: at N=6
and gap 1.1e-3, just above the threshold, the closed form is off by
relative pdf errors near 0.15.

The characteristic-function identities and the partial-fraction residual
check provide cheap internal consistency tests of the same coefficients.
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
    RatesLike,
    RateVector,
    SignedExponentialMixture,
    _check_points,
    _check_rate,
    _clamp_unit,
    _newton_quantile,
    as_rate_vector,
    mixture_cdf,
    mixture_eval,
    mixture_quantile,
)
from .errors import CapacityError, DegenerateRatesError, DomainError, NumericalError

# Minimal cross-cluster relative gap below which sum_route delegates
# evaluation to the phase-type route instead of the signed closed form.
SWITCH_THRESHOLD = 1e-3

_TINY = sys.float_info.min  # the smallest normal double


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
    the rates as given.  Raises DegenerateRatesError when a rate is repeated
    (conv_pdf / conv_mixture build Erlang blocks for those instead), and
    NumericalError when a product overflows or is otherwise not finite.
    """
    rv = as_rate_vector(rates)
    if not rv.is_distinct:
        raise DegenerateRatesError(
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
    """Mixture terms of the sum density for cluster rates mu with multiplicities.

    The Laplace transform is C * prod_g (s + mu_g)^{-m_g} with
    C = prod mu_g^{m_g}.  Expanding in partial fractions with repeated poles,

        prod_g (s+mu_g)^{-m_g} = sum_g sum_{k=1}^{m_g} a_{g,k} (s+mu_g)^{-k},
        a_{g,k} = phi_g^{(m_g-k)}(-mu_g) / (m_g-k)!,
        phi_g(s) = prod_{h != g} (s+mu_h)^{-m_h},

    and inverting (s+mu)^{-k} to z^{k-1} e^{-mu z}/(k-1)! gives terms
    (C a_{g,k}/(k-1)!, mu_g, k-1).  Derivatives of phi_g = exp(psi_g) follow
    the Leibniz recurrence with the explicit log-derivatives

        psi_g^{(j)}(-mu_g) = (-1)^j (j-1)! sum_{h != g} m_h (mu_h-mu_g)^{-j}.

    The terms are formed in floats as written.  When a power, factorial or
    binomial there leaves the double range, or C, a phi_g or a nonzero
    coefficient comes out other than a normal double, they are formed again
    exactly (_exact_confluent_terms), which raises CapacityError for a
    coefficient outside the normal range.
    """
    try:
        c_total = 1.0
        for m, k in zip(mu, mult):
            c_total *= m**k
        normal = [c_total]
        terms: list[tuple[float, float, int]] = []
        for g, (mu_g, m_g) in enumerate(zip(mu, mult)):
            psi = [0.0] * m_g  # psi[j] = psi_g^(j)(-mu_g), j >= 1 used
            for j in range(1, m_g):
                s = math.fsum(
                    mult[h] / (mu[h] - mu_g) ** j for h in range(len(mu)) if h != g
                )
                psi[j] = (-1.0) ** j * math.factorial(j - 1) * s
            phi = [0.0] * m_g
            phi[0] = math.prod(
                (mu[h] - mu_g) ** (-mult[h]) for h in range(len(mu)) if h != g
            )
            normal.append(phi[0])
            for r in range(1, m_g):
                phi[r] = math.fsum(
                    math.comb(r - 1, j) * psi[r - j] * phi[j] for j in range(r)
                )
            for k in range(1, m_g + 1):
                a = phi[m_g - k] / math.factorial(m_g - k)
                coeff = c_total * a / math.factorial(k - 1)
                terms.append((coeff, mu_g, k - 1))
                if a:
                    normal.append(coeff)
        if all(_TINY <= abs(v) < math.inf for v in normal):
            return terms
    except (ArithmeticError, ValueError):  # an overflow, a division by an underflowed power, inf - inf
        pass
    return _exact_confluent_terms(mu, mult)


def _exact_confluent_terms(mu: tuple[float, ...], mult: tuple[int, ...]) -> list[tuple[float, float, int]]:
    """The terms of _confluent_terms in exact rational arithmetic, each coefficient rounded once.

    With d_r = phi_g^{(r)}(-mu_g) / r! the Leibniz recurrence reads
    r d_r = sum_{j=1}^{r} (-1)^j s_j d_{r-j}, s_j = sum_{h != g} m_h (mu_h-mu_g)^{-j},
    and a_{g,k} = d_{m_g-k}.  Raises CapacityError, naming the cluster, when a
    nonzero coefficient lies outside the normal double range.
    """
    q = [Fraction(m) for m in mu]
    c_total = math.prod(m**k for m, k in zip(q, mult))
    terms = []
    for g, (mu_g, m_g) in enumerate(zip(q, mult)):
        gaps = [(q[h] - mu_g, mult[h]) for h in range(len(q)) if h != g]
        s = [sum((m / gap**j for gap, m in gaps), Fraction(0)) for j in range(m_g)]
        d = [math.prod((gap**-m for gap, m in gaps), start=Fraction(1))]
        for r in range(1, m_g):
            d.append(sum((-1) ** j * s[j] * d[r - j] for j in range(1, r + 1)) / r)
        for k in range(1, m_g + 1):
            coeff = c_total * d[m_g - k] / math.factorial(k - 1)
            if coeff and not _TINY <= abs(coeff) <= sys.float_info.max:
                magnitude = math.log10(abs(coeff.numerator)) - math.log10(coeff.denominator)
                raise CapacityError(
                    f"the degree-{k - 1} coefficient of the cluster of {m_g} rates at {mu[g]!r} "
                    f"is about 1e{magnitude:.0f}, outside the normal double range"
                )
            terms.append((float(coeff), mu[g], k - 1))
    return terms


def conv_mixture(rates: RatesLike) -> SignedExponentialMixture:
    """Signed-mixture form of the sum density.

    Distinct rates give the degree-0 closed form; each repeated rate
    contributes Erlang-block terms of degree up to multiplicity - 1 at that
    rate (all rates equal recovers the Gamma(N, rate) density exactly).  The
    coefficients grow without bound as cross-cluster gaps shrink, and those
    of two or more clusters cancel at any gap once a rate repeats, so
    conv_pdf, conv_cdf and conv_quantile evaluate this mixture only for
    well-separated distinct rates and for a single repeated rate (sum_route);
    it is built here for callers who ask for the mixture itself.
    """
    rv = as_rate_vector(rates)
    if rv.is_distinct:
        coeffs = conv_coefficients(rv)
        terms = [(a * ln, ln, 0) for a, ln in zip(coeffs.coefficients, coeffs.rates)]
    else:
        terms = _confluent_terms(rv.cluster_rates, rv.cluster_sizes)
    return SignedExponentialMixture.from_terms(terms, is_density=True)


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
    inverse_factorials = np.concatenate(([1.0], 1.0 / np.cumprod(np.arange(1.0, p * q))))
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
    E = expm(Q z): the pdf is E[0, N-1] lambda_N and the cdf is E[0, N],
    clamped into [0, 1].  Both are entries of a Metzler exponential, so both
    tails keep their relative accuracy; the cdf is not one minus the
    survival.  A scalar reads row 0 of one expm(Q z), the identity row at
    z = 0.  An array takes one pass over the points in sorted order, which
    carries the state from each point to the next by the semigroup step
    state . expm(Q gap), so a grid costs one matrix exponential per distinct
    gap (about 10-20 for a linspace grid) rather than one per point.  Only a
    gap that recurs keeps its step matrix: memory is O(N^2 + points) plus at
    most one (N+1) x (N+1) matrix per distinct recurring gap.  A non-finite
    state raises NumericalError.
    """
    n = q.shape[0] - 1
    if isinstance(zz, float):
        row = expm(q * zz)[0] if zz else np.eye(1, n + 1)[0]
        entry, cdf = float(row[n - 1]), float(row[n])
        if not (math.isfinite(entry) and math.isfinite(cdf)):
            raise NumericalError(f"matrix exponential produced {[entry, cdf]!r} at z={zz!r} (n={n})")
        return _clamp_unit(cdf, "phase-type cdf"), entry * float(q[n - 1, n])
    points = np.ravel(zz)
    order = np.argsort(points, kind="stable")
    gaps = np.diff(points[order], prepend=0.0).tolist()
    steps = {gap: None for gap, count in Counter(gaps).items() if count > 1}
    state = np.zeros(n + 1)
    state[0] = 1.0
    entries = np.empty((len(points), 2))  # E[0, N-1] and E[0, N] at each point
    for i, gap in zip(order.tolist(), gaps):
        if gap:
            step = steps.get(gap)
            if step is None:
                step = expm(q * gap)
                if gap in steps:
                    steps[gap] = step
            state = state @ step
        entries[i] = state[n - 1 :]
    finite = np.isfinite(entries).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NumericalError(f"matrix exponential produced {entries[i].tolist()!r} at z={float(points[i])!r} (n={n})")
    pdf = entries[:, 0] * q[n - 1, n]
    cdf = entries[:, 1]
    for i in np.flatnonzero((cdf < 0.0) | (cdf > 1.0)):
        cdf[i] = _clamp_unit(float(cdf[i]), "phase-type cdf")
    return cdf, pdf


def conv_pdf_phase_type(rates: RatesLike, z: float | np.ndarray) -> float | np.ndarray:
    """Density E[0, N-1] lambda_N of E = expm(Q z), Q the absorbing generator of the rates.

    ``z`` is a scalar (float result, one matrix exponential) or an array
    (one matrix exponential per distinct gap between sorted points, see
    _absorption).  Serves as the gap-independent evaluation path: every entry
    of the exponential is accurate to a few eps relative, so the density
    keeps its relative accuracy into both tails, and it agrees with the
    closed form to ~1e-12 relative wherever that is well conditioned.
    """
    q = _absorbing_generator(as_rate_vector(rates))
    return _absorption(q, _check_points(z))[1]


# ---------------------------------------------------------------------------
# public sum-law operations


def sum_route(rates: RatesLike) -> tuple[str, Union[SignedExponentialMixture, np.ndarray]]:
    """The evaluation route of the sum law and the form it evaluates; the one place it is decided.

    ("closed-form", conv_mixture) for distinct rates whose smallest relative
    gap is at least SWITCH_THRESHOLD and for a single repeated rate (one
    exact Gamma term); else ("phase-type", Q) with Q the absorbing generator
    (_absorbing_generator).  Two or more clusters with a repeated rate take
    the chain at any gap: their Erlang-block coefficients cancel as close
    distinct rates do (see the module docstring).
    """
    rv = as_rate_vector(rates)
    if rv.min_cross_cluster_gap < SWITCH_THRESHOLD or 1 < len(rv.clusters) < rv.n:
        return "phase-type", _absorbing_generator(rv)
    return "closed-form", conv_mixture(rv)


def conv_pdf(rates: RatesLike, z: float | np.ndarray) -> float | np.ndarray:
    """Density of the sum at z >= 0 (a scalar or an array), on the sum_route route."""
    zz = _check_points(z)
    route, form = sum_route(rates)
    if route == "phase-type":
        return _absorption(form, zz)[1]
    return mixture_eval(form, zz)


def conv_cdf(rates: RatesLike, z: float | np.ndarray) -> float | np.ndarray:
    """Distribution function of the sum, scalar or array z, same routes as conv_pdf."""
    zz = _check_points(z)
    route, form = sum_route(rates)
    if route == "phase-type":
        return _absorption(form, zz)[0]
    return mixture_cdf(form, zz)


def conv_quantile(rates: RatesLike, p: float) -> float:
    """Inverse cdf of the sum; cdf residual at most 1e-10.

    The route decides the solver.  The closed-form route solves cdf(t) = p
    by Brent's method (mixture_quantile).  The phase-type route takes Newton
    steps safeguarded by bisection from the mean: one matrix exponential
    expm(Q t) gives both the cdf and the pdf (_absorption), so each step
    costs one expm (about 7 per quantile on average).
    """
    rv = as_rate_vector(rates)
    route, form = sum_route(rv)
    if route != "phase-type":
        return mixture_quantile(form, p)
    mean, var = conv_moments(rv)
    return _newton_quantile(lambda t: _absorption(form, t), p, mean, var)


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
# characteristic-function identities


def char_fn_product(rates: RatesLike, t: float) -> complex:
    """Characteristic function of the sum at frequency t, prod_n lambda_n / (lambda_n - i t).

    |value| <= 1 and value(0) = 1; one rate gives the single exponential's transform.
    """
    rv = as_rate_vector(rates)
    value = complex(1.0)
    for r in rv.rates:
        value *= r / (r - 1j * t)
    return value


def char_fn_linear_combination(rates: RatesLike, t: float) -> complex:
    """The same transform written as sum_n A_n phi_n(t) (distinct rates only).

    Real and imaginary parts are each accumulated with compensated summation
    since the A_n alternate in sign.
    """
    rv = as_rate_vector(rates)
    if not rv.is_distinct:
        raise DegenerateRatesError(
            "the linear-combination transform needs pairwise-distinct rates"
        )
    coeffs = conv_coefficients(rv)
    parts = [
        a * (r / (r - 1j * t)) for a, r in zip(coeffs.coefficients, coeffs.rates)
    ]
    return complex(math.fsum(p.real for p in parts), math.fsum(p.imag for p in parts))


def partial_fraction_identity_check(rates: RatesLike, probe_rate: float) -> float:
    """Residual of the coefficient identity under an extra probe rate.

    With distinct rates lambda_1..lambda_N and a probe mu distinct from all
    of them, the partial-fraction coefficients satisfy

        sum_n [lambda_n/(lambda_n - mu)] A_n = prod_j lambda_j/(lambda_j - mu).

    Returns |left - right|; the contract is residual <= 1e-8 times the
    coefficient condition estimate.
    """
    rv = as_rate_vector(rates)
    _check_rate(probe_rate, "probe rate")
    for r in rv.rates:
        # the terms lambda/(lambda - mu) blow up as the probe nears a rate
        if abs(r - probe_rate) <= 1e-9 * max(r, probe_rate):
            raise DomainError(f"probe rate {probe_rate!r} collides with rate {r!r}")
    coeffs = conv_coefficients(rv)
    left = math.fsum(
        a * (r / (r - probe_rate)) for a, r in zip(coeffs.coefficients, coeffs.rates)
    )
    right = 1.0
    for r in rv.rates:
        right *= r / (r - probe_rate)
    return abs(left - right)
