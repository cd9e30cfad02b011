"""Core types and evaluation machinery.

The whole package works with one closed form: finite signed mixtures

    f(z) = sum_i  c_i * z^{k_i} * exp(-lambda_i * z),   z >= 0,

with possibly negative coefficients.  Sums of independent exponentials,
minima, maxima and ranges all land in this family, so the mixture type
carries the shared evaluation, integration, cdf, quantile and moment
machinery.  Signed coefficients of alternating sign are the central
numerical hazard; every scalar reduction here therefore goes through
compensated summation (math.fsum, an error-free transformation).  Rates are
taken as given: exactly repeated rates form clusters (Erlang blocks), and
close but unequal rates keep their values.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from .errors import CapacityError, ContractError, DomainError, NumericalError

logger = logging.getLogger(__name__)

# cdf values may round to just outside [0,1]; clamping inside this window is
# routine (logged at debug), beyond it the overshoot is reported loudly.
CDF_CLAMP_WINDOW = 1e-12

# Quantile bracket: mean + 40 standard deviations covers p <= 1 - 1e-12 for
# every exponential mixture at desk scale.
QUANTILE_BRACKET_SIGMAS = 40.0

# The grid kernels evaluate this many points at a time (the last block fewer
# than twice as many), so their temporaries hold fewer than terms x 2 GRID_BLOCK
# doubles however many points are asked for.
GRID_BLOCK = 8192

# k! correctly rounded for k = 0..170, and inf for every larger k (171! overflows).
_FACTORIALS = np.array([float(math.factorial(k)) for k in range(171)] + [math.inf])
_HALF_EPS = 0.5 * math.ulp(1.0)


def factorial(k: np.ndarray) -> np.ndarray:
    """k! as float64 for non-negative integers k, elementwise, from a correctly rounded table.

    Equal bit for bit to scipy.special.factorial up to k = 24 (above that
    scipy's gamma-function values may be an ulp off the correctly rounded
    ones), and inf above 170 as scipy gives.
    """
    return _FACTORIALS[np.minimum(k, 171)]


def _gammainc_float(a: int, x: float) -> float:
    """gammainc at one point, in Python floats."""
    if x >= 4 * a + 50:  # Q(a, x) < e^-49 by a Chernoff bound, so P rounds to 1
        return 1.0
    if not x > 0.0:
        return 0.0 if x == 0.0 else math.nan
    lead = math.exp(a * math.log(x) - math.log(math.factorial(a)) - x)
    term, total, j = 1.0, 1.0, float(a)
    if x < a:
        while term > _HALF_EPS:
            j += 1.0
            term *= x / j
            total += term
        return lead * total
    while term > _HALF_EPS:
        j -= 1.0
        term *= j / x
        total += term
    return 1.0 - lead * a / x * total


def gammainc(a, x):
    """Regularized lower incomplete gamma P(a, x) at integer shapes a >= 1, broadcast over (a, x).

    From L = x^a e^{-x} / a! = exp(a log x - log a! - x), which never overflows, P is
    L sum_i x^i / ((a+1)...(a+i)) below x = a and 1 - L (a/x) sum_i (a-1)...(a-i) / x^i from
    x = a on, a complement of at most about 1/2.  Each sum, at least 1, stops at a term below
    eps/2.  0 at x = 0, NaN at x < 0.  At most 16 points in two 1-d arrays of one shape, as
    the scalar cdf passes, run in Python floats, where numpy's per-call cost would dominate.
    """
    a, x = np.asarray(a, dtype=np.int64), np.asarray(x, dtype=np.float64)
    if x.ndim == 1 and a.shape == x.shape and x.size <= 16:
        return np.array(list(map(_gammainc_float, a.tolist(), x.tolist())))
    log_fact = np.array([math.log(math.factorial(k)) for k in a.ravel().tolist()]).reshape(a.shape)
    a, log_fact, x = np.broadcast_arrays(a.astype(np.float64), log_fact, x)
    out = np.where(x == np.inf, 1.0, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        lead = np.exp(a * np.log(x) - log_fact - x)
        for below, part in ((True, (0.0 <= x) & (x < a)), (False, (a <= x) & (x < np.inf))):
            xs, s, term, total, i = x[part], a[part], 1.0, 1.0, 0
            while np.any(term > _HALF_EPS):
                i += 1
                term = term * (xs / (s + i) if below else (s - i) / xs)
                total = total + term
            out[part] = lead[part] * total if below else 1.0 - lead[part] * s / xs * total
    return out


# ---------------------------------------------------------------------------
# argument checks


def _check_rate(value: float, name: str) -> float:
    """``value`` as a float; DomainError naming ``name`` unless finite and positive."""
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be finite and positive, got {value!r}")
    return float(value)


def _check_points(z) -> float | np.ndarray:
    """A scalar z as a float, anything else as a float64 array.

    Raises DomainError unless every point is finite and non-negative, so NaN
    and infinite arguments never reach the kernels, and for an array of more
    than one dimension, which every kernel would mishandle differently.
    Python numbers skip numpy, whose per-call overhead would dominate the
    per-point loops.
    """
    if isinstance(z, (int, float)):
        if not (math.isfinite(z) and z >= 0.0):
            raise DomainError(f"points must be finite and non-negative, got {z!r}")
        return float(z)
    zz = np.asarray(z, dtype=np.float64)
    if zz.ndim > 1:
        raise DomainError(f"points must be a scalar or a 1-d array, got shape {zz.shape}")
    bad = ~(np.isfinite(zz) & (zz >= 0.0))
    if np.any(bad):
        raise DomainError(f"points must be finite and non-negative, got {float(zz[bad].flat[0])!r}")
    return float(zz) if zz.ndim == 0 else zz


# ---------------------------------------------------------------------------
# rate vectors


@dataclass(frozen=True)
class RateVector:
    """Validated vector of positive rates, with its exactly repeated rates grouped.

    A cluster is the set of indices of one rate value, so permuting the input
    produces identical clusters, and close but unequal rates stay apart.

    Attributes:
        rates: the rates in input order, each finite and strictly positive.
        clusters: partition of indices 0..N-1 into groups of equal rates,
            ordered by increasing rate.
    """

    rates: tuple[float, ...]
    clusters: tuple[tuple[int, ...], ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        rates = tuple(_check_rate(float(r), "rates") for r in self.rates)
        if len(rates) == 0:
            raise DomainError("rate vector must be non-empty")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "clusters", self._cluster(rates))

    @staticmethod
    def _cluster(rates: tuple[float, ...]) -> tuple[tuple[int, ...], ...]:
        groups: dict[float, list[int]] = {}
        for i, r in enumerate(rates):
            groups.setdefault(r, []).append(i)
        return tuple(tuple(groups[r]) for r in sorted(groups))

    def __len__(self) -> int:
        return len(self.rates)

    def __iter__(self):
        return iter(self.rates)

    @property
    def n(self) -> int:
        return len(self.rates)

    @property
    def total(self) -> float:
        """Sum of all rates (the rate of the minimum), correctly rounded by math.fsum.

        Raises CapacityError when the sum leaves the double range, where
        fsum raises OverflowError.
        """
        try:
            return math.fsum(self.rates)
        except OverflowError:
            raise CapacityError(
                f"the sum of {self.n} rates up to {max(self.rates)!r} lies outside the double range"
            ) from None

    @property
    def is_distinct(self) -> bool:
        """True when every cluster is a singleton."""
        return all(len(g) == 1 for g in self.clusters)

    @property
    def cluster_rates(self) -> tuple[float, ...]:
        """The repeated rate of each cluster, in increasing order."""
        return tuple(self.rates[g[0]] for g in self.clusters)

    @property
    def cluster_sizes(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.clusters)

    @property
    def min_cross_cluster_gap(self) -> float:
        """Smallest relative gap between adjacent cluster rates (inf if one cluster)."""
        reps = self.cluster_rates
        if len(reps) < 2:
            return math.inf
        return min((b - a) / b for a, b in zip(reps, reps[1:]))


RatesLike = Union[RateVector, Sequence[float]]


def as_rate_vector(rates: RatesLike) -> RateVector:
    """Coerce a sequence of rates into a RateVector (pass-through if already one)."""
    if isinstance(rates, RateVector):
        return rates
    return RateVector(tuple(float(r) for r in rates))


# ---------------------------------------------------------------------------
# exponential law


@dataclass(frozen=True)
class ExponentialLaw:
    """Exponential distribution with density rate * exp(-rate * x) on x >= 0."""

    rate: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", _check_rate(float(self.rate), "rate"))


# ---------------------------------------------------------------------------
# signed exponential mixtures


class MixtureTerm(NamedTuple):
    coefficient: float
    rate: float
    degree: int


def _canonicalize(
    coefficients: np.ndarray, rates: np.ndarray, degrees: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort by (rate, degree), merge terms whose rate and degree are exactly equal.

    Unequal rates stay apart however close they are, so the mixture is the
    law its terms describe: a relative tolerance would fold the two terms of
    about +-1e13 in conv_mixture((1, 1 + 1e-13, 2)) into one.  Exact-zero coefficients are dropped.  Ties are broken by coefficient, so
    the summation order inside a group, and with it the rounding of the
    merged coefficient, does not depend on the order the terms were given in.
    """
    if coefficients.size == 0:
        return coefficients, rates, degrees
    order = np.lexsort((coefficients, degrees, rates))
    c, r, d = coefficients[order], rates[order], degrees[order]
    new_group = (r[1:] != r[:-1]) | (d[1:] != d[:-1])
    starts = np.concatenate(([0], np.nonzero(new_group)[0] + 1))
    c, r, d = np.add.reduceat(c, starts), r[starts], d[starts]
    keep = c != 0.0
    return c[keep], r[keep], d[keep]


@dataclass(frozen=True, eq=False)
class SignedExponentialMixture:
    """Finite signed mixture sum_i c_i * z^{k_i} * exp(-rate_i * z) on z >= 0.

    Terms are stored canonically: sorted by (rate, degree), duplicates merged,
    zero coefficients dropped.  ``is_density`` asserts that the mixture is a
    probability density (non-negative, unit integral); cdf and quantile
    operations require the flag.  Instances are immutable.
    """

    coefficients: np.ndarray
    rates: np.ndarray
    degrees: np.ndarray
    is_density: bool = False

    def __post_init__(self) -> None:
        c = np.ascontiguousarray(self.coefficients, dtype=np.float64)
        r = np.ascontiguousarray(self.rates, dtype=np.float64)
        d = np.ascontiguousarray(self.degrees, dtype=np.int64)
        if not (c.shape == r.shape == d.shape) or c.ndim != 1:
            raise DomainError("coefficients, rates and degrees must be 1-d and equal length")
        if not np.all(np.isfinite(c)):
            raise DomainError("mixture coefficients must be finite")
        if r.size and (not np.all(np.isfinite(r)) or np.any(r <= 0.0)):
            raise DomainError("mixture rates must be finite and positive")
        if np.any(d < 0):
            raise DomainError("mixture degrees must be non-negative")
        c, r, d = _canonicalize(c, r, d)
        for arr in (c, r, d):
            arr.setflags(write=False)
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "rates", r)
        object.__setattr__(self, "degrees", d)

    @classmethod
    def from_terms(
        cls, terms: Iterable[tuple[float, float, int]], is_density: bool = False
    ) -> "SignedExponentialMixture":
        """Build from (coefficient, rate, degree) triples."""
        triples = list(terms)
        c = np.array([t[0] for t in triples], dtype=np.float64)
        r = np.array([t[1] for t in triples], dtype=np.float64)
        d = np.array([t[2] for t in triples], dtype=np.int64)
        return cls(c, r, d, is_density=is_density)

    @property
    def n_terms(self) -> int:
        return int(self.coefficients.size)

    @property
    def terms(self) -> tuple[MixtureTerm, ...]:
        """Canonical terms as named tuples (intended for small mixtures)."""
        return tuple(
            MixtureTerm(float(c), float(r), int(d))
            for c, r, d in zip(self.coefficients, self.rates, self.degrees)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedExponentialMixture):
            return NotImplemented
        return (
            self.is_density == other.is_density
            and self.coefficients.shape == other.coefficients.shape
            and bool(np.all(self.coefficients == other.coefficients))
            and bool(np.all(self.rates == other.rates))
            and bool(np.all(self.degrees == other.degrees))
        )

    def __repr__(self) -> str:
        if self.n_terms <= 6:
            body = ", ".join(
                f"({c:.6g}, {r:.6g}, {d})"
                for c, r, d in zip(self.coefficients, self.rates, self.degrees)
            )
        else:
            body = f"<{self.n_terms} terms>"
        return f"SignedExponentialMixture([{body}], is_density={self.is_density})"

    @cached_property
    def _cdf_kernel(self) -> tuple[np.ndarray, ...]:
        """Per-term constants of the termwise cdf, formed once per mixture.

        (a, -rate) of the degree-0 terms, whose antiderivative is
        a * expm1(-rate z) with a = -(c / rate); (b, k + 1, rate) of the
        Erlang terms, b * gammainc(k + 1, rate z) with b = c k! / rate^(k+1)
        (_gamma_weights); and the bound terms * max(|a|, |b|) on every
        partial sum at z >= 0.  a and b are the left-to-right prefixes of each
        term's product, so a term rounds exactly as the whole product
        evaluated in one expression.
        """
        flat = self.degrees == 0
        c, lam, k = self.coefficients, self.rates, self.degrees
        a = -(c[flat] / lam[flat])
        k, lam_k = k[~flat], lam[~flat]
        b = _gamma_weights(c[~flat], k, lam_k)
        bound = self.n_terms * float(max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0)))
        return a, -lam[flat], b, k + 1, lam_k, bound

    def scaled(self, factor: float) -> "SignedExponentialMixture":
        """Mixture with all coefficients multiplied by ``factor`` (drops density flag)."""
        return SignedExponentialMixture(
            self.coefficients * factor, self.rates, self.degrees, is_density=False
        )


def mixture_sum(
    parts: Iterable[SignedExponentialMixture], is_density: bool = False
) -> SignedExponentialMixture:
    """Termwise sum of mixtures, canonicalized."""
    parts = list(parts)
    return SignedExponentialMixture(
        np.concatenate([p.coefficients for p in parts]),
        np.concatenate([p.rates for p in parts]),
        np.concatenate([p.degrees for p in parts]),
        is_density=is_density,
    )


def _require_density(m: SignedExponentialMixture, op: str) -> None:
    if not m.is_density:
        raise ContractError(f"{op} requires a mixture flagged as a probability density")


def _term_values(c, k, lam, z) -> np.ndarray:
    """The terms c z^k exp(-lam z), broadcast over the arguments.

    A term that overflows on the way (z^k = inf, and inf * 0 = NaN) is formed
    again as c exp(k log z - lam z); every finite term keeps its bits.  The
    first pass runs with numpy's floating-point warnings off, since the
    second handles what they would report.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        vals = c * np.power(z, k) * np.exp(-lam * z)
        if not math.isfinite(vals.sum()):
            redo = ~np.isfinite(vals)
            c, k, lam, z = (np.broadcast_to(v, vals.shape)[redo] for v in (c, k, lam, z))
            vals[redo] = c * np.exp(k * np.log(z) - lam * z)
    return vals


def _gamma_weights(c: np.ndarray, k: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """c k! / lam^(k+1) termwise, the integral of c z^k exp(-lam z) over [0, inf).

    A weight whose product as written leaves the double range (k! past k = 170,
    c k! or lam^(k+1) overflowing, lam^(k+1) underflowing to 0) is formed again
    from logarithms; every other weight keeps the bits of the product.  Both
    passes run with numpy's floating-point warnings off: the first pass's
    overflows are what the second handles, and a weight outside the double
    range comes out infinite.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        power = lam ** (k + 1)
        w = c * factorial(k) / power
        if not math.isfinite(w @ power):  # an out-of-range weight or power gives inf, or inf * 0 = NaN
            redo = ~np.isfinite(w * power)
            c, k, lam = c[redo], k[redo], lam[redo]
            log_fact = np.array([math.log(math.factorial(v)) for v in k.tolist()])
            w[redo] = np.sign(c) * np.exp(np.log(np.abs(c)) + log_fact - (k + 1) * np.log(lam))
    return w


def mixture_eval(m: SignedExponentialMixture, z: float | np.ndarray) -> float | np.ndarray:
    """Evaluate the mixture at z >= 0, a scalar (float result) or an array.

    An array goes to mixture_eval_grid.  At a scalar, term values are
    summed with math.fsum, which rounds the exact sum correctly in any
    order, so alternating-sign cancellation costs no more than the rounding
    already present in the individual terms.  A density mixture is clamped
    at zero: a negative value there is rounding in the coefficients.
    """
    z = _check_points(z)
    if not isinstance(z, float):
        return mixture_eval_grid(m, z)
    if m.n_terms == 0:
        return 0.0
    total = math.fsum(_term_values(m.coefficients, m.degrees, m.rates, z))
    return max(total, 0.0) if m.is_density else total


def _grid_blocks(n: int) -> list[slice]:
    """Consecutive slices of n points: GRID_BLOCK each, the last taking the rest.

    Only a grid of fewer than GRID_BLOCK points gives a shorter block, so
    every point is evaluated as it would be in one block over the whole
    grid: numpy squares z for z**2 or calls pow depending on how the points
    fill its 8192-element ufunc buffer, and sums a one-point block's terms
    pairwise instead of in order.
    """
    starts = list(range(0, max(n - GRID_BLOCK, 0) + 1, GRID_BLOCK))
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def mixture_eval_grid(m: SignedExponentialMixture, z: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over a grid of non-negative points.

    Each point sums its terms in canonical order with plain float additions;
    for severely ill-conditioned mixtures prefer scalar calls of
    mixture_eval, which are fully compensated.  Points are taken GRID_BLOCK
    at a time (_grid_blocks), so working memory is O(terms x GRID_BLOCK)
    plus the result, and the values are those of one block bit for bit.
    A density mixture is clamped at zero, as in mixture_eval.
    """
    zz = np.atleast_1d(_check_points(z))
    if m.n_terms == 0:
        return np.zeros_like(zz)
    c = m.coefficients[:, None]
    lam = m.rates[:, None]
    k = m.degrees[:, None]
    vals = np.empty_like(zz)
    for block in _grid_blocks(zz.size):
        zb = zz[None, block]
        vals[block] = np.sum(_term_values(c, k, lam, zb), axis=0)
    return np.maximum(vals, 0.0, out=vals) if m.is_density else vals


def mixture_integral(m: SignedExponentialMixture) -> float:
    """Exact integral over [0, inf): sum_i c_i * k_i! / rate_i^(k_i+1)."""
    if m.n_terms == 0:
        return 0.0
    return math.fsum(_gamma_weights(m.coefficients, m.degrees, m.rates))


def _cdf_raw(m: SignedExponentialMixture, z: float) -> float:
    """Termwise antiderivative at a scalar z, summed with math.fsum.

    Degree-0 terms go exactly through expm1, Erlang terms through the
    regularized lower incomplete gamma, both from the mixture's precomputed
    _cdf_kernel.  fsum rounds correctly in any order unless a partial sum
    overflows.  At z >= 0 every term is at most |a| or |b|, so below the
    kernel's bound no partial sum can overflow and the terms are summed as
    they come.  Anywhere else (negative bracket points, where terms reach
    +-inf, or coefficients near the double range) the terms are summed in
    descending magnitude, the order that decides which sums overflow and
    so whether fsum raises OverflowError.
    """
    a, nl, b, k1, lam, bound = m._cdf_kernel
    flat = a * np.expm1(nl * z) if a.size else a
    erlang = b * gammainc(k1, lam * z) if b.size else b
    if z >= 0.0 and bound < 1e300:
        return math.fsum(flat.tolist() + erlang.tolist())
    vals = np.empty(m.n_terms)
    degree0 = m.degrees == 0
    vals[degree0] = flat
    vals[~degree0] = erlang
    return math.fsum(vals[np.argsort(np.abs(vals))[::-1]])


def _clamp_unit(value: float, where: str) -> float:
    if value < 0.0:
        if value < -CDF_CLAMP_WINDOW:
            logger.warning("%s: clamping %r to 0 (beyond the %g window)", where, value, CDF_CLAMP_WINDOW)
        else:
            logger.debug("%s: clamping %r to 0", where, value)
        return 0.0
    if value > 1.0:
        if value > 1.0 + CDF_CLAMP_WINDOW:
            logger.warning("%s: clamping %r to 1 (beyond the %g window)", where, value, CDF_CLAMP_WINDOW)
        else:
            logger.debug("%s: clamping %r to 1", where, value)
        return 1.0
    return value


def mixture_cdf(m: SignedExponentialMixture, z: float | np.ndarray) -> float | np.ndarray:
    """Distribution function of a density mixture at z >= 0, a scalar or an array.

    An array goes to mixture_cdf_grid.  A scalar value is clamped into
    [0, 1]; overshoot beyond 1e-12 is logged as a warning rather than
    silently absorbed.
    """
    _require_density(m, "mixture_cdf")
    z = _check_points(z)
    if not isinstance(z, float):
        return mixture_cdf_grid(m, z)
    return _clamp_unit(_cdf_raw(m, z), "mixture_cdf")


def mixture_cdf_grid(m: SignedExponentialMixture, z: np.ndarray) -> np.ndarray:
    """Vectorized cdf over a grid (same termwise antiderivative as mixture_cdf).

    An Erlang term adds one gammainc call per block, on every term's row;
    without one only -(c / rate) expm1(-rate z) is evaluated.  Points are
    taken GRID_BLOCK at a time, as in mixture_eval_grid.
    """
    _require_density(m, "mixture_cdf")
    zz = np.atleast_1d(_check_points(z))
    c = m.coefficients[:, None]
    lam = m.rates[:, None]
    k = m.degrees[:, None]
    flat = m.degrees == 0
    a = -(c / lam)
    b = _gamma_weights(m.coefficients, m.degrees, m.rates)[:, None]
    vals = np.empty_like(zz)
    for block in _grid_blocks(zz.size):
        x = lam * zz[None, block]
        contrib = a * np.expm1(-x)
        if not flat.all():
            contrib = np.where(flat[:, None], contrib, b * gammainc(k + 1, x))
        vals[block] = np.sum(contrib, axis=0)
    return np.clip(vals, 0.0, 1.0, out=vals)


def mixture_moment(m: SignedExponentialMixture, order: int) -> float:
    """Raw moment of order 1 or 2: sum_i c_i * (k_i+order)! / rate_i^(k_i+order+1)."""
    if order not in (1, 2):
        raise DomainError(f"moment order must be 1 or 2, got {order!r}")
    return math.fsum(_gamma_weights(m.coefficients, m.degrees + order, m.rates))


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int) -> float:
    """Root of f on [xa, xb] by Brent's method, step for step as scipy.optimize.brentq.

    A port of scipy's C ``brentq`` (inverse quadratic or secant steps,
    bisection when a step is too long or too slow), so roots agree with scipy
    bit for bit without importing scipy.optimize.  Raises ValueError when
    f(xa) and f(xb) have the same sign or f returns NaN, and RuntimeError
    when maxiter iterations do not converge, as scipy does.
    """

    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x:.6g} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # the product can underflow to 0; C's infinite or NaN step then fails the test below
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom != 0 else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur:f}")


def _quantile_bracket(cdf, p: float, mean: float, var: float) -> float:
    """Top of the bracket [0, top] of cdf(t) = p: mean + 40 sigma, times 1.5 until cdf(top) >= p.

    Raises DomainError unless 0 < p < 1, and NumericalError after 200
    expansions or as soon as cdf(top) at a positive top repeats its value at
    the previous top: the cdf has stopped moving below p.
    """
    if not (0.0 < p < 1.0):
        raise DomainError(f"quantile level must lie strictly in (0,1), got {p!r}")
    hi = mean + QUANTILE_BRACKET_SIGMAS * math.sqrt(var)
    previous = None
    for _ in range(200):
        value = cdf(hi)
        if value >= p:
            return hi
        if value == previous and hi > 0.0:
            break
        previous = value
        hi *= 1.5
    raise NumericalError(f"failed to bracket quantile level {p}")


def _checked_root(root: float, cdf_at_root: float, p: float) -> float:
    residual = abs(cdf_at_root - p)
    if residual > 1e-10:
        raise NumericalError(f"quantile residual {residual:.3e} exceeds 1e-10 at p={p}")
    return float(root)


def _solve_quantile(cdf, p: float, mean: float, var: float) -> float:
    """Root of cdf(t) = p for a distribution with the given mean and variance.

    Solves on the _quantile_bracket with _brentq, a port of scipy's Brent
    solver that keeps scipy.optimize off the import path; raises
    NumericalError unless the cdf residual at the root is at most 1e-10.
    """
    hi = _quantile_bracket(cdf, p, mean, var)
    root = _brentq(lambda t: cdf(t) - p, 0.0, hi, xtol=1e-13, rtol=4 * np.finfo(float).eps, maxiter=200)
    return _checked_root(root, cdf(root), p)


def _newton_quantile(cdf_pdf, p: float, mean: float, var: float) -> float:
    """Root of cdf(t) = p by Newton steps safeguarded by bisection.

    ``cdf_pdf(t)`` returns (cdf, pdf) from one evaluation.  The iteration
    starts at the mean inside the _quantile_bracket.  Each evaluated point
    tightens the bracket, and a Newton step that would leave it is replaced
    by bisection.  The iteration stops when the Newton step or the bracket
    is at most 1e-13 + 4 eps t and returns the last evaluated point, whose
    cdf gives the residual check (NumericalError above 1e-10) without a
    further evaluation.
    """
    lo, hi = 0.0, _quantile_bracket(lambda t: cdf_pdf(t)[0], p, mean, var)
    t = mean
    for _ in range(200):
        cdf, pdf = cdf_pdf(t)
        if cdf < p:
            lo = t
        elif cdf > p:
            hi = t
        else:
            break
        step = (cdf - p) / pdf if pdf > 0.0 else math.inf
        xtol = 1e-13 + 4 * math.ulp(1.0) * t
        if abs(step) <= xtol or hi - lo <= xtol:
            break
        t = t - step if lo < t - step < hi else 0.5 * (lo + hi)
    else:
        raise NumericalError(f"quantile iteration at p={p} did not converge in 200 steps")
    return _checked_root(t, cdf, p)


def mixture_quantile(m: SignedExponentialMixture, p: float) -> float:
    """Inverse cdf of a density mixture, to a cdf residual of at most 1e-10."""
    _require_density(m, "mixture_quantile")
    mean = mixture_moment(m, 1)
    var = max(mixture_moment(m, 2) - mean * mean, 0.0)
    return _solve_quantile(lambda t: _cdf_raw(m, t), p, mean, var)
