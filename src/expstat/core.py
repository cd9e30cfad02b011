"""Core types and evaluation machinery.

The whole package works with one closed form: finite signed mixtures

    f(z) = sum_i  c_i * z^{k_i} * exp(-lambda_i * z),   z >= 0,

with possibly negative coefficients.  Sums of independent exponentials,
minima, maxima and ranges all land in this family, so the mixture type
carries the shared evaluation, integration, cdf, quantile and moment
machinery.  Signed coefficients of alternating sign are the central
numerical hazard: moments are summed with math.fsum, an error-free
transformation, and a density or cdf value at a scalar is the one-point case
of the grid kernels, whose plain sums round within terms x max|term| eps.
Rates are taken as given: exactly repeated rates form clusters (Erlang
blocks), and close but unequal rates keep their values.
"""

from __future__ import annotations

import logging
import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

from .errors import CapacityError, ContractError, DomainError, NumericalError

logger = logging.getLogger(__name__)

# cdf values may round to just outside [0,1]; clamping inside this window is
# routine and silent, beyond it the overshoot is logged as a warning.
CDF_CLAMP_WINDOW = 1e-12

# Quantile bracket: mean + 40 standard deviations covers p <= 1 - 1e-12 for
# every exponential mixture at desk scale.
QUANTILE_BRACKET_SIGMAS = 40.0

# The grid kernels evaluate this many points at a time (the last block fewer
# than twice as many), so their temporaries hold fewer than terms x 2 GRID_BLOCK
# doubles however many points are asked for.
GRID_BLOCK = 8192

# A curve or a sample returns at most this many values, 80 MB as float64:
# `curve --points` and the samplers' count raise CapacityError past it before
# allocating.  The largest shipped requests are 4001 points and 1e6 draws.
MAX_VALUES = 10_000_000

# k! correctly rounded for k = 0..170, and inf for every larger k (171! overflows).
_FACTORIALS = np.array([float(math.factorial(k)) for k in range(171)] + [math.inf])
_HALF_EPS = 0.5 * math.ulp(1.0)
_DOUBLE_MAX = sys.float_info.max


def factorial(k: np.ndarray) -> np.ndarray:
    """k! as float64 for non-negative integers k, elementwise, from a correctly rounded table.

    Equal bit for bit to scipy.special.factorial up to k = 24 (above that
    scipy's gamma-function values may be an ulp off the correctly rounded
    ones), and inf above 170 as scipy gives.
    """
    return _FACTORIALS[np.minimum(k, 171)]


def gammainc(a, x):
    """Regularized lower incomplete gamma P(a, x) at integer shapes a >= 1, broadcast over (a, x).

    P(1, x) = -expm1(-x).  From a = 2 on, from L = x^a e^{-x} / a! = exp(a log x - log a! - x),
    which never overflows, P is L sum_i x^i / ((a+1)...(a+i)) below x = a and
    1 - L (a/x) sum_i (a-1)...(a-i) / x^i from x = a on, a complement of at most about 1/2.
    Each sum, at least 1, stops at a term below eps/2.  0 at x = 0, NaN at x < 0.
    """
    a, x = np.asarray(a, dtype=np.int64), np.asarray(x, dtype=np.float64)
    log_fact = np.array([math.log(math.factorial(k)) for k in a.ravel().tolist()]).reshape(a.shape)
    a, log_fact, x = np.broadcast_arrays(a.astype(np.float64), log_fact, x)
    out = np.where(x == np.inf, 1.0, np.nan)
    exponential = (a == 1.0) & (0.0 <= x)
    out[exponential] = -np.expm1(-x[exponential])
    series = ~exponential
    with np.errstate(divide="ignore", invalid="ignore"):
        for below, part in ((True, series & (0.0 <= x) & (x < a)), (False, series & (a <= x) & (x < np.inf))):
            xs, s, term, total, i = x[part], a[part], 1.0, 1.0, 0
            lead = np.exp(s * np.log(xs) - log_fact[part] - xs)
            while np.any(term > _HALF_EPS):
                i += 1
                term = term * (xs / (s + i) if below else (s - i) / xs)
                total = total + term
            out[part] = lead * total if below else 1.0 - lead * s / xs * total
    return out


# ---------------------------------------------------------------------------
# argument checks


def _shown(value) -> str:
    """repr(value), but an int past the double range by its bit length: past 4300 digits repr raises."""
    if isinstance(value, int) and not -_DOUBLE_MAX <= value <= _DOUBLE_MAX:
        return f"an int of {value.bit_length()} bits"
    return repr(value)


def _check_rate(value, name: str) -> float:
    """``value`` as a float; DomainError naming ``name`` unless a finite positive real number."""
    try:
        rate = float(value)
    except (TypeError, ValueError, OverflowError):  # None, a complex number, a string that is no number, a huge int
        rate = math.nan
    if not (math.isfinite(rate) and rate > 0.0):
        raise DomainError(f"{name} must be finite and positive, got {_shown(value)}")
    return rate


def _check_integer(value, name: str) -> int:
    """``value`` as an int (operator.index); DomainError naming ``name`` for a float, a string or the like."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def _check_count(value, name: str, least: int) -> int:
    """``value`` as an int: DomainError below ``least``, CapacityError past MAX_VALUES."""
    count = _check_integer(value, name)
    if count < least:
        raise DomainError(f"{name} must be at least {least}, got {count}")
    if count > MAX_VALUES:
        raise CapacityError(f"{name} {count} is over {MAX_VALUES}, the most values one request returns")
    return count


def _check_points(z, name: str = "points") -> float | np.ndarray:
    """A scalar z as a float, anything else as a float64 array; messages name the argument ``name``.

    Raises DomainError unless every point is a finite non-negative real
    number, so NaN, infinite, string and complex arguments and ints past the
    double range never reach the kernels, whether alone or inside a
    container, and for an array of more than one dimension, which every
    kernel would mishandle differently.  Python numbers skip numpy, whose
    per-call overhead would dominate the per-point loops.
    """
    if isinstance(z, (int, float)):
        if not 0.0 <= z <= _DOUBLE_MAX:  # false for NaN, the infinities and ints past the double range
            raise DomainError(f"{name} must be finite and non-negative, got {_shown(z)}")
        return float(z)
    try:
        raw = np.asarray(z)
        # numpy would read "0.5" as 0.5 and drop an imaginary part with a warning
        if raw.dtype.kind not in "biufO" or raw.dtype.kind == "O" and any(
            isinstance(v, (str, bytes, np.complexfloating)) for v in raw.flat
        ):
            raise TypeError
        zz = raw.astype(np.float64, copy=False)
    except (TypeError, ValueError):  # a string, a complex number, a ragged list
        raise DomainError(f"{name} must be real numbers, got {z!r}") from None
    except OverflowError:  # an int past the double range
        raise DomainError(f"{name} must be finite and non-negative, got an int past the double range") from None
    if zz.ndim > 1:
        raise DomainError(f"{name} must be a scalar or a 1-d array, got shape {zz.shape}")
    if zz.size and not 0.0 <= zz.min() <= zz.max() <= _DOUBLE_MAX:  # false for a NaN point: min and max propagate it
        bad = ~(np.isfinite(zz) & (zz >= 0.0))
        raise DomainError(f"{name} must be finite and non-negative, got {float(zz[bad].flat[0])!r}")
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
        try:
            rates = tuple(_check_rate(r, "rates") for r in self.rates)
        except TypeError:  # a single number, or anything else that is not iterable
            raise DomainError(f"rates must be a sequence of numbers, got {_shown(self.rates)}") from None
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
        """True when every cluster is a singleton, that is when there are N clusters."""
        return len(self.clusters) == len(self.rates)

    @property
    def cluster_rates(self) -> tuple[float, ...]:
        """The repeated rate of each cluster, in increasing order."""
        return tuple(self.rates[g[0]] for g in self.clusters)

    @property
    def cluster_sizes(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.clusters)


RatesLike = Union[RateVector, Sequence[float]]


def as_rate_vector(rates: RatesLike) -> RateVector:
    """Coerce a sequence of rates into a RateVector (pass-through if already one)."""
    if isinstance(rates, RateVector):
        return rates
    return RateVector(rates)


# ---------------------------------------------------------------------------
# exponential law


@dataclass(frozen=True)
class ExponentialLaw:
    """Exponential distribution with density rate * exp(-rate * x) on x >= 0."""

    rate: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", _check_rate(self.rate, "rate"))


# ---------------------------------------------------------------------------
# signed exponential mixtures


class MixtureTerm(NamedTuple):
    coefficient: float
    rate: float
    degree: int


def _canonicalize(c: np.ndarray, r: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort by (rate, degree), merge terms whose rate and degree are exactly equal; new arrays.

    Unequal rates stay apart however close they are, so the mixture is the law its terms describe: a
    relative tolerance would fold the two terms of about +-1e13 in conv_mixture((1, 1 + 1e-13, 2)) into
    one.  Exact-zero coefficients are dropped.  Ties are broken by coefficient, so the summation order
    inside a group, and with it the rounding of the merged coefficient, does not depend on the order the
    terms were given in.  Terms already canonical (strictly increasing (rate, degree), no zero
    coefficient), which sorting and merging return unchanged, are copied after one comparison pass.
    """
    if c.all() and ((r[:-1] < r[1:]) | (r[:-1] == r[1:]) & (d[:-1] < d[1:])).all():
        return c.copy(), r.copy(), d.copy()
    order = np.lexsort((c, d, r))
    c, r, d = c[order], r[order], d[order]
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
        if not np.isfinite(c).all():
            raise DomainError("mixture coefficients must be finite")
        if r.size and not 0.0 < r.min() <= r.max() < math.inf:  # false for a NaN rate: min and max propagate it
            raise DomainError("mixture rates must be finite and positive")
        if d.size and d.min() < 0:
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


def _require_density(m: SignedExponentialMixture, op: str) -> None:
    if not m.is_density:
        raise ContractError(f"{op} requires a mixture flagged as a probability density")


def _term_values(c, k, lam, z) -> np.ndarray:
    """The terms c z^k exp(-lam z), broadcast over the arguments.

    When every degree is 0 the power is skipped: z^0 = 1, and c * 1 = c
    exactly, so the terms keep the bits of the general product.  A term that
    overflows on the way (z^k = inf, and inf * 0 = NaN) is formed again as
    c exp(k log z - lam z); every finite term keeps its bits.  The first
    pass runs with numpy's floating-point warnings off, since the second
    handles what they would report.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        vals = -lam * z
        np.exp(vals, out=vals)
        if not k.any():
            return np.multiply(vals, c, out=vals)
        vals = np.multiply(c * np.power(z, k), vals, out=vals)
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

    The grid kernel mixture_eval_grid; a scalar is its one-point grid, so
    it has the bits of the one-point array.
    """
    vals = mixture_eval_grid(m, z)
    return float(vals[0]) if np.ndim(z) == 0 else vals


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

    Each point sums its terms with plain float additions, so alternating
    signs cost up to terms x max|term| eps absolute.  Points are taken
    GRID_BLOCK at a time (_grid_blocks), so working memory is
    O(terms x GRID_BLOCK) plus the result, and the values are those of one
    block bit for bit.  A density mixture is clamped at zero: a negative
    value there is rounding in the coefficients.
    """
    return _eval_grid(m, np.atleast_1d(_check_points(z)))


def _eval_grid(m: SignedExponentialMixture, zz: np.ndarray) -> np.ndarray:
    """mixture_eval_grid on points already checked, as a 1-d array: conv_pdf checks its points once."""
    c, lam, k = m.coefficients[:, None], m.rates[:, None], m.degrees[:, None]
    vals = np.empty_like(zz)
    for block in _grid_blocks(zz.size):
        np.add.reduce(_term_values(c, k, lam, zz[None, block]), axis=0, out=vals[block])
    return np.maximum(vals, 0.0, out=vals) if m.is_density else vals


def mixture_cdf(m: SignedExponentialMixture, z: float | np.ndarray) -> float | np.ndarray:
    """Distribution function of a density mixture at z >= 0, a scalar or an array.

    mixture_cdf_grid, a scalar as the one-point grid, as in mixture_eval.
    """
    vals = mixture_cdf_grid(m, z)
    return float(vals[0]) if np.ndim(z) == 0 else vals


def mixture_cdf_grid(m: SignedExponentialMixture, z: np.ndarray) -> np.ndarray:
    """Vectorized cdf over a grid: the termwise antiderivative, clipped into [0, 1].

    An Erlang term adds the Gamma weights and one gammainc call per block, on
    every term's row; without one only -(c / rate) expm1(-rate z) is
    evaluated, in place.  Points are taken GRID_BLOCK at a time, as in
    mixture_eval_grid.  Clamps beyond CDF_CLAMP_WINDOW are logged in one
    warning with their count and the worst.
    """
    _require_density(m, "mixture_cdf")
    return _cdf_grid(m, np.atleast_1d(_check_points(z)))


def _cdf_grid(m: SignedExponentialMixture, zz: np.ndarray) -> np.ndarray:
    """mixture_cdf_grid of a density mixture on points already checked, as a 1-d array (conv_cdf's entry)."""
    lam = m.rates[:, None]
    erlang = bool(m.degrees.any())
    if erlang:  # gammainc(1, x) is -expm1(-x): a degree-0 row has the bits of -(c / lam) expm1(-lam z)
        k = m.degrees[:, None]
        b = _gamma_weights(m.coefficients, m.degrees, m.rates)[:, None]
    else:
        a = -(m.coefficients[:, None] / lam)
    vals = np.empty_like(zz)
    for block in _grid_blocks(zz.size):
        x = -lam * zz[None, block]  # -(lam z): the negation is exact
        contrib = b * gammainc(k + 1, -x) if erlang else np.multiply(np.expm1(x, out=x), a, out=x)
        np.add.reduce(contrib, axis=0, out=vals[block])
    if vals.size and (vals.min() < -CDF_CLAMP_WINDOW or vals.max() > 1.0 + CDF_CLAMP_WINDOW):
        excess = np.maximum(-vals, vals - 1.0)
        logger.warning(
            "mixture_cdf_grid: clamping %d values into [0, 1] beyond the %g window, worst %r",
            int((excess > CDF_CLAMP_WINDOW).sum()), CDF_CLAMP_WINDOW, float(vals[np.argmax(excess)]),
        )
    return np.clip(vals, 0.0, 1.0, out=vals)


def mixture_moment(m: SignedExponentialMixture, order: int) -> float:
    """Raw moment of order 0, 1 or 2: sum_i c_i * (k_i+order)! / rate_i^(k_i+order+1).

    Raises CapacityError when a weight or their sum leaves the double range.
    """
    order = _check_integer(order, "moment order")
    if order not in (0, 1, 2):
        raise DomainError(f"moment order must be 0, 1 or 2, got {order!r}")
    w = _gamma_weights(m.coefficients, m.degrees + order, m.rates)
    try:
        if np.isfinite(w).all():
            return math.fsum(w.tolist())
    except OverflowError:  # a partial sum overflowed
        pass
    raise CapacityError(f"the order-{order} moment of the mixture lies outside the double range")


def _quantile_bracket(cdf, p: float, top: float) -> float:
    """Top of the bracket [0, top] of cdf(t) = p: ``top``, times 1.5 until cdf(top) >= p.

    Raises NumericalError after 200 expansions, or once cdf(top) repeats its
    previous value: the cdf has stopped below p.
    """
    previous = None
    for _ in range(200):
        value = cdf(top)
        if value >= p:
            return top
        if value == previous:
            break
        previous = value
        top *= 1.5
    raise NumericalError(f"failed to bracket quantile level {p}")


def _newton_quantile(cdf_pdf, p: float, mean: float, var: float) -> float:
    """Root of cdf(t) = p by Newton steps from the gamma quantile, safeguarded by bisection.

    The one quantile solver of the package.  ``cdf_pdf(t)`` returns (cdf, pdf)
    from one evaluation.  Raises DomainError unless p is a real scalar in
    (0, 1), and NumericalError before any evaluation unless mean > 0, var > 0
    and mean + 40 sigma is finite (cancelled moments).  The start is the
    Wilson-Hilferty quantile of the gamma law with the given mean and
    variance, or its lower bound theta (p Gamma(k+1))^(1/k) where larger.
    Below the median a step is Newton on log F, nearly linear in the lower
    tail.  The bracket is open above until a step leaves it; then the
    _quantile_bracket from mean + 40 sigma closes it, and a step still outside
    bisects.  It stops when the step or the bracket is at most
    1e-13 + 4 eps t, or at the evaluator's noise floor: once |F - p| is at
    most 1e-10 p below the median, max(1e-10 (1 - p), eps) from it on (F near
    1 is quantized at eps/2), and a step fails to halve it.  It returns the
    point of least |F - p| seen and checks its residual (NumericalError
    above 1e-10).
    """
    if not (isinstance(p, numbers.Real) and 0.0 < p < 1.0):
        raise DomainError(f"quantile level must be a real scalar strictly in (0,1), got {_shown(p)}")
    p = float(p)  # so a float32 does not round cdf(t) - p
    top = mean + QUANTILE_BRACKET_SIGMAS * math.sqrt(max(var, 0.0))
    if not (mean > 0.0 and var > 0.0 and top < math.inf):
        raise NumericalError(f"mean {mean!r} and variance {var!r} give the quantile bracket top {top!r}")
    k, theta = mean / var * mean, var / mean
    cube = 1.0 - 1.0 / (9.0 * k) + NormalDist().inv_cdf(p) / (3.0 * math.sqrt(k))
    t = max(k * theta * max(cube, 0.0) ** 3, theta * math.exp((math.log(p) + math.lgamma(k + 1.0)) / k))
    lo, hi = 0.0, math.inf
    floor = 1e-10 * p if p < 0.5 else max(1e-10 * (1.0 - p), math.ulp(1.0))
    best, best_t, previous = math.inf, t, math.inf
    for _ in range(200):
        cdf, pdf = cdf_pdf(t)
        error = abs(cdf - p)
        if error < best:
            best, best_t = error, t
        if cdf < p:
            lo = t
        elif cdf > p:
            hi = t
        else:
            break
        if previous / 2.0 < error <= floor:  # the cdf's rounding, not the distance to the root, sets |F - p|
            break
        previous = error
        residual = math.log(cdf / p) * cdf if p < 0.5 and cdf > 0.0 else cdf - p
        step = residual / pdf if pdf > 0.0 else math.inf
        xtol = 1e-13 + 4 * math.ulp(1.0) * t
        if abs(step) <= xtol or hi - lo <= xtol:
            break
        if not lo < t - step < hi and hi == math.inf:
            hi = _quantile_bracket(lambda x: cdf_pdf(x)[0], p, top)
        t = t - step if lo < t - step < hi else 0.5 * (lo + hi)
    else:
        raise NumericalError(f"quantile iteration at p={p} did not converge in 200 steps")
    if best > 1e-10:
        raise NumericalError(f"quantile residual {best:.3e} exceeds 1e-10 at p={p}")
    return float(best_t)


def mixture_quantile(m: SignedExponentialMixture, p: float) -> float:
    """Inverse cdf of a density mixture, to a cdf residual of at most 1e-10.

    _newton_quantile on mixture_cdf and mixture_eval, from the mixture's own
    mean and variance.
    """
    _require_density(m, "mixture_quantile")
    mean = mixture_moment(m, 1)
    var = mixture_moment(m, 2) - mean * mean
    return _newton_quantile(lambda t: (mixture_cdf(m, t), mixture_eval(m, t)), p, mean, var)
