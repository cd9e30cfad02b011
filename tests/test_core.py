"""Core primitives: rate vectors, clustering, signed exponential mixtures."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_rate_sets, rate_strategy, separated_rate_strategy
from expstat import core
from expstat import (
    CapacityError,
    OrderStatisticRequest,
    conv_cdf,
    conv_coefficients,
    conv_pdf,
    conv_quantile,
    ContractError,
    DomainError,
    NumericalError,
    RateVector,
    SignedExponentialMixture,
    conv_mixture,
    max_cdf,
    max_pdf,
    min_cdf,
    mixture_cdf,
    mixture_eval,
    mixture_moment,
    mixture_quantile,
    order_statistic_cdf,
    order_statistic_pdf,
    range_cdf,
    range_pdf,
    sum_pdf_quadrature,
)
from expstat.convolution import conv_pdf_phase_type
from expstat.core import ExponentialLaw, MixtureTerm, as_rate_vector, mixture_cdf_grid, mixture_eval_grid
from expstat.orderstats import max_mixture

E_INV = math.exp(-1.0)


# ---------------------------------------------------------------------------
# single exponential law


def _one(rate):
    # a single exponential is the order statistic r=1 of one variable
    return OrderStatisticRequest((rate,), 1)


def test_exp_pdf_at_origin_equals_rate():
    assert order_statistic_pdf(_one(1.0), 0.0) == 1.0
    assert order_statistic_pdf(_one(2.5), 0.0) == 2.5


def test_exp_pdf_frozen_value():
    assert order_statistic_pdf(_one(1.0), 1.0) == pytest.approx(E_INV, rel=1e-15)


def test_exp_cdf_values():
    req = _one(2.0)
    assert order_statistic_cdf(req, 0.0) == 0.0
    assert order_statistic_cdf(req, 0.5) == pytest.approx(1.0 - E_INV, rel=1e-15)
    assert order_statistic_cdf(req, 1e6) == 1.0


def test_exp_law_rejects_bad_rate():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            ExponentialLaw(bad)


def test_exp_negative_argument_rejected():
    with pytest.raises(DomainError):
        order_statistic_pdf(_one(1.0), -0.1)
    with pytest.raises(DomainError):
        order_statistic_cdf(_one(1.0), -0.1)


# ---------------------------------------------------------------------------
# rate vectors and clustering


def test_rate_vector_basic_properties():
    rv = RateVector((3.0, 1.0, 2.0))
    assert rv.n == 3
    assert rv.total == 6.0
    assert rv.is_distinct
    assert len(rv) == 3
    assert tuple(rv) == (3.0, 1.0, 2.0)


def test_rate_vector_rejects_empty_and_nonpositive():
    with pytest.raises(DomainError):
        RateVector(())
    with pytest.raises(DomainError):
        RateVector((1.0, 0.0))
    with pytest.raises(DomainError):
        RateVector((1.0, -2.0))
    with pytest.raises(DomainError):
        RateVector((1.0, math.nan))


def test_clustering_groups_exact_repeats_only():
    rv = RateVector((2.0, 1.0, 2.0, 1.0 + 1e-15, 1.0))
    assert rv.clusters == ((1, 4), (3,), (0, 2))
    assert rv.cluster_sizes == (2, 1, 2)
    assert RateVector((1.0, 1.0 + 1e-15, 1.0 + 2e-15)).is_distinct
    assert RateVector((1.0, 1.0 + 5e-10, 2.0)).cluster_rates == (1.0, 1.0 + 5e-10, 2.0)


def test_cluster_rate_is_the_repeated_value():
    # the fsum mean of three copies of 0.1 is one ulp above 0.1
    assert math.fsum([0.1] * 3) / 3 == math.nextafter(0.1, 1.0)
    rv = RateVector((0.1, 3.0, 0.1, 0.1))
    assert rv.cluster_sizes == (3, 1)
    assert rv.cluster_rates[0] == 0.1
    assert rv.cluster_rates[1] == 3.0


def test_exactly_repeated_rates_cluster():
    rv = RateVector((2.0, 2.0, 2.0))
    assert rv.cluster_sizes == (3,)
    assert rv.cluster_rates == (2.0,)


@settings(deadline=None)
@given(rate_strategy(min_size=2, max_size=8), st.randoms(use_true_random=False))
def test_clustering_is_permutation_invariant(rates, rnd):
    shuffled = list(rates)
    rnd.shuffle(shuffled)
    a = RateVector(tuple(rates))
    b = RateVector(tuple(shuffled))
    assert a.cluster_rates == b.cluster_rates
    assert a.cluster_sizes == b.cluster_sizes


def test_as_rate_vector_accepts_many_forms():
    assert as_rate_vector([1, 2]).rates == (1.0, 2.0)
    assert as_rate_vector(np.array([1.0, 2.0])).rates == (1.0, 2.0)
    rv = RateVector((1.0, 2.0))
    assert as_rate_vector(rv) is rv
    assert as_rate_vector((2.0,)).rates == (2.0,)


# ---------------------------------------------------------------------------
# mixture construction and canonical form


def test_mixture_merges_duplicate_terms():
    mix = SignedExponentialMixture.from_terms(
        [MixtureTerm(1.0, 2.0, 0), MixtureTerm(1.0, 2.0, 0)]
    )
    assert mix.terms == (MixtureTerm(2.0, 2.0, 0),)


def test_mixture_drops_cancelled_terms():
    mix = SignedExponentialMixture.from_terms(
        [MixtureTerm(1.0, 2.0, 0), MixtureTerm(-1.0, 2.0, 0), MixtureTerm(0.5, 1.0, 0)]
    )
    assert mix.terms == (MixtureTerm(0.5, 1.0, 0),)


def test_mixture_orders_terms_by_rate_then_degree():
    mix = SignedExponentialMixture.from_terms(
        [MixtureTerm(1.0, 3.0, 0), MixtureTerm(1.0, 1.0, 1), MixtureTerm(1.0, 1.0, 0)]
    )
    assert [(t.rate, t.degree) for t in mix.terms] == [(1.0, 0), (1.0, 1), (3.0, 0)]


def test_mixture_rejects_bad_terms():
    with pytest.raises(DomainError):
        SignedExponentialMixture.from_terms([MixtureTerm(1.0, -1.0, 0)])
    with pytest.raises(DomainError):
        SignedExponentialMixture.from_terms([MixtureTerm(1.0, 1.0, -1)])
    with pytest.raises(DomainError):
        SignedExponentialMixture.from_terms([MixtureTerm(math.inf, 1.0, 0)])


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-10, 10, allow_nan=False),
            st.floats(0.01, 50, allow_nan=False),
            st.integers(0, 4),
        ),
        min_size=1,
        max_size=10,
    ),
    st.randoms(use_true_random=False),
)
def test_mixture_canonical_form_is_permutation_invariant(raw_terms, rnd):
    terms = [MixtureTerm(*t) for t in raw_terms]
    shuffled = list(terms)
    rnd.shuffle(shuffled)
    a = SignedExponentialMixture.from_terms(terms)
    b = SignedExponentialMixture.from_terms(shuffled)
    assert a == b


def test_mixture_merge_does_not_depend_on_term_order():
    # 0.1 + 0.2 + 0.3 rounds to 0.6 or 0.6000000000000001 depending on the
    # summation order; the canonical form must pick one for every order
    terms = [MixtureTerm(0.1, 5.0, 0), MixtureTerm(0.2, 5.0, 0), MixtureTerm(0.3, 5.0, 0)]
    merged = {
        SignedExponentialMixture.from_terms(perm).terms for perm in itertools.permutations(terms)
    }
    assert len(merged) == 1


def test_mixture_merges_exact_ties_only():
    # two terms of about +-1e13 one part in 1e13 apart used to fold into one, changing the law
    assert conv_mixture((1.0, 1.0 + 1e-13, 2.0)).n_terms == 3
    # the subset sum 1 + 2 equals 3 exactly, so its term merges with that of {3}, and they cancel
    assert max_mixture((1.0, 2.0, 3.0)).terms == tuple(
        MixtureTerm(c, r, 0) for c, r in ((1.0, 1.0), (2.0, 2.0), (-4.0, 4.0), (-5.0, 5.0), (6.0, 6.0))
    )


def test_canonical_terms_pass_as_copies_and_the_rest_are_sorted_and_merged():
    c, r, d = np.array([2.0, -1.0, 0.5]), np.array([1.0, 1.0, 3.0]), np.array([0, 1, 0])
    mix = SignedExponentialMixture(c, r, d)
    assert mix.terms == ((2.0, 1.0, 0), (-1.0, 1.0, 1), (0.5, 3.0, 0))
    for given, stored in ((c, mix.coefficients), (r, mix.rates), (d, mix.degrees)):
        assert given.flags.writeable and not stored.flags.writeable and not np.shares_memory(given, stored)
    # a tie in (rate, degree), a zero coefficient, a step down in degree or in rate is not canonical
    for terms, expected in (
        ([(1.0, 1.0, 0), (2.0, 1.0, 0)], ((3.0, 1.0, 0),)),
        ([(1.0, 1.0, 0), (0.0, 2.0, 0)], ((1.0, 1.0, 0),)),
        ([(1.0, 1.0, 0), (-0.0, 2.0, 0)], ((1.0, 1.0, 0),)),
        ([(1.0, 1.0, 1), (2.0, 1.0, 0)], ((2.0, 1.0, 0), (1.0, 1.0, 1))),
        ([(1.0, 2.0, 0), (2.0, 1.0, 3)], ((2.0, 1.0, 3), (1.0, 2.0, 0))),
    ):
        assert SignedExponentialMixture.from_terms(terms).terms == expected
    assert SignedExponentialMixture.from_terms([]).n_terms == 0


@pytest.mark.parametrize(
    "c, r, d, message",
    [
        ([1.0, 2.0], [1.0], [0], "coefficients, rates and degrees must be 1-d and equal length"),
        ([[1.0]], [[1.0]], [[0]], "coefficients, rates and degrees must be 1-d and equal length"),
        ([math.nan], [1.0], [0], "mixture coefficients must be finite"),
        ([math.inf], [-1.0], [-1], "mixture coefficients must be finite"),
        ([1.0, 1.0], [2.0, math.nan], [0, 0], "mixture rates must be finite and positive"),
        ([1.0, 1.0], [math.nan, 2.0], [0, 0], "mixture rates must be finite and positive"),
        ([1.0], [math.inf], [0], "mixture rates must be finite and positive"),
        ([1.0], [0.0], [0], "mixture rates must be finite and positive"),
        ([1.0], [-1.0], [-1], "mixture rates must be finite and positive"),
        ([1.0, 1.0], [1.0, 2.0], [0, -1], "mixture degrees must be non-negative"),
    ],
)
def test_mixture_constructor_reports_the_first_bad_field(c, r, d, message):
    with pytest.raises(DomainError) as info:
        SignedExponentialMixture(np.array(c), np.array(r), np.array(d))
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# evaluation, integration, moments


def test_mixture_eval_frozen_values():
    erlang = SignedExponentialMixture.from_terms([MixtureTerm(1.0, 1.0, 1)])
    assert mixture_eval(erlang, 1.0) == pytest.approx(E_INV, rel=1e-15)
    hypo = conv_mixture((1.0, 2.0))
    assert mixture_eval(hypo, math.log(2.0)) == pytest.approx(0.5, rel=1e-14)
    assert mixture_eval(hypo, 0.0) == 0.0


def test_mixture_eval_grid_matches_scalar():
    mix = conv_mixture((0.5, 1.0, 4.0))
    z = np.linspace(0.0, 20.0, 101)
    grid = mixture_eval_grid(mix, z)
    scalar = np.array([mixture_eval(mix, float(x)) for x in z])
    np.testing.assert_allclose(grid, scalar, rtol=1e-13, atol=1e-300)


def test_mixture_eval_rejects_negative_argument():
    mix = conv_mixture((1.0, 2.0))
    with pytest.raises(DomainError):
        mixture_eval(mix, -1e-9)
    with pytest.raises(DomainError):
        mixture_eval_grid(mix, np.array([0.0, -1.0]))


_MIX = conv_mixture((1.0, 2.0, 3.0))
_ORDER = OrderStatisticRequest((1.0, 2.0, 3.0), 2)
_POINTWISE = {
    "exp_pdf": lambda z: order_statistic_pdf(_one(1.0), z),
    "exp_cdf": lambda z: order_statistic_cdf(_one(1.0), z),
    "mixture_eval": lambda z: mixture_eval(_MIX, z),
    "mixture_eval_grid": lambda z: mixture_eval_grid(_MIX, np.array([1.0, z])),
    "mixture_cdf": lambda z: mixture_cdf(_MIX, z),
    "mixture_cdf_grid": lambda z: mixture_cdf_grid(_MIX, np.array([1.0, z])),
    "conv_pdf": lambda z: conv_pdf((1.0, 2.0, 3.0), z),
    "conv_cdf": lambda z: conv_cdf((1.0, 2.0, 3.0), z),
    "conv_pdf_array": lambda z: conv_pdf((1.0, 2.0, 3.0), np.array([1.0, z])),
    "conv_cdf_phase": lambda z: conv_cdf((1.0, 1.0001, 2.0), z),
    "conv_pdf_phase_type": lambda z: conv_pdf_phase_type((1.0, 2.0, 3.0), z),
    "max_pdf": lambda z: max_pdf((1.0, 2.0, 3.0), z),
    "max_cdf": lambda z: max_cdf((1.0, 2.0, 3.0), z),
    "min_cdf": lambda z: min_cdf((1.0, 2.0, 3.0), z),
    "min_cdf_array": lambda z: min_cdf((1.0, 2.0, 3.0), np.array([1.0, z])),
    "max_pdf_array": lambda z: max_pdf((1.0, 2.0, 3.0), np.array([1.0, z])),
    "order_statistic_cdf": lambda z: order_statistic_cdf(_ORDER, z),
    "order_statistic_pdf": lambda z: order_statistic_pdf(_ORDER, z),
    "range_pdf": lambda z: range_pdf((1.0, 2.0, 3.0), z),
    "range_cdf_array": lambda z: range_cdf((1.0, 2.0, 3.0), np.array([1.0, z])),
    "sum_pdf_quadrature": lambda z: sum_pdf_quadrature((1.0, 2.0, 3.0), np.array([1.0, z])),
}


def test_mixture_kernels_take_arrays_and_order_statistics_reject_them():
    # an array used to broadcast against the terms and come back as one wrong float
    z = np.array([0.5, 1.0, 2.0])
    pdf = mixture_eval(_MIX, z)
    cdf = mixture_cdf(_MIX, z)
    assert pdf.shape == cdf.shape == z.shape
    np.testing.assert_allclose(pdf, [0.28170581, 0.44098783, 0.30354827], rtol=1e-7)
    np.testing.assert_array_equal(pdf, mixture_eval_grid(_MIX, z))
    np.testing.assert_array_equal(cdf, mixture_cdf_grid(_MIX, z))
    np.testing.assert_allclose(cdf, [mixture_cdf(_MIX, float(x)) for x in z], rtol=1e-13)
    for fn in (order_statistic_cdf, order_statistic_pdf):
        with pytest.raises(DomainError, match="one point at a time"):
            fn(_ORDER, z)
    assert [order_statistic_cdf(_ORDER, float(x)) for x in z] == pytest.approx([0.659, 0.930, 0.997], abs=1e-3)


@pytest.mark.parametrize(
    "name, rates, mixture",
    [
        ("distinct", (1.0, 2.0, 3.0), conv_mixture((1.0, 2.0, 3.0))),
        ("gamma", (2.0, 2.0, 2.0), conv_mixture((2.0, 2.0, 2.0))),
        ("erlang block", None, conv_mixture((1.0, 1.0, 4.0))),
        ("max", None, max_mixture((0.3, 1.0, 7.0, 2.0))),
    ],
)
def test_a_scalar_is_the_one_point_grid_bit_for_bit(name, rates, mixture):
    # a scalar used to run through math.fsum and a Python-float gammainc, which differ from the
    # grid's plain row sum and numpy gammainc in the last bit
    mean = mixture_moment(mixture, 1)
    fns = [lambda z: mixture_eval(mixture, z), lambda z: mixture_cdf(mixture, z)]
    if rates is not None:
        assert conv_cdf(rates, 0.5) == mixture_cdf(mixture, 0.5)  # the sum takes this closed form
        fns += [lambda z: conv_pdf(rates, z), lambda z: conv_cdf(rates, z)]
    for z in (0.0, 1e-300, 1e-6, 0.5 * mean, mean, 40.0 * mean):
        for fn in fns:
            alone, grid = fn(z), fn(np.array([z]))
            assert type(alone) is float and grid.shape == (1,)
            assert alone.hex() == float(grid[0]).hex(), (name, z)


_PUBLIC_NAMES = {
    "CapacityError",
    "ContractError",
    "DomainError",
    "ExpstatError",
    "NumericalError",
    "OrderStatisticRequest",
    "RateVector",
    "SignedExponentialMixture",
    "char_fn_linear_combination",
    "char_fn_product",
    "conv_cdf",
    "conv_coefficients",
    "conv_mixture",
    "conv_moments",
    "conv_pdf",
    "conv_quantile",
    "factorization_test",
    "ks_test",
    "max_cdf",
    "max_pdf",
    "min_cdf",
    "min_pdf",
    "mixture_cdf",
    "mixture_eval",
    "mixture_moment",
    "mixture_quantile",
    "order_statistic_cdf",
    "order_statistic_pdf",
    "range_cdf",
    "range_pdf",
    "sample_max",
    "sample_min",
    "sample_min_range_pairs",
    "sample_order",
    "sample_sum",
    "sum_pdf_quadrature",
}

# names that live in their modules only: internal routes, evaluators and report types
_MODULE_NAMES = {
    "conv_pdf_phase_type": "convolution",
    "sum_route": "convolution",
    "min_law": "orderstats",
    "max_mixture": "orderstats",
    "SampleBatch": "montecarlo",
    "GoodnessOfFitReport": "montecarlo",
    "FactorizationReport": "montecarlo",
}


def test_public_names_are_the_36_and_the_rest_live_in_their_modules():
    import importlib

    import expstat

    assert len(_PUBLIC_NAMES) == 36
    assert sorted(expstat.__all__) == sorted(_PUBLIC_NAMES)
    for name in expstat.__all__:
        assert getattr(expstat, name) is not None, name
    for name, module in _MODULE_NAMES.items():
        assert getattr(importlib.import_module(f"expstat.{module}"), name).__module__ == f"expstat.{module}"
        assert not hasattr(expstat, name), name


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("name", sorted(_POINTWISE))
def test_pdf_and_cdf_reject_nonfinite_and_negative_points(name, bad):
    # NaN used to come back as NaN (or as 1.0 from the order-statistic cdf)
    with pytest.raises(DomainError):
        _POINTWISE[name](bad)


@pytest.mark.parametrize("bad", [10**400, -(10**400), "x", "0.5", 1j])
@pytest.mark.parametrize("name", sorted(n for n in _POINTWISE if "array" not in n and "grid" not in n and "quadrature" not in n))
def test_points_gate_refuses_huge_ints_strings_and_complex_numbers(name, bad):
    # 10**400 raised OverflowError from math.isfinite, "x" numpy's ValueError and 1j a TypeError;
    # numpy read "0.5" as 0.5
    with pytest.raises(DomainError, match="points must be"):
        _POINTWISE[name](bad)


@pytest.mark.parametrize(
    "bad",
    [["0.5"], ("0.5", 1.0), [0.5, "1"], [b"1"], np.array(["0.5"]), np.array(["1"], dtype=object), [np.str_("1")],
     [10**400], [np.complex128(1j), None]],
    ids=["list", "tuple", "mixed", "bytes", "str-array", "object-array", "numpy-str", "huge-int", "complex"],
)
def test_points_gate_refuses_strings_and_huge_ints_inside_a_container(bad):
    # numpy parsed the strings, so conv_pdf((1, 2), ["0.5"]) returned the density at 0.5 while a
    # scalar "0.5" raised, and [10**400] raised numpy's OverflowError
    kernels = [
        lambda z: conv_pdf((1.0, 2.0), z),
        lambda z: conv_cdf((1.0, 1.0, 2.0), z),
        lambda z: mixture_eval(_MIX, z),
        lambda z: mixture_cdf_grid(_MIX, z),
        lambda z: max_pdf((1.0, 2.0), z),
        lambda z: max_cdf((1.0, 2.0), z),
        lambda z: min_cdf((1.0, 2.0), z),
        lambda z: range_pdf((1.0, 2.0), z),
        lambda z: sum_pdf_quadrature((1.0, 2.0), z),
    ]
    for kernel in kernels:
        with pytest.raises(DomainError, match="points must be"):
            kernel(bad)


def test_points_gate_keeps_numbers_inside_a_container():
    from fractions import Fraction

    for good in ([0.5], (0.5,), [Fraction(1, 2)], [np.float32(0.5)], np.array([0.5], dtype=object), [True]):
        assert conv_pdf((1.0, 2.0), good).tolist() == conv_pdf((1.0, 2.0), [float(good[0])]).tolist(), good


@pytest.mark.parametrize("rates", [("abc",), (None, 1.0), (1j,), (10**400, 1.0), 3.0])
def test_rates_gate_refuses_what_is_not_a_sequence_of_positive_reals(rates):
    # "abc" raised ValueError, None and 1j TypeError, 10**400 OverflowError, and a bare 3.0
    # "TypeError: 'float' object is not iterable"
    for build in (RateVector, as_rate_vector, lambda rates: conv_pdf(rates, 1.0)):
        with pytest.raises(DomainError, match="rates must be"):
            build(rates)


def test_points_gate_refuses_an_int_past_the_digit_limit():
    # 10**5000 has more than 4300 digits, so its repr raised ValueError in place of DomainError
    with pytest.raises(DomainError, match="points must be finite and non-negative, got an int of 16610 bits"):
        conv_pdf((1.0, 2.0), 10**5000)


def test_rates_gate_refuses_an_int_past_the_digit_limit():
    with pytest.raises(DomainError, match="rates must be finite and positive, got an int of 16610 bits"):
        RateVector((10**5000,))
    with pytest.raises(DomainError, match="rates must be a sequence of numbers, got an int of 16610 bits"):
        RateVector(10**5000)


_ARRAY_KERNELS = {
    "conv_pdf closed-form": lambda z: conv_pdf((1.0, 2.0, 3.0), z),
    "conv_cdf closed-form": lambda z: conv_cdf((1.0, 2.0, 3.0), z),
    "conv_pdf erlang-block": lambda z: conv_pdf((2.0, 2.0, 2.0), z),
    "conv_cdf erlang-block": lambda z: conv_cdf((2.0, 2.0, 2.0), z),
    "conv_pdf phase-type": lambda z: conv_pdf((1.0, 1.0005, 2.0), z),
    "conv_cdf phase-type": lambda z: conv_cdf((1.0, 1.0005, 2.0), z),
    "conv_pdf_phase_type": lambda z: conv_pdf_phase_type((1.0, 2.0, 3.0), z),
    "max_pdf": lambda z: max_pdf((1.0, 2.0, 3.0), z),
    "max_cdf": lambda z: max_cdf((1.0, 2.0, 3.0), z),
    "min_cdf": lambda z: min_cdf((1.0, 2.0, 3.0), z),
    "mixture_eval": lambda z: mixture_eval(_MIX, z),
    "mixture_cdf": lambda z: mixture_cdf(_MIX, z),
    "mixture_eval_grid": lambda z: mixture_eval_grid(_MIX, z),
    "mixture_cdf_grid": lambda z: mixture_cdf_grid(_MIX, z),
    "range_pdf": lambda z: range_pdf((1.0, 2.0, 3.0), z),
    "range_cdf": lambda z: range_cdf((1.0, 2.0, 3.0), z),
    "sum_pdf_quadrature": lambda z: sum_pdf_quadrature((1.0, 2.0, 3.0), z),
}


@pytest.mark.parametrize("name", sorted(_ARRAY_KERNELS))
def test_points_of_more_than_one_dimension_raise_domain_error(name):
    # a 2x2 array used to raise numpy's broadcasting ValueError, or come back flattened from the phase route
    with pytest.raises(DomainError, match="1-d"):
        _ARRAY_KERNELS[name](np.full((2, 2), 0.5))


def test_mixture_integral_frozen_values():
    assert mixture_moment(conv_mixture((1.0, 2.0)), 0) == pytest.approx(1.0, abs=1e-15)
    erlang = SignedExponentialMixture.from_terms([MixtureTerm(4.0, 2.0, 2)])
    # 4 * 2! / 2^3 = 1
    assert mixture_moment(erlang, 0) == pytest.approx(1.0, abs=1e-15)


def test_concatenated_terms_merge_in_the_constructor():
    a = conv_mixture((1.0, 2.0))

    def joined(factor):
        return SignedExponentialMixture(
            np.concatenate((a.coefficients, factor * a.coefficients)),
            np.concatenate((a.rates, a.rates)),
            np.concatenate((a.degrees, a.degrees)),
        )

    cancelled = joined(-1.0)
    assert cancelled.n_terms == 0
    assert mixture_eval(cancelled, 1.0) == 0.0
    doubled = joined(1.0)
    assert doubled.n_terms == a.n_terms
    assert mixture_moment(doubled, 0) == pytest.approx(2.0, rel=1e-14)


def test_mixture_moment_frozen_values():
    hypo = conv_mixture((1.0, 2.0))
    assert mixture_moment(hypo, 1) == pytest.approx(1.5, rel=1e-14)
    # E[S^2] = var + mean^2 = 1.25 + 2.25
    assert mixture_moment(hypo, 2) == pytest.approx(3.5, rel=1e-14)
    with pytest.raises(DomainError):
        mixture_moment(hypo, 3)
    assert mixture_moment(hypo, np.int64(1)) == mixture_moment(hypo, 1)


@pytest.mark.parametrize("order", [1.0, 0.5, "1", None])
def test_mixture_moment_refuses_an_order_that_is_not_an_integer(order):
    # 1.0 raised an IndexError from the factorial table
    with pytest.raises(DomainError, match="moment order must be an integer"):
        mixture_moment(conv_mixture((1.0, 2.0)), order)


def test_mixture_moments_outside_the_double_range_raise_capacity_error():
    # a weight c k!/rate^(k+1) past the double range, and finite weights whose sum overflows;
    # the second moment of (1e-300, 2e-300) was inf - inf, an untyped ValueError from fsum
    wide = SignedExponentialMixture.from_terms([(1e300, 1e-300, 0), (-1e300, 2e-300, 0)], is_density=False)
    big = SignedExponentialMixture.from_terms([(1e308, 1.0, 0), (1e308, 0.9, 0)], is_density=False)
    for mix in (wide, big):
        for order in (0, 1, 2):
            with pytest.raises(CapacityError, match=f"order-{order} moment"):
                mixture_moment(mix, order)
        with pytest.raises(CapacityError, match="double range"):
            mixture_moment(mix, 0)
    tiny = conv_mixture((1e-300, 2e-300))
    with pytest.raises(CapacityError, match="order-2 moment"):
        mixture_quantile(tiny, 0.5)
    # two clusters solve on the chain, from the sum's own moments
    with pytest.raises(CapacityError, match="the mean and variance of a sum"):
        conv_quantile((1e-300, 2e-300), 0.5)


# ---------------------------------------------------------------------------
# cdf and quantile


def test_mixture_cdf_requires_density_flag():
    raw = SignedExponentialMixture.from_terms([MixtureTerm(5.0, 1.0, 0)])
    with pytest.raises(ContractError):
        mixture_cdf(raw, 1.0)


def test_mixture_cdf_frozen_values():
    hypo = conv_mixture((1.0, 2.0))
    assert mixture_cdf(hypo, 0.0) == 0.0
    # (1 - e^{-z})^2 at z = ln 2
    assert mixture_cdf(hypo, math.log(2.0)) == pytest.approx(0.25, rel=1e-14)
    assert mixture_cdf(hypo, 200.0) == 1.0


def test_mixture_cdf_monotone_and_bounded():
    mix = max_mixture((0.3, 1.0, 7.0))
    z = np.linspace(0.0, 30.0, 400)
    vals = np.array([mixture_cdf(mix, float(x)) for x in z])
    assert np.all(np.diff(vals) >= -1e-15)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_mixture_cdf_derivative_recovers_pdf():
    mix = conv_mixture((0.7, 1.3, 3.1))
    h = 1e-5
    for z in (0.5, 1.5, 4.0):
        fd = (mixture_cdf(mix, z + h) - mixture_cdf(mix, z - h)) / (2.0 * h)
        assert fd == pytest.approx(mixture_eval(mix, z), abs=1e-6)


def test_mixture_quantile_frozen_values():
    exp1 = conv_mixture((1.0,))
    assert mixture_quantile(exp1, 1.0 - E_INV) == pytest.approx(1.0, abs=1e-10)
    hypo = conv_mixture((1.0, 2.0))
    assert mixture_quantile(hypo, 0.25) == pytest.approx(math.log(2.0), abs=1e-10)


def test_mixture_quantile_roundtrip():
    mix = conv_mixture((0.2, 1.0, 5.0, 25.0))
    for p in np.linspace(0.01, 0.99, 25):
        z = mixture_quantile(mix, float(p))
        assert mixture_cdf(mix, z) == pytest.approx(float(p), abs=1e-9)


def test_mixture_quantile_rejects_bad_probability():
    mix = conv_mixture((1.0, 2.0))
    for p in (-0.1, 0.0, 1.0, 1.1, math.nan):
        with pytest.raises(DomainError):
            mixture_quantile(mix, p)


@pytest.mark.parametrize("rates", [(1.0, 2.0), (1.0, 1.0005, 2.0)])
@pytest.mark.parametrize("p", [np.array([0.5, 0.6]), np.array([0.5]), "0.5", None, 0.5j])
def test_quantile_levels_must_be_real_scalars(rates, p):
    # an array raised numpy's ambiguous-truth ValueError and a string a TypeError, on both routes
    with pytest.raises(DomainError, match="real scalar"):
        conv_quantile(rates, p)


def test_quantile_levels_take_numpy_scalars():
    assert conv_quantile((1.0, 2.0), np.float64(0.25)) == conv_quantile((1.0, 2.0), 0.25)
    assert conv_quantile((1.0, 2.0), np.float32(0.25)) == conv_quantile((1.0, 2.0), float(np.float32(0.25)))


def test_grid_cdf_reports_its_clamps_once_per_call(caplog):
    # the closed form cancels at N = 100 (sum_route sends that sum to the chain); the grid
    # used to clip to 0 without a record
    rates = tuple(np.geomspace(0.1, 10.0, 100))
    mean = math.fsum(1.0 / x for x in rates)
    z = np.array([0.5, 1.0, 1.5]) * mean
    with caplog.at_level("WARNING", logger="expstat.core"):
        values = mixture_cdf_grid(conv_mixture(rates), z)
    assert values.tolist() == [0.0, 0.0, 0.0]
    records = [r for r in caplog.records if "mixture_cdf_grid" in r.getMessage()]
    assert len(records) == 1
    assert "clamping 3 values" in records[0].getMessage()
    worst = float(records[0].getMessage().rsplit("worst ", 1)[1])
    assert worst < -1.0
    # a scalar is the one-point grid, so it logs the grid's one warning
    caplog.clear()
    with caplog.at_level("WARNING", logger="expstat.core"):
        assert mixture_cdf(conv_mixture(rates), float(z[1])) == 0.0
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 1 and messages[0].startswith("mixture_cdf_grid: clamping 1 values"), messages
    caplog.clear()
    with caplog.at_level("WARNING", logger="expstat.core"):
        conv_cdf((1.0, 2.0, 3.0), np.linspace(0.0, 20.0, 401))
        mixture_cdf_grid(_MIX, np.array([]))
    assert not caplog.records


def test_quantile_bracket_stops_once_the_cdf_stops_moving(monkeypatch):
    # flagged as a density, but its cdf levels off at 0.5: no bracket reaches p = 0.9.  Newton
    # reaches the bracket only once a step leaves the open bracket (measured: 4 cdf calls before
    # it, 3 inside it)
    half = SignedExponentialMixture.from_terms([(0.5, 1.0, 0)], is_density=True)
    calls, inside = [], []

    def counted(m, z):
        (inside if bracketing else calls).append(z)
        return cdf_grid(m, z)

    def bracket(*args):
        nonlocal bracketing
        bracketing = True
        return quantile_bracket(*args)

    bracketing = False
    cdf_grid, quantile_bracket = core.mixture_cdf_grid, core._quantile_bracket
    monkeypatch.setattr(core, "mixture_cdf_grid", counted)
    monkeypatch.setattr(core, "_quantile_bracket", bracket)
    with pytest.raises(NumericalError, match="failed to bracket quantile level 0.9"):
        mixture_quantile(half, 0.9)
    assert 2 <= len(inside) <= 5, inside
    assert len(calls) + len(inside) <= 8, (calls, inside)


def test_quantile_of_a_mixture_whose_moments_cancel_raises_numerical_error(recwarn):
    # the closed form of (1 + 1.1e-3)^i, i < 8, gives the mean -2096 (the sum's is 7.97), so the
    # bracket top mean + 40 sigma is negative; the cdf there overflowed in expm1 and fsum raised
    # an untyped ValueError ("-inf + inf in fsum")
    mixture = conv_mixture(tuple((1.0 + 1.1e-3) ** i for i in range(8)))
    assert mixture_moment(mixture, 1) < 0.0
    with pytest.raises(NumericalError, match="mean -2.* and variance .* give the quantile bracket top"):
        mixture_quantile(mixture, 0.5)
    assert not recwarn.list


def test_factorial_table_matches_scipy():
    from scipy.special import factorial

    k = np.arange(25)
    assert core.factorial(k).tobytes() == factorial(k).tobytes()
    assert core.factorial(np.array([170, 171, 500])).tolist() == [float(math.factorial(170)), math.inf, math.inf]


def test_gammainc_holds_3e_13_against_mpmath_to_shape_200():
    # integer shapes a = 1..200, x from 1e-300 to 1e4 and around x = a, where the two sums meet;
    # each shape once with 23 points in one call and once with one point per call
    worst = 0.0
    for a in range(1, 201):
        x = np.concatenate((np.geomspace(1e-300, 1e4, 17), a * np.array([0.5, 0.96, 1 - 1e-12, 1.0, 1.04, 1.5])))
        together = core.gammainc(a, x)
        alone = np.array([core.gammainc(np.array([a]), np.array([v]))[0] for v in x.tolist()])
        with mpmath.workdps(40):
            for v, g1, g2 in zip(x.tolist(), together.tolist(), alone.tolist()):
                ref = mpmath.gammainc(a, 0, mpmath.mpf(v), regularized=True)
                for got in (g1, g2):
                    # below the normal range only the absolute error of a subnormal is asked
                    err = abs(got - ref) / ref if ref >= 2.2250738585072014e-308 else abs(got - ref) / 2.2250738585072014e-308
                    worst = max(worst, float(err))
    assert worst <= 3e-13, worst
    special = np.array([0.0, -1e-300, -1.0, -np.inf, np.nan, np.inf])
    for a in (1, 2, 7, 200):
        for got in (core.gammainc(a, np.tile(special, 3)).tolist()[:6], core.gammainc(np.full(6, a), special).tolist()):
            assert got[0] == 0.0 and got[5] == 1.0, (a, got)
            assert all(math.isnan(v) for v in got[1:5]), (a, got)


def _one_block_eval(m, z):
    """mixture_eval_grid as one expression over all points, the form before blocking."""
    c, lam, k = m.coefficients[:, None], m.rates[:, None], m.degrees[:, None]
    vals = np.sum(c * np.power(z[None, :], k) * np.exp(-lam * z[None, :]), axis=0)
    return np.maximum(vals, 0.0) if m.is_density else vals


def _one_block_cdf(m, z):
    """mixture_cdf_grid as one expression over all points, gammainc on every term."""
    from scipy.special import factorial

    gammainc = core.gammainc

    c, lam, k = m.coefficients[:, None], m.rates[:, None], m.degrees[:, None]
    x = lam * z[None, :]
    contrib = np.where(
        (m.degrees == 0)[:, None],
        -(c / lam) * np.expm1(-x),
        c * factorial(k) / lam ** (k + 1) * gammainc(k + 1, x),
    )
    return np.clip(np.sum(contrib, axis=0), 0.0, 1.0)


@pytest.mark.parametrize(
    "rates",
    [(0.3, 0.7, 1.9, 4.4, 8.0, 11.0, 15.0), (0.5, 0.5, 0.5, 0.5), (1.0, 1.0, 2.0, 2.0, 2.0, 5.0, 9.0)],
    ids=["closed-form", "erlang", "mixed"],
)
def test_blocked_grid_kernels_are_bit_identical_to_one_block(rates, monkeypatch):
    m = conv_mixture(rates)
    rng = np.random.default_rng(17)
    for n in (100_000, 2 * core.GRID_BLOCK + 1, 3 * core.GRID_BLOCK - 1, 5):
        z = rng.uniform(0.0, 30.0, n)
        blocked = mixture_eval_grid(m, z), mixture_cdf_grid(m, z)
        assert blocked[0].tobytes() == _one_block_eval(m, z).tobytes(), n
        assert blocked[1].tobytes() == _one_block_cdf(m, z).tobytes(), n
        monkeypatch.setattr(core, "GRID_BLOCK", n)
        assert mixture_eval_grid(m, z).tobytes() == blocked[0].tobytes(), n
        assert mixture_cdf_grid(m, z).tobytes() == blocked[1].tobytes(), n
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# density invariants across constructors


@settings(deadline=None, max_examples=25)
@given(separated_rate_strategy(min_size=2, max_size=8))
def test_density_mixtures_integrate_to_one(rates):
    # Coefficients carry rounding proportional to their own magnitude, so the
    # achievable bound scales with the conditioning of the expansion.
    mix = conv_mixture(tuple(rates))
    assert mix.is_density
    kappa = conv_coefficients(tuple(rates)).condition_estimate
    assert mixture_moment(mix, 0) == pytest.approx(1.0, abs=max(1e-10, 1e-12 * kappa))


def test_density_mixtures_integrate_to_one_representative_sets():
    for rates in random_rate_sets(seed=424242, n_sets=40, n_min=2, n_max=8):
        mix = conv_mixture(rates)
        assert mixture_moment(mix, 0) == pytest.approx(1.0, abs=1e-10)


@settings(deadline=None, max_examples=15)
@given(separated_rate_strategy(min_size=2, max_size=6))
@example([61.0, 62.0, 63.0, 66.0])  # coefficients ~1e6 cancel to -4e-10 at z = 0
def test_density_mixtures_nonnegative_on_body(rates):
    mix = conv_mixture(tuple(rates))
    hi = mixture_quantile(mix, 0.9999)
    grid = np.linspace(0.0, hi, 10_000)
    vals = mixture_eval_grid(mix, grid)
    assert np.all(vals >= -1e-10)


def test_near_equal_rates_closed_form_tracks_repeated_rate_limit():
    # Rates one part in 1e6 apart: the distinct-rate expansion with ~1e6-sized
    # coefficients must still agree with the exactly-repeated evaluation.
    loose = conv_mixture((1.0, 1.0))
    tight = conv_mixture((1.0, 1.0 + 1e-6))
    assert loose.terms[0].degree == 1  # collapsed path
    assert all(t.degree == 0 for t in tight.terms)  # distinct path
    for z in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        assert mixture_eval(tight, z) == pytest.approx(
            mixture_eval(loose, z), abs=1e-4
        )


# ---------------------------------------------------------------------------
# the grid kernels against the formulas they were trimmed from, bit for bit


def _eval_grid_reference(m, zz):
    """mixture_eval_grid with every term through np.power, as before the degree-0 shortcut."""
    c, lam, k = m.coefficients[:, None], m.rates[:, None], m.degrees[:, None]
    vals = np.empty_like(zz)
    for block in core._grid_blocks(zz.size):
        z = zz[None, block]
        vals[block] = np.sum(c * np.power(z, k) * np.exp(-lam * z), axis=0)
    return np.maximum(vals, 0.0, out=vals)


def _cdf_grid_reference(m, zz):
    """mixture_cdf_grid with the Gamma weights always formed and expm1 of the negated product lam z."""
    c, lam, k = m.coefficients[:, None], m.rates[:, None], m.degrees[:, None]
    flat = m.degrees == 0
    a = -(c / lam)
    b = core._gamma_weights(m.coefficients, m.degrees, m.rates)[:, None]
    vals = np.empty_like(zz)
    for block in core._grid_blocks(zz.size):
        x = lam * zz[None, block]
        contrib = a * np.expm1(-x)
        if not flat.all():
            contrib = np.where(flat[:, None], contrib, b * core.gammainc(k + 1, x))
        vals[block] = np.sum(contrib, axis=0)
    return np.clip(vals, 0.0, 1.0, out=vals)


def _max_pdf_reference(rates, zz):
    """max_pdf with lam z negated once for expm1 and once for exp, out of place."""
    lam = np.asarray(rates)[:, None]
    x = lam * zz
    p = -np.expm1(-x)
    terms = lam * np.exp(-x)
    below, above, n = np.ones(zz.size), np.ones(zz.size), lam.shape[0]
    for k in range(1, n):
        below *= p[k - 1]
        terms[k] *= below
        above *= p[n - k]
        terms[n - 1 - k] *= above
    return terms.sum(axis=0)


TRIMMED_KERNEL_SETS = {
    "distinct": (0.3, 0.7, 1.9, 2.5, 6.0),
    "erlang-block": (1.0, 1.0, 2.0, 3.0, 3.0),
    "gamma": (2.0, 2.0, 2.0),
    "log-spaced N = 12": tuple(float(x) for x in np.geomspace(0.1, 10.0, 12)),
}


@pytest.mark.parametrize("points", [1, 11, 4001, 20_000])
@pytest.mark.parametrize("name", TRIMMED_KERNEL_SETS)
def test_trimmed_grid_kernels_keep_the_bits_of_their_formulas(name, points):
    # 20,000 points take two blocks of GRID_BLOCK and more; the bytes also compare the sign of a zero
    assert 2 * core.GRID_BLOCK < 20_000
    rates = TRIMMED_KERNEL_SETS[name]
    mean = math.fsum(1.0 / r for r in rates)
    zz = np.linspace(0.0, 6.0 * mean, points) if points > 1 else np.array([0.7 * mean])
    mixture = conv_mixture(rates)
    for got, expected in (
        (mixture_eval_grid(mixture, zz), _eval_grid_reference(mixture, zz)),
        (mixture_cdf_grid(mixture, zz), _cdf_grid_reference(mixture, zz)),
        (max_pdf(rates, zz), _max_pdf_reference(rates, zz)),
    ):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name
