"""Exact laws for sums and order statistics of heterogeneous exponentials.

Sums, minima, maxima, two-variable ranges and general order statistics of
independent exponential random variables all have closed forms in one
family, the signed exponential mixture.  This package evaluates those forms
with explicit numerical-stability policies (rate clustering, Erlang blocks,
a phase-type fallback for near-equal rates), provides seeded Monte Carlo
samplers with goodness-of-fit oracles, and ships a small CLI
(``expstat curve | sample | check``).
"""

from .core import (
    RateVector,
    SignedExponentialMixture,
    mixture_cdf,
    mixture_eval,
    mixture_integral,
    mixture_moment,
    mixture_quantile,
)
from .convolution import (
    char_fn_linear_combination,
    char_fn_product,
    conv_cdf,
    conv_coefficients,
    conv_mixture,
    conv_moments,
    conv_pdf,
    conv_pdf_phase_type,
    conv_quantile,
    partial_fraction_identity_check,
    sum_route,
)
from .errors import (
    CapacityError,
    ContractError,
    DegenerateRatesError,
    DomainError,
    ExpstatError,
    NumericalError,
)
from .montecarlo import (
    FactorizationReport,
    GoodnessOfFitReport,
    SampleBatch,
    factorization_test,
    ks_test,
    sample_max,
    sample_min,
    sample_min_range_pairs,
    sample_order,
    sample_sum,
)
from .orderstats import (
    OrderStatisticRequest,
    max2_via_convolution,
    max_cdf,
    max_mixture,
    max_pdf,
    min_cdf,
    min_law,
    order_statistic_cdf,
    order_statistic_pdf,
    range2_mixture,
)
from .quadrature import sum_pdf_quadrature

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ContractError",
    "DegenerateRatesError",
    "DomainError",
    "ExpstatError",
    "FactorizationReport",
    "GoodnessOfFitReport",
    "NumericalError",
    "OrderStatisticRequest",
    "RateVector",
    "SampleBatch",
    "SignedExponentialMixture",
    "char_fn_linear_combination",
    "char_fn_product",
    "conv_cdf",
    "conv_coefficients",
    "conv_mixture",
    "conv_moments",
    "conv_pdf",
    "conv_pdf_phase_type",
    "conv_quantile",
    "factorization_test",
    "ks_test",
    "max2_via_convolution",
    "max_cdf",
    "max_mixture",
    "max_pdf",
    "min_cdf",
    "min_law",
    "mixture_cdf",
    "mixture_eval",
    "mixture_integral",
    "mixture_moment",
    "mixture_quantile",
    "order_statistic_cdf",
    "order_statistic_pdf",
    "partial_fraction_identity_check",
    "range2_mixture",
    "sample_max",
    "sample_min",
    "sample_min_range_pairs",
    "sample_order",
    "sample_sum",
    "sum_pdf_quadrature",
    "sum_route",
]
