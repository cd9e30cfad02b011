"""Exact laws for sums and order statistics of heterogeneous exponentials.

Sums, minima, maxima, ranges and general order statistics of independent
exponentials: the sum by a signed closed form with Erlang blocks, or by an
absorbing Markov chain where its coefficients would cancel; the extremes
and the range (for any number of rates) by stable product forms.  Seeded
Monte Carlo samplers with goodness-of-fit oracles and a small CLI
(``expstat curve | sample | check``) check them.
"""

from .core import (
    RateVector,
    SignedExponentialMixture,
    mixture_cdf,
    mixture_eval,
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
    conv_quantile,
)
from .errors import (
    CapacityError,
    ContractError,
    DomainError,
    ExpstatError,
    NumericalError,
)
from .montecarlo import (
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
    max_cdf,
    max_pdf,
    min_cdf,
    min_pdf,
    order_statistic_cdf,
    order_statistic_pdf,
    range_cdf,
    range_pdf,
)
from .quadrature import sum_pdf_quadrature

__version__ = "0.1.0"

__all__ = [
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
]
