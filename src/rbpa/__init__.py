"""Exact counting of restricted barred preferential arrangements and
the poly-Bernoulli / U number families attached to them, with every
claimed identity wired to an executable check."""

from .combinat import binomial, int_pow, stirling2
from .counts import (
    CertificationFailureError,
    SequenceTable,
    TailCertificate,
    last_digit_cycle_check,
    p_binomial_shift,
    p_double_sum,
    p_egf,
    p_inclusion_exclusion,
    p_recurrence,
    p_series_certified,
)
from .bernoulli import (
    MuTable,
    corollary_convolution_check,
    mu_table,
    multi_poly_bernoulli,
    multi_poly_bernoulli_li_oracle,
    poly_bernoulli,
    u_from_mu,
    u_number,
    u_stirling_sum,
    u_via_shift,
    w_family,
)
from .egf import (
    Egf,
    NotAnIntegerError,
    OrderMismatchError,
    ZeroConstantTermError,
)
from .oracle import (
    SizeLimitError,
    enumerate_preferential_arrangements,
    enumerate_rbpa,
    enumerate_rbpa_with_empty,
)
from .identities import CheckReport, Summary, run_all, run_identity

__all__ = [
    "CertificationFailureError",
    "CheckReport",
    "Egf",
    "MuTable",
    "NotAnIntegerError",
    "OrderMismatchError",
    "SequenceTable",
    "SizeLimitError",
    "Summary",
    "TailCertificate",
    "ZeroConstantTermError",
    "binomial",
    "corollary_convolution_check",
    "enumerate_preferential_arrangements",
    "enumerate_rbpa",
    "enumerate_rbpa_with_empty",
    "int_pow",
    "last_digit_cycle_check",
    "mu_table",
    "multi_poly_bernoulli",
    "multi_poly_bernoulli_li_oracle",
    "p_binomial_shift",
    "p_double_sum",
    "p_egf",
    "p_inclusion_exclusion",
    "p_recurrence",
    "p_series_certified",
    "poly_bernoulli",
    "run_all",
    "run_identity",
    "stirling2",
    "u_from_mu",
    "u_number",
    "u_stirling_sum",
    "u_via_shift",
    "w_family",
]
