"""Exact counting of restricted barred preferential arrangements and
the poly-Bernoulli / U number families attached to them, with every
claimed identity wired to an executable check.

`import rbpa` loads only the computing core (`combinat`, `egf`,
`counts`, `bernoulli`). The identity registry and the brute-force
oracle load on first use: their exported names, and the submodules
themselves, resolve through the module `__getattr__` below.
"""

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

# name -> submodule that defines it, imported on first access
_LAZY = {
    "CheckReport": "identities",
    "Summary": "identities",
    "run_all": "identities",
    "run_identity": "identities",
    "SizeLimitError": "oracle",
    "enumerate_preferential_arrangements": "oracle",
    "enumerate_rbpa": "oracle",
    "enumerate_rbpa_with_empty": "oracle",
}

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


def __getattr__(name: str):
    import importlib

    if name in _LAZY.values():
        # importing a submodule binds it in this namespace, so this runs once
        return importlib.import_module(f"{__name__}.{name}")
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
