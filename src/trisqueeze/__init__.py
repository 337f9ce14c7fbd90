"""Nonclassicality diagnostics of the three-mode squeeze operator."""

from .ladder import (
    CoherentState,
    InputState,
    LadderPolynomial,
    NumberState,
    expectation,
    normal_order,
)
from .moments import (
    QuadratureSelector,
    UndefinedMomentError,
    cauchy_schwarz,
    g2,
    squeezing,
)
from .quasiprob import (
    PFunctionSingularError,
    WignerAux,
    char_fn,
    fock_limit_wigner,
    laguerre,
    wigner_aux,
    wigner_closed,
    wigner_excited,
    wigner_numeric,
    wigner_origin,
    wigner_vacuum,
)
from .symplectic import (
    BogoliubovCoeffs,
    SqueezeParams,
    bogoliubov_coeffs,
    bogoliubov_table,
    coupling_matrix,
    symplectic_check,
)

__all__ = [
    "BogoliubovCoeffs",
    "CoherentState",
    "InputState",
    "LadderPolynomial",
    "NumberState",
    "PFunctionSingularError",
    "QuadratureSelector",
    "SqueezeParams",
    "UndefinedMomentError",
    "WignerAux",
    "bogoliubov_coeffs",
    "bogoliubov_table",
    "cauchy_schwarz",
    "char_fn",
    "coupling_matrix",
    "expectation",
    "fock_limit_wigner",
    "g2",
    "laguerre",
    "normal_order",
    "squeezing",
    "symplectic_check",
    "wigner_aux",
    "wigner_closed",
    "wigner_excited",
    "wigner_numeric",
    "wigner_origin",
    "wigner_vacuum",
]

__version__ = "0.1.0"
