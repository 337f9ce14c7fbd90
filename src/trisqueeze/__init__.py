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
    QuasiprobGrid,
    WignerAux,
    WindowSelectionError,
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
    SymplecticReport,
    bogoliubov_coeffs,
    coupling_matrix,
    symmetric_coeffs_closed,
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
    "QuasiprobGrid",
    "SqueezeParams",
    "SymplecticReport",
    "UndefinedMomentError",
    "WignerAux",
    "WindowSelectionError",
    "bogoliubov_coeffs",
    "cauchy_schwarz",
    "char_fn",
    "coupling_matrix",
    "expectation",
    "fock_limit_wigner",
    "g2",
    "laguerre",
    "normal_order",
    "squeezing",
    "symmetric_coeffs_closed",
    "symplectic_check",
    "wigner_aux",
    "wigner_closed",
    "wigner_excited",
    "wigner_numeric",
    "wigner_origin",
    "wigner_vacuum",
]

__version__ = "0.1.0"
