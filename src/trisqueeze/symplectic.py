"""Bogoliubov transformation of three concurrent two-mode squeezers.

The unitary exp[r1(a1 a2 - a1+a2+) + r2(a1 a3 - a1+a3+) + r3(a2 a3 - a2+a3+)]
mixes every annihilation operator into all six ladder operators,

    S+ a_j S = sum_k cosh(R)_jk a_k - sinh(R)_jk a_k+,

where R is the symmetric zero-diagonal matrix of pair couplings.  The matrix
functions are taken through the eigendecomposition of R, which reproduces the
printed equal-coupling closed forms exactly: r*(J - I) has eigenvalue 2r on
(1,1,1) and a doubly degenerate eigenvalue -r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ladder import _mode_index

R_MAX = 10.0  # cosh(2 * R_MAX) ~ 2.4e8; beyond this, fourth moments overflow

_MODE_KEYS = ("mode1", "mode2", "mode3")
_COEFF_KEYS = ("f1", "f2", "g1", "g2", "h1", "h2")


def _validated_strength(name, value):
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if abs(value) > R_MAX:
        raise ValueError(f"|{name}| must not exceed {R_MAX}, got {value!r}")
    return value


@dataclass(frozen=True)
class SqueezeParams:
    """Dimensionless strengths of the three pairwise squeezers.

    Under the undepleted-pump convention each strength is the product of an
    effective nonlinearity and the classical pump amplitude, so the values are
    real.  Pair (1,2) carries r1, pair (1,3) carries r2, pair (2,3) carries r3.
    """

    r1: float
    r2: float
    r3: float

    def __post_init__(self):
        object.__setattr__(self, "r1", _validated_strength("r1", self.r1))
        object.__setattr__(self, "r2", _validated_strength("r2", self.r2))
        object.__setattr__(self, "r3", _validated_strength("r3", self.r3))

    @classmethod
    def symmetric(cls, r):
        return cls(r, r, r)

    @property
    def is_symmetric(self):
        return self.r1 == self.r2 == self.r3

    def as_tuple(self):
        return (self.r1, self.r2, self.r3)


def _coupling_matrices(r):
    """(P, 3, 3) stack of the coupling matrices of the (P, 3) rows (r1, r2, r3)."""
    rmat = np.zeros((len(r), 3, 3))
    for (j, k), strength in zip(((0, 1), (0, 2), (1, 2)), r.T):
        rmat[:, j, k] = rmat[:, k, j] = strength
    return rmat


def coupling_matrix(params: SqueezeParams) -> np.ndarray:
    """Symmetric zero-diagonal 3x3 matrix of pair couplings."""
    return _coupling_matrices(np.array([params.as_tuple()]))[0]


@dataclass(frozen=True)
class BogoliubovCoeffs:
    """Coefficient tables of S+ a_j S = f1 a1 + f2 a1+ + g1 a2 + g2 a2+ + h1 a3 + h2 a3+.

    Row j of ``c`` holds the annihilation-operator coefficients (f1, g1, h1)
    of output mode j+1, row j of ``d`` the creation-operator coefficients
    (f2, g2, h2).  For a unitary transform c = cosh(R) and d = -sinh(R).
    """

    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        c = np.array(self.c, dtype=float)
        d = np.array(self.d, dtype=float)
        if c.shape != (3, 3) or d.shape != (3, 3):
            raise ValueError("coefficient tables must be 3x3")
        if not (np.isfinite(c).all() and np.isfinite(d).all()):
            raise ValueError("coefficient tables must be finite")
        c.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @classmethod
    def identity(cls):
        return cls(c=np.eye(3), d=np.zeros((3, 3)))

    def mode_row(self, mode):
        """(f1, f2, g1, g2, h1, h2) of one output mode (1-based)."""
        j = _mode_index(mode)
        return (
            self.c[j, 0], self.d[j, 0],
            self.c[j, 1], self.d[j, 1],
            self.c[j, 2], self.d[j, 2],
        )

    def to_json_dict(self):
        """Nested dict with keys "mode1".."mode3", each "f1".."h2"."""
        out = {}
        for j, mode_key in enumerate(_MODE_KEYS):
            row = self.mode_row(j + 1)
            out[mode_key] = {key: float(val) for key, val in zip(_COEFF_KEYS, row)}
        return out

    @classmethod
    def from_json_dict(cls, payload):
        c = np.zeros((3, 3))
        d = np.zeros((3, 3))
        for j, mode_key in enumerate(_MODE_KEYS):
            row = payload[mode_key]
            c[j] = (row["f1"], row["g1"], row["h1"])
            d[j] = (row["f2"], row["g2"], row["h2"])
        return cls(c=c, d=d)


class BogoliubovTable(NamedTuple):
    """The tables of P coupling triples, stacked: ``c[p]`` and ``d[p]`` are row p's
    BogoliubovCoeffs tables, so ``c`` and ``d`` have shape (P, 3, 3)."""

    c: np.ndarray
    d: np.ndarray


def valid_prefix(triples) -> int:
    """Number of leading (r1, r2, r3) rows that SqueezeParams accepts."""
    ok = (np.abs(np.asarray(triples, dtype=float).reshape(-1, 3)) <= R_MAX).all(axis=1)
    return int(ok.argmin()) if not ok.all() else ok.size


def bogoliubov_table(triples) -> BogoliubovTable:
    """cosh/sinh of P coupling matrices via one stacked real symmetric eigendecomposition.

    ``triples`` holds P rows (r1, r2, r3).  A row outside the SqueezeParams
    guards raises that guard's message for the first such row.
    """
    r = np.asarray(triples, dtype=float).reshape(-1, 3)
    first_bad = valid_prefix(r)
    if first_bad < len(r):
        SqueezeParams(*r[first_bad])  # raises the row's guard message
    eigvals, eigvecs = np.linalg.eigh(_coupling_matrices(r))
    vt = eigvecs.transpose(0, 2, 1)
    c = (eigvecs * np.cosh(eigvals)[:, None, :]) @ vt
    d = -(eigvecs * np.sinh(eigvals)[:, None, :]) @ vt
    if not (np.isfinite(c).all() and np.isfinite(d).all()):
        raise ValueError("coefficient tables must be finite")
    return BogoliubovTable(c=c, d=d)


def bogoliubov_coeffs(params: SqueezeParams) -> BogoliubovCoeffs:
    """cosh/sinh of the coupling matrix: the one-row bogoliubov_table."""
    table = bogoliubov_table(params.as_tuple())
    return BogoliubovCoeffs(c=table.c[0], d=table.d[0])


ACCEPT_RESIDUAL = 1e-10


@dataclass(frozen=True)
class SymplecticReport:
    """Absolute residuals of the commutation-preservation identities.

    ``mode_normalization``:  |sum_k c_jk^2 - d_jk^2 - 1| per output mode,
    from [S+ a_j S, (S+ a_j S)+] = 1.
    ``mixed_commutators``:   |(c c^T - d d^T)_jk| for the pairs (1,2), (1,3),
    (2,3), from [S+ a_j S, (S+ a_k S)+] = 0.
    ``annihilator_commutators``: |(c d^T - d c^T)_jk| for the same pairs,
    from [S+ a_j S, S+ a_k S] = 0.
    """

    mode_normalization: tuple
    mixed_commutators: tuple
    annihilator_commutators: tuple

    @property
    def max_residual(self):
        return max(
            max(self.mode_normalization),
            max(self.mixed_commutators),
            max(self.annihilator_commutators),
        )

    @property
    def ok(self):
        return self.max_residual < ACCEPT_RESIDUAL


def symplectic_check(coeffs: BogoliubovCoeffs) -> SymplecticReport:
    """Residual report; a transform is accepted when every residual < 1e-10."""
    gram = coeffs.c @ coeffs.c.T - coeffs.d @ coeffs.d.T
    skew = coeffs.c @ coeffs.d.T - coeffs.d @ coeffs.c.T
    pairs = ((0, 1), (0, 2), (1, 2))
    return SymplecticReport(
        mode_normalization=tuple(abs(gram[j, j] - 1.0) for j in range(3)),
        mixed_commutators=tuple(abs(gram[j, k]) for j, k in pairs),
        annihilator_commutators=tuple(abs(skew[j, k]) for j, k in pairs),
    )
