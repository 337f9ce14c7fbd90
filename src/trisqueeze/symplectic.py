"""Bogoliubov transformation of three concurrent two-mode squeezers.

The unitary exp[r1(a1 a2 - a1+a2+) + r2(a1 a3 - a1+a3+) + r3(a2 a3 - a2+a3+)]
mixes every annihilation operator into all six ladder operators,

    S+ a_j S = sum_k cosh(R)_jk a_k - sinh(R)_jk a_k+,

where R is the symmetric zero-diagonal matrix of pair couplings.  The matrix
functions are taken through the eigendecomposition of R, which reproduces the
printed equal-coupling closed forms exactly: r*(J - I) has eigenvalue 2r on
(1,1,1) and a doubly degenerate eigenvalue -r.  The coefficient table keeps
that eigendecomposition: the output quadratures are exp(-R) (= c + d) and
exp(+R) (= c - d) times the input ones, and read through the eigenpairs they
keep digits that the sum of the exp(+r)-sized c and d tables cancels.  Near
R = 0, cosh(R) - I is of order r^2 while eigh's round-off on c's unit diagonal
is of order 1e-16, so c is built as I + V diag(2 sinh^2(lambda/2)) V^T: c - I
then carries the relative digits of its own eigenvalue functions.  Likewise d
= -(R + V diag(sinh(lambda) - lambda) V^T) keeps R's exact zeros, such as the
diagonal of a path graph (r, 0, r), to 1e-16 r^3 rather than 1e-16 r.

A unitary transform keeps [a_j, a_k+] = delta_jk and [a_j, a_k] = 0;
``symplectic_check`` returns how far a coefficient table, or each table of a
stack, misses them, as absolute residual matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .ladder import _mode_index

# Not an overflow limit: at R_MAX, max|c| is 8.1e7 and its fourth power 4.3e31.
# The entries of symplectic_check's absolute residual matrices grow like
# max|c|^2 times the float epsilon, and their maximum exceeds ACCEPT_RESIDUAL
# from about r = 4 on the symmetric line (2.3e-10 at r = 4, 5.0 at r = 10) and
# from about r = 5.5 on (r, 0.7r, 0.4r) (9.3e-10 at r = 6).
R_MAX = 10.0

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
    (f2, g2, h2).  For a unitary transform c = cosh(R) and d = -sinh(R), taken
    through R = V diag(eigvals) V^T with V = ``eigvecs``.  ``c``, ``d`` and
    ``eigvecs`` are (3, 3) and ``eigvals`` (3,) for one coupling triple, and
    each gains a leading axis P for a stack of P triples.
    """

    c: np.ndarray
    d: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray

    def __post_init__(self):
        tables = {f.name: np.array(getattr(self, f.name), dtype=float) for f in fields(self)}
        shape, *others = (table.shape for table in tables.values())
        if others[0] != shape:
            raise ValueError(f"c and d must have the same shape, got {shape} and {others[0]}")
        if len(shape) not in (2, 3) or shape[-2:] != (3, 3):
            raise ValueError(f"coefficient tables must be (3, 3) or (P, 3, 3), got {shape}")
        if others[1:] != [shape[:-1], shape]:
            raise ValueError(f"eigenpairs of {shape} tables must be {shape[:-1]} and {shape}, "
                             f"got {others[1]} and {others[2]}")
        for name, table in tables.items():
            if not np.isfinite(table).all():
                raise ValueError("coefficient tables must be finite")
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    @classmethod
    def identity(cls):
        return cls(c=np.eye(3), d=np.zeros((3, 3)), eigvals=np.zeros(3), eigvecs=np.eye(3))

    def mode_row(self, mode):
        """(f1, f2, g1, g2, h1, h2) of one output mode (1-based); (P,) arrays for a stack."""
        j = _mode_index(mode)
        return tuple(m[..., j, k][()] for k in range(3) for m in (self.c, self.d))


def valid_prefix(triples) -> int:
    """Number of leading (r1, r2, r3) rows that SqueezeParams accepts."""
    ok = (np.abs(np.asarray(triples, dtype=float).reshape(-1, 3)) <= R_MAX).all(axis=1)
    return int(ok.argmin()) if not ok.all() else ok.size


def bogoliubov_table(triples) -> BogoliubovCoeffs:
    """cosh/sinh of P coupling matrices via one stacked real symmetric eigendecomposition.

    ``triples`` holds P rows (r1, r2, r3); the result is a (P, 3, 3) stack.  A
    row outside the SqueezeParams guards raises that guard's message for the
    first such row.
    """
    r = np.asarray(triples, dtype=float).reshape(-1, 3)
    first_bad = valid_prefix(r)
    if first_bad < len(r):
        SqueezeParams(*r[first_bad])  # raises the row's guard message
    rmat = _coupling_matrices(r)
    eigvals, eigvecs = np.linalg.eigh(rmat)
    vt = eigvecs.transpose(0, 2, 1)
    c = np.eye(3) + (eigvecs * (2.0 * np.sinh(eigvals / 2.0) ** 2)[:, None, :]) @ vt
    # sinh(lambda) - lambda with digits of its own: below |lambda| = 1, where the two
    # cancel, its Taylor series to lambda^19 (truncation below 5e-17)
    odd = np.polyval([1.0 / math.factorial(k) for k in range(19, 2, -2)], eigvals ** 2)
    odd = np.where(np.abs(eigvals) < 1.0, eigvals ** 3 * odd, np.sinh(eigvals) - eigvals)
    d = -(rmat + (eigvecs * odd[:, None, :]) @ vt)
    return BogoliubovCoeffs(c=c, d=d, eigvals=eigvals, eigvecs=eigvecs)


def bogoliubov_coeffs(params: SqueezeParams) -> BogoliubovCoeffs:
    """cosh/sinh of the coupling matrix: the one-row bogoliubov_table."""
    table = bogoliubov_table(params.as_tuple())
    return BogoliubovCoeffs(table.c[0], table.d[0], table.eigvals[0], table.eigvecs[0])


# A transform is accepted when every entry of both symplectic_check residuals is below this.
ACCEPT_RESIDUAL = 1e-10


def symplectic_check(coeffs: BogoliubovCoeffs):
    """Absolute residuals (norm, comm) of the commutation relations the transform must keep.

    ``norm`` = |c c^T - d d^T - I|: its diagonal holds the mode normalizations,
    from [S+ a_j S, (S+ a_j S)+] = 1, and its off-diagonal entries the mixed
    commutators, from [S+ a_j S, (S+ a_k S)+] = 0.  ``comm`` = |c d^T - d c^T|
    holds the annihilator commutators, from [S+ a_j S, S+ a_k S] = 0.  Both are
    (3, 3) for one coupling triple and (P, 3, 3) for a stack of P triples.
    """
    c, d = coeffs.c, coeffs.d
    ct, dt = c.swapaxes(-1, -2), d.swapaxes(-1, -2)
    return np.abs(c @ ct - d @ dt - np.eye(3)), np.abs(c @ dt - d @ ct)
