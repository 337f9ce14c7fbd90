"""Operator-moment diagnostics of the three-mode squeezed states.

Writing A = (a1, a2, a3, a1+, a2+, a3+), output mode j is S+ a_j S = U_j.A
with U_j = [c_j | d_j], and its adjoint is V_j.A with V_j = [d_j | c_j].
Every moment is then one contraction with a tensor of the input state:

    <n_j> = m2[V_j, U_j],   <a_j+2 a_j2> = m4[V_j, V_j, U_j, U_j],
    <n_j n_k> = m4[V_j, U_j, V_k, U_k],   <dX^2> = m2[x, x] - m1[x]^2,

with m1[i] = <A_i>, m2[i,j] = <A_i A_j> and m4[i,j,k,l] = <A_i A_j A_k A_l>
built once per state by the exact normal-ordering engine (``ladder``), so one
code path serves number states, coherent states and any couplings.

Every function takes a ``BogoliubovCoeffs`` of one coupling triple or of a
stack of P triples; with a stack, the rows U_j, V_j are (P, 6) stacks and
each moment is one contraction over all P rows, returning a (P,) array.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .ladder import InputState, LadderPolynomial, _mode_index, expectation, normal_order
from .symplectic import BogoliubovCoeffs

MEAN_PHOTON_FLOOR = 1e-12
_HERMITIAN_IMAG_TOL = 1e-9

_SYMBOLS = [LadderPolynomial.annihilator(m) for m in (1, 2, 3)]
_SYMBOLS += [LadderPolynomial.creator(m) for m in (1, 2, 3)]


class UndefinedMomentError(ValueError):
    """Raised when a moment ratio has a vanishing denominator."""


@dataclass(frozen=True)
class QuadratureSelector:
    """Weights (1, c1, c2) of the collective quadrature pair.

    c1 and c2 take the values 0 or 1, selecting single-mode (0,0), two-mode
    (1,0) or three-mode (1,1) quadratures.  The commutator normalizer is
    C = (1 + c1^2 + c2^2)/2.
    """

    c1: int
    c2: int

    def __post_init__(self):
        if self.c1 not in (0, 1) or self.c2 not in (0, 1):
            raise ValueError("c1 and c2 must each be 0 or 1")

    @property
    def normalizer(self):
        return (1.0 + self.c1 ** 2 + self.c2 ** 2) / 2.0

    @property
    def weights(self):
        return (1.0, float(self.c1), float(self.c2))


def _first(values, bad):
    """The first entry of ``values`` where ``bad`` holds, as a float."""
    return float(np.asarray(values).reshape(-1)[np.argmax(np.reshape(bad, -1))])


def _real(value, what):
    """Real part of a Hermitian expectation (or a stack of them), guarding the imaginary part."""
    value = np.asarray(value, dtype=complex)
    bad = np.abs(value.imag) > _HERMITIAN_IMAG_TOL * np.maximum(1.0, np.abs(value.real))
    if bad.any():
        raise ArithmeticError(f"{what} acquired an imaginary part {_first(value.imag, bad)!r}")
    return value.real[()]


@functools.lru_cache(maxsize=1)
def _state_tensors(state: InputState):
    """{1: m1, 2: m2, 4: m4}, read-only, for one input state.

    The state is a product state, so each entry is the product over modes of
    the expectation of that mode's sub-word; the at most 30 distinct sub-words
    of each mode are normally ordered once.
    """
    sub_words = {}

    def moment(word):
        value = 1.0
        for mode in range(3):
            key = tuple(i for i in word if i % 3 == mode)
            if key not in sub_words:
                sub_words[key] = expectation(normal_order(*(_SYMBOLS[i] for i in key)), state)
            value *= sub_words[key]
        return value

    tensors = {}
    for order in (1, 2, 4):
        words = itertools.product(range(6), repeat=order)
        tensor = np.array([moment(w) for w in words], dtype=complex).reshape((6,) * order)
        tensor.setflags(write=False)
        tensors[order] = tensor
    return tensors


def _pairs(a, b):
    """Rows of a (x) b: (..., 36) from two (..., 6) row stacks."""
    return (a[..., :, None] * b[..., None, :]).reshape(a.shape[:-1] + (36,))


def _contract(state, *rows):
    """<(w_1.A) ... (w_n.A)> of the state for n = 1, 2 or 4 row stacks w, each (..., 6).

    Order 4 is taken as (w_1 (x) w_2) . m4[36x36] . (w_3 (x) w_4), so the
    transients stay (..., 36).
    """
    tensor = _state_tensors(state)[len(rows)]
    if len(rows) == 1:
        return rows[0] @ tensor
    if len(rows) == 2:
        left, right = rows
    else:
        left, right = _pairs(rows[0], rows[1]), _pairs(rows[2], rows[3])
        tensor = tensor.reshape(36, 36)
    return ((left @ tensor) * right).sum(axis=-1)


def _rows(coeffs: BogoliubovCoeffs, mode):
    """(U, V) of one output mode: S+ a_mode S = U.A and its adjoint is V.A."""
    j = _mode_index(mode)
    c, d = coeffs.c[..., j, :], coeffs.d[..., j, :]
    return np.concatenate((c, d), axis=-1), np.concatenate((d, c), axis=-1)


def quadrature_variances(coeffs, sel, state):
    """(<dX^2>, <dY^2>) of the squeezed output state."""
    xrow = yrow = 0.0
    for mode, weight in zip((1, 2, 3), sel.weights):
        u, v = _rows(coeffs, mode)
        xrow = xrow + (0.5 * weight) * (u + v)
        yrow = yrow + (-0.5j * weight) * (u - v)
    out = []
    for row, name in ((xrow, "<X>"), (yrow, "<Y>")):
        mean = _real(_contract(state, row), name)
        square = _real(_contract(state, row, row), name + "^2")
        out.append(square - mean * mean)
    return tuple(out)


def squeezing(coeffs: BogoliubovCoeffs, sel: QuadratureSelector, state: InputState):
    """(S_x, S_y) with S = (2<dQ^2> - C)/C; negative values mean squeezing."""
    var_x, var_y = quadrature_variances(coeffs, sel, state)
    c = sel.normalizer
    return ((2.0 * var_x - c) / c, (2.0 * var_y - c) / c)


def mean_photon(coeffs, state, mode):
    """<a+ a> of one output mode."""
    u, v = _rows(coeffs, mode)
    return _real(_contract(state, v, u), "<n>")


def intensity_correlation(coeffs, state, mode):
    """<a+^2 a^2> of one output mode."""
    u, v = _rows(coeffs, mode)
    return _real(_contract(state, v, v, u, u), "<a+2 a2>")


def cross_correlation(coeffs, state, j, k):
    """<n_j n_k> between two distinct output modes."""
    if j == k:
        raise ValueError("cross correlation needs two distinct modes")
    uj, vj = _rows(coeffs, j)
    uk, vk = _rows(coeffs, k)
    return _real(_contract(state, vj, uj, vk, uk), "<n_j n_k>")


def g2_ratio(intensity, mean, mode):
    """<a+2 a2>/<a+ a>^2 - 1 from the two moments of one output mode (or stacks of them)."""
    low = np.asarray(mean) <= MEAN_PHOTON_FLOOR
    if low.any():
        raise UndefinedMomentError(
            f"g2 of mode {mode} is undefined: mean photon number {_first(mean, low)!r} below "
            f"{MEAN_PHOTON_FLOOR}"
        )
    return np.asarray(intensity) / np.asarray(mean) ** 2 - 1.0


def cauchy_schwarz_ratio(intensity_j, intensity_k, cross, j, k):
    """sqrt(<a_j+2 a_j2><a_k+2 a_k2>)/<n_j n_k> - 1 from the three moments (or stacks)."""
    low = np.asarray(cross) <= MEAN_PHOTON_FLOOR
    if low.any():
        raise UndefinedMomentError(
            f"V_{j}{k} is undefined: <n_{j} n_{k}> = {_first(cross, low)!r} below "
            f"{MEAN_PHOTON_FLOOR}"
        )
    product = np.asarray(intensity_j) * np.asarray(intensity_k)
    return np.sqrt(np.maximum(product, 0.0)) / cross - 1.0


def g2(coeffs: BogoliubovCoeffs, state: InputState, mode: int):
    """Second-order correlation <a+2 a2>/<a+ a>^2 - 1; negative is sub-Poissonian."""
    mean = mean_photon(coeffs, state, mode)
    return g2_ratio(intensity_correlation(coeffs, state, mode), mean, mode)


def cauchy_schwarz(coeffs: BogoliubovCoeffs, state: InputState, j: int, k: int):
    """Cauchy-Schwarz ratio V_jk; positive values are classically forbidden."""
    if j == k:
        raise ValueError("Cauchy-Schwarz ratio needs two distinct modes")
    cross = cross_correlation(coeffs, state, j, k)
    intensity = [intensity_correlation(coeffs, state, m) for m in (j, k)]
    return cauchy_schwarz_ratio(*intensity, cross, j, k)
