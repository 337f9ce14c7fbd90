"""Operator-moment diagnostics of the three-mode squeezed states.

Writing A = (a1, a2, a3, a1+, a2+, a3+), output mode j is S+ a_j S = U_j.A
with U_j = [c_j | d_j], and its adjoint is V_j.A with V_j = [d_j | c_j].
Every photon-number moment is then one contraction with a tensor of the input
state:

    <n_j> = m2[V_j, U_j],   <a_j+2 a_j2> = m4[V_j, V_j, U_j, U_j],
    <n_j n_k> = m4[V_j, U_j, V_k, U_k],

with m2[i,j] = <A_i A_j> and m4[i,j,k,l] = <A_i A_j A_k A_l> built per state
by the exact normal-ordering engine (``ladder``), each order on demand; a
number mode skips its unbalanced sub-words, whose expectation is exactly zero,
and a word's product stops at its first zero factor, so the later modes'
sub-words of a vanishing word are neither built nor looked up (1,206 of a
number state's 1,296 m4 words vanish).
Squeezing reads no tensor: <dX^2> = sum_k sigma_k (exp(-R) w)_k^2 over the
input quadrature variances sigma_k, and <dY^2> likewise with exp(+R).

Every function takes a ``BogoliubovCoeffs`` of one coupling triple or of a
stack of P triples; with a stack, the rows U_j, V_j are (P, 6) stacks and
each moment is one contraction over all P rows, returning a (P,) array.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .ladder import (
    ALPHA_MAX,
    CoherentState,
    InputState,
    LadderPolynomial,
    NumberState,
    _mode_index,
    expectation,
    normal_order,
)
from .symplectic import BogoliubovCoeffs

MEAN_PHOTON_FLOOR = 1e-12
_HERMITIAN_IMAG_TOL = 1e-9
# Powers of two that round a subnormal moment once (see _contract); with |c| <=
# 8.1e7 at R_MAX an order-4 sum stays below 1e270 times the largest m4 entry.
_SCALE = 2.0 ** 256
_SYMBOL_SCALE = 2.0 ** 64

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
def _sub_words(state: InputState):
    """Memo {sub-word: scaled expectation} of one input state, shared by its tensor orders."""
    return {}


def _sub_word(state, mode, key):
    """_SYMBOL_SCALE**len(key) times <sub-word> of one mode of the state.

    A number mode's sub-word with unequal creator and annihilator counts is
    exactly 0j, since <n|a+^p a^q|n> = 0 for p != q, and is not normally ordered.
    A coherent amplitude that passes the amplitude guard times _SYMBOL_SCALE
    enters scaled, each term times the scale of its contracted pairs, so a tiny
    |alpha|^2 is not rounded as a subnormal.
    """
    mode_state = state.modes[mode]
    if isinstance(mode_state, NumberState) and 2 * sum(i < 3 for i in key) != len(key):
        return 0j
    poly = normal_order(*(_SYMBOLS[i] for i in key))
    if isinstance(mode_state, NumberState) or abs(mode_state.alpha) * _SYMBOL_SCALE > ALPHA_MAX:
        return _SYMBOL_SCALE ** len(key) * expectation(poly, state)
    modes = list(state.modes)
    modes[mode] = CoherentState(_SYMBOL_SCALE * mode_state.alpha)
    terms = {k: c * _SYMBOL_SCALE ** (len(key) - sum(k)) for k, c in poly.terms().items()}
    return expectation(LadderPolynomial(terms), InputState(tuple(modes)))


@functools.lru_cache(maxsize=2)
def _state_tensor(state: InputState, order: int):
    """m_order of one input state (order 2 or 4) times _SYMBOL_SCALE**order, read-only.

    Each order is built on first request.  The state is a product state, so
    each entry is the product over modes of the expectation of that mode's
    sub-word, stopped at its first zero factor.  The orders share one memo, so
    each of the at most 30 distinct sub-words of a mode is normally ordered
    once per state, and an entry does not depend on which order came first.
    """
    memo = _sub_words(state)

    def moment(word):
        value = 1.0
        for mode in range(3):
            key = tuple(i for i in word if i % 3 == mode)
            if key not in memo:
                memo[key] = _sub_word(state, mode, key)
            value *= memo[key]
            if not value:
                break
        return value

    words = itertools.product(range(6), repeat=order)
    tensor = np.array([moment(w) for w in words], dtype=complex).reshape((6,) * order)
    tensor.setflags(write=False)
    return tensor


def _pairs(a, b):
    """Rows of a (x) b: (..., 36) from two (..., 6) row stacks."""
    return (a[..., :, None] * b[..., None, :]).reshape(a.shape[:-1] + (36,))


def _contract(state, *rows):
    """<(w_1.A) ... (w_n.A)> of the state for n = 2 or 4 row stacks w, each (..., 6).

    Order 4 is taken as (w_1 (x) w_2) . m4[36x36] . (w_3 (x) w_4), so the
    transients stay (..., 36).

    w_1 (and w_3 at order 4) enter times _SCALE and the tensor carries
    _SYMBOL_SCALE per symbol.  Powers of two are exact, so a result in the
    normal range keeps its bits, while products of tiny couplings or amplitudes
    stay above the smallest normal float and a subnormal result rounds once.
    """
    tensor = _state_tensor(state, len(rows))
    left, right = _SCALE * rows[0], rows[1]
    if len(rows) == 4:
        left, right = _pairs(left, right), _pairs(_SCALE * rows[2], rows[3])
        tensor = tensor.reshape(36, 36)
    unscale = _SCALE ** (len(rows) // 2) * _SYMBOL_SCALE ** len(rows)
    return ((left @ tensor) * right).sum(axis=-1) / unscale


def _rows(coeffs: BogoliubovCoeffs, mode):
    """(U, V) of one output mode: S+ a_mode S = U.A and its adjoint is V.A."""
    j = _mode_index(mode)
    c, d = coeffs.c[..., j, :], coeffs.d[..., j, :]
    return np.concatenate((c, d), axis=-1), np.concatenate((d, c), axis=-1)


def quadrature_variances(coeffs, sel, state):
    """(<dX^2>, <dY^2>) from the input variances (2n + 1)/4 per number mode, 1/4 per coherent one.

    The weights w are projected on the eigenvectors first, so exp(-+R) w holds
    no cancelling exp(+-r)-sized entries and each variance sums positive terms.
    """
    sigma = np.array([2 * m.n + 1 if isinstance(m, NumberState) else 1 for m in state.modes]) / 4
    vecs, projected = coeffs.eigvecs, np.asarray(sel.weights) @ coeffs.eigvecs
    rows = [vecs @ (np.exp(sign * coeffs.eigvals) * projected)[..., None] for sign in (-1.0, 1.0)]
    return tuple((sigma * row[..., 0] ** 2).sum(axis=-1) for row in rows)


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
    """Cauchy-Schwarz ratio V_jk; negative values are classically forbidden."""
    if j == k:
        raise ValueError("Cauchy-Schwarz ratio needs two distinct modes")
    cross = cross_correlation(coeffs, state, j, k)
    intensity = [intensity_correlation(coeffs, state, m) for m in (j, k)]
    return cauchy_schwarz_ratio(*intensity, cross, j, k)
