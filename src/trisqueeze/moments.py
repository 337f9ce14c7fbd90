"""Operator-moment diagnostics of the three-mode squeezed states.

Writing A = (a1, a2, a3, a1+, a2+, a3+), output mode j is S+ a_j S = U_j.A
with U_j = [c_j | d_j], and its adjoint is V_j.A with V_j = [d_j | c_j].
Every fourth moment is then one contraction with the one tensor of the input
state, <a_j+2 a_j2> = m4[V_j, V_j, U_j, U_j] and <n_j n_k> = m4[V_j, U_j, V_k, U_k],
with m4[i,j,k,l] = <A_i A_j A_k A_l> built once per state by the exact
normal-ordering engine (``ladder``).  Only the words whose sub-word on each
number mode is balanced (as many creators as annihilators) are visited, since
<n|a+^p a^q|n> = 0 for p != q: a number state computes 90 of the 1,296 m4
words and leaves the other 1,206 at exact zero, a coherent state all 1,296.
A visited word's product stops at its first zero factor.
Second moments read the input occupations n_k and amplitudes alpha_k (a
coherent mode is n_k = 0 displaced by alpha_k): <n_j> = sum_k c_jk^2 n_k +
d_jk^2 (n_k + 1) + |mu_j|^2 with the output displacement mu_j = sum_k c_jk
alpha_k + d_jk conj(alpha_k), and <dX^2> = sum_k sigma_k (exp(-R) w)_k^2 over
the input quadrature variances sigma_k = (2 n_k + 1)/4, <dY^2> likewise with
exp(+R).

Every function takes a ``BogoliubovCoeffs`` of one coupling triple or of a
stack of P triples; with a stack, the rows U_j, V_j are (P, 6) stacks and
each moment is one contraction over all P rows, returning a (P,) array.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ladder import InputState, LadderPolynomial, NumberState, _mode_index, normal_order
from .symplectic import BogoliubovCoeffs

MEAN_PHOTON_FLOOR = 1e-12
_HERMITIAN_IMAG_TOL = 1e-9
# Powers of two that round a subnormal moment once (see _contract and
# mean_photon); with |c| <= 8.1e7 at R_MAX an order-4 sum stays below 1e270
# times the largest m4 entry.
_SCALE = 2.0 ** 256
_SYMBOL_SCALE = 2.0 ** 64

_SYMBOLS = [LadderPolynomial.annihilator(m) for m in (1, 2, 3)]
_SYMBOLS += [LadderPolynomial.creator(m) for m in (1, 2, 3)]

# The 1,296 words of m4 in row-major order, and _BALANCED[k, w]: word w holds
# as many creators (symbol k + 3) as annihilators (symbol k) of mode k.
_WORDS = list(itertools.product(range(6), repeat=4))
_COUNTS = (np.array(_WORDS)[..., None] == np.arange(6)).sum(axis=1)
_BALANCED = (_COUNTS[:, :3] == _COUNTS[:, 3:]).T


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


def _sub_word(mode_state, key):
    """_SYMBOL_SCALE**len(key) times <sub-word> in the state of its one mode.

    A number mode's sub-word is balanced (``_state_tensor`` visits no other),
    so it orders into balanced terms a+^p a^p alone, each worth n!/(n-p)!.
    Each term a+^p a^q enters times the scale of its contracted pairs,
    _SYMBOL_SCALE**(len - p - q), and a coherent amplitude enters times
    _SYMBOL_SCALE, so a tiny |alpha|^2 is not rounded as a subnormal.
    """
    number = isinstance(mode_state, NumberState)
    alpha = 0j if number else _SYMBOL_SCALE * mode_state.alpha
    total = 0j
    for powers, coeff in normal_order(*(_SYMBOLS[i] for i in key)).terms().items():
        p, q = sum(powers[:3]), sum(powers[3:])
        moment = (_SYMBOL_SCALE ** (2 * p) * math.perm(mode_state.n, p) if number
                  else alpha.conjugate() ** p * alpha ** q)
        total += coeff * _SYMBOL_SCALE ** (len(key) - p - q) * moment
    return total


@functools.lru_cache(maxsize=1)
def _state_tensor(state: InputState):
    """m4 of one input state times _SYMBOL_SCALE**4, as a read-only 36x36 array.

    The state is a product state, so each entry is the product over modes of
    the expectation of that mode's sub-word, stopped at its first zero factor.
    Only the words balanced on every number mode are visited (90 for a number
    state, all 1,296 for a coherent one); the rest stay exact zeros.  Each of
    the at most 30 distinct sub-words of a mode is normally ordered once per
    build.
    """
    memo = {}

    def moment(word):
        value = 1.0
        for mode, mode_state in enumerate(state.modes):
            key = tuple(i for i in word if i % 3 == mode)
            if key not in memo:
                memo[key] = _sub_word(mode_state, key)
            value *= memo[key]
            if not value:
                break
        return value

    numbers = [isinstance(mode_state, NumberState) for mode_state in state.modes]
    visited = np.flatnonzero(_BALANCED[numbers].all(axis=0))
    tensor = np.zeros((36, 36), dtype=complex)
    tensor.flat[visited] = [moment(_WORDS[w]) for w in visited]
    tensor.setflags(write=False)
    return tensor


def _pairs(a, b):
    """Rows of a (x) b: (..., 36) from two (..., 6) row stacks."""
    return (a[..., :, None] * b[..., None, :]).reshape(a.shape[:-1] + (36,))


def _contract(state, w1, w2, w3, w4):
    """<(w1.A)(w2.A)(w3.A)(w4.A)> of the state for four row stacks w, each (..., 6).

    Taken as (w1 (x) w2) . m4[36x36] . (w3 (x) w4), so the transients stay
    (..., 36).  w1 and w3 enter times _SCALE and the tensor carries
    _SYMBOL_SCALE per symbol.  Powers of two are exact, so a result in the
    normal range keeps its bits, while products of tiny couplings or amplitudes
    stay above the smallest normal float and a subnormal result rounds once.
    """
    left, right = _pairs(_SCALE * w1, w2), _pairs(_SCALE * w3, w4)
    return ((left @ _state_tensor(state)) * right).sum(axis=-1) / (_SCALE ** 2 * _SYMBOL_SCALE ** 4)


def _rows(coeffs: BogoliubovCoeffs, mode):
    """(U, V) of one output mode: S+ a_mode S = U.A and its adjoint is V.A."""
    j = _mode_index(mode)
    c, d = coeffs.c[..., j, :], coeffs.d[..., j, :]
    return np.concatenate((c, d), axis=-1), np.concatenate((d, c), axis=-1)


def _input_moments(state):
    """(n_k, alpha_k) per input mode: a number mode has alpha_k = 0, a coherent one n_k = 0."""
    n = np.array([getattr(m, "n", 0) for m in state.modes], dtype=float)
    return n, np.array([getattr(m, "alpha", 0) for m in state.modes], dtype=complex)


def quadrature_variances(coeffs, sel, state):
    """(<dX^2>, <dY^2>) from the input quadrature variances sigma_k = (2 n_k + 1)/4.

    The rows exp(-+R) w come from the eigenpairs, so each variance sums
    positive terms that carry their own relative digits.
    """
    sigma = (2 * _input_moments(state)[0] + 1) / 4
    return tuple((sigma * row ** 2).sum(axis=-1) for row in coeffs.quadrature_rows(sel.weights))


def squeezing(coeffs: BogoliubovCoeffs, sel: QuadratureSelector, state: InputState):
    """(S_x, S_y) with S = (2<dQ^2> - C)/C; negative values mean squeezing."""
    var_x, var_y = quadrature_variances(coeffs, sel, state)
    c = sel.normalizer
    return ((2.0 * var_x - c) / c, (2.0 * var_y - c) / c)


def mean_photon(coeffs, state, mode):
    """<a+ a> of one output mode from the input occupations and displacement.

    The rows c, d enter times _SCALE and the sum is divided once, so a subnormal
    result rounds once.
    """
    c, d = (_SCALE * table[..., _mode_index(mode), :] for table in (coeffs.c, coeffs.d))
    n, alpha = _input_moments(state)
    mu = c @ alpha + d @ alpha.conj()
    return ((c ** 2 * n + d ** 2 * (n + 1)).sum(axis=-1) + mu.real ** 2 + mu.imag ** 2) / _SCALE ** 2


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
    cross = cross_correlation(coeffs, state, j, k)
    intensity = [intensity_correlation(coeffs, state, m) for m in (j, k)]
    return cauchy_schwarz_ratio(*intensity, cross, j, k)
