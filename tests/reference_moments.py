"""Test-side references for the moment engine.

The scalar path pushes each transformed mode through ``ladder`` as its own
``LadderPolynomial`` and normally orders every product from scratch, one
quantity at a time.  It shares no contraction with ``trisqueeze.moments``
and is the reference the per-state tensor engine is checked against.

The printed equal-coupling closed forms (``symmetric_coeffs_closed``,
``squeezing_symmetric_closed``, ``a1_moments_closed``) and the sub-Poissonian
certificate of the (0, n, n) input live here as well: only tests use them.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np

from trisqueeze.ladder import InputState, LadderPolynomial, NumberState, expectation, normal_order
from trisqueeze.moments import (
    MEAN_PHOTON_FLOOR,
    UndefinedMomentError,
    intensity_correlation,
    mean_photon,
)
from trisqueeze.symplectic import _validated_strength

_FACTOR_SCALE = 2 ** 128

def _real(value):
    value = complex(value)
    assert abs(value.imag) <= 1e-9 * max(1.0, abs(value.real)), value
    return value.real


def transformed_mode(coeffs, mode):
    """Degree-1 polynomial S+ a_mode S in the input-mode ladder symbols."""
    f1, f2, g1, g2, h1, h2 = coeffs.mode_row(mode)
    return (
        f1 * LadderPolynomial.annihilator(1)
        + f2 * LadderPolynomial.creator(1)
        + g1 * LadderPolynomial.annihilator(2)
        + g2 * LadderPolynomial.creator(2)
        + h1 * LadderPolynomial.annihilator(3)
        + h2 * LadderPolynomial.creator(3)
    )


def quadrature_polynomials(coeffs, sel):
    """Output-state quadratures X, Y as polynomials over the input modes."""
    xpoly = LadderPolynomial()
    ypoly = LadderPolynomial()
    for mode, weight in zip((1, 2, 3), sel.weights):
        if weight == 0.0:
            continue
        amode = transformed_mode(coeffs, mode)
        adag = amode.dagger()
        xpoly = xpoly + (0.5 * weight) * (amode + adag)
        ypoly = ypoly + (-0.5j * weight) * (amode - adag)
    return xpoly, ypoly


def quadrature_variances(coeffs, sel, state):
    """(<dX^2>, <dY^2>) of the squeezed output state."""
    out = []
    for poly in quadrature_polynomials(coeffs, sel):
        mean = _real(expectation(poly, state))
        square = _real(expectation(normal_order(poly, poly), state))
        out.append(square - mean * mean)
    return tuple(out)


def squeezing(coeffs, sel, state):
    """(S_x, S_y) with S = (2<dQ^2> - C)/C."""
    var_x, var_y = quadrature_variances(coeffs, sel, state)
    c = sel.normalizer
    return ((2.0 * var_x - c) / c, (2.0 * var_y - c) / c)


def _mode_polys(coeffs, mode):
    amode = transformed_mode(coeffs, mode)
    return amode, amode.dagger()


def _mp_mode_moment(mode_state, p, q):
    """<a+^p a^q> of one mode in mpmath: exact for a number mode, unrounded for a coherent one."""
    if isinstance(mode_state, NumberState):
        return math.perm(mode_state.n, p) if p == q else 0
    alpha = mpmath.mpc(mode_state.alpha)
    return mpmath.conj(alpha) ** p * alpha ** q


def _to_float(value):
    """The double nearest an mpf, subnormals included (Fraction division rounds once)."""
    man, exp = value.man_exp  # man is the unsigned mantissa
    magnitude = float(Fraction(man) * Fraction(2) ** exp)
    return -magnitude if value < 0 else magnitude


def _normal_moment(state, *factors):
    """Real <factor_1 ... factor_n>, rounded to a double once.

    Each factor is multiplied by 2**128 before ``normal_order``, so products of
    tiny couplings keep full precision, and the normally ordered terms are
    summed against the state in 40-digit mpmath, so a coherent amplitude's
    |alpha|^2 is not stored as a rounded subnormal either.  The sum is scaled
    back and rounded to the nearest double, subnormal or not.
    """
    poly = normal_order(*(_FACTOR_SCALE * factor for factor in factors))
    with mpmath.workdps(40):
        total = mpmath.mpc(0)
        for key, coeff in poly.terms().items():
            term = mpmath.mpc(coeff)
            for m in range(3):
                term *= _mp_mode_moment(state.modes[m], key[m], key[3 + m])
            total += term
        total /= mpmath.mpf(_FACTOR_SCALE) ** len(factors)
        return _real(complex(_to_float(total.real), _to_float(total.imag)))


def ref_mean_photon(coeffs, state, mode):
    """<a+ a> of one output mode."""
    amode, adag = _mode_polys(coeffs, mode)
    return _normal_moment(state, adag, amode)


def ref_intensity_correlation(coeffs, state, mode):
    """<a+^2 a^2> of one output mode."""
    amode, adag = _mode_polys(coeffs, mode)
    return _normal_moment(state, adag, adag, amode, amode)


def ref_cross_correlation(coeffs, state, j, k):
    """<n_j n_k> between two distinct output modes."""
    aj, ajd = _mode_polys(coeffs, j)
    ak, akd = _mode_polys(coeffs, k)
    return _normal_moment(state, ajd, aj, akd, ak)


def ref_g2(coeffs, state, mode):
    """<a+2 a2>/<a+ a>^2 - 1."""
    mean = ref_mean_photon(coeffs, state, mode)
    if mean <= MEAN_PHOTON_FLOOR:
        raise UndefinedMomentError(f"g2 of mode {mode} undefined at mean {mean!r}")
    return ref_intensity_correlation(coeffs, state, mode) / mean ** 2 - 1.0


def ref_cauchy_schwarz(coeffs, state, j, k):
    """sqrt(<a_j+2 a_j2><a_k+2 a_k2>)/<n_j n_k> - 1."""
    denom = ref_cross_correlation(coeffs, state, j, k)
    if denom <= MEAN_PHOTON_FLOOR:
        raise UndefinedMomentError(f"V_{j}{k} undefined at <n_j n_k> = {denom!r}")
    numer = ref_intensity_correlation(coeffs, state, j) * ref_intensity_correlation(
        coeffs, state, k
    )
    return math.sqrt(max(numer, 0.0)) / denom - 1.0


def symmetric_coeffs_closed(r):
    """Equal-coupling coefficient tables (c, d) from the printed closed forms.

    The four independent entries are
        f1(1) = [2 cosh r + cosh 2r]/3,   f2(1) = [2 sinh r - sinh 2r]/3,
        g1(1) = [-cosh r + cosh 2r]/3,    g2(1) = -[sinh r + sinh 2r]/3,
    and the remaining fourteen follow from the permutation symmetry of the
    equal-coupling generator (all diagonal entries equal f1(1), all
    off-diagonal entries equal g1(1), likewise for the creation table).
    """
    r = _validated_strength("r", r)
    diag_c = (2.0 * math.cosh(r) + math.cosh(2.0 * r)) / 3.0
    off_c = (-math.cosh(r) + math.cosh(2.0 * r)) / 3.0
    diag_d = (2.0 * math.sinh(r) - math.sinh(2.0 * r)) / 3.0
    off_d = -(math.sinh(r) + math.sinh(2.0 * r)) / 3.0
    c = np.full((3, 3), off_c) + (diag_c - off_c) * np.eye(3)
    d = np.full((3, 3), off_d) + (diag_d - off_d) * np.eye(3)
    return c, d


def squeezing_symmetric_closed(r, sel):
    """Equal-coupling vacuum squeezing from the printed exponential formulas.

    S_x = [(1+c1^2+c2^2)(2 e^{2r} + e^{-4r} - 3)
           + 2(c1+c2+c1 c2)(e^{-4r} - e^{2r})] / [3 (1+c1^2+c2^2)]
    and S_y is the same expression with r -> -r.
    """
    c1, c2 = sel.c1, sel.c2
    norm = 1.0 + c1 ** 2 + c2 ** 2
    cross = c1 + c2 + c1 * c2

    def branch(r):
        return (
            norm * (2.0 * math.exp(2.0 * r) + math.exp(-4.0 * r) - 3.0)
            + 2.0 * cross * (math.exp(-4.0 * r) - math.exp(2.0 * r))
        ) / (3.0 * norm)

    return (branch(r), branch(-r))


def a1_moments_closed(coeffs, ns):
    """(<a1+ a1>, <a1+2 a1^2>) for number-state input, from the printed formulas."""
    n1, n2, n3 = (int(n) for n in ns)
    if min(n1, n2, n3) < 0:
        raise ValueError("occupations must be nonnegative")
    f1, f2, g1, g2_, h1, h2 = coeffs.mode_row(1)

    mean = (
        n1 * f1 ** 2 + (n1 + 1) * f2 ** 2
        + n2 * g1 ** 2 + (n2 + 1) * g2_ ** 2
        + n3 * h1 ** 2 + (n3 + 1) * h2 ** 2
    )

    occ_f = n1 * f1 ** 2 + (n1 + 1) * f2 ** 2
    occ_g = n2 * g1 ** 2 + (n2 + 1) * g2_ ** 2
    occ_h = n3 * h1 ** 2 + (n3 + 1) * h2 ** 2
    second = (
        n1 * (n1 - 1) * f1 ** 4 + (n1 + 1) * (n1 + 2) * f2 ** 4
        + (2 * n1 + 1) ** 2 * f1 ** 2 * f2 ** 2
        + n2 * (n2 - 1) * g1 ** 4 + (n2 + 1) * (n2 + 2) * g2_ ** 4
        + (2 * n2 + 1) ** 2 * g1 ** 2 * g2_ ** 2
        + n3 * (n3 - 1) * h1 ** 4 + (n3 + 1) * (n3 + 2) * h2 ** 4
        + (2 * n3 + 1) ** 2 * h1 ** 2 * h2 ** 2
        + (2 * n1 + 1) * f1 * f2
        * (2.0 * (2 * n2 + 1) * g1 * g2_ + (2 * n3 + 1) * h1 * h2)
        + (2 * n3 + 1) * h1 * h2
        * (2.0 * (2 * n2 + 1) * g1 * g2_ + (2 * n1 + 1) * f1 * f2)
        + 4.0 * occ_f * (occ_g + occ_h)
        + 4.0 * occ_g * occ_h
    )
    return (mean, second)


def subpoisson_certificate(coeffs, n):
    """<a1+2 a1^2> - <a1+ a1>^2 for the input (0, n, n); provably nonnegative."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    state = InputState.number(0, n, n)
    mean = mean_photon(coeffs, state, 1)
    second = intensity_correlation(coeffs, state, 1)
    return second - mean * mean
