"""s-parameterized quasiprobability functions of the first output mode.

The characteristic function of mode 1 after the three-mode squeeze is a
Gaussian times a product of Laguerre polynomials in the transformed variables
v1 = zeta*f1 - conj(zeta)*f2 (and g, h analogues).  Writing zeta = u + i*v,

    |C(zeta, s)| = exp(-u^2*tm - v^2*tp) * prod_j L_{n_j}(u^2*Am_j + v^2*Ap_j),

with tp/tm the s-shifted quadrature widths and A+- the squared eigenpair
quadrature rows exp(-+R) e1 (``BogoliubovCoeffs.quadrature_rows``).  The
Fourier transform W(z, s) is evaluated two ways, both exact: a closed Laguerre
sum for a single excited slot (mode 1 or mode 3), with vacuum as its n = 0
term, and a Hermite series for every pattern with n_j <= NUMERIC_N_MAX
(``wigner_numeric``).  Both reduce to the familiar number-state distribution
when all couplings vanish, and both take a BogoliubovCoeffs stack of P
coupling triples and return a stack with a leading P axis.  Against a 60-digit
mpmath evaluation the series holds 1e-12 of max|W| for n_j <= 6, |r_j| <= 2.

One homogenized recurrence t_k = eta^k L_k^gamma(c/eta) serves both: the
series at eta = 1 (``laguerre``), the closed sum at gamma = -1/2, where t_k
stays finite for eta of any sign, so the excitation corrections eta+- may
pass through zero without harm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ladder import NumberState
from .symplectic import BogoliubovCoeffs

LAGUERRE_K_MAX = 60
EXCITED_N_MAX = 20
NUMERIC_N_MAX = 6
ORDERING_VALUES = (-1, 0, 1)

# precision of the series' Hermite projection: the x87 64-bit mantissa on x86-64
# Linux, plain double where the platform has no wider float
_EXTENDED = np.longdouble


class PFunctionSingularError(ValueError):
    """Raised when the normally ordered distribution has no function form."""


def _check_ordering(s, allowed=ORDERING_VALUES):
    if s not in allowed:
        raise ValueError(f"ordering parameter s must be one of {allowed}, got {s!r}")
    return int(s)


def laguerre(k: int, gamma: float, x):
    """Associated Laguerre polynomial L_k^gamma(x): the homogenized recurrence at eta = 1.

    Stable for the moderate degrees used here (k <= 60); the alternating
    factorial sum cancels catastrophically for large x and is kept only as a
    test-side reference.  Evaluated in double, or in long double for a long
    double x.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError("degree k must be a nonnegative integer")
    if k > LAGUERRE_K_MAX:
        raise ValueError(f"degree k = {k} exceeds the stability guard {LAGUERRE_K_MAX}")
    if gamma <= -1.0:
        raise ValueError("gamma must exceed -1")
    x = np.asarray(x)
    out = _scaled_laguerre(k, gamma, 1.0, x.astype(_EXTENDED if x.dtype == _EXTENDED else float))
    return out if out.ndim else float(out)


def _scaled_laguerre(k, gamma, eta, c):
    """t_k = eta^k L_k^gamma(c/eta) by the three-term recurrence, a polynomial in (eta, c):
    finite for eta of any sign, (-c)^k / k! at eta = 0.  The array c sets shape and precision."""
    prev = np.ones_like(c)
    if k == 0:
        return prev
    cur = (1.0 + gamma) * eta - c
    for i in range(1, k):
        prev, cur = cur, (((2.0 * i + gamma + 1.0) * eta - c) * cur - (i + gamma) * eta * eta * prev) / (i + 1.0)
    return cur


def char_fn(coeffs: BogoliubovCoeffs, ns, zeta, s: int):
    """Mode-1 characteristic function for number-state input (n1, n2, n3).

    C(zeta, s) = exp(-u^2 tm - v^2 tp) L_{n1}(|v1|^2) L_{n2}(|v2|^2) L_{n3}(|v3|^2)
    with zeta = u + iv and |v_j|^2 = u^2 Am_j + v^2 Ap_j, real-valued because the
    transform coefficients are real.  A stack of P triples gives values of shape
    (P,) + zeta.shape.
    """
    s = _check_ordering(s)
    ns = _occupations(ns)
    zeta = np.asarray(zeta, dtype=complex)
    # a scalar takes the array path too: numpy scalar arithmetic can miss the stacked row by an ulp
    point = zeta.ndim == 0
    zeta = np.atleast_1d(zeta)
    aux, a_plus, a_minus = _kernel(coeffs, s)
    u2, v2 = zeta.real ** 2, zeta.imag ** 2
    tp, tm = _against(zeta, aux.theta_plus, aux.theta_minus)
    out = np.exp(-u2 * tm - v2 * tp)
    for k, n in enumerate(ns):
        if n:
            ap, am = _against(zeta, a_plus[..., k], a_minus[..., k])
            out = out * laguerre(n, 0.0, u2 * am + v2 * ap)
    if point:
        out = out[..., 0]
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class WignerAux:
    """Gaussian-kernel parameters of the mode-1 quasidistributions.

    theta_plus / theta_minus are twice the s-shifted x/y quadrature variances;
    their product equals the kernel determinant ((lambda1 - s)/2)^2 - lambda2^2.
    eta_plus / eta_minus are the excitation corrections of the chosen slot and
    are None when no slot applies.
    """

    lambda1: float
    lambda2: float
    b: float
    kernel_det: float
    theta_plus: float
    theta_minus: float
    eta_plus: float | None
    eta_minus: float | None
    s: int
    slot: str | None


def _against(z, *params):
    """Row parameters shaped to broadcast against z: a (P,) stack becomes (P, 1, ..., 1)."""
    return [p if np.ndim(p) == 0 else np.reshape(p, np.shape(p) + (1,) * z.ndim) for p in params]


# input slot of each closed form's excited mode
_SLOTS = {"mode1": 0, "mode3": 2}


def _kernel(coeffs, s, slot=None, dtype=float):
    """(WignerAux, A+, A-): A+- are the squared mode-1 quadrature rows exp(-+R) e1, (..., 3).

    The rows are squared, and the kernel derived from them, in ``dtype``.
    """
    if slot is not None and slot not in _SLOTS:
        raise ValueError(f"slot must be 'mode1', 'mode3' or None, got {slot!r}")
    a_plus, a_minus = (np.asarray(row, dtype) ** 2 for row in coeffs.quadrature_rows((1.0, 0.0, 0.0)))
    theta_plus = 0.5 * (a_plus.sum(axis=-1) - s)
    theta_minus = 0.5 * (a_minus.sum(axis=-1) - s)
    eta_plus = eta_minus = None
    if slot is not None:
        eta_plus = a_plus[..., _SLOTS[slot]] - theta_plus
        eta_minus = a_minus[..., _SLOTS[slot]] - theta_minus
    lambda1 = theta_plus + theta_minus + s
    lambda2 = 0.5 * (theta_plus - theta_minus)
    b = 0.5 * (lambda1 - s)
    aux = WignerAux(lambda1=lambda1, lambda2=lambda2, b=b, kernel_det=b * b - lambda2 * lambda2,
                    theta_plus=theta_plus, theta_minus=theta_minus, eta_plus=eta_plus,
                    eta_minus=eta_minus, s=s, slot=slot)
    return aux, a_plus, a_minus


def wigner_aux(coeffs: BogoliubovCoeffs, s: int, slot: str | None = None) -> WignerAux:
    """Kernel parameters of one coefficient set; (P,) array fields for a stack of P triples."""
    return _kernel(coeffs, _check_ordering(s), slot)[0]


def wigner_vacuum(coeffs: BogoliubovCoeffs, z, s: int):
    """Gaussian quasidistribution of mode 1 for three-mode squeezed vacuum: the n = 0 closed form."""
    return _closed_form(coeffs, 0, "mode3", z, _check_ordering(s))


def wigner_excited(coeffs: BogoliubovCoeffs, n: int, slot: str, z, s: int):
    """Closed-form quasidistribution of mode 1 with n photons in one input slot.

    slot="mode3" is the input (0, 0, n); slot="mode1" is (n, 0, 0).  The value
    is a Gaussian times a degree-n Laguerre convolution,

        W = (-1)^n / (pi sqrt(tp tm)) exp(-x^2/tp - y^2/tm)
            * sum_m t_m(em/tm, Am y^2/tm^2) t_{n-m}(ep/tp, Ap x^2/tp^2),

    with Ap/Am the slot's squared quadrature-row entries, ep/em = A - theta the
    excitation corrections and t_k(eta, c) = eta^k L_k^{-1/2}(c/eta).  At zero
    coupling this reduces to the vacuum Gaussian for slot="mode3" and to the
    bare number-state distribution for slot="mode1".
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    if n > EXCITED_N_MAX:
        raise ValueError(f"n = {n} exceeds the closed-form guard {EXCITED_N_MAX}")
    return _closed_form(coeffs, n, slot, z, _check_ordering(s, allowed=(-1, 0)))


def _closed_form(coeffs, n, slot, z, s):
    """``wigner_excited``'s sum; refuses theta+- <= 0, which only s = 1 reaches (theta+- >= 1/2 for s <= 0)."""
    aux, a_plus, a_minus = _kernel(coeffs, s, slot)
    if np.any(np.minimum(aux.theta_plus, aux.theta_minus) <= 0.0):
        raise PFunctionSingularError(f"distribution is singular at s={s}: "
                                     f"theta = ({aux.theta_plus!r}, {aux.theta_minus!r})")
    j = _SLOTS[slot]
    z = np.asarray(z, dtype=complex)
    tp, tm, eta_plus, eta_minus, a_plus, a_minus = _against(
        z, aux.theta_plus, aux.theta_minus, aux.eta_plus, aux.eta_minus, a_plus[..., j], a_minus[..., j])
    x2, y2 = z.real ** 2, z.imag ** 2
    gauss = np.exp(-x2 / tp - y2 / tm)
    acc = np.zeros(z.shape, dtype=float)
    for m in range(n + 1):
        acc = acc + (_scaled_laguerre(m, -0.5, eta_minus / tm, a_minus * y2 / (tm * tm))
                     * _scaled_laguerre(n - m, -0.5, eta_plus / tp, a_plus * x2 / (tp * tp)))
    out = ((-1.0) ** n / (math.pi * np.sqrt(tp * tm))) * gauss * acc
    return out if out.ndim else float(out)


def wigner_origin(coeffs: BogoliubovCoeffs, n3: int, s: int):
    """Phase-space-origin value for the input (0, 0, n3); a (P,) array for a stack of P triples."""
    return wigner_excited(coeffs, n3, "mode3", 0j, s)


def fock_limit_wigner(n: int, z, s: int):
    """Quasidistribution of the bare number state |n> (zero-coupling limit)."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    if n > EXCITED_N_MAX:
        raise ValueError(f"n = {n} exceeds the guard {EXCITED_N_MAX}")
    s = _check_ordering(s, allowed=(-1, 0))
    z = np.asarray(z, dtype=complex)
    rho2 = z.real ** 2 + z.imag ** 2
    if s == -1:
        out = np.exp(-rho2) * rho2 ** n / (math.pi * math.factorial(n))
    else:
        out = (
            (2.0 * (-1.0) ** n / math.pi)
            * ((1.0 + s) ** n / (1.0 - s) ** (n + 1))
            * np.exp(-2.0 * rho2 / (1.0 - s))
            * laguerre(n, 0.0, 4.0 * rho2 / (1.0 - s ** 2))
        )
    out = np.asarray(out, dtype=float)
    return out if out.ndim else float(out)


def closed_form_slot(ns):
    """(slot, n) of the closed form of an occupation pattern, None without one.

    Vacuum is (None, 0), (n1, 0, 0) is ("mode1", n1), (0, 0, n3) is ("mode3", n3).
    """
    n1, n2, n3 = _occupations(ns)
    if n2 == 0 and n3 == 0:
        return ("mode1" if n1 else None, n1)
    if n1 == 0 and n2 == 0:
        return ("mode3", n3)
    return None


def wigner_closed(coeffs: BogoliubovCoeffs, ns, z, s: int):
    """Dispatch to a closed form when the input occupation pattern has one.

    Returns None for patterns with photons in mode 2 or in several slots.  A
    stack of P triples gives values of shape (P,) + z.shape.
    """
    pattern = closed_form_slot(ns)
    if pattern is None:
        return None
    slot, n = pattern
    if slot is None:
        return wigner_vacuum(coeffs, z, s)
    return wigner_excited(coeffs, n, slot, z, s)


def _occupations(ns):
    out = tuple(NumberState(n).n for n in ns)  # NumberState's integer rule, as Python ints
    if len(out) != 3:
        raise ValueError(f"occupations must be three nonnegative integers, got {ns!r}")
    return out


def _hermite(m_max, t):
    """(..., m_max + 1) orthonormal Hermite polynomials h_m(t) (weight exp(-t^2)), by recurrence,
    in the precision of the float array t."""
    real = t.dtype.type
    two = real(2.0)
    out = [np.full_like(t, np.arccos(real(-1.0)) ** real(-0.25))]
    out.append(np.sqrt(two) * t * out[0])
    for m in range(1, m_max):
        out.append(np.sqrt(two / (m + 1)) * t * out[-1] - np.sqrt(real(m) / (m + 1)) * out[-2])
    return np.stack(out[:m_max + 1], axis=-1)


@functools.cache
def _hermite_projector(degree):
    """Read-only long double (w, G): w = t_q^2/2 at the (2 degree + 1) Gauss-Hermite nodes t_q
    and G[q, k] = weight_q h_2k(t_q), so sum_q p(w_q) G[q, k] is the exact h_2k(t)
    coefficient of any polynomial p of ``degree`` in w.

    numpy's double nodes are polished by Newton steps on h_count (h_count' =
    sqrt(2 count) h_(count-1)), and the weights are the Christoffel numbers
    1 / sum_(m < count) h_m(t_q)^2, so the quadrature is exact to long double.
    """
    count = 2 * degree + 1
    nodes = np.polynomial.hermite.hermgauss(count)[0].astype(_EXTENDED)
    for _ in range(2):
        h = _hermite(count, nodes)
        nodes = nodes - h[:, count] / (np.sqrt(_EXTENDED(2 * count)) * h[:, count - 1])
    h = _hermite(count, nodes)
    weights = 1.0 / np.sum(h[:, :count] ** 2, axis=1)
    w = nodes * nodes / 2.0
    projector = weights[:, None] * h[:, 0:count:2]
    w.flags.writeable = projector.flags.writeable = False
    return w, projector


def _fourier_factors(axis, theta, degree):
    """(P, n, degree + 1) stack (-1)^k h_2k(om) exp(-om^2/2) with om = axis sqrt(2/theta)."""
    om = axis * np.sqrt(2.0 / theta)
    signs = (-1.0) ** np.arange(degree + 1)
    return _hermite(2 * degree, om)[..., 0::2] * (np.exp(-om * om / 2.0)[..., None] * signs)


def wigner_numeric(coeffs: BogoliubovCoeffs, ns, xs, ys, s: int):
    """W(xs[i] + 1j*ys[j], s) of a number-state input by the exact Hermite series.

    With zeta = u + iv, t = sqrt(2 tm) u and t' = sqrt(2 tp) v, the characteristic
    function is exp(-t^2/2 - t'^2/2) prod_j L_{n_j}((Am_j/tm) t^2/2 + (Ap_j/tp) t'^2/2).
    Tensor Gauss-Hermite quadrature expands the Laguerre product exactly as
    sum_kl M[k, l] h_2k(t) h_2l(t') in orthonormal Hermite polynomials, and the
    Hermite functions phi_m = h_m exp(-t^2/2) are the Fourier transform's
    eigenfunctions (eigenvalue i^m), so one (nx, K).(K, K).(K, ny) product gives

        W(x + iy) = sum_kl M[k, l] (-1)^(k+l) phi_2k(y sqrt(2/tm)) phi_2l(x sqrt(2/tp))
                    / (pi sqrt(tp tm)).

    The phi_m are bounded and orthonormal, so the sum does not cancel.  M is
    projected in long double and rounded to double once: in double, the
    quadrature leaves 1e-16 of noise in coefficients that vanish, such as the
    high orders of a weak coupling, and the phi_m of a wide grid return that
    noise as 1e-16 of absolute error where W itself may be 1e-4 of its peak.
    xs and ys are non-empty 1-d axes; one point each gives a single
    phase-space value.  Returns (nx, ny) values, or (P, nx, ny) for a stack of
    P triples.
    """
    s = _check_ordering(s, allowed=(-1, 0))
    ns = _occupations(ns)
    if max(ns) > NUMERIC_N_MAX:
        raise ValueError(f"occupations above {NUMERIC_N_MAX} are not supported numerically")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or ys.ndim != 1 or xs.size == 0 or ys.size == 0:
        raise ValueError("xs and ys must be non-empty 1-d arrays")
    aux, a_plus, a_minus = _kernel(coeffs, s, dtype=_EXTENDED)
    theta_plus = np.reshape(aux.theta_plus, (-1, 1, 1))
    theta_minus = np.reshape(aux.theta_minus, (-1, 1, 1))
    degree = sum(ns)
    w, projector = _hermite_projector(degree)
    char = np.ones((theta_plus.shape[0], w.size, w.size), dtype=_EXTENDED)
    for k, n in enumerate(ns):
        ap, am = (np.reshape(a[..., k], (-1, 1, 1)) for a in (a_plus, a_minus))
        char = char * laguerre(n, 0.0, am / theta_minus * w[:, None] + ap / theta_plus * w)
    core = (projector.T @ char @ projector).astype(float)

    theta_plus, theta_minus = theta_plus.astype(float), theta_minus.astype(float)
    gx = _fourier_factors(xs, theta_plus[:, 0], degree)
    gy = _fourier_factors(ys, theta_minus[:, 0], degree)
    scale = 1.0 / (math.pi * np.sqrt(theta_plus * theta_minus))
    values = scale * (gx @ core.transpose(0, 2, 1) @ gy.transpose(0, 2, 1))
    return values if np.ndim(coeffs.c) == 3 else values[0]
