"""s-parameterized quasiprobability functions of the first output mode.

The characteristic function of mode 1 after the three-mode squeeze is a
Gaussian times a product of Laguerre polynomials in the transformed variables
v1 = zeta*f1 - conj(zeta)*f2 (and g, h analogues).  Writing zeta = u + i*v,

    |C(zeta, s)| = exp(-u^2*tm - v^2*tp) * prod_j L_{n_j}(u^2*Am_j + v^2*Ap_j),

with tp/tm the s-shifted quadrature widths and A+- = (coef sums)^2.  The
Fourier transform W(z, s) is evaluated two ways, both exact: a closed Laguerre
sum for vacuum or a single excited slot (mode 1 or mode 3), and a Hermite
series for every pattern with n_j <= NUMERIC_N_MAX (``wigner_numeric``).  Both
reduce to the familiar number-state distribution when all couplings vanish,
and both take a BogoliubovCoeffs stack of P coupling triples and return a
stack with a leading P axis.  Against a 60-digit mpmath evaluation the series
holds 1e-12 of max|W| for n_j <= 6 and |r_j| <= 2.

Closed-form stability note: the Laguerre sum is computed through the
homogenized polynomials t_k(eta, c) = eta^k L_k^{-1/2}(c/eta), which stay
finite for eta of any sign, so the excitation corrections eta+- may pass
through zero without harm.
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


class PFunctionSingularError(ValueError):
    """Raised when the normally ordered distribution has no function form."""


def _check_ordering(s, allowed=ORDERING_VALUES):
    if s not in allowed:
        raise ValueError(f"ordering parameter s must be one of {allowed}, got {s!r}")
    return int(s)


def laguerre(k: int, gamma: float, x):
    """Associated Laguerre polynomial L_k^gamma(x) by the three-term recurrence.

    Stable for the moderate degrees used here (k <= 60); the alternating
    factorial sum cancels catastrophically for large x and is kept only as a
    test-side reference.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError("degree k must be a nonnegative integer")
    if k > LAGUERRE_K_MAX:
        raise ValueError(f"degree k = {k} exceeds the stability guard {LAGUERRE_K_MAX}")
    if gamma <= -1.0:
        raise ValueError("gamma must exceed -1")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if k == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 + gamma - x
    for i in range(1, k):
        prev, cur = cur, ((2.0 * i + gamma + 1.0 - x) * cur - (i + gamma) * prev) / (i + 1.0)
    return cur if cur.ndim else float(cur)


def _scaled_half_laguerre(k, eta, c):
    """t_k = eta^k L_k^{-1/2}(c/eta), polynomial in (eta, c); safe for eta <= 0."""
    c = np.asarray(c, dtype=float)
    prev = np.ones_like(c)
    if k == 0:
        return prev
    cur = 0.5 * eta - c
    for i in range(1, k):
        prev, cur = cur, (((2.0 * i + 0.5) * eta - c) * cur - (i - 0.5) * eta * eta * prev) / (i + 1.0)
    return cur


def char_fn(coeffs: BogoliubovCoeffs, ns, zeta, s: int):
    """Mode-1 characteristic function for number-state input (n1, n2, n3).

    C(zeta, s) = exp[-(|v1|^2+|v2|^2+|v3|^2)/2 + s|zeta|^2/2]
                 * L_{n1}(|v1|^2) L_{n2}(|v2|^2) L_{n3}(|v3|^2),
    real-valued because the transform coefficients are real.  A stack of P
    triples gives values of shape (P,) + zeta.shape.
    """
    s = _check_ordering(s)
    n1, n2, n3 = _occupations(ns)
    zeta = np.asarray(zeta, dtype=complex)
    # a scalar takes the array path too: numpy scalar arithmetic can miss the stacked row by an ulp
    point = zeta.ndim == 0
    zeta = np.atleast_1d(zeta)
    f1, f2, g1, g2, h1, h2 = _against(zeta, *coeffs.mode_row(1))
    out, total = 1.0, 0.0
    for (c1_, c2_), n in (((f1, f2), n1), ((g1, g2), n2), ((h1, h2), n3)):
        v = zeta * c1_ - np.conj(zeta) * c2_
        mag2 = (v * np.conj(v)).real
        total = total + mag2
        if n:
            out = out * laguerre(n, 0.0, mag2)
    out = out * np.exp(-0.5 * total + 0.5 * s * (zeta * np.conj(zeta)).real)
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


def wigner_aux(coeffs: BogoliubovCoeffs, s: int, slot: str | None = None) -> WignerAux:
    """Kernel parameters of one coefficient set; (P,) array fields for a stack of P triples."""
    s = _check_ordering(s)
    f1, f2, g1, g2, h1, h2 = coeffs.mode_row(1)
    lambda1 = f1 * f1 + f2 * f2 + g1 * g1 + g2 * g2 + h1 * h1 + h2 * h2
    lambda2 = f1 * f2 + g1 * g2 + h1 * h2
    b = 0.5 * (lambda1 - s)
    theta_plus = b + lambda2
    theta_minus = b - lambda2
    # x * x, not x ** 2: numpy scalars square through C pow, which can miss the stacked row by an ulp
    if slot is None:
        eta_plus = eta_minus = None
    elif slot in ("mode1", "mode3"):
        c, d = (h1, h2) if slot == "mode3" else (f1, f2)
        eta_plus = (c + d) * (c + d) - theta_plus
        eta_minus = (c - d) * (c - d) - theta_minus
    else:
        raise ValueError(f"slot must be 'mode1', 'mode3' or None, got {slot!r}")
    return WignerAux(
        lambda1=lambda1,
        lambda2=lambda2,
        b=b,
        kernel_det=b * b - lambda2 * lambda2,
        theta_plus=theta_plus,
        theta_minus=theta_minus,
        eta_plus=eta_plus,
        eta_minus=eta_minus,
        s=s,
        slot=slot,
    )


def wigner_vacuum(coeffs: BogoliubovCoeffs, z, s: int):
    """Gaussian quasidistribution of mode 1 for three-mode squeezed vacuum."""
    aux = wigner_aux(coeffs, s)
    tp, tm = aux.theta_plus, aux.theta_minus
    if np.any(tp <= 0.0) or np.any(tm <= 0.0):
        raise PFunctionSingularError(
            f"distribution is singular at s={s}: theta = ({tp!r}, {tm!r})"
        )
    z = np.asarray(z, dtype=complex)
    tp, tm = _against(z, tp, tm)
    out = np.exp(-z.real ** 2 / tp - z.imag ** 2 / tm) / (math.pi * np.sqrt(tp * tm))
    return out if out.ndim else float(out)


def wigner_excited(coeffs: BogoliubovCoeffs, n: int, slot: str, z, s: int):
    """Closed-form quasidistribution of mode 1 with n photons in one input slot.

    slot="mode3" is the input (0, 0, n); slot="mode1" is (n, 0, 0).  The value
    is a Gaussian times a degree-n Laguerre convolution,

        W = (-1)^n / (pi sqrt(tp tm)) exp(-x^2/tp - y^2/tm)
            * sum_m t_m(em/tm, Am y^2/tm^2) t_{n-m}(ep/tp, Ap x^2/tp^2),

    with Ap/Am the squared coefficient sums of the slot, ep/em = A - theta the
    excitation corrections and t_k the homogenized half-integer Laguerre
    polynomials.  At zero coupling this reduces to the vacuum Gaussian for
    slot="mode3" and to the bare number-state distribution for slot="mode1".
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    if n > EXCITED_N_MAX:
        raise ValueError(f"n = {n} exceeds the closed-form guard {EXCITED_N_MAX}")
    s = _check_ordering(s, allowed=(-1, 0))
    aux = wigner_aux(coeffs, s, slot=slot)
    f1, f2, _, _, h1, h2 = coeffs.mode_row(1)
    c, d = (h1, h2) if slot == "mode3" else (f1, f2)
    z = np.asarray(z, dtype=complex)
    tp, tm, eta_plus, eta_minus, a_plus, a_minus = _against(
        z, aux.theta_plus, aux.theta_minus, aux.eta_plus, aux.eta_minus,
        (c + d) * (c + d), (c - d) * (c - d),
    )
    x2 = z.real ** 2
    y2 = z.imag ** 2
    gauss = np.exp(-x2 / tp - y2 / tm)
    acc = np.zeros(z.shape, dtype=float)
    for m in range(n + 1):
        acc = acc + (
            _scaled_half_laguerre(m, eta_minus / tm, a_minus * y2 / (tm * tm))
            * _scaled_half_laguerre(n - m, eta_plus / tp, a_plus * x2 / (tp * tp))
        )
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
    """(..., m_max + 1) orthonormal Hermite polynomials h_m(t) (weight exp(-t^2)), by recurrence."""
    out = [np.full_like(t, math.pi ** -0.25)]
    out.append(math.sqrt(2.0) * t * out[0])
    for m in range(1, m_max):
        out.append(math.sqrt(2.0 / (m + 1)) * t * out[-1] - math.sqrt(m / (m + 1)) * out[-2])
    return np.stack(out[:m_max + 1], axis=-1)


@functools.cache
def _hermite_projector(degree):
    """Read-only (w, G): w = t_q^2/2 at the (2 degree + 1) Gauss-Hermite nodes t_q and
    G[q, k] = weight_q h_2k(t_q), so sum_q p(w_q) G[q, k] is the exact h_2k(t)
    coefficient of any polynomial p of ``degree`` in w."""
    nodes, weights = np.polynomial.hermite.hermgauss(2 * degree + 1)
    w = nodes * nodes / 2.0
    projector = weights[:, None] * _hermite(2 * degree, nodes)[:, 0::2]
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

    The phi_m are bounded and orthonormal, so the sum does not cancel.  xs and
    ys are non-empty 1-d axes; one point each gives a single phase-space value.
    Returns (nx, ny) values, or (P, nx, ny) for a stack of P triples.
    """
    s = _check_ordering(s, allowed=(-1, 0))
    ns = _occupations(ns)
    if max(ns) > NUMERIC_N_MAX:
        raise ValueError(f"occupations above {NUMERIC_N_MAX} are not supported numerically")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or ys.ndim != 1 or xs.size == 0 or ys.size == 0:
        raise ValueError("xs and ys must be non-empty 1-d arrays")
    aux = wigner_aux(coeffs, s)
    theta_plus = np.reshape(aux.theta_plus, (-1, 1, 1))
    theta_minus = np.reshape(aux.theta_minus, (-1, 1, 1))
    degree = sum(ns)
    w, projector = _hermite_projector(degree)
    char = np.ones((theta_plus.shape[0], w.size, w.size))
    for (c, d), n in zip(np.reshape(coeffs.mode_row(1), (3, 2, -1, 1, 1)), ns):
        char = char * laguerre(n, 0.0, (c - d) ** 2 / theta_minus * w[:, None]
                               + (c + d) ** 2 / theta_plus * w)
    core = projector.T @ char @ projector

    gx = _fourier_factors(xs, theta_plus[:, 0], degree)
    gy = _fourier_factors(ys, theta_minus[:, 0], degree)
    scale = 1.0 / (math.pi * np.sqrt(theta_plus * theta_minus))
    values = scale * (gx @ core.transpose(0, 2, 1) @ gy.transpose(0, 2, 1))
    return values if np.ndim(coeffs.c) == 3 else values[0]
