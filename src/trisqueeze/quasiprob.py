"""s-parameterized quasiprobability functions of the first output mode.

The characteristic function of mode 1 after the three-mode squeeze is a
Gaussian times a product of Laguerre polynomials in the transformed variables
v1 = zeta*f1 - conj(zeta)*f2 (and g, h analogues).  Writing zeta = u + i*v,

    |C(zeta, s)| = exp(-u^2*tm - v^2*tp) * prod_j L_{n_j}(u^2*Am_j + v^2*Ap_j),

with tp/tm the s-shifted quadrature widths and A+- = (coef sums)^2.  The
Fourier transform W(z, s) is evaluated two ways: a closed Laguerre sum for
vacuum or a single excited slot (mode 1 or mode 3), and adaptive tensor
Gauss-Legendre quadrature for everything else.  Both reduce to the familiar
number-state distribution when all couplings vanish.

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

from .symplectic import BogoliubovCoeffs

LAGUERRE_K_MAX = 60
EXCITED_N_MAX = 20
NUMERIC_N_MAX = 6
NUMERIC_GRID_MAX = 257
ORDERING_VALUES = (-1, 0, 1)

_BOUNDARY_DECAY = 1e-12
_QUAD_ATOL = 1e-8


class PFunctionSingularError(ValueError):
    """Raised when the normally ordered distribution has no function form."""


class WindowSelectionError(RuntimeError):
    """Raised when no integration window makes the integrand boundary negligible."""


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
    real-valued because the transform coefficients are real.
    """
    s = _check_ordering(s)
    n1, n2, n3 = _occupations(ns)
    f1, f2, g1, g2, h1, h2 = coeffs.mode_row(1)
    zeta = np.asarray(zeta, dtype=complex)
    out = np.ones(zeta.shape, dtype=float)
    total = np.zeros(zeta.shape, dtype=float)
    for (c1_, c2_), n in (((f1, f2), n1), ((g1, g2), n2), ((h1, h2), n3)):
        v = zeta * c1_ - np.conj(zeta) * c2_
        mag2 = (v * np.conj(v)).real
        total += mag2
        if n:
            out *= laguerre(n, 0.0, mag2)
    out *= np.exp(-0.5 * total + 0.5 * s * (zeta * np.conj(zeta)).real)
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


def wigner_aux(coeffs: BogoliubovCoeffs, s: int, slot: str | None = None) -> WignerAux:
    s = _check_ordering(s)
    f1, f2, g1, g2, h1, h2 = coeffs.mode_row(1)
    lambda1 = f1 * f1 + f2 * f2 + g1 * g1 + g2 * g2 + h1 * h1 + h2 * h2
    lambda2 = f1 * f2 + g1 * g2 + h1 * h2
    b = 0.5 * (lambda1 - s)
    theta_plus = b + lambda2
    theta_minus = b - lambda2
    if slot is None:
        eta_plus = eta_minus = None
    elif slot == "mode1":
        eta_plus = (f1 + f2) ** 2 - theta_plus
        eta_minus = (f1 - f2) ** 2 - theta_minus
    elif slot == "mode3":
        eta_plus = (h1 + h2) ** 2 - theta_plus
        eta_minus = (h1 - h2) ** 2 - theta_minus
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
    if tp <= 0.0 or tm <= 0.0:
        raise PFunctionSingularError(
            f"distribution is singular at s={s}: theta = ({tp!r}, {tm!r})"
        )
    z = np.asarray(z, dtype=complex)
    out = np.exp(-z.real ** 2 / tp - z.imag ** 2 / tm) / (math.pi * math.sqrt(tp * tm))
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
    tp, tm = aux.theta_plus, aux.theta_minus
    f1, f2, g1, g2, h1, h2 = coeffs.mode_row(1)
    pair = (h1, h2) if slot == "mode3" else (f1, f2)
    a_plus = (pair[0] + pair[1]) ** 2
    a_minus = (pair[0] - pair[1]) ** 2

    z = np.asarray(z, dtype=complex)
    x2 = z.real ** 2
    y2 = z.imag ** 2
    gauss = np.exp(-x2 / tp - y2 / tm)
    acc = np.zeros(z.shape, dtype=float)
    for m in range(n + 1):
        acc = acc + (
            _scaled_half_laguerre(m, aux.eta_minus / tm, a_minus * y2 / tm ** 2)
            * _scaled_half_laguerre(n - m, aux.eta_plus / tp, a_plus * x2 / tp ** 2)
        )
    out = ((-1.0) ** n / (math.pi * math.sqrt(tp * tm))) * gauss * acc
    return out if out.ndim else float(out)


def wigner_origin(coeffs: BogoliubovCoeffs, n3: int, s: int) -> float:
    """Phase-space-origin value for the input (0, 0, n3)."""
    return float(wigner_excited(coeffs, n3, "mode3", 0j, s))


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

    Returns None for patterns with photons in mode 2 or in several slots.
    """
    pattern = closed_form_slot(ns)
    if pattern is None:
        return None
    slot, n = pattern
    if slot is None:
        return wigner_vacuum(coeffs, z, s)
    return wigner_excited(coeffs, n, slot, z, s)


def _occupations(ns):
    out = tuple(int(n) for n in ns)
    if len(out) != 3 or min(out) < 0:
        raise ValueError(f"occupations must be three nonnegative integers, got {ns!r}")
    return out


@dataclass(frozen=True)
class QuasiprobGrid:
    """Sampled quasidistribution: values[i, j] = W(xs[i] + 1j*ys[j], s)."""

    xs: np.ndarray
    ys: np.ndarray
    s: int
    values: np.ndarray

    def riemann_sum(self) -> float:
        dx = self.xs[1] - self.xs[0]
        dy = self.ys[1] - self.ys[0]
        return float(self.values.sum() * dx * dy)


def _char_half_width(coeffs, ns, s):
    """Half-width of the zeta window: integrand boundary magnitude < 1e-12."""
    aux = wigner_aux(coeffs, s)
    rate = min(aux.theta_plus, aux.theta_minus)
    half = math.sqrt(math.log(1e14) / rate)
    edge = np.linspace(-1.0, 1.0, 65)
    for _ in range(40):
        top = edge * half + 1j * half
        side = half + 1j * edge * half
        bound = max(
            np.abs(char_fn(coeffs, ns, top, s)).max(),
            np.abs(char_fn(coeffs, ns, side, s)).max(),
        )
        if bound < _BOUNDARY_DECAY:
            return half
        half *= 1.5
    raise WindowSelectionError(
        "characteristic function did not decay below 1e-12 on any candidate window"
    )


@functools.cache
def _gauss_legendre(n_nodes):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once per count."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def wigner_numeric(coeffs: BogoliubovCoeffs, ns, xs, ys, s: int) -> QuasiprobGrid:
    """Quasidistribution grid by direct quadrature of the characteristic function.

    W(z, s) = pi^-2 int d2zeta C(zeta, s) exp(z zeta* - zeta z*), evaluated
    with tensor-product Gauss-Legendre panels whose count doubles until two
    refinements agree below 1e-8 everywhere on the requested grid.
    """
    s = _check_ordering(s, allowed=(-1, 0))
    n1, n2, n3 = _occupations(ns)
    if max(n1, n2, n3) > NUMERIC_N_MAX:
        raise ValueError(f"occupations above {NUMERIC_N_MAX} are not supported numerically")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or ys.ndim != 1 or xs.size < 2 or ys.size < 2:
        raise ValueError("xs and ys must be 1-d arrays with at least two points")
    if xs.size > NUMERIC_GRID_MAX or ys.size > NUMERIC_GRID_MAX:
        raise ValueError(f"grid axes are capped at {NUMERIC_GRID_MAX} points")

    half = _char_half_width(coeffs, (n1, n2, n3), s)
    previous = None
    for n_nodes in (64, 128, 256, 512, 1024):
        nodes, weights = _gauss_legendre(n_nodes)
        u = nodes * half
        wu = weights * half
        zeta = u[:, None] + 1j * u[None, :]
        kernel = char_fn(coeffs, (n1, n2, n3), zeta, s) * wu[:, None] * wu[None, :]
        # exp(z zeta* - zeta z*) = exp(2i(y u - x v)) for zeta = u + iv
        phase_x = np.exp(-2j * np.outer(u, xs))   # (nq, nx)
        phase_y = np.exp(2j * np.outer(u, ys))    # (nq, ny)
        values = ((kernel @ phase_x).T @ phase_y).real / math.pi ** 2
        if previous is not None and np.max(np.abs(values - previous)) < _QUAD_ATOL:
            return QuasiprobGrid(xs=xs, ys=ys, s=s, values=values)
        previous = values
    raise WindowSelectionError("quadrature refinement did not converge below 1e-8")


def suggest_half_width(coeffs: BogoliubovCoeffs, ns, s: int) -> float:
    """Phase-space half-width that holds essentially all of the distribution."""
    aux = wigner_aux(coeffs, _check_ordering(s, allowed=(-1, 0)))
    spread = math.sqrt(max(aux.theta_plus, aux.theta_minus))
    ntot = sum(_occupations(ns))
    return spread * (4.0 + 1.5 * math.sqrt(ntot)) + 1.0
