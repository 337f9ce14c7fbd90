"""Test-side references for the quasiprobability series.

Two independent evaluations of W(z, s) for a number-state input, both from
the mode-1 characteristic function ``trisqueeze.quasiprob.char_fn``:

- ``wigner_quadrature``: the adaptive tensor Gauss-Legendre quadrature of
  the characteristic function that the exact series replaced.  The node count
  doubles until two refinements agree below 1e-8 everywhere on the grid, so
  it is a 1e-8 reference.
- ``wigner_mpmath``: the same series as ``wigner_numeric`` evaluated exactly in
  mpmath (60 digits by default).  The Laguerre product is expanded as a
  bivariate polynomial in (w, w') = (tm u^2, tp v^2) and its monomials are
  moved to the L_k^{-1/2} basis by the exact inversion formula, so the
  reference shares neither the addition theorem nor the Gauss-Hermite
  projection with the fast path.

``suggest_half_width`` picks a phase-space window that holds essentially all
of a distribution, and ``riemann_sum`` integrates a sampled grid over it; only
tests use them.
"""

import functools
import math

import mpmath
import numpy as np

from trisqueeze.quasiprob import (
    NUMERIC_N_MAX,
    _check_ordering,
    _occupations,
    char_fn,
    wigner_aux,
)

NUMERIC_GRID_MAX = 257  # bounds the quadrature's (nodes x grid) phase matrices

_BOUNDARY_DECAY = 1e-12
_QUAD_ATOL = 1e-8


class WindowSelectionError(RuntimeError):
    """Raised when no integration window makes the integrand boundary negligible."""


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


def wigner_quadrature(coeffs, ns, xs, ys, s):
    """(nx, ny) grid by direct quadrature of the characteristic function.

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
            return values
        previous = values
    raise WindowSelectionError("quadrature refinement did not converge below 1e-8")


def suggest_half_width(coeffs, ns, s):
    """Phase-space half-width that holds essentially all of the distribution."""
    aux = wigner_aux(coeffs, _check_ordering(s, allowed=(-1, 0)))
    spread = math.sqrt(max(aux.theta_plus, aux.theta_minus))
    ntot = sum(_occupations(ns))
    return spread * (4.0 + 1.5 * math.sqrt(ntot)) + 1.0


def riemann_sum(xs, ys, values):
    """Sum of values[..., i, j] = W(xs[i] + 1j*ys[j]) times the cell area; one sum per row of a stack."""
    total = np.sum(values, axis=(-2, -1)) * (xs[1] - xs[0]) * (ys[1] - ys[0])
    return total if total.ndim else float(total)


def _monomial_to_half_laguerre(degree):
    """T[m][k]: w^m = sum_k T[m][k] L_k^{-1/2}(w), for m, k <= degree (current precision)."""
    return [
        [(-1) ** k * mpmath.factorial(m) * mpmath.gamma(m + 0.5)
         / (mpmath.gamma(k + 0.5) * mpmath.factorial(m - k)) if k <= m else mpmath.mpf(0)
         for k in range(degree + 1)]
        for m in range(degree + 1)
    ]


def wigner_mpmath(coeffs, ns, xs, ys, s, dps=60):
    """(nx, ny) grid of the exact series in ``dps``-digit arithmetic, rounded to floats.

    With w = tm u^2 and w' = tp v^2 the characteristic function is
    exp(-w - w') prod_j L_{n_j}(lm_j w + lp_j w'), lm/lp = A-/tm and A+/tp.
    Its bivariate monomial coefficients C[m][m'] become the Laguerre core
    M = T^T C T, and

        W(x + iy) = exp(-X - Y) / (pi sqrt(tp tm)) sum_kl M[k][l] Y^k/k! X^l/l!

    with X = x^2/tp and Y = y^2/tm.
    """
    s = _check_ordering(s, allowed=(-1, 0))
    ns = _occupations(ns)
    with mpmath.workdps(dps):
        row = [mpmath.mpf(float(v)) for v in coeffs.mode_row(1)]
        pairs = list(zip(row[0::2], row[1::2]))
        lambda1 = sum(c * c + d * d for c, d in pairs)
        lambda2 = sum(c * d for c, d in pairs)
        b = (lambda1 - s) / 2
        tp, tm = b + lambda2, b - lambda2

        poly = {(0, 0): mpmath.mpf(1)}
        for (c, d), n in zip(pairs, ns):
            lm, lp = (c - d) ** 2 / tm, (c + d) ** 2 / tp
            factor = {}
            for i in range(n + 1):   # L_n(a) = sum_i (-1)^i binom(n, i) a^i / i!
                coef = (-1) ** i * mpmath.binomial(n, i) / mpmath.factorial(i)
                for m in range(i + 1):
                    term = coef * mpmath.binomial(i, m) * lm ** m * lp ** (i - m)
                    factor[(m, i - m)] = factor.get((m, i - m), 0) + term
            product = {}
            for (m1, l1), v1 in poly.items():
                for (m2, l2), v2 in factor.items():
                    key = (m1 + m2, l1 + l2)
                    product[key] = product.get(key, 0) + v1 * v2
            poly = product

        degree = sum(ns)
        t = _monomial_to_half_laguerre(degree)
        core = [[sum(t[m][k] * v * t[ml][l] for (m, ml), v in poly.items())
                 for l in range(degree + 1)] for k in range(degree + 1)]
        scale = 1 / (mpmath.pi * mpmath.sqrt(tp * tm))

        def factors(axis, theta):
            out = []
            for value in np.asarray(axis, dtype=float).tolist():
                big = mpmath.mpf(value) ** 2 / theta
                out.append([mpmath.exp(-big) * big ** k / mpmath.factorial(k)
                            for k in range(degree + 1)])
            return out

        gx, gy = factors(xs, tp), factors(ys, tm)
        folded = [[sum(core[k][l] * fx[l] for l in range(degree + 1)) for k in range(degree + 1)]
                  for fx in gx]
        return np.array([[float(scale * sum(fk * fy[k] for k, fk in enumerate(row_x)))
                          for fy in gy] for row_x in folded])
