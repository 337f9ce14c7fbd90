"""Exact normal-ordering algebra over the six ladder symbols of three modes.

A polynomial is stored as a map from normally ordered monomials to complex
coefficients.  Monomial keys are 6-tuples (p1, p2, p3, q1, q2, q3): creation
powers on the left, annihilation powers on the right.  Products are reduced
with the exact per-mode rule

    a^q a+^p = sum_k k! C(q,k) C(p,k) a+^(p-k) a^(q-k),

so coefficients stay exact up to float rounding of the inputs.  ``expectation``
takes a polynomial's value in a product of number and coherent modes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

MAX_PRODUCT_DEGREE = 8  # fourth moments need degree 4; 8 leaves sweep headroom
_ZERO_KEY = (0, 0, 0, 0, 0, 0)


class LadderPolynomial:
    """Immutable normally ordered polynomial in three bosonic modes."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        cleaned = {}
        for key, coeff in (terms or {}).items():
            coeff = complex(coeff)
            if coeff != 0:
                cleaned[key] = coeff
        self._terms = cleaned

    @classmethod
    def constant(cls, value):
        return cls({_ZERO_KEY: value})

    @classmethod
    def annihilator(cls, mode):
        key = [0, 0, 0, 0, 0, 0]
        key[3 + _mode_index(mode)] = 1
        return cls({tuple(key): 1.0})

    @classmethod
    def creator(cls, mode):
        key = [0, 0, 0, 0, 0, 0]
        key[_mode_index(mode)] = 1
        return cls({tuple(key): 1.0})

    def terms(self):
        return dict(self._terms)

    def coefficient(self, key):
        return self._terms.get(tuple(key), 0j)

    @property
    def degree(self):
        if not self._terms:
            return 0
        return max(sum(key) for key in self._terms)

    def dagger(self):
        """Adjoint; swaps creation and annihilation powers, conjugates coefficients."""
        out = {}
        for (p1, p2, p3, q1, q2, q3), coeff in self._terms.items():
            out[(q1, q2, q3, p1, p2, p3)] = coeff.conjugate()
        return LadderPolynomial(out)

    def __add__(self, other):
        if not isinstance(other, LadderPolynomial):
            other = LadderPolynomial.constant(other)
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            out[key] = out.get(key, 0j) + coeff
        return LadderPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return LadderPolynomial({k: -v for k, v in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LadderPolynomial):
            other = LadderPolynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LadderPolynomial):
            return LadderPolynomial({k: v * other for k, v in self._terms.items()})
        out = {}
        for left, cl in self._terms.items():
            for right, cr in other._terms.items():
                _accumulate_product(left, right, cl * cr, out)
        return LadderPolynomial(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __len__(self):
        return len(self._terms)

    def __repr__(self):
        body = ", ".join(f"{k}: {v}" for k, v in sorted(self._terms.items()))
        return f"LadderPolynomial({{{body}}})"


def _mode_index(mode):
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode!r}")
    return mode - 1


def _accumulate_product(left, right, coeff, out):
    """Add left*right into ``out``, normally ordering mode by mode."""
    lp = left[:3]
    lq = left[3:]
    rp = right[:3]
    rq = right[3:]
    ranges = [range(min(lq[m], rp[m]) + 1) for m in range(3)]
    for k1 in ranges[0]:
        for k2 in ranges[1]:
            for k3 in ranges[2]:
                kvec = (k1, k2, k3)
                weight = 1
                for m in range(3):
                    k = kvec[m]
                    weight *= math.factorial(k) * math.comb(lq[m], k) * math.comb(rp[m], k)
                key = (
                    lp[0] + rp[0] - k1, lp[1] + rp[1] - k2, lp[2] + rp[2] - k3,
                    lq[0] + rq[0] - k1, lq[1] + rq[1] - k2, lq[2] + rq[2] - k3,
                )
                out[key] = out.get(key, 0j) + coeff * weight


def normal_order(*factors: LadderPolynomial) -> LadderPolynomial:
    """Product of the factors, reduced to normal order.

    Guards the total degree at 8: everything this package needs tops out at
    fourth moments (degree 4), and the guard keeps coefficient cancellation
    mild.
    """
    total = sum(f.degree for f in factors)
    if total > MAX_PRODUCT_DEGREE:
        raise ValueError(
            f"total degree {total} exceeds the normal-ordering guard {MAX_PRODUCT_DEGREE}"
        )
    result = LadderPolynomial.constant(1.0)
    for factor in factors:
        result = result * factor
    return result


ALPHA_MAX = 20.0


@dataclass(frozen=True)
class NumberState:
    """Fock state |n> of one mode."""

    n: int

    def __post_init__(self):
        try:
            n = operator.index(self.n)
        except TypeError:
            n = -1
        if n < 0:
            raise ValueError(f"photon number must be a nonnegative integer, got {self.n!r}")
        object.__setattr__(self, "n", n)


@dataclass(frozen=True)
class CoherentState:
    """Coherent state |alpha> of one mode."""

    alpha: complex

    def __post_init__(self):
        alpha = complex(self.alpha)
        if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
            raise ValueError("coherent amplitude must be finite")
        if abs(alpha) > ALPHA_MAX:
            raise ValueError(f"|alpha| must not exceed {ALPHA_MAX}")
        object.__setattr__(self, "alpha", alpha)


@dataclass(frozen=True)
class InputState:
    """Product state of the three modes, number or coherent per mode."""

    modes: tuple

    def __post_init__(self):
        if len(self.modes) != 3 or not all(
            isinstance(m, (NumberState, CoherentState)) for m in self.modes
        ):
            raise ValueError("InputState needs exactly three NumberState/CoherentState entries")

    @classmethod
    def number(cls, n1, n2, n3):
        return cls((NumberState(n1), NumberState(n2), NumberState(n3)))

    @classmethod
    def coherent(cls, a1, a2, a3):
        return cls((CoherentState(a1), CoherentState(a2), CoherentState(a3)))

    @classmethod
    def vacuum(cls):
        return cls.number(0, 0, 0)

    @property
    def is_number_state(self):
        return all(isinstance(m, NumberState) for m in self.modes)

    def occupations(self):
        if not self.is_number_state:
            raise ValueError("occupations are defined for number states only")
        return tuple(m.n for m in self.modes)


def _mode_moment(mode_state, p, q):
    """<a+^p a^q> in a single-mode number or coherent state."""
    if isinstance(mode_state, NumberState):
        if p != q or p > mode_state.n:
            return 0.0
        return float(math.perm(mode_state.n, p))
    alpha = mode_state.alpha
    return alpha.conjugate() ** p * alpha ** q


def expectation(poly: LadderPolynomial, state: InputState) -> complex:
    """Exact product-state expectation of a normally ordered polynomial."""
    if not isinstance(poly, LadderPolynomial):
        raise TypeError("expectation requires a LadderPolynomial (normally ordered)")
    total = 0j
    for key, coeff in poly.terms().items():
        value = coeff
        for m in range(3):
            value *= _mode_moment(state.modes[m], key[m], key[3 + m])
            if value == 0:
                break
        total += value
    return total
