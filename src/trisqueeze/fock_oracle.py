"""Brute-force ground truth on a truncated three-mode Fock space.

The squeeze unitary acts directly on the state.  Each pair term of the
generator K changes the total photon number by 2, so exp(K) maps each
photon-number-parity sector to itself; on every sector the state occupies, K
is a gather table of six neighbours per basis state (exact ladder products,
so K is exactly antisymmetric there) and exp(K) psi is a truncated Taylor
series run in steps of bounded 1-norm, after Al-Mohy & Higham (SIAM J. Sci.
Comput. 33, 2011), never forming exp(K).  Every moment and single-mode
quasiprobability is then recomputed by tensor contractions that share no
algebra with the closed forms they validate; the Wigner value is an exact
displaced parity built from the Fock matrix of the displacement operator.

``oracle_report``, used by ``oracle-verify`` and the tests, compares engine
values with the oracle's; the oracle side shares no algebra with the engine.
It applies each mode's a and a+ to the evolved state once and reads every
moment and quadrature variance from that one set of ladder images.

Truncation is guarded, not hidden: each evolved state carries a leakage
report (norm defect and per-mode top-shell occupation) and the oracle refuses
to answer when any of them reaches LEAKAGE_TOL.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .ladder import InputState, NumberState, _mode_index
from .moments import (
    QuadratureSelector,
    cauchy_schwarz_ratio,
    cross_correlation,
    g2_ratio,
    intensity_correlation,
    mean_photon,
    quadrature_variances,
)
from .quasiprob import wigner_closed
from .symplectic import SqueezeParams, bogoliubov_coeffs

CUTOFF_MIN = 4
CUTOFF_MAX = 15
LEAKAGE_TOL = 1e-8
MONOMIAL_DEGREE_MAX = 4  # per mode
# Largest 1-norm of K/s per Taylor step: about the reach of the degree-55 Taylor
# polynomial in double precision (theta_55 = 9.9 in Al-Mohy & Higham's table).
TAYLOR_THETA = 10.0
TAYLOR_TOL = 2.0 ** -53
# At 1-norm <= TAYLOR_THETA, term j is at most 10**j / j! of the input, under
# 1e-18 from j = 55 on, so later terms cannot change a double.
TAYLOR_TERMS_MAX = 55


@dataclass(frozen=True)
class FockCutoff:
    """Per-mode truncation; the basis keeps occupations 0..n_max."""

    n_max: int

    def __post_init__(self):
        if not isinstance(self.n_max, int) or not CUTOFF_MIN <= self.n_max <= CUTOFF_MAX:
            raise ValueError(
                f"cutoff must be an integer in [{CUTOFF_MIN}, {CUTOFF_MAX}], got {self.n_max!r}"
            )

    @property
    def size(self):
        return self.n_max + 1

    @property
    def dim(self):
        return self.size ** 3


@dataclass(frozen=True)
class TruncationReport:
    """Leakage metrics of a truncated state."""

    norm_defect: float
    top_shell: tuple

    @property
    def max_metric(self):
        return max(self.norm_defect, max(self.top_shell))

    def ok(self):
        return self.max_metric < LEAKAGE_TOL


class TruncationLeakageError(RuntimeError):
    """Raised when truncation leakage reaches the oracle's validity threshold; ``report``
    is the evolved state's TruncationReport, None for a refused single-mode rho."""

    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)


def _coherent_vector(alpha, size):
    amps = np.empty(size, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, size):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps


@dataclass(frozen=True)
class TruncatedState:
    """Amplitude tensor over (n1, n2, n3) with a fixed per-mode cutoff."""

    amplitudes: np.ndarray
    cutoff: FockCutoff

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        size = self.cutoff.size
        if amps.shape != (size, size, size):
            raise ValueError(f"amplitude tensor must have shape {(size, size, size)}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_input_state(cls, state: InputState, cutoff: FockCutoff):
        size = cutoff.size
        factors = []
        for mode_state in state.modes:
            if isinstance(mode_state, NumberState):
                if mode_state.n > cutoff.n_max:
                    raise ValueError(
                        f"occupation {mode_state.n} does not fit under cutoff {cutoff.n_max}"
                    )
                vec = np.zeros(size, dtype=complex)
                vec[mode_state.n] = 1.0
            else:
                vec = _coherent_vector(mode_state.alpha, size)
            factors.append(vec)
        amps = np.einsum("i,j,k->ijk", *factors)
        return cls(amplitudes=amps, cutoff=cutoff)


def truncation_report(state: TruncatedState) -> TruncationReport:
    amps = np.abs(state.amplitudes) ** 2
    return TruncationReport(
        norm_defect=abs(1.0 - float(amps.sum())),
        top_shell=(
            float(amps[-1, :, :].sum()),
            float(amps[:, -1, :].sum()),
            float(amps[:, :, -1].sum()),
        ),
    )


_PAIRS = ((0, 1), (0, 2), (1, 2))  # (a1 a2, a1 a3, a2 a3)


@functools.cache
def _sector_tables(size, parity):
    """Gather tables of the sector n1 + n2 + n3 = parity (mod 2), per-mode size ``size``.

    Returns read-only ``(indices, neighbours, ladder)``: the sector's flat basis
    indices, ascending, and two (6, n_sector) tables.  Slot p < 3 of basis state
    n holds pair p's neighbour n + e_j + e_k with the ladder product
    sqrt(n_j + 1) sqrt(n_k + 1); slot 3 + p holds n - e_j - e_k with
    sqrt(n_j) sqrt(n_k).  Neighbours are sector-local indices; one outside the
    cutoff is a zero slot (weight 0, the state's own index).  Slot-major rows
    keep the gather and the slot sum contiguous.
    """
    dim = size ** 3
    occupations = np.indices((size, size, size)).reshape(3, -1)
    indices = np.flatnonzero(occupations.sum(axis=0) % 2 == parity)
    occ = occupations[:, indices]
    rows = np.arange(indices.size)
    local = np.zeros(dim, dtype=np.intp)
    local[indices] = rows
    root = np.sqrt(np.arange(size + 1))
    strides = (size * size, size, 1)
    neighbours = np.empty((6, indices.size), dtype=np.intp)
    ladder = np.empty((6, indices.size))
    for slot, (j, k) in enumerate(_PAIRS):
        shift = strides[j] + strides[k]
        up = (occ[j] < size - 1) & (occ[k] < size - 1)
        neighbours[slot] = np.where(up, local[(indices + shift) % dim], rows)
        ladder[slot] = np.where(up, root[occ[j] + 1] * root[occ[k] + 1], 0.0)
        down = (occ[j] > 0) & (occ[k] > 0)
        neighbours[3 + slot] = np.where(down, local[(indices - shift) % dim], rows)
        ladder[3 + slot] = root[occ[j]] * root[occ[k]]
    for table in (indices, neighbours, ladder):
        table.flags.writeable = False
    return indices, neighbours, ladder


@dataclass(frozen=True)
class SectorGenerator:
    """K on one parity sector in gather form: (K v)_i = sum_s weights[s, i] v[neighbours[s, i]].

    ``indices`` are the sector's flat basis indices; ``v`` is indexed like them.
    """

    indices: np.ndarray
    neighbours: np.ndarray
    weights: np.ndarray

    def __matmul__(self, vec):
        gathered = vec[self.neighbours]
        gathered *= self.weights
        return gathered.sum(axis=0)

    def norm1(self):
        """Exact 1-norm: K is antisymmetric, so its largest absolute row sum."""
        return float(np.abs(self.weights).sum(axis=0).max())


def build_generator(params: SqueezeParams, cutoff: FockCutoff):
    """r1(a1 a2 - h.c.) + r2(a1 a3 - h.c.) + r3(a2 a3 - h.c.) as (even, odd) SectorGenerators.

    Each weight is one coupling times one ladder product, so K is exactly
    antisymmetric and every entry equals the Kronecker-product assembly's.
    """
    r = np.array(params.as_tuple(), dtype=float)
    signed = np.concatenate([r, -r])[:, None]
    return tuple(
        SectorGenerator(indices, neighbours, ladder * signed)
        for indices, neighbours, ladder in (_sector_tables(cutoff.size, p) for p in (0, 1))
    )


def _taylor_action(generator: SectorGenerator, vec):
    """exp(K) vec on one sector, in s = ceil(||K||_1 / TAYLOR_THETA) Taylor steps.

    Each step sums exp(K/s) until two consecutive terms fall below TAYLOR_TOL
    of the running sum (max norms).  K is real, so a real vector runs in real
    arithmetic, which gives the complex run's bits; a complex one meets
    complex-cast weights, so each product is one complex multiply.
    """
    steps = max(1, math.ceil(generator.norm1() / TAYLOR_THETA))
    if not vec.imag.any():
        vec = vec.real
    generator = replace(generator, weights=generator.weights.astype(vec.dtype, copy=False))
    for _ in range(steps):
        term, total = vec, vec.copy()
        previous = bound = np.abs(term).max()
        for j in range(1, TAYLOR_TERMS_MAX + 1):
            term = generator @ term
            term *= 1.0 / (j * steps)
            total += term
            current = np.abs(term).max()
            bound += current  # >= max|total|: the sum is read only once the terms are small
            tail = previous + current
            if tail <= TAYLOR_TOL * bound and tail <= TAYLOR_TOL * np.abs(total).max():
                break
            previous = current
        vec = total
    return vec


class SqueezePropagator:
    """exp(K) for one parameter set, applied to a state one parity sector at a time.

    ``generator`` holds K's (even, odd) SectorGenerators; ``apply`` runs the
    truncated Taylor action on each sector the state occupies and leaves the
    others empty, as exp(K) does.
    """

    def __init__(self, params: SqueezeParams, cutoff: FockCutoff):
        self.params = params
        self.cutoff = cutoff
        self.generator = build_generator(params, cutoff)

    def apply(self, state: TruncatedState) -> TruncatedState:
        if state.cutoff != self.cutoff:
            raise ValueError("state and propagator cutoffs differ")
        flat = state.amplitudes.reshape(-1)
        out = np.zeros_like(flat)
        for sector in self.generator:
            vec = flat[sector.indices]
            if vec.any():
                out[sector.indices] = _taylor_action(sector, vec)
        return TruncatedState(amplitudes=out.reshape(state.amplitudes.shape), cutoff=self.cutoff)


def apply_squeeze(propagator: SqueezePropagator, state: TruncatedState) -> TruncatedState:
    """Evolve a truncated state through exp(K), refusing on leakage at or above LEAKAGE_TOL."""
    evolved = propagator.apply(state)
    report = truncation_report(evolved)
    if not report.ok():
        raise TruncationLeakageError(
            f"truncation leakage at or above threshold: norm defect {report.norm_defect:.3e}, "
            f"top-shell occupations ({', '.join(f'{t:.3e}' for t in report.top_shell)}), "
            f"threshold {LEAKAGE_TOL:.0e}", report)
    return evolved


def _apply_ladder(amps, axis, raising=False):
    """a (or a+ when ``raising``) on one axis; a+ drops what leaves the top shell."""
    out = np.zeros_like(amps)
    size = amps.shape[axis]
    shape = [1] * amps.ndim
    shape[axis] = size - 1
    weights = np.sqrt(np.arange(1, size)).reshape(shape)
    head = (slice(None),) * axis
    low, high = head + (slice(None, -1),), head + (slice(1, None),)
    if raising:
        out[high] = weights * amps[low]
    else:
        out[low] = weights * amps[high]
    return out


def _ladder_images(amps):
    """(lowered, raised): a_j psi and a_j+ psi for the three modes, j = 1, 2, 3."""
    lowered = [_apply_ladder(amps, axis) for axis in range(3)]
    raised = [_apply_ladder(amps, axis, raising=True) for axis in range(3)]
    return lowered, raised


def _norm2(vec):
    """<v|v> as a float."""
    return float(np.vdot(vec, vec).real)


def oracle_expectation(state: TruncatedState, monomial) -> complex:
    """<psi| a1+^p1 a2+^p2 a3+^p3 a1^q1 a2^q2 a3^q3 |psi> by direct contraction."""
    key = tuple(int(v) for v in monomial)
    if len(key) != 6 or min(key) < 0:
        raise ValueError("monomial must be six nonnegative integer powers")
    if max(key) > MONOMIAL_DEGREE_MAX:
        raise ValueError(f"per-mode monomial degree is capped at {MONOMIAL_DEGREE_MAX}")
    bra = state.amplitudes
    for axis in range(3):
        for _ in range(key[axis]):
            bra = _apply_ladder(bra, axis)
    if key[:3] == key[3:]:
        return complex(np.vdot(bra, bra))
    ket = state.amplitudes
    for axis in range(3):
        for _ in range(key[3 + axis]):
            ket = _apply_ladder(ket, axis)
    return complex(np.vdot(bra, ket))


def _quadrature_stats(amps, lowered, raised, weights):
    """(<X>, <dX^2>, <Y>, <dY^2>) with per-mode ``weights``, from the state's ladder images."""
    xvec = np.zeros_like(amps)
    yvec = np.zeros_like(amps)
    for low, high, weight in zip(lowered, raised, weights):
        if weight == 0.0:
            continue
        xvec += 0.5 * weight * (low + high)
        yvec += -0.5j * weight * (low - high)
    out = []
    for vec in (xvec, yvec):
        mean = float(np.vdot(amps, vec).real)
        out.extend((mean, _norm2(vec) - mean * mean))
    return tuple(out)


def quadrature_stats(state: TruncatedState, c1: int, c2: int):
    """(<X>, <dX^2>, <Y>, <dY^2>) for the weighted quadratures (1, c1, c2).

    Built by applying the ladder maps mode by mode, with no normal-ordering
    algebra involved.
    """
    amps = state.amplitudes
    return _quadrature_stats(amps, *_ladder_images(amps), (1.0, float(c1), float(c2)))


def reduced_density(state: TruncatedState, mode: int) -> np.ndarray:
    """Single-mode density matrix by partial trace over the other two modes."""
    axes = [0, 1, 2]
    axes.remove(_mode_index(mode))
    return np.tensordot(state.amplitudes, state.amplitudes.conj(), axes=(axes, axes))


def oracle_wigner(rho: np.ndarray, z: complex, s: int) -> float:
    """Quasidistribution of a single-mode density matrix.

    s=0 is the displaced parity (2/pi) Tr[rho D(z) P D(-z)] = (2/pi) Tr[rho D(2z) P]
    = (2/pi) sum_mn rho_mn (-1)^m <n|D(2z)|m>; s=-1 is the Husimi value
    <z|rho|z>/pi.  The Fock matrix of D(alpha) starts from the coherent column
    D|0> = |alpha> and follows the exact recurrence
    <n|D|m+1> = (sqrt(n) <n-1|D|m> - conj(alpha) <n|D|m>) / sqrt(m+1), so
    truncation enters only through rho.  Its top Fock occupation must stay
    below LEAKAGE_TOL for the truncated value to stand in for the exact one.
    """
    rho = np.asarray(rho)
    size = rho.shape[0]
    if rho.shape != (size, size):
        raise ValueError("rho must be square")
    top = abs(rho[-1, -1])
    if top >= LEAKAGE_TOL:
        raise TruncationLeakageError(
            f"truncation leakage at or above threshold: top Fock occupation {top:.3e} "
            f"of the single-mode state, threshold {LEAKAGE_TOL:.0e}"
        )
    if s == -1:
        coh = _coherent_vector(complex(z), size)
        return float(np.real(coh.conj() @ rho @ coh) / math.pi)
    if s != 0:
        raise ValueError("oracle quasidistributions support s in {-1, 0} only")
    alpha = 2.0 * complex(z)
    root = np.sqrt(np.arange(size))
    displaced = np.empty((size, size), dtype=complex)
    displaced[:, 0] = _coherent_vector(alpha, size)
    for m in range(size - 1):
        column = -alpha.conjugate() * displaced[:, m]
        column[1:] += root[1:] * displaced[:-1, m]
        displaced[:, m + 1] = column / math.sqrt(m + 1)
    parity = (-1.0) ** np.arange(size)
    return float((2.0 / math.pi) * np.real(np.sum(parity[:, None] * rho * displaced.T)))


def _moment_table(mean, intensity, cross):
    """Report-ordered moments and the g2 and V ratios derived from them.

    ``mean``, ``intensity`` and ``cross`` give <n_m>, <a_m+2 a_m2> and
    <n_j n_k>; each of the nine is evaluated once.
    """
    table = {}
    for mode in (1, 2, 3):
        table[f"mean_n{mode}"] = mean(mode)
        table[f"intensity_{mode}"] = intensity(mode)
        table[f"g2_{mode}"] = g2_ratio(table[f"intensity_{mode}"], table[f"mean_n{mode}"], mode)
    for j, k in ((1, 2), (1, 3), (2, 3)):
        table[f"cross_n{j}n{k}"] = cross(j, k)
        table[f"v_{j}{k}"] = cauchy_schwarz_ratio(
            table[f"intensity_{j}"], table[f"intensity_{k}"], table[f"cross_n{j}n{k}"], j, k
        )
    return table


def oracle_report(propagator: SqueezePropagator, state: InputState) -> dict:
    """Engine-versus-oracle values for one input state, as a JSON-ready dict.

    ``quantities``: the 15 moments and ratios of ``_moment_table``, six quadrature
    variances and, for a closed-form number state, three mode-1 W/Q points, each
    with |analytic - oracle| / max(|oracle|, 1e-12).  Raises TruncationLeakageError.

    The oracle side lowers and raises the evolved state once per mode.  The nine
    moments are squared norms of those images (a_k a_j psi by one more lowering)
    and the three selectors' variances are sums of the same images, so they equal
    ``oracle_expectation`` and ``quadrature_stats`` bit for bit.
    """
    params = propagator.params
    coeffs = bogoliubov_coeffs(params)
    evolved = apply_squeeze(propagator, TruncatedState.from_input_state(state, propagator.cutoff))
    report = truncation_report(evolved)

    quantities = []

    def record(name, analytic, oracle):
        analytic, oracle = float(analytic), float(oracle)
        quantities.append({"name": name, "analytic": analytic, "oracle": oracle,
                           "rel_error": abs(analytic - oracle) / max(abs(oracle), 1e-12)})

    amps = evolved.amplitudes
    lowered, raised = _ladder_images(amps)
    analytic = _moment_table(
        functools.partial(mean_photon, coeffs, state),
        functools.partial(intensity_correlation, coeffs, state),
        functools.partial(cross_correlation, coeffs, state),
    )
    oracle = _moment_table(
        lambda m: _norm2(lowered[m - 1]),
        lambda m: _norm2(_apply_ladder(lowered[m - 1], m - 1)),
        lambda j, k: _norm2(_apply_ladder(lowered[j - 1], k - 1)),
    )
    for name, value in analytic.items():
        record(name, value, oracle[name])
    for c1, c2 in ((0, 0), (1, 0), (1, 1)):
        sel = QuadratureSelector(c1, c2)
        var_x, var_y = quadrature_variances(coeffs, sel, state)
        _, ovar_x, _, ovar_y = _quadrature_stats(amps, lowered, raised, sel.weights)
        record(f"var_x_c{c1}{c2}", var_x, ovar_x)
        record(f"var_y_c{c1}{c2}", var_y, ovar_y)
    if state.is_number_state:
        ns = state.occupations()
        closed = wigner_closed(coeffs, ns, 0j, 0)
        if closed is not None:
            rho1 = reduced_density(evolved, 1)
            z = 0.5 + 0.3j
            record("wigner_origin", closed, oracle_wigner(rho1, 0j, 0))
            record("wigner_point", wigner_closed(coeffs, ns, z, 0), oracle_wigner(rho1, z, 0))
            record("husimi_point", wigner_closed(coeffs, ns, z, -1), oracle_wigner(rho1, z, -1))

    return {
        "params": {"r1": params.r1, "r2": params.r2, "r3": params.r3},
        "cutoff": propagator.cutoff.n_max,
        "leakage": {
            "norm_defect": report.norm_defect,
            "top_shell": list(report.top_shell),
        },
        "quantities": quantities,
        "max_rel_error": max(q["rel_error"] for q in quantities),
    }
