"""Brute-force ground truth on a truncated three-mode Fock space.

The squeeze unitary acts directly on the state: the generator is assembled
from Kronecker products of single-mode ladder matrices (exactly antisymmetric
in the truncated basis, so the propagator is exactly orthogonal there) and
exp(K) psi is computed from the sparse K by the truncated-Taylor action of
Al-Mohy & Higham (SIAM J. Sci. Comput. 33, 2011), never forming exp(K).
Every moment and single-mode quasiprobability is then recomputed by tensor
contractions that share no algebra with the closed forms they validate.

``oracle_report``, used by ``oracle-verify`` and the tests, compares engine
values with the oracle's; the oracle side shares no algebra with the engine.

Truncation is guarded, not hidden: each evolved state carries a leakage
report (norm defect and per-mode top-shell occupation) and the oracle refuses
to answer when any of them reaches LEAKAGE_TOL.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
WIGNER_TAIL_TOL = 1e-8
WIGNER_PAD = 16  # zero rows/columns of headroom for the displacement operator
MONOMIAL_DEGREE_MAX = 4  # per mode


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
    """Raised when truncation leakage exceeds the oracle's validity threshold."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            f"truncation leakage above threshold: norm defect {report.norm_defect:.3e}, "
            f"top-shell occupations {tuple(f'{t:.3e}' for t in report.top_shell)}"
        )


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


@functools.cache
def _pair_generators(size):
    """(a1 a2 - h.c., a1 a3 - h.c., a2 a3 - h.c.) as sparse matrices, per-mode size ``size``.

    Each pair product is a single Kronecker product of ladder matrices, so
    every matrix is exactly antisymmetric (real entries) in the truncated
    basis.  Callers only scale and add them, which makes new matrices.
    """
    import scipy.sparse  # deferred like every scipy import here: only the oracle needs it

    lower = scipy.sparse.diags(np.sqrt(np.arange(1, size)), offsets=1, format="csr")
    eye = scipy.sparse.identity(size, format="csr")
    pairs = (
        scipy.sparse.kron(scipy.sparse.kron(lower, lower), eye, format="csr"),
        scipy.sparse.kron(scipy.sparse.kron(lower, eye), lower, format="csr"),
        scipy.sparse.kron(eye, scipy.sparse.kron(lower, lower), format="csr"),
    )
    return tuple((pair - pair.T).tocsr() for pair in pairs)


def build_generator(params: SqueezeParams, cutoff: FockCutoff):
    """Sparse matrix of r1(a1 a2 - h.c.) + r2(a1 a3 - h.c.) + r3(a2 a3 - h.c.).

    The three pair matrices have disjoint support, so each entry is one
    coupling times one ladder product, exactly antisymmetric.
    """
    r1, r2, r3 = params.as_tuple()
    a12, a13, a23 = _pair_generators(cutoff.size)
    return r1 * a12 + r2 * a13 + r3 * a23


class SqueezePropagator:
    """Sparse generator K for one parameter set; ``apply`` returns exp(K) psi."""

    def __init__(self, params: SqueezeParams, cutoff: FockCutoff):
        self.params = params
        self.cutoff = cutoff
        self.generator = build_generator(params, cutoff)

    def apply(self, state: TruncatedState) -> TruncatedState:
        import scipy.sparse.linalg

        if state.cutoff != self.cutoff:
            raise ValueError("state and propagator cutoffs differ")
        flat = scipy.sparse.linalg.expm_multiply(self.generator, state.amplitudes.reshape(-1))
        return TruncatedState(
            amplitudes=flat.reshape(state.amplitudes.shape), cutoff=self.cutoff
        )


def apply_squeeze(propagator: SqueezePropagator, state: TruncatedState) -> TruncatedState:
    """Evolve a truncated state through exp(K), refusing on leakage at or above LEAKAGE_TOL."""
    evolved = propagator.apply(state)
    report = truncation_report(evolved)
    if not report.ok():
        raise TruncationLeakageError(report)
    return evolved


def _apply_ladder(amps, axis, raising=False):
    """a (or a+ when ``raising``) on one axis; a+ drops what leaves the top shell."""
    moved = np.moveaxis(amps, axis, 0)
    out = np.zeros_like(moved)
    size = moved.shape[0]
    weights = np.sqrt(np.arange(1, size)).reshape((-1,) + (1,) * (moved.ndim - 1))
    if raising:
        out[1:] = weights * moved[:-1]
    else:
        out[:-1] = weights * moved[1:]
    return np.moveaxis(out, 0, axis)


def oracle_expectation(state: TruncatedState, monomial) -> complex:
    """<psi| a1+^p1 a2+^p2 a3+^p3 a1^q1 a2^q2 a3^q3 |psi> by direct contraction."""
    key = tuple(int(v) for v in monomial)
    if len(key) != 6 or min(key) < 0:
        raise ValueError("monomial must be six nonnegative integer powers")
    if max(key) > MONOMIAL_DEGREE_MAX:
        raise ValueError(f"per-mode monomial degree is capped at {MONOMIAL_DEGREE_MAX}")
    bra = state.amplitudes
    ket = state.amplitudes
    for axis in range(3):
        for _ in range(key[axis]):
            bra = _apply_ladder(bra, axis)
        for _ in range(key[3 + axis]):
            ket = _apply_ladder(ket, axis)
    return complex(np.vdot(bra, ket))


def quadrature_stats(state: TruncatedState, c1: int, c2: int):
    """(<X>, <dX^2>, <Y>, <dY^2>) for the weighted quadratures (1, c1, c2).

    Built by applying the ladder maps mode by mode, with no normal-ordering
    algebra involved.
    """
    amps = state.amplitudes
    xvec = np.zeros_like(amps)
    yvec = np.zeros_like(amps)
    for axis, weight in enumerate((1.0, float(c1), float(c2))):
        if weight == 0.0:
            continue
        lowered = _apply_ladder(amps, axis)
        raised = _apply_ladder(amps, axis, raising=True)
        xvec += 0.5 * weight * (lowered + raised)
        yvec += -0.5j * weight * (lowered - raised)
    out = []
    for vec in (xvec, yvec):
        mean = float(np.vdot(amps, vec).real)
        square = float(np.vdot(vec, vec).real)
        out.extend((mean, square - mean * mean))
    return tuple(out)


def reduced_density(state: TruncatedState, mode: int) -> np.ndarray:
    """Single-mode density matrix by partial trace over the other two modes."""
    axes = [0, 1, 2]
    axes.remove(_mode_index(mode))
    return np.tensordot(state.amplitudes, state.amplitudes.conj(), axes=(axes, axes))


def oracle_wigner(rho: np.ndarray, z: complex, s: int) -> float:
    """Quasidistribution of a single-mode density matrix.

    s=0 uses the displaced-parity form (2/pi) Tr[rho D(z) P D(-z)]; s=-1 is
    the Husimi value <z|rho|z>/pi.  The top Fock occupation must be negligible
    for the truncated value to stand in for the exact one; WIGNER_PAD zero
    rows/columns give the displacement operator headroom above the state's
    support (without it, |z| ~ 1.4 points lose ~1e-4 of accuracy).
    """
    rho = np.asarray(rho)
    size = rho.shape[0]
    if rho.shape != (size, size):
        raise ValueError("rho must be square")
    if abs(rho[-1, -1]) > WIGNER_TAIL_TOL:
        raise TruncationLeakageError(
            TruncationReport(norm_defect=0.0, top_shell=(abs(rho[-1, -1]),) * 3)
        )
    if s == -1:
        coh = _coherent_vector(complex(z), size)
        return float(np.real(coh.conj() @ rho @ coh) / math.pi)
    if s != 0:
        raise ValueError("oracle quasidistributions support s in {-1, 0} only")
    import scipy.linalg

    padded_size = size + WIGNER_PAD
    padded = np.zeros((padded_size, padded_size), dtype=complex)
    padded[:size, :size] = rho
    lower = np.diag(np.sqrt(np.arange(1, padded_size)), k=1)
    displaced = scipy.linalg.expm(complex(z) * lower.T - np.conj(complex(z)) * lower)
    parity = (-1.0) ** np.arange(padded_size)
    transformed = displaced.conj().T @ padded @ displaced
    return float((2.0 / math.pi) * np.real(np.sum(np.diag(transformed) * parity)))


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

    def oracle_moment(*modes):
        """<a_j+ a_k+ ... a_j a_k ...> of the evolved state, one power per listed mode."""
        mono = [0] * 6
        for mode in modes:
            mono[mode - 1] += 1
            mono[mode + 2] += 1
        return oracle_expectation(evolved, mono).real

    analytic = _moment_table(
        functools.partial(mean_photon, coeffs, state),
        functools.partial(intensity_correlation, coeffs, state),
        functools.partial(cross_correlation, coeffs, state),
    )
    oracle = _moment_table(oracle_moment, lambda m: oracle_moment(m, m), oracle_moment)
    for name, value in analytic.items():
        record(name, value, oracle[name])
    for c1, c2 in ((0, 0), (1, 0), (1, 1)):
        var_x, var_y = quadrature_variances(coeffs, QuadratureSelector(c1, c2), state)
        _, ovar_x, _, ovar_y = quadrature_stats(evolved, c1, c2)
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
