"""Brute-force ground truth on a truncated three-mode Fock space.

The squeeze unitary acts directly on the state: the generator is assembled
from Kronecker products of single-mode ladder matrices (exactly antisymmetric
in the truncated basis, so the propagator is exactly orthogonal there) and
exp(K) psi is computed from the sparse K by the truncated-Taylor action of
Al-Mohy & Higham (SIAM J. Sci. Comput. 33, 2011), never forming exp(K).
Every moment and single-mode quasiprobability is then recomputed by tensor
contractions that share no algebra with the closed forms they validate.

Truncation is guarded, not hidden: each evolved state carries a leakage
report (norm defect and per-mode top-shell occupation) and the oracle refuses
to answer when the top shell is populated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ladder import InputState, NumberState, _mode_index
from .symplectic import SqueezeParams

CUTOFF_MIN = 4
CUTOFF_MAX = 15
LEAKAGE_TOL = 1e-8
WIGNER_TAIL_TOL = 1e-8
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

    def ok(self, tol=LEAKAGE_TOL):
        return self.max_metric < tol


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

    @property
    def norm(self):
        return float(np.linalg.norm(self.amplitudes))


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


def apply_squeeze(
    state: TruncatedState,
    params: SqueezeParams,
    cutoff: FockCutoff | None = None,
    *,
    max_leakage: float = LEAKAGE_TOL,
    propagator: SqueezePropagator | None = None,
) -> TruncatedState:
    """Evolve a truncated state through exp(K), refusing on excessive leakage."""
    if propagator is None:
        propagator = SqueezePropagator(params, cutoff or state.cutoff)
    evolved = propagator.apply(state)
    report = truncation_report(evolved)
    if not report.ok(max_leakage):
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


def oracle_wigner(rho: np.ndarray, z: complex, s: int, pad: int = 16) -> float:
    """Quasidistribution of a single-mode density matrix.

    s=0 uses the displaced-parity form (2/pi) Tr[rho D(z) P D(-z)]; s=-1 is
    the Husimi value <z|rho|z>/pi.  The top Fock occupation must be negligible
    for the truncated value to stand in for the exact one; ``pad`` zero
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

    padded_size = size + max(int(pad), 0)
    padded = np.zeros((padded_size, padded_size), dtype=complex)
    padded[:size, :size] = rho
    lower = np.diag(np.sqrt(np.arange(1, padded_size)), k=1)
    displaced = scipy.linalg.expm(complex(z) * lower.T - np.conj(complex(z)) * lower)
    parity = (-1.0) ** np.arange(padded_size)
    transformed = displaced.conj().T @ padded @ displaced
    return float((2.0 / math.pi) * np.real(np.sum(np.diag(transformed) * parity)))
