"""Seeded invocation generator for the benchmark workloads.

Each workload repeats a fixed *block*: a list of invocation classes, each a
subcommand at a fixed size (rows, grid points per axis or oracle cutoff) and
input kind.  The seed draws everything else per block and class: couplings,
states, sweep ranges, modes, the ordering parameter and the order in which
the block's invocations run.  Fixing the mix of sizes keeps the cost
distribution, and so the median and tail invocation times, the same from
seed to seed; the seed still changes every input the program sees.

Block ``b`` of workload ``w`` under seed ``s`` depends only on ``(w, s, b)``,
so a run may generate as many blocks as its time allows.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

DEFAULT_SEED = 0


class Invocation(NamedTuple):
    kind: str        # invocation class, e.g. "cs-sweep" or "wigner-grid numeric"
    argv: list       # CLI arguments, without --out
    values: int      # output values expected: CSV rows, grid points or oracle quantities
    tolerance: str   # reference tolerance tier, see check.TOLERANCE


WHY = {
    "sweeps": "moment-engine sweeps (squeeze, g2, cs) over the figure-set coupling families; "
              "ladder normal ordering does the work",
    "phase_space": "mode-1 quasiprobability grids and origin sweeps, closed forms plus forced "
                   "quadrature; quasiprob and cli formatting do the work",
    "oracle": "truncated-Fock oracle checks at cutoff 12 inside the leakage envelope; the "
              "dense expm propagator does the work",
}

# (subcommand, size, input kind, one-line reason).  Sizes are rows for sweeps,
# points per axis for grids and the Fock cutoff for the oracle.
BLOCKS = {
    # Invocations sort into cost tiers; the median and the tail rank (ten from
    # the top) each fall inside a tier of alike invocations, so that small
    # shifts in the number of blocks a run completes do not move them.
    "sweeps": [
        ("squeeze-sweep", 6, "coherent", "short squeeze sweep: per-state set-up beside few rows"),
        ("squeeze-sweep", 12, "fock", "short squeeze sweep of a number state"),
        ("squeeze-sweep", 24, "coherent", "medium squeeze sweep"),
        ("g2-sweep", 4, "fock", "short g2 sweep"),
        ("g2-sweep", 8, "fock", "short g2 sweep"),
    ] + [
        ("cs-sweep", 4, "coherent", "few-row cs sweep: the median tier")
    ] * 7 + [
        ("g2-sweep", 16, "fock", "medium g2 sweep"),
        ("cs-sweep", 8, "fock", "short cs sweep of a number state"),
        ("squeeze-sweep", 240, "fock", "figure-length squeeze sweep, the cheapest moment per row"),
        ("g2-sweep", 80, "fock", "long g2 sweep, fourth moments of one mode"),
        ("cs-sweep", 32, "fock", "medium cs sweep, in the tier that sets the tail"),
        ("cs-sweep", 32, "coherent", "medium cs sweep, in the tier that sets the tail"),
        ("cs-sweep", 240, "coherent", "figure-length cs sweep: most of the figure set's time"),
    ],
    "phase_space": [
        ("origin-sweep", 51, "closed", "short origin sweep, closed form per row"),
        ("origin-sweep", 151, "closed", "origin sweep"),
        ("origin-sweep", 301, "closed", "figure-length origin sweep"),
        ("wigner-grid", 61, "closed", "small closed grid"),
    ] + [
        ("wigner-grid", 101, "closed", "closed grid: the median tier, cost mostly CSV formatting")
    ] * 3 + [
        ("wigner-grid", 141, "closed", "large closed grid"),
    ] + [
        ("wigner-grid", 161, "numeric", "pattern without a closed form: adaptive quadrature")
    ] * 3,
    # One cutoff only: with 10-15 invocations a run, the tail rank (ten from
    # the top) would otherwise hop between the cutoff-11 and cutoff-12 costs.
    "oracle": [
        ("oracle-verify", 12, "fock-closed", "number state with closed-form Wigner checks"),
        ("oracle-verify", 12, "coherent", "complex coherent input"),
        ("oracle-verify", 12, "fock", "number state without a closed-form pattern"),
    ],
}

# |r| range per cutoff that keeps the top Fock shell below the oracle's 1e-8
# leakage guard for every input drawn below (worst case found ~2e-9 at
# cutoff 12; |r| = 0.25 exceeds the guard, ~3.6e-8 for n=1,1,1).
ORACLE_R = {12: (0.05, 0.18)}
ORACLE_ALPHA = (0.1, 0.5)

WARMUPS = {
    "sweeps": [
        ["squeeze-sweep", "--r", "0:0.5:2", "--c1", "1", "--c2", "1", "--state", "n=0,0,0"],
        ["g2-sweep", "--r", "0.1:0.5:2", "--state", "n=1,1,1", "--mode", "1"],
        ["cs-sweep", "--r", "0.1:0.5:2", "--state", "alpha=1,1,1", "--j", "1", "--k", "2"],
    ],
    "phase_space": [
        ["wigner-grid", "--r", "0.5", "--state", "n=0,0,1", "--x=-4:4:41", "--y=-4:4:41"],
        ["wigner-grid", "--r", "0.5", "--state", "n=1,1,1", "--x=-6:6:121", "--y=-6:6:121"],
        ["origin-sweep", "--r", "0:2:11", "--state", "n=0,0,1"],
    ],
    "oracle": [
        ["oracle-verify", "--r", "0.05", "--state", "n=0,0,0", "--cutoff", "10"],
    ],
}

_CLOSED_PATTERNS = ("vacuum", "mode1", "mode3")
_NUMERIC_PATTERNS = ((0, 1, 0), (0, 2, 0), (1, 1, 1), (1, 0, 1), (2, 0, 1), (0, 1, 1), (1, 1, 0))
_ORACLE_CLOSED = ((0, 0, 0), (1, 0, 0), (0, 0, 1))
_ORACLE_OPEN = ((1, 1, 1), (1, 1, 0), (0, 1, 1), (1, 0, 1), (0, 1, 0))


def _num(x):
    return f"{x:.4f}"


def _fock(ns):
    return "n=" + ",".join(str(n) for n in ns)


def _coherent(rng, lo, hi):
    amps = []
    for _ in range(3):
        radius, phase = rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * math.pi)
        amps.append(f"{radius * math.cos(phase):.4f}{radius * math.sin(phase):+.4f}i")
    return "alpha=" + ",".join(amps)


def _sweep_couplings(rng, rows, stop_lo, stop_hi):
    """A symmetric sweep or an r1 sweep at fixed (r2, r3), as in the figure set.

    Symmetric sweeps start at 0.005 because g2 and V of an empty mode are
    undefined at zero coupling; r1 sweeps may start at 0 since r2, r3 > 0.
    """
    stop = _num(rng.uniform(stop_lo, stop_hi))
    if rng.random() < 0.5:
        return ["--r", f"0.005:{stop}:{rows}"]
    return ["--r1", f"0:{stop}:{rows}", "--r2", _num(rng.uniform(0.05, 0.6)),
            "--r3", _num(rng.uniform(0.05, 0.6))]


def _sweep(rng, sub, rows, kind):
    fock = _fock([rng.randint(0, 2) for _ in range(3)])
    state = fock if kind == "fock" else _coherent(rng, 0.3, 1.5)
    if sub == "squeeze-sweep":
        return (_sweep_couplings(rng, rows, 0.5, 1.0)
                + ["--c1", str(rng.randint(0, 1)), "--c2", str(rng.randint(0, 1)), "--state", state])
    if sub == "g2-sweep":
        return _sweep_couplings(rng, rows, 0.5, 1.0) + ["--state", fock, "--mode", str(rng.randint(1, 3))]
    j, k = rng.sample((1, 2, 3), 2)
    return _sweep_couplings(rng, rows, 1.0, 2.0) + ["--state", state, "--j", str(j), "--k", str(k)]


def _closed_pattern(rng):
    n = rng.randint(1, 3)
    return {"vacuum": (0, 0, 0), "mode1": (n, 0, 0), "mode3": (0, 0, n)}[rng.choice(_CLOSED_PATTERNS)]


def grid_half_width(r, ns, s):
    """Phase-space half-width holding the mode-1 distribution (same rule as the package).

    Computed here from the couplings, not by the package, so the inputs do
    not change when the package does.
    """
    import numpy as np

    rmat = np.array([[0.0, r[0], r[1]], [r[0], 0.0, r[2]], [r[1], r[2], 0.0]])
    w, v = np.linalg.eigh(rmat)
    c = (v * np.cosh(w)) @ v.T
    d = -(v * np.sinh(w)) @ v.T
    lambda1 = float(c[0] @ c[0] + d[0] @ d[0])
    lambda2 = float(c[0] @ d[0])
    theta = 0.5 * (lambda1 - s) + abs(lambda2)
    return math.sqrt(theta) * (4.0 + 1.5 * math.sqrt(sum(ns))) + 1.0


def _grid(rng, size, kind):
    ns = _closed_pattern(rng) if kind == "closed" else rng.choice(_NUMERIC_PATTERNS)
    s = rng.choice((0, -1))
    # Symmetric or strong couplings give anisotropic kernels whose quadrature
    # needs 512 nodes instead of 256 (about one numeric grid in ten for
    # |r| <= 0.9).  Numeric grids draw weaker asymmetric couplings, so the
    # costlier grids stay fewer than the ten above the tail rank and the tail
    # stays inside one cost tier.
    if kind == "closed" and rng.random() < 0.3:
        r = (rng.uniform(0.2, 0.9),) * 3
        couplings = ["--r", _num(r[0])]
    else:
        r_max = 0.9 if kind == "closed" else 0.5
        r = tuple(rng.uniform(0.1, r_max) for _ in range(3))
        couplings = ["--r1", _num(r[0]), "--r2", _num(r[1]), "--r3", _num(r[2])]
    r = tuple(float(_num(x)) for x in r)
    half = f"{grid_half_width(r, ns, s):.3f}"
    axis = f"-{half}:{half}:{size}"
    return couplings + ["--state", _fock(ns), "--s", str(s), f"--x={axis}", f"--y={axis}"]


def _origin(rng, rows):
    stop = _num(rng.uniform(2.0, 6.0))
    if rng.random() < 0.5:
        couplings = ["--r", f"0:{stop}:{rows}"]
    else:
        couplings = ["--r1", _num(rng.uniform(0.2, 1.0)), "--r2", _num(rng.uniform(0.2, 1.0)),
                     "--r3", f"0:{stop}:{rows}"]
    return couplings + ["--state", _fock(_closed_pattern(rng)), "--s", str(rng.choice((0, -1)))]


def _oracle(rng, cutoff, kind):
    lo, hi = ORACLE_R[cutoff]
    r = [rng.choice((-1, 1)) * rng.uniform(lo, hi) for _ in range(3)]
    if kind == "coherent":
        state = _coherent(rng, *ORACLE_ALPHA)
    else:
        state = _fock(rng.choice(_ORACLE_CLOSED if kind == "fock-closed" else _ORACLE_OPEN))
    return ["--r1", _num(r[0]), "--r2", _num(r[1]), "--r3", _num(r[2]),
            "--state", state, "--cutoff", str(cutoff)]


def block(workload, seed, index):
    """Invocations of block ``index``, in their seeded run order."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    out = []
    for sub, size, kind, _why in BLOCKS[workload]:
        if workload == "sweeps":
            out.append(Invocation(sub, [sub] + _sweep(rng, sub, size, kind), size, "exact"))
        elif sub == "origin-sweep":
            out.append(Invocation(sub, [sub] + _origin(rng, size), size, "exact"))
        elif sub == "wigner-grid":
            tier = "quadrature" if kind == "numeric" else "exact"
            out.append(Invocation(f"{sub} {kind}", [sub] + _grid(rng, size, kind), size * size, tier))
        else:
            # 21 moment quantities, plus 3 Wigner values for closed-form patterns
            quantities = 24 if kind == "fock-closed" else 21
            out.append(Invocation(sub, [sub] + _oracle(rng, size, kind), quantities, "exact"))
    rng.shuffle(out)
    return out
