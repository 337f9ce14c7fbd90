"""Acceptance suite: one printed PASS/FAIL line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  Two
criteria (the V12 zero-crossing location and the odd-excitation origin
negativity sweep) restate results whose literature closed forms carry known
misprints; they are executed exactly as stated, print FAIL, and are marked
strict xfail.  The corrected, oracle-verified behavior is asserted green
right next to them.  Full analysis lives outside the package in the project
notes.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from trisqueeze.fock_oracle import (
    FockCutoff,
    SqueezePropagator,
    TruncatedState,
    apply_squeeze,
    oracle_report,
    oracle_wigner,
    reduced_density,
)
from trisqueeze.ladder import InputState
from trisqueeze.moments import QuadratureSelector, cauchy_schwarz, g2, squeezing
from trisqueeze.quasiprob import (
    laguerre,
    wigner_closed,
    wigner_excited,
    wigner_numeric,
    wigner_origin,
    wigner_vacuum,
)
from trisqueeze.symplectic import (
    BogoliubovCoeffs,
    SqueezeParams,
    bogoliubov_coeffs,
    symplectic_check,
)

from reference_moments import subpoisson_certificate, symmetric_coeffs_closed
from reference_quasiprob import riemann_sum, suggest_half_width

VACUUM = InputState.vacuum()


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_c01_symmetric_closed_form_equivalence():
    worst = 0.0
    for k in range(1, 31):
        r = 0.1 * k
        spectral = bogoliubov_coeffs(SqueezeParams.symmetric(r))
        closed = symmetric_coeffs_closed(r)
        worst = max(
            worst,
            float(np.max(np.abs(spectral.c - closed.c))),
            float(np.max(np.abs(spectral.d - closed.d))),
        )
    report(1, worst < 1e-12, f"spectral vs printed closed forms, max |delta| = {worst:.2e}")


def test_c02_symplectic_residuals():
    rng = np.random.default_rng(20240801)
    worst = 0.0
    for _ in range(200):
        coeffs = bogoliubov_coeffs(SqueezeParams(*rng.uniform(0.0, 2.0, 3)))
        norm, comm = symplectic_check(coeffs)
        worst = max(worst, norm.max(), comm.max())
    report(2, worst < 1e-10, f"200 random triples in [0,2]^3, max residual = {worst:.2e}")


def test_c03_two_mode_squeezing_extremum():
    sel = QuadratureSelector(1, 0)
    rs = np.linspace(0.0, 1.0, 2001)
    sx = np.array(
        [squeezing(bogoliubov_coeffs(SqueezeParams.symmetric(float(r))), sel, VACUUM)[0]
         for r in rs]
    )
    r_min = float(rs[np.argmin(sx)])
    s_min = float(sx.min())
    after_min = np.nonzero((rs > r_min) & (sx >= 0.0))[0]
    r_zero = float(rs[after_min[0]])
    ok = (
        abs(r_min - 0.231) <= 0.0005
        and abs(s_min - (-0.206)) <= 5e-4
        and abs(r_zero - 0.5025) <= 0.001
    )
    report(3, ok, f"argmin {r_min:.4f} (0.231±0.0005), min {s_min:.5f} (-0.206±5e-4), "
                  f"zero {r_zero:.4f} (0.5025±0.001)")


def test_c04_three_mode_exponential_law():
    sel = QuadratureSelector(1, 1)
    worst = 0.0
    for r in np.linspace(0.0, 2.0, 81):
        coeffs = bogoliubov_coeffs(SqueezeParams.symmetric(float(r)))
        sx, _ = squeezing(coeffs, sel, VACUUM)
        worst = max(worst, abs(sx - (math.exp(-4.0 * r) - 1.0)))
    report(4, worst < 1e-12, f"S_x vs exp(-4r)-1 over [0,2], max |delta| = {worst:.2e}")


def test_c05_no_single_mode_squeezing():
    rng = np.random.default_rng(20240802)
    sel = QuadratureSelector(0, 0)
    floor = 0.0
    for _ in range(200):
        coeffs = bogoliubov_coeffs(SqueezeParams(*rng.uniform(0.0, 2.0, 3)))
        sx, sy = squeezing(coeffs, sel, VACUUM)
        floor = min(floor, sx, sy)
    report(5, floor >= -1e-12, f"200 random asymmetric triples, min(Sx, Sy) = {floor:.2e}")


# the moment, ratio and variance entries of every oracle report, in report order
_REPORT_MOMENTS = [
    "mean_n1", "intensity_1", "g2_1", "mean_n2", "intensity_2", "g2_2",
    "mean_n3", "intensity_3", "g2_3", "cross_n1n2", "v_12", "cross_n1n3", "v_13",
    "cross_n2n3", "v_23", "var_x_c00", "var_y_c00", "var_x_c10", "var_y_c10",
    "var_x_c11", "var_y_c11",
]


def test_c06_oracle_equivalence_suite():
    rng = np.random.default_rng(614)
    cutoff = FockCutoff(14)
    states = (
        VACUUM,
        InputState.number(1, 1, 1),
        InputState.number(1, 0, 2),
        InputState.coherent(0.5, 0.4 - 0.3j, 0.5j),
    )
    wigner_state = InputState.number(0, 0, 1)
    z_points = (0j, 0.5 + 0.3j, -0.4 + 0.9j, 1.1 - 0.2j)

    worst_moment = 0.0
    worst_wigner = 0.0
    for _ in range(30):
        triple = rng.uniform(0.05, 0.27, 3)
        params = SqueezeParams(*triple)
        assert max(triple) <= 0.6
        coeffs = bogoliubov_coeffs(params)
        propagator = SqueezePropagator(params, cutoff)

        for state in states:
            # oracle_report refuses (TruncationLeakageError) past the leakage guard
            quantities = oracle_report(propagator, state)["quantities"]
            assert [q["name"] for q in quantities[:21]] == _REPORT_MOMENTS
            for q in quantities[:21]:
                # g2 and V are differences near zero: relative to max(|oracle|, 1e-3)
                floor = 1e-3 if q["name"].startswith(("g2_", "v_")) else 0.0
                error = abs(q["analytic"] - q["oracle"]) / max(abs(q["oracle"]), floor)
                worst_moment = max(worst_moment, error)
            for q in quantities[21:]:  # the closed-form W/Q points of a vacuum report
                worst_wigner = max(worst_wigner, abs(q["analytic"] - q["oracle"]))

        evolved = apply_squeeze(propagator, TruncatedState.from_input_state(wigner_state, cutoff))
        rho1 = reduced_density(evolved, 1)
        for z in z_points:
            for s in (0, -1):
                closed = float(wigner_excited(coeffs, 1, "mode3", z, s))
                worst_wigner = max(worst_wigner, abs(closed - oracle_wigner(rho1, z, s)))
        evolved_vac = apply_squeeze(propagator, TruncatedState.from_input_state(VACUUM, cutoff))
        rho1_vac = reduced_density(evolved_vac, 1)
        for z in (0j, 0.8 - 0.5j):
            closed = float(wigner_vacuum(coeffs, z, 0))
            worst_wigner = max(worst_wigner, abs(closed - oracle_wigner(rho1_vac, z, 0)))

    ok = worst_moment < 1e-6 and worst_wigner < 1e-5
    report(6, ok, f"30 triples at N=14: moments rel {worst_moment:.2e} (<1e-6), "
                  f"Wigner points {worst_wigner:.2e} (<1e-5)")


def _g2_symmetric(r):
    return g2(bogoliubov_coeffs(SqueezeParams.symmetric(float(r))), InputState.number(1, 1, 1), 1)


def _v12_symmetric(r):
    return cauchy_schwarz(
        bogoliubov_coeffs(SqueezeParams.symmetric(float(r))), InputState.number(1, 1, 1), 1, 2
    )


def test_c07_g2_crossing_and_v12_reference():
    crossing = brentq(_g2_symmetric, 0.1, 0.6, xtol=1e-9)
    v_at_zero = cauchy_schwarz(BogoliubovCoeffs.identity(), InputState.number(1, 1, 1), 1, 2)
    ok = abs(crossing - 0.30) <= 0.05 and abs(v_at_zero - (-1.0)) < 1e-12
    report("7 (g2, V12(0))", ok,
           f"g2 crossing {crossing:.4f} (0.30±0.05), V12(0) = {v_at_zero:.12f} (-1)")


@pytest.mark.xfail(
    strict=True,
    reason="true V12 zero crossing for |1,1,1> is r = 1.3351 (oracle-verified engine); "
    "the stated 1.0±0.15 reads a plotted curve whose value at r=1.0 is -0.003: "
    "visually zero but not a sign change. See project notes.",
)
def test_c07_v12_crossing_as_stated():
    crossing = brentq(_v12_symmetric, 0.5, 2.0, xtol=1e-9)
    ok = abs(crossing - 1.0) <= 0.15
    report("7 (V12 crossing, as stated)", ok, f"V12 crossing {crossing:.4f} vs 1.0±0.15")


def test_c07_v12_corrected_behavior():
    crossing = brentq(_v12_symmetric, 0.5, 2.0, xtol=1e-9)
    ok = (
        abs(crossing - 1.33515) < 2e-3
        and abs(_v12_symmetric(1.0)) < 5e-3
        and _v12_symmetric(0.3) < _v12_symmetric(0.8) < 0.0
    )
    report("7 (V12, corrected)", ok,
           f"crossing {crossing:.5f} (frozen 1.33515), |V12(1.0)| = {abs(_v12_symmetric(1.0)):.2e}")


def test_c08_coherent_inputs_stay_classical():
    rng = np.random.default_rng(20240803)
    floor = 0.0
    for _ in range(100):
        coeffs = bogoliubov_coeffs(SqueezeParams(*rng.uniform(0.0, 1.5, 3)))
        alphas = rng.uniform(-1.5, 1.5, 3) + 1j * rng.uniform(-1.5, 1.5, 3)
        state = InputState.coherent(*alphas)
        floor = min(floor, min(g2(coeffs, state, m) for m in (1, 2, 3)))
    report(8, floor >= -1e-10, f"100 random coherent samples, min g2 = {floor:.2e}")


def test_c09_certificate_identity():
    worst_dev = 0.0
    floor = 0.0
    for r in np.linspace(0.0, 2.0, 21):
        coeffs = bogoliubov_coeffs(SqueezeParams.symmetric(float(r)))
        f1, f2, g1, g2_, _, _ = coeffs.mode_row(1)
        for n in range(5):
            value = subpoisson_certificate(coeffs, n)
            sum_of_squares = (
                f2 ** 4
                + 2 * n * (n - 1) * g1 ** 4
                + 2 * (n + 1) * (n + 2) * g2_ ** 4
                + (f1 * f2 + 2 * (2 * n + 1) * g1 * g2_) ** 2
                + 4 * f2 ** 2 * (n * g1 ** 2 + (n + 1) * g2_ ** 2)
            )
            worst_dev = max(worst_dev, abs(value - sum_of_squares) / max(1.0, abs(value)))
            floor = min(floor, value)
    ok = worst_dev < 1e-10 and floor >= -1e-12
    report(9, ok, f"r in [0,2], n <= 4: identity dev {worst_dev:.2e}, min value {floor:.2e}")


_R3_SWEEP = np.linspace(0.0, 6.0, 121)


def _origin_curve(n3):
    return np.array(
        [wigner_origin(bogoliubov_coeffs(SqueezeParams(0.6, 0.8, float(r3))), n3, 0)
         for r3 in _R3_SWEEP]
    )


@pytest.mark.xfail(
    strict=True,
    reason="the literature origin-value closed form carries a misprint; the corrected "
    "form (verified against quadrature and the Fock oracle) gives W(0,0) >= 0 for "
    "every (0,0,n3) input, so the odd-n3 sign rule and the claimed negativity "
    "window have no onset/peak to locate. See project notes.",
)
def test_c10_parity_and_origin_sweep_as_stated():
    sign_ok = True
    for n3 in (1, 2, 3):
        for r3 in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            value = wigner_origin(bogoliubov_coeffs(SqueezeParams(0.6, 0.8, r3)), n3, 0)
            if abs(value) > 1e-10 and math.copysign(1.0, value) != (-1.0) ** n3:
                sign_ok = False
    curve = _origin_curve(1)
    negative = _R3_SWEEP[curve < 0.0]
    onset = float(negative[0]) if negative.size else math.inf
    peak = float(_R3_SWEEP[np.argmin(curve)]) if negative.size else math.inf
    tail = abs(curve[np.argmin(np.abs(_R3_SWEEP - 5.0))])
    ok = (
        sign_ok
        and abs(onset - 1.0) <= 0.3
        and abs(peak - 2.0) <= 0.3
        and tail < 0.01 / math.pi
    )
    report("10 (as stated)", ok,
           f"parity sign rule {'holds' if sign_ok else 'fails for odd n3'}; "
           f"negative onset {onset} (want 1.0±0.3), peak {peak} (want 2.0±0.3), "
           f"|W(r3=5)| = {tail:.2e}")


def test_c10_corrected_origin_behavior():
    curves = {n3: _origin_curve(n3) for n3 in (1, 2, 3)}
    nonnegative = all(curve.min() >= -1e-12 for curve in curves.values())
    tail = abs(curves[1][np.argmin(np.abs(_R3_SWEEP - 5.0))])
    rng = np.random.default_rng(20240804)
    box_floor = min(
        wigner_origin(bogoliubov_coeffs(SqueezeParams(*rng.uniform(0, 4, 3))), n3, 0)
        for n3 in (1, 2, 3)
        for _ in range(40)
    )
    # photon in the observed mode: negativity at weak coupling, washed out later
    mode1_first = float(
        wigner_excited(bogoliubov_coeffs(SqueezeParams(0.6, 0.8, 0.0)), 1, "mode1", 0j, 0)
    )
    mode1_late = float(
        wigner_excited(bogoliubov_coeffs(SqueezeParams(0.6, 0.8, 4.5)), 1, "mode1", 0j, 0)
    )
    ok = (
        nonnegative
        and box_floor >= -1e-12
        and tail < 0.01 / math.pi
        and mode1_first < -0.04
        and abs(mode1_late) < 0.012
    )
    report("10 (corrected)", ok,
           f"(0,0,n3) origin floor {min(c.min() for c in curves.values()):.2e} (>=0), "
           f"|W(r3=5)| = {tail:.2e} (<0.01/pi), "
           f"(1,0,0) origin {mode1_first:.4f} -> {mode1_late:.4f}")


def test_c11_quasiprobability_consistency():
    cases = [
        (SqueezeParams.symmetric(0.5), (0, 0, 0)),
        (SqueezeParams.symmetric(0.5), (0, 0, 1)),
        (SqueezeParams(0.4, 0.3, 0.7), (1, 0, 0)),
        (SqueezeParams(0.6, 0.8, 1.1), (0, 0, 2)),
    ]
    xs = np.linspace(-4.0, 4.0, 101)
    worst_grid = 0.0
    for params, ns in cases:
        coeffs = bogoliubov_coeffs(params)
        grid = wigner_numeric(coeffs, ns, xs, xs, 0)
        closed = wigner_closed(coeffs, ns, xs[:, None] + 1j * xs[None, :], 0)
        worst_grid = max(worst_grid, float(np.max(np.abs(grid - closed))))

    rng = np.random.default_rng(20240805)
    worst_laguerre = 0.0
    for _ in range(50):
        m = int(rng.integers(0, 11))
        tau1, tau2 = rng.choice([-0.5, 0.0, 0.5], 2)
        x, y = rng.uniform(0.0, 5.0, 2)
        total = sum(laguerre(i, tau1, x) * laguerre(m - i, tau2, y) for i in range(m + 1))
        worst_laguerre = max(worst_laguerre, abs(total - laguerre(m, tau1 + tau2 + 1.0, x + y)))

    zs = np.array([0j, 0.3 + 0.2j, 1.0 - 0.6j, 1.5j, 2.2 + 0.4j])
    rho2 = np.abs(zs) ** 2
    worst_fock = 0.0
    for n in range(6):
        printed = (
            (2.0 * (-1.0) ** n / math.pi)
            * np.exp(-2.0 * rho2)
            * laguerre(n, 0.0, 4.0 * rho2)
        )
        got = wigner_excited(BogoliubovCoeffs.identity(), n, "mode1", zs, 0)
        worst_fock = max(worst_fock, float(np.max(np.abs(got - printed))))

    ok = worst_grid < 1e-6 and worst_laguerre < 1e-10 and worst_fock < 1e-12
    report(11, ok, f"numeric-vs-closed {worst_grid:.2e} (<1e-6), Laguerre addition "
                   f"{worst_laguerre:.2e} (<1e-10), zero-coupling Fock form {worst_fock:.2e} (<1e-12)")


def test_c12_q_positivity_and_normalization():
    cases = [
        (SqueezeParams(0.5, 0.7, 0.9), (0, 0, 1)),
        (SqueezeParams(0.3, 0.2, 0.4), (1, 0, 0)),
        (SqueezeParams(0.4, 0.6, 0.5), (1, 1, 1)),
        (SqueezeParams.symmetric(0.5), (0, 0, 2)),
    ]
    q_floor = 0.0
    worst_norm = 0.0
    for params, ns in cases:
        coeffs = bogoliubov_coeffs(params)
        for s in (-1, 0):
            hw = suggest_half_width(coeffs, ns, s)
            xs = np.linspace(-hw, hw, 181)
            grid = wigner_numeric(coeffs, ns, xs, xs, s)
            if s == -1:
                q_floor = min(q_floor, float(grid.min()))
            worst_norm = max(worst_norm, abs(riemann_sum(xs, xs, grid) - 1.0))
    ok = q_floor >= -1e-10 and worst_norm < 1e-4
    report(12, ok, f"Q floor {q_floor:.2e} (>=-1e-10), normalization dev {worst_norm:.2e} (<1e-4)")
