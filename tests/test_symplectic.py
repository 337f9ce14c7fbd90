import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisqueeze.cli import main
from trisqueeze.ladder import InputState
from trisqueeze.moments import cross_correlation, intensity_correlation
from trisqueeze.symplectic import (
    ACCEPT_RESIDUAL,
    R_MAX,
    BogoliubovCoeffs,
    SqueezeParams,
    bogoliubov_coeffs,
    bogoliubov_table,
    coupling_matrix,
    symplectic_check,
    valid_prefix,
)

from reference_moments import symmetric_coeffs_closed

strengths = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def test_params_validation():
    with pytest.raises(ValueError):
        SqueezeParams(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        SqueezeParams(0.0, float("inf"), 0.0)
    with pytest.raises(ValueError):
        SqueezeParams(0.0, 0.0, 10.5)
    p = SqueezeParams.symmetric(0.4)
    assert p.is_symmetric and p.as_tuple() == (0.4, 0.4, 0.4)
    assert not SqueezeParams(0.1, 0.2, 0.3).is_symmetric


def test_coupling_matrix_zero():
    assert np.array_equal(coupling_matrix(SqueezeParams(0, 0, 0)), np.zeros((3, 3)))


def test_coupling_matrix_placement():
    mat = coupling_matrix(SqueezeParams(1, 2, 3))
    assert np.array_equal(mat, np.array([[0, 1, 2], [1, 0, 3], [2, 3, 0]]))


def test_coupling_matrix_symmetric_structure():
    r = 0.7
    mat = coupling_matrix(SqueezeParams.symmetric(r))
    assert np.allclose(mat, r * (np.ones((3, 3)) - np.eye(3)))
    assert np.array_equal(mat, mat.T)
    assert np.array_equal(np.diag(mat), np.zeros(3))


def test_identity_at_zero_coupling():
    coeffs = bogoliubov_coeffs(SqueezeParams(0, 0, 0))
    assert np.allclose(coeffs.c, np.eye(3), atol=1e-15)
    assert np.allclose(coeffs.d, np.zeros((3, 3)), atol=1e-15)


def test_printed_symmetric_values_at_half():
    # f1(1) = [2 cosh(0.5) + cosh(1)]/3, f2(1) = [2 sinh(0.5) - sinh(1)]/3
    coeffs = bogoliubov_coeffs(SqueezeParams.symmetric(0.5))
    f1, f2, g1, g2, h1, h2 = coeffs.mode_row(1)
    assert f1 == pytest.approx((2 * math.cosh(0.5) + math.cosh(1.0)) / 3, abs=1e-13)
    assert f2 == pytest.approx((2 * math.sinh(0.5) - math.sinh(1.0)) / 3, abs=1e-13)
    assert g1 == pytest.approx((-math.cosh(0.5) + math.cosh(1.0)) / 3, abs=1e-13)
    assert g2 == pytest.approx(-(math.sinh(0.5) + math.sinh(1.0)) / 3, abs=1e-13)
    assert f1 == pytest.approx(1.26611, abs=5e-6)


@pytest.mark.parametrize("r", [0.1 * k for k in range(0, 31, 3)] + [2.95])
def test_symmetric_closed_matches_spectral(r):
    spectral = bogoliubov_coeffs(SqueezeParams.symmetric(r))
    closed_c, closed_d = symmetric_coeffs_closed(r)
    assert np.max(np.abs(spectral.c - closed_c)) < 1e-12
    assert np.max(np.abs(spectral.d - closed_d)) < 1e-12


def test_symmetry_chain_as_printed():
    coeffs = bogoliubov_coeffs(SqueezeParams.symmetric(0.8))
    f1_1, f2_1, g1_1, g2_1, h1_1, h2_1 = coeffs.mode_row(1)
    f1_2, f2_2, g1_2, g2_2, h1_2, h2_2 = coeffs.mode_row(2)
    f1_3, f2_3, g1_3, g2_3, h1_3, h2_3 = coeffs.mode_row(3)
    # g1(1) = h1(1) = f1(2) = h1(2) = f1(3) = g1(3)
    for value in (h1_1, f1_2, h1_2, f1_3, g1_3):
        assert abs(value - g1_1) < 1e-12
    # f1(1) = g1(2) = h1(3); f2(1) = g2(2) = h2(3)
    assert abs(f1_1 - g1_2) < 1e-12 and abs(f1_1 - h1_3) < 1e-12
    assert abs(f2_1 - g2_2) < 1e-12 and abs(f2_1 - h2_3) < 1e-12
    # g2(1) = h2(1) = f2(2) = h2(2) = f2(3) = g2(3)
    for value in (h2_1, f2_2, h2_2, f2_3, g2_3):
        assert abs(value - g2_1) < 1e-12


@given(r1=strengths, r2=strengths, r3=strengths)
@settings(max_examples=100, deadline=None)
def test_negation_parity(r1, r2, r3):
    plus = bogoliubov_coeffs(SqueezeParams(r1, r2, r3))
    minus = bogoliubov_coeffs(SqueezeParams(-r1, -r2, -r3))
    assert np.max(np.abs(plus.c - minus.c)) < 1e-12
    assert np.max(np.abs(plus.d + minus.d)) < 1e-12


@given(r1=strengths, r2=strengths, r3=strengths)
@settings(max_examples=150, deadline=None)
def test_symplectic_residuals_random(r1, r2, r3):
    norm, comm = symplectic_check(bogoliubov_coeffs(SqueezeParams(r1, r2, r3)))
    assert norm.shape == comm.shape == (3, 3)
    worst = max(norm.max(), comm.max())
    assert worst < 1e-10 and worst < ACCEPT_RESIDUAL


def test_symplectic_check_identity():
    norm, comm = symplectic_check(BogoliubovCoeffs.identity())
    assert not norm.any() and not comm.any()


PAIRS = ((0, 1), (0, 2), (1, 2))


def nine_residuals(c, d):
    """Per-entry residuals of one (3, 3) table: mode normalizations, then the
    mixed and the annihilator commutators of the pairs (1,2), (1,3), (2,3)."""
    gram = c @ c.T - d @ d.T
    skew = c @ d.T - d @ c.T
    return ([abs(gram[j, j] - 1.0) for j in range(3)] + [abs(gram[j, k]) for j, k in PAIRS]
            + [abs(skew[j, k]) for j, k in PAIRS])


def test_symplectic_check_stack_rows_equal_one_triple_calls(rng):
    # with P = 3, a stack whose matrix products ran over the wrong axes would still broadcast
    triples = np.concatenate([rng.uniform(-6.0, 6.0, (40, 3)), [[0.1, 0.2, 0.3], [0.0, 0.0, 0.0]]])
    for rows in (triples[:3], triples):
        norm, comm = symplectic_check(bogoliubov_table(rows))
        assert norm.shape == comm.shape == (len(rows), 3, 3)
        for p, triple in enumerate(rows):
            coeffs = bogoliubov_coeffs(SqueezeParams(*triple))
            one_norm, one_comm = symplectic_check(coeffs)
            assert np.array_equal(norm[p], one_norm) and np.array_equal(comm[p], one_comm)
            assert ([one_norm[j, j] for j in range(3)] + [one_norm[j, k] for j, k in PAIRS]
                    + [one_comm[j, k] for j, k in PAIRS]) == nine_residuals(coeffs.c, coeffs.d)


def test_symplectic_check_norms_construction():
    norm, comm = symplectic_check(bogoliubov_coeffs(SqueezeParams(0.6, 0.8, 0.9)))
    assert max(norm.max(), comm.max()) < 1e-12


def test_symplectic_check_flags_corruption():
    coeffs = bogoliubov_coeffs(SqueezeParams(0.6, 0.8, 0.9))
    c = np.array(coeffs.c)
    f1 = c[0, 0]
    c[0, 0] += 0.1
    corrupted = BogoliubovCoeffs(c, coeffs.d, coeffs.eigvals, coeffs.eigvecs)
    norm, comm = symplectic_check(corrupted)
    # normalization of mode 1 shifts by 2*0.1*f1 + 0.01
    assert norm[0, 0] == pytest.approx(0.2 * f1 + 0.01, rel=1e-9)
    assert max(norm.max(), comm.max()) >= ACCEPT_RESIDUAL


def test_json_round_trip(capsys):
    coeffs = bogoliubov_coeffs(SqueezeParams(0.6, 0.8, 0.9))
    assert main(["coeffs", "--r1", "0.6", "--r2", "0.8", "--r3", "0.9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"mode1", "mode2", "mode3"}
    assert set(payload["mode2"]) == {"f1", "f2", "g1", "g2", "h1", "h2"}
    for mode in (1, 2, 3):
        row = payload[f"mode{mode}"]
        assert [row[key] for key in ("f1", "f2", "g1", "g2", "h1", "h2")] == list(coeffs.mode_row(mode))


def test_mode_row_bounds():
    with pytest.raises(ValueError):
        BogoliubovCoeffs.identity().mode_row(0)
    with pytest.raises(ValueError):
        BogoliubovCoeffs.identity().mode_row(4)


def reference_coeffs(triple):
    """The per-row path the stacked table replaced: one eigh of one coupling matrix."""
    eigvals, eigvecs = np.linalg.eigh(coupling_matrix(SqueezeParams(*triple)))
    c = (eigvecs * np.cosh(eigvals)) @ eigvecs.T
    d = -(eigvecs * np.sinh(eigvals)) @ eigvecs.T
    return c, d


def test_table_rows_match_per_row_eigh(rng):
    triples = np.concatenate([
        rng.uniform(-R_MAX, R_MAX, (40, 3)),
        rng.uniform(-2.0, 2.0, (40, 3)),
        [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [-R_MAX, R_MAX, 0.0], [1e-300, 0.0, -2.0]],
    ])
    table = bogoliubov_table(triples)
    assert table.c.shape == table.d.shape == (len(triples), 3, 3)
    for p, triple in enumerate(triples):
        c, d = reference_coeffs(triple)
        scale = np.abs(c).max()
        assert np.abs(table.c[p] - c).max() <= 1e-14 * scale
        assert np.abs(table.d[p] - d).max() <= 1e-14 * scale
        one = bogoliubov_coeffs(SqueezeParams(*triple))
        assert np.array_equal(one.c, table.c[p]) and np.array_equal(one.d, table.d[p])


def _series_mp(triple, terms=80):
    """(cosh(R), sinh(R) - R, R) as mpmath matrices, the first two Taylor series of R.

    sinh(R) - R sums the terms from R^3 on, so it keeps digits of its own where R dominates.
    """
    rmat = mpmath.matrix(coupling_matrix(SqueezeParams(*triple)).tolist())
    term, sums = rmat, [mpmath.eye(3), mpmath.zeros(3, 3)]
    for k in range(2, terms):
        term = term * rmat / k
        sums[k % 2] += term
    return sums[0], sums[1], rmat


def cosh_sinh_mpmath(triple, terms=80):
    """cosh(R), sinh(R) and sinh(R) - R as 60-digit Taylor series of R, each entry rounded once."""
    with mpmath.workdps(60):
        cosh, sinh_minus_r, rmat = _series_mp(triple, terms)
        return [np.array(m.tolist(), dtype=float) for m in (cosh, sinh_minus_r + rmat, sinh_minus_r)]


@pytest.mark.parametrize("shape", [(1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 0.7, 0.4)])
def test_table_keeps_its_digits_near_zero_coupling(shape):
    # cosh(R) - I is of order r^2, so c's off-diagonal entries must carry digits of
    # their own rather than eigh's round-off on the unit diagonal; that diagonal
    # sits below c's 1e-16 resolution and is not held here, and r^2 stays normal.
    # Likewise sinh(R) - R is of order r^3, so where R vanishes, d = -(sinh(R) - R)
    # must carry its digits; elsewhere d holds R's entries, and d + R only their
    # rounding, which d_miss covers
    off = ~np.eye(3, dtype=bool)
    for r in (1e-150, 1e-34, 1e-8, 1e-3, 0.5, 2.0):
        triple = tuple(r * f for f in shape)
        cosh, sinh, sinh_minus_r = cosh_sinh_mpmath(triple)
        table = bogoliubov_coeffs(SqueezeParams(*triple))
        c_miss = np.abs(table.c - cosh)[off].max()
        assert c_miss <= 1e-13 * np.abs(cosh[off]).max(), (triple, c_miss)
        d_miss = np.abs(table.d + sinh).max()
        assert d_miss <= 1e-13 * np.abs(sinh).max(), (triple, d_miss)
        rmat = coupling_matrix(SqueezeParams(*triple))
        r_miss = np.abs(table.d + rmat + sinh_minus_r)[rmat == 0].max()
        assert r_miss <= 1e-13 * np.abs(sinh_minus_r).max(), (triple, r_miss)


@pytest.mark.parametrize("triple", [(6.561284675474855e-05, 0.0, -5.715533212874598e-05),
                                    (-0.009569913949704542, 0.0, 0.008852269372315306),
                                    (0.3, -0.2, 0.5)])
def test_weak_coupling_quadrature_rows_keep_their_unit_entry(triple):
    # exp(-+R) e1 = e1 + O(r); through V diag(exp(-+lambda)) V^T alone, eigh's round-off
    # on V V^T moved the unit entry by 4.5e-16 to 1.1e-15 on these triples
    with mpmath.workdps(40):
        rmat = mpmath.matrix(coupling_matrix(SqueezeParams(*triple)).tolist())
        exact = [np.array([float(m[j, 0]) for j in range(3)])
                 for m in (mpmath.expm(-rmat), mpmath.expm(rmat))]
    rows = bogoliubov_coeffs(SqueezeParams(*triple)).quadrature_rows((1.0, 0.0, 0.0))
    for got, want in zip(rows, exact):
        assert abs(got[0] - want[0]) <= 2.3e-16 * want[0], (triple, got, want)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), (triple, got, want)


def test_tiny_coupling_keeps_photon_correlation_nonnegative():
    # the exact <n_1 n_2> is positive and underflows, so round-off in c must not make it negative
    coeffs = bogoliubov_coeffs(SqueezeParams(1.2439552499366604e-277, 1.2439552499366604e-277, 0.0))
    assert cross_correlation(coeffs, InputState.number(0, 0, 1), 1, 2) >= 0.0


def test_tiny_path_coupling_keeps_intensity_digits():
    # on the path graph (r, 0, r), sinh(R) vanishes on the diagonal and between modes 1
    # and 3; round-off of order 1e-16 r there read <a1+2 a1^2> as 8e-100, not about 7 r^4
    triple, alpha = (3.612587544597209e-34, 0.0, 3.612587544597209e-34), (0.0, 1.0, 1.0)
    with mpmath.workdps(60):
        cosh, sinh_minus_r, rmat = _series_mp(triple)
        c = [cosh[0, k] for k in range(3)]
        d = [-(sinh_minus_r[0, k] + rmat[0, k]) for k in range(3)]
        # Gaussian moments of a coherent input with real amplitudes: mean mu and the
        # vacuum's fluctuations <b+ b> = sum_k d_k^2 and <b b> = sum_k c_k d_k
        mu = sum((c[k] + d[k]) * alpha[k] for k in range(3))
        n, m = sum(x ** 2 for x in d), sum(x * y for x, y in zip(c, d))
        exact = float(mu ** 4 + 2 * mu ** 2 * m + 4 * mu ** 2 * n + 2 * n ** 2 + m ** 2)
    coeffs = bogoliubov_coeffs(SqueezeParams(*triple))
    value = intensity_correlation(coeffs, InputState.coherent(*alpha), 1)
    assert abs(value - exact) <= 1e-12 * exact, (value, exact)


@pytest.mark.parametrize("rows, message", [
    ([[0.1, 0.2, 0.3], [0.1, 11.0, float("nan")], [12.0, 0.0, 0.0]],
     "|r2| must not exceed 10.0, got 11.0"),
    ([[0.1, 0.2, 0.3], [0.0, 0.0, 0.0], [float("inf"), 0.0, 12.0]], "r1 must be finite, got inf"),
    ([[0.0, float("nan"), 0.0]], "r2 must be finite, got nan"),
    ([[0.0, 0.0, -10.000000000000002]], "|r3| must not exceed 10.0, got -10.000000000000002"),
])
def test_table_guard_names_first_offending_row(rows, message):
    with pytest.raises(ValueError) as excinfo:
        bogoliubov_table(rows)
    assert str(excinfo.value) == message
    bad = next(i for i, row in enumerate(rows) if not all(abs(v) <= R_MAX for v in row))
    assert valid_prefix(rows) == bad
    assert valid_prefix(rows[:bad]) == bad


def test_coeffs_accept_one_triple_or_a_stack(rng):
    one = BogoliubovCoeffs(c=np.eye(3), d=np.zeros((3, 3)), eigvals=np.zeros(3), eigvecs=np.eye(3))
    assert one.c.shape == one.d.shape == one.eigvecs.shape == (3, 3) and one.eigvals.shape == (3,)
    stack = BogoliubovCoeffs(*rng.normal(size=(2, 5, 3, 3)), rng.normal(size=(5, 3)),
                             rng.normal(size=(5, 3, 3)))
    assert stack.c.shape == stack.d.shape == stack.eigvecs.shape == (5, 3, 3)
    assert stack.eigvals.shape == (5, 3)
    empty = BogoliubovCoeffs(np.zeros((0, 3, 3)), np.zeros((0, 3, 3)), np.zeros((0, 3)),
                             np.zeros((0, 3, 3)))
    assert empty.c.shape == (0, 3, 3)


@pytest.mark.parametrize("c, d, message", [
    (np.eye(3), np.zeros((2, 3, 3)), "c and d must have the same shape, got (3, 3) and (2, 3, 3)"),
    (np.zeros((1, 2, 3, 3)), np.zeros((1, 2, 3, 3)),
     "coefficient tables must be (3, 3) or (P, 3, 3), got (1, 2, 3, 3)"),
    (np.zeros((3, 4)), np.zeros((3, 4)),
     "coefficient tables must be (3, 3) or (P, 3, 3), got (3, 4)"),
    (np.full((2, 3, 3), np.nan), np.zeros((2, 3, 3)), "coefficient tables must be finite"),
    (np.eye(3), np.diag([0.0, np.inf, 0.0]), "coefficient tables must be finite"),
])
def test_coeffs_reject_malformed_tables(c, d, message):
    # eigenpairs shaped like c's, so only the malformed c or d is refused
    with pytest.raises(ValueError) as excinfo:
        BogoliubovCoeffs(c=c, d=d, eigvals=np.zeros(c.shape[:-1]), eigvecs=np.zeros(c.shape))
    assert str(excinfo.value) == message


@pytest.mark.parametrize("eigvals, eigvecs, message", [
    (np.zeros(3), np.zeros((2, 3, 3)),
     "eigenpairs of (2, 3, 3) tables must be (2, 3) and (2, 3, 3), got (3,) and (2, 3, 3)"),
    (np.zeros((2, 3)), np.zeros((2, 3, 4)),
     "eigenpairs of (2, 3, 3) tables must be (2, 3) and (2, 3, 3), got (2, 3) and (2, 3, 4)"),
    (np.array([[0.0, np.nan, 0.0], [0.0, 0.0, 0.0]]), np.zeros((2, 3, 3)),
     "coefficient tables must be finite"),
    (np.zeros((2, 3)), np.full((2, 3, 3), -np.inf), "coefficient tables must be finite"),
])
def test_coeffs_reject_malformed_eigenpairs(eigvals, eigvecs, message):
    with pytest.raises(ValueError) as excinfo:
        BogoliubovCoeffs(c=np.zeros((2, 3, 3)), d=np.zeros((2, 3, 3)), eigvals=eigvals,
                         eigvecs=eigvecs)
    assert str(excinfo.value) == message


def test_table_arrays_are_read_only():
    table = bogoliubov_table([(0.3, -0.2, 0.5), (1.1, 0.0, -0.4)])
    for array in (table.c, table.d, table.eigvals, table.eigvecs):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1.0


def test_stacked_mode_row_equals_per_row_mode_row(rng):
    triples = rng.uniform(-3.0, 3.0, (9, 3))
    table = bogoliubov_table(triples)
    for mode in (1, 2, 3):
        stacked = table.mode_row(mode)
        assert all(np.shape(value) == (len(triples),) for value in stacked)
        for p, triple in enumerate(triples):
            row = bogoliubov_coeffs(SqueezeParams(*triple)).mode_row(mode)
            assert all(np.ndim(value) == 0 for value in row)
            assert [value[p] for value in stacked] == list(row)
