import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisqueeze.symplectic import (
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
    closed = symmetric_coeffs_closed(r)
    assert np.max(np.abs(spectral.c - closed.c)) < 1e-12
    assert np.max(np.abs(spectral.d - closed.d)) < 1e-12


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
    report = symplectic_check(bogoliubov_coeffs(SqueezeParams(r1, r2, r3)))
    assert report.max_residual < 1e-10
    assert report.ok


def test_symplectic_check_identity():
    report = symplectic_check(BogoliubovCoeffs.identity())
    assert report.max_residual == 0.0


def test_symplectic_check_norms_construction():
    report = symplectic_check(bogoliubov_coeffs(SqueezeParams(0.6, 0.8, 0.9)))
    assert report.max_residual < 1e-12


def test_symplectic_check_flags_corruption():
    coeffs = bogoliubov_coeffs(SqueezeParams(0.6, 0.8, 0.9))
    c = np.array(coeffs.c)
    f1 = c[0, 0]
    c[0, 0] += 0.1
    corrupted = BogoliubovCoeffs(c=c, d=coeffs.d)
    report = symplectic_check(corrupted)
    # normalization of mode 1 shifts by 2*0.1*f1 + 0.01
    assert report.mode_normalization[0] == pytest.approx(0.2 * f1 + 0.01, rel=1e-9)
    assert not report.ok


def test_json_round_trip():
    coeffs = bogoliubov_coeffs(SqueezeParams(0.6, 0.8, 0.9))
    payload = coeffs.to_json_dict()
    assert set(payload) == {"mode1", "mode2", "mode3"}
    assert set(payload["mode2"]) == {"f1", "f2", "g1", "g2", "h1", "h2"}
    restored = json.loads(json.dumps(payload))
    for mode in (1, 2, 3):
        row = restored[f"mode{mode}"]
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
