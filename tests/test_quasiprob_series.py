"""The exact Hermite series against independent references.

Envelope asserted here, on grids that cover the distribution: for every
accepted input with n_j <= 6 and |r_j| <= 2, at s = 0 and s = -1,
``wigner_numeric`` is within 1e-12 of max|W| of the same transform evaluated
in 60-digit mpmath (``reference_quasiprob.wigner_mpmath``); the measured
worst case is about 6e-15.  The series also agrees with the
test-side adaptive quadrature within 1e-8, that quadrature's own tolerance,
and with the closed forms of the single-slot patterns up to n = 10 within
1e-12 of max|W|.  A stacked BogoliubovCoeffs gives the rows of one-row calls.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trisqueeze import quasiprob
from trisqueeze.quasiprob import wigner_closed, wigner_numeric
from trisqueeze.symplectic import BogoliubovCoeffs, SqueezeParams, bogoliubov_coeffs, bogoliubov_table

from reference_quasiprob import riemann_sum, suggest_half_width, wigner_mpmath, wigner_quadrature

FIXED_PATTERNS = [(1, 1, 1), (0, 2, 0), (2, 0, 1), (6, 6, 6), (6, 0, 6), (0, 6, 0)]
FIXED_COUPLINGS = [(0.3, 0.2, 0.4), (1.0, -0.7, 0.5), (2.0, 2.0, 2.0)]


def _window(coeffs, ns, s, count=9):
    """Asymmetric axes over the distribution: the origin and off-axis points both appear."""
    half = suggest_half_width(coeffs, ns, s)
    return np.linspace(-half, half, count), np.linspace(-0.8 * half, 0.9 * half, count - 2)


def _relative_error(values, reference):
    return float(np.max(np.abs(values - reference)) / np.max(np.abs(reference)))


@pytest.mark.parametrize("ns", FIXED_PATTERNS)
@pytest.mark.parametrize("s", [0, -1])
def test_fixed_patterns_match_mpmath(ns, s):
    for r in FIXED_COUPLINGS:
        coeffs = bogoliubov_coeffs(SqueezeParams(*r))
        xs, ys = _window(coeffs, ns, s)
        error = _relative_error(wigner_numeric(coeffs, ns, xs, ys, s), wigner_mpmath(coeffs, ns, xs, ys, s))
        assert error < 1e-12, (r, error)


def _check_against_mpmath(ns, r, s):
    coeffs = bogoliubov_coeffs(SqueezeParams(*r))
    xs, ys = _window(coeffs, ns, s, count=7)
    error = _relative_error(wigner_numeric(coeffs, ns, xs, ys, s), wigner_mpmath(coeffs, ns, xs, ys, s))
    assert error < 1e-12, error


@given(
    ns=st.tuples(*[st.integers(0, 3)] * 3),
    r=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    s=st.sampled_from([0, -1]),
)
@settings(max_examples=60, deadline=None)
def test_small_patterns_match_mpmath(ns, r, s):
    _check_against_mpmath(ns, r, s)


@given(
    ns=st.tuples(*[st.integers(0, 6)] * 3),
    r=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    s=st.sampled_from([0, -1]),
)
# a window sized for 13 photons whose grid misses the |2> peak: the sampled max|W| is
# 3e-4 of it, so the bound asks for 3e-16 of absolute error
@example(ns=(2, 5, 6), r=(0.0, 0.0, 0.0), s=0)
@example(ns=(2, 6, 5), r=(6.561284675474855e-05, 0.0, -5.715533212874598e-05), s=0)
@settings(max_examples=30, deadline=None)
def test_every_accepted_input_matches_mpmath(ns, r, s):
    _check_against_mpmath(ns, r, s)


@pytest.mark.parametrize("ns", [(0, 1, 0), (0, 2, 0), (1, 1, 1), (1, 0, 1), (2, 0, 1), (0, 1, 1),
                                (1, 1, 0), (0, 6, 0), (0, 0, 2)])
@pytest.mark.parametrize("s", [0, -1])
def test_series_matches_quadrature_reference(ns, s):
    coeffs = bogoliubov_coeffs(SqueezeParams(0.45, 0.2, 0.35))
    xs, ys = _window(coeffs, ns, s, count=21)
    values = wigner_numeric(coeffs, ns, xs, ys, s)
    assert np.max(np.abs(values - wigner_quadrature(coeffs, ns, xs, ys, s))) < 1e-8


@pytest.mark.parametrize("s", [0, -1])
def test_series_matches_closed_forms_up_to_n10(monkeypatch, s):
    # the per-mode guard is 6; the series itself holds on the closed patterns up to 10
    monkeypatch.setattr(quasiprob, "NUMERIC_N_MAX", 10)
    for r in [(0.0, 0.0, 0.0), (0.3, 0.2, 0.4), (0.6, 0.8, 1.3), (2.0, -1.0, 2.0)]:
        coeffs = bogoliubov_coeffs(SqueezeParams(*r))
        for n in range(11):
            for ns in ((n, 0, 0), (0, 0, n)):
                xs, ys = _window(coeffs, ns, s, count=21)
                closed = wigner_closed(coeffs, ns, xs[:, None] + 1j * ys[None, :], s)
                error = _relative_error(wigner_numeric(coeffs, ns, xs, ys, s), closed)
                assert error < 1e-12, (r, ns, error)


@pytest.mark.parametrize("ns", [(1, 1, 1), (0, 6, 0), (2, 0, 1), (0, 0, 0), (3, 0, 0), (0, 0, 4)])
def test_table_rows_equal_one_row_calls(rng, ns):
    table = bogoliubov_table(rng.uniform(-2.0, 2.0, (7, 3)))
    rows = [BogoliubovCoeffs(*row) for row in zip(table.c, table.d, table.eigvals, table.eigvecs)]
    xs, ys = np.linspace(-3.0, 3.0, 11), np.linspace(-2.0, 2.5, 6)
    for s in (0, -1):
        grid = wigner_numeric(table, ns, xs, ys, s)
        one_row = np.array([wigner_numeric(row, ns, xs, ys, s) for row in rows])
        assert grid.shape == (7, 11, 6)
        assert np.max(np.abs(grid - one_row)) <= 1e-15 * np.max(np.abs(one_row))
        assert np.allclose(riemann_sum(xs, ys, grid), [riemann_sum(xs, ys, values) for values in one_row],
                           rtol=1e-15, atol=0)
        z = xs[:, None] + 1j * ys[None, :]
        closed = wigner_closed(table, ns, z, s)
        if closed is not None:
            one_row = np.array([wigner_closed(row, ns, z, s) for row in rows])
            assert closed.shape == (7, 11, 6)
            assert np.array_equal(closed, one_row)


@pytest.mark.parametrize("ns", [(1, 0, 0), (0, 0, 2), (3, 0, 0)])
@pytest.mark.parametrize("s", [0, -1])
@pytest.mark.parametrize("z", [0j, 0.3 + 0.2j])
def test_closed_table_rows_bit_equal_one_row_calls(ns, s, z):
    # scalar squares must round like the table's array squares: x * x, never C pow
    table = bogoliubov_table(np.random.default_rng(7).uniform(-6.0, 6.0, (4000, 3)))
    rows = zip(table.c, table.d, table.eigvals, table.eigvecs)
    one_row = [wigner_closed(BogoliubovCoeffs(*row), ns, z, s) for row in rows]
    assert np.array_equal(wigner_closed(table, ns, z, s), one_row)
