import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trisqueeze import moments
from trisqueeze.fock_oracle import FockCutoff, SqueezePropagator, oracle_report
from trisqueeze.ladder import CoherentState, InputState, NumberState, expectation, normal_order
from trisqueeze.moments import (
    QuadratureSelector,
    UndefinedMomentError,
    cauchy_schwarz,
    cauchy_schwarz_ratio,
    cross_correlation,
    g2,
    g2_ratio,
    intensity_correlation,
    mean_photon,
    quadrature_variances,
    squeezing,
)
from trisqueeze.symplectic import (
    BogoliubovCoeffs,
    SqueezeParams,
    bogoliubov_coeffs,
    bogoliubov_table,
)

from reference_moments import (
    a1_moments_closed,
    squeezing_symmetric_closed,
    subpoisson_certificate,
    transformed_mode,
)

IDENTITY = BogoliubovCoeffs.identity()
VACUUM = InputState.vacuum()

sym_r = st.floats(min_value=0.0, max_value=1.5, allow_nan=False)


def test_selector_normalizer():
    assert QuadratureSelector(0, 0).normalizer == 0.5
    assert QuadratureSelector(1, 0).normalizer == 1.0
    assert QuadratureSelector(1, 1).normalizer == 1.5
    with pytest.raises(ValueError):
        QuadratureSelector(2, 0)


def test_transformed_mode_identity():
    poly = transformed_mode(IDENTITY, 1)
    assert poly.terms() == {(0, 0, 0, 1, 0, 0): 1.0 + 0j}


def test_transformed_mode_symmetric_chain_pattern():
    # mode 2 row is (g1, g2, f1, f2, g1, g2) of the mode-1 coefficients
    coeffs = bogoliubov_coeffs(SqueezeParams.symmetric(0.5))
    f1, f2, g1, g2_, h1, h2 = coeffs.mode_row(1)
    row2 = coeffs.mode_row(2)
    assert row2 == pytest.approx((g1, g2_, f1, f2, g1, g2_), abs=1e-13)


def test_transformed_mode_rejects_bad_index():
    with pytest.raises(ValueError):
        transformed_mode(IDENTITY, 0)


def test_moments_reject_bad_mode():
    with pytest.raises(ValueError):
        mean_photon(IDENTITY, VACUUM, 0)
    with pytest.raises(ValueError):
        intensity_correlation(IDENTITY, VACUUM, 4)


def test_transformed_mode_asymmetric_row():
    coeffs = bogoliubov_coeffs(SqueezeParams(0.6, 0.8, 0.9))
    poly = transformed_mode(coeffs, 3)
    f1, f2, g1, g2_, h1, h2 = coeffs.mode_row(3)
    assert poly.coefficient((0, 0, 0, 1, 0, 0)) == pytest.approx(f1)
    assert poly.coefficient((1, 0, 0, 0, 0, 0)) == pytest.approx(f2)
    assert poly.coefficient((0, 0, 0, 0, 0, 1)) == pytest.approx(h1)
    assert poly.coefficient((0, 0, 1, 0, 0, 0)) == pytest.approx(h2)


def test_squeezing_identity_vacuum_reference():
    for sel in (QuadratureSelector(0, 0), QuadratureSelector(1, 0), QuadratureSelector(1, 1)):
        sx, sy = squeezing(IDENTITY, sel, VACUUM)
        assert abs(sx) < 1e-14 and abs(sy) < 1e-14


def test_two_mode_squeezing_maximum():
    # S_x = (1/3)[e^{2r} + 2e^{-4r} - 3] has its minimum -0.206 at r = ln(2)/3
    r_star = math.log(2.0) / 3.0
    coeffs = bogoliubov_coeffs(SqueezeParams.symmetric(r_star))
    sx, _ = squeezing(coeffs, QuadratureSelector(1, 0), VACUUM)
    assert sx == pytest.approx(-0.206, abs=5e-4)
    exact = (math.exp(2 * r_star) + 2 * math.exp(-4 * r_star) - 3) / 3
    assert sx == pytest.approx(exact, abs=1e-13)


def test_two_mode_squeezing_zero_crossing():
    r_zero = math.log(1.0 + math.sqrt(3.0)) / 2.0
    sx, _ = squeezing_symmetric_closed(r_zero, QuadratureSelector(1, 0))
    assert abs(sx) < 1e-4


def test_three_mode_exponential_law():
    sel = QuadratureSelector(1, 1)
    for r in (0.1, 0.5, 1.0, 2.0):
        coeffs = bogoliubov_coeffs(SqueezeParams.symmetric(r))
        sx, sy = squeezing(coeffs, sel, VACUUM)
        assert sx == pytest.approx(math.exp(-4 * r) - 1.0, abs=1e-12)
        assert sy == pytest.approx(math.exp(4 * r) - 1.0, rel=1e-12)


def _margin_mpmath(triple, sel, ns):
    """2<dX^2>/C from a 60-digit exp(-R): sum_k (2 n_k + 1)/4 (exp(-R) w)_k^2 over C/2."""
    with mpmath.workdps(60):
        r1, r2, r3 = (mpmath.mpf(r) for r in triple)
        rows = mpmath.expm(-mpmath.matrix([[0, r1, r2], [r1, 0, r3], [r2, r3, 0]]))
        rows = rows * mpmath.matrix(list(sel.weights))
        var = sum((2 * n + 1) * rows[k] ** 2 for k, n in enumerate(ns)) / 4
        return float(2 * var / mpmath.mpf(sel.normalizer))


@pytest.mark.parametrize("shape", [(1.0, 1.0, 1.0), (1.0, 0.7, 0.4)])
@pytest.mark.parametrize("ns", [(0, 0, 0), (1, 1, 1)])
def test_squeezing_margin_matches_mpmath_up_to_r8(shape, ns):
    # the margin S_x + 1 = 2<dX^2>/C falls to exp(-4r) on the symmetric line; its
    # relative error must not grow with the exp(+r)-sized c and d entries
    state = InputState.number(*ns)
    for r in (0.5, 1.0, 2.0, 4.0, 6.0, 8.0):
        triple = tuple(r * f for f in shape)
        coeffs = bogoliubov_coeffs(SqueezeParams(*triple))
        for sel in (QuadratureSelector(0, 0), QuadratureSelector(1, 0), QuadratureSelector(1, 1)):
            var_x, _ = quadrature_variances(coeffs, sel, state)
            want = _margin_mpmath(triple, sel, ns)
            got = 2.0 * var_x / sel.normalizer
            assert abs(got - want) <= 1e-10 * want, (triple, sel, ns, got, want)


def test_single_mode_never_squeezed_closed_form():
    # the r=0.3 case: S_x = [2e^{0.6} + e^{-1.2} - 3]/3 > 0 and S_y > 0
    sx, sy = squeezing_symmetric_closed(0.3, QuadratureSelector(0, 0))
    assert sx == pytest.approx((2 * math.exp(0.6) + math.exp(-1.2) - 3) / 3, abs=1e-13)
    assert sx > 0 and sy > 0


@given(r=sym_r)
@settings(max_examples=60, deadline=None)
def test_symmetric_closed_matches_engine(r):
    coeffs = bogoliubov_coeffs(SqueezeParams.symmetric(r))
    for sel in (QuadratureSelector(0, 0), QuadratureSelector(1, 0), QuadratureSelector(1, 1)):
        engine = squeezing(coeffs, sel, VACUUM)
        closed = squeezing_symmetric_closed(r, sel)
        assert engine[0] == pytest.approx(closed[0], abs=1e-11)
        assert engine[1] == pytest.approx(closed[1], abs=1e-11)


def test_no_single_mode_squeezing_asymmetric(rng):
    sel = QuadratureSelector(0, 0)
    for _ in range(200):
        coeffs = bogoliubov_coeffs(SqueezeParams(*rng.uniform(0, 2, 3)))
        sx, sy = squeezing(coeffs, sel, VACUUM)
        assert sx >= -1e-12 and sy >= -1e-12


def test_uncertainty_floor(rng):
    for _ in range(50):
        coeffs = bogoliubov_coeffs(SqueezeParams(*rng.uniform(0, 1.5, 3)))
        state = InputState.number(*(int(n) for n in rng.integers(0, 3, 3)))
        for sel in (QuadratureSelector(1, 0), QuadratureSelector(1, 1)):
            var_x, var_y = quadrature_variances(coeffs, sel, state)
            c = sel.normalizer
            assert (2 * var_x / c) * (2 * var_y / c) >= 1.0 - 1e-10


def test_coherent_variance_displacement_independent(rng):
    for _ in range(25):
        coeffs = bogoliubov_coeffs(SqueezeParams(*rng.uniform(0, 1.5, 3)))
        alphas = rng.uniform(-1.5, 1.5, 3) + 1j * rng.uniform(-1.5, 1.5, 3)
        coherent = InputState.coherent(*alphas)
        for sel in (QuadratureSelector(1, 1), QuadratureSelector(1, 0)):
            got = squeezing(coeffs, sel, coherent)
            ref = squeezing(coeffs, sel, VACUUM)
            assert got[0] == pytest.approx(ref[0], abs=1e-10)
            assert got[1] == pytest.approx(ref[1], abs=1e-10)


def test_g2_fock_identity():
    assert g2(IDENTITY, InputState.number(1, 1, 1), 1) == pytest.approx(-1.0)


def test_g2_undefined_on_dark_mode():
    with pytest.raises(UndefinedMomentError):
        g2(IDENTITY, VACUUM, 1)


def test_g2_thermal_like_for_squeezed_vacuum():
    # pair production fills mode 1 with super-Poissonian light
    coeffs = bogoliubov_coeffs(SqueezeParams.symmetric(0.4))
    assert g2(coeffs, VACUUM, 1) > 0


def test_g2_sign_change_near_printed_location():
    state = InputState.number(1, 1, 1)

    def fn(r):
        return g2(bogoliubov_coeffs(SqueezeParams.symmetric(r)), state, 1)

    assert fn(0.25) < 0 < fn(0.40)  # crossing sits near r ~ 0.34, inside 0.30 +- 0.05


def test_coherent_inputs_never_subpoissonian(rng):
    for _ in range(100):
        coeffs = bogoliubov_coeffs(SqueezeParams(*rng.uniform(0, 1.5, 3)))
        alphas = rng.uniform(-1.5, 1.5, 3) + 1j * rng.uniform(-1.5, 1.5, 3)
        state = InputState.coherent(*alphas)
        for mode in (1, 2, 3):
            assert g2(coeffs, state, mode) >= -1e-10


def test_a1_moments_closed_identity():
    assert a1_moments_closed(IDENTITY, (1, 1, 1)) == pytest.approx((1.0, 0.0))


def test_a1_moments_closed_vacuum_value():
    coeffs = bogoliubov_coeffs(SqueezeParams.symmetric(0.5))
    f1, f2, g1, g2_, h1, h2 = coeffs.mode_row(1)
    mean, second = a1_moments_closed(coeffs, (0, 0, 0))
    assert mean == pytest.approx(f2 ** 2 + g2_ ** 2 + h2 ** 2, abs=1e-13)
    lam2 = f1 * f2 + g1 * g2_ + h1 * h2
    squares = (f2 ** 2, g2_ ** 2, h2 ** 2)
    expected_second = (
        lam2 ** 2
        + 2 * sum(v ** 2 for v in squares)
        + 4 * (squares[0] * squares[1] + squares[0] * squares[2] + squares[1] * squares[2])
    )
    assert second == pytest.approx(expected_second, rel=1e-12)


def test_a1_moments_closed_matches_engine(rng):
    for _ in range(50):
        coeffs = bogoliubov_coeffs(SqueezeParams(*rng.uniform(0, 1.5, 3)))
        ns = tuple(int(n) for n in rng.integers(0, 4, 3))
        state = InputState.number(*ns)
        mean_c, second_c = a1_moments_closed(coeffs, ns)
        mean_e = mean_photon(coeffs, state, 1)
        second_e = intensity_correlation(coeffs, state, 1)
        assert mean_e == pytest.approx(mean_c, rel=1e-10)
        assert second_e == pytest.approx(second_c, rel=1e-10)


def _certificate_sum_of_squares(coeffs, n):
    """Sum-of-squares identity for the (0, n, n) certificate.

    Expanding the printed moment formulas at (0, n, n) with equal g/h
    coefficients gives exactly these five nonnegative terms; the published
    rendition carries a spurious extra 2n(n+1) g1^2 g2^2.
    """
    f1, f2, g1, g2_, _, _ = coeffs.mode_row(1)
    return (
        f2 ** 4
        + 2 * n * (n - 1) * g1 ** 4
        + 2 * (n + 1) * (n + 2) * g2_ ** 4
        + (f1 * f2 + 2 * (2 * n + 1) * g1 * g2_) ** 2
        + 4 * f2 ** 2 * (n * g1 ** 2 + (n + 1) * g2_ ** 2)
    )


def test_certificate_zero_at_zero_coupling():
    assert subpoisson_certificate(IDENTITY, 0) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("r", [0.3, 0.5, 1.0, 1.7, 2.0])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_certificate_identity_and_nonnegativity(r, n):
    coeffs = bogoliubov_coeffs(SqueezeParams.symmetric(r))
    value = subpoisson_certificate(coeffs, n)
    assert value >= -1e-12
    assert value == pytest.approx(_certificate_sum_of_squares(coeffs, n), rel=1e-10)


def test_certificate_printed_variant_differs_for_excited_inputs():
    # documents the spurious 2n(n+1) g1^2 g2^2 term of the published identity
    coeffs = bogoliubov_coeffs(SqueezeParams.symmetric(0.7))
    _, _, g1, g2_, _, _ = coeffs.mode_row(1)
    n = 2
    engine = subpoisson_certificate(coeffs, n)
    printed = _certificate_sum_of_squares(coeffs, n) + 2 * n * (n + 1) * g1 ** 2 * g2_ ** 2
    assert printed - engine == pytest.approx(2 * n * (n + 1) * g1 ** 2 * g2_ ** 2, rel=1e-9)


def test_certificate_nonnegative_asymmetric_empirical(rng):
    # the printed identity assumes equal couplings; nonnegativity itself
    # holds empirically for asymmetric parameters as well
    for _ in range(50):
        coeffs = bogoliubov_coeffs(SqueezeParams(*rng.uniform(0, 2, 3)))
        assert subpoisson_certificate(coeffs, int(rng.integers(0, 5))) >= -1e-12


def test_cauchy_schwarz_fock_identity():
    assert cauchy_schwarz(IDENTITY, InputState.number(1, 1, 1), 1, 2) == pytest.approx(-1.0)


def test_cauchy_schwarz_coherent_identity():
    assert cauchy_schwarz(IDENTITY, InputState.coherent(1, 1, 1), 1, 2) == pytest.approx(0.0, abs=1e-13)


def test_cauchy_schwarz_undefined_denominator():
    with pytest.raises(UndefinedMomentError):
        cauchy_schwarz(IDENTITY, InputState.number(1, 0, 1), 1, 2)


def test_cauchy_schwarz_rejects_equal_modes():
    with pytest.raises(ValueError):
        cauchy_schwarz(IDENTITY, InputState.number(1, 1, 1), 2, 2)


def test_v12_zero_crossing_location():
    # |1,1,1> symmetric: V12 rises from -1 and crosses zero at r = 1.3351
    state = InputState.number(1, 1, 1)

    def fn(r):
        return cauchy_schwarz(bogoliubov_coeffs(SqueezeParams.symmetric(r)), state, 1, 2)

    assert fn(1.32) < 0 < fn(1.35)
    assert abs(fn(1.0)) < 5e-3  # visually zero well before the actual crossing


def test_moments_nonnegative_and_ratios_consistent():
    coeffs = bogoliubov_coeffs(SqueezeParams(0.4, 0.7, 0.2))
    state = InputState.number(1, 0, 2)
    means = [mean_photon(coeffs, state, m) for m in (1, 2, 3)]
    intensities = [intensity_correlation(coeffs, state, m) for m in (1, 2, 3)]
    crosses = {
        (j, k): cross_correlation(coeffs, state, j, k) for j, k in ((1, 2), (1, 3), (2, 3))
    }
    assert all(v >= 0 for v in means)
    assert all(v >= 0 for v in intensities)
    assert all(v >= 0 for v in crosses.values())
    assert g2(coeffs, state, 1) == pytest.approx(intensities[0] / means[0] ** 2 - 1.0)
    assert cauchy_schwarz(coeffs, state, 1, 3) == pytest.approx(
        math.sqrt(intensities[0] * intensities[2]) / crosses[(1, 3)] - 1.0
    )
    # n_j and n_k commute, so the pair moment is symmetric
    assert cross_correlation(coeffs, state, 2, 1) == pytest.approx(crosses[(1, 2)], rel=1e-12)


def test_ratios_undefined_on_dark_modes():
    for mode in (1, 2, 3):
        with pytest.raises(UndefinedMomentError):
            g2(IDENTITY, VACUUM, mode)
    for j, k in ((1, 2), (1, 3), (2, 3)):
        with pytest.raises(UndefinedMomentError):
            cauchy_schwarz(IDENTITY, VACUUM, j, k)


def test_g2_coherent_explicit_asymmetric_point():
    coeffs = bogoliubov_coeffs(SqueezeParams(0.6, 0.8, 0.9))
    state = InputState.coherent(1, 1, 1)
    assert g2(coeffs, state, 2) >= 0.0


def test_a1_moments_closed_explicit_asymmetric_point():
    coeffs = bogoliubov_coeffs(SqueezeParams(0.6, 0.8, 0.9))
    state = InputState.number(1, 0, 2)
    mean_c, second_c = a1_moments_closed(coeffs, (1, 0, 2))
    assert mean_photon(coeffs, state, 1) == pytest.approx(mean_c, rel=1e-10)
    assert intensity_correlation(coeffs, state, 1) == pytest.approx(second_c, rel=1e-10)


def test_stacked_guards_name_first_offending_row():
    with pytest.raises(UndefinedMomentError) as excinfo:
        g2_ratio(np.ones(4), np.array([1.0, 1e-13, 0.0, 2.0]), 2)
    assert str(excinfo.value) == "g2 of mode 2 is undefined: mean photon number 1e-13 below 1e-12"
    with pytest.raises(UndefinedMomentError) as excinfo:
        cauchy_schwarz_ratio(np.ones(3), np.ones(3), np.array([0.5, -0.0, 1e-20]), 1, 3)
    assert str(excinfo.value) == "V_13 is undefined: <n_1 n_3> = -0.0 below 1e-12"
    with pytest.raises(ArithmeticError) as excinfo:
        moments._real(np.array([1.0, 2.0 + 1e-3j, 3.0 + 1j]), "<n>")
    assert str(excinfo.value) == "<n> acquired an imaginary part 0.001"
    # one value gives the message of a one-row stack
    with pytest.raises(UndefinedMomentError) as excinfo:
        g2_ratio(1.0, 1e-13, 2)
    assert str(excinfo.value) == "g2 of mode 2 is undefined: mean photon number 1e-13 below 1e-12"
    with pytest.raises(ArithmeticError) as excinfo:
        moments._real(2.0 + 1e-3j, "<n>")
    assert str(excinfo.value) == "<n> acquired an imaginary part 0.001"


def test_table_rows_match_one_row_calls():
    table = bogoliubov_table([(0.3, -0.2, 0.5), (1.1, 0.0, -0.4), (0.0, 0.7, 0.0)])
    state = InputState.coherent(1 + 0.5j, -0.3j, 0.8)
    sel = QuadratureSelector(1, 0)
    stacked = [
        mean_photon(table, state, 2),
        intensity_correlation(table, state, 3),
        cross_correlation(table, state, 1, 3),
        g2(table, state, 1),
        cauchy_schwarz(table, state, 2, 3),
        *quadrature_variances(table, sel, state),
        *squeezing(table, sel, state),
    ]
    for p in range(3):
        coeffs = BogoliubovCoeffs(table.c[p], table.d[p], table.eigvals[p], table.eigvecs[p])
        single = [
            mean_photon(coeffs, state, 2),
            intensity_correlation(coeffs, state, 3),
            cross_correlation(coeffs, state, 1, 3),
            g2(coeffs, state, 1),
            cauchy_schwarz(coeffs, state, 2, 3),
            *quadrature_variances(coeffs, sel, state),
            *squeezing(coeffs, sel, state),
        ]
        for column, value in zip(stacked, single):
            assert column.shape == (3,) and np.ndim(value) == 0
            assert abs(column[p] - value) <= 1e-13 * (1.0 + abs(value))


@pytest.fixture
def sub_word_lengths(monkeypatch):
    """Length of each sub-word ``moments`` normal-orders while the test runs."""
    lengths = []
    original = moments.normal_order

    def counted(*symbols):
        lengths.append(len(symbols))
        return original(*symbols)

    monkeypatch.setattr(moments, "normal_order", counted)
    return lengths


# distinct sub-words of m4 per state: the empty word and, per mode, the 2 + 4 + 8
# + 16 words of length 1-4
ORDER4_SUB_WORDS = 1 + 3 * 30


def test_squeezing_on_fresh_state_builds_no_fourth_order_word(sub_word_lengths):
    # amplitudes no other test uses, so no tensor of this state is cached yet
    state = InputState.coherent(0.31 - 0.17j, 0.23j, -0.41)
    coeffs = bogoliubov_coeffs(SqueezeParams(0.2, -0.1, 0.3))
    squeezing(coeffs, QuadratureSelector(1, 1), state)
    assert sub_word_lengths == []  # squeezing reads the input covariance, no tensor
    g2(coeffs, state, 1)
    assert len(sub_word_lengths) == ORDER4_SUB_WORDS


def test_mean_photon_reads_no_state_tensor(sub_word_lengths):
    # amplitudes no other test uses, so no tensor of this state is cached yet
    state = InputState.coherent(0.29 + 0.13j, -0.37j, 0.21)
    coeffs = bogoliubov_coeffs(SqueezeParams(0.15, 0.25, -0.2))
    mean_photon(coeffs, state, 2)
    assert sub_word_lengths == []  # <n> reads the input occupations and displacement


def test_oracle_report_normal_orders_each_sub_word_once(sub_word_lengths):
    state = InputState.coherent(0.27 + 0.11j, -0.19, 0.14j)
    oracle_report(SqueezePropagator(SqueezeParams(0.1, 0.05, -0.08), FockCutoff(12)), state)
    assert len(sub_word_lengths) == ORDER4_SUB_WORDS


def _every_sub_word_tensor(state):
    """m4 with every sub-word normally ordered, unbalanced number-mode ones included."""

    def moment(word):
        value = 1.0
        for mode in range(3):
            key = [i for i in word if i % 3 == mode]
            value *= expectation(normal_order(*(moments._SYMBOLS[i] for i in key)), state)
        return value

    words = itertools.product(range(6), repeat=4)
    return np.array([moment(w) for w in words], dtype=complex).reshape(36, 36)


# per number mode only the 2 + 6 balanced words of length 2 and 4 are ordered; a
# coherent mode's 10 odd-length sub-words occur only in words unbalanced on a
# number mode, which are not visited, so it orders its 20 even-length ones
@pytest.mark.parametrize("state, sub_words", [
    (InputState.number(1, 1, 1), 1 + 3 * 8),
    (InputState((NumberState(1), CoherentState(0.3 + 0.1j), NumberState(0))), 1 + 2 * 8 + 20),
    (InputState.number(0, 0, 0), 1 + 3 * 8),
    (InputState.number(2, 0, 1), 1 + 3 * 8),
    (InputState.number(3, 3, 3), 1 + 3 * 8),
])
def test_number_modes_skip_unbalanced_sub_words(sub_word_lengths, state, sub_words):
    moments._state_tensor.cache_clear()
    tensor = moments._state_tensor(state)
    assert len(sub_word_lengths) == sub_words
    assert tensor.tobytes() == (moments._SYMBOL_SCALE ** 4 * _every_sub_word_tensor(state)).tobytes()


mode_states = st.one_of(
    st.builds(NumberState, st.integers(0, 3)),
    st.builds(lambda r, phi: CoherentState(complex(r * math.cos(phi), r * math.sin(phi))),
              st.floats(0.0, 2.0), st.floats(0.0, 2 * math.pi)),
)


@given(modes=st.tuples(mode_states, mode_states, mode_states))
@example(modes=(CoherentState(-0.4 + 0.2j), NumberState(2), NumberState(1)))
@example(modes=(NumberState(0), NumberState(0), CoherentState(1.5 + 3.337610787760805e-309j)))
@settings(max_examples=20, deadline=None)
def test_state_tensor_matches_every_sub_word_tensor(modes):
    # by value, since the reference's zeros of unbalanced words may carry a sign;
    # its unscaled products round a subnormal amplitude part in absolute terms,
    # which the engine's power-of-two scaling does not, and that is all atol allows
    state = InputState(modes)
    moments._state_tensor.cache_clear()
    reference = moments._SYMBOL_SCALE ** 4 * _every_sub_word_tensor(state)
    atol = moments._SYMBOL_SCALE ** 4 * 2 ** 10 * np.finfo(float).tiny
    np.testing.assert_allclose(moments._state_tensor(state), reference, rtol=0, atol=atol)
