"""The per-state tensor contraction against the scalar normal-ordering path.

Raw moments (<n_j>, <a_j+2 a_j2>, <n_j n_k>) must agree to 1e-12 relative.
g2, V_jk and S_x/S_y are near-cancelling differences of order-one ratios
(g2 = I/n^2 - 1 and V = sqrt(I_j I_k)/<n_j n_k> - 1 can sit at zero while
their terms do not), so a purely relative bound does not fit them; they are
held to the envelope |engine - reference| <= 1e-12 * (1 + |reference|).
Covered: Fock inputs with n <= 3, coherent inputs with |alpha| <= 2, products
mixing both kinds of mode, and couplings with |r| <= 2, down to couplings and
amplitudes so small that a raw moment is a subnormal float (the pinned
examples), where both sides must round to the same double.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trisqueeze.ladder import CoherentState, InputState, NumberState
from trisqueeze.moments import (
    QuadratureSelector,
    UndefinedMomentError,
    cauchy_schwarz,
    cross_correlation,
    g2,
    intensity_correlation,
    mean_photon,
    squeezing,
)
from trisqueeze.symplectic import SqueezeParams, bogoliubov_coeffs

import reference_moments as ref

RAW_RTOL = 1e-12
RATIO_TOL = 1e-12
PAIRS = ((1, 2), (1, 3), (2, 3))
SELECTORS = (QuadratureSelector(0, 0), QuadratureSelector(1, 0), QuadratureSelector(1, 1))

GRID_COUPLINGS = (
    (0.0, 0.0, 0.0),
    (0.3, 0.3, 0.3),
    (2.0, 2.0, 2.0),
    (-2.0, -2.0, -2.0),
    (0.7, -0.4, 1.1),
    (-1.2, 0.5, 2.0),
    (0.05, 1.9, -0.6),
)
GRID_STATES = (
    InputState.number(0, 0, 0),
    InputState.number(1, 1, 1),
    InputState.number(3, 0, 2),
    InputState.number(0, 3, 1),
    InputState.number(3, 3, 3),
    InputState.coherent(0, 0, 0),
    InputState.coherent(2, 0, 0),
    InputState.coherent(1 + 1j, -0.5j, 0.3),
    InputState.coherent(-1.4 + 1.4j, 2j, -2),
    InputState((NumberState(1), CoherentState(0.3 + 0.1j), NumberState(0))),
    InputState((CoherentState(-1.2 + 0.5j), NumberState(3), CoherentState(2j))),
)


def _close_raw(got, want):
    assert abs(got - want) <= RAW_RTOL * abs(want), (got, want)


def _close_ratio(got, want):
    assert abs(got - want) <= RATIO_TOL * (1.0 + abs(want)), (got, want)


def _same_ratio(engine_fn, ref_fn, *args):
    try:
        want = ref_fn(*args)
    except UndefinedMomentError:
        with pytest.raises(UndefinedMomentError):
            engine_fn(*args)
        return
    _close_ratio(engine_fn(*args), want)


def _check_equivalent(triple, state):
    coeffs = bogoliubov_coeffs(SqueezeParams(*triple))
    for mode in (1, 2, 3):
        _close_raw(mean_photon(coeffs, state, mode), ref.ref_mean_photon(coeffs, state, mode))
        _close_raw(
            intensity_correlation(coeffs, state, mode),
            ref.ref_intensity_correlation(coeffs, state, mode),
        )
        _same_ratio(g2, ref.ref_g2, coeffs, state, mode)
    for j, k in PAIRS:
        _close_raw(
            cross_correlation(coeffs, state, j, k), ref.ref_cross_correlation(coeffs, state, j, k)
        )
        _same_ratio(cauchy_schwarz, ref.ref_cauchy_schwarz, coeffs, state, j, k)
    for sel in SELECTORS:
        for got, want in zip(squeezing(coeffs, sel, state), ref.squeezing(coeffs, sel, state)):
            _close_ratio(got, want)


@pytest.mark.parametrize("triple, state", list(itertools.product(GRID_COUPLINGS, GRID_STATES)))
def test_engine_matches_reference_on_grid(triple, state):
    _check_equivalent(triple, state)


couplings = st.tuples(*[st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)] * 3)
occupation = st.integers(min_value=0, max_value=3)
# |Re|, |Im| <= 1.41 keeps |alpha| <= 2
component = st.floats(min_value=-1.41, max_value=1.41, allow_nan=False)
amplitude = st.builds(complex, component, component)


@given(triple=couplings, ns=st.tuples(occupation, occupation, occupation))
@example(triple=(1.0, 1.015445705292223e-158, 0.0), ns=(0, 0, 0))
@example(triple=(0.5, 1.0762652491594606e-81, 1.0762652491594606e-81), ns=(0, 0, 0))
@settings(max_examples=40, deadline=None)
def test_engine_matches_reference_fock(triple, ns):
    _check_equivalent(triple, InputState.number(*ns))


@given(triple=couplings, alphas=st.tuples(amplitude, amplitude, amplitude))
@example(triple=(0.0, 2.2342055779943915e-80, 1.0), alphas=(0j, 0j, 1 + 1j))
@example(triple=(0.0, 1.0, 0.0), alphas=(0j, 5.554306217777034e-162j, 0.5j))
@example(triple=(3.612587544597209e-34, 0.0, 3.612587544597209e-34), alphas=(0j, 1 + 0j, 1 + 0j))
@settings(max_examples=40, deadline=None)
def test_engine_matches_reference_coherent(triple, alphas):
    _check_equivalent(triple, InputState.coherent(*alphas))


def test_subnormal_moments_round_once():
    # exact values (80-digit mpmath): 1.304e-323 and 6.097e-323, so the correctly
    # rounded doubles are 3 and 12 subnormal steps of 2**-1074
    step = 2.0 ** -1074
    tiny = bogoliubov_coeffs(SqueezeParams(0.5, 1.0762652491594606e-81, 1.0762652491594606e-81))
    assert intensity_correlation(tiny, InputState.vacuum(), 3) == 3 * step
    coupled = bogoliubov_coeffs(SqueezeParams(0.0, 1.0, 0.0))
    state = InputState.coherent(0, 5.554306217777034e-162j, 0.5j)
    assert cross_correlation(coupled, state, 2, 3) == 12 * step
    assert cross_correlation(coupled, state, 1, 2) == 11 * step
