import functools
import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from trisqueeze.fock_oracle import (
    LEAKAGE_TOL,
    FockCutoff,
    SqueezePropagator,
    TruncatedState,
    TruncationLeakageError,
    _sector_tables,
    apply_squeeze,
    build_generator,
    oracle_expectation,
    oracle_report,
    oracle_wigner,
    quadrature_stats,
    reduced_density,
    truncation_report,
)
from trisqueeze.ladder import CoherentState, InputState, NumberState
from trisqueeze.moments import (
    QuadratureSelector,
    cross_correlation,
    g2,
    intensity_correlation,
    mean_photon,
    quadrature_variances,
)
from trisqueeze.quasiprob import char_fn, wigner_excited
from trisqueeze.symplectic import SqueezeParams, bogoliubov_coeffs

CUT12 = FockCutoff(12)


@pytest.fixture(scope="module")
def prop_sym_quarter():
    return SqueezePropagator(SqueezeParams.symmetric(0.25), CUT12)


@pytest.fixture(scope="module")
def evolved_vacuum(prop_sym_quarter):
    state = TruncatedState.from_input_state(InputState.vacuum(), CUT12)
    return prop_sym_quarter.apply(state)


@pytest.fixture(scope="module")
def evolved_fock111(prop_sym_quarter):
    state = TruncatedState.from_input_state(InputState.number(1, 1, 1), CUT12)
    return prop_sym_quarter.apply(state)


def test_cutoff_validation():
    with pytest.raises(ValueError):
        FockCutoff(3)
    with pytest.raises(ValueError):
        FockCutoff(16)
    assert FockCutoff(14).dim == 15 ** 3


def reference_generator(params, cutoff):
    """The uncached assembly: six Kronecker products per call, antisymmetrised at the end."""
    import scipy.sparse

    size = cutoff.size
    lower = scipy.sparse.diags(np.sqrt(np.arange(1, size)), offsets=1, format="csr")
    eye = scipy.sparse.identity(size, format="csr")
    pair_12 = scipy.sparse.kron(scipy.sparse.kron(lower, lower), eye, format="csr")
    pair_13 = scipy.sparse.kron(scipy.sparse.kron(lower, eye), lower, format="csr")
    pair_23 = scipy.sparse.kron(eye, scipy.sparse.kron(lower, lower), format="csr")
    r1, r2, r3 = params.as_tuple()
    gen = r1 * pair_12 + r2 * pair_13 + r3 * pair_23
    return (gen - gen.T).tocsr()


def parity_rows(cutoff, parity):
    """Flat basis indices whose total photon number has the given parity."""
    occupations = np.indices((cutoff.size,) * 3).reshape(3, -1)
    return np.flatnonzero(occupations.sum(axis=0) % 2 == parity)


def basis_columns(sector):
    """K e_m for every basis vector e_m of one sector, through the production gather."""
    for m in range(sector.indices.size):
        basis = np.zeros(sector.indices.size)
        basis[m] = 1.0
        yield sector @ basis


def generator_columns(params, cutoff):
    """(production, reference) K e_m for every basis vector e_m, sector by sector.

    Yields each sector's columns as 1-d arrays over the sector's rows, and
    checks that the reference generator has no entry linking the two sectors,
    so a column is zero outside its own sector.
    """
    want = reference_generator(params, cutoff)
    in_sectors = 0
    for parity, sector in enumerate(build_generator(params, cutoff)):
        rows = parity_rows(cutoff, parity)
        assert np.array_equal(sector.indices, rows)
        block = want[rows][:, rows].tocsc()
        in_sectors += block.nnz
        for m, got in enumerate(basis_columns(sector)):
            column = np.zeros(rows.size)
            lo, hi = block.indptr[m], block.indptr[m + 1]
            column[block.indices[lo:hi]] = block.data[lo:hi]
            yield got, column
    assert in_sectors == want.nnz


def test_generator_zero_params():
    cut = FockCutoff(4)
    for got, want in generator_columns(SqueezeParams(0, 0, 0), cut):
        assert not got.any() and not want.any()


def test_generator_pair_matrix_element():
    # <0,0,0| K |1,1,0> = r1 <000| a1 a2 |110> = r1, and <1,1,0| K |0,0,0> = -r1
    cut = FockCutoff(4)
    even, _ = build_generator(SqueezeParams(1.0, 0, 0), cut)
    vacuum, pair = (int(np.searchsorted(even.indices, i)) for i in (0, cut.size ** 2 + cut.size))
    basis = np.zeros(even.indices.size)
    basis[pair] = 1.0
    assert (even @ basis)[vacuum] == 1.0
    basis[:] = 0.0
    basis[vacuum] = 1.0
    assert (even @ basis)[pair] == -1.0


@pytest.mark.parametrize("n_max", range(4, 16))
def test_cached_generator_equals_uncached_assembly(n_max):
    # K applied to every basis vector equals the Kronecker assembly's column bit for
    # bit: each output entry is one coupling times one ladder product
    cut = FockCutoff(n_max)
    for triple in ((0.3, -0.2, 0.1), (-0.17, 0.0, 0.25), (0.0, 0.0, -1.3), (2.5, -9.5, 1e-300)):
        for got, want in generator_columns(SqueezeParams(*triple), cut):
            assert np.array_equal(got, want)
    # the cached sector tables are read-only; weights are fresh per generator
    for parity in (0, 1):
        for table in _sector_tables(cut.size, parity):
            with pytest.raises(ValueError):
                table[0] = 0
    for sector in build_generator(SqueezeParams(0.3, -0.2, 0.1), cut):
        sector.weights[:] = 7.0
    for got, want in generator_columns(SqueezeParams(0.3, -0.2, 0.1), cut):
        assert np.array_equal(got, want)


def test_generator_exactly_antisymmetric():
    cut = FockCutoff(10)
    for sector in build_generator(SqueezeParams(0.6, 0.8, 0.9), cut):
        dense = np.column_stack(list(basis_columns(sector)))
        assert dense.any() and np.array_equal(dense, -dense.T)


def test_vacuum_fixed_point_at_zero_coupling():
    state = TruncatedState.from_input_state(InputState.vacuum(), FockCutoff(5))
    out = apply_squeeze(SqueezePropagator(SqueezeParams(0, 0, 0), FockCutoff(5)), state)
    assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-14)


def test_propagator_unitary(evolved_vacuum, evolved_fock111):
    for evolved in (evolved_vacuum, evolved_fock111):
        assert truncation_report(evolved).norm_defect <= 1e-13


# State action against the dense exp(K) it replaced.  Envelope: cutoffs 4-8,
# signed couplings |r_j| <= 0.3, Fock inputs n_j <= 4 and coherent inputs with
# |Re alpha_j|, |Im alpha_j| <= 1 (truncated, not renormalised); amplitudes
# agree to 1e-13 absolute (worst seen 3e-15 over 240 random draws).
ACTION_TOL = 1e-13
GRID_CUTOFFS = (4, 6, 8)
GRID_COUPLINGS = ((0.3, -0.2, 0.1), (-0.3, 0.3, -0.3), (0.05, 0.0, -0.25))
GRID_STATES = (
    InputState.vacuum(),
    InputState.number(1, 2, 0),
    InputState.number(4, 1, 3),
    InputState.coherent(0.8, -0.5j, 0.3 + 0.6j),
)


@functools.lru_cache(maxsize=2)  # consecutive calls share (triple, cutoff)
def _dense_propagator(triple, n_max, parity):
    """Dense exp of the reference generator's block on one photon-number parity.

    The reference has no entry between the two parities (checked in
    ``generator_columns``), so exp(K) is the direct sum of the two block
    exponentials; a cutoff-15 block costs a quarter of the full matrix's memory.
    """
    cut = FockCutoff(n_max)
    rows = parity_rows(cut, parity)
    block = reference_generator(SqueezeParams(*triple), cut)[rows][:, rows]
    return rows, scipy.linalg.expm(block.toarray())


def _assert_action_matches_dense(triple, n_max, state):
    cut = FockCutoff(n_max)
    psi = TruncatedState.from_input_state(state, cut).amplitudes.reshape(-1)
    action = SqueezePropagator(SqueezeParams(*triple), cut).apply(
        TruncatedState.from_input_state(state, cut)).amplitudes.reshape(-1)
    dense = np.zeros_like(psi)
    for parity in (0, 1):
        if psi[parity_rows(cut, parity)].any():
            rows, block = _dense_propagator(triple, n_max, parity)
            dense[rows] = block @ psi[rows]
    assert np.max(np.abs(action - dense)) <= ACTION_TOL


@pytest.mark.parametrize(
    "n_max, triple, state", list(itertools.product(GRID_CUTOFFS, GRID_COUPLINGS, GRID_STATES))
)
def test_state_action_matches_dense_expm_grid(n_max, triple, state):
    _assert_action_matches_dense(triple, n_max, state)


# Large 1-norms, where one unscaled Taylor step would be wrong (5e-7 at (1.5, 1.5, 1.5)
# and 4e-2 at (2, -1, 0.5)): the action runs ceil(||K||_1 / 10) steps.  Then the
# oracle workload's cutoff-12 range, |r_j| in [0.05, 0.18] with either sign.
LARGE_NORM_CASES = [
    ((1.5, 1.5, 1.5), 6, InputState.vacuum()),
    ((2.0, -1.0, 0.5), 10, InputState.number(1, 0, 2)),
    ((2.0, -1.0, 0.5), 10, InputState.coherent(0.5, 0.5j, -0.3)),
    ((-2.0, 1.7, 0.9), 12, InputState.number(0, 1, 0)),
    ((2.0, 2.0, -2.0), 15, InputState.number(1, 1, 1)),
    ((0.18, -0.18, 0.18), 12, InputState.number(1, 1, 1)),
    ((0.18, -0.18, 0.18), 12, InputState.coherent(0.35 + 0.35j, -0.5, 0.1j)),
    ((-0.05, 0.12, -0.18), 12, InputState.number(0, 0, 1)),
    ((-0.05, 0.12, -0.18), 12, InputState.coherent(-0.1, 0.2 - 0.3j, 0.45j)),
]


@pytest.mark.parametrize("triple, n_max, state", LARGE_NORM_CASES)
def test_state_action_matches_dense_expm_large_norm(triple, n_max, state):
    _assert_action_matches_dense(triple, n_max, state)


coupling = st.floats(min_value=-0.3, max_value=0.3, allow_nan=False)
occupation = st.integers(min_value=0, max_value=4)
component = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
amplitude = st.builds(complex, component, component)


@given(
    n_max=st.integers(min_value=4, max_value=8),
    triple=st.tuples(coupling, coupling, coupling),
    ns=st.tuples(occupation, occupation, occupation),
    alphas=st.tuples(amplitude, amplitude, amplitude),
)
@settings(max_examples=25, deadline=None)
def test_state_action_matches_dense_expm_random(n_max, triple, ns, alphas):
    _assert_action_matches_dense(triple, n_max, InputState.number(*ns))
    _assert_action_matches_dense(triple, n_max, InputState.coherent(*alphas))


@pytest.mark.parametrize(
    "state", [InputState.number(1, 0, 2), InputState.coherent(0.7, -0.4 + 0.2j, 0.5j)]
)
def test_zero_coupling_returns_input_exactly(state):
    psi = TruncatedState.from_input_state(state, FockCutoff(6))
    out = SqueezePropagator(SqueezeParams(0, 0, 0), FockCutoff(6)).apply(psi)
    assert np.array_equal(out.amplitudes, psi.amplitudes)


def test_real_input_runs_with_the_complex_bits():
    # a real vector takes real arithmetic; i times it takes the complex path, whose
    # imaginary part must repeat the real run exactly
    cut = FockCutoff(10)
    prop = SqueezePropagator(SqueezeParams(2.0, -1.0, 0.5), cut)
    psi = TruncatedState.from_input_state(InputState.number(1, 0, 2), cut)
    rotated = TruncatedState(amplitudes=1j * psi.amplitudes, cutoff=cut)
    real_run = prop.apply(psi).amplitudes
    assert not real_run.imag.any()
    assert np.array_equal(prop.apply(rotated).amplitudes.imag, real_run.real)


def test_report_zero_for_fresh_vacuum():
    state = TruncatedState.from_input_state(InputState.vacuum(), FockCutoff(5))
    report = truncation_report(state)
    assert report.norm_defect == 0.0
    assert report.top_shell == (0.0, 0.0, 0.0)


def test_oracle_refuses_hot_small_basis():
    state = TruncatedState.from_input_state(InputState.vacuum(), FockCutoff(6))
    with pytest.raises(TruncationLeakageError) as excinfo:
        apply_squeeze(SqueezePropagator(SqueezeParams.symmetric(1.5), FockCutoff(6)), state)
    report = excinfo.value.report
    assert report.max_metric > 1e-8
    assert str(excinfo.value) == (
        f"truncation leakage at or above threshold: norm defect {report.norm_defect:.3e}, "
        f"top-shell occupations ({report.top_shell[0]:.3e}, {report.top_shell[1]:.3e}, "
        f"{report.top_shell[2]:.3e}), threshold 1e-08")


def test_mild_squeeze_within_budget():
    state = TruncatedState.from_input_state(InputState.vacuum(), CUT12)
    out = apply_squeeze(SqueezePropagator(SqueezeParams.symmetric(0.2), CUT12), state)
    assert truncation_report(out).max_metric < 1e-10


def test_mean_photon_matches_coefficients():
    # <n1> of squeezed vacuum equals f2^2 + g2^2 + h2^2
    cut = CUT12
    state = TruncatedState.from_input_state(InputState.vacuum(), cut)
    out = apply_squeeze(SqueezePropagator(SqueezeParams.symmetric(0.2), cut), state)
    coeffs = bogoliubov_coeffs(SqueezeParams.symmetric(0.2))
    _, f2, _, g2_, _, h2 = coeffs.mode_row(1)
    measured = oracle_expectation(out, (1, 0, 0, 1, 0, 0)).real
    assert measured == pytest.approx(f2 ** 2 + g2_ ** 2 + h2 ** 2, abs=1e-8)


def test_oracle_expectation_basics():
    state = TruncatedState.from_input_state(InputState.vacuum(), FockCutoff(5))
    assert oracle_expectation(state, (1, 0, 0, 1, 0, 0)) == 0
    state = TruncatedState.from_input_state(InputState.number(2, 0, 0), FockCutoff(5))
    assert oracle_expectation(state, (2, 0, 0, 2, 0, 0)).real == pytest.approx(2.0)
    with pytest.raises(ValueError):
        oracle_expectation(state, (5, 0, 0, 5, 0, 0))
    with pytest.raises(ValueError):
        oracle_expectation(state, (1, 0, 0))


def test_coherent_preparation_norm():
    state = TruncatedState.from_input_state(
        InputState.coherent(1.2, -0.9j, 0.6 + 0.6j), FockCutoff(14)
    )
    assert truncation_report(state).norm_defect < 1e-9


def test_engine_moments_against_oracle(evolved_fock111):
    params = SqueezeParams.symmetric(0.25)
    coeffs = bogoliubov_coeffs(params)
    state = InputState.number(1, 1, 1)
    for mode in (1, 2, 3):
        mono2 = [0] * 6
        mono2[mode - 1] = mono2[mode + 2] = 1
        mono4 = [0] * 6
        mono4[mode - 1] = mono4[mode + 2] = 2
        assert mean_photon(coeffs, state, mode) == pytest.approx(
            oracle_expectation(evolved_fock111, mono2).real, rel=1e-6
        )
        assert intensity_correlation(coeffs, state, mode) == pytest.approx(
            oracle_expectation(evolved_fock111, mono4).real, rel=1e-6
        )
    cross_o = oracle_expectation(evolved_fock111, (1, 1, 0, 1, 1, 0)).real
    assert cross_correlation(coeffs, state, 1, 2) == pytest.approx(cross_o, rel=1e-6)
    mean_o = oracle_expectation(evolved_fock111, (1, 0, 0, 1, 0, 0)).real
    inten_o = oracle_expectation(evolved_fock111, (2, 0, 0, 2, 0, 0)).real
    assert g2(coeffs, state, 1) == pytest.approx(inten_o / mean_o ** 2 - 1.0, abs=1e-6)


def test_engine_quadratures_against_oracle(evolved_fock111):
    coeffs = bogoliubov_coeffs(SqueezeParams.symmetric(0.25))
    state = InputState.number(1, 1, 1)
    for c1, c2 in ((0, 0), (1, 0), (1, 1)):
        var_x, var_y = quadrature_variances(coeffs, QuadratureSelector(c1, c2), state)
        mean_xo, var_xo, mean_yo, var_yo = quadrature_stats(evolved_fock111, c1, c2)
        assert abs(mean_xo) < 1e-10 and abs(mean_yo) < 1e-10
        assert var_x == pytest.approx(var_xo, rel=1e-6)
        assert var_y == pytest.approx(var_yo, rel=1e-6)


@pytest.mark.parametrize("state", [
    InputState.number(1, 0, 2),
    InputState.coherent(0.4 - 0.2j, 0.3j, -0.25),
    InputState((NumberState(1), CoherentState(0.3 + 0.1j), NumberState(0))),
])
def test_report_oracle_side_equals_public_functions(state):
    # the report reads one set of ladder images; the public functions rebuild them
    propagator = SqueezePropagator(SqueezeParams(0.15, -0.1, 0.12), CUT12)
    report = oracle_report(propagator, state)
    assert report["max_rel_error"] < 1e-6
    oracle = {q["name"]: q["oracle"] for q in report["quantities"]}
    evolved = apply_squeeze(propagator, TruncatedState.from_input_state(state, CUT12))

    def expect(*modes):
        mono = [0] * 6
        for mode in modes:
            mono[mode - 1] += 1
            mono[mode + 2] += 1
        return oracle_expectation(evolved, mono).real

    for mode in (1, 2, 3):
        assert oracle[f"mean_n{mode}"] == expect(mode)
        assert oracle[f"intensity_{mode}"] == expect(mode, mode)
    for j, k in ((1, 2), (1, 3), (2, 3)):
        assert oracle[f"cross_n{j}n{k}"] == expect(j, k)
    for c1, c2 in ((0, 0), (1, 0), (1, 1)):
        _, var_x, _, var_y = quadrature_stats(evolved, c1, c2)
        assert (oracle[f"var_x_c{c1}{c2}"], oracle[f"var_y_c{c1}{c2}"]) == (var_x, var_y)


def test_bogoliubov_table_against_oracle_matrix_elements():
    # c[j,k] = <S 0| a_j S |1_k>  and  d[j,k] = <S 1_k| a_j S |0>
    from trisqueeze.fock_oracle import _apply_ladder

    params = SqueezeParams(0.30, 0.24, 0.18)
    cut = FockCutoff(12)
    prop = SqueezePropagator(params, cut)
    coeffs = bogoliubov_coeffs(params)

    def evolved(n1, n2, n3):
        return prop.apply(
            TruncatedState.from_input_state(InputState.number(n1, n2, n3), cut)
        ).amplitudes

    s_vac = evolved(0, 0, 0)
    s_one = [evolved(*occ) for occ in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    for j in range(3):
        a_j_vac = _apply_ladder(s_vac, j)
        for k in range(3):
            c_oracle = np.vdot(s_vac, _apply_ladder(s_one[k], j))
            d_oracle = np.vdot(s_one[k], a_j_vac)
            assert abs(c_oracle.imag) < 1e-10 and abs(d_oracle.imag) < 1e-10
            assert coeffs.c[j, k] == pytest.approx(c_oracle.real, abs=1e-8)
            assert coeffs.d[j, k] == pytest.approx(d_oracle.real, abs=1e-8)


def test_reduced_density_of_product_state():
    state = TruncatedState.from_input_state(InputState.number(1, 0, 0), FockCutoff(5))
    rho = reduced_density(state, 1)
    expected = np.zeros((6, 6))
    expected[1, 1] = 1.0
    assert np.allclose(rho, expected, atol=1e-14)


def test_reduced_density_permutation_symmetry(evolved_fock111):
    rhos = [reduced_density(evolved_fock111, m) for m in (1, 2, 3)]
    assert np.max(np.abs(rhos[0] - rhos[1])) < 1e-8
    assert np.max(np.abs(rhos[0] - rhos[2])) < 1e-8


def test_reduced_density_is_mixed_and_physical(evolved_vacuum):
    rho = reduced_density(evolved_vacuum, 1)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-8)
    eigvals = np.linalg.eigvalsh(rho)
    assert eigvals.min() > -1e-8
    purity = np.trace(rho @ rho).real
    assert purity < 1.0 - 1e-3


def test_oracle_wigner_fock_values():
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[0, 0] = 1.0
    assert oracle_wigner(rho0, 0j, 0) == pytest.approx(2.0 / math.pi)
    rho1 = np.zeros((8, 8), dtype=complex)
    rho1[1, 1] = 1.0
    assert oracle_wigner(rho1, 0j, 0) == pytest.approx(-2.0 / math.pi)
    assert oracle_wigner(rho1, 0j, -1) == pytest.approx(0.0, abs=1e-14)


def test_oracle_wigner_tail_guard():
    rho = np.zeros((6, 6), dtype=complex)
    rho[5, 5] = 1.0
    with pytest.raises(TruncationLeakageError) as excinfo:
        oracle_wigner(rho, 0j, 0)
    assert str(excinfo.value) == (
        "truncation leakage at or above threshold: top Fock occupation 1.000e+00 "
        "of the single-mode state, threshold 1e-08")
    assert excinfo.value.report is None
    # the bound itself is refused, as apply_squeeze refuses it; just below passes
    rho[0, 0], rho[5, 5] = 1.0 - LEAKAGE_TOL, LEAKAGE_TOL
    with pytest.raises(TruncationLeakageError, match="top Fock occupation 1.000e-08 "):
        oracle_wigner(rho, 0j, -1)
    rho[0, 0], rho[5, 5] = 1.0, 0.99 * LEAKAGE_TOL
    assert oracle_wigner(rho, 0j, -1) == pytest.approx(1.0 / math.pi)
    clean = np.zeros((6, 6), dtype=complex)
    clean[0, 0] = 1.0
    with pytest.raises(ValueError):
        oracle_wigner(clean, 0j, 1)


def test_closed_wigner_against_oracle(prop_sym_quarter):
    state = TruncatedState.from_input_state(InputState.number(0, 0, 1), CUT12)
    evolved = prop_sym_quarter.apply(state)
    assert truncation_report(evolved).max_metric < 1e-8
    rho1 = reduced_density(evolved, 1)
    coeffs = bogoliubov_coeffs(SqueezeParams.symmetric(0.25))
    for z in (0j, 0.5 + 0.3j, 1.2 - 0.7j):
        assert oracle_wigner(rho1, z, 0) == pytest.approx(
            float(wigner_excited(coeffs, 1, "mode3", z, 0)), abs=1e-7
        )
        assert oracle_wigner(rho1, z, -1) == pytest.approx(
            float(wigner_excited(coeffs, 1, "mode3", z, -1)), abs=1e-7
        )


def test_oracle_wigner_matches_closed_form_on_grid():
    # the exact displaced parity against the closed form, on a 7x7 grid reaching
    # |Re z|, |Im z| = 1.5 (|2z| up to 4.2), where a truncated displacement loses digits
    cut = FockCutoff(14)
    params = SqueezeParams.symmetric(0.2)
    state = TruncatedState.from_input_state(InputState.number(0, 0, 1), cut)
    rho1 = reduced_density(apply_squeeze(SqueezePropagator(params, cut), state), 1)
    coeffs = bogoliubov_coeffs(params)
    axis = np.linspace(-1.5, 1.5, 7)
    for x, y in itertools.product(axis, axis):
        z = complex(x, y)
        want = float(wigner_excited(coeffs, 1, "mode3", z, 0))
        assert abs(oracle_wigner(rho1, z, 0) - want) <= 1e-12


def test_symmetric_monomial_equals_two_sided_contraction():
    # a p = q monomial lowers the state once and contracts it with itself; the
    # value equals the separate bra and ket contraction bit for bit
    from trisqueeze.fock_oracle import _apply_ladder

    cut = FockCutoff(8)
    state = TruncatedState.from_input_state(InputState.coherent(0.6 - 0.2j, 0.3j, -0.4), cut)
    evolved = SqueezePropagator(SqueezeParams(0.15, -0.1, 0.12), cut).apply(state)
    for powers in itertools.product(range(3), repeat=3):
        bra = ket = evolved.amplitudes
        for axis, power in enumerate(powers):
            for _ in range(power):
                bra = _apply_ladder(bra, axis)
        for axis, power in enumerate(powers):
            for _ in range(power):
                ket = _apply_ladder(ket, axis)
        assert oracle_expectation(evolved, powers + powers) == complex(np.vdot(bra, ket))


def test_char_fn_against_oracle_displacement(prop_sym_quarter):
    state = TruncatedState.from_input_state(InputState.number(0, 0, 1), CUT12)
    evolved = prop_sym_quarter.apply(state)
    rho1 = reduced_density(evolved, 1)
    coeffs = bogoliubov_coeffs(SqueezeParams.symmetric(0.25))
    size = rho1.shape[0]
    lower = np.diag(np.sqrt(np.arange(1, size)), k=1)
    for zeta in (1.0 + 0j, 0.4 - 0.6j):
        displaced = scipy.linalg.expm(zeta * lower.T - np.conj(zeta) * lower)
        c_oracle = np.trace(rho1 @ displaced).real
        assert char_fn(coeffs, (0, 0, 1), zeta, 0) == pytest.approx(c_oracle, abs=1e-7)
