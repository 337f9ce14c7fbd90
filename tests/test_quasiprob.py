import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from trisqueeze.moments import QuadratureSelector, quadrature_variances
from trisqueeze.ladder import InputState, NumberState
from trisqueeze.quasiprob import (
    PFunctionSingularError,
    char_fn,
    closed_form_slot,
    fock_limit_wigner,
    laguerre,
    wigner_aux,
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
    bogoliubov_table,
    coupling_matrix,
)

from reference_quasiprob import riemann_sum, suggest_half_width, wigner_mpmath

IDENTITY = BogoliubovCoeffs.identity()


def laguerre_factorial_sum(k, gamma, x):
    """Term-by-term evaluation of the factorial-sum definition (test oracle)."""
    total = 0.0
    for l in range(k + 1):
        total += (
            scipy.special.gamma(gamma + k + 1)
            / (scipy.special.gamma(gamma + l + 1) * math.factorial(k - l) * math.factorial(l))
            * (-x) ** l
        )
    return total


def test_laguerre_degree_zero_is_one():
    assert laguerre(0, 0.7, 3.2) == 1.0
    assert laguerre(0, -0.5, 0.0) == 1.0


def test_laguerre_degree_one():
    assert laguerre(1, 0.0, 2.0) == pytest.approx(-1.0)


def test_laguerre_half_integer_vs_factorial_sum():
    assert laguerre(3, -0.5, 0.7) == pytest.approx(laguerre_factorial_sum(3, -0.5, 0.7), rel=1e-12)


@given(
    k=st.integers(min_value=0, max_value=15),
    gamma=st.sampled_from([-0.5, 0.0, 0.5, 1.0, 2.0]),
    x=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
)
@settings(max_examples=150, deadline=None)
def test_laguerre_against_scipy(k, gamma, x):
    ours = laguerre(k, gamma, x)
    ref = scipy.special.eval_genlaguerre(k, gamma, x)
    assert ours == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_laguerre_guards():
    with pytest.raises(ValueError):
        laguerre(61, 0.0, 1.0)
    with pytest.raises(ValueError):
        laguerre(-1, 0.0, 1.0)
    with pytest.raises(ValueError):
        laguerre(2, -1.0, 1.0)


@given(
    m=st.integers(min_value=0, max_value=10),
    tau1=st.sampled_from([-0.5, 0.0, 0.5]),
    tau2=st.sampled_from([-0.5, 0.0, 0.5]),
    x=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    y=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
@settings(max_examples=120, deadline=None)
def test_laguerre_addition_identity(m, tau1, tau2, x, y):
    total = sum(laguerre(i, tau1, x) * laguerre(m - i, tau2, y) for i in range(m + 1))
    assert abs(total - laguerre(m, tau1 + tau2 + 1.0, x + y)) < 1e-10


def test_char_fn_normalized_at_zero():
    coeffs = bogoliubov_coeffs(SqueezeParams(0.4, 0.7, 0.2))
    assert char_fn(coeffs, (2, 1, 0), 0j, 0) == pytest.approx(1.0)
    assert char_fn(coeffs, (0, 0, 0), 0j, -1) == pytest.approx(1.0)


def test_char_fn_identity_vacuum_gaussian():
    for zeta in (0.5, 1j, 0.7 - 0.3j):
        assert char_fn(IDENTITY, (0, 0, 0), zeta, 0) == pytest.approx(
            math.exp(-0.5 * abs(zeta) ** 2)
        )


def test_char_fn_real_and_vectorized():
    coeffs = bogoliubov_coeffs(SqueezeParams.symmetric(0.5))
    zeta = np.array([0.3 + 0.1j, 1.0, -0.2j])
    values = char_fn(coeffs, (0, 0, 1), zeta, 0)
    assert values.shape == (3,)
    assert np.isrealobj(values)
    assert values[1] == pytest.approx(char_fn(coeffs, (0, 0, 1), 1.0 + 0j, 0))


@pytest.mark.parametrize("ns, s", [((0, 0, 0), 0), ((2, 1, 0), -1), ((1, 3, 2), 1)])
def test_char_fn_stack_rows_equal_one_triple_calls(rng, ns, s):
    triples = rng.uniform(-2.0, 2.0, (4, 3))
    zeta = rng.normal(size=4) + 1j * rng.normal(size=4)  # len(zeta) == P on purpose
    stacked = char_fn(bogoliubov_table(triples), ns, zeta, s)
    assert stacked.shape == (4, 4)
    at_point = char_fn(bogoliubov_table(triples), ns, 0.3 - 0.2j, s)
    assert at_point.shape == (4,)
    for p, triple in enumerate(triples):
        coeffs = bogoliubov_coeffs(SqueezeParams(*triple))
        assert np.array_equal(stacked[p], char_fn(coeffs, ns, zeta, s))
        point = char_fn(coeffs, ns, 0.3 - 0.2j, s)
        assert isinstance(point, float)
        assert point == at_point[p]


def test_wigner_aux_theta_matches_quadrature_variances(rng):
    # both read the eigenpair rows exp(-+R) e1, and the factors 1/4, 2 and 1/2 are exact
    triples = rng.uniform(-10.0, 10.0, (500, 3))
    sel, vacuum = QuadratureSelector(0, 0), InputState.vacuum()
    cases = [bogoliubov_table(triples)]
    cases += [bogoliubov_coeffs(SqueezeParams(*triple)) for triple in triples]
    for coeffs in cases:
        var_x, var_y = quadrature_variances(coeffs, sel, vacuum)
        for s in (-1, 0, 1):
            aux = wigner_aux(coeffs, s)
            assert np.array_equal(aux.theta_plus, 2 * var_x - s / 2)
            assert np.array_equal(aux.theta_minus, 2 * var_y - s / 2)


def _kernel_mpmath(triple, s, slot, dps=80):
    """(theta+, theta-, eta+, eta-, W(0) of one photon in the slot, the Gaussian peak)
    from the rows of exp(-+R) in ``dps``-digit arithmetic."""
    with mpmath.workdps(dps):
        rmat = mpmath.matrix(coupling_matrix(SqueezeParams(*triple)).tolist())
        a_plus, a_minus = ([mpmath.expm(sign * rmat)[k, 0] ** 2 for k in range(3)]
                           for sign in (-1, 1))
        tp, tm = (sum(a_plus) - s) / 2, (sum(a_minus) - s) / 2
        j = {"mode1": 0, "mode3": 2}[slot]
        ep, em = a_plus[j] - tp, a_minus[j] - tm
        peak = 1 / (mpmath.pi * mpmath.sqrt(tp * tm))
        # the degree-one Laguerre sum at z = 0: t_1(eta, 0) = eta / 2
        return tp, tm, ep, em, -peak * (ep / tp + em / tm) / 2, peak


@pytest.mark.parametrize("r", [4.0, 6.0, 8.0, 10.0])
def test_kernel_matches_mpmath_exponentials_at_strong_coupling(r):
    # the c +- d sums of the exp(r)-sized tables kept 3.9e-9 of W(0) of (0,0,1) at r = 10
    for triple in ((r, r, r), (0.6, 0.8, r)):
        coeffs = bogoliubov_coeffs(SqueezeParams(*triple))
        for s in (0, -1):
            for slot, ns in (("mode1", (1, 0, 0)), ("mode3", (0, 0, 1))):
                *kernel, origin, peak = _kernel_mpmath(triple, s, slot)
                aux = wigner_aux(coeffs, s, slot)
                got = (aux.theta_plus, aux.theta_minus, aux.eta_plus, aux.eta_minus)
                for value, want in zip(got, kernel):
                    assert abs(value - want) <= 1e-13 * abs(want), (triple, s, slot)
                # W(0) in units of the Gaussian peak: on the symmetric line (1,0,0) falls
                # to 2e-13 of it by r = 10, as its two eta/theta terms cancel
                for value in (wigner_excited(coeffs, 1, slot, 0j, s),
                              wigner_numeric(coeffs, ns, [0.0], [0.0], s)[0, 0]):
                    assert abs(value - origin) <= 1e-13 * peak, (triple, s, slot)


def test_wigner_aux_kernel_identity_and_floor():
    # ((lambda1 - s)/2)^2 - lambda2^2 factors exactly into theta+ * theta-
    for params in (SqueezeParams.symmetric(0.5), SqueezeParams(0.6, 0.8, 2.0)):
        coeffs = bogoliubov_coeffs(params)
        for s in (-1, 0):
            aux = wigner_aux(coeffs, s)
            assert aux.kernel_det == pytest.approx(aux.theta_plus * aux.theta_minus, rel=1e-12)
            assert aux.lambda1 >= 1.0 - 1e-12
            assert aux.kernel_det > 0


def test_wigner_aux_slot_validation():
    with pytest.raises(ValueError):
        wigner_aux(IDENTITY, 0, slot="mode2")
    with pytest.raises(ValueError):
        wigner_aux(IDENTITY, 2)


def test_wigner_vacuum_identity_peak():
    # vacuum peak 2/pi in the z = x + iy convention; integrates to one
    assert wigner_vacuum(IDENTITY, 0j, 0) == pytest.approx(2.0 / math.pi)
    assert wigner_vacuum(IDENTITY, 0.5 + 0.25j, 0) == pytest.approx(
        (2.0 / math.pi) * math.exp(-2 * (0.5 ** 2 + 0.25 ** 2))
    )


def test_wigner_vacuum_squeezed_peak_from_aux():
    coeffs = bogoliubov_coeffs(SqueezeParams.symmetric(0.5))
    aux = wigner_aux(coeffs, 0)
    expected = 1.0 / (math.pi * math.sqrt(aux.theta_plus * aux.theta_minus))
    assert wigner_vacuum(coeffs, 0j, 0) == pytest.approx(expected)


def test_wigner_vacuum_p_function_singular_for_identity():
    with pytest.raises(PFunctionSingularError):
        wigner_vacuum(IDENTITY, 0j, 1)


def test_wigner_vacuum_p_function_regular_when_broadened():
    # thermal-like broadening keeps the normally ordered distribution a function
    coeffs = bogoliubov_coeffs(SqueezeParams.symmetric(0.5))
    value = wigner_vacuum(coeffs, 0j, 1)
    aux = wigner_aux(coeffs, 1)
    assert aux.theta_plus > 0 and aux.theta_minus > 0
    assert value == pytest.approx(1 / (math.pi * math.sqrt(aux.theta_plus * aux.theta_minus)))


def test_fock_limit_values():
    assert fock_limit_wigner(1, 0j, 0) == pytest.approx(-2.0 / math.pi)
    assert fock_limit_wigner(0, 0.8 - 0.1j, 0) == pytest.approx(
        (2 / math.pi) * math.exp(-2 * (0.8 ** 2 + 0.1 ** 2))
    )


def test_fock_limit_husimi_branch():
    # s=-1 limit is the Husimi function of |n>
    n, z = 2, 1.0 + 0j
    rho2 = abs(z) ** 2
    assert fock_limit_wigner(n, z, -1) == pytest.approx(
        math.exp(-rho2) * rho2 ** n / (math.pi * math.factorial(n))
    )


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("s", [-1, 0])
def test_excited_mode1_reduces_to_fock_limit(n, s):
    zs = np.array([0j, 0.3 + 0.2j, 1.0 - 0.6j, 2.0j])
    got = wigner_excited(IDENTITY, n, "mode1", zs, s)
    want = fock_limit_wigner(n, zs, s)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 4])
def test_excited_mode3_reduces_to_vacuum_at_zero_coupling(n):
    zs = np.array([0j, 0.4 - 0.2j, 1.1 + 0.9j])
    got = wigner_excited(IDENTITY, n, "mode3", zs, 0)
    want = wigner_vacuum(IDENTITY, zs, 0)
    assert np.max(np.abs(got - want)) < 1e-12


def test_excited_guards():
    with pytest.raises(ValueError):
        wigner_excited(IDENTITY, 21, "mode1", 0j, 0)
    with pytest.raises(ValueError):
        wigner_excited(IDENTITY, 1, "mode1", 0j, 1)
    with pytest.raises(ValueError):
        wigner_excited(IDENTITY, 1, "mode2", 0j, 0)


def test_fock_point_example_from_transform_chain():
    # n=2, z=1, s=-1 equals the zero-coupling excited closed form
    value = fock_limit_wigner(2, 1.0 + 0j, -1)
    via_excited = float(wigner_excited(IDENTITY, 2, "mode1", 1.0 + 0j, -1))
    assert value == pytest.approx(via_excited, abs=1e-14)


def test_wigner_origin_matches_excited():
    coeffs = bogoliubov_coeffs(SqueezeParams(0.6, 0.8, 1.3))
    for n3 in (0, 1, 2, 3):
        assert wigner_origin(coeffs, n3, 0) == pytest.approx(
            float(wigner_excited(coeffs, n3, "mode3", 0j, 0)), abs=1e-14
        )
    assert wigner_origin(IDENTITY, 0, 0) == pytest.approx(2.0 / math.pi)


def test_wigner_origin_stack_rows_equal_one_triple_calls(rng):
    triples = rng.uniform(-3.0, 3.0, (5, 3))
    table = bogoliubov_table(triples)
    for n3 in (0, 1, 2, 5):
        for s in (-1, 0):
            stacked = wigner_origin(table, n3, s)
            assert stacked.shape == (5,)
            for p, triple in enumerate(triples):
                one = wigner_origin(bogoliubov_coeffs(SqueezeParams(*triple)), n3, s)
                assert isinstance(one, float) and stacked[p] == one


def test_wigner_origin_even_excitation_nonnegative(rng):
    for _ in range(60):
        coeffs = bogoliubov_coeffs(SqueezeParams(*rng.uniform(0, 3, 3)))
        assert wigner_origin(coeffs, 2, 0) >= -1e-12


def test_wigner_origin_slot3_nonnegative_everywhere(rng):
    # pair-coupling transfer never flips the origin parity of an unobserved
    # photon: the (0,0,n3) origin value stays nonnegative for any couplings
    for _ in range(60):
        coeffs = bogoliubov_coeffs(SqueezeParams(*rng.uniform(0, 4, 3)))
        assert wigner_origin(coeffs, 1, 0) >= -1e-12


def test_wigner_origin_mode1_slot_negativity_decay():
    # a photon in the observed mode keeps its negativity at weak coupling and
    # loses it as the amplifier noise grows
    first = float(wigner_excited(bogoliubov_coeffs(SqueezeParams(0.6, 0.8, 0.0)), 1, "mode1", 0j, 0))
    assert first < -0.04
    late = float(wigner_excited(bogoliubov_coeffs(SqueezeParams(0.6, 0.8, 4.5)), 1, "mode1", 0j, 0))
    assert abs(late) < 0.012


def test_wigner_closed_dispatcher():
    coeffs = bogoliubov_coeffs(SqueezeParams.symmetric(0.4))
    assert wigner_closed(coeffs, (0, 0, 0), 0j, 0) == pytest.approx(wigner_vacuum(coeffs, 0j, 0))
    assert wigner_closed(coeffs, (2, 0, 0), 0.3j, 0) == pytest.approx(
        float(wigner_excited(coeffs, 2, "mode1", 0.3j, 0))
    )
    assert wigner_closed(coeffs, (0, 0, 3), 0.3j, 0) == pytest.approx(
        float(wigner_excited(coeffs, 3, "mode3", 0.3j, 0))
    )
    assert wigner_closed(coeffs, (0, 1, 0), 0j, 0) is None
    assert wigner_closed(coeffs, (1, 0, 1), 0j, 0) is None


@pytest.mark.parametrize(
    "params,ns",
    [
        (SqueezeParams.symmetric(0.5), (0, 0, 0)),
        (SqueezeParams.symmetric(0.5), (0, 0, 1)),
        (SqueezeParams(0.4, 0.3, 0.7), (1, 0, 0)),
        (SqueezeParams(0.6, 0.8, 1.1), (0, 0, 2)),
    ],
)
def test_numeric_matches_closed_forms(params, ns):
    coeffs = bogoliubov_coeffs(params)
    xs = np.linspace(-3.0, 3.0, 31)
    ys = np.linspace(-2.5, 2.5, 29)
    grid = wigner_numeric(coeffs, ns, xs, ys, 0)
    closed = wigner_closed(coeffs, ns, xs[:, None] + 1j * ys[None, :], 0)
    assert np.max(np.abs(grid - closed)) < 1e-6


def test_numeric_handles_general_occupation():
    # (1, 1, 0) has no closed form; check normalization instead
    coeffs = bogoliubov_coeffs(SqueezeParams(0.3, 0.2, 0.4))
    hw = suggest_half_width(coeffs, (1, 1, 0), 0)
    xs = np.linspace(-hw, hw, 121)
    grid = wigner_numeric(coeffs, (1, 1, 0), xs, xs, 0)
    assert riemann_sum(xs, xs, grid) == pytest.approx(1.0, abs=1e-4)


def test_numeric_q_function_positive():
    coeffs = bogoliubov_coeffs(SqueezeParams(0.5, 0.7, 0.9))
    xs = np.linspace(-5.0, 5.0, 41)
    grid = wigner_numeric(coeffs, (0, 0, 1), xs, xs, -1)
    assert grid.min() >= -1e-10


def test_numeric_guards():
    coeffs = bogoliubov_coeffs(SqueezeParams.symmetric(0.3))
    xs = np.linspace(-2, 2, 11)
    with pytest.raises(ValueError):
        wigner_numeric(coeffs, (0, 0, 1), xs, xs, 1)
    with pytest.raises(ValueError):
        wigner_numeric(coeffs, (0, 0, 7), xs, xs, 0)
    for axis in (np.array([]), np.array([[0.0, 1.0]])):
        with pytest.raises(ValueError):
            wigner_numeric(coeffs, (0, 0, 1), axis, xs, 0)
        with pytest.raises(ValueError):
            wigner_numeric(coeffs, (0, 0, 1), xs, axis, 0)
    # the 257-point axis cap bounded only the quadrature's phase matrices
    long_axis = np.linspace(-2, 2, 300)
    grid = wigner_numeric(coeffs, (0, 0, 1), long_axis, xs, 0)
    reference = wigner_mpmath(coeffs, (0, 0, 1), long_axis, xs, 0)
    assert np.max(np.abs(grid - reference)) < 1e-12 * np.max(np.abs(reference))


@pytest.mark.parametrize("ns", [(0, 0, 1), (1, 1, 1), (2, 0, 1)])
@pytest.mark.parametrize("s", [0, -1])
def test_numeric_one_point_axes_equal_grid_cells(ns, s):
    # one axis rule: any non-empty axis, so origin-sweep's single point is a grid cell
    table = bogoliubov_table(np.random.default_rng(11).uniform(-1.5, 1.5, (7, 3)))
    xs, ys = np.linspace(-2.0, 2.0, 9), np.linspace(-1.5, 2.5, 7)
    for coeffs in (BogoliubovCoeffs(table.c[0], table.d[0], table.eigvals[0], table.eigvecs[0]), table):
        grid = wigner_numeric(coeffs, ns, xs, ys, s)
        scale = np.max(np.abs(grid))
        for i, j in ((0, 0), (4, 3), (8, 6), (2, 5)):
            cell = wigner_numeric(coeffs, ns, xs[i:i + 1], ys[j:j + 1], s)
            assert cell.shape == grid.shape[:-2] + (1, 1)
            assert np.max(np.abs(cell[..., 0, 0] - grid[..., i, j])) <= 1e-15 * scale


def test_occupations_must_be_integers():
    coeffs = bogoliubov_coeffs(SqueezeParams(0.2, 0.3, 0.1))
    xs = np.linspace(-2.0, 2.0, 5)
    calls = [
        lambda ns: wigner_closed(coeffs, ns, 0.3 + 0.1j, 0),
        lambda ns: wigner_numeric(coeffs, ns, xs, xs, 0),
        lambda ns: char_fn(coeffs, ns, 0.3 + 0.1j, 0),
        closed_form_slot,
    ]
    for ns, named in (((0.5, 0, 0), "0.5"), ((1.9, 0, 1), "1.9"), ((2.7, 0, 0), "2.7"),
                      ((0, 0, 0.99), "0.99"), ((1.0, 0, 0), "1.0")):
        for call in calls:
            with pytest.raises(ValueError, match=f"got {named}$"):
                call(ns)
    for ns in ((0, 0, 0), (1, 0, 0), (0, 0, 2), (1, 0, 1), (2, 1, 0)):
        numpy_ns = tuple(np.int64(n) for n in ns)
        for call in calls[:3]:
            plain, wrapped = call(ns), call(numpy_ns)
            assert (plain is None and wrapped is None) or np.array_equal(plain, wrapped)
        assert calls[3](numpy_ns) == calls[3](ns)
    assert NumberState(np.int64(1)) == NumberState(1)
    assert type(NumberState(np.uint8(2)).n) is int
    with pytest.raises(ValueError, match="1.0"):
        NumberState(1.0)


def test_suggested_window_normalizes_excited_case():
    coeffs = bogoliubov_coeffs(SqueezeParams.symmetric(0.5))
    hw = suggest_half_width(coeffs, (0, 0, 1), 0)
    xs = np.linspace(-hw, hw, 161)
    grid = wigner_numeric(coeffs, (0, 0, 1), xs, xs, 0)
    assert riemann_sum(xs, xs, grid) == pytest.approx(1.0, abs=1e-4)


def _axis_peak_count(section, floor=1e-4):
    return sum(
        1
        for i in range(1, len(section) - 1)
        if section[i] > section[i - 1] and section[i] > section[i + 1] and section[i] > floor
    )


def test_strong_pair_pump_builds_two_peak_structure():
    # photon in mode 3 plus a strong (2,3) amplifier stretches the mode-1
    # distribution into two separated lobes
    coeffs = bogoliubov_coeffs(SqueezeParams(0.6, 0.8, 2.0))
    xs = np.linspace(-6.0, 6.0, 121)
    w = wigner_excited(coeffs, 1, "mode3", xs[:, None] + 1j * xs[None, :], 0)
    mid = len(xs) // 2
    assert _axis_peak_count(w[:, mid]) == 2
    assert w.min() >= -1e-12  # the lobes are classical: no interference trough


def test_observed_mode_photon_keeps_negativity_with_two_peaks():
    coeffs = bogoliubov_coeffs(SqueezeParams(0.6, 0.8, 0.9))
    xs = np.linspace(-6.0, 6.0, 121)
    w = wigner_excited(coeffs, 1, "mode1", xs[:, None] + 1j * xs[None, :], 0)
    mid = len(xs) // 2
    assert w.min() < -0.02
    assert _axis_peak_count(w[:, mid]) == 2


def test_symmetric_excited_grid_stays_single_peaked_and_positive():
    coeffs = bogoliubov_coeffs(SqueezeParams.symmetric(1.1))
    xs = np.linspace(-6.0, 6.0, 121)
    w = wigner_excited(coeffs, 1, "mode3", xs[:, None] + 1j * xs[None, :], 0)
    assert w.min() >= -1e-12
    mid = len(xs) // 2
    assert _axis_peak_count(w[:, mid]) == 1


def test_vacuum_closed_form_normalizes():
    coeffs = bogoliubov_coeffs(SqueezeParams.symmetric(0.5))
    for s in (-1, 0):
        hw = suggest_half_width(coeffs, (0, 0, 0), s)
        xs = np.linspace(-hw, hw, 401)
        values = wigner_vacuum(coeffs, xs[:, None] + 1j * xs[None, :], s)
        dx = xs[1] - xs[0]
        assert float(values.sum() * dx * dx) == pytest.approx(1.0, abs=1e-6)
