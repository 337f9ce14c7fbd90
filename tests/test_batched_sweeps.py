"""The batched sweep commands against a per-row reference.

``squeeze-sweep``, ``g2-sweep`` and ``cs-sweep`` evaluate all rows of a sweep
with one stacked eigendecomposition and one contraction per moment.  Here
every CSV row is recomputed on its own, from ``bogoliubov_coeffs`` of that
row's couplings and the scalar normal-ordering path of
``reference_moments``, and the rows must come in r1-major order of the axes.
Values are held to |csv - reference| <= 1e-12 (1 + |reference|), the envelope
of ``test_moment_equivalence`` (Fock n <= 3, |alpha| <= 2, |r| <= 2).
"""

import itertools
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trisqueeze.cli import main
from trisqueeze.ladder import InputState
from trisqueeze.moments import QuadratureSelector, UndefinedMomentError
from trisqueeze.symplectic import SqueezeParams, bogoliubov_coeffs

import reference_moments as ref

TOL = 1e-12


def _axis(spec):
    if ":" not in spec:
        return [float(spec)]
    start, stop, count = spec.split(":")
    return list(np.linspace(float(start), float(stop), int(count)))


def _state(spec):
    if spec.startswith("n="):
        return InputState.number(*(int(n) for n in spec[2:].split(",")))
    return InputState.coherent(*(complex(a.replace("i", "j")) for a in spec[6:].split(",")))


def _reference_row(command, coeffs, state, opts):
    """Value cells of one CSV row, from the scalar reference path."""
    if command == "squeeze-sweep":
        return list(ref.squeezing(coeffs, QuadratureSelector(opts["c1"], opts["c2"]), state))
    if command == "g2-sweep":
        return [ref.ref_g2(coeffs, state, opts["mode"])]
    return [ref.ref_cauchy_schwarz(coeffs, state, opts["j"], opts["k"])]


def _argv(command, axes, state, opts):
    argv = [command]
    if "r" in axes:
        argv.append(f"--r={axes['r']}")
    else:
        argv += [f"--r{i}={axes[f'r{i}']}" for i in (1, 2, 3)]
    argv += ["--state", state]
    argv += [f"--{name}={value}" for name, value in opts.items()]
    return argv


def _check_sweep(tmp_path, capsys, command, axes, state_spec, opts):
    if "r" in axes:
        triples = [(r, r, r) for r in _axis(axes["r"])]
    else:
        triples = list(itertools.product(*(_axis(axes[f"r{i}"]) for i in (1, 2, 3))))
    state = _state(state_spec)
    out = tmp_path / "sweep.csv"
    code = main(_argv(command, axes, state_spec, opts) + ["--out", str(out)])
    try:
        expected = [_reference_row(command, bogoliubov_coeffs(SqueezeParams(*t)), state, opts)
                    for t in triples]
    except UndefinedMomentError:
        assert code == 1
        assert "undefined" in capsys.readouterr().err
        assert not out.exists()
        return
    assert code == 0
    lines = out.read_text().split("\n")
    assert lines[-1] == ""
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:-1]]
    assert len(rows) == len(triples)
    n_const = {"squeeze-sweep": 2, "g2-sweep": 3, "cs-sweep": 2}[command]
    for row, triple, want in zip(rows, triples, expected):
        assert tuple(row[:3]) == triple  # r1-major order, couplings round-trip exactly
        for got, value in zip(row[3 + n_const:], want):
            assert abs(got - value) <= TOL * (1.0 + abs(value)), (triple, got, value)


GRID_CASES = [
    ("squeeze-sweep", {"r": "0:2:9"}, "n=0,0,0", {"c1": 1, "c2": 1}),
    ("squeeze-sweep", {"r1": "-1:1:4", "r2": "0.3", "r3": "0:2:3"}, "alpha=1+1i,-0.5i,0.3",
     {"c1": 1, "c2": 0}),
    ("squeeze-sweep", {"r1": "0.2", "r2": "-2:0.5:3", "r3": "-0.7:0.7:3"}, "n=3,0,2",
     {"c1": 0, "c2": 0}),
    ("g2-sweep", {"r": "-2:2:9"}, "n=3,3,3", {"mode": 2}),
    ("g2-sweep", {"r1": "0:1.5:3", "r2": "0.1", "r3": "-1:1:4"}, "n=1,0,1", {"mode": 3}),
    ("g2-sweep", {"r1": "0.5:-0.5:3", "r2": "0.2:1.9:2", "r3": "0.05"}, "n=0,2,0", {"mode": 1}),
    ("cs-sweep", {"r": "0.005:2:7"}, "alpha=-1.4+1.4i,2i,-2", {"j": 1, "k": 2}),
    ("cs-sweep", {"r1": "0.1", "r2": "0:1:3", "r3": "-1:1:5"}, "n=3,0,2", {"j": 2, "k": 3}),
    ("cs-sweep", {"r1": "-1.2:1.2:4", "r2": "0.5", "r3": "0.3:2:3"}, "n=0,3,1", {"j": 3, "k": 1}),
    ("cs-sweep", {"r1": "0:0.6:3", "r2": "0.4", "r3": "-0.3:0.3:3"}, "alpha=1+0i,-0.3+0.2i,0",
     {"j": 1, "k": 3}),
]


@pytest.mark.parametrize("command, axes, state, opts", GRID_CASES)
def test_sweep_matches_per_row_reference(tmp_path, capsys, command, axes, state, opts):
    _check_sweep(tmp_path, capsys, command, axes, state, opts)


_r = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
_axis_spec = st.builds(
    lambda lo, hi, count, swept: f"{lo!r}:{hi!r}:{count}" if swept else repr(lo),
    _r, _r, st.integers(2, 3), st.booleans(),
)
_component = st.floats(min_value=-1.41, max_value=1.41, allow_nan=False)
_fock = st.tuples(*[st.integers(0, 3)] * 3).map(lambda ns: "n=" + ",".join(map(str, ns)))
_coherent = st.tuples(*[st.tuples(_component, _component)] * 3).map(
    lambda amps: "alpha=" + ",".join(f"{re!r}{im:+}i" for re, im in amps))


@st.composite
def _sweeps(draw, command, kind):
    if draw(st.booleans()):
        axes = {"r": draw(_axis_spec)}
    else:
        axes = {f"r{i}": draw(_axis_spec) for i in (1, 2, 3)}
    state = draw(_fock if kind == "fock" else _coherent)
    if command == "squeeze-sweep":
        opts = {"c1": draw(st.integers(0, 1)), "c2": draw(st.integers(0, 1))}
    elif command == "g2-sweep":
        opts = {"mode": draw(st.integers(1, 3))}
    else:
        j, k = draw(st.permutations([1, 2, 3]))[:2]
        opts = {"j": j, "k": k}
    return command, axes, state, opts


@pytest.mark.parametrize("command, kind", [
    ("squeeze-sweep", "fock"), ("squeeze-sweep", "coherent"), ("g2-sweep", "fock"),
    ("cs-sweep", "fock"), ("cs-sweep", "coherent"),
])
@given(data=st.data())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_sweep_matches_per_row_reference_random(tmp_path_factory, capsys, command, kind, data):
    case = data.draw(_sweeps(command, kind))
    _check_sweep(tmp_path_factory.mktemp("sweep"), capsys, *case)


def test_fresh_processes_write_identical_bytes(tmp_path):
    argv = ["cs-sweep", "--r1=-1:1:5", "--r2", "0.3", "--r3=0.1:1.5:4",
            "--state", "alpha=1+0.5i,-0.7i,0.2", "--j", "1", "--k", "3"]
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        subprocess.run([sys.executable, "-m", "trisqueeze", *argv, "--out", str(out)],
                       check=True, capture_output=True)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].read_text().count("\n") == 1 + 5 * 4
