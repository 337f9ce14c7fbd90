import argparse
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisqueeze import cli
from trisqueeze.cli import main


def run_cli(args):
    return main(list(args))


def read_csv(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""  # trailing newline
    return lines[0], [line.split(",") for line in lines[1:-1]]


def test_squeeze_sweep_contract(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli([
        "squeeze-sweep", "--r", "0:1:101", "--c1", "1", "--c2", "1",
        "--state", "n=0,0,0", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == "r1,r2,r3,c1,c2,Sx,Sy"
    assert len(rows) == 101
    mid = rows[50]
    assert float(mid[0]) == pytest.approx(0.5)
    assert float(mid[5]) == pytest.approx(-0.8647, abs=1e-4)
    assert float(mid[5]) == pytest.approx(math.exp(-2.0) - 1.0, abs=1e-12)


def test_sweep_is_deterministic(tmp_path):
    args = ["squeeze-sweep", "--r1", "0:0.5:7", "--r2", "0.1", "--r3", "0.2",
            "--c1", "1", "--c2", "0", "--state", "n=0,0,0"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_partial_r_flags_usage_error(capsys):
    code = run_cli(["squeeze-sweep", "--r1", "0.5", "--r2", "0.5",
                    "--c1", "1", "--c2", "1", "--state", "n=0,0,0"])
    assert code == 2
    assert "--r3" in capsys.readouterr().err


def test_conflicting_r_flags_usage_error():
    code = run_cli(["coeffs", "--r", "0.5", "--r1", "0.5", "--r2", "0.1", "--r3", "0.2"])
    assert code == 2


def test_bad_state_usage_error():
    code = run_cli(["g2-sweep", "--r", "0.5", "--state", "m=1,1,1", "--mode", "1"])
    assert code == 2


def test_g2_sweep_rows(tmp_path):
    out = tmp_path / "g2.csv"
    code = run_cli([
        "g2-sweep", "--r1", "0:1:11", "--r2", "0.1", "--r3", "0.2",
        "--state", "n=1,1,1", "--mode", "1", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == "r1,r2,r3,n1,n2,n3,g2_mode"
    assert len(rows) == 11
    assert rows[0][3:6] == ["1", "1", "1"]
    from trisqueeze import InputState, SqueezeParams, bogoliubov_coeffs, g2

    expected = g2(bogoliubov_coeffs(SqueezeParams(0.0, 0.1, 0.2)), InputState.number(1, 1, 1), 1)
    assert float(rows[0][6]) == pytest.approx(expected, abs=1e-12)


def test_g2_sweep_rejects_coherent_state():
    code = run_cli(["g2-sweep", "--r", "0.5", "--state", "alpha=1,1,1", "--mode", "1"])
    assert code == 2


def test_g2_sweep_undefined_ratio_is_computation_error(capsys):
    code = run_cli(["g2-sweep", "--r", "0", "--state", "n=0,0,0", "--mode", "1"])
    assert code == 1
    assert "undefined" in capsys.readouterr().err


def test_guard_violation_is_computation_error(capsys):
    code = run_cli(["coeffs", "--r", "12"])
    assert code == 1
    assert "must not exceed" in capsys.readouterr().err


def test_cs_sweep(tmp_path):
    out = tmp_path / "cs.csv"
    code = run_cli([
        "cs-sweep", "--r", "0:1.5:4", "--state", "alpha=1+0i,1,1",
        "--j", "1", "--k", "2", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == "r1,r2,r3,j,k,V"
    assert float(rows[0][5]) == pytest.approx(0.0, abs=1e-12)


def test_cs_sweep_equal_modes_usage_error():
    code = run_cli(["cs-sweep", "--r", "0.5", "--state", "n=1,1,1", "--j", "2", "--k", "2"])
    assert code == 2


def test_coeffs_json(tmp_path, capsys):
    code = run_cli(["coeffs", "--r", "0.5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode1"]["f1"] == pytest.approx((2 * math.cosh(0.5) + math.cosh(1.0)) / 3)
    assert set(payload) == {"mode1", "mode2", "mode3"}


def test_coeffs_rejects_sweep():
    assert run_cli(["coeffs", "--r", "0:1:5"]) == 2


_ONE_OVER = cli.POINTS_MAX + 1  # 100,001 = 11 x 9,091


@pytest.mark.parametrize("argv, what", [
    (["squeeze-sweep", "--r", f"0:1:{_ONE_OVER}", "--c1", "1", "--c2", "1",
      "--state", "n=0,0,0"], "--r"),
    (["cs-sweep", "--r1", "0:0.1:11", "--r2", "0:0.1:9091", "--r3", "0.1",
      "--state", "n=1,1,1", "--j", "1", "--k", "2"], "--r1/--r2/--r3"),
    (["wigner-grid", "--r", "0.3", "--state", "n=0,0,1", "--x=-4:4:11", "--y=-4:4:9091"],
     "--x/--y"),
])
def test_oversized_sweeps_and_grids_are_usage_errors(tmp_path, capsys, argv, what):
    out = tmp_path / "out.csv"
    assert run_cli(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"usage error: {what}: {_ONE_OVER} points exceed the bound POINTS_MAX = {cli.POINTS_MAX}\n"
    )
    assert not out.exists()


def test_wigner_grid_files_and_sidecar(tmp_path):
    out = tmp_path / "grid.csv"
    code = run_cli([
        "wigner-grid", "--r", "0.5", "--state", "n=0,0,1",
        "--x=-2:2:21", "--y=-2:2:21", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == "x,y,w"
    assert len(rows) == 21 * 21
    sidecar = tmp_path / "grid.aux.json"
    payload = json.loads(sidecar.read_text())
    assert payload["method"] == "closed"
    assert payload["aux"]["slot"] == "mode3"
    assert payload["aux"]["kernel_det"] == pytest.approx(
        payload["aux"]["theta_plus"] * payload["aux"]["theta_minus"], rel=1e-12
    )
    assert payload["x"] == {"min": -2.0, "max": 2.0, "count": 21}


_AUX_FIELDS = (
    "lambda1", "lambda2", "b", "kernel_det", "theta_plus", "theta_minus",
    "eta_plus", "eta_minus", "s", "slot",
)


@pytest.mark.parametrize("state, slot, method", [
    ("n=0,0,1", "mode3", "closed"),
    ("n=0,1,0", None, "numeric"),
])
def test_wigner_grid_sidecar_bytes(tmp_path, state, slot, method):
    # the sidecar's exact bytes: every WignerAux field, sorted keys, indent 2
    from trisqueeze import SqueezeParams, bogoliubov_coeffs, wigner_aux

    out = tmp_path / "grid.csv"
    code = run_cli([
        "wigner-grid", "--r", "0.3", "--state", state,
        "--x=-1:1:5", "--y=-1:1:3", "--out", str(out),
    ])
    assert code == 0
    aux = wigner_aux(bogoliubov_coeffs(SqueezeParams.symmetric(0.3)), 0, slot=slot)
    expected = {
        "x": {"min": -1.0, "max": 1.0, "count": 5},
        "y": {"min": -1.0, "max": 1.0, "count": 3},
        "s": 0,
        "method": method,
        "aux": {name: getattr(aux, name) for name in _AUX_FIELDS},
    }
    text = json.dumps(expected, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "grid.aux.json").read_bytes() == text.encode("utf-8")


def test_wigner_grid_json_format(tmp_path):
    out = tmp_path / "grid.json"
    code = run_cli([
        "wigner-grid", "--r", "0.5", "--state", "n=0,0,0",
        "--x=-1:1:5", "--y=-1:1:3", "--format", "json", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["values"]) == 5 * 3
    # row-major over (x, y): x index 2 is x=0, y index 2 is y=1
    from trisqueeze import bogoliubov_coeffs, wigner_vacuum, SqueezeParams

    coeffs = bogoliubov_coeffs(SqueezeParams.symmetric(0.5))
    assert payload["values"][2 * 3 + 2] == pytest.approx(wigner_vacuum(coeffs, 0.0 + 1.0j, 0))


def reference_grid_csv(xs, ys, values):
    """The grid writer it replaced: one _fmt call per cell, rows joined one by one."""
    rows = [
        ",".join(format(float(v), ".17g") for v in (xs[i], ys[j], values[i, j]))
        for i in range(len(xs))
        for j in range(len(ys))
    ]
    return "\n".join(["x,y,w"] + rows) + "\n"


_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e300, -1e300,
    1e-300, -1e-300, 1.7976931348623157e308, 0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0,
    1.0000000000000002, 123456789.12345679, 4.35, -7e22,
]


def test_grid_writer_edge_values():
    values = np.array(_EDGE_FLOATS).reshape(6, 3)
    xs, ys = values[:, 0].copy(), values[:3, 2].copy()
    assert cli._grid_csv(xs, ys, values) == reference_grid_csv(xs, ys, values)
    assert cli._grid_csv(xs, ys, values.T.copy().T) == reference_grid_csv(xs, ys, values)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(data=st.data(), nx=st.integers(1, 7), ny=st.integers(1, 7))
@settings(max_examples=200, deadline=None)
def test_grid_writer_matches_per_cell_reference(data, nx, ny):
    xs = np.array(data.draw(st.lists(_finite, min_size=nx, max_size=nx)))
    ys = np.array(data.draw(st.lists(_finite, min_size=ny, max_size=ny)))
    values = np.array(data.draw(st.lists(_finite, min_size=nx * ny, max_size=nx * ny)))
    values = values.reshape(nx, ny)
    assert cli._grid_csv(xs, ys, values) == reference_grid_csv(xs, ys, values)


@pytest.mark.parametrize("state, method", [("n=1,0,0", "closed"), ("n=1,1,0", "numeric")])
def test_wigner_grid_csv_matches_per_cell_reference(tmp_path, state, method):
    from trisqueeze import SqueezeParams, bogoliubov_coeffs, wigner_closed, wigner_numeric

    out = tmp_path / "grid.csv"
    code = run_cli(["wigner-grid", "--r1", "0.3", "--r2", "0.2", "--r3", "0.1", "--state", state,
                    "--s", "-1", "--x=-3:2.5:13", "--y=-1.7:3:9", "--out", str(out)])
    assert code == 0
    coeffs = bogoliubov_coeffs(SqueezeParams(0.3, 0.2, 0.1))
    ns = tuple(int(n) for n in state[2:].split(","))
    xs, ys = np.linspace(-3, 2.5, 13), np.linspace(-1.7, 3, 9)
    if method == "closed":
        values = wigner_closed(coeffs, ns, xs[:, None] + 1j * ys[None, :], -1)
    else:
        values = wigner_numeric(coeffs, ns, xs, ys, -1)
    assert out.read_text() == reference_grid_csv(xs, ys, values)
    assert json.loads((tmp_path / "grid.aux.json").read_text())["method"] == method


def test_reused_parser_matches_fresh_parser(tmp_path, monkeypatch, capsys):
    # one process: explicit s, default s, json, s=0, two usage errors, then valid calls
    grid = ["wigner-grid", "--r", "0.3", "--state", "n=0,0,1", "--x=-1:1:5", "--y=-1:1:4"]
    missing_out = ["wigner-grid", "--r", "0.3", "--state", "n=0,0,1"]
    sequence = [
        grid + ["--s", "-1"],
        grid,
        grid + ["--format", "json"],
        grid + ["--s", "0"],
        grid + ["--s", "2"],
        missing_out,
        grid + ["--s", "-1", "--format", "json"],
        grid,
    ]

    def run_sequence(tag):
        results = []
        for k, argv in enumerate(sequence):
            out = tmp_path / tag / f"{k}.csv"
            try:
                code = main(argv if argv is missing_out else argv + ["--out", str(out)])
            except SystemExit as exc:
                code = exc.code
            sidecar = out.with_suffix(".aux.json")
            results.append((code, capsys.readouterr(),
                            out.read_bytes() if out.exists() else None,
                            sidecar.read_bytes() if sidecar.exists() else None))
        return results

    assert cli.build_parser() is cli.build_parser()
    reused = run_sequence("reused")
    assert [r[0] for r in reused] == [0, 0, 0, 0, 2, 2, 0, 0]
    assert reused[0][3] != reused[1][3]  # the sidecar records s
    assert reused[1][2:] == reused[-1][2:]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cli.build_parser() is not cli.build_parser()
    assert run_sequence("fresh") == reused


@pytest.mark.parametrize("flag", ["--x=nan:4:5", "--y=-inf:1:3", "--x=1:inf:3", "--y=-1e308:1e308:5"])
def test_wigner_grid_rejects_non_finite_axis(tmp_path, capsys, flag):
    # no numpy warning may precede the guard line (tier-1 turns RuntimeWarnings into errors)
    out = tmp_path / "grid.csv"
    code = run_cli(["wigner-grid", "--r", "0.3", "--state", "n=0,0,1", flag, "--out", str(out)])
    assert code == 2
    name, spec = flag.split("=", 1)
    guard = f"usage error: {name}: sweep values must be finite, got {spec!r}\n"
    assert capsys.readouterr().err == guard
    assert not out.exists()


def test_wigner_grid_refuses_non_finite_values(tmp_path):
    # finite axis values whose squares overflow: Gaussian 0 times Laguerre inf is nan;
    # a fresh process shows any numpy warning on its stderr
    out = tmp_path / "grid.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "trisqueeze", "wigner-grid", "--r", "0.3", "--state", "n=0,0,1",
         "--x=1e300:1e301:5", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        "computation error: finite-value guard: the grid holds non-finite values; narrow --x/--y\n"
    )
    assert not out.exists() and not out.with_suffix(".aux.json").exists()


def test_wigner_grid_series_refuses_non_finite_values(tmp_path):
    # a pattern without a closed form meets the same finite-value guard
    out = tmp_path / "grid.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "trisqueeze", "wigner-grid", "--r", "0.3", "--state", "n=0,1,0",
         "--x=1e300:1e301:5", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        "computation error: finite-value guard: the grid holds non-finite values; narrow --x/--y\n"
    )
    assert not out.exists() and not out.with_suffix(".aux.json").exists()


# stderr lines and exit codes of the row-by-row sweeps: the first row that trips a
# guard names the error, also when a later row is outside the coupling guards
SWEEP_ERRORS = [
    (["g2-sweep", "--r", "0:0.5:3", "--state", "n=0,0,0", "--mode", "1"],
     "computation error: g2 of mode 1 is undefined: mean photon number 0.0 below 1e-12"),
    (["cs-sweep", "--r1", "0:0.5:3", "--r2", "0", "--r3", "0.3", "--state", "n=0,0,0",
      "--j", "1", "--k", "2"],
     "computation error: V_12 is undefined: <n_1 n_2> = 0.0 below 1e-12"),
    (["cs-sweep", "--r1", "0.5:0:3", "--r2", "0", "--r3", "0.3", "--state", "n=0,0,0",
      "--j", "1", "--k", "2"],
     "computation error: V_12 is undefined: <n_1 n_2> = 0.0 below 1e-12"),
    (["squeeze-sweep", "--r", "9:11:3", "--c1", "1", "--c2", "1", "--state", "n=0,0,0"],
     "computation error: |r1| must not exceed 10.0, got 11.0"),
    (["cs-sweep", "--r1", "0.1:0.2:2", "--r2=9:12:4", "--r3", "0.3", "--state", "alpha=1,1j,0",
      "--j", "1", "--k", "3"],
     "computation error: |r2| must not exceed 10.0, got 11.0"),
    (["g2-sweep", "--r", "0:12:4", "--state", "n=0,0,0", "--mode", "1"],
     "computation error: g2 of mode 1 is undefined: mean photon number 0.0 below 1e-12"),
    (["origin-sweep", "--r1", "0.2", "--r2", "0.3", "--r3=-10.5:10.5:3", "--state", "n=1,0,0"],
     "computation error: |r3| must not exceed 10.0, got -10.5"),
    (["origin-sweep", "--r1", "0.2", "--r2", "0.3", "--r3=-10.5:10.5:3", "--state", "n=0,1,0"],
     "computation error: |r3| must not exceed 10.0, got -10.5"),
    (["origin-sweep", "--r", "0.2", "--state", "n=0,7,0"],
     "computation error: occupations above 6 are not supported numerically"),
]


@pytest.mark.parametrize("argv, message", SWEEP_ERRORS)
def test_sweep_errors_name_first_offending_row(tmp_path, capsys, argv, message):
    out = tmp_path / "sweep.csv"
    assert run_cli(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


def test_wigner_grid_requires_out():
    assert run_cli(["wigner-grid", "--r", "0.5", "--state", "n=0,0,1"]) == 2


def test_origin_sweep(tmp_path):
    out = tmp_path / "origin.csv"
    code = run_cli([
        "origin-sweep", "--r1", "0.6", "--r2", "0.8", "--r3", "0:6:13",
        "--state", "n=0,0,1", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == "r1,r2,r3,w00"
    assert len(rows) == 13
    assert float(rows[0][3]) == pytest.approx(0.0897, abs=1e-3)


def test_origin_sweep_mode1_pattern(tmp_path):
    out = tmp_path / "origin1.csv"
    code = run_cli([
        "origin-sweep", "--r1", "0.6", "--r2", "0.8", "--r3", "0",
        "--state", "n=1,0,0", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv(out)
    assert float(rows[0][3]) < -0.04


@pytest.mark.parametrize("s", ["0", "-1"])
def test_origin_sweep_series_patterns(tmp_path, s):
    # patterns without a closed form take the exact series at z = 0
    from trisqueeze import SqueezeParams, bogoliubov_coeffs

    from reference_quasiprob import wigner_mpmath, wigner_quadrature

    for state in ("n=0,1,0", "n=1,1,0"):
        out = tmp_path / "origin.csv"
        code = run_cli(["origin-sweep", "--r1", "0.6", "--r2", "0.8", "--r3", "0:1.5:4",
                        "--state", state, "--s", s, "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 4
        ns = tuple(int(n) for n in state[2:].split(","))
        for row in rows:
            coeffs = bogoliubov_coeffs(SqueezeParams(*(float(v) for v in row[:3])))
            value = float(row[3])
            assert abs(value - wigner_quadrature(coeffs, ns, [0.0], [0.0], int(s))[0, 0]) < 1e-8
            exact = wigner_mpmath(coeffs, ns, [0.0], [0.0], int(s))[0, 0]
            assert abs(value - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize("state", ["n=0,0,0", "n=2,0,0", "n=0,0,3"])
@pytest.mark.parametrize("s", ["0", "-1"])
def test_origin_sweep_batched_closed_rows(tmp_path, state, s):
    # one closed-form call over the sweep's table gives the per-row values
    from trisqueeze import SqueezeParams, bogoliubov_coeffs, wigner_closed

    out = tmp_path / "origin.csv"
    code = run_cli(["origin-sweep", "--r1", "0.6", "--r2=-0.8", "--r3", "0:6:13",
                    "--state", state, "--s", s, "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    ns = tuple(int(n) for n in state[2:].split(","))
    for row in rows:
        coeffs = bogoliubov_coeffs(SqueezeParams(*(float(v) for v in row[:3])))
        assert float(row[3]) == wigner_closed(coeffs, ns, 0j, int(s))


def test_outdir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("TRISQUEEZE_OUTDIR", str(tmp_path))
    code = run_cli(["coeffs", "--r", "0.3", "--out", "nested/coeffs.json"])
    assert code == 0
    assert (tmp_path / "nested" / "coeffs.json").exists()


def test_oracle_verify_report(tmp_path):
    out = tmp_path / "verify.json"
    code = run_cli([
        "oracle-verify", "--r1", "0.15", "--r2", "0.1", "--r3", "0.12",
        "--state", "n=0,0,1", "--cutoff", "9", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["max_rel_error"] < 1e-6
    names = {q["name"] for q in payload["quantities"]}
    assert {"mean_n1", "g2_1", "v_12", "var_x_c11", "wigner_origin"} <= names
    assert payload["leakage"]["norm_defect"] < 1e-8
    # the CLI emits the shared report plus the state string, byte for byte
    from trisqueeze import InputState, SqueezeParams
    from trisqueeze.fock_oracle import FockCutoff, SqueezePropagator, oracle_report

    propagator = SqueezePropagator(SqueezeParams(0.15, 0.1, 0.12), FockCutoff(9))
    report = {**oracle_report(propagator, InputState.number(0, 0, 1)), "state": "n=0,0,1"}
    assert out.read_text() == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_oracle_verify_refuses_leaky_run(capsys):
    code = run_cli([
        "oracle-verify", "--r", "1.2", "--state", "n=0,0,0", "--cutoff", "6",
    ])
    assert code == 1
    assert "leakage" in capsys.readouterr().err


_PARAM_FLAGS = {"-h", "--help", "--r", "--r1", "--r2", "--r3"}
_SUBCOMMAND_FLAGS = {
    "coeffs": {"--out"},
    "squeeze-sweep": {"--c1", "--c2", "--state", "--out"},
    "g2-sweep": {"--state", "--mode", "--out"},
    "cs-sweep": {"--state", "--j", "--k", "--out"},
    "wigner-grid": {"--state", "--s", "--x", "--y", "--format", "--out"},
    "origin-sweep": {"--state", "--s", "--out"},
    "oracle-verify": {"--state", "--cutoff", "--out"},
}


def test_option_inventory():
    # every subcommand's flag set is pinned, so a new option needs a visible edit here
    (subparsers,) = [action for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    flags = {name: {flag for action in sub._actions for flag in action.option_strings}
             for name, sub in subparsers.choices.items()}
    assert flags == {name: own | _PARAM_FLAGS for name, own in _SUBCOMMAND_FLAGS.items()}


@pytest.mark.parametrize("argv", [
    ["wigner-grid", "--r", "0.3", "--state", "n=0,0,1", "--method", "closed"],
    ["oracle-verify", "--r", "0.1", "--state", "n=0,0,0", "--max-leakage", "1e-6"],
])
def test_removed_options_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--out", str(out)])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err
    assert not out.exists()


def test_oracle_verify_loads_no_scipy(tmp_path):
    # the oracle is numpy-only: a fresh interpreter runs oracle-verify without scipy
    out = tmp_path / "verify.json"
    script = (
        "import sys\n"
        "from trisqueeze.cli import main\n"
        f"code = main(['oracle-verify', '--r', '0.1', '--state', 'n=0,0,1', '--out', {str(out)!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 []\n", "")
    assert json.loads(out.read_text())["max_rel_error"] < 1e-6


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "trisqueeze", "coeffs", "--r", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["mode1"]["f1"] == 1.0
