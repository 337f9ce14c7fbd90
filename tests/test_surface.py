"""Pinned public surface: the package's exports and the figure script's outputs.

Dropping an export or a figure, or breaking a figure's invocation, needs a
visible edit here.
"""

import json
import math
import runpy
from pathlib import Path

import trisqueeze

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"

_CSV_HEADERS = {
    "squeeze-sweep": "r1,r2,r3,c1,c2,Sx,Sy",
    "g2-sweep": "r1,r2,r3,n1,n2,n3,g2_mode",
    "cs-sweep": "r1,r2,r3,j,k,V",
    "wigner-grid": "x,y,w",
    "origin-sweep": "r1,r2,r3,w00",
}


def test_public_api_inventory():
    assert trisqueeze.__all__ == [
        "BogoliubovCoeffs",
        "CoherentState",
        "InputState",
        "LadderPolynomial",
        "NumberState",
        "PFunctionSingularError",
        "QuadratureSelector",
        "QuasiprobGrid",
        "SqueezeParams",
        "SymplecticReport",
        "UndefinedMomentError",
        "WignerAux",
        "bogoliubov_coeffs",
        "bogoliubov_table",
        "cauchy_schwarz",
        "char_fn",
        "coupling_matrix",
        "expectation",
        "fock_limit_wigner",
        "g2",
        "laguerre",
        "normal_order",
        "squeezing",
        "symplectic_check",
        "wigner_aux",
        "wigner_closed",
        "wigner_excited",
        "wigner_numeric",
        "wigner_origin",
        "wigner_series",
        "wigner_vacuum",
    ]
    assert all(hasattr(trisqueeze, name) for name in trisqueeze.__all__)


def _points(args, flag):
    """Points of a scalar or start:stop:count flag, given as "--f v" or "--f=v"; 1 if absent."""
    specs = [value for name, value in zip(args, args[1:]) if name == flag]
    specs += [arg.split("=", 1)[1] for arg in args if arg.startswith(flag + "=")]
    return int(specs[0].split(":")[2]) if specs and ":" in specs[0] else 1


def _expected_rows(args):
    flags = ("--x", "--y") if args[0] == "wigner-grid" else ("--r", "--r1", "--r2", "--r3")
    return math.prod(_points(args, flag) for flag in flags)


def test_reproduce_figures_writes_every_output(tmp_path):
    script = runpy.run_path(str(SCRIPT))
    script["run"](tmp_path)
    expected = set()
    for filename, args in script["RUNS"]:
        target = tmp_path / filename
        expected.add(target.name)
        if args[0] == "oracle-verify":
            report = json.loads(target.read_text())
            assert set(report) == {
                "cutoff", "leakage", "max_rel_error", "params", "quantities", "state"}
            continue
        lines = target.read_text().split("\n")
        assert lines[0] == _CSV_HEADERS[args[0]], filename
        assert lines[-1] == "" and len(lines) - 2 == _expected_rows(args), filename
        if args[0] == "wigner-grid":
            sidecar = target.with_suffix(".aux.json")
            expected.add(sidecar.name)
            assert set(json.loads(sidecar.read_text())) == {"aux", "method", "s", "x", "y"}
    assert len(expected) == 33
    assert {path.name for path in tmp_path.iterdir()} == expected
