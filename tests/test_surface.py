"""Pinned public surface: the package's exports, the figure script's outputs
and the names the benchmark tracer patches.

Dropping an export or a figure, breaking a figure's invocation, or renaming a
function the tracer names needs a visible edit here.
"""

import importlib
import importlib.util
import inspect
import json
import math
import runpy
import shutil
import sys
from pathlib import Path

import trisqueeze

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "reproduce_figures.py"
COMPARE = ROOT / "scripts" / "compare_outputs.py"
SPANS = ROOT / "perfbench" / "spans.py"

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
        "SqueezeParams",
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


def test_compare_outputs_reports_the_perturbed_file(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    runpy.run_path(str(SCRIPT))["run"](old)
    compare = runpy.run_path(str(COMPARE))["main"]
    capsys.readouterr()
    assert compare([str(old), str(old)]) == 0
    assert capsys.readouterr().out == "0 of 33 files differ\n"

    shutil.copytree(old, new)
    target = new / "g2_mode1_n111_symmetric.csv"
    lines = target.read_text().split("\n")
    cells = lines[3].split(",")
    cells[-1] = repr(float(cells[-1]) + 2.0 ** -20)
    lines[3] = ",".join(cells)
    target.write_text("\n".join(lines))
    assert compare([str(old), str(new)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "1 of 33 files differ",
        "g2_mode1_n111_symmetric.csv: largest absolute difference 9.54e-07 (row 3, g2_mode)",
        "",
    ]

    target.write_text("\n".join(lines[:-2] + [""]))
    assert compare([str(old), str(new)]) == 1
    assert capsys.readouterr().out == "mismatch: g2_mode1_n111_symmetric.csv: 199 rows != 200\n"


def _namespaces():
    """Attribute dicts of every loaded trisqueeze module and of the classes they define."""
    modules = [m for name, m in sys.modules.items()
               if name == "trisqueeze" or name.startswith("trisqueeze.")]
    classes = [obj for m in modules for obj in vars(m).values()
               if inspect.isclass(obj) and obj.__module__.startswith("trisqueeze.")]
    return {id(space): (space, dict(vars(space))) for space in modules + classes}


def test_benchmark_tracer_names_resolve_and_uninstall_cleanly():
    import trisqueeze.cli  # noqa: F401  (loads every module the tracer patches)

    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    pinned = []
    for modname, attrs in spans.LAYERS.values():
        module = importlib.import_module(modname)
        for attr in attrs or ():
            owner, _, name = attr.rpartition(".")
            owner = inspect.getattr_static(module, owner) if owner else module
            pinned.append((owner, name, inspect.getattr_static(owner, name)))
    assert pinned

    before = _namespaces()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for owner, name, original in pinned:
            assert inspect.getattr_static(owner, name) is not original, name
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    for key, (space, attrs) in before.items():
        restored = after[key][1]
        assert restored.keys() == attrs.keys(), space
        assert all(restored[name] is value for name, value in attrs.items()), space
