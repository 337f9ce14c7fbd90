"""Command-line surface: plot-ready CSV/JSON sweeps and grids.

Subcommands
    coeffs        transform coefficient table as JSON
    squeeze-sweep CSV r1,r2,r3,c1,c2,Sx,Sy
    g2-sweep      CSV r1,r2,r3,n1,n2,n3,g2_mode
    cs-sweep      CSV r1,r2,r3,j,k,V
    wigner-grid   CSV x,y,w plus a JSON sidecar of the Gaussian-kernel data
    origin-sweep  CSV r1,r2,r3,w00
    oracle-verify JSON report of engine-vs-oracle agreement

Output contract: CSV uses '.' decimals, 17 significant digits, '\\n' line
endings and exactly the headers above; identical invocations produce
byte-identical files.  Exit codes: 0 success, 1 computation error (the
message names the violated guard), 2 usage error.  The environment variable
TRISQUEEZE_OUTDIR redirects relative output paths.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .fock_oracle import FockCutoff, SqueezePropagator, TruncationLeakageError, oracle_report
from .ladder import InputState
from .moments import QuadratureSelector, cauchy_schwarz, g2, squeezing
from .quasiprob import closed_form_slot, wigner_aux, wigner_closed, wigner_numeric
from .symplectic import (
    SqueezeParams,
    bogoliubov_coeffs,
    bogoliubov_table,
    valid_prefix,
)

OUTDIR_ENV = "TRISQUEEZE_OUTDIR"
# Largest number of rows of a sweep and of points of a grid; the figure set
# needs at most 401 rows and 161 x 161 = 25,921 grid points.
POINTS_MAX = 100_000


class UsageError(Exception):
    pass


def _check_points(count, what):
    """Refuse a sweep or grid of more than POINTS_MAX values before it is allocated."""
    if count > POINTS_MAX:
        raise UsageError(f"{what}: {count} points exceed the bound POINTS_MAX = {POINTS_MAX}")


def _parse_axis(spec, what):
    """A scalar or an inclusive "start:stop:count" sweep."""
    text = str(spec)
    if ":" not in text:
        try:
            return [float(text)]
        except ValueError:
            raise UsageError(f"{what}: cannot parse {spec!r} as a number")
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"{what}: sweep must be start:stop:count, got {spec!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise UsageError(f"{what}: sweep must be start:stop:count, got {spec!r}")
    if count < 2:
        raise UsageError(f"{what}: sweep count must be >= 2, got {count}")
    _check_points(count, what)
    with np.errstate(over="ignore", invalid="ignore"):  # wigner-grid refuses non-finite axes
        return [float(v) for v in np.linspace(start, stop, count)]


def _parse_params(args):
    """List of (r1, r2, r3) tuples from --r or --r1/--r2/--r3."""
    have_sym = args.r is not None
    have_asym = [args.r1 is not None, args.r2 is not None, args.r3 is not None]
    if have_sym and any(have_asym):
        raise UsageError("give either --r (symmetric) or --r1/--r2/--r3, not both")
    if have_sym:
        return [(v, v, v) for v in _parse_axis(args.r, "--r")]
    if not all(have_asym):
        missing = [f"--r{i+1}" for i, ok in enumerate(have_asym) if not ok]
        raise UsageError(f"asymmetric runs need all of --r1/--r2/--r3 (missing {', '.join(missing)})")
    axes = [
        _parse_axis(args.r1, "--r1"),
        _parse_axis(args.r2, "--r2"),
        _parse_axis(args.r3, "--r3"),
    ]
    _check_points(math.prod(map(len, axes)), "--r1/--r2/--r3")
    return list(itertools.product(*axes))


def _parse_state(spec):
    text = str(spec)
    if text.startswith("n="):
        try:
            values = [int(v) for v in text[2:].split(",")]
        except ValueError:
            raise UsageError(f"--state: cannot parse occupations in {spec!r}")
        if len(values) != 3:
            raise UsageError("--state n= needs exactly three occupations")
        try:
            return InputState.number(*values)
        except ValueError as exc:
            raise UsageError(f"--state: {exc}")
    if text.startswith("alpha="):
        parts = text[6:].split(",")
        if len(parts) != 3:
            raise UsageError("--state alpha= needs exactly three amplitudes")
        try:
            values = [complex(p.replace("i", "j")) for p in parts]
        except ValueError:
            raise UsageError(f"--state: cannot parse amplitudes in {spec!r}")
        try:
            return InputState.coherent(*values)
        except ValueError as exc:
            raise UsageError(f"--state: {exc}")
    raise UsageError("--state must be n=n1,n2,n3 or alpha=a1,a2,a3")


def _resolve_out(path):
    out = Path(path)
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not out.is_absolute():
        out = Path(outdir) / out
    return out


def _emit(args, text):
    if args.out is None:
        sys.stdout.write(text)
        return
    out = _resolve_out(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _replace_text(out, text)


def _replace_text(path, text):
    """Write ``text`` to a temporary file beside ``path`` (a plain write's mode) and os.replace it over
    ``path``, so a failed write leaves the old file whole; a symlink or device is written in place."""
    if path.is_symlink() or (path.exists() and not path.is_file()):
        path.write_text(text, encoding="utf-8", newline="")
        return
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# the coupling columns r1,r2,r3 of every sweep row
_R_CELLS = "%.17g,%.17g,%.17g,"


def _sweep_csv(args, header, row_format, evaluate):
    """CSV of a coupling sweep, one row per (r1, r2, r3), r1-major.

    ``evaluate(table)`` returns the value columns of all rows of the
    ``bogoliubov_table`` stack at once; ``row_format`` holds one %.17g per
    coupling and value column.  The error is the one a row-by-row loop meets
    first: a row outside the coupling guards is refused only after the rows
    before it have passed the moment guards.
    """
    triples = np.array(_parse_params(args), dtype=float)
    valid = valid_prefix(triples)
    columns = evaluate(bogoliubov_table(triples[:valid]))
    if valid < len(triples):
        SqueezeParams(*triples[valid])  # raises the row's guard message
    values = np.column_stack((triples, *columns))
    return header + "\n" + (row_format * len(values)) % tuple(values.reshape(-1).tolist())


def _grid_csv(xs, ys, values):
    """CSV of the rows (x_i, y_j, values[i, j]), each as %.17g.

    Each distinct row of ``values`` is formatted once, with its y cells, into a
    body that marks each line start with a NUL; each grid row is that body with
    its formatted x in place of the NULs.  On a mirrored axis an even W is
    expected to repeat row i as row n-1-i, which halves the formatting.  Rows
    are keyed on their bytes, not on float ==, because -0.0 and 0.0 compare
    equal but print differently.
    """
    keys = [row.tobytes() for row in values]
    bodies = dict.fromkeys(keys)
    row_format = "\x00" + "\x00".join(["%.17g,%%.17g\n" % y for y in ys.tolist()])
    for i, key in enumerate(keys):
        if bodies[key] is None:
            bodies[key] = row_format % tuple(values[i].tolist())
    heads = ["%.17g," % x for x in xs.tolist()]
    return "x,y,w\n" + "".join([bodies[key].replace("\x00", head)
                                for head, key in zip(heads, keys)])


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_coeffs(args):
    (triple,) = _require_scalar_params(args)
    coeffs = bogoliubov_coeffs(SqueezeParams(*triple))
    keys = ("f1", "f2", "g1", "g2", "h1", "h2")
    _emit(args, _json_text({f"mode{mode}": dict(zip(keys, map(float, coeffs.mode_row(mode))))
                            for mode in (1, 2, 3)}))


def _require_scalar_params(args):
    triples = _parse_params(args)
    if len(triples) != 1:
        raise UsageError("this subcommand takes scalar couplings, not sweeps")
    return triples


def cmd_squeeze_sweep(args):
    state = _parse_state(args.state)
    sel = QuadratureSelector(args.c1, args.c2)
    row_format = _R_CELLS + f"{args.c1},{args.c2},%.17g,%.17g\n"
    _emit(args, _sweep_csv(args, "r1,r2,r3,c1,c2,Sx,Sy", row_format,
                           lambda table: squeezing(table, sel, state)))


def cmd_g2_sweep(args):
    state = _parse_state(args.state)
    if not state.is_number_state:
        raise UsageError("g2-sweep encodes the state in its n1,n2,n3 columns; use --state n=")
    row_format = _R_CELLS + "%d,%d,%d,%%.17g\n" % state.occupations()
    _emit(args, _sweep_csv(args, "r1,r2,r3,n1,n2,n3,g2_mode", row_format,
                           lambda table: [g2(table, state, args.mode)]))


def cmd_cs_sweep(args):
    state = _parse_state(args.state)
    if args.j == args.k:
        raise UsageError("--j and --k must name distinct modes")
    row_format = _R_CELLS + f"{args.j},{args.k},%.17g\n"
    _emit(args, _sweep_csv(args, "r1,r2,r3,j,k,V", row_format,
                           lambda table: [cauchy_schwarz(table, state, args.j, args.k)]))


def cmd_origin_sweep(args):
    state = _parse_state(args.state)
    if not state.is_number_state:
        raise UsageError("origin-sweep needs a number state (--state n=)")
    ns = state.occupations()

    def origin_values(table):
        values = wigner_closed(table, ns, 0j, args.s)
        if values is None:
            values = wigner_numeric(table, ns, [0.0], [0.0], args.s)[:, 0, 0]
        return [values]

    _emit(args, _sweep_csv(args, "r1,r2,r3,w00", _R_CELLS + "%.17g\n", origin_values))


def _grid_metadata(xs, ys, s):
    return {
        "x": {"min": float(xs[0]), "max": float(xs[-1]), "count": int(xs.size)},
        "y": {"min": float(ys[0]), "max": float(ys[-1]), "count": int(ys.size)},
        "s": int(s),
    }


def cmd_wigner_grid(args):
    if args.out is None:
        raise UsageError("wigner-grid writes a data file plus a sidecar; --out is required")
    state = _parse_state(args.state)
    if not state.is_number_state:
        raise UsageError("quasiprobability grids are defined for number states (--state n=)")
    ns = state.occupations()
    (triple,) = _require_scalar_params(args)
    coeffs = bogoliubov_coeffs(SqueezeParams(*triple))
    xs = np.asarray(_parse_axis(args.x, "--x"))
    ys = np.asarray(_parse_axis(args.y, "--y"))
    if xs.size < 2 or ys.size < 2:
        raise UsageError("--x and --y must be sweeps (start:stop:count)")
    _check_points(xs.size * ys.size, "--x/--y")
    for flag, spec, axis in (("--x", args.x, xs), ("--y", args.y, ys)):
        if not np.isfinite(axis).all():
            raise UsageError(f"{flag}: sweep values must be finite, got {spec!r}")
        if axis[0] == -axis[-1] != 0.0:
            # a symmetric range as exact mirror images with 0 at an odd centre, which
            # np.linspace misses by up to 1.5 ulp of the range's end; the rows of an
            # even W are then expected to repeat, which _grid_csv checks row by row
            half = axis.size // 2
            axis[-half:] = -axis[half - 1::-1]
            axis[half:-half] = 0.0

    pattern = closed_form_slot(ns)  # closed forms where the pattern has one, else the series
    method, slot = ("closed", pattern[0]) if pattern is not None else ("numeric", None)
    with np.errstate(over="ignore", invalid="ignore"):  # the finite-value guard decides
        if method == "closed":
            values = wigner_closed(coeffs, ns, xs[:, None] + 1j * ys[None, :], args.s)
        else:
            values = wigner_numeric(coeffs, ns, xs, ys, args.s)
    if not np.isfinite(values).all():
        raise ArithmeticError("finite-value guard: the grid holds non-finite values; narrow --x/--y")

    payload = _grid_metadata(xs, ys, args.s)
    payload["method"] = method
    payload["aux"] = dataclasses.asdict(wigner_aux(coeffs, args.s, slot=slot))
    _emit(args, _grid_csv(xs, ys, values))
    _replace_text(_resolve_out(args.out).with_suffix(".aux.json"), _json_text(payload))


def cmd_oracle_verify(args):
    state = _parse_state(args.state)
    (triple,) = _require_scalar_params(args)
    propagator = SqueezePropagator(SqueezeParams(*triple), FockCutoff(args.cutoff))
    _emit(args, _json_text({**oracle_report(propagator, state), "state": args.state}))


def _add_param_flags(sub):
    sub.add_argument("--r", help="symmetric coupling, scalar or start:stop:count")
    sub.add_argument("--r1", help="pair (1,2) coupling, scalar or sweep")
    sub.add_argument("--r2", help="pair (1,3) coupling, scalar or sweep")
    sub.add_argument("--r3", help="pair (2,3) coupling, scalar or sweep")


@functools.cache
def build_parser():
    """The CLI's parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="trisqueeze",
        description="Nonclassicality diagnostics of the three-mode squeeze operator",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("coeffs", help="emit the transform coefficient table as JSON")
    _add_param_flags(sub)
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_coeffs)

    sub = subparsers.add_parser("squeeze-sweep", help="quadrature squeezing sweep CSV")
    _add_param_flags(sub)
    sub.add_argument("--c1", type=int, choices=(0, 1), required=True)
    sub.add_argument("--c2", type=int, choices=(0, 1), required=True)
    sub.add_argument("--state", required=True)
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_squeeze_sweep)

    sub = subparsers.add_parser("g2-sweep", help="second-order correlation sweep CSV")
    _add_param_flags(sub)
    sub.add_argument("--state", required=True)
    sub.add_argument("--mode", type=int, choices=(1, 2, 3), required=True)
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_g2_sweep)

    sub = subparsers.add_parser("cs-sweep", help="Cauchy-Schwarz ratio sweep CSV")
    _add_param_flags(sub)
    sub.add_argument("--state", required=True)
    sub.add_argument("--j", type=int, choices=(1, 2, 3), required=True)
    sub.add_argument("--k", type=int, choices=(1, 2, 3), required=True)
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_cs_sweep)

    sub = subparsers.add_parser("wigner-grid", help="quasiprobability grid CSV + aux sidecar")
    _add_param_flags(sub)
    sub.add_argument("--state", required=True)
    sub.add_argument("--s", type=int, choices=(-1, 0), default=0)
    sub.add_argument("--x", default="-4:4:101")
    sub.add_argument("--y", default="-4:4:101")
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_wigner_grid)

    sub = subparsers.add_parser("origin-sweep", help="phase-space-origin sweep CSV")
    _add_param_flags(sub)
    sub.add_argument("--state", required=True)
    sub.add_argument("--s", type=int, choices=(-1, 0), default=0)
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_origin_sweep)

    sub = subparsers.add_parser("oracle-verify", help="engine-vs-oracle verification JSON")
    _add_param_flags(sub)
    sub.add_argument("--state", required=True)
    sub.add_argument("--cutoff", type=int, default=14)
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_oracle_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (TruncationLeakageError, ValueError, ArithmeticError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
