"""Checks of each invocation's output files, run outside the timed region.

Every seed: exit code 0, the fixed CSV header (or the oracle JSON layout),
the expected row count, finite values and physically admissible ranges.
Grids must integrate to one and report the method their pattern implies.
``oracle-verify`` must agree with the engine within ORACLE_RTOL (absolute
floor ORACLE_ATOL) and pass its leakage guard.  On the default seed, sampled
values are also compared against reference values recorded from an earlier
commit, at the tolerances in TOLERANCE; bytes are not compared, since an
engine change may move the last ulps.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

HEADERS = {
    "squeeze-sweep": "r1,r2,r3,c1,c2,Sx,Sy",
    "g2-sweep": "r1,r2,r3,n1,n2,n3,g2_mode",
    "cs-sweep": "r1,r2,r3,j,k,V",
    "wigner-grid": "x,y,w",
    "origin-sweep": "r1,r2,r3,w00",
}
# Columns holding S, g2 or V, each of which is >= -1 for any state.
_LOWER_BOUNDED = {"squeeze-sweep": [5, 6], "g2-sweep": [6], "cs-sweep": [5]}

# Reference tolerance tiers: (relative, absolute floor).  The quadrature tier
# covers wigner_numeric, whose refinements only agree to 1e-8.
TOLERANCE = {"exact": (1e-9, 1e-11), "quadrature": (1e-6, 1e-7)}
ORACLE_RTOL = 1e-6
ORACLE_ATOL = 1e-10
LEAKAGE_MAX = 1e-8          # oracle-verify's default --max-leakage
NORMALIZATION_TOL = 1e-5    # |sum(W) dx dy - 1| on a grid covering the distribution
RANGE_TOL = 1e-7            # slack on |W| <= 2/pi (s=0) and 0 <= Q <= 1/pi (s=-1)
REFERENCE_ROWS = 12         # evenly spaced CSV rows kept as reference values


class Result(NamedTuple):
    problems: list   # empty when the output passed every check
    digest: list     # sampled values compared against the reference
    sha256: str      # of all output bytes, to compare traced and untraced runs
    nbytes: int


def output_files(argv, out):
    """Files an invocation writes: the --out file, plus the sidecar of a CSV grid."""
    files = [Path(out)]
    if argv[0] == "wigner-grid":
        files.append(Path(out).with_suffix(".aux.json"))
    return files


def suffix(argv):
    return ".json" if argv[0] == "oracle-verify" else ".csv"


def _flag(argv, name, default=None):
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    return default


def _parse_csv(text, header, problems):
    lines = text.split("\n")
    if lines[0] != header:
        problems.append(f"header {lines[0]!r}, expected {header!r}")
        return None
    if lines[-1] != "":
        problems.append("missing final newline")
        return None
    ncols = header.count(",") + 1
    body = ",".join(lines[1:-1])
    data = np.fromstring(body, dtype=float, sep=",") if body else np.zeros(0)
    if data.size != ncols * (len(lines) - 2):
        problems.append("unparsable or ragged rows")
        return None
    return data.reshape(-1, ncols)


def _check_range(values, s, problems):
    if s == 0:
        bad = np.abs(values) > 2.0 / math.pi + RANGE_TOL
    else:
        bad = (values < -RANGE_TOL) | (values > 1.0 / math.pi + RANGE_TOL)
    if bad.any():
        problems.append(f"{int(bad.sum())} quasiprobability values outside the admissible range")


def _check_csv(inv, text, sidecar, problems):
    sub = inv.argv[0]
    data = _parse_csv(text, HEADERS[sub], problems)
    if data is None:
        return []
    if data.shape[0] != inv.values:
        problems.append(f"{data.shape[0]} rows, expected {inv.values}")
        return []
    if not np.isfinite(data).all():
        problems.append("non-finite values")
        return []
    for col in _LOWER_BOUNDED.get(sub, []):
        if (data[:, col] < -1.0 - 1e-9).any():
            problems.append(f"column {HEADERS[sub].split(',')[col]} below -1")
    if sub in ("wigner-grid", "origin-sweep"):
        _check_range(data[:, -1], int(_flag(inv.argv, "--s", "0")), problems)
    if sub == "wigner-grid":
        n = int(round(math.sqrt(inv.values)))
        xs = data[::n, 0]
        ys = data[:n, 1]
        total = data[:, 2].sum() * (xs[1] - xs[0]) * (ys[1] - ys[0])
        if abs(total - 1.0) > NORMALIZATION_TOL:
            problems.append(f"grid integrates to {total!r}, expected 1")
        method = json.loads(sidecar).get("method")
        if method != inv.kind.split()[-1]:
            problems.append(f"sidecar method {method!r} for a {inv.kind} invocation")
    rows = np.unique(np.linspace(0, data.shape[0] - 1, REFERENCE_ROWS).round().astype(int))
    return [float(v) for v in data[rows].reshape(-1)]


def _check_oracle(inv, text, problems):
    payload = json.loads(text)
    quantities = payload["quantities"]
    if len(quantities) != inv.values:
        problems.append(f"{len(quantities)} oracle quantities, expected {inv.values}")
    leakage = [payload["leakage"]["norm_defect"], *payload["leakage"]["top_shell"]]
    if not max(leakage) < LEAKAGE_MAX:
        problems.append(f"leakage {max(leakage)!r} at or above {LEAKAGE_MAX}")
    digest = []
    for q in quantities:
        analytic, oracle = q["analytic"], q["oracle"]
        if not (math.isfinite(analytic) and math.isfinite(oracle)):
            problems.append(f"{q['name']}: non-finite value")
        elif abs(analytic - oracle) > ORACLE_ATOL + ORACLE_RTOL * abs(oracle):
            problems.append(f"{q['name']}: engine {analytic!r} vs oracle {oracle!r}")
        digest.extend((analytic, oracle))
    return digest


def check(inv, code, out):
    """Check one invocation's exit code and output files."""
    if code != 0:
        return Result([f"exit code {code}"], [], "", 0)
    problems = []
    files = output_files(inv.argv, out)
    missing = [f.name for f in files if not f.is_file()]
    if missing:
        return Result([f"missing output {', '.join(missing)}"], [], "", 0)
    blobs = [f.read_bytes() for f in files]
    sha = hashlib.sha256(b"".join(blobs)).hexdigest()
    text = blobs[0].decode("utf-8")
    try:
        if inv.argv[0] == "oracle-verify":
            digest = _check_oracle(inv, text, problems)
        else:
            digest = _check_csv(inv, text, blobs[-1] if len(blobs) > 1 else None, problems)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"malformed output: {exc!r}")
        digest = []
    return Result(problems, digest, sha, sum(len(b) for b in blobs))


def compare(digest, reference):
    """Problems found comparing sampled values with a recorded reference entry."""
    if len(digest) != len(reference["values"]):
        return [f"{len(digest)} sampled values, reference has {len(reference['values'])}"]
    rtol, atol = TOLERANCE[reference["tolerance"]]
    problems = []
    for i, (got, want) in enumerate(zip(digest, reference["values"])):
        if not abs(got - want) <= atol + rtol * abs(want):
            problems.append(f"value {i}: {got!r} vs reference {want!r}")
    return problems
