#!/usr/bin/env python3
"""Compare two output directories of scripts/reproduce_figures.py value by value.

    python3 scripts/compare_outputs.py OLD_DIR NEW_DIR

Both directories must hold the same file names, each CSV the same header, row
count and cells per row, and each JSON file the same keys, list lengths and
text leaves.  Otherwise the script names the first mismatch and exits 1.  It
prints "k of N files differ" and, for each file whose bytes differ, the
largest absolute difference of a CSV value cell or a JSON numeric leaf, with
where it is.
"""

import csv
import json
import math
import sys
from pathlib import Path


class Mismatch(Exception):
    """The two directories differ in more than numeric values."""


def _gap(old, new):
    """|new - old| of two floats; equal values and two NaNs give 0, a NaN against a number inf."""
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    gap = abs(new - old)
    return math.inf if math.isnan(gap) else gap


def _csv_gaps(old_path, new_path):
    """(gap, where) of every cell of two CSV files with the same header and shape."""
    old_rows, new_rows = (list(csv.reader(p.open(newline=""))) for p in (old_path, new_path))
    if old_rows[:1] != new_rows[:1]:
        raise Mismatch(f"{new_path.name}: header {new_rows[:1]} != {old_rows[:1]}")
    if len(old_rows) != len(new_rows):
        raise Mismatch(f"{new_path.name}: {len(new_rows) - 1} rows != {len(old_rows) - 1}")
    header = old_rows[0]
    for row, (old, new) in enumerate(zip(old_rows[1:], new_rows[1:]), start=1):
        if len(old) != len(header) or len(new) != len(header):
            raise Mismatch(f"{new_path.name}: row {row} has {len(new)} cells, not {len(header)}")
        for column, a, b in zip(header, old, new):
            where = f"row {row}, {column}"
            if a == b:
                continue
            try:
                yield _gap(float(a), float(b)), where
            except ValueError:
                raise Mismatch(f"{new_path.name}: {where}: {b!r} != {a!r}") from None


def _json_gaps(old, new, where):
    """(gap, where) of every numeric leaf of two JSON values of the same structure."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            raise Mismatch(f"{where}: keys {sorted(new)} != {sorted(old)}")
        for key in old:
            yield from _json_gaps(old[key], new[key], f"{where}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            raise Mismatch(f"{where}: {len(new)} entries != {len(old)}")
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _json_gaps(a, b, f"{where}[{i}]")
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)):
        yield _gap(float(old), float(new)), where
    elif old != new:
        raise Mismatch(f"{where}: {new!r} != {old!r}")


def _largest_gap(old_path, new_path):
    """(gap, where) of the largest value difference between two files of one name."""
    if new_path.suffix == ".csv":
        gaps = _csv_gaps(old_path, new_path)
    elif new_path.suffix == ".json":
        old, new = (json.loads(p.read_text()) for p in (old_path, new_path))
        gaps = _json_gaps(old, new, new_path.name)
    else:
        raise Mismatch(f"{new_path.name}: bytes differ and it is neither CSV nor JSON")
    return max(gaps, default=(0.0, "no value cell"), key=lambda pair: pair[0])


def compare(old_dir, new_dir):
    """Lines of the report; raises Mismatch on the first structural difference."""
    old_names, new_names = ({p.name for p in Path(d).iterdir() if p.is_file()}
                            for d in (old_dir, new_dir))
    if old_names != new_names:
        name = min(old_names ^ new_names)
        raise Mismatch(f"{name} is only in {old_dir if name in old_names else new_dir}")
    lines = []
    for name in sorted(new_names):
        old_path, new_path = Path(old_dir, name), Path(new_dir, name)
        if old_path.read_bytes() != new_path.read_bytes():
            gap, where = _largest_gap(old_path, new_path)
            lines.append(f"{name}: largest absolute difference {gap:.3g} ({where})")
    return [f"{len(lines)} of {len(new_names)} files differ"] + lines


def main(argv):
    if len(argv) != 2:
        print("usage: compare_outputs.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    try:
        lines = compare(*argv)
    except Mismatch as err:
        print(f"mismatch: {err}")
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
