#!/usr/bin/env python3
"""Emit every canonical dataset of the study as plot-ready CSV/JSON files.

Each entry below is one CLI invocation; the output filename names the
physics.  Pass a target directory (default ./reproduction).  Plot the CSV
columns named in README.md with any tool you like; no plotting happens here.
"""

import sys
from pathlib import Path

from trisqueeze.cli import main

RUNS = [
    # two-mode (1,2) quadrature squeezing vs r1: symmetric and two asymmetric pairs
    ("two_mode_squeezing_symmetric.csv",
     ["squeeze-sweep", "--r", "0:1:201", "--c1", "1", "--c2", "0", "--state", "n=0,0,0"]),
    ("two_mode_squeezing_r23_0.1_0.2.csv",
     ["squeeze-sweep", "--r1", "0:1:201", "--r2", "0.1", "--r3", "0.2",
      "--c1", "1", "--c2", "0", "--state", "n=0,0,0"]),
    ("two_mode_squeezing_r23_0.4_0.6.csv",
     ["squeeze-sweep", "--r1", "0:1:201", "--r2", "0.4", "--r3", "0.6",
      "--c1", "1", "--c2", "0", "--state", "n=0,0,0"]),
    # three-mode squeezing, same parameter families
    ("three_mode_squeezing_symmetric.csv",
     ["squeeze-sweep", "--r", "0:1:201", "--c1", "1", "--c2", "1", "--state", "n=0,0,0"]),
    ("three_mode_squeezing_r23_0.1_0.2.csv",
     ["squeeze-sweep", "--r1", "0:1:201", "--r2", "0.1", "--r3", "0.2",
      "--c1", "1", "--c2", "1", "--state", "n=0,0,0"]),
    ("three_mode_squeezing_r23_0.4_0.6.csv",
     ["squeeze-sweep", "--r1", "0:1:201", "--r2", "0.4", "--r3", "0.6",
      "--c1", "1", "--c2", "1", "--state", "n=0,0,0"]),
    # second-order correlation of mode 1, Fock inputs
    ("g2_mode1_n111_symmetric.csv",
     ["g2-sweep", "--r", "0.005:1:200", "--state", "n=1,1,1", "--mode", "1"]),
    ("g2_mode1_n111_r23_0.1_0.2.csv",
     ["g2-sweep", "--r1", "0:1:201", "--r2", "0.1", "--r3", "0.2",
      "--state", "n=1,1,1", "--mode", "1"]),
    ("g2_mode1_n111_r23_0.4_0.6.csv",
     ["g2-sweep", "--r1", "0:1:201", "--r2", "0.4", "--r3", "0.6",
      "--state", "n=1,1,1", "--mode", "1"]),
    ("g2_mode1_n100_symmetric.csv",
     ["g2-sweep", "--r", "0.005:1:200", "--state", "n=1,0,0", "--mode", "1"]),
    ("g2_mode1_n010_symmetric.csv",
     ["g2-sweep", "--r", "0.005:1:200", "--state", "n=0,1,0", "--mode", "1"]),
    # Cauchy-Schwarz ratio, coherent inputs alpha = (1,1,1)
    ("cs_v12_coherent_symmetric.csv",
     ["cs-sweep", "--r", "0.005:2:400", "--state", "alpha=1,1,1", "--j", "1", "--k", "2"]),
    ("cs_v13_coherent_symmetric.csv",
     ["cs-sweep", "--r", "0.005:2:400", "--state", "alpha=1,1,1", "--j", "1", "--k", "3"]),
    ("cs_v23_coherent_symmetric.csv",
     ["cs-sweep", "--r", "0.005:2:400", "--state", "alpha=1,1,1", "--j", "2", "--k", "3"]),
    ("cs_v12_coherent_r23_0.1_0.2.csv",
     ["cs-sweep", "--r1", "0:2:401", "--r2", "0.1", "--r3", "0.2",
      "--state", "alpha=1,1,1", "--j", "1", "--k", "2"]),
    ("cs_v12_coherent_r23_0.4_0.6.csv",
     ["cs-sweep", "--r1", "0:2:401", "--r2", "0.4", "--r3", "0.6",
      "--state", "alpha=1,1,1", "--j", "1", "--k", "2"]),
    # Cauchy-Schwarz ratio, Fock input (1,1,1)
    ("cs_v12_fock111_symmetric.csv",
     ["cs-sweep", "--r", "0.005:2:400", "--state", "n=1,1,1", "--j", "1", "--k", "2"]),
    ("cs_v12_fock111_r23_0.1_0.2.csv",
     ["cs-sweep", "--r1", "0:2:401", "--r2", "0.1", "--r3", "0.2",
      "--state", "n=1,1,1", "--j", "1", "--k", "2"]),
    ("cs_v12_fock111_r23_0.4_0.6.csv",
     ["cs-sweep", "--r1", "0:2:401", "--r2", "0.4", "--r3", "0.6",
      "--state", "n=1,1,1", "--j", "1", "--k", "2"]),
    # single-mode quasidistribution grids of mode 1
    ("wigner_sym1.1_n001.csv",
     ["wigner-grid", "--r", "1.1", "--state", "n=0,0,1", "--x=-6:6:121", "--y=-6:6:121"]),
    ("wigner_0.6_0.8_0.9_n100.csv",
     ["wigner-grid", "--r1", "0.6", "--r2", "0.8", "--r3", "0.9",
      "--state", "n=1,0,0", "--x=-6:6:121", "--y=-6:6:121"]),
    ("wigner_0.6_0.8_0.9_n001.csv",
     ["wigner-grid", "--r1", "0.6", "--r2", "0.8", "--r3", "0.9",
      "--state", "n=0,0,1", "--x=-6:6:121", "--y=-6:6:121"]),
    ("wigner_0.6_0.8_2.0_n001.csv",
     ["wigner-grid", "--r1", "0.6", "--r2", "0.8", "--r3", "2",
      "--state", "n=0,0,1", "--x=-8:8:161", "--y=-8:8:161"]),
    ("wigner_0.4_0.8_2.0_n002.csv",
     ["wigner-grid", "--r1", "0.4", "--r2", "0.8", "--r3", "2",
      "--state", "n=0,0,2", "--x=-8:8:161", "--y=-8:8:161"]),
    # origin value of the mode-1 distribution vs coupling
    ("origin_symmetric_n001.csv",
     ["origin-sweep", "--r", "0:6:301", "--state", "n=0,0,1"]),
    ("origin_0.6_0.8_r3_n001.csv",
     ["origin-sweep", "--r1", "0.6", "--r2", "0.8", "--r3", "0:6:301", "--state", "n=0,0,1"]),
    ("origin_0.6_0.8_r3_n100.csv",
     ["origin-sweep", "--r1", "0.6", "--r2", "0.8", "--r3", "0:6:301", "--state", "n=1,0,0"]),
    # ground-truth spot check (truncated-Fock oracle, well under 1 s)
    ("oracle_verify_n111.json",
     ["oracle-verify", "--r1", "0.2", "--r2", "0.15", "--r3", "0.25",
      "--state", "n=1,1,1", "--cutoff", "12"]),
]


def run(outdir):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for filename, args in RUNS:
        target = outdir / filename
        code = main(args + ["--out", str(target)])
        if code != 0:
            raise SystemExit(f"{filename}: exit {code}")
        print(f"wrote {target}")


if __name__ == "__main__":
    run(sys.argv[1] if len(sys.argv) > 1 else "reproduction")
