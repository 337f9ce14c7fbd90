#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/prove.py --seeds 10
    python3 perfbench/prove.py --seeds 10 --baseline   # also rewrite perfbench/BASELINE.json

For every workload in BENCHMARK.json, runs ``run.py --trace 0`` once per
seed (seeds 1..N) for its ``run_seconds`` and prints, per end-to-end metric,
the median, the quartiles and the spread (inter-quartile distance over the
median, from statistics.quantiles(n=4)) next to the metric's bound, marked
WIDE where it exceeds a third of the bound.  ``--baseline`` then makes one
traced run per workload and writes the medians, the per-layer metrics, the
layer-to-metric map and a record of the machine to BASELINE.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Which end-to-end metric each per-layer metric should move, and on which workload.
LAYER_MAP = {
    "ladder.normal_order.*, ladder.expectation.*": {
        "moves": ["values_per_s on sweeps", "call_p50_s on sweeps"],
        "note": "under 5% of oracle"},
    "moments.calls, moments.self_s": {
        "moves": ["values_per_s on sweeps", "values_per_s on oracle once propagation is cheap"]},
    "symplectic.calls, symplectic.self_s": {
        "moves": ["values_per_s on sweeps"], "note": "capped near 1%: eigh is ~35 us of a 3-11 ms row"},
    "quasiprob.numeric.*": {"moves": ["call_tail_s on phase_space"]},
    "quasiprob.closed.*": {"moves": ["call_p50_s on phase_space"]},
    "cli.*": {"moves": ["values_per_s on phase_space", "call_p50_s on phase_space"]},
    "fock_oracle.*": {"moves": ["call_p50_s on oracle", "values_per_s on oracle",
                                "peak_rss_mb on oracle"]},
}


def run_once(workload, seed, seconds, trace):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    return result, detail, time.perf_counter() - start


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def machine():
    import numpy as np

    def cache(index):
        path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
        return path.read_text().strip() if path.exists() else None

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                  if line.startswith("model name")), platform.processor())
    return {
        "nproc": os.cpu_count(), "cpu": model, "l2_per_core": cache(2), "l3": cache(3),
        "blas": f"{blas['name']} {blas['version']}", "blas_threads": min(2, os.cpu_count()),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    baseline = {}
    for workload in names:
        runs = [run_once(workload, seed, seconds, 0) for seed in range(1, args.seeds + 1)]
        if not all(r["correct"] for r, _, _ in runs):
            raise SystemExit(f"{workload}: a run reported incorrect output")
        print(f"{workload}: {args.seeds} seeds, {statistics.median(w for _, _, w in runs):.1f} s "
              f"median wall per run, blocks {[d['blocks'] for _, d, _ in runs]}")
        medians = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r, _, _ in runs]
            q1, med, q3, rel = spread(values)
            medians[name] = med
            print(f"  {name:<13} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {rel:7.2%}  bound {bounds[name]:.0%}  "
                  f"{'ok' if rel < bounds[name] / 3 else 'WIDE'}")
        q1, medians["call_p50_s"], q3, rel = spread([d["call_p50_s"] for _, d, _ in runs])
        print(f"  {'call_p50_s':<13} median {medians['call_p50_s']:<12.6g} q1 {q1:<12.6g} "
              f"q3 {q3:<12.6g} spread {rel:7.2%}  (reported, not bounded)")
        baseline[workload] = {
            "end_to_end_median": medians,
            "call_tail_percentile": statistics.median(d["call_tail_percentile"] for _, d, _ in runs),
            "call_tail_invocations": runs[0][1]["call_tail_invocations"],
            "invocations_median": statistics.median(d["invocations"] for _, d, _ in runs),
        }
    if args.baseline:
        for workload in names:
            result, detail, _ = run_once(workload, 1, seconds, 1)
            baseline[workload]["per_layer_seed1"] = {k: v["value"] for k, v in result["metrics"].items()}
            baseline[workload]["largest_layer_checks"] = detail["largest_layer_checks"]
        (HERE / "BASELINE.json").write_text(json.dumps({
            "machine": machine(), "seconds": seconds, "seeds": list(range(1, args.seeds + 1)),
            "workloads": baseline, "layer_to_end_to_end": LAYER_MAP}, indent=1) + "\n")


if __name__ == "__main__":
    main()
