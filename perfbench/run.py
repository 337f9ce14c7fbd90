#!/usr/bin/env python3
"""Benchmark of the trisqueeze CLI, driven in-process from one Python process.

    python3 perfbench/run.py --workload sweeps --seed 3 --seconds 20 --trace 0

Run from the repository root.  Workloads (see workloads.py): ``sweeps``,
``phase_space`` and ``oracle``.  The run imports ``trisqueeze`` from
``src/``, generates the seeded invocations and calls
``trisqueeze.cli.main(argv)`` once per invocation, block after block, until
the timed invocations add up to ``--seconds`` and at least the workload's
TAIL_BLOCKS blocks have run.  Every output is checked outside the timed
region (check.py).

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics.  With ``--trace 0`` the metrics are the end-to-end ones:

    setup_s       median over SETUP_SAMPLES set-ups (this process's, and
                  fresh ones spread over the run) of importing trisqueeze,
                  generating the first block and the warm-up invocations
    values_per_s  output values (CSV rows, grid points, oracle quantities)
                  per second of invocation time
    call_tail_s   highest percentile of invocation time with at least ten
                  invocations above it, over the first TAIL_BLOCKS blocks
                  (the percentile is printed); a fixed set of invocations,
                  so the tail does not change rank when more blocks fit
    peak_rss_mb   peak resident memory of this process

Printed with them but left out of the JSON line: call_p50_s, the median
invocation time, and fail_ratio, which is the line's ``failed``/``attempted``.
The median is not bounded because hosts that alternate between a fast and a
slow speed state for seconds at a time make a run's median jump between the
two states, while throughput and the tail change smoothly with the mix.

With ``--trace 1`` every invocation runs twice, untraced and with every
layer wrapped (spans.py), in alternating order, until both add up to
``--seconds``.  The run reports per-layer calls, self time and counts, each
per block, plus ``trace.values_per_s_ratio``: traced over untraced
throughput of those paired invocations, so that drifts of the host's speed
fall alike on both.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
MIN_TAIL_BEYOND = 10
BLAS_THREADS = max(1, min(2, os.cpu_count() or 1))
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REFERENCE = HERE / "reference.json"
INVOCATIONS = HERE / "invocations.json"

# Blocks over which call_tail_s is taken, and the fewest blocks a --trace 0
# run makes: about what --seconds 25 allowed on the parent commit.
TAIL_BLOCKS = {"sweeps": 8, "phase_space": 34, "oracle": 4}

# Largest layer by self time expected on each workload, per invocation kind
# ("*" = all kinds of the workload), as profiled on the parent commit.
EXPECTED_LARGEST = {
    "sweeps": {"*": "ladder"},
    "phase_space": {"wigner-grid closed": "cli", "origin-sweep": "cli"},
    "oracle": {"*": "fock_oracle.propagate"},
}


def pin_environment():
    """Fix the BLAS thread count and drop output redirection, before numpy loads."""
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("TRISQUEEZE_OUTDIR", None)


def set_up(workload, seed, scratch):
    """Import the package, generate block 0 and run the warm-ups; returns (main, block, seconds)."""
    import workloads

    start = time.perf_counter()
    src = ROOT / "src"
    if not (src / "trisqueeze" / "__init__.py").is_file():
        raise SystemExit(f"no trisqueeze sources under {src}")
    sys.path.insert(0, str(src))
    from trisqueeze.cli import main

    if not Path(sys.modules["trisqueeze"].__file__).resolve().is_relative_to(src):
        raise SystemExit("trisqueeze was imported from outside this checkout")
    first = workloads.block(workload, seed, 0)
    for i, argv in enumerate(workloads.WARMUPS[workload]):
        out = Path(scratch) / f"warmup{i}.{'json' if argv[0] == 'oracle-verify' else 'csv'}"
        if main(argv + ["--out", str(out)]) != 0:
            raise SystemExit(f"warm-up invocation failed: {' '.join(argv)}")
    return main, first, time.perf_counter() - start


def setup_probe(workload, seed):
    """One set-up in a fresh interpreter; its time in seconds."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Pass:
    """One pass over the blocks: per-invocation times, values, problems and output digests."""

    def __init__(self):
        self.times = []
        self.values = []
        self.failed = []
        self.sha = []
        self.nbytes = []
        self.kinds = []
        self.digests = []
        self.problems = []

    def values_per_s(self):
        return sum(self.values) / sum(self.times)


def _invoke(result, main, inv, i, scratch, reference=None, tracer=None):
    """Run and check invocation ``i``, appending its time and outcome to ``result``."""
    import check

    out = Path(scratch) / f"{i}{check.suffix(inv.argv)}"
    argv = inv.argv + ["--out", str(out)]
    if tracer is not None:
        tracer.invocation = i
        tracer.install()
    try:
        t0 = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    res = check.check(inv, code, out)
    problems = list(res.problems)
    if reference is not None and i < len(reference) and not problems:
        problems += check.compare(res.digest, reference[i])
    for f in check.output_files(inv.argv, out):
        f.unlink(missing_ok=True)
    result.times.append(elapsed)
    result.values.append(inv.values)
    result.sha.append(res.sha256)
    result.nbytes.append(res.nbytes)
    result.kinds.append(inv.kind)
    result.digests.append(res.digest)
    result.failed.append(bool(problems))
    result.problems.extend(f"{' '.join(inv.argv)}: {p}" for p in problems)


def run_pass(main, blocks, scratch, seconds, min_blocks=1, reference=None, tracer=None,
             after_block=None):
    """Run ``blocks(0), blocks(1), ...`` until ``seconds`` of timed invocations and ``min_blocks``.

    With a ``tracer``, each invocation runs twice, untraced and traced, the
    order alternating from one invocation to the next.  ``after_block(b)``, if
    given, is called untimed after block ``b``.  Returns the untraced pass, the
    traced pass (or None) and the number of blocks run.
    """
    plain = Pass()
    traced = Pass() if tracer is not None else None
    traced_main = tracer.wrap("cli", main) if tracer is not None else None
    b = 0
    while True:
        for inv in blocks(b):
            i = len(plain.times)
            if tracer is not None and i % 2:
                _invoke(traced, traced_main, inv, i, scratch, tracer=tracer)
            _invoke(plain, main, inv, i, scratch, reference)
            if tracer is not None and not i % 2:
                _invoke(traced, traced_main, inv, i, scratch, tracer=tracer)
        if after_block is not None:
            after_block(b)
        b += 1
        timed = sum(plain.times) + (sum(traced.times) if traced is not None else 0.0)
        if b >= min_blocks and timed >= seconds:
            return plain, traced, b


def tail(times):
    """(value, percentile) of the highest percentile with MIN_TAIL_BEYOND invocations above it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= MIN_TAIL_BEYOND:
        return ordered[0], 0.0
    k = n - MIN_TAIL_BEYOND          # nearest-rank: the k-th smallest has n-k above it
    return ordered[k - 1], 100.0 * k / n


def call_tail(passed, workload):
    """``tail`` of the invocations in the workload's first TAIL_BLOCKS blocks."""
    import workloads

    return tail(passed.times[:TAIL_BLOCKS[workload] * len(workloads.BLOCKS[workload])])


def end_to_end(passed, workload, setup_samples):
    tail_s, tail_pct = call_tail(passed, workload)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "values_per_s": (passed.values_per_s(), "1/s"),
        "call_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, tail_pct


def per_layer(span_list, plain, traced, blocks):
    """Per-layer metrics, per block, from the traced pass's spans."""
    import spans

    totals = spans.layer_totals(span_list)
    metrics = {}

    def get(layer, field):
        return totals.get(layer, {}).get(field, 0)

    for layer in ("ladder.normal_order", "ladder.expectation", "moments", "symplectic",
                  "quasiprob.numeric", "quasiprob.closed", "cli", "fock_oracle.propagate"):
        metrics[f"{layer}.calls"] = (get(layer, "calls") / blocks, "count")
        metrics[f"{layer}.self_s"] = (get(layer, "self_s") / blocks, "s")
    for layer in ("fock_oracle.contract", "fock_oracle.wigner"):
        metrics[f"{layer}.self_s"] = (get(layer, "self_s") / blocks, "s")
    metrics["ladder.normal_order.terms"] = (get("ladder.normal_order", "terms") / blocks, "count")
    char_points = get("quasiprob.numeric", "char_points")
    metrics["quasiprob.numeric.char_points"] = (char_points / blocks, "count")
    metrics["quasiprob.numeric.useful_ratio"] = (
        get("quasiprob.numeric", "accepted_points") / char_points if char_points else 0.0, "ratio")
    metrics["quasiprob.closed.points"] = (get("quasiprob.closed", "points") / blocks, "count")
    metrics["cli.bytes_out"] = (sum(traced.nbytes) / blocks, "bytes")
    metrics["fock_oracle.propagate.bytes_computed"] = (
        get("fock_oracle.propagate", "bytes_computed") / blocks, "bytes")
    metrics["trace.values_per_s_ratio"] = (traced.values_per_s() / plain.values_per_s(), "ratio")
    return metrics


def layer_shares(span_list, kinds, workload):
    """Self-time share of each layer per invocation kind, and the expected-largest checks."""
    import spans

    by_kind = {}
    for (kind, layer), entry in spans.layer_totals(span_list, kinds).items():
        name = "ladder" if layer.startswith("ladder.") else layer
        row = by_kind.setdefault(kind, {})
        row[name] = row.get(name, 0.0) + entry["self_s"]
    shares = {kind: {k: v / sum(row.values()) for k, v in sorted(row.items())}
              for kind, row in sorted(by_kind.items())}
    checks = []
    for kind, row in shares.items():
        expected = EXPECTED_LARGEST[workload].get(kind, EXPECTED_LARGEST[workload].get("*"))
        if expected is not None:
            largest = max(row, key=row.get)
            checks.append({"kind": kind, "expected": expected, "largest": largest,
                           "share": row[largest], "holds": largest == expected})
    return shares, checks


def _line(name, value, unit, note=""):
    return f"  {name:<34} {value:>14.6g} {unit:<6} {note}".rstrip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweeps", "phase_space", "oracle"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_environment()
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        main_fn, first, setup_s = set_up(args.workload, args.seed, scratch)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, main_fn, first, setup_s, scratch)


def check_recorded(workload, first):
    """Stop unless ``first`` is the default seed's first block recorded in invocations.json."""
    recorded = json.loads(INVOCATIONS.read_text())["workloads"][workload]["default_seed_block_0"]
    if recorded != [inv.argv for inv in first]:
        raise SystemExit(f"{workload}: the generator no longer yields the recorded block; "
                         "re-record with perfbench/record.py")


def measure(args, cli_main, first, setup_s, scratch):
    import workloads

    def blocks(b):
        return first if b == 0 else workloads.block(args.workload, args.seed, b)

    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        check_recorded(args.workload, first)
        reference = json.loads(REFERENCE.read_text())["workloads"][args.workload]

    if args.trace:
        import spans

        tracer = spans.Tracer()
        passed, traced, n_blocks = run_pass(cli_main, blocks, scratch, args.seconds,
                                            reference=reference, tracer=tracer)
        mismatched = [i for i, (a, b) in enumerate(zip(passed.sha, traced.sha)) if a != b]
        attempted = len(passed.times) + len(traced.times)
        failed = sum(passed.failed) + sum(f or i in mismatched for i, f in enumerate(traced.failed))
        problems = passed.problems + traced.problems
        problems += [f"invocation {i}: traced output bytes differ" for i in mismatched]
    else:
        # Fresh set-ups spread over the run, so that their median does not
        # hang on the host's speed during one stretch of a few seconds.
        setup_samples = [setup_s]
        every = max(1, TAIL_BLOCKS[args.workload] // (SETUP_SAMPLES - 1))

        def probe(b):
            if b % every == 0 and len(setup_samples) < SETUP_SAMPLES:
                setup_samples.append(setup_probe(args.workload, args.seed))

        passed, _, n_blocks = run_pass(cli_main, blocks, scratch, args.seconds,
                                       min_blocks=TAIL_BLOCKS[args.workload], reference=reference,
                                       after_block=probe)
        attempted, failed = len(passed.times), sum(passed.failed)
        problems = passed.problems
    print(f"workload {args.workload}  seed {args.seed}  blocks {n_blocks}  "
          f"invocations {len(passed.times)}  BLAS threads {BLAS_THREADS}")

    if args.trace:
        metrics = per_layer(tracer.spans, passed, traced, n_blocks)
        shares, checks = layer_shares(tracer.spans, traced.kinds, args.workload)
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(tracer.to_json()))
        for name, (value, unit) in metrics.items():
            print(_line(name, value, unit))
        print("  self-time shares by invocation kind:")
        for kind, row in shares.items():
            print(f"    {kind:<22} " + "  ".join(f"{k} {v:.1%}" for k, v in row.items()))
        for c in checks:
            verdict = "holds" if c["holds"] else "DOES NOT HOLD"
            print(f"  largest layer on {c['kind']}: {c['largest']} ({c['share']:.1%}); "
                  f"expected {c['expected']}: {verdict}")
        detail = {"layer_shares": shares, "largest_layer_checks": checks}
    else:
        metrics, tail_pct = end_to_end(passed, args.workload, setup_samples)
        window = min(len(passed.times), TAIL_BLOCKS[args.workload] * len(first))
        notes = {"setup_s": f"median of {len(setup_samples)} set-ups",
                 "call_tail_s": f"p{tail_pct:.1f} of the first {window} invocations"}
        for name, (value, unit) in metrics.items():
            print(_line(name, value, unit, notes.get(name, "")))
        call_p50_s = statistics.median(passed.times)
        print(_line("call_p50_s", call_p50_s, "s", "reported, not bounded"))
        print(_line("fail_ratio", failed / attempted, "ratio", f"{failed} of {attempted}"))
        kinds = {}
        for kind, t in zip(passed.kinds, passed.times):
            kinds.setdefault(kind, []).append(t)
        detail = {"call_p50_s": call_p50_s, "call_tail_percentile": tail_pct,
                  "call_tail_invocations": window, "setup_samples_s": setup_samples,
                  "median_s_by_kind": {k: statistics.median(v) for k, v in sorted(kinds.items())}}

    for p in problems[:20]:
        print(f"  FAILED {p}")
    detail.update({"workload": args.workload, "seed": args.seed, "blocks": n_blocks,
                   "invocations": len(passed.times), "blas_threads": BLAS_THREADS,
                   "fail_ratio": failed / attempted})
    print(json.dumps({"detail": detail}))
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
