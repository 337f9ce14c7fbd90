#!/usr/bin/env python3
"""Record the default seed's first block: invocations and reference values.

    python3 perfbench/record.py

Writes ``perfbench/invocations.json`` (each workload's reason, its block of
invocation classes with their reasons, and the default seed's first block of
generated invocations) and ``perfbench/reference.json`` (sampled output
values of that block, by position, compared by run.py on the default seed).
Re-record only when the generator changes, and from a commit whose outputs
are trusted.
"""

import json
import sys
import tempfile

import run


def main():
    run.pin_environment()
    sys.path.insert(0, str(run.HERE))
    import check
    import workloads

    invocations, reference = {}, {}
    run.OUT.mkdir(exist_ok=True)
    for name in workloads.BLOCKS:
        with tempfile.TemporaryDirectory(dir=run.OUT) as scratch:
            cli_main, first, _ = run.set_up(name, workloads.DEFAULT_SEED, scratch)
            passed, _, _ = run.run_pass(cli_main, lambda b: first, scratch, seconds=0)
        if any(passed.failed):
            raise SystemExit(f"{name}: {passed.problems}")
        invocations[name] = {
            "why": workloads.WHY[name],
            "block": [{"subcommand": sub, "size": size, "input": kind, "why": why}
                      for sub, size, kind, why in workloads.BLOCKS[name]],
            "warmups": workloads.WARMUPS[name],
            "default_seed_block_0": [inv.argv for inv in first],
        }
        reference[name] = [{"tolerance": inv.tolerance, "values": digest}
                           for inv, digest in zip(first, passed.digests)]
        print(f"recorded {name}: {len(first)} invocations")
    header = {"seed": workloads.DEFAULT_SEED}
    (run.HERE / "invocations.json").write_text(
        json.dumps({**header, "workloads": invocations}, indent=1) + "\n")
    (run.HERE / "reference.json").write_text(json.dumps(
        {**header, "tolerance": {k: {"rtol": r, "atol": a} for k, (r, a) in check.TOLERANCE.items()},
         "workloads": reference}, indent=1) + "\n")


if __name__ == "__main__":
    main()
