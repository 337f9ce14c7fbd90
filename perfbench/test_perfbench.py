"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py -q

Not part of the package's test suite: these check the generator, the
tracer and the output checker that the benchmark relies on.
"""

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import check
import run
import spans
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli_main(tmp_path_factory):
    run.pin_environment()
    main, _, _ = run.set_up("phase_space", workloads.DEFAULT_SEED, tmp_path_factory.mktemp("setup"))
    return main


@pytest.mark.parametrize("workload", sorted(workloads.BLOCKS))
def test_seed_yields_the_same_invocations_twice(workload):
    first = [workloads.block(workload, 5, b) for b in range(3)]
    again = [workloads.block(workload, 5, b) for b in range(3)]
    assert first == again
    assert first != [workloads.block(workload, 6, b) for b in range(3)]
    assert sorted(inv.kind for inv in first[0]) == sorted(inv.kind for inv in first[1])


@pytest.mark.parametrize("workload", sorted(workloads.BLOCKS))
def test_recorded_invocations_match_the_generator(workload):
    run.check_recorded(workload, workloads.block(workload, workloads.DEFAULT_SEED, 0))
    with pytest.raises(SystemExit):
        run.check_recorded(workload, workloads.block(workload, workloads.DEFAULT_SEED, 1))


def _one_of_each_kind(workload, seed):
    seen = {}
    for inv in workloads.block(workload, seed, 0):
        seen.setdefault(inv.kind, inv)
    return list(seen.values())


def test_traced_and_untraced_runs_write_identical_bytes(cli_main, tmp_path):
    invocations = _one_of_each_kind("phase_space", 3) + _one_of_each_kind("sweeps", 3)[:2]
    tracer = spans.Tracer()
    plain, traced, blocks = run.run_pass(cli_main, lambda b: invocations, tmp_path, seconds=0,
                                         tracer=tracer)
    assert blocks == 1 and len(plain.times) == len(traced.times) == len(invocations)
    assert not any(plain.failed) and not any(traced.failed)
    assert plain.sha == traced.sha
    layers = spans.layer_totals(tracer.spans)
    for layer in ("cli", "symplectic", "quasiprob.closed", "quasiprob.numeric", "ladder.normal_order"):
        assert layers[layer]["calls"] > 0, layer
    assert 0 < layers["quasiprob.numeric"]["accepted_points"] < layers["quasiprob.numeric"]["char_points"]
    assert layers["cli"]["calls"] == len(invocations)


def test_uninstall_restores_every_attribute(cli_main):
    import trisqueeze.cli
    import trisqueeze.moments

    before = (trisqueeze.moments.normal_order, trisqueeze.cli.g2, trisqueeze.cli.SqueezePropagator.__init__)
    tracer = spans.Tracer()
    tracer.install()
    assert trisqueeze.moments.normal_order is not before[0]
    tracer.uninstall()
    after = (trisqueeze.moments.normal_order, trisqueeze.cli.g2, trisqueeze.cli.SqueezePropagator.__init__)
    assert before == after


def test_checker_flags_a_perturbed_reference_value(cli_main, tmp_path):
    reference = json.loads(run.REFERENCE.read_text())["workloads"]["phase_space"]
    first = workloads.block("phase_space", workloads.DEFAULT_SEED, 0)
    index = next(i for i, inv in enumerate(first) if inv.tolerance == "exact")
    inv, entry = first[index], reference[index]
    out = tmp_path / f"out{check.suffix(inv.argv)}"
    result = check.check(inv, cli_main(inv.argv + ["--out", str(out)]), out)
    assert result.problems == []
    assert check.compare(result.digest, entry) == []
    perturbed = dict(entry, values=list(entry["values"]))
    k = max(range(len(perturbed["values"])), key=lambda i: abs(perturbed["values"][i]))
    perturbed["values"][k] *= 1 + 1e-6
    assert len(check.compare(result.digest, perturbed)) == 1


def test_checker_flags_a_wrong_row_count(cli_main, tmp_path):
    inv = _one_of_each_kind("phase_space", 2)[0]
    out = tmp_path / f"out{check.suffix(inv.argv)}"
    code = cli_main(inv.argv + ["--out", str(out)])
    assert check.check(inv, code, out).problems == []
    assert check.check(inv._replace(values=inv.values + 1), code, out).problems


def test_tail_percentile_leaves_ten_invocations_above():
    times = [float(i) for i in range(100)]
    value, percentile = run.tail(times)
    assert sum(t > value for t in times) == 10
    assert percentile == 90.0


def test_tail_halves_when_every_invocation_takes_half_as_long(monkeypatch, tmp_path):
    # Each block holds one 240-row cs-sweep, costlier than all else; a faster
    # program fits more blocks into the run, and so more of those sweeps.
    cost = {}

    def blocks(b):
        block = workloads.block("sweeps", 1, b)
        for inv in block:
            cost[tuple(inv.argv)] = (0.011 if inv.kind == "cs-sweep" else 0.002) * inv.values
        return block

    def run_at(speed):
        clock = [0.0]

        def fake_main(argv):
            clock[0] += speed * cost[tuple(argv[:-2])]
            return 0

        monkeypatch.setattr(run, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        passed, _, n_blocks = run.run_pass(fake_main, blocks, tmp_path, seconds=25,
                                           min_blocks=run.TAIL_BLOCKS["sweeps"])
        return run.call_tail(passed, "sweeps")[0], n_blocks

    slow, slow_blocks = run_at(1.0)
    fast, fast_blocks = run_at(0.5)
    assert fast_blocks > slow_blocks
    assert fast == pytest.approx(slow / 2)


def _result_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_short_run_prints_the_contract_line(trace, kind):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "phase_space", "--seed", "4",
         "--seconds", "0.5", "--trace", str(trace)], cwd=run.ROOT, capture_output=True, text=True,
        timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[kind]}
    for metric in BENCHMARK[kind]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweeps", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
