"""Tests of the benchmark itself: run with ``python -m pytest bench -q``."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests"), str(HERE)]

import orda  # noqa: E402
import orda.cli as cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

EVEN_A = verify.automaton_text("ab", [[1, 0], [0, 1]], 0, {0})


def _orda_bindings():
    return {
        (name, key): value
        for name, module in sys.modules.items()
        if name == "orda" or name.startswith("orda.")
        for key, value in vars(module).items()
    }


def test_same_seed_same_inputs():
    for workload in run.WORKLOADS:
        first = workloads.build(workload, 7)
        assert workloads.digest(first) == workloads.digest(workloads.build(workload, 7))
        assert workloads.digest(first) != workloads.digest(workloads.build(workload, 8))
        assert len(first) >= 100


def test_tracer_restores_every_binding_and_sees_the_double_build():
    before = _orda_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert orda.classify.build_monoid is orda.omega.build is orda.cli.build
        assert orda.omega.build is not before[("orda.monoid", "build")]
        failing = workloads.Op(("check", "-", "x^w x == x^w @all"), EVEN_A, query="x^w x == x^w @all")
        code, out, _, _ = run.call(cli, failing)
    finally:
        tracer.remove()
    assert code == 1 and out.startswith("fails at state")
    after = _orda_bindings()
    assert after.keys() == before.keys() and all(after[key] is value for key, value in before.items())
    assert tracer.counts["monoid.build.calls"] == 2
    assert tracer.counts["omega.valid_substitutions.yields"] >= 1
    assert tracer.time["cli.main"] >= tracer.time["omega.check"] > tracer.self_time["omega.check"] > 0


def _corrupt(op, stdout):
    command = op.argv[0]
    if command == "minimize":
        return stdout.replace("# states: ", "# states: 1", 1)
    if command == "classify":
        first = stdout.splitlines()[1]
        flipped = first.replace("✓", "?").replace("✗", "✓").replace("?", "✗")
        return stdout.replace(first, flipped, 1)
    if stdout.startswith("holds"):
        return "holds\n" if "vacuously" in stdout else "holds (vacuously: no admissible substitutions)\n"
    lines = stdout.splitlines()
    return "\n".join(lines[:2] + [lines[3].replace("right", "left"), lines[3]]) + "\n"


def test_corrupted_outputs_count_as_failures():
    small = [[op for op in workloads.build(workload, 3) if len(op.stdin) < 4000][:4] for workload in run.WORKLOADS]
    ops = [op for chosen in small for op in chosen]
    batch = run.Batch(ops)
    batch.run(cli, 0)
    assert batch.problems(verify.check_output) == {}
    assert len(batch.problems(verify.check_output, corrupt=_corrupt)) == len(ops)


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
