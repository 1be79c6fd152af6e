"""orda benchmark: seeded minimize, classify and check workloads.

    python3 bench/run.py --workload minimize --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --seed 1 --seconds 36          # every workload, both runs, as a table

Each operation is one in-process call to ``orda.cli.main(argv)`` with
stdin and stdout redirected, so it covers argument parsing, loading, the
algorithm and printing, but not interpreter start-up.  The loop is
closed: one caller, no threads, the next call starts when the previous
one returns.  A run repeats whole passes over the seeded operations while
the next pass should end within ``--seconds``, takes each operation's
fastest time over the passes, then checks every answer (outside the timed
region, see ``verify.py``) and prints one JSON line last.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs passes
untraced and with the wrappers of ``tracing.py`` installed in turn, and
reports the per-layer split per traced pass, plus the tracing overhead
(each operation's fastest traced time minus its fastest untraced one,
summed).
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
PER_LAYER = (
    ("core.parse_automaton.self_s", "s"),
    ("core.validate.s", "s"),
    ("core.format_automaton.s", "s"),
    ("minimize.reachable_part.s", "s"),
    ("minimize.preorder.s", "s"),
    ("minimize.minimize_with_map.self_s", "s"),
    ("minimize.states_in", "count"),
    ("minimize.states_out", "count"),
    ("minimize.order_pairs_out", "count"),
    ("languages.parse_regex.s", "s"),
    ("languages.derivative_automaton.s", "s"),
    ("languages.derivative_states", "count"),
    ("monoid.build.s", "s"),
    ("monoid.build.calls", "count"),
    ("monoid.elements", "count"),
    ("monoid.is_aperiodic.s", "s"),
    ("classify.is_counter_free.self_s", "s"),
    ("classify.is_acyclic.s", "s"),
    ("classify.is_confluent.s", "s"),
    ("classify.is_strongly_acyclic.s", "s"),
    ("classify.is_weakly_confluent.s", "s"),
    ("classify.is_synchronizing.s", "s"),
    ("classify.has_extensive_actions.s", "s"),
    ("classify.classify_language.self_s", "s"),
    ("classify.resource_errors", "count"),
    ("omega.parse_query.s", "s"),
    ("omega.check.self_s", "s"),
    ("omega.valid_substitutions.s", "s"),
    ("omega.substitutions", "count"),
    ("omega.length_set.s", "s"),
    ("omega.counterexample_words.s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
)
# counters whose metric name differs from the tracer's key
COUNTER_KEYS = {
    "classify.resource_errors": "classify.classify_language.resource_errors",
    "omega.substitutions": "omega.valid_substitutions.yields",
}
WORKLOADS = ("minimize", "classify", "check")
SETUP_REPEATS = 10
SHOWN_FAILURES = 5


def call(cli, op):
    """Run one command in-process; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(op.stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                code = cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback is a failed operation, not the end of the run
                code = "traceback"
                err.write(traceback.format_exc())
            seconds = perf_counter() - start
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue(), seconds


class Batch:
    """Latencies and first answers of whole passes over one operation list."""

    def __init__(self, ops):
        self.ops = ops
        self.passes: list[list[float]] = []  # latencies, one list per pass
        self.walls: list[float] = []
        self.answers: list[tuple | None] = [None] * len(ops)
        self.unstable: set[int] = set()

    def run(self, cli, seconds: float, after_pass=None) -> None:
        """At least one pass; more while the next one should end within ``seconds``.

        ``after_pass``, if given, is called after each pass with the seconds since the start.
        """
        start = perf_counter()
        while True:
            begin = perf_counter()
            latencies = []
            for i, op in enumerate(self.ops):
                code, out, err, dt = call(cli, op)
                latencies.append(dt)
                if self.answers[i] is None:
                    self.answers[i] = (code, out, err)
                elif self.answers[i][:2] != (code, out):
                    self.unstable.add(i)
            end = perf_counter()
            self.passes.append(latencies)
            self.walls.append(end - begin)
            if after_pass is not None:
                after_pass(end - start)
            if perf_counter() - start + statistics.median(self.walls) > seconds:
                break

    def problems(self, check_output, corrupt=None) -> dict[int, str]:
        """Reason per failing operation; ``corrupt`` may rewrite stdout before the check."""
        out = {}
        for i, (op, (code, stdout, stderr)) in enumerate(zip(self.ops, self.answers)):
            if corrupt is not None:
                stdout = corrupt(op, stdout)
            reason = check_output(op, code, stdout)
            if reason is None and i in self.unstable:
                reason = "answer changed between passes"
            if reason is not None:
                out[i] = f"{' '.join(op.argv)[:80]}: {reason} {stderr.strip()[:160]}".rstrip()
        return out


def _setup(workload: str, seed: int):
    """Import orda and the input builder afresh, then build the inputs;
    returns (orda.cli, workloads, ops, import seconds, build seconds)."""
    for name in [m for m in sys.modules if m.partition(".")[0] in ("orda", "oracles", "verify", "workloads")]:
        del sys.modules[name]
    start = perf_counter()
    cli = importlib.import_module("orda.cli")
    workloads = importlib.import_module("workloads")
    middle = perf_counter()
    ops = workloads.build(workload, seed)
    return cli, workloads, ops, middle - start, perf_counter() - middle


def _load(workload: str, seed: int):
    """First set-up; returns (modules, ops, [(import s, build s)])."""
    if not os.path.isdir(os.path.join(ROOT, "src", "orda")):
        sys.exit(f"error: no orda sources at {os.path.join(ROOT, 'src')}")
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]
    cli, workloads, ops, import_s, build_s = _setup(workload, seed)
    # imported after orda, so they see the classes and functions the operations use
    import tracing
    import verify

    print(f"# inputs {workload} seed={seed}: {len(ops)} operations, sha256 {workloads.digest(ops)}")
    return cli, tracing, verify, ops, [(import_s, build_s)]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli, tracing, verify, ops, setups = _load(workload, seed)
    batches = [Batch(ops)]
    if not trace:
        def setup_again(elapsed: float) -> None:
            # set-up repeats spread over the run, so their median is not one
            # moment's machine speed; the operations keep the first orda
            if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
                setups.append(_setup(workload, seed)[3:])

        batches[0].run(cli, seconds, after_pass=setup_again)
        # each operation's fastest pass: on a shared machine the same work can take
        # up to twice as long while neighbours load it
        best = [min(times) for times in zip(*batches[0].passes)]
        metrics = {
            "ops_per_s": len(best) / sum(best),
            "op_p50_ms": statistics.median(best) * 1000,
            "op_p90_ms": statistics.quantiles(best, n=10)[8] * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(map(sum, setups)),
        }
        units = dict(END_TO_END)
        print(f"# setup: import {' '.join(f'{i:.3f}' for i, _ in setups)} s, "
              f"generation {' '.join(f'{b:.3f}' for _, b in setups)} s")
        print(f"# {len(batches[0].passes)} passes; percentiles of each operation's fastest latency ({len(ops)} samples)")
    else:
        # untraced and traced passes in turn, so that both see the same machine
        tracer = tracing.Tracer()
        batches.append(Batch(ops))
        start = perf_counter()
        while True:
            batches[0].run(cli, 0)
            tracer.install()
            try:
                batches[1].run(cli, 0)
            finally:
                tracer.remove()
            if perf_counter() - start + batches[0].walls[-1] + batches[1].walls[-1] > seconds:
                break
        untraced_s, traced_s = (sum(min(times) for times in zip(*batch.passes)) for batch in batches)
        metrics = layer_metrics(tracer, len(batches[1].passes), untraced_s, traced_s)
        units = dict(PER_LAYER)
        print(f"# {len(batches[1].passes)} untraced and traced passes in turn; per-layer figures per traced pass")

    attempted = failed = 0
    for batch in batches:
        problems = batch.problems(verify.check_output)
        attempted += len(ops) * len(batch.passes)
        failed += len(batch.passes) * len(problems)
        for reason in list(problems.values())[:SHOWN_FAILURES]:
            print(f"# FAILED {reason}")
    print(f"# {attempted} operations, {failed} failed (fail_ratio {failed / attempted:.4f})")
    print(f"# nproc {os.cpu_count()}, Python {platform.python_version()}, peak memory from ru_maxrss")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def layer_metrics(tracer, passes: int, untraced_s: float, traced_s: float) -> dict:
    """Tracer totals per pass (every pass makes the same calls, so counts divide
    exactly); ``untraced_s`` and ``traced_s`` sum each operation's fastest time."""
    out = {}
    for name, _ in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if stat == "s":
            out[name] = tracer.time[span] / passes
        elif stat == "self_s":
            out[name] = tracer.self_time[span] / passes
        elif not name.startswith("trace."):
            out[name] = tracer.counts[COUNTER_KEYS.get(name, name)] // passes
    out["trace.untraced_s"] = untraced_s
    out["trace.traced_s"] = traced_s
    out["trace.overhead_s"] = traced_s - untraced_s
    return out


def report(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process; prints a table."""
    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, check=False)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return done.returncode
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            summary[f"{workload}/trace{trace}"] = result
            if trace == 0:
                ratio = result["failed"] / result["attempted"]
                print(f"{workload:9s} {'fail_ratio':36s} {ratio:14.6f} 1 (of {result['attempted']})")
            for name, metric in result["metrics"].items():
                print(f"{workload:9s} {name:36s} {metric['value']:14.6f} {metric['unit']}")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; without it, run all of them and print a table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return report(args.seed, args.seconds)
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
