"""The benchmark's inputs at seed 1, pinned by their digests.

bench/workloads.py draws its inputs with `random_regex`, `format_regex`,
`random_automaton` and `random_minimal_automaton`, so a change to the regex
constructors, the printer or the generators that would hand the benchmark
different inputs fails here rather than moving its figures unseen.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize(
    "workload, digest",
    [("minimize", "d64dc8f64b7ef713"), ("classify", "38e9ae65734275e9"), ("check", "fff8245e1ac18025")],
)
def test_bench_inputs_are_pinned(monkeypatch, workload, digest):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    assert workloads.digest(workloads.build(workload, 1)) == digest
