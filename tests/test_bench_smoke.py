"""One untraced pass of each benchmark workload must run and pass its checks.

bench/workloads.py calls llrlab by name, keyword and position: the
learning curve with ``max_workers=``, ``DensityGrid`` with positional
arguments, ``llr-lab``'s ``main``.  Removing or renaming any of these breaks
every benchmark run; this test runs the same calls at seed 0, so such a
change fails here instead.  The outputs are also checked as the benchmark
checks them, against bench/reference.json where it has the seed.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import llrlab

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 0


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    return workloads


def test_mc_curve_pass(workloads, tmp_path):
    inp = workloads.McCurve().setup(llrlab, SEED, tmp_path)
    assert inp["reference"] is not None
    _, summary, error = workloads._timed_curve(llrlab, inp["config"], workloads.POOL_WORKERS)
    assert error is None
    assert workloads.sha256(summary.to_csv()) == inp["reference"]


def test_exact_density_pass(workloads, tmp_path):
    workload = workloads.ExactDensity()
    inp = workload.setup(llrlab, SEED, tmp_path)
    results = workload._pass(inp, workloads.Pacer(paced=False))
    assert len(results) == len(inp["cases"])
    for (prob, _, _), (points, failed) in zip(inp["cases"], results):
        assert points == workloads.problems.H_POINTS, prob.name
        assert failed == {1: [], 2: []}, prob.name


def test_cli_emit_round(workloads, tmp_path):
    workload = workloads.CliEmit()
    inp = workload.setup(llrlab, SEED, tmp_path)
    assert inp["reference"] is not None
    failures = []
    workload._round(inp, workloads.Pacer(paced=False), failures, {})
    # one verdict per command, then the cross-checks' (None when all pass)
    assert failures == [None] * (len(workloads.CLI_COMMANDS) + 1)
