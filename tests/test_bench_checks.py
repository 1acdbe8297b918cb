"""The exact-density benchmark's own checks must pass on every problem.

bench/problems.py checks the default-grid densities with numpy alone: unit
mass, KS against simulated scores, the ratio law f1 = e^h f2 and the density
ROC's area.  This test runs those checks on the problem sets of seeds 0-3,
so a change that breaks a problem fails here, not only in a benchmark run.
Every problem must pass, whatever defect tag the benchmark still gives it,
and a grid point on a saddle score, whose densities inf / inf make the ratio
check warn, fails the test.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from llrlab import GaussianParams, TwoClassProblem, llrdist

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_every_default_grid_passes_the_benchmark_checks(monkeypatch, seed):
    monkeypatch.syspath_prepend(str(BENCH))
    import problems

    # the simulated scores of the exact-density workload
    rng = np.random.default_rng([seed, 0x5C])
    failing = {}
    for prob in problems.problem_set(seed):
        two = TwoClassProblem(
            GaussianParams(np.array(prob.mu1), np.array(prob.sigma1)),
            GaussianParams(np.array(prob.mu2), np.array(prob.sigma2)),
        )
        sims = {label: problems.simulate_scores(prob, label, problems.SIM_SIZE, rng) for label in (1, 2)}
        h = llrdist.default_h_grid(two, problems.H_POINTS)
        g1, g2 = (llrdist.marginal_density(h, label, two) for label in (1, 2))
        roc = llrdist.density_roc(g1, g2)
        failed = problems.check_pair(h, g1.density, g2.density, roc.fpf, roc.tpf, sims)
        if failed[1] or failed[2]:
            failing[prob.name] = failed
    assert failing == {}
