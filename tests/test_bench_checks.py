"""The exact-density benchmark's own checks must pass on every problem that
is not tagged with a known defect.

bench/problems.py checks the default-grid densities with numpy alone: unit
mass, KS against simulated scores, the ratio law f1 = e^h f2 and the density
ROC's area.  This test runs those checks on the problem sets of seeds 0-3,
so a change that breaks an untagged problem fails here, not only in a
benchmark run.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from llrlab import GaussianParams, TwoClassProblem, llrdist

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_every_failing_default_grid_has_a_known_defect(monkeypatch, seed):
    monkeypatch.syspath_prepend(str(BENCH))
    import problems

    # the simulated scores of the exact-density workload
    rng = np.random.default_rng([seed, 0x5C])
    untagged = {}
    for prob in problems.problem_set(seed):
        two = TwoClassProblem(
            GaussianParams(np.array(prob.mu1), np.array(prob.sigma1)),
            GaussianParams(np.array(prob.mu2), np.array(prob.sigma2)),
        )
        sims = {label: problems.simulate_scores(prob, label, problems.SIM_SIZE, rng) for label in (1, 2)}
        h = llrdist.default_h_grid(two, problems.H_POINTS)
        g1, g2 = (llrdist.marginal_density(h, label, two) for label in (1, 2))
        roc = llrdist.density_roc(g1, g2)
        # at a grid point on a hyperbola's saddle both densities are inf, and
        # check_pair's ratio inf / inf is nan
        with np.errstate(invalid="ignore"):
            failed = problems.check_pair(h, g1.density, g2.density, roc.fpf, roc.tpf, sims)
        if prob.known_defect is None and (failed[1] or failed[2]):
            untagged[prob.name] = failed
    assert untagged == {}
