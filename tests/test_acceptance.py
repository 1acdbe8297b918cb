"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest -s tests/test_acceptance.py` to see the
per-criterion report."""

from contextlib import contextmanager

import numpy as np
import pytest

import llrlab as L
from llrlab.llrdist import default_h_grid, density_roc, score_geometry
from llrlab.smallmat import std_normal_cdf_array

DELTA_SQ = 0.8
ASYMPTOTE = 0.7366


@contextmanager
def report(label):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {label}: FAIL")
        raise
    print(f"\nACCEPTANCE {label}: PASS")


@pytest.fixture(scope="module")
def problem():
    return L.TwoClassProblem(
        class1=L.GaussianParams([2.0, 2.0], [[1.0, 0.2], [0.2, 1.0]]),
        class2=L.GaussianParams([1.0, 1.0], [[0.3, 0.1], [0.1, 0.3]]),
    )


@pytest.fixture(scope="module")
def simulated_scores(problem):
    rng = L.SeededRng(2)
    out = {}
    for label, params in ((1, problem.class1), (2, problem.class2)):
        x = L.mvn_sample(params, 10_000, rng.derive(label))
        out[label] = L.llr_scores(x, problem)
    return out


@pytest.fixture(scope="module")
def marginal_grids(problem, simulated_scores):
    grid_h = default_h_grid(problem, n_points=801)
    lo = min(s.min() for s in simulated_scores.values())
    hi = max(s.max() for s in simulated_scores.values())
    if lo <= grid_h[0]:
        grid_h = np.concatenate([[lo - 1e-9], grid_h])
    if hi >= grid_h[-1]:
        grid_h = np.concatenate([grid_h, [hi + 1e-9]])
    return {label: L.marginal_density(grid_h, label, problem) for label in (1, 2)}


@pytest.fixture(scope="module")
def curve_config():
    return L.ExperimentConfig(
        dims=(3, 7, 11),
        train_sizes=(20, 50, 100, 500, 2000),
        n_trials=100,
        test_size=1000,
        target_delta_sq=DELTA_SQ,
        base_seed=2,
    )


@pytest.fixture(scope="module")
def curve_run(curve_config):
    return L.learning_curve(curve_config)


def test_criterion_1_counterexample_reproduction(problem, simulated_scores, marginal_grids):
    with report("1 (counter-example score distribution)"):
        g2 = marginal_grids[2]
        # (a) unit mass
        assert g2.integral() == pytest.approx(1.0, abs=1e-3)
        # (b) single-tailed: support bounded below, unbounded decay above
        lo, hi = L.llrdist.support_h_range(problem)
        assert np.isfinite(lo) and hi == np.inf
        probe = L.marginal_density(np.array([lo - 2.0, lo - 0.5]), 2, problem)
        assert np.all(probe.density == 0.0)
        assert g2.density[np.searchsorted(g2.h_values, lo + 0.02)] > 0.5
        assert g2.density[-1] < 1e-6
        # (c) analytic vs simulated scores, both classes
        for label in (1, 2):
            ks, _ = L.histogram_vs_analytic(simulated_scores[label], marginal_grids[label])
            assert ks < 0.02


def test_criterion_2_density_ratio_law(marginal_grids):
    with report("2 (density-ratio law)"):
        g1, g2 = marginal_grids[1], marginal_grids[2]
        mask = (g1.density > 1e-8) & (g2.density > 1e-8)
        assert mask.sum() > 100
        ratio = g1.density[mask] / (np.exp(g1.h_values[mask]) * g2.density[mask])
        assert np.abs(ratio - 1.0).max() < 1e-6


def test_criterion_3_three_digit_constant_cross_check(problem):
    with report("3 (printed-constant cross-check)"):

        def reference_joint_w1(h, x1):
            r = 1.91 + 0.866 * h + x1 - x1 * x1
            sq = np.sqrt(r)
            return (
                np.exp(-0.385 * h - 0.074 * x1**2 + 1.805 * x1 - 1.243 * sq)
                * (0.00157 / np.sqrt(abs(r)))
                * (np.exp(0.178 * x1 * sq) + np.exp(2.49 * sq - 0.178 * x1 * sq))
            )

        geom = score_geometry(problem)
        rng = np.random.default_rng(32)
        checked = 0
        while checked < 20:
            h = rng.uniform(-2.0, 4.0)
            x1 = rng.uniform(-0.7, 1.7)
            if float(geom.x2_quadratic(h, x1)[2]) <= 0.3:
                continue
            assert L.joint_density(h, x1, 1, problem) == pytest.approx(
                reference_joint_w1(h, x1), rel=1e-2
            )
            checked += 1

        (lo, hi), = L.support_region(0.0, problem)
        assert lo == pytest.approx(-0.9557, abs=2e-2)
        assert hi == pytest.approx(1.9557, abs=2e-2)


def test_criterion_4_binormal_exactness_in_degenerate_regime():
    with report("4 (binormal exactness under equal covariance)"):
        d = np.sqrt(DELTA_SQ)
        problem = L.TwoClassProblem(
            class1=L.GaussianParams([d, 0.0], np.eye(2)),
            class2=L.GaussianParams([0.0, 0.0], np.eye(2)),
        )
        h = np.linspace(-DELTA_SQ / 2 - 12 * d, DELTA_SQ / 2 + 12 * d, 4001)
        grids = {label: L.marginal_density(h, label, problem) for label in (1, 2)}
        for label, sign in ((1, 1.0), (2, -1.0)):
            ref = np.exp(-0.5 * (h - sign * DELTA_SQ / 2) ** 2 / DELTA_SQ) / np.sqrt(
                2 * np.pi * DELTA_SQ
            )
            assert np.abs(grids[label].density - ref).max() < 1e-6
        curve = density_roc(
            grids[1], grids[2], band=(-DELTA_SQ / 2 - 3 * d, DELTA_SQ / 2 + 3 * d)
        )
        fit = L.normal_deviate_fit(curve)
        assert fit.b == pytest.approx(1.0, abs=1e-4)
        assert L.trapezoid_auc(curve) == pytest.approx(
            std_normal_cdf_array(d / np.sqrt(2.0)), abs=1e-5
        )


def test_criterion_5_estimator_identities():
    with report("5 (estimator identities, exact)"):
        rng = np.random.default_rng(55)
        for k in range(1000):
            n1 = int(rng.integers(1, 80))
            n2 = int(rng.integers(1, 80))
            s1 = rng.normal(loc=0.3, size=n1)
            s2 = rng.normal(size=n2)
            if k % 2:  # force heavy ties on half the sets
                s1 = np.round(s1, 1)
                s2 = np.round(s2, 1)
            scores = L.ScoreSet(s1, s2)
            auc = L.empirical_auc(scores)
            assert L.trapezoid_auc(L.empirical_roc(scores)) == auc
            mw, prob = L.auc_probability_identity_check(scores)
            assert mw == auc
            assert abs(mw - prob) <= 1e-15


def test_criterion_6_binormal_auc_form_arbitration():
    with report("6 (binormal AUC closed form vs integration)"):
        fpf = np.linspace(1e-10, 1.0 - 1e-10, 100_000)
        from llrlab.rocauc import binormal_tpf_array

        for a in (0.0, 0.5, 1.0, 2.0):
            for b in (0.5, 1.0, 2.0):
                oracle = np.trapezoid(binormal_tpf_array(a, b, fpf), fpf)
                assert L.binormal_auc(a, b) == pytest.approx(oracle, abs=1e-5)
                sans_sqrt = std_normal_cdf_array(a / (1.0 + b * b))
                if a != 0.0:
                    # the no-square-root variant disagrees with the
                    # integration oracle wherever the two forms differ
                    assert abs(sans_sqrt - oracle) > 1e-5


def test_criterion_7_learning_curves(curve_config, curve_run):
    with report("7 (finite-training learning curves)"):
        rows = curve_run.rows
        assert len(rows) == 15
        # (a) apparent AUC is upward biased at every cell
        for r in rows:
            assert r.mean_auc_apparent >= r.mean_auc_true
        # (b) common asymptote across dimensionalities
        for p in curve_config.dims:
            assert abs(curve_run.cell(p, 2000).mean_auc_true - ASYMPTOTE) < 0.01
        # (c) variance shrinks monotonically at p = 11
        variances = [curve_run.cell(11, n).var_auc_true for n in curve_config.train_sizes]
        assert all(a > b for a, b in zip(variances, variances[1:]))


def test_criterion_8_determinism_including_parallel(curve_config, curve_run):
    with report("8 (bitwise determinism, serial and parallel)"):
        serial = L.learning_curve(curve_config, max_workers=1).to_csv()
        two = L.learning_curve(curve_config, max_workers=2).to_csv()
        assert two.encode() == serial.encode()
        assert curve_run.to_csv().encode() == serial.encode()


def test_criterion_9_diagonalization_invariance(problem, marginal_grids):
    with report("9 (simultaneous-diagonalization invariance)"):
        diag = L.transform_problem(problem)
        rng = np.random.default_rng(99)
        x = rng.normal(loc=1.2, scale=1.4, size=(10_000, 2))
        th = L.bayes_threshold()
        before = L.classify_scores(L.llr_scores(x, problem), th)
        after = L.classify_scores(L.llr_scores(diag.map_points(x), diag.problem), th)
        np.testing.assert_array_equal(before, after)
        for label in (1, 2):
            transformed = L.marginal_density(
                marginal_grids[label].h_values, label, diag.problem
            )
            assert np.abs(transformed.density - marginal_grids[label].density).max() < 1e-6
