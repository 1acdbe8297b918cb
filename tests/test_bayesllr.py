import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from llrlab import (
    CLASS1,
    CLASS2,
    GaussianParams,
    SeededRng,
    TwoClassProblem,
    bayes_threshold,
    classify_scores,
    llr_scores,
    mvn_sample,
)
from llrlab.errors import ContractError
from llrlab.gaussmodel import mahalanobis_sq_rows, mvn_logpdf_array
from tests.conftest import MU1, SIGMA1


def llr_exact_fraction_oracle(x):
    """Score at x for the counter-example parameters, with all rational
    arithmetic done exactly (Fractions); only the final log is floating."""
    half = Fraction(1, 2)
    mu1 = [Fraction(2), Fraction(2)]
    mu2 = [Fraction(1), Fraction(1)]
    # inverses of [[1,1/5],[1/5,1]] and [[3/10,1/10],[1/10,3/10]]
    det1 = Fraction(24, 25)
    inv1 = [[Fraction(25, 24), Fraction(-5, 24)], [Fraction(-5, 24), Fraction(25, 24)]]
    det2 = Fraction(2, 25)
    inv2 = [[Fraction(15, 4), Fraction(-5, 4)], [Fraction(-5, 4), Fraction(15, 4)]]
    x = [Fraction(v) for v in x]

    def qform(mu, inv):
        d = [x[0] - mu[0], x[1] - mu[1]]
        return (
            d[0] * d[0] * inv[0][0] + 2 * d[0] * d[1] * inv[0][1] + d[1] * d[1] * inv[1][1]
        )

    rational = -half * (qform(mu1, inv1) - qform(mu2, inv2))
    return float(rational) - 0.5 * math.log(float(det1 / det2))


class TestLlrScore:
    def test_identical_models_score_zero(self):
        params = GaussianParams(MU1, SIGMA1)
        problem = TwoClassProblem(class1=params, class2=GaussianParams(MU1, SIGMA1))
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert llr_scores(rng.normal(size=2), problem)[0] == 0.0

    def test_matches_log_density_ratio(self, counterexample_problem):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.normal(loc=1.5, scale=1.2, size=2)
            direct = math.log(
                np.exp(mvn_logpdf_array(x, counterexample_problem.class1)[0])
                / np.exp(mvn_logpdf_array(x, counterexample_problem.class2)[0])
            )
            assert llr_scores(x, counterexample_problem)[0] == pytest.approx(direct, abs=1e-10)

    def test_equal_identity_covariance_is_linear(self):
        p = 4
        rng = np.random.default_rng(2)
        mu1, mu2 = rng.normal(size=(2, p))
        problem = TwoClassProblem(
            class1=GaussianParams(mu1, np.eye(p)), class2=GaussianParams(mu2, np.eye(p))
        )
        for _ in range(100):
            x = rng.normal(size=p)
            expected = (mu1 - mu2) @ x - 0.5 * (mu1 @ mu1 - mu2 @ mu2)
            assert llr_scores(x, problem)[0] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 3, 7, 11])
    def test_bit_equal_to_the_docstring_expression(self, p):
        gen = np.random.default_rng(60 + p)
        a, b = gen.normal(size=(2, p, p))
        problem = TwoClassProblem(
            GaussianParams(gen.normal(size=p), a @ a.T + np.eye(p)),
            GaussianParams(gen.normal(size=p), b @ b.T + 0.5 * np.eye(p)),
        )
        c1, c2 = problem.class1, problem.class2
        for n in (1, 2, 257):
            x = 2.0 * gen.normal(size=(n, p))
            q1 = mahalanobis_sq_rows(x, c1)
            q2 = mahalanobis_sq_rows(x, c2)
            expected = -0.5 * (q1 - q2) - 0.5 * (c1.log_det - c2.log_det)
            assert np.array_equal(llr_scores(x, problem), expected)

    def test_exact_rational_oracle_at_2_2(self, counterexample_problem):
        assert llr_scores([2.0, 2.0], counterexample_problem)[0] == pytest.approx(
            llr_exact_fraction_oracle([2, 2]), abs=1e-12
        )

    def test_antisymmetry_is_exact(self, counterexample_problem):
        p = counterexample_problem
        swapped = TwoClassProblem(class1=p.class2, class2=p.class1)
        rng = np.random.default_rng(3)
        x = rng.normal(loc=1.0, size=(50, 2))
        np.testing.assert_array_equal(llr_scores(x, p), -llr_scores(x, swapped))

    def test_affine_boundary_under_shared_covariance(self):
        sigma = np.array([[2.0, 0.4], [0.4, 1.0]])
        problem = TwoClassProblem(
            class1=GaussianParams([1.0, 0.0], sigma),
            class2=GaussianParams([-0.5, 0.7], sigma),
        )
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.normal(size=2)
            d = rng.normal(size=2)
            t = np.linspace(-3.0, 3.0, 31)
            scores = llr_scores(a + t[:, None] * d, problem)
            second_diff = np.diff(scores, 2)
            assert np.abs(second_diff).max() < 1e-9


class TestBayesThreshold:
    def test_symmetric_zero_one_costs(self):
        assert bayes_threshold() == 0.0
        assert bayes_threshold(0.5, ((0.0, 1.0), (1.0, 0.0))) == 0.0

    def test_skewed_priors(self):
        assert bayes_threshold(0.9) == pytest.approx(math.log(0.1 / 0.9), rel=1e-15)
        assert bayes_threshold(0.9) == pytest.approx(-2.1972246, abs=1e-6)

    @pytest.mark.parametrize("prior1", [0.0, 1.0, -0.1, 1.5, math.nan, math.inf])
    def test_prior_validation(self, prior1):
        with pytest.raises(ContractError, match=r"priors must lie strictly in \(0, 1\)"):
            bayes_threshold(prior1)

    @pytest.mark.parametrize(
        "costs",
        [((0.0, math.inf), (1.0, 0.0)), ((0.0, 1.0), (math.nan, 0.0)), ((0.0, 1.0),),
         ((0.0, 1.0, 2.0), (1.0, 0.0, 2.0)), (0.0, 1.0, 1.0, 0.0)],
        ids=["inf", "nan", "1x2", "2x3", "flat"],
    )
    def test_costs_must_be_a_finite_2x2_matrix(self, costs):
        with pytest.raises(ContractError, match="costs must be a finite 2x2 matrix"):
            bayes_threshold(0.5, costs)

    @pytest.mark.parametrize(
        "costs",
        [((1.0, 1.0), (1.0, 0.0)), ((0.0, 1.0), (0.0, 0.0)), ((2.0, 1.0), (1.0, 0.0)), ((0.0, 1.0), (1.0, 3.0))],
        ids=["c12 == c11", "c21 == c22", "c12 < c11", "c21 < c22"],
    )
    def test_degenerate_costs_rejected(self, costs):
        with pytest.raises(ContractError, match="misclassification costs must exceed"):
            bayes_threshold(0.5, costs)

    def test_empirical_risk_minimization_oracle(self):
        # 2-D problem with skewed priors and asymmetric costs; the Bayes
        # threshold must beat a 200-point threshold grid on simulated data.
        problem = TwoClassProblem(
            class1=GaussianParams([0.8, 0.0], np.eye(2)),
            class2=GaussianParams([0.0, 0.5], np.eye(2)),
        )
        costs = ((0.0, 1.0), (4.0, 0.0))
        th = bayes_threshold(0.9, costs)
        n = 100_000
        rng = SeededRng(5150)
        labels = (rng.derive(0).uniforms(n) < 0.1).astype(int)  # 1 => class 2
        x = np.where(
            labels[:, None],
            mvn_sample(problem.class2, n, rng.derive(2)),
            mvn_sample(problem.class1, n, rng.derive(1)),
        )
        scores = llr_scores(x, problem)
        c = np.asarray(costs)

        def risk(threshold):
            decide2 = scores <= threshold
            cost = np.where(
                labels == 0,
                np.where(decide2, c[0, 1], c[0, 0]),
                np.where(decide2, c[1, 1], c[1, 0]),
            )
            return cost.mean(), cost.std(ddof=1) / np.sqrt(n)

        base, se = risk(th)
        for t in np.linspace(scores.min(), scores.max(), 200):
            assert base <= risk(t)[0] + se


class TestClassify:
    def test_above_threshold(self):
        assert classify_scores(1.0, 0.0) == CLASS1

    def test_below_threshold(self):
        assert classify_scores(-0.5, 0.0) == CLASS2

    def test_tie_goes_to_class2(self):
        assert classify_scores(0.0, 0.0) == CLASS2

    def test_elementwise_over_an_array(self):
        scores = np.array([-1.0, 0.0, 0.3, 2.0])
        np.testing.assert_array_equal(classify_scores(scores, 0.3), [CLASS2, CLASS2, CLASS2, CLASS1])


class TestTwoClassProblem:
    def test_a_problem_is_its_two_class_models(self):
        # priors and costs belong to the threshold, not to the problem
        assert [f.name for f in dataclasses.fields(TwoClassProblem)] == ["class1", "class2"]

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            TwoClassProblem(
                class1=GaussianParams([0.0], [[1.0]]),
                class2=GaussianParams([1.0, 0.0], np.eye(2)),
            )
