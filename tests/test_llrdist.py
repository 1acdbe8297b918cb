import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.special import expit, i0, i0e, k0e, ndtr

from llrlab import (
    GaussianParams,
    SeededRng,
    TwoClassProblem,
    histogram_vs_analytic,
    invert_llr,
    joint_density,
    llr_score,
    llr_scores,
    marginal_density,
    mvn_sample,
    score_moments,
    simdiag,
    support_region,
    transform_problem,
)
from llrlab import llrdist
from llrlab.errors import ContractError, SingularityError
from llrlab.gaussmodel import mvn_logpdf_array
from llrlab.llrdist import (
    _MAX_EVALS,
    DensityGrid,
    _diagonal_score,
    _joint_values,
    _quadratic_roots,
    adaptive_gk,
    adaptive_gk_rows,
    default_h_grid,
    density_roc,
    freedman_diaconis_bins,
    score_geometry,
    support_h_range,
)


def reference_joint_w1(h, x1):
    """Independent closed-form evaluation of the class-1 joint density for the
    counter-example parameters, with every coefficient rounded to three
    digits; good to about 1% on the interior."""
    r = 1.91 + 0.866 * h + x1 - x1 * x1
    if r <= 0:
        return 0.0
    sq = np.sqrt(r)
    return (
        np.exp(-0.385 * h - 0.074 * x1**2 + 1.805 * x1 - 1.243 * sq)
        * (0.00157 / np.sqrt(abs(r)))
        * (np.exp(0.178 * x1 * sq) + np.exp(2.49 * sq - 0.178 * x1 * sq))
    )


# ROADMAP item 1: the precision difference is rank one, so the score's
# level curves are parabolas; in x1 coordinates d2 rounds to about -7e-18.
NEAR_PARABOLA = TwoClassProblem(
    class1=GaussianParams([1.0, 0.0], [[1.0, 0.2], [0.2, 1.0]]),
    class2=GaussianParams([0.0, 0.0], [[1.0, 0.2], [0.2, 1.1]]),
)

# Swapped variances: hyperbolic level curves with a saddle at score 0.
SADDLE = TwoClassProblem(
    class1=GaussianParams([0.0, 0.0], np.diag([2.0, 0.5])),
    class2=GaussianParams([1.0, 1.0], np.diag([0.5, 2.0])),
)


def interior_points(problem, n, seed, margin=0.3):
    geom = score_geometry(problem)
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        h = rng.uniform(-2.0, 4.0)
        x1 = rng.uniform(-0.7, 1.7)
        if float(geom.discriminant_at(h, x1)) > margin:
            pts.append((h, x1))
    return pts


class TestInvertLlr:
    def test_round_trip_interior(self, counterexample_problem):
        worst = 0.0
        for h, x1 in interior_points(counterexample_problem, 100, seed=31, margin=1e-4):
            roots = invert_llr(h, x1, counterexample_problem)
            assert len(roots) == 2
            for r in roots:
                worst = max(worst, abs(llr_score([x1, r], counterexample_problem) - h))
        assert worst < 1e-9

    def test_outside_support_empty(self, counterexample_problem):
        assert invert_llr(-10.0, 0.5, counterexample_problem) == []

    # (x1, h) frozen so the computed discriminant is exactly zero
    FOLD_POINT = (0.2525, -2.4217730364324623)

    def test_tangency_double_root(self, counterexample_problem):
        geom = score_geometry(counterexample_problem)
        x1, h = self.FOLD_POINT
        assert float(geom.discriminant_at(h, x1)) == 0.0
        roots = invert_llr(h, x1, counterexample_problem)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(-float(geom.b_at(x1)) / (2.0 * geom.a2), rel=1e-12)

    def test_equal_covariance_single_root(self):
        sigma = np.array([[1.0, 0.3], [0.3, 2.0]])
        problem = TwoClassProblem(
            class1=GaussianParams([1.0, 0.5], sigma),
            class2=GaussianParams([0.2, -0.1], sigma),
        )
        roots = invert_llr(0.3, 0.4, problem)
        assert len(roots) == 1
        assert llr_score([0.4, roots[0]], problem) == pytest.approx(0.3, abs=1e-9)

    def test_score_depending_on_x1_only_is_degenerate(self, equal_cov_problem):
        with pytest.raises(ContractError):
            invert_llr(0.1, 0.2, equal_cov_problem)


finite = st.floats(min_value=-1e6, max_value=1e6).filter(lambda v: v == 0.0 or abs(v) > 1e-6)
nonzero = finite.filter(lambda v: v != 0.0)


@st.composite
def real_root_quadratics(draw):
    """(a, b, c) with real roots: a == 0, |a| <= 1e-12 |b|, or any a."""
    kind = draw(st.sampled_from(["linear", "tiny", "general"]))
    b = draw(finite if kind == "general" else nonzero)
    if kind == "linear":
        a = 0.0
    elif kind == "tiny":
        # down to 1e-150, where a * r^2 of the far root b / a still fits a double
        a = b * draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-150.0, -12.0))
    else:
        a = draw(nonzero)
    c = draw(finite)
    assume(b * b - 4.0 * a * c >= 0.0)
    # a t^2 alone: q = 0, the one input the helper declines (see its docstring)
    assume(b != 0.0 or c != 0.0)
    return a, b, c


class TestQuadraticRoots:
    @settings(max_examples=500, deadline=None)
    @given(real_root_quadratics())
    def test_roots_have_relative_residual_at_rounding_level(self, abc):
        a, b, c = abc
        roots = _quadratic_roots(a, b, c, np.sqrt(b * b - 4.0 * a * c))
        assert len(roots) == (1 if a == 0.0 else 2)
        for r in roots:
            r = float(r)
            scale = abs(a) * r * r + abs(b * r) + abs(c)
            assert abs(a * r * r + b * r + c) <= 1e-12 * scale

    def test_small_root_survives_where_the_textbook_formula_cancels(self):
        a, b, c = 1e-10, 1.0, -1.0
        sq = np.sqrt(b * b - 4.0 * a * c)
        small = min(_quadratic_roots(a, b, c, sq), key=abs)
        assert small == pytest.approx(1.0 - 1e-10, rel=1e-14)
        assert (-b + sq) / (2.0 * a) != pytest.approx(1.0 - 1e-10, rel=1e-9)

    def test_elementwise_over_arrays(self):
        b = np.array([3.0, -3.0, 1e8])
        c = np.array([2.0, 2.0, 1.0])
        big, small = _quadratic_roots(1.0, b, c, np.sqrt(b * b - 4.0 * c))
        np.testing.assert_allclose(big, [-2.0, 2.0, -1e8], rtol=1e-15)
        np.testing.assert_allclose(small, [-1.0, 1.0, -1e-8], rtol=1e-15)


class TestJointDensity:
    def test_zero_outside_support(self, counterexample_problem):
        assert joint_density(-5.0, 0.5, 1, counterexample_problem) == 0.0

    def test_fold_raises(self, counterexample_problem):
        x1, h = TestInvertLlr.FOLD_POINT
        with pytest.raises(SingularityError):
            joint_density(h, x1, 1, counterexample_problem)

    def test_matches_three_digit_reference(self, counterexample_problem):
        for h, x1 in interior_points(counterexample_problem, 20, seed=32):
            mine = joint_density(h, x1, 1, counterexample_problem)
            ref = reference_joint_w1(h, x1)
            assert mine == pytest.approx(ref, rel=1e-2)

    def test_normalization_class2(self, counterexample_problem):
        grid = default_h_grid(counterexample_problem, n_points=801)
        g2 = marginal_density(grid, 2, counterexample_problem)
        assert g2.integral() == pytest.approx(1.0, abs=1e-3)

    def test_branch_sum_against_simulated_pushforward(self, counterexample_problem):
        n = 1_000_000
        x = mvn_sample(counterexample_problem.class2, n, SeededRng(608, 2))
        h = llr_scores(x, counterexample_problem)
        h_edges = np.linspace(-2.2, 0.8, 7)
        x_edges = np.linspace(0.0, 1.2, 7)
        counts, _, _ = np.histogram2d(h, x[:, 0], bins=(h_edges, x_edges))
        geom = score_geometry(counterexample_problem)
        params = counterexample_problem.class2
        checked = 0
        for i in range(len(h_edges) - 1):
            for j in range(len(x_edges) - 1):
                hs = np.linspace(h_edges[i], h_edges[i + 1], 33)
                xs = np.linspace(x_edges[j], x_edges[j + 1], 33)
                gh, gx = np.meshgrid(hs, xs, indexing="ij")
                disc = geom.discriminant_at(gh, gx)
                if disc.min() < 0.2:  # skip cells touching the fold
                    continue
                vals = _joint_values(gh, gx, params, geom)
                mass = simpson(simpson(vals, x=xs, axis=1), x=hs)
                if mass * n < 50:
                    continue
                se = np.sqrt(mass * (1.0 - mass) / n)
                assert abs(counts[i, j] / n - mass) <= 3.0 * se
                checked += 1
        assert checked >= 10


class TestSupportRegion:
    def test_matches_three_digit_parabola_roots(self, counterexample_problem):
        slc = support_region(0.0, counterexample_problem)
        assert len(slc.intervals) == 1
        lo, hi = slc.intervals[0]
        assert lo == pytest.approx(-0.9557, abs=2e-2)
        assert hi == pytest.approx(1.9557, abs=2e-2)

    def test_far_below_support_is_empty(self, counterexample_problem):
        assert support_region(-50.0, counterexample_problem).is_empty

    def test_boundary_roots_have_tiny_residual(self, counterexample_problem):
        geom = score_geometry(counterexample_problem)
        for h in (-1.0, 0.0, 2.0, 5.0):
            for root in support_region(h, counterexample_problem).intervals[0]:
                assert abs(float(geom.discriminant_at(h, root))) < 1e-9
        # A rank-one precision difference rounds d2 to about -7e-18, so the
        # finite endpoint is the small root -d0/d1, which the textbook
        # quadratic formula loses to cancellation.
        geom = score_geometry(NEAR_PARABOLA)
        for h, expected in ((-1.0, -0.74955), (0.0, 0.25045), (1.0, 1.25045)):
            _d2, d1, d0 = geom.discriminant_coeffs(h)
            lo = support_region(h, NEAR_PARABOLA).intervals[0][0]
            assert lo == pytest.approx(-d0 / d1, rel=1e-9)
            assert lo == pytest.approx(expected, abs=1e-5)
            assert abs(float(geom.discriminant_at(h, lo))) < 1e-9

    def test_support_h_range_counterexample(self, counterexample_problem):
        lo, hi = support_h_range(counterexample_problem)
        assert np.isfinite(lo) and hi == np.inf
        assert support_region(lo - 1e-6, counterexample_problem).is_empty
        assert not support_region(lo + 1e-6, counterexample_problem).is_empty
        # parabolic level curves reach every score
        assert support_h_range(NEAR_PARABOLA) == (-np.inf, np.inf)


@st.composite
def spd_problems(draw):
    """A 2-D problem with covariance eigenvalues in [0.2, 5] at random
    rotations and means in [-3, 3]^2.  Some draws give class 2
    the precision of class 1 plus a rank-one term, so one diagonal
    coordinate of the score has no square: a parabola (or a lone square).
    Some put both means at the origin, so the diagonal score has no linear
    term (beta = 0)."""

    def rotation():
        a = draw(st.floats(0.0, np.pi))
        return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])

    def covariance():
        r = rotation()
        return r @ np.diag([draw(st.floats(0.2, 5.0)) for _ in range(2)]) @ r.T

    def mean():
        return [draw(st.floats(-3.0, 3.0)) for _ in range(2)]

    sigma1 = covariance()
    if draw(st.booleans()):
        v = rotation()[:, 0]
        # precision1 + s vv' / (v' sigma1 v) is positive definite iff s > -1
        s = draw(st.floats(-0.8, 4.0).filter(lambda s: abs(s) >= 0.2))
        sigma2 = np.linalg.inv(np.linalg.inv(sigma1) + s / (v @ sigma1 @ v) * np.outer(v, v))
    else:
        sigma2 = covariance()
    mu1, mu2 = ([0.0, 0.0], [0.0, 0.0]) if draw(st.booleans()) else (mean(), mean())
    return TwoClassProblem(
        class1=GaussianParams(mu1, 0.5 * (sigma1 + sigma1.T)),
        class2=GaussianParams(mu2, 0.5 * (sigma2 + sigma2.T)),
    )


class TestMarginalDensity:
    def test_equal_covariance_closed_form(self, equal_cov_problem):
        dsq = 0.8
        d = np.sqrt(dsq)
        h = np.linspace(-4 * d, 4 * d, 801)
        for label, sign in ((1, 1.0), (2, -1.0)):
            grid = marginal_density(h, label, equal_cov_problem)
            ref = np.exp(-0.5 * (h - sign * dsq / 2) ** 2 / dsq) / np.sqrt(2 * np.pi * dsq)
            assert np.abs(grid.density - ref).max() < 1e-6
            assert np.all(grid.est_error <= 1e-8)

    def test_equal_covariance_quadrature_path(self):
        # mean difference not axis-aligned: exercises the linear geometry
        sigma = np.array([[1.0, 0.3], [0.3, 2.0]])
        problem = TwoClassProblem(
            class1=GaussianParams([1.0, 0.5], sigma),
            class2=GaussianParams([0.2, -0.1], sigma),
        )
        from llrlab import mahalanobis_sq

        dsq = mahalanobis_sq(problem.class1.mu, problem.class2.mu, sigma)
        h = np.linspace(-3 * np.sqrt(dsq) - dsq, 3 * np.sqrt(dsq) + dsq, 301)
        grid = marginal_density(h, 1, problem)
        ref = np.exp(-0.5 * (h - dsq / 2) ** 2 / dsq) / np.sqrt(2 * np.pi * dsq)
        assert np.abs(grid.density - ref).max() < 1e-6

    def test_x1_only_quadratic_score_is_scaled_chi_square(self):
        # var(x1) 1 vs 2, x2 identical: h = ln(2)/2 - x1^2/4, so under class 1
        # 4 (ln(2)/2 - h) is chi-square with one degree of freedom.  The map
        # x -> D x + t leaves every score unchanged; under the second one the
        # x2 coefficient of the diagonalized score rounds to 1.4e-17, not 0.
        from scipy.stats import chi2

        for d, t in (((1.0, 1.0), (0.0, 0.0)), ((0.5, 0.8), (0.3, 0.05))):
            D = np.diag(d)
            problem = TwoClassProblem(
                class1=GaussianParams(t, D @ D),
                class2=GaussianParams(t, D @ np.diag([2.0, 1.0]) @ D),
            )
            assert score_geometry(problem).kind == "x1_only"
            h = np.linspace(-6.0, 0.5 * np.log(2.0) - 1e-3, 301)
            grid = marginal_density(h, 1, problem)
            ref = 4.0 * chi2.pdf(4.0 * (0.5 * np.log(2.0) - h), df=1)
            np.testing.assert_allclose(grid.density, ref, rtol=1e-12)
            above = marginal_density([0.5 * np.log(2.0) + 0.1, 1.0], 1, problem)
            assert np.all(above.density == 0.0)
        # A lone square term with a linear term of its own: class 2 has the
        # precision I + vv', and the mean difference lies along v, so
        # h = vertex + (w - c)^2 / 2 in w = v'x, c = -3 eps / sqrt(2).  The
        # square is scaled noncentral chi-square: w has variance 1 (class 1)
        # or 1/2 (class 2).  At the vertex itself the density is infinite,
        # however b^2 - 4ac would round there.
        from scipy.stats import ncx2

        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        offsets = np.array([1e-12, 1e-9, 1e-6, 1e-3])
        for eps in (0.01, 0.5):
            problem = TwoClassProblem(
                class1=GaussianParams([0.0, eps], np.eye(2)),
                class2=GaussianParams([-eps, 0.0], np.linalg.inv(np.eye(2) + np.outer(v, v))),
            )
            vertex = support_h_range(problem)[0]
            for label, scale, noncentrality in ((1, 0.5, 8.0 * eps**2), (2, 0.25, 4.0 * eps**2)):
                at = marginal_density([vertex, vertex + 1.0], label, problem)
                assert at.density[0] == np.inf and at.est_error[0] == np.inf
                h = vertex + offsets
                grid = marginal_density(h, label, problem)
                ref = ncx2.pdf((h - vertex) / scale, 1, noncentrality) / scale
                np.testing.assert_allclose(grid.density, ref, rtol=1e-12)

    @pytest.mark.parametrize(
        "sigma1, sigma2",
        [(np.eye(2), np.diag([0.5, 0.4])), (np.diag([2.0, 0.5]), np.diag([0.5, 2.0]))],
        ids=["ellipse", "hyperbola"],
    )
    def test_centred_classes_match_closed_forms(self, sigma1, sigma2):
        # With both means 0, h - gamma under one class is a z0^2 + b z1^2 for
        # independent standard normal z, with a, b = alpha_i var_i, whose
        # density is exp(-(a + b) x / 4ab) / (2 sqrt|ab|) times I0(z) for an
        # ellipse (a, b > 0) and K0(|z|) / pi for a hyperbola (ab < 0), at
        # z = (b - a) x / 4|ab|.  The hyperbola's points come within 1e-12
        # of the saddle.  At the fold end of an ellipse arc cos t is
        # rounding noise, which a root solved from the discriminant divides.
        problem = TwoClassProblem(class1=GaussianParams([0.0, 0.0], sigma1), class2=GaussianParams([0.0, 0.0], sigma2))
        diag_problem, alpha, beta, gamma = _diagonal_score(problem)
        assert not beta.any()
        near = gamma + np.outer([-1.0, 1.0], [1e-12, 1e-9, 1e-6]).ravel()
        h = np.union1d(default_h_grid(problem, 801), near if alpha[0] * alpha[1] < 0.0 else [])
        x = h - gamma
        for label, params in ((1, diag_problem.class1), (2, diag_problem.class2)):
            a, b = alpha * np.diag(params.sigma)
            z = (b - a) * x / (4.0 * abs(a * b))
            scale = np.exp(-(a + b) * x / (4.0 * a * b)) / (2.0 * np.sqrt(abs(a * b)))
            if a * b > 0.0:
                ref = np.where(x > 0.0, scale * np.exp(np.abs(z)) * i0e(z), 0.0)
            else:
                ref = scale * np.exp(-np.abs(z)) * k0e(np.abs(z)) / np.pi
            got = marginal_density(h, label, problem).density
            fin = np.isfinite(ref)
            big = fin & (ref > 1e-8 * ref[fin].max())
            assert big.sum() > 400
            assert np.abs(got[big] / ref[big] - 1.0).max() <= 1e-12

    # sigma2[1, 1] = 1 + eps keeps the precision difference rank one: each
    # of these came back all zero with error 0 when d2 rounded below zero
    @pytest.mark.parametrize("eps", [0.1, 1e-10, 1e-7, 1e-5, 1e-3])
    def test_parabolic_score_has_unit_mass_and_ratio_law(self, eps):
        problem = TwoClassProblem(
            class1=NEAR_PARABOLA.class1,
            class2=GaussianParams([0.0, 0.0], [[1.0, 0.2], [0.2, 1.0 + eps]]),
        )
        grid_h = default_h_grid(problem)
        g1 = marginal_density(grid_h, 1, problem)
        g2 = marginal_density(grid_h, 2, problem)
        assert g1.integral() == pytest.approx(1.0, abs=1e-3)
        assert g2.integral() == pytest.approx(1.0, abs=1e-3)
        mask = (g1.density > 1e-8) & (g2.density > 1e-8)
        assert mask.sum() > 100
        ratio = g1.density[mask] / (np.exp(grid_h[mask]) * g2.density[mask])
        assert np.abs(ratio - 1.0).max() < 1e-6

    def test_level_curves_keep_their_mass_where_the_class_sees_a_short_arc(self):
        # An ellipse whose class-1 arc is a sliver of a curve far from its
        # axis, and a parabola whose linear partner moves fast along it: the
        # quadrature must not miss the class's part of either curve.
        ellipse = TwoClassProblem(
            class1=GaussianParams([0.0, 0.0], np.eye(2)),
            class2=GaussianParams([8.94, 111.6], np.diag([0.406, 0.0275])),
        )
        grid_h = default_h_grid(ellipse)
        assert marginal_density(grid_h, 1, ellipse).integral() == pytest.approx(1.0, abs=1e-5)
        parabola = TwoClassProblem(
            class1=GaussianParams([0.0, 0.0], np.eye(2)),
            class2=GaussianParams([0.0, 0.025], np.diag([2.0, 1.0])),
        )
        grid_h = default_h_grid(parabola)
        for label in (1, 2):
            assert marginal_density(grid_h, label, parabola).integral() == pytest.approx(1.0, abs=1e-3)

    def test_ellipse_vertex_is_the_limit_from_inside(self):
        # At the vertex the level curve shrinks to the axis point, and the
        # density is its limit pi pdf(axis point) / sqrt|alpha_0 alpha_1|.
        problem = TwoClassProblem(
            class1=GaussianParams([0.3, 0.1], np.eye(2)),
            class2=GaussianParams([0.0, 0.0], np.diag([0.5, 0.4])),
        )
        vertex = support_h_range(problem)[0]
        for label, limit in ((1, 0.67258859), (2, 1.65935811)):
            grid = marginal_density([vertex - 1e-12, vertex, vertex + 1e-12], label, problem)
            assert grid.density[0] == 0.0
            assert grid.density[1] == pytest.approx(limit, abs=1e-8)
            assert grid.density[1] == pytest.approx(grid.density[2], rel=1e-6)

    def test_three_features_are_a_contract_error(self):
        problem = TwoClassProblem(
            class1=GaussianParams(np.zeros(3), np.eye(3)),
            class2=GaussianParams(np.ones(3), 2.0 * np.eye(3)),
        )
        with pytest.raises(ContractError):
            marginal_density([0.0, 1.0], 1, problem)

    def test_scores_that_are_not_1d_are_a_contract_error(self, counterexample_problem, monkeypatch):
        def must_not_run(problem):
            raise AssertionError("the diagonal form was built for a malformed grid")

        monkeypatch.setattr(llrdist, "_diagonal_score", must_not_run)
        for h in (0.5, [[0.0, 1.0], [2.0, 3.0]]):
            with pytest.raises(ContractError, match="1-D"):
                marginal_density(h, 1, counterexample_problem)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(spd_problems())
    def test_random_spd_pairs_follow_the_ratio_law_and_have_unit_mass(self, problem):
        try:
            diag_problem, alpha, beta, gamma = _diagonal_score(problem)
        except ContractError:
            assume(False)  # equal classes: the score is a constant
        squares = alpha != 0.0
        lo_sup, hi_sup = support_h_range(problem)
        # tanh-sinh nodes, which crowd double-exponentially toward both ends
        # of a panel, and their weights on a panel of unit length
        tau = np.linspace(-3.0, 3.0, 61)
        u = 0.5 * np.pi * np.sinh(tau)
        nodes, weights = expit(2.0 * u), 0.25 * np.pi * np.cosh(tau) / np.cosh(u) ** 2
        for label, params in ((1, diag_problem.class1), (2, diag_problem.class2)):
            mean, var = score_moments(problem, label)
            lo = max(mean - 12.0 * np.sqrt(var), lo_sup)
            hi = min(mean + 12.0 * np.sqrt(var), hi_sup)
            # The density is singular, or can peak far more narrowly than the
            # score deviation, at the score of the axis point of each square
            # term with the other coordinate on its axis or at its class mean
            # (the vertex or saddle of the conic, and the near-vertices of a
            # parabola or a nearly parabolic conic).  Panels end there and at
            # the mean, so every peak sits at a panel end.
            axis = np.where(squares, -0.5 * beta / np.where(squares, alpha, 1.0), params.mu)
            peaks = [axis, [axis[0], params.mu[1]], [params.mu[0], axis[1]]]
            peak_scores = [alpha @ np.square(y) + beta @ y + gamma for y in peaks]
            edges = np.unique(np.clip([lo, mean, hi, *peak_scores], lo, hi))
            width = np.diff(edges)[:, None]
            h = edges[:-1, None] + width * nodes
            grid, index = np.unique(h, return_inverse=True)
            f1, f2 = (marginal_density(grid, c, problem).density[index].reshape(h.shape) for c in (1, 2))
            both = np.isfinite(f1) & np.isfinite(f2) & (f1 > 1e-8) & (f2 > 1e-8)
            assert np.all(np.abs(f1[both] / (np.exp(h[both]) * f2[both]) - 1.0) <= 1e-6)
            # a node that rounds onto a saddle value has an infinite density
            # and a weight below 1e-12 of its panel: it counts as 0
            f = (f1, f2)[label - 1]
            mass = np.sum(np.trapezoid(np.where(np.isfinite(f), f, 0.0) * width * weights, tau))
            assert mass == pytest.approx(1.0, abs=1e-3)

    def test_single_tailed_counterexample(self, counterexample_problem):
        lo, hi = support_h_range(counterexample_problem)
        grid_h = np.concatenate([np.linspace(lo - 2.0, lo - 0.01, 40), default_h_grid(counterexample_problem, 401)])
        g2 = marginal_density(grid_h, 2, counterexample_problem)
        below = grid_h < lo
        assert np.all(g2.density[below] == 0.0)
        # mass decays on one side only: large positive density just above the
        # edge, vanishing far out in the single exponential-like tail
        just_above = g2.density[np.searchsorted(grid_h, lo + 0.01)]
        assert just_above > 0.5
        assert g2.density[-1] < 1e-6

    def test_density_ratio_identity(self, counterexample_problem):
        grid_h = default_h_grid(counterexample_problem, 401)
        g1 = marginal_density(grid_h, 1, counterexample_problem)
        g2 = marginal_density(grid_h, 2, counterexample_problem)
        mask = (g1.density > 1e-8) & (g2.density > 1e-8)
        assert mask.sum() > 100
        ratio = g1.density[mask] / (np.exp(grid_h[mask]) * g2.density[mask])
        assert np.abs(ratio - 1.0).max() < 1e-6

    def test_ks_against_simulated_scores(self, counterexample_problem):
        n = 10_000
        rng = SeededRng(707)
        grid_h = default_h_grid(counterexample_problem, 801)
        for label, params in ((1, counterexample_problem.class1), (2, counterexample_problem.class2)):
            x = mvn_sample(params, n, rng.derive(label))
            s = llr_scores(x, counterexample_problem)
            gh = grid_h
            if s.min() <= gh[0]:
                gh = np.concatenate([[s.min() - 1e-9], gh])
            if s.max() >= gh[-1]:
                gh = np.concatenate([gh, [s.max() + 1e-9]])
            grid = marginal_density(gh, label, counterexample_problem)
            ks, _ = histogram_vs_analytic(s, grid)
            assert ks < 0.02


class TestSimdiag:
    def test_equal_matrices_give_unit_lambda(self):
        S = np.array([[2.0, 0.5], [0.5, 1.0]])
        W, lam = simdiag(S, S)
        np.testing.assert_allclose(lam, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(W.T @ S @ W, np.eye(2), atol=1e-12)

    def test_counterexample_reconstruction(self, counterexample_problem):
        s1 = counterexample_problem.class1.sigma
        s2 = counterexample_problem.class2.sigma
        W, lam = simdiag(s1, s2)
        assert np.abs(W.T @ s1 @ W - np.eye(2)).max() < 1e-10
        assert np.abs(W.T @ s2 @ W - np.diag(lam)).max() < 1e-10
        assert np.all(np.diff(lam) <= 0)

    def test_random_spd_pairs(self):
        rng = np.random.default_rng(41)
        for dim in (2, 3, 5, 8):
            A = rng.normal(size=(dim, dim))
            B = rng.normal(size=(dim, dim))
            s1 = A @ A.T + dim * np.eye(dim)
            s2 = B @ B.T + dim * np.eye(dim)
            W, lam = simdiag(s1, s2)
            assert np.abs(W.T @ s1 @ W - np.eye(dim)).max() < 1e-9
            assert np.abs(W.T @ s2 @ W - np.diag(lam)).max() < 1e-9
            assert np.all(lam > 0)


class TestTransformProblem:
    def test_decisions_identical(self, counterexample_problem):
        diag = transform_problem(counterexample_problem)
        rng = np.random.default_rng(42)
        x = rng.normal(loc=1.2, scale=1.3, size=(10_000, 2))
        s_orig = llr_scores(x, counterexample_problem)
        s_diag = llr_scores(diag.map_points(x), diag.problem)
        np.testing.assert_array_equal(np.sign(s_orig - 0.0) > 0, np.sign(s_diag - 0.0) > 0)
        assert np.abs(s_orig - s_diag).max() < 1e-10

    def test_marginal_invariance(self, counterexample_problem):
        diag = transform_problem(counterexample_problem)
        grid_h = default_h_grid(counterexample_problem, 301)
        for label in (1, 2):
            a = marginal_density(grid_h, label, counterexample_problem)
            b = marginal_density(grid_h, label, diag.problem)
            assert np.abs(a.density - b.density).max() < 1e-6

    def test_identity_covariances_already_diagonal(self):
        problem = TwoClassProblem(
            class1=GaussianParams([1.0, 0.0], np.eye(2)),
            class2=GaussianParams([0.0, 1.0], np.eye(2)),
        )
        diag = transform_problem(problem)
        np.testing.assert_allclose(diag.lam, [1.0, 1.0], atol=1e-12)
        W = diag.transform
        np.testing.assert_allclose(W @ W.T, np.eye(2), atol=1e-12)


# One problem per kind of level curve that marginal_density integrates along.
CONICS = {
    "ellipse": TwoClassProblem(
        class1=GaussianParams([0.3, 0.1], np.eye(2)),
        class2=GaussianParams([0.0, 0.0], np.diag([0.5, 0.4])),
    ),
    "hyperbola": SADDLE,
    "parabola": TwoClassProblem(
        class1=GaussianParams([0.0, 0.0], np.eye(2)),
        class2=GaussianParams([0.0, 0.025], np.diag([2.0, 1.0])),
    ),
    "lone square": TwoClassProblem(
        class1=GaussianParams([0.0, 0.01], np.eye(2)),
        class2=GaussianParams([-0.01, 0.0], np.linalg.inv(np.eye(2) + 0.5 * np.ones((2, 2)))),
    ),
}


def _clear_diagonal_caches():
    llrdist._diagonal_score.cache_clear()
    llrdist._class_frames.cache_clear()


def _tabulate(problem, chunk=37):
    """default_h_grid plus its saddle value, tabulated per class in chunks:
    the bytes of every density and est_error."""
    h = np.union1d(default_h_grid(problem, 201), [0.0])
    return [
        getattr(marginal_density(h[c:c + chunk], label, problem), field).tobytes()
        for label in (1, 2)
        for c in range(0, h.size, chunk)
        for field in ("density", "est_error")
    ]


class TestDiagonalFormCache:
    def test_one_simultaneous_diagonalization_per_problem(self, monkeypatch):
        calls = []

        def counting_simdiag(sigma1, sigma2):
            calls.append(1)
            return simdiag(sigma1, sigma2)

        monkeypatch.setattr(llrdist, "simdiag", counting_simdiag)
        for problem in CONICS.values():
            # a fresh problem of equal values is a cold cache entry
            fresh = TwoClassProblem(class1=problem.class1, class2=problem.class2)
            _tabulate(fresh)
            support_h_range(fresh)
        assert len(calls) == len(CONICS)

    def test_cached_coefficients_are_read_only(self):
        _, alpha, beta, _ = _diagonal_score(CONICS["ellipse"])
        for arr in (alpha, beta):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_warm_cache_results_are_bitwise_cold_results(self):
        cold = {}
        for name, problem in CONICS.items():
            _clear_diagonal_caches()
            cold[name] = _tabulate(problem)
        # the hyperbola's grid holds its saddle value, where the density is infinite
        assert np.float64(np.inf).tobytes() in b"".join(cold["hyperbola"])
        for problem in CONICS.values():
            _tabulate(problem)
        for name, problem in CONICS.items():
            assert _tabulate(problem) == cold[name], name

    def test_equal_problems_each_get_their_own_form(self):
        ellipse = CONICS["ellipse"]
        problems = [TwoClassProblem(class1=ellipse.class1, class2=ellipse.class2) for _ in range(2)]
        problems.append(CONICS["hyperbola"])
        forms = [_diagonal_score(p) for p in problems]
        assert forms[0][0] is not forms[1][0]
        for p, form in zip(problems, forms):
            diag = transform_problem(p)
            np.testing.assert_array_equal(form[0].class2.sigma, diag.problem.class2.sigma)
            np.testing.assert_array_equal(form[0].class2.mu, diag.problem.class2.mu)
        assert not np.array_equal(forms[0][1], forms[2][1])


class TestDensityBytes:
    """sha256 of every density and est_error byte, per branch of
    marginal_density, so a faster evaluation has to give the same grids."""

    # equal covariances: no square term, the closed-form normal branch
    LINEAR = TwoClassProblem(
        class1=GaussianParams([1.0, 0.5], [[1.0, 0.3], [0.3, 2.0]]),
        class2=GaussianParams([0.2, -0.1], [[1.0, 0.3], [0.3, 2.0]]),
    )

    MARGINAL_DIGESTS = {
        "ellipse": "7ece9baf3dd4a3e0cbae0ee77028ad0da4aef899aada822f87ec2bb0a6d3b3cf",
        "hyperbola": "6dabee49a2e73668adcccdc03c402128d9b734e10b203de12f2de0891a3cd541",
        "parabola": "58b00d5d1ed7f76d356b8442a43b62ed851d3da5d23bc282b579958cc9103b96",
        "lone square": "dec02e7e8b966b0e95235fd220f38c34785356e6591b22b3c74b1212a1046b06",
        "linear": "3b1702f0a11397ce3421e620e7587d22f8cc0fb565eb4c391705682f90f28263",
    }

    @pytest.mark.parametrize("name", list(MARGINAL_DIGESTS))
    def test_marginal_density_bytes(self, name):
        # the 801-point default grid, the score 0 (the hyperbola's saddle
        # value) and the finite support end (the ellipse's and the lone
        # square term's vertex)
        problem = CONICS.get(name, self.LINEAR)
        ends = [h for h in support_h_range(problem) if np.isfinite(h)]
        h = np.union1d(default_h_grid(problem, 801), [0.0, *ends])
        sha = hashlib.sha256()
        for label in (1, 2):
            grid = marginal_density(h, label, problem)
            sha.update(grid.density.tobytes())
            sha.update(grid.est_error.tobytes())
        assert sha.hexdigest() == self.MARGINAL_DIGESTS[name]

    def test_joint_density_bytes(self, counterexample_problem):
        # non-diagonal class models, both roots and the support edge
        h, x1 = np.meshgrid(np.linspace(-3.0, 9.0, 61), np.linspace(-2.0, 5.0, 57))
        geom = score_geometry(counterexample_problem)
        sha = hashlib.sha256()
        for params in (counterexample_problem.class1, counterexample_problem.class2):
            sha.update(_joint_values(h, x1, params, geom).tobytes())
        assert sha.hexdigest() == "ef44e09f63804cbf85d370c4550834638e8b7082df0707a5747ff88fd6521991"


def four_point_density(h, label, problem):
    """f(h | class) from the class density at level-curve points, scored as
    rows of an (m, 2) array (``mvn_logpdf_array``) in the diagonal frame and
    integrated by adaptive_gk_rows on arcs of its own: an ellipse's four
    points over t in [0, pi/2], a hyperbola's from its vertex t = 0 until
    every point is 14 class deviations out, and a parabola's one point per
    y_u, unfolded, on each stretch of the curve inside both class windows.
    Each arc ends at a fold or where the class density is negligible.  No
    grid value may be a saddle value."""
    diag_problem, alpha, beta, gamma = _diagonal_score(problem)
    params = (diag_problem.class1, diag_problem.class2)[label - 1]
    mean, sd = params.mu, np.sqrt(np.diag(params.sigma))
    h = np.asarray(h, dtype=float)

    def pdf_sum(points):
        # the class density at points (y_0, y_1) of one shape, summed over them
        shape = points[0][0].shape
        rows = np.concatenate([np.stack([y0.ravel(), y1.ravel()], axis=1) for y0, y1 in points])
        return np.exp(mvn_logpdf_array(rows, params)).reshape(len(points), *shape).sum(axis=0)

    if np.count_nonzero(alpha) == 1:
        u = int(np.flatnonzero(alpha)[0])
        v = 1 - u
        # h = a (y_u - c)^2 + b y_v + base puts y_v inside its class window
        # for rho_lo <= |y_u - c| <= rho_hi: one stretch through the axis
        # (rho_lo = 0) or one on each side of it, the rows i and n + i
        a, b, c = alpha[u], beta[v], -0.5 * beta[u] / alpha[u]
        ends = (h[:, None] - (gamma - a * c * c) - b * (mean[v] + np.array([-14.0, 14.0]) * sd[v])) / a
        rho_lo, rho_hi = np.sqrt(np.maximum(np.sort(ends, axis=1), 0.0)).T
        through = rho_lo == 0.0
        lo = np.concatenate([c - rho_hi, c + rho_lo])
        hi = np.concatenate([np.where(through, c + rho_hi, c - rho_lo), np.where(through, c, c + rho_hi)])
        lo = np.maximum(lo, mean[u] - 14.0 * sd[u])
        hi = np.maximum(lo, np.minimum(hi, mean[u] + 14.0 * sd[u]))

        def parabola(i, y):
            y_v = (h[i % h.size, None] - gamma - y * (a * y + beta[u])) / b
            return pdf_sum([(y, y_v) if u == 0 else (y_v, y)]) / abs(b)

        value = adaptive_gk_rows(parabola, lo, hi)[0]
        return value[: h.size] + value[h.size :]

    center = -0.5 * beta / alpha
    k = h - (gamma - alpha @ center**2)
    r = np.sqrt(np.abs(k[:, None] / alpha))
    if alpha[0] * alpha[1] > 0.0:
        odd, even = np.sin, np.cos
        is_odd = np.broadcast_to([True, False], r.shape)
        end = np.where(k / alpha[0] > 0.0, 0.5 * np.pi, 0.0)
    else:
        odd, even = np.sinh, np.cosh
        # the coordinate whose square term has the sign of -k takes sinh
        is_odd = (alpha * k[:, None]) < 0.0
        # one coordinate this far from the axis puts all four points out
        ratio = (np.abs(center - mean) + 14.0 * sd) / r
        end = np.where(is_odd, np.arcsinh(ratio), np.arccosh(np.maximum(ratio, 1.0))).min(axis=1)

    def conic(i, t):
        d0, d1 = (r[i, j, None] * np.where(is_odd[i, j, None], odd(t), even(t)) for j in (0, 1))
        points = [(center[0] + s0 * d0, center[1] + s1 * d1) for s0 in (1.0, -1.0) for s1 in (1.0, -1.0)]
        return pdf_sum(points) * (0.5 / np.sqrt(abs(alpha[0] * alpha[1])))

    return adaptive_gk_rows(conic, np.zeros(h.size), end)[0]


class TestLevelCurveIntegrand:
    @pytest.mark.parametrize("name", ["ellipse", "hyperbola", "parabola"])
    def test_matches_the_curve_points_scored_as_2d_rows(self, name):
        # marginal_density multiplies per-coordinate mirror pairs in class
        # standard units; the oracle scores every point as a 2-D row
        problem = CONICS[name]
        _, alpha, beta, gamma = _diagonal_score(problem)
        h = default_h_grid(problem, 401)
        if name == "hyperbola":
            saddle = gamma - alpha @ (-0.5 * beta / alpha) ** 2
            near = saddle + np.outer([-1.0, 1.0], [1e-12, 1e-9, 1e-6]).ravel()
            h = np.union1d(h[h != saddle], near)
        for label in (1, 2):
            got = marginal_density(h, label, problem).density
            ref = four_point_density(h, label, problem)
            big = ref > 1e-8 * ref.max()
            assert big.sum() > 100
            assert np.abs(got[big] / ref[big] - 1.0).max() <= 1e-13


class TestHistogramVsAnalytic:
    def test_self_consistency_by_inverse_cdf_sampling(self, counterexample_problem):
        grid_h = default_h_grid(counterexample_problem, 801)
        grid = marginal_density(grid_h, 2, counterexample_problem)
        cdf = grid.cdf_values()
        cdf = cdf / cdf[-1]
        u = SeededRng(808).uniforms(10_000)
        samples = np.interp(u, cdf, grid.h_values)
        ks, hist = histogram_vs_analytic(samples, grid)
        assert ks < 0.02
        assert 20 <= hist.counts.size <= 200

    def test_wrong_class_scores_have_large_ks(self, counterexample_problem):
        grid_h = default_h_grid(counterexample_problem, 401)
        g2 = marginal_density(grid_h, 2, counterexample_problem)
        x = mvn_sample(counterexample_problem.class1, 10_000, SeededRng(809))
        s = llr_scores(x, counterexample_problem)
        gh = np.concatenate([grid_h, [s.max() + 1.0]]) if s.max() >= grid_h[-1] else grid_h
        g2w = marginal_density(gh, 2, counterexample_problem)
        ks, _ = histogram_vs_analytic(s, g2w)
        assert ks > 0.3

    def test_non_finite_scores_are_a_contract_error(self, counterexample_problem):
        grid = marginal_density(np.linspace(-2.0, 3.0, 64), 2, counterexample_problem)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ContractError, match="finite"):
                histogram_vs_analytic(np.array([0.5, bad, 1.0]), grid)

    def test_coverage_error(self, counterexample_problem):
        grid_h = np.linspace(0.0, 1.0, 64)
        grid = marginal_density(grid_h, 2, counterexample_problem)
        with pytest.raises(ContractError):
            histogram_vs_analytic(np.array([-1.0, 0.5, 2.0]), grid)

    def test_freedman_diaconis_clamp(self):
        rng = np.random.default_rng(1)
        assert freedman_diaconis_bins(rng.normal(size=10)) == 20
        assert freedman_diaconis_bins(rng.normal(size=2_000_000)) == 200


class TestAdaptiveGk:
    def test_simple_integral(self):
        # exp(cos t) is even about both ends of [0, pi], so the trapezoid
        # rule converges geometrically: 16 steps agree with 8, and the one
        # call on the 17 nodes of both levels is the only one
        calls = []

        def f(t):
            calls.append(t)
            return np.exp(np.cos(t))

        val, err, ok = adaptive_gk(f, 0.0, np.pi)
        assert ok
        assert val == pytest.approx(np.pi * i0(1.0), rel=1e-14)
        assert err < 1e-9
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.pi * (np.arange(17) / 16))

    def test_budget_exhaustion_is_flagged(self):
        evals = []

        def spike(x):
            evals.append(x.size)
            return np.abs(x) ** -0.95

        with np.errstate(divide="ignore"):
            val, err, ok = adaptive_gk(spike, 0.0, 1.0)
        assert not ok
        assert err > 1e-9
        assert sum(evals) <= _MAX_EVALS

    def test_unequal_end_slopes_run_out_of_budget(self):
        # sin on [0, pi] has end slopes 1 and -1: the error falls only as the
        # squared step, so the finest level within the budget is still
        # 3/4 h^2 / 6 ~ 2e-8 from the one before
        evals = []

        def sine(x):
            evals.append(x.size)
            return np.sin(x)

        val, err, ok = adaptive_gk(sine, 0.0, np.pi)
        assert not ok
        assert 1e-9 < err < 1e-7
        assert val == pytest.approx(2.0, abs=1e-7)
        assert sum(evals) <= _MAX_EVALS < sum(evals) + 2 * evals[-1]

    def test_peak_needs_more_than_one_level(self):
        calls = []

        def peak(x):
            calls.append(x.size)
            return np.exp(-0.5 * ((x - 0.3) / 0.1) ** 2) / (0.1 * np.sqrt(2.0 * np.pi))

        val, err, ok = adaptive_gk(peak, -1.0, 1.0)
        assert ok
        assert len(calls) >= 2
        assert val == pytest.approx(ndtr(7.0) - ndtr(-13.0), rel=1e-12)

    def test_empty_interval(self):
        assert adaptive_gk(np.exp, 1.0, 1.0) == (0.0, 0.0, True)

    def test_rows_match_their_one_row_runs(self):
        # Centred peaks of three widths, each negligible at the ends of
        # [-1, 1], a spike that is infinite at an end node, the sine that
        # exhausts the budget and two rows even about both ends of [0, pi],
        # exp(cos t), which converges at 16 steps, and exp(8 cos t), in one
        # batch: each row leaves at its own level, and no row sees another.
        sds = (0.1, 0.03, 0.003)

        def peak(sd):
            return lambda x: np.exp(-0.5 * (x / sd) ** 2) / (sd * np.sqrt(2.0 * np.pi))

        funcs = [peak(sd) for sd in sds] + [lambda x: np.abs(x) ** -0.95, np.sin]
        funcs += [lambda x: np.exp(np.cos(x)), lambda x: np.exp(8.0 * np.cos(x))]
        a = np.array([-1.0, -1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
        b = np.array([1.0, 1.0, 1.0, 1.0, np.pi, np.pi, np.pi])
        calls, seen = [], [[] for _ in funcs]

        def batch(rows, x):
            calls.append(list(rows))
            for r, xr in zip(rows, x):
                seen[r].append(xr)
            return np.stack([funcs[r](xr) for r, xr in zip(rows, x)])

        with np.errstate(divide="ignore"):
            values, errors, converged = adaptive_gk_rows(batch, a, b)
            for i, f in enumerate(funcs):
                assert (values[i], errors[i], converged[i]) == adaptive_gk(f, a[i], b[i])
        assert list(converged) == [True, True, True, False, False, True, True]
        assert errors[3] == np.inf and np.isfinite(errors[4])
        for sd, value in zip(sds, values):
            assert value == pytest.approx(ndtr(1.0 / sd) - ndtr(-1.0 / sd), rel=1e-9)
        assert values[5:] == pytest.approx(np.pi * i0([1.0, 8.0]), rel=1e-14)
        # each level evaluates new midpoints only: no abscissa comes twice
        for xs in seen:
            x = np.concatenate(xs)
            assert np.unique(x).size == x.size
        # the first call covers two levels, after which the spike and
        # exp(cos t) leave; converged rows leave, and the last levels refine
        # the sine alone
        assert calls[0] == [0, 1, 2, 3, 4, 5, 6] and [len(xs[0]) for xs in seen] == [17] * 7
        assert 3 not in calls[1] and 5 not in calls[1] and 6 in calls[1] and calls[-1] == [4]
        assert all(set(later) <= set(earlier) for earlier, later in zip(calls, calls[1:]))


class TestDensityGridAndRoc:
    def test_csv_round_trip(self, counterexample_problem):
        grid = marginal_density(np.linspace(-2.0, 3.0, 16), 1, counterexample_problem)
        text = grid.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "h,density,est_error,class"
        for i, line in enumerate(lines[1:]):
            h, d, e, c = line.split(",")
            assert float(h) == grid.h_values[i]
            assert float(d) == grid.density[i]
            assert float(e) == grid.est_error[i]
            assert int(c) == 1

    def test_grid_validation(self):
        with pytest.raises(ContractError):
            DensityGrid(np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.zeros(2), 1)
        with pytest.raises(ContractError):
            DensityGrid(np.array([0.0, 1.0]), np.array([-1.0, 1.0]), np.zeros(2), 1)
        with pytest.raises(ContractError):
            DensityGrid(np.array([0.0, 1.0]), np.array([1.0, 1.0]), np.zeros(2), 7)

    def test_grid_rejects_nan_but_keeps_infinite_densities(self):
        with pytest.raises(ContractError, match="non-negative"):
            DensityGrid(np.array([0.0, 1.0, 2.0]), np.array([1.0, np.nan, 1.0]), np.zeros(3), 1)
        for h in ([0.0, np.nan, 2.0], [np.nan, 1.0, 2.0], [0.0, 1.0, np.nan]):
            with pytest.raises(ContractError, match="increasing"):
                DensityGrid(np.array(h), np.ones(3), np.zeros(3), 1)
        for bad in (np.nan, -1e-300):
            with pytest.raises(ContractError, match="error estimates"):
                DensityGrid(np.array([0.0, 1.0, 2.0]), np.ones(3), np.array([0.0, bad, 0.0]), 1)
        # a saddle or vertex score has an infinite density and est_error
        grid = DensityGrid(np.array([0.0, 1.0, 2.0]), np.array([0.5, np.inf, 0.5]), np.array([0.0, np.inf, 0.0]), 2)
        assert grid.density[1] == np.inf and grid.est_error[1] == np.inf

    def test_density_roc_matches_binormal_model(self, equal_cov_problem):
        from llrlab import binormal_auc, normal_deviate_fit, trapezoid_auc

        dsq = 0.8
        d = np.sqrt(dsq)
        # integration grid must cover the tails; the emitted thresholds are
        # banded so every operating point stays resolvable on the grid
        h = np.linspace(-dsq / 2 - 12 * d, dsq / 2 + 12 * d, 4001)
        g1 = marginal_density(h, 1, equal_cov_problem)
        g2 = marginal_density(h, 2, equal_cov_problem)
        curve = density_roc(g1, g2, band=(-dsq / 2 - 3 * d, dsq / 2 + 3 * d))
        fit = normal_deviate_fit(curve)
        assert fit.b == pytest.approx(1.0, abs=1e-4)
        assert fit.a == pytest.approx(d, abs=1e-4)
        assert fit.residual < 1e-9
        assert trapezoid_auc(curve) == pytest.approx(binormal_auc(d, 1.0), abs=1e-5)

    def test_counterexample_curve_is_not_binormal(self, counterexample_problem):
        from llrlab import normal_deviate_fit

        grid_h = default_h_grid(counterexample_problem, 801)
        g1 = marginal_density(grid_h, 1, counterexample_problem)
        g2 = marginal_density(grid_h, 2, counterexample_problem)
        curve = density_roc(g1, g2, band=(-2.4, 8.0))
        fit = normal_deviate_fit(curve)
        # the deviate plot is visibly curved: the fit residual is orders of
        # magnitude above the exact-binormal regime (< 1e-9)
        assert fit.residual > 0.01

    def test_density_roc_requires_shared_grid(self, counterexample_problem):
        g1 = marginal_density(np.linspace(-2, 3, 16), 1, counterexample_problem)
        g2 = marginal_density(np.linspace(-2, 4, 16), 2, counterexample_problem)
        with pytest.raises(ContractError):
            density_roc(g1, g2)


def test_marginal_against_quadpack_oracle(counterexample_problem):
    # independent integration route: QUADPACK on the raw branch-sum integrand
    # in x1, over each support interval cut to 12 sigma of the class's x1
    from scipy.integrate import quad

    probes = (
        (counterexample_problem, [-2.0, -1.0, 0.0, 1.5, 4.0]),
        (NEAR_PARABOLA, [-3.0, -1.0, 0.0, 1.0, 3.0]),
        # away from the saddle value 0, where the density has a log singularity
        (SADDLE, [-6.0, -2.5, -1.0, 1.0, 2.5, 6.0]),
    )
    for problem, h_probe in probes:
        geom = score_geometry(problem)
        params = problem.class2
        m, s = params.mu[0], np.sqrt(params.sigma[0, 0])
        mine = marginal_density(h_probe, 2, problem)
        for h, value in zip(h_probe, mine.density):
            ref = 0.0
            for lo, hi in support_region(h, problem).intervals:
                lo, hi = max(lo, m - 12.0 * s), min(hi, m + 12.0 * s)
                if lo < hi:
                    ref += quad(
                        lambda x1: float(_joint_values(h, x1, params, geom)),
                        lo,
                        hi,
                        limit=400,
                        epsabs=1e-12,
                        epsrel=1e-10,
                    )[0]
            assert value > 1e-6
            assert value == pytest.approx(ref, rel=1e-6)


def test_score_geometry_polynomial_matches_score(counterexample_problem):
    geom = score_geometry(counterexample_problem)
    rng = np.random.default_rng(50)
    pts = rng.normal(loc=1.0, scale=1.5, size=(200, 2))
    scores = llr_scores(pts, counterexample_problem)
    poly = (
        geom.a2 * pts[:, 1] ** 2
        + geom.b_at(pts[:, 0]) * pts[:, 1]
        + geom.c_at(pts[:, 0])
    )
    assert np.abs(scores - poly).max() < 1e-10


def test_marginal_points_are_independent_of_the_batch(counterexample_problem):
    # An ellipse, a hyperbola, a parabola and a lone square term, each grid
    # with the score 0 and the finite support ends: the ellipse's vertex, the
    # hyperbola's saddle value 0 and the lone square term's vertex.
    lone_square = TwoClassProblem(
        class1=GaussianParams([0.0, 0.0], np.eye(2)),
        class2=GaussianParams([0.0, 0.0], np.diag([2.0, 1.0])),
    )
    for problem in (counterexample_problem, SADDLE, NEAR_PARABOLA, lone_square):
        ends = [h for h in support_h_range(problem) if np.isfinite(h)]
        grid = np.union1d(default_h_grid(problem, 41), [0.0, *ends])
        for label in (1, 2):
            full = marginal_density(grid, label, problem)
            if problem is SADDLE:
                assert full.density[np.searchsorted(grid, 0.0)] == np.inf
            for i in range(1, grid.size):
                pair = marginal_density(grid[i - 1 : i + 1], label, problem)
                assert np.array_equal(pair.density, full.density[i - 1 : i + 1])
                assert np.array_equal(pair.est_error, full.est_error[i - 1 : i + 1])


def test_score_moments_match_simulation(counterexample_problem):
    x = mvn_sample(counterexample_problem.class1, 400_000, SeededRng(909))
    s = llr_scores(x, counterexample_problem)
    mean, var = score_moments(counterexample_problem, 1)
    assert mean == pytest.approx(s.mean(), abs=5 * s.std() / np.sqrt(s.size))
    assert var == pytest.approx(s.var(), rel=0.03)


@pytest.mark.parametrize("n_points", [-1, 0, 1])
def test_default_h_grid_needs_two_points(counterexample_problem, n_points):
    with pytest.raises(ContractError, match="at least 2"):
        default_h_grid(counterexample_problem, n_points)
    assert default_h_grid(counterexample_problem, 2).size == 2


def test_default_h_grid_shape(counterexample_problem):
    grid = default_h_grid(counterexample_problem, 301)
    lo, _ = support_h_range(counterexample_problem)
    assert grid.size == 301
    assert np.all(np.diff(grid) > 0)
    assert grid[0] > lo
    assert grid[0] - lo < 0.01
