import hashlib
import warnings

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
    llr_scores,
    marginal_density,
    mvn_sample,
    score_moments,
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
    _quadratic_roots,
    _settled,
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
        if float(geom.x2_quadratic(h, x1)[2]) > margin:
            pts.append((h, x1))
    return pts


class TestInvertLlr:
    def test_round_trip_interior(self, counterexample_problem):
        worst = 0.0
        for h, x1 in interior_points(counterexample_problem, 100, seed=31, margin=1e-4):
            roots = invert_llr(h, x1, counterexample_problem)
            assert len(roots) == 2
            for r in roots:
                worst = max(worst, abs(llr_scores([x1, r], counterexample_problem)[0] - h))
        assert worst < 1e-9

    def test_outside_support_empty(self, counterexample_problem):
        assert invert_llr(-10.0, 0.5, counterexample_problem) == []

    # (x1, h) frozen so the computed discriminant is exactly zero
    FOLD_POINT = (0.2525, -2.4217730364324623)

    def test_tangency_double_root(self, counterexample_problem):
        geom = score_geometry(counterexample_problem)
        x1, h = self.FOLD_POINT
        b, _, disc = geom.x2_quadratic(h, x1)
        assert float(disc) == 0.0
        roots = invert_llr(h, x1, counterexample_problem)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(-float(b) / (2.0 * geom.a2), rel=1e-12)

    def test_equal_covariance_single_root(self):
        sigma = np.array([[1.0, 0.3], [0.3, 2.0]])
        problem = TwoClassProblem(
            class1=GaussianParams([1.0, 0.5], sigma),
            class2=GaussianParams([0.2, -0.1], sigma),
        )
        roots = invert_llr(0.3, 0.4, problem)
        assert len(roots) == 1
        assert llr_scores([0.4, roots[0]], problem)[0] == pytest.approx(0.3, abs=1e-9)

    def test_score_depending_on_x1_only_is_degenerate(self, equal_cov_problem):
        with pytest.raises(ContractError):
            invert_llr(0.1, 0.2, equal_cov_problem)

    def test_fold_where_b_and_c_vanish_is_the_double_root_zero(self):
        # a fold where b == c == 0: the x2 quadratic is a2 x2^2, whose c/q is 0/0
        geom = score_geometry(CONCENTRIC)
        h = geom.c0 + 0.5 * (geom.c1 + 0.5 * geom.c2)
        assert [float(v) for v in geom.x2_quadratic(h, 0.5)] == [0.0, 0.0, 0.0]
        roots = invert_llr(h, 0.5, CONCENTRIC)
        assert roots == [0.0] and np.signbit(roots[0])


#: Class 1 N(0, I) against class 2 N(0, 0.2 I): every level curve is a circle.
CONCENTRIC = TwoClassProblem(
    class1=GaussianParams([0.0, 0.0], np.eye(2)),
    class2=GaussianParams([0.0, 0.0], 0.2 * np.eye(2)),
)


@pytest.mark.parametrize(
    "call",
    [
        lambda h, x1: score_geometry(CONCENTRIC).x2_quadratic(h, x1),
        lambda h, x1: joint_density(h, [0.5, x1], 1, CONCENTRIC),
        lambda h, x1: invert_llr(h, x1, CONCENTRIC),
    ],
    ids=["x2_quadratic", "joint_density", "invert_llr"],
)
def test_a_finite_x1_whose_x2_quadratic_overflows_is_a_contract_error(call):
    # c2 x1^2 overflows for |x1| above ~1e154
    with pytest.raises(ContractError, match=r"overflows a float at \(h=0, x1=1e\+200\)"):
        call(0.0, 1e200)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "call, arg",
    [
        (lambda h, x1, problem: joint_density(h, x1, 1, problem), "h"),
        (lambda h, x1, problem: joint_density(h, x1, 1, problem), "x1"),
        (lambda h, x1, problem: support_region(h, problem), "h"),
        (lambda h, x1, problem: invert_llr(h, x1, problem), "h"),
        (lambda h, x1, problem: invert_llr(h, x1, problem), "x1"),
    ],
    ids=["joint_density-h", "joint_density-x1", "support_region-h", "invert_llr-h", "invert_llr-x1"],
)
def test_non_finite_point_is_a_contract_error(counterexample_problem, call, arg, value):
    point = {"h": 0.0, "x1": 0.5, arg: value}
    with pytest.raises(ContractError, match=f"^{arg} must be finite"):
        call(problem=counterexample_problem, **point)


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


# Two scores that are linear in x2 (a2 = 0): -x2 + 1/2, and
# (x1^2 + x1 x2) / 2 + const, whose x2 slope x1 / 2 is all b1
LINEAR_SCORES = {
    "x2_slope": TwoClassProblem(GaussianParams([0.0, 0.0], np.eye(2)), GaussianParams([0.0, 1.0], np.eye(2))),
    "x1x2_slope": TwoClassProblem(
        GaussianParams([0.0, 0.0], np.eye(2)), GaussianParams([0.0, 0.0], np.linalg.inv([[2.0, 0.5], [0.5, 1.0]]))
    ),
}

# Two scores whose x2 slope is rounding noise: the classes' correlations
# differ by 2.3e-17, which is b1 against the bound sqrt(a c) of each
# precision's b; and b0 = 2.3e-37, one exact term, but 1e-38 of the score's
# scale over x2's reach
ROUNDING_SLOPES = {
    "correlation": TwoClassProblem(
        GaussianParams([0.0, 0.0], np.eye(2)),
        GaussianParams([0.0, 0.0], [[1.0, 2.34195863e-17], [2.34195863e-17, 1.0]]),
    ),
    "mean_gap": TwoClassProblem(
        GaussianParams([0.0, 0.0], [[1.0, 2.34195863e-17], [2.34195863e-17, 1.0]]),
        GaussianParams([1e-20, 0.0], [[0.5, 1.17097932e-17], [1.17097932e-17, 1.0]]),
    ),
}


class TestJointDensity:
    def test_zero_outside_support(self, counterexample_problem):
        assert joint_density(-5.0, 0.5, 1, counterexample_problem) == 0.0

    def test_fold_raises(self, counterexample_problem):
        x1, h = TestInvertLlr.FOLD_POINT
        with pytest.raises(SingularityError):
            joint_density(h, x1, 1, counterexample_problem)

    def test_linear_score_with_a_tiny_x2_coefficient_is_no_fold(self):
        # b0 + b1 x1 is ~6e-13 here: the score's x2 slope, small in x2's units
        # but not next to the terms it is formed from
        problem = TwoClassProblem(
            class1=GaussianParams([0.0, 0.0], np.eye(2)),
            class2=GaussianParams([1e-20, 0.0], [[1 / 3, -6.7e-13], [-6.7e-13, 1.0]]),
        )
        geom = score_geometry(problem)
        assert geom.kind == "linear"
        x1 = 0.2887
        h = llr_scores([x1, -2.0], problem)[0]
        b = float(geom.x2_quadratic(h, x1)[0])
        (root,) = invert_llr(h, x1, problem)
        expected = np.exp(mvn_logpdf_array([x1, root], problem.class1)[0]) / abs(b)
        assert joint_density(h, x1, 1, problem) == pytest.approx(expected, rel=1e-12)

    @staticmethod
    def _rescaled(problem, k1, k2):
        K = np.diag([k1, k2])
        c1, c2 = problem.class1, problem.class2
        return TwoClassProblem(
            GaussianParams(K @ c1.mu, K @ c1.sigma @ K), GaussianParams(K @ c2.mu, K @ c2.sigma @ K)
        )

    @pytest.mark.parametrize("k", [1e-13, 1e13])
    @pytest.mark.parametrize("name", ["counterexample", *LINEAR_SCORES])
    def test_no_unit_of_x2_moves_a_value(self, counterexample_problem, name, k):
        # x2 measured in a unit 1/k times the old one: the class densities of
        # x2 and the score's slope in x2 both scale by 1/k, so no (h, x1)
        # density moves, no point becomes a fold and no linear score turns
        # into one of x1 only
        problem = LINEAR_SCORES.get(name, counterexample_problem)
        scaled = self._rescaled(problem, 1.0, k)
        assert score_geometry(scaled).kind == score_geometry(problem).kind
        h, x1 = np.meshgrid(np.linspace(-3.0, 9.0, 13), np.linspace(-2.0, 5.0, 11))
        for label in (1, 2):
            np.testing.assert_allclose(
                joint_density(h, x1, label, scaled), joint_density(h, x1, label, problem), rtol=1e-9
            )

    @pytest.mark.parametrize("k", [1e-13, 1e13])
    @pytest.mark.parametrize("name", ["counterexample", *LINEAR_SCORES])
    def test_no_unit_of_x1_moves_a_value(self, counterexample_problem, name, k):
        # x1 measured in a unit 1/k times the old one: the density of (h, k x1)
        # is that of (h, x1) over k
        problem = LINEAR_SCORES.get(name, counterexample_problem)
        scaled = self._rescaled(problem, k, 1.0)
        assert score_geometry(scaled).kind == score_geometry(problem).kind
        h, x1 = np.meshgrid(np.linspace(-3.0, 9.0, 13), np.linspace(-2.0, 5.0, 11))
        for label in (1, 2):
            np.testing.assert_allclose(
                k * joint_density(h, k * x1, label, scaled), joint_density(h, x1, label, problem), rtol=1e-9
            )

    @pytest.mark.parametrize("offset", [(0.0, 1e3), (1e3, 0.0), (0.0, 1e12), (1.7e12, 1.7e12)])
    @pytest.mark.parametrize("name", ["counterexample", *LINEAR_SCORES])
    def test_no_origin_of_x1_or_x2_moves_the_kind(self, counterexample_problem, name, offset):
        # both class means moved by one offset: the score's shape is the same,
        # whatever rounding the far origin brings to its coefficients (at
        # (0, 1e12) the x2 slope -1 of "x2_slope" is 1e-12 of the products
        # of the means it is formed from)
        problem = LINEAR_SCORES.get(name, counterexample_problem)
        c1, c2 = problem.class1, problem.class2
        moved = TwoClassProblem(GaussianParams(c1.mu + offset, c1.sigma), GaussianParams(c2.mu + offset, c2.sigma))
        assert score_geometry(moved).kind == score_geometry(problem).kind

    @pytest.mark.parametrize("name", ROUNDING_SLOPES)
    def test_an_x2_slope_of_rounding_size_is_x1_only(self, name):
        problem = ROUNDING_SLOPES[name]
        assert score_geometry(problem).kind == "x1_only"
        with pytest.raises(ContractError, match="depends on x1 only"):
            joint_density(0.0, 1.0, 1, problem)

    def test_a_score_of_rounding_size_is_rejected_by_both_layers(self):
        # the (h, x1) layer rejects it above, and the diagonal form keeps no term
        with pytest.raises(ContractError, match="the score is constant"):
            marginal_density([0.0], 1, ROUNDING_SLOPES["correlation"])

    def test_a_root_past_the_float_range_adds_no_density(self):
        # the linear root of (x1^2 + x1 x2) / 2 + const = 1e300 at x1 = 1e-10
        # is 2e310, beyond the largest float: no density, and no warning
        problem = LINEAR_SCORES["x1x2_slope"]
        assert joint_density(1e300, 1e-10, 1, problem) == 0.0
        both = joint_density(np.array([1e300, 0.0]), np.array([1e-10, 1.0]), 1, problem)
        assert both[0] == 0.0 and both[1] == joint_density(0.0, 1.0, 1, problem) > 0.0

    def test_array_call_matches_scalar_calls(self, counterexample_problem):
        # both roots, one root's edge and points outside the support; a lone
        # row's Mahalanobis sum runs in another einsum order, so the values
        # agree to rounding, not in every bit
        h, x1 = np.meshgrid(np.linspace(-3.0, 9.0, 13), np.linspace(-2.0, 5.0, 11))
        for label in (1, 2):
            grid = joint_density(h, x1, label, counterexample_problem)
            assert grid.shape == h.shape and (grid > 0.0).any() and (grid == 0.0).any()
            scalar = [joint_density(a, b, label, counterexample_problem) for a, b in zip(h.flat, x1.flat)]
            assert all(type(v) is float for v in scalar)
            np.testing.assert_allclose(grid.ravel(), scalar, rtol=1e-14, atol=0.0)
            # a scalar h broadcasts against an array of x1
            np.testing.assert_array_equal(joint_density(h[0, 3], x1[:, 3], label, counterexample_problem), grid[:, 3])

    def test_fold_point_inside_an_array_raises(self, counterexample_problem):
        x1, h = TestInvertLlr.FOLD_POINT
        with pytest.raises(SingularityError, match=f"x1={x1:g}\\)"):
            joint_density([0.0, h, 1.0], [0.5, x1, 0.5], 1, counterexample_problem)

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
        checked = 0
        for i in range(len(h_edges) - 1):
            for j in range(len(x_edges) - 1):
                hs = np.linspace(h_edges[i], h_edges[i + 1], 33)
                xs = np.linspace(x_edges[j], x_edges[j + 1], 33)
                gh, gx = np.meshgrid(hs, xs, indexing="ij")
                disc = geom.x2_quadratic(gh, gx)[2]
                if disc.min() < 0.2:  # skip cells touching the fold
                    continue
                vals = joint_density(gh, gx, 2, counterexample_problem)
                mass = simpson(simpson(vals, x=xs, axis=1), x=hs)
                if mass * n < 50:
                    continue
                se = np.sqrt(mass * (1.0 - mass) / n)
                assert abs(counts[i, j] / n - mass) <= 3.0 * se
                checked += 1
        assert checked >= 10


class TestSupportRegion:
    def test_matches_three_digit_parabola_roots(self, counterexample_problem):
        intervals = support_region(0.0, counterexample_problem)
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert lo == pytest.approx(-0.9557, abs=2e-2)
        assert hi == pytest.approx(1.9557, abs=2e-2)

    def test_far_below_support_is_empty(self, counterexample_problem):
        assert support_region(-50.0, counterexample_problem) == ()

    def test_boundary_roots_have_tiny_residual(self, counterexample_problem):
        geom = score_geometry(counterexample_problem)
        for h in (-1.0, 0.0, 2.0, 5.0):
            for root in support_region(h, counterexample_problem)[0]:
                assert abs(float(geom.x2_quadratic(h, root)[2])) < 1e-9
        # A rank-one precision difference rounds d2 to about -7e-18, so the
        # finite endpoint is the small root -d0/d1, which the textbook
        # quadratic formula loses to cancellation.
        geom = score_geometry(NEAR_PARABOLA)
        for h, expected in ((-1.0, -0.74955), (0.0, 0.25045), (1.0, 1.25045)):
            _d2, d1, d0 = geom.discriminant_coeffs(h)
            lo = support_region(h, NEAR_PARABOLA)[0][0]
            assert lo == pytest.approx(-d0 / d1, rel=1e-9)
            assert lo == pytest.approx(expected, abs=1e-5)
            assert abs(float(geom.x2_quadratic(h, lo)[2])) < 1e-9

    def test_support_h_range_counterexample(self, counterexample_problem):
        lo, hi = support_h_range(counterexample_problem)
        assert np.isfinite(lo) and hi == np.inf
        assert support_region(lo - 1e-6, counterexample_problem) == ()
        assert support_region(lo + 1e-6, counterexample_problem) != ()
        # parabolic level curves reach every score
        assert support_h_range(NEAR_PARABOLA) == (-np.inf, np.inf)

    def assert_support_matches_joint_density(self, problem, h):
        """joint_density at h is > 0 inside each support interval and 0
        outside them, a step of 0.1 or more away from every end."""
        intervals = support_region(h, problem)
        ends = [end for interval in intervals for end in interval if np.isfinite(end)]
        for lo, hi in intervals:
            if np.isfinite(lo) and np.isfinite(hi):
                inside = lo + (hi - lo) * np.array([0.1, 0.5, 0.9])
            elif np.isfinite(lo):
                inside = lo + np.array([0.1, 1.0, 3.0])
            elif np.isfinite(hi):
                inside = hi - np.array([0.1, 1.0, 3.0])
            else:
                inside = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
            for x1 in inside:
                for label in (1, 2):
                    assert joint_density(h, x1, label, problem) > 0.0, (h, x1, label)
        outside = [end + step for end in ends for step in (-1.0, -0.1, 0.1, 1.0)]
        for x1 in outside:
            if not any(lo <= x1 <= hi for lo, hi in intervals):
                assert joint_density(h, x1, 1, problem) == 0.0, (h, x1)

    def test_conic_support_matches_joint_density(self, counterexample_problem):
        for problem, scores in ((counterexample_problem, (-1.0, 0.0, 2.0)), (SADDLE, (-1.0, 1.0))):
            for h in scores:
                self.assert_support_matches_joint_density(problem, h)

    def test_linear_score_splits_where_x2_drops_out(self):
        # equal precision entries [1, 1] but different off-diagonals: a2 = 0
        # and b1 != 0, so at x* = -b0 / b1 the score does not involve x2
        problem = TwoClassProblem(
            class1=GaussianParams([0.0, 0.0], np.linalg.inv([[1.0, 0.3], [0.3, 1.0]])),
            class2=GaussianParams([0.5, -0.5], np.linalg.inv([[1.5, -0.2], [-0.2, 1.0]])),
        )
        geom = score_geometry(problem)
        assert geom.kind == "linear" and geom.b1 != 0.0
        x_star = -geom.b0 / geom.b1
        for h in (-1.0, 0.0, 1.0):
            assert support_region(h, problem) == ((-np.inf, x_star), (x_star, np.inf))
            self.assert_support_matches_joint_density(problem, h)
            # the one x1 outside both intervals lies on the fold
            with pytest.raises(SingularityError):
                joint_density(h, x_star, 1, problem)

    def test_linear_score_whose_split_is_past_the_float_range(self):
        # b1 near 1e-300 puts x* = -b0 / b1 past 1e308: no float x1 is on the fold
        problem = TwoClassProblem(
            class1=GaussianParams([0.0, 0.0], [[1.0, -1e-300], [-1e-300, 2.0]]),
            class2=GaussianParams([0.0, 1.0], [[0.5, -5e-301], [-5e-301, 2.0]]),
        )
        geom = score_geometry(problem)
        assert geom.kind == "linear" and geom.b1 != 0.0
        for h in (-1.0, 0.0, 1.0):
            assert support_region(h, problem) == ((-np.inf, np.inf),)
            self.assert_support_matches_joint_density(problem, h)

    def test_equal_covariances_support_the_whole_line(self):
        sigma = [[1.0, 0.3], [0.3, 0.8]]
        problem = TwoClassProblem(
            class1=GaussianParams([0.0, 0.0], sigma),
            class2=GaussianParams([0.5, 1.0], sigma),
        )
        assert score_geometry(problem).kind == "linear"
        for h in (-2.0, 0.3, 2.0):
            assert support_region(h, problem) == ((-np.inf, np.inf),)
            self.assert_support_matches_joint_density(problem, h)

    def test_support_holds_every_point_where_d_is_a_line_of_tiny_slope(self):
        # D = d1 x1 + d0 with d1 = -4 a2 c1 = -1e-200: the support at the
        # score of (1, 0.5) is (-inf, 6.25e198], which holds that point
        problem = TwoClassProblem(
            class1=GaussianParams([0.0, 0.0], np.eye(2)),
            class2=GaussianParams([1e-200, 0.0], np.diag([1.0, 2.0])),
        )
        h = llr_scores([1.0, 0.5], problem)[0]
        ((lo, hi),) = support_region(h, problem)
        assert lo == -np.inf and hi == pytest.approx(6.25e198, rel=1e-12)
        assert joint_density(h, 1.0, 1, problem) > 0.0
        assert invert_llr(h, 1.0, problem) == pytest.approx([-0.5, 0.5], rel=1e-12)

    @pytest.mark.parametrize(
        "coeffs, intervals",
        [
            ((0.0, 0.0, 1.0), ((-np.inf, np.inf),)),
            ((0.0, 0.0, 0.0), ((-np.inf, np.inf),)),
            ((0.0, 0.0, -1.0), ()),
            ((1.0, 0.0, 1.0), ((-np.inf, np.inf),)),
            ((-1.0, 0.0, -1.0), ()),
            ((0.0, 2.0, -1.0), ((0.5, np.inf),)),
            ((0.0, -2.0, 1.0), ((-np.inf, 0.5),)),
            ((-1.0, 0.0, 1.0), ((-1.0, 1.0),)),
            ((1.0, 0.0, -1.0), ((-np.inf, -1.0), (1.0, np.inf))),
            # roots 0 and -1e-330, which rounds to -0: a double root in floating point
            ((1e300, 1e-30, 0.0), ((-np.inf, np.inf),)),
            # a line whose slope squares to 0 in floating point
            ((0.0, -1e-200, 1e-200), ((-np.inf, 1.0),)),
        ],
    )
    def test_quadratic_nonneg_intervals_at_exact_coefficients(self, coeffs, intervals):
        assert llrdist._quadratic_nonneg_intervals(*coeffs) == intervals


@st.composite
def spd_problems(draw):
    """A 2-D problem with covariance eigenvalues in [0.2, 5] at random
    rotations and means in [-3, 3]^2.  Some draws give class 2
    the precision of class 1 plus a rank-one term, so one diagonal
    coordinate of the score has no square: a parabola (or a lone square).
    Some put both means at the origin, so the diagonal score has no linear
    term (beta = 0).  Half the draws give class 2 the mean of class 1 plus
    10^-k, k in [20, 300], in one coordinate, where class 1's mean is 0 so
    that the difference is held: a difference far below the score's
    rounding."""

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
    if draw(st.booleans()):
        j = draw(st.integers(0, 1))
        mu1 = mean()
        mu1[j] = 0.0
        mu2 = list(mu1)
        mu2[j] = 10.0 ** -draw(st.integers(20, 300))
    elif draw(st.booleans()):
        mu1, mu2 = [0.0, 0.0], [0.0, 0.0]
    else:
        mu1, mu2 = mean(), mean()
    return TwoClassProblem(
        class1=GaussianParams(mu1, 0.5 * (sigma1 + sigma1.T)),
        class2=GaussianParams(mu2, 0.5 * (sigma2 + sigma2.T)),
    )


@settings(max_examples=60, deadline=None)
@given(spd_problems())
def test_random_spd_pairs_support_density_and_roots_agree(problem):
    """At the scores of three points of each class, off the class mean:
    each finite end of support_region is a zero of D; at the point's x1 and
    a step of 0.1 or 1 to either side of each end, invert_llr finds the x2
    roots inside an interval, each of which scores h again, and
    joint_density is positive wherever a root carries a representable class
    density; outside every interval both are empty.

    Only ends within 1e3 of the origin, far past every class window, are
    checked.  Farther ends come from a d2 or b1 near 0: at a d2 that is
    rounding noise D's sign next to the end is noise too, and at x1 near
    1e273 (b1 near 1e-273) D's terms overflow."""
    geom = score_geometry(problem)
    assume(geom.kind != "x1_only")
    n_roots = 1 if geom.kind == "linear" else 2
    classes = (problem.class1, problem.class2)
    for params in classes:
        sd = np.sqrt(np.diag(params.sigma))
        # a class mean can be the vertex or saddle point, whose x1 is a fold
        for offset in ((1.0, 0.5), (-2.0, 1.0), (0.5, -2.0)):
            point = params.mu + sd * offset
            h = llr_scores(point, problem)[0]
            intervals = support_region(h, problem)
            ends = [end for interval in intervals for end in interval if abs(end) <= 1e3]
            for end in ends:
                disc = geom.x2_quadratic(h, end)[2]
                # the size of the terms that D = b^2 - 4 a2 c sums
                scale = (abs(geom.b0) + abs(geom.b1 * end)) ** 2 + 4.0 * abs(geom.a2) * (
                    abs(geom.c0) + abs(geom.c1 * end) + abs(geom.c2) * end * end + abs(h)
                )
                assert abs(float(disc)) <= 1e-9 * scale, (h, end, float(disc), scale)
            probes = [end + step for end in ends for step in (-1.0, -0.1, 0.1, 1.0)]
            inside = [x1 for x1 in probes if any(lo <= x1 <= hi for lo, hi in intervals)]
            # D's sign is rounding at a probe that lands on another end
            outside = [x1 for x1 in probes if x1 not in inside and min(abs(x1 - end) for end in ends) >= 0.05]
            assert any(lo <= point[0] <= hi for lo, hi in intervals), (h, point, intervals)
            for x1 in [point[0], *inside]:
                roots = invert_llr(h, x1, problem)
                assert len(roots) == n_roots, (h, x1, roots)
                rows = np.array([[x1, r] for r in roots])
                logpdf = [mvn_logpdf_array(rows, p) for p in classes]
                # the score's rounding grows with the Mahalanobis terms it sums
                scale = 1.0 + np.abs(logpdf[0]) + np.abs(logpdf[1])
                assert np.all(np.abs(llr_scores(rows, problem) - h) <= 1e-9 * scale), (h, x1, roots)
                if np.sqrt(float(geom.x2_quadratic(h, x1)[2])) < 1e-12:
                    # a Jacobian below 1e-12 is the fold, even off the means
                    # of a score whose x2 coefficient is that small
                    with pytest.raises(SingularityError):
                        joint_density(h, x1, 1, problem)
                    continue
                for label in (1, 2):
                    if logpdf[label - 1].max() > -600.0:
                        assert joint_density(h, x1, label, problem) > 0.0, (h, x1, label)
            for x1 in outside:
                assert invert_llr(h, x1, problem) == [], (h, x1)
                assert joint_density(h, x1, 1, problem) == 0.0, (h, x1)


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

    @pytest.mark.parametrize("name", ["lone square", "far axis", "far axis flipped"])
    def test_lone_square_matches_noncentral_chi_square(self, name):
        # h = vertex + alpha (y_u - c)^2 with y_u ~ N(m, s^2) in the diagonal
        # frame, so (h - vertex) / (alpha s^2) is noncentral chi-square with
        # one degree of freedom and noncentrality ((m - c) / s)^2.  The axis
        # of the CONICS lone square runs through both classes, so both roots
        # carry density; the far axis is about 300 class deviations out, with
        # alpha > 0 and, the classes flipped, alpha < 0.
        from scipy.stats import ncx2

        far = (GaussianParams([0.0, 0.0], np.eye(2)), GaussianParams([30.0, 0.0], np.diag([0.9, 1.0])))
        problem = {
            "lone square": CONICS["lone square"],
            "far axis": TwoClassProblem(class1=far[0], class2=far[1]),
            "far axis flipped": TwoClassProblem(class1=far[1], class2=far[0]),
        }[name]
        diag_problem, alpha, beta, _ = _diagonal_score(problem)
        (u,) = np.flatnonzero(alpha)
        assert not beta[1 - u] and (alpha[u] < 0.0) == (name == "far axis flipped")
        c = -0.5 * beta[u] / alpha[u]
        vertex = [end for end in support_h_range(problem) if np.isfinite(end)][0]
        h = default_h_grid(problem, 801)
        for label, params in ((1, diag_problem.class1), (2, diag_problem.class2)):
            s2 = alpha[u] * params.sigma[u, u]
            noncentrality = (params.mu[u] - c) ** 2 / params.sigma[u, u]
            ref = ncx2.pdf((h - vertex) / s2, 1, noncentrality) / abs(s2)
            got = marginal_density(h, label, problem).density
            big = ref > 1e-8 * ref.max()
            assert big.sum() > 100
            assert np.abs(got[big] / ref[big] - 1.0).max() <= 1e-12

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

    def test_parabola_with_its_axis_above_the_class_window_mirrors_the_one_below(self):
        # N((+-10, 1), diag(0.5, 1)) against N(0, I) puts the square term's
        # axis at y_0 = +-20, beyond every class window on its side: the two
        # problems are mirror images in y_0, with one score law.
        def problem(m):
            return TwoClassProblem(
                class1=GaussianParams([0.0, 0.0], np.eye(2)),
                class2=GaussianParams([m, 1.0], np.diag([0.5, 1.0])),
            )

        above, below = problem(10.0), problem(-10.0)
        grid_h = default_h_grid(above)
        np.testing.assert_array_equal(grid_h, default_h_grid(below))
        for label in (1, 2):
            g_above = marginal_density(grid_h, label, above)
            g_below = marginal_density(grid_h, label, below)
            assert g_above.integral() == pytest.approx(1.0, abs=1e-3)
            assert g_below.integral() == pytest.approx(1.0, abs=1e-3)
            np.testing.assert_array_equal(g_above.density > 0.0, g_below.density > 0.0)
            inside = g_below.density > 0.0
            assert inside.sum() > 100
            assert np.abs(g_above.density[inside] / g_below.density[inside] - 1.0).max() <= 1e-12

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
        # only the density is 2-D; class 2 is wider in every coordinate, so
        # the score is bounded above
        lo, hi = support_h_range(problem)
        assert lo == -np.inf and np.isfinite(hi)
        rng = np.random.default_rng(3)
        assert all(_numpy_scores(problem, label, 100_000, rng).max() <= hi for label in (1, 2))
        grid = default_h_grid(problem, 301)
        assert grid.size == 301 and np.all(np.diff(grid) > 0) and grid[-1] < hi
        with pytest.raises(ContractError, match="2-D"):
            marginal_density(grid, 1, problem)

    def test_scores_that_are_not_1d_are_a_contract_error(self, counterexample_problem, monkeypatch):
        def must_not_run(problem):
            raise AssertionError("the diagonal form was built for a malformed grid")

        monkeypatch.setattr(llrdist, "_diagonal_score", must_not_run)
        for h in (0.5, [[0.0, 1.0], [2.0, 3.0]]):
            with pytest.raises(ContractError, match="1-D"):
                marginal_density(h, 1, counterexample_problem)

    @settings(max_examples=20, deadline=None)
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


def _boundary_cases():
    """eps = +-1e-2 ... +-1e-14; the bound fails for |eps| of 1e-9 to 1e-11."""
    for k in range(2, 15):
        for sign in (1.0, -1.0):
            marks = []
            if 9 <= k <= 11:
                # the nearly flat square term has its axis about 1/eps class
                # deviations out, and the conic branch loses about 1e-15/eps
                # relative on its curve points (ROADMAP item 2)
                marks = [pytest.mark.xfail(strict=True, reason="far conic axis loses digits")]
            yield pytest.param(sign * 10.0**-k, marks=marks, id=f"{sign * 10.0**-k:.0e}")


@pytest.fixture(scope="module")
def parabola_reference():
    """NEAR_PARABOLA's default grid and its densities there, per class."""
    h = default_h_grid(NEAR_PARABOLA, 801)
    return h, [marginal_density(h, label, NEAR_PARABOLA).density for label in (1, 2)]


@pytest.mark.parametrize("eps", _boundary_cases())
def test_densities_are_continuous_across_the_parabolic_boundary(parabola_reference, eps):
    # eps on sigma2[0, 0] makes NEAR_PARABOLA's rank-one precision
    # difference rank two: an ellipse for eps > 0, a hyperbola for eps < 0,
    # and below |eps| ~ 1e-12 _diagonal_score snaps it back to the parabola.
    # On one fixed grid the densities move linearly in eps, by up to
    # 94 |eps| (class 1) and 70 |eps| (class 2) relative, 140 |eps| at 1e-2.
    h, reference = parabola_reference
    sigma2 = NEAR_PARABOLA.class2.sigma.copy()
    sigma2[0, 0] += eps
    problem = TwoClassProblem(class1=NEAR_PARABOLA.class1, class2=GaussianParams(NEAR_PARABOLA.class2.mu, sigma2))
    for label, ref in zip((1, 2), reference):
        got = marginal_density(h, label, problem).density
        big = ref > 1e-6 * ref.max()
        assert np.abs(got[big] / ref[big] - 1.0).max() <= 150.0 * abs(eps) + 1e-12, label


class TestTransformProblem:
    @staticmethod
    def _check(problem, tol):
        # W' sigma1 W = I and W' sigma2 W = diag(lam), lam descending
        diag = transform_problem(problem)
        W, lam = diag.transform, diag.lam
        assert np.abs(W.T @ problem.class1.sigma @ W - np.eye(problem.dim)).max() < tol
        assert np.abs(W.T @ problem.class2.sigma @ W - np.diag(lam)).max() < tol
        assert np.all(np.diff(lam) <= 0) and np.all(lam > 0)
        return lam

    def test_equal_covariances_give_unit_lambda(self):
        S = np.array([[2.0, 0.5], [0.5, 1.0]])
        lam = self._check(TwoClassProblem(GaussianParams([1.0, 0.0], S), GaussianParams([0.0, 1.0], S)), 1e-12)
        np.testing.assert_allclose(lam, [1.0, 1.0], atol=1e-12)

    def test_counterexample_reconstruction(self, counterexample_problem):
        self._check(counterexample_problem, 1e-10)

    def test_random_spd_pairs(self):
        rng = np.random.default_rng(41)
        for dim in (2, 3, 5, 8):
            A = rng.normal(size=(dim, dim))
            B = rng.normal(size=(dim, dim))
            s1 = A @ A.T + dim * np.eye(dim)
            s2 = B @ B.T + dim * np.eye(dim)
            self._check(TwoClassProblem(GaussianParams(np.zeros(dim), s1), GaussianParams(np.ones(dim), s2)), 1e-9)

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


@st.composite
def affine_maps(draw):
    """(A, t) of a map x -> A x + t, with the entries of A in [-2, 2] and
    |det A| >= 0.3, so A's condition number stays below about 60."""
    a = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))).reshape(2, 2)
    assume(abs(np.linalg.det(a)) >= 0.3)
    return a, np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2)))


class TestAffineInvariance:
    @settings(max_examples=20, deadline=None)
    @given(affine_maps(), spd_problems())
    def test_score_densities_do_not_move_under_an_affine_map(
        self, counterexample_problem, equal_cov_problem, amap, drawn
    ):
        # x -> A x + t takes each class to N(A mu + t, A Sigma A') and leaves
        # the score of every point unchanged, so f(h | class) stays put:
        # whatever the code does in its own coordinates must cancel
        a, t = amap

        def image(problem):
            return TwoClassProblem(
                *(GaussianParams(a @ c.mu + t, a @ c.sigma @ a.T) for c in (problem.class1, problem.class2))
            )

        def constant(problem):
            try:
                _diagonal_score(problem)
            except ContractError:
                return True
            return False

        # the terms that are rounding noise are the same in both frames, so
        # either both find the score constant or neither does
        drawn_is_constant = constant(drawn)
        assert constant(image(drawn)) == drawn_is_constant
        fixed = [counterexample_problem, equal_cov_problem, SADDLE, NEAR_PARABOLA]
        for problem in fixed if drawn_is_constant else [drawn, *fixed]:
            mapped = image(problem)
            h = default_h_grid(problem, 201)
            for label in (1, 2):
                want = marginal_density(h, label, problem).density
                got = marginal_density(h, label, mapped).density
                finite = np.isfinite(want)
                # a density that is nowhere finite and positive on its own grid is wrong
                assert (want[finite] > 0).any(), (problem, label)
                seen = finite & (want > 1e-6 * want[finite].max())
                assert np.abs(got[seen] / want[seen] - 1.0).max() <= 1e-9, (problem, label)


class TestRoundingNoise:
    """Problems whose exact score has a term that the score's rounding cannot
    see: _diagonal_score drops it, the same way in every frame."""

    @pytest.mark.parametrize("eps", [1e-40, 1e-20])
    def test_a_mean_difference_below_rounding_leaves_a_lone_square_term(self, eps):
        # kept, a linear term of eps makes a parabola whose level curves miss
        # every class window: a density of 0 everywhere, or a mass of 0.75
        exact = TwoClassProblem(
            class1=GaussianParams([0.0, 0.0], np.eye(2)), class2=GaussianParams([0.0, 0.0], np.diag([1.0, 0.6]))
        )
        near = TwoClassProblem(class1=GaussianParams([-eps, 0.0], np.eye(2)), class2=exact.class2)
        h = default_h_grid(exact, 801)
        for label in (1, 2):
            want = marginal_density(h, label, exact).density
            np.testing.assert_allclose(marginal_density(h, label, near).density, want, rtol=1e-12)

    def test_classes_equal_to_rounding_are_a_contract_error(self):
        # a linear term of 3.7e-47 used to leave a grid of span 0, whose
        # panel quotas are nan
        problem = TwoClassProblem(
            class1=GaussianParams([0.0, 0.0], 0.5 * np.eye(2)),
            class2=GaussianParams([0.0, 2.63e-47], 0.5 * np.eye(2)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="the score is constant"):
                default_h_grid(problem, 801)

    @pytest.mark.parametrize(
        "var, offset, shift",
        # lam = 1 + 5e-13 is noise; kept in the linear term and the constant,
        # it shifts the score by about alpha s^2, and the densities by 1.6e-6
        [(1.0 + 5e-13, 0.0, -14.5),
         # the same beside a linear term, whose parabola has no singular
         # score to amplify the shift, so the shift is larger
         (1.0 + 5e-13, 0.5, 1e3),
         # a linear term of 1.5e-11 is noise; its share of the constant is
         # about 1.5e-11 s, which must go with it
         (1.0, 1.5e-11, 1e5)],
        ids=["square term", "square term beside a linear term", "linear term"],
    )
    def test_translation_does_not_move_a_dropped_term(self, var, offset, shift):
        def problem(s):
            return TwoClassProblem(
                class1=GaussianParams([0.3, s], np.eye(2)),
                class2=GaussianParams([0.0, s + offset], np.diag([2.0, var])),
            )

        h = default_h_grid(problem(0.0), 201)
        for label in (1, 2):
            want = marginal_density(h, label, problem(0.0)).density
            np.testing.assert_allclose(marginal_density(h, label, problem(shift)).density, want, rtol=1e-9)

    def test_both_frames_drop_the_same_terms(self):
        problem = TwoClassProblem(
            class1=GaussianParams([0.0, 0.0], 0.2 * np.eye(2)),
            class2=GaussianParams([0.0, 2.4e-123], 0.2 * np.eye(2) + 9e-19 * np.array([[0.0, 1.0], [1.0, 0.0]])),
        )
        a, t = np.array([[1.3, -0.4], [0.7, 1.1]]), np.array([2.0, -1.5])
        mapped = TwoClassProblem(
            *(GaussianParams(a @ c.mu + t, a @ c.sigma @ a.T) for c in (problem.class1, problem.class2))
        )

        def zeros(problem):
            try:
                _, alpha, beta, _ = _diagonal_score(problem)
            except ContractError:
                return "constant"
            return (alpha == 0.0).tolist(), (beta == 0.0).tolist()

        assert zeros(problem) == zeros(mapped)


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
    llrdist._level_plan.cache_clear()


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

        def counting_transform(problem):
            calls.append(1)
            return transform_problem(problem)

        monkeypatch.setattr(llrdist, "transform_problem", counting_transform)
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

    def test_one_level_plan_per_problem_and_class_across_a_chunked_grid(self):
        for problem in CONICS.values():
            fresh = TwoClassProblem(class1=problem.class1, class2=problem.class2)
            before = llrdist._level_plan.cache_info()
            calls = len(_tabulate(fresh))
            after = llrdist._level_plan.cache_info()
            assert after.misses - before.misses == 2
            assert after.hits - before.hits == calls - 2

    def test_equal_problems_each_get_their_own_plan(self):
        ellipse = CONICS["ellipse"]
        problems = [TwoClassProblem(class1=ellipse.class1, class2=ellipse.class2) for _ in range(2)]
        plans = [llrdist._level_plan(p, 1) for p in problems]
        assert plans[0] is not plans[1] and plans[0] is not llrdist._level_plan(problems[0], 2)
        assert plans[0] is llrdist._level_plan(problems[0], 1)
        h = default_h_grid(ellipse, 101)
        for first, second in zip(plans[0](h), plans[1](h)):
            np.testing.assert_array_equal(first, second)


def _density_and_error(h, label, problem):
    """marginal_density's two arrays at h; a single point, which is no
    DensityGrid, through the level plan that marginal_density calls."""
    if h.size == 1:
        return llrdist._level_plan(problem, label)(h)
    grid = marginal_density(h, label, problem)
    return grid.density, grid.est_error


class TestDensityBytes:
    """sha256 of every density and est_error byte, per branch of
    marginal_density, so a faster evaluation has to give the same grids."""

    # equal covariances: no square term, the closed-form normal branch
    LINEAR = TwoClassProblem(
        class1=GaussianParams([1.0, 0.5], [[1.0, 0.3], [0.3, 2.0]]),
        class2=GaussianParams([0.2, -0.1], [[1.0, 0.3], [0.3, 2.0]]),
    )

    MARGINAL_DIGESTS = {
        "ellipse": "53c29b3ff822636240a4c21c355f2ca7bdecb0d916c8f1245f0790143198e77f",
        "hyperbola": "dbffcafcacbb56b75e3ca613a56f3a56ca1c6cd48623e4055be546dc0987ebf5",
        "parabola": "24e8356b34b1853620f8a91c48209f648aaf2928a597c8798a2d3079768892e4",
        "lone square": "00fbd0a096e87105840ca3bed993a314633dfad08a07d67aa317b4afd139dd85",
        "linear": "e18aecc06cce06da10c45a9b56ba36fc0235eeeb68ff1a2f5dcd7bd859686b49",
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

    @pytest.mark.parametrize("name", list(MARGINAL_DIGESTS))
    def test_chunked_grids_are_bitwise_one_call(self, name):
        # a point's value is that of its own quadrature, whatever else is on
        # the grid: the benchmark tabulates its grids 89 points at a time
        problem = CONICS.get(name, self.LINEAR)
        ends = [h for h in support_h_range(problem) if np.isfinite(h)]
        h = np.union1d(default_h_grid(problem, 801), [0.0, *ends])
        for label in (1, 2):
            whole = _density_and_error(h, label, problem)
            for chunk in (1, 37, 89):
                parts = [_density_and_error(h[c:c + chunk], label, problem) for c in range(0, h.size, chunk)]
                for i, arr in enumerate(whole):
                    assert np.concatenate([p[i] for p in parts]).tobytes() == arr.tobytes(), (label, chunk)
            if name == "hyperbola":
                assert whole[0][h == 0.0] == np.inf
            if name == "ellipse":
                assert 0.0 < whole[0][h == ends[0]] < np.inf
            # two calls on one grid share no output array, and the second
            # leaves the first as it was
            kept = [arr.tobytes() for arr in whole]
            again = _density_and_error(h, label, problem)
            assert all(not np.shares_memory(a, b) for a in whole for b in again)
            assert not np.shares_memory(*again)
            assert [arr.tobytes() for arr in whole] == kept

    def test_joint_density_bytes(self, counterexample_problem):
        # non-diagonal class models, both roots and the support edge
        h, x1 = np.meshgrid(np.linspace(-3.0, 9.0, 61), np.linspace(-2.0, 5.0, 57))
        sha = hashlib.sha256()
        for label in (1, 2):
            sha.update(joint_density(h, x1, label, counterexample_problem).tobytes())
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
        assert not hist.counts.flags.writeable and not hist.bin_edges.flags.writeable

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

    def test_scores_beyond_the_grid_read_cdf_0_below_and_the_grid_mass_above(self, counterexample_problem):
        grid = marginal_density(np.linspace(0.0, 1.0, 64), 2, counterexample_problem)
        s = np.array([-1.0, 0.5, 2.0])
        cdf = np.interp(s, grid.h_values, grid.cdf_values(), left=0.0)
        assert cdf[0] == 0.0 and cdf[2] == pytest.approx(grid.integral(), rel=1e-15) and cdf[2] < 0.9
        ks, _ = histogram_vs_analytic(s, grid)
        ecdf = np.arange(4) / 3
        assert ks == np.max(np.maximum(np.abs(cdf - ecdf[1:]), np.abs(cdf - ecdf[:-1])))

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
            values, errors = adaptive_gk_rows(batch, a, b)
            converged = []
            for i, f in enumerate(funcs):
                value, error, ok = adaptive_gk(f, a[i], b[i])
                assert (values[i], errors[i]) == (value, error)
                converged.append(ok)
        assert converged == [True, True, True, False, False, True, True]
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

    def test_a_nan_row_leaves_flagged_with_infinite_error(self):
        # NaN passes no tolerance test, so its row must leave on finiteness:
        # row 0 is NaN from the first call on, row 1 from the second
        calls = []

        def f(rows, x):
            calls.append(list(rows))
            out = np.exp(-0.5 * (x / 0.003) ** 2)
            out[rows == 0] = np.nan
            if len(calls) > 1:
                out[rows == 1] = np.nan
            return out

        value, error = adaptive_gk_rows(f, [-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
        assert np.isnan(value[:2]).all() and list(error[:2]) == [np.inf, np.inf]
        assert list(_settled(value, error)) == [False, False, True]
        assert 0 not in calls[1] and 1 in calls[1] and 1 not in calls[2]

    def test_a_row_converged_exactly_when_its_value_and_error_settle(self):
        # random rows of seven integrand families, one in ten on an empty
        # interval: smooth, oscillatory (often past the budget), cusp, pole,
        # NaN past a point, inf near one, and a sum that overflows to inf
        families = [
            lambda c, x: np.exp(-c * x * x),
            lambda c, x: np.cos(40.0 * c * x),
            lambda c, x: np.sqrt(np.abs(x - c)),
            lambda c, x: 1.0 / (x - c),
            lambda c, x: np.where(x > c, np.nan, x),
            lambda c, x: np.where(np.abs(x - c) < 0.1, np.inf, x),
            lambda c, x: 1e308 * c + 0.0 * x,
        ]
        rng = np.random.default_rng(34)
        family = np.repeat(np.arange(len(families)), 40)
        c = rng.uniform(-1.0, 1.0, family.size)
        a, b = rng.uniform(-1.0, 0.0, family.size), rng.uniform(0.0, 1.0, family.size)
        b[::10] = a[::10]

        def row(i):
            return lambda x: families[family[i]](c[i], x)

        def batch(rows, x):
            return np.stack([row(i)(xi) for i, xi in zip(rows, x)])

        with np.errstate(all="ignore"):
            value, error = adaptive_gk_rows(batch, a, b)
            alone = [adaptive_gk(row(i), a[i], b[i]) for i in range(family.size)]
        np.testing.assert_array_equal(value, [v for v, _, _ in alone])
        np.testing.assert_array_equal(error, [e for _, e, _ in alone])
        converged = np.array([ok for _, _, ok in alone])
        np.testing.assert_array_equal(converged, _settled(value, error))
        # every verdict occurs: converged, out of budget, NaN and infinite
        finite = np.isfinite(value)
        assert converged.any() and (finite & ~converged).any()
        assert np.isnan(value).any() and np.isinf(value).any()
        assert (error[~finite] == np.inf).all() and not converged[~finite].any()
        assert (error[b == a] == 0.0).all() and converged[b == a].all()


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

    def test_the_grid_keeps_its_own_copy_of_the_caller_scores(self):
        h = default_h_grid(CONICS["ellipse"], 101)
        grid = marginal_density(h, 1, CONICS["ellipse"])
        kept = grid.h_values.copy()
        assert h.flags.writeable and not grid.h_values.flags.writeable
        h[0] = 3.0
        np.testing.assert_array_equal(grid.h_values, kept)

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
        with pytest.raises(ContractError, match="increasing"):
            DensityGrid(np.array([0.0, 1.0, 1.0, 2.0]), np.ones(4), np.zeros(4), 1)
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
        params = problem.class2
        m, s = params.mu[0], np.sqrt(params.sigma[0, 0])
        mine = marginal_density(h_probe, 2, problem)
        for h, value in zip(h_probe, mine.density):
            ref = 0.0
            for lo, hi in support_region(h, problem):
                lo, hi = max(lo, m - 12.0 * s), min(hi, m + 12.0 * s)
                if lo < hi:
                    ref += quad(
                        lambda x1: joint_density(h, x1, 2, problem),
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
    # at h = 0, c is the score's x1 part exactly
    b, c, _ = geom.x2_quadratic(0.0, pts[:, 0])
    poly = geom.a2 * pts[:, 1] ** 2 + b * pts[:, 1] + c
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


@pytest.mark.parametrize("n_points", [2.7, 801.0, np.float64(801.0), True, "801"])
def test_default_h_grid_needs_an_integer_count(counterexample_problem, n_points):
    with pytest.raises(ContractError, match="n_points must be an integer"):
        default_h_grid(counterexample_problem, n_points)
    assert default_h_grid(counterexample_problem, np.int64(3)).size == 3


def test_default_h_grid_shape(counterexample_problem):
    grid = default_h_grid(counterexample_problem, 301)
    lo, _ = support_h_range(counterexample_problem)
    assert grid.size == 301
    assert np.all(np.diff(grid) > 0)
    assert grid[0] > lo
    assert grid[0] - lo < 0.01


class TestDefaultHGrid:
    """Exactly n_points strictly increasing scores, none on a singular score,
    on which the 801-point trapezoid mass of each class is 1 to 1e-3."""

    @staticmethod
    def check(problem):
        for n in (2, 8, 89, 801):
            h = default_h_grid(problem, n)
            assert h.size == n and np.all(np.diff(h) > 0), n
            for label in (1, 2):
                grid = marginal_density(h, label, problem)
                assert np.all(np.isfinite(grid.density)), (n, label)
                if n == 801:
                    assert grid.integral() == pytest.approx(1.0, abs=1e-3), label

    @settings(max_examples=100, deadline=None)
    @given(spd_problems())
    def test_random_spd_pairs(self, problem):
        try:
            _diagonal_score(problem)
        except ContractError:
            assume(False)  # equal classes: the score is a constant
        self.check(problem)

    @pytest.mark.parametrize(
        "problem",
        [
            # alpha = (-0.458, 0.00485): class 1's mass is 1.00100
            TwoClassProblem(
                class1=GaussianParams([0.0, 0.0], np.diag([0.25, 0.203125])),
                class2=GaussianParams([0.0, 0.0], np.diag([3.0, 0.20117188])),
            ),
            # alpha = (-0.132, 6.49): class 2's mass is 1.00121
            TwoClassProblem(
                class1=GaussianParams([0.8538, 1.2496], [[3.3378, 0.2259], [0.2259, 4.3642]]),
                class2=GaussianParams([-2.1056, -2.755], [[2.7267, -2.2371], [-2.2371, 2.3529]]),
            ),
        ],
        ids=["means at the origin", "means apart"],
    )
    @pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="the smaller square term's tail is coarse on the grid (ROADMAP item 6)"
    )
    def test_hyperbola_whose_square_terms_differ_greatly_in_scale(self, problem):
        self.check(problem)

    def test_symmetric_hyperbola_whose_saddle_is_zero(self):
        # the density is infinite at the saddle score 0 itself, a log
        # singularity that a grid must neither hit nor under-resolve
        assert llrdist._level_plan(SADDLE, 1)(np.array([0.0]))[0][0] == np.inf
        self.check(SADDLE)


def _random_covariance(rng, p):
    """A p x p covariance with eigenvalues in 10^[-1, 1] at a random rotation."""
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    return (q * 10.0 ** rng.uniform(-1.0, 1.0, p)) @ q.T


@st.composite
def any_p_problems(draw):
    """A problem with p = 2 ... 11 features, covariance eigenvalues in
    10^[-1, 1] and standard normal means.  Class 2's covariance is drawn
    independently, or is near class 1's: (1 + eps) sigma1, or sigma1 with
    eps added to one diagonal entry, eps in 10^[-11, -6]."""
    p = draw(st.integers(2, 11))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma1 = _random_covariance(rng, p)
    eps = 10.0 ** rng.uniform(-11.0, -6.0)
    sigma2 = draw(st.sampled_from([
        _random_covariance(rng, p), (1.0 + eps) * sigma1, sigma1 + eps * np.diag(np.eye(p)[rng.integers(p)]),
    ]))
    return TwoClassProblem(
        class1=GaussianParams(rng.standard_normal(p), sigma1),
        class2=GaussianParams(rng.standard_normal(p), sigma2),
    )


def _numpy_scores(problem, label, n, rng):
    """Scores of n draws from one class, from numpy's own sampler and
    log-density formula: no llrlab numerics."""
    params = (problem.class1, problem.class2)[label - 1]
    x = params.mu + rng.standard_normal((n, problem.dim)) @ np.linalg.cholesky(params.sigma).T

    def logpdf(c):
        d = x - c.mu
        return -0.5 * (np.sum((d @ np.linalg.inv(c.sigma)) * d, axis=1) + np.linalg.slogdet(c.sigma)[1])

    return logpdf(problem.class1) - logpdf(problem.class2)


class TestScoreMoments:
    @settings(max_examples=100, deadline=None)
    @given(any_p_problems())
    def test_match_an_original_coordinate_oracle(self, problem):
        # h = x'Qx + q'x + c with Q = (P2 - P1)/2: mean tr(Q S) + m'Qm + q'm + c
        # and variance 2 tr((Q S)^2) + g'S g, g = 2Qm + q, under x ~ N(m, S)
        p1, p2 = (np.linalg.inv(c.sigma) for c in (problem.class1, problem.class2))
        mu1, mu2 = problem.class1.mu, problem.class2.mu
        Q, q = 0.5 * (p2 - p1), p1 @ mu1 - p2 @ mu2
        c = 0.5 * (mu2 @ p2 @ mu2 - mu1 @ p1 @ mu1
                   - np.linalg.slogdet(problem.class1.sigma)[1] + np.linalg.slogdet(problem.class2.sigma)[1])
        for label, params in ((1, problem.class1), (2, problem.class2)):
            m, S = params.mu, params.sigma
            QS, g = Q @ S, 2.0 * Q @ m + q
            mean = np.trace(QS) + m @ Q @ m + q @ m + c
            var = 2.0 * np.trace(QS @ QS) + g @ S @ g
            got_mean, got_var = score_moments(problem, label)
            assert abs(got_mean - mean) <= 1e-10 * (abs(mean) + np.sqrt(var))
            assert got_var == pytest.approx(var, rel=1e-10)

    @pytest.mark.parametrize("p", [3, 7, 11])
    def test_match_simulated_scores_at_the_papers_dimensions(self, p):
        rng = np.random.default_rng(p)
        problem = TwoClassProblem(
            class1=GaussianParams(rng.standard_normal(p), _random_covariance(rng, p)),
            class2=GaussianParams(rng.standard_normal(p), _random_covariance(rng, p)),
        )
        for label in (1, 2):
            s = _numpy_scores(problem, label, 200_000, rng)
            mean, var = score_moments(problem, label)
            # standard errors of the sample mean and variance
            dev = s - s.mean()
            se_mean = np.sqrt(s.var() / s.size)
            se_var = np.sqrt((np.mean(dev**4) - s.var() ** 2) / s.size)
            assert abs(mean - s.mean()) <= 5.0 * se_mean
            assert abs(var - s.var()) <= 5.0 * se_var

    def test_equal_classes_are_a_contract_error(self, counterexample_problem):
        same = TwoClassProblem(class1=counterexample_problem.class1, class2=counterexample_problem.class1)
        for label in (1, 2):
            with pytest.raises(ContractError, match="constant"):
                score_moments(same, label)
