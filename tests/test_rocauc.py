import numpy as np
import pytest
from scipy.integrate import quad

from llrlab import (
    RocCurve,
    ScoreSet,
    auc_probability_identity_check,
    binormal_auc,
    binormal_tpf,
    empirical_auc,
    empirical_error_fractions,
    empirical_roc,
    normal_deviate_fit,
    trapezoid_auc,
)
from llrlab.errors import ContractError, DomainError, InsufficientDataError
from llrlab.rocauc import binormal_tpf_array
from llrlab.smallmat import std_normal_quantile_array


def random_score_sets(n_sets, seed, max_size=60, tie_fraction=0.5):
    """Random score sets; about half of them are rounded to force heavy ties."""
    rng = np.random.default_rng(seed)
    for _ in range(n_sets):
        n1 = int(rng.integers(1, max_size))
        n2 = int(rng.integers(1, max_size))
        s1 = rng.normal(loc=0.4, size=n1)
        s2 = rng.normal(size=n2)
        if rng.random() < tie_fraction:
            s1 = np.round(s1, 1)
            s2 = np.round(s2, 1)
        yield ScoreSet(s1, s2)


class TestErrorFractions:
    def test_perfect_separation(self):
        s = ScoreSet([2.0, 3.0], [0.0, 1.0])
        assert empirical_error_fractions(s, 1.5) == (0.0, 0.0)

    def test_fully_reversed(self):
        s = ScoreSet([-1.0, -2.0], [1.0, 2.0])
        assert empirical_error_fractions(s, 0.0) == (1.0, 1.0)

    def test_ties_count_toward_neither(self):
        s = ScoreSet([1.0, 2.0], [1.0, 0.0])
        fnf, fpf = empirical_error_fractions(s, 1.0)
        assert fnf == 0.0 and fpf == 0.0

    def test_against_counting_oracle(self):
        rng = np.random.default_rng(8)
        s1 = np.round(rng.normal(size=50), 1)
        s2 = np.round(rng.normal(size=50), 1)
        scores = ScoreSet(s1, s2)
        for th in rng.normal(size=20):
            fnf, fpf = empirical_error_fractions(scores, th)
            assert fnf == sum(1 for v in s1 if v < th) / 50
            assert fpf == sum(1 for v in s2 if v > th) / 50

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            empirical_error_fractions(ScoreSet([], [1.0]), 0.0)


class TestEmpiricalAuc:
    def test_complete_separation(self):
        assert empirical_auc(ScoreSet([2.0, 3.0], [0.0, 1.0])) == 1.0

    def test_single_tie(self):
        assert empirical_auc(ScoreSet([1.0], [1.0])) == 0.5

    def test_hand_enumerated_pairs(self):
        # pairs (3,2)=1 (3,0)=1 (1,2)=0 (1,0)=1 -> 3/4
        assert empirical_auc(ScoreSet([3.0, 1.0], [2.0, 0.0])) == 0.75

    def test_label_swap_is_exact_complement(self):
        from llrlab.rocauc import _win_tie_counts

        for s in random_score_sets(100, seed=21):
            # psi symmetry is exact at the pair-count level ...
            w, t = _win_tie_counts(s.class1_scores, s.class2_scores)
            w_swap, t_swap = _win_tie_counts(s.class2_scores, s.class1_scores)
            n_pairs = s.class1_scores.size * s.class2_scores.size
            assert t_swap == t
            assert w + t + w_swap == n_pairs
            # ... and survives the one final rounding of the division
            assert empirical_auc(s.swapped()) == pytest.approx(
                1.0 - empirical_auc(s), abs=1e-15
            )

    def test_monotone_under_positive_shift(self):
        for s in random_score_sets(50, seed=22):
            shifted = ScoreSet(s.class1_scores + 0.5, s.class2_scores)
            assert empirical_auc(shifted) >= empirical_auc(s)

    def test_brute_force_psi_kernel(self):
        for s in random_score_sets(30, seed=23, max_size=25):
            psi = 0.0
            for a in s.class1_scores:
                for b in s.class2_scores:
                    psi += 1.0 if a > b else (0.5 if a == b else 0.0)
            expected = psi / (s.class1_scores.size * s.class2_scores.size)
            assert empirical_auc(s) == pytest.approx(expected, abs=1e-12)


class TestEmpiricalRoc:
    def test_separated_passes_through_corner(self):
        curve = empirical_roc(ScoreSet([2.0, 3.0], [0.0, 1.0]))
        pts = set(zip(curve.fpf, curve.tpf))
        assert (0.0, 1.0) in pts

    def test_identical_lists_give_diagonal(self):
        curve = empirical_roc(ScoreSet([1.0, 2.0], [1.0, 2.0]))
        assert np.all(curve.fpf == curve.tpf)
        assert trapezoid_auc(curve) == 0.5

    def test_invariants_on_random_sets(self):
        for s in random_score_sets(200, seed=24):
            curve = empirical_roc(s)
            assert curve.fpf[0] == 0.0 and curve.tpf[0] == 0.0
            assert curve.fpf[-1] == 1.0 and curve.tpf[-1] == 1.0
            assert np.all(np.diff(curve.fpf) >= 0)
            assert np.all(np.diff(curve.tpf) >= 0)
            assert curve.thresholds[0] == np.inf and curve.thresholds[-1] == -np.inf

    def test_estimator_equivalence_is_bitwise(self):
        for s in random_score_sets(300, seed=25):
            assert trapezoid_auc(empirical_roc(s)) == empirical_auc(s)


class TestTrapezoidAuc:
    def test_diagonal(self):
        curve = RocCurve([0.0, 1.0], [0.0, 1.0], [np.inf, -np.inf])
        assert trapezoid_auc(curve) == 0.5

    def test_perfect_classifier(self):
        curve = RocCurve([0.0, 0.0, 1.0], [0.0, 1.0, 1.0], [np.inf, 0.0, -np.inf])
        assert trapezoid_auc(curve) == 1.0

    def test_count_sums_are_exact_up_to_the_int64_limit(self):
        # the doubled area of n1 x n2 pairs is at most 2 n1 n2, which must
        # stay below 2^63
        n1, n2 = 2**31, 2**31 - 1
        for tp, fp, auc in (([0, n1], [0, n2], 0.5), ([0, n1, n1], [0, 0, n2], 1.0)):
            curve = RocCurve(np.array(fp) / n2, np.array(tp) / n1, [np.inf, *[0.0] * (len(tp) - 2), -np.inf],
                             tp_counts=np.array(tp), fp_counts=np.array(fp), n1=n1, n2=n2)
            assert trapezoid_auc(curve) == auc
        too_many = RocCurve([0.0, 1.0], [0.0, 1.0], [np.inf, -np.inf], tp_counts=np.array([0, 2**31]),
                            fp_counts=np.array([0, 2**31]), n1=2**31, n2=2**31)
        with pytest.raises(ContractError, match="int64"):
            trapezoid_auc(too_many)

    def test_non_monotone_curve_rejected(self):
        with pytest.raises(ContractError):
            RocCurve([0.0, 0.6, 0.4, 1.0], [0.0, 0.5, 0.6, 1.0], [np.inf, 1.0, 0.0, -np.inf])

    def test_bad_anchors_rejected(self):
        with pytest.raises(ContractError):
            RocCurve([0.1, 1.0], [0.0, 1.0], [np.inf, -np.inf])


class TestRocCurveCounts:
    """Sweep counts must agree with the curve they are attached to."""

    FPF, TPF, TH = [0.0, 0.5, 1.0], [0.0, 0.25, 1.0], [np.inf, 0.0, -np.inf]
    GOOD = dict(tp_counts=[0, 1, 4], fp_counts=[0, 1, 2], n1=4, n2=2)

    def curve(self, **changes):
        return RocCurve(self.FPF, self.TPF, self.TH, **{**self.GOOD, **changes})

    def test_consistent_counts_are_kept_read_only(self):
        curve = self.curve()
        assert curve.has_counts and (curve.n1, curve.n2) == (4, 2)
        np.testing.assert_array_equal(curve.tp_counts, [0, 1, 4])
        assert not curve.tp_counts.flags.writeable and not curve.fp_counts.flags.writeable
        assert trapezoid_auc(curve) == 0.375

    def test_contradicting_counts_are_rejected(self):
        # tp 5 of 2 positives and fp 3 of 2 negatives gave an area of 1.875
        with pytest.raises(ContractError, match="from 0 to n1"):
            RocCurve([0, 1], [0, 1], [np.inf, -np.inf], tp_counts=[0, 5], fp_counts=[0, 3], n1=2, n2=2)

    @pytest.mark.parametrize("missing", ["tp_counts", "fp_counts", "n1", "n2"])
    def test_counts_and_class_sizes_come_together(self, missing):
        with pytest.raises(ContractError, match="together"):
            self.curve(**{missing: None})

    def test_no_counts_and_no_sizes_is_a_plain_curve(self):
        curve = RocCurve(self.FPF, self.TPF, self.TH)
        assert not curve.has_counts and curve.n1 is None

    @pytest.mark.parametrize("n1", [0, -4, 4.0, True, "4"])
    def test_class_size_must_be_a_positive_integer(self, n1):
        with pytest.raises(ContractError, match="n1 must be an integer"):
            self.curve(n1=n1)

    def test_counts_must_be_integers(self):
        with pytest.raises(ContractError, match="integer array"):
            self.curve(tp_counts=np.array([0.0, 1.0, 4.0]))

    @pytest.mark.parametrize("fp", [[0, 2], [0, 1, 1, 2], [[0, 1, 2]]])
    def test_counts_must_match_the_curve_shape(self, fp):
        with pytest.raises(ContractError, match="shape"):
            self.curve(fp_counts=fp)

    @pytest.mark.parametrize("tp", [[1, 1, 4], [0, 1, 3], [0, 5, 4]])
    def test_counts_must_run_up_from_zero_to_the_class_size(self, tp):
        with pytest.raises(ContractError, match="non-decreasing from 0 to n1"):
            self.curve(tp_counts=tp)

    def test_counts_must_give_the_fractions_exactly(self):
        with pytest.raises(ContractError, match="tp_counts / n1"):
            self.curve(tp_counts=[0, 2, 4])
        with pytest.raises(ContractError, match="fp_counts / n2"):
            RocCurve(self.FPF, self.TPF, self.TH, tp_counts=[0, 1, 4], fp_counts=[0, 2, 6], n1=4, n2=6)


def binormal_point_by_quadrature(t, mu1, sigma1, mu2, sigma2):
    """(fpf, tpf) at threshold t from tail integrals of two normal densities."""

    def upper_tail(mu, sigma):
        val, _ = quad(
            lambda x: np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi)),
            t,
            mu + 12 * sigma,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        return val

    return upper_tail(mu2, sigma2), upper_tail(mu1, sigma1)


class TestBinormal:
    def test_chance_line(self):
        for fpf in (0.1, 0.5, 0.9):
            assert binormal_tpf(0.0, 1.0, fpf) == pytest.approx(fpf, rel=1e-12)

    def test_half_point(self):
        from llrlab import std_normal_cdf

        for a, b in ((0.3, 0.7), (1.2, 1.0), (-0.5, 2.0)):
            assert binormal_tpf(a, b, 0.5) == pytest.approx(std_normal_cdf(a), rel=1e-13)

    def test_against_density_quadrature_oracle(self):
        # score model with (mu1-mu2)/sigma1 = 1.2 and sigma2/sigma1 = 0.8
        mu1, sigma1, mu2, sigma2 = 1.2, 1.0, 0.0, 0.8
        for t in np.linspace(-2.0, 3.0, 99):
            fpf, tpf = binormal_point_by_quadrature(t, mu1, sigma1, mu2, sigma2)
            assert binormal_tpf(1.2, 0.8, fpf) == pytest.approx(tpf, abs=1e-8)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            binormal_tpf(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            binormal_auc(1.0, 0.0)

    def test_auc_chance(self):
        for b in (0.5, 1.0, 2.0):
            assert binormal_auc(0.0, b) == 0.5

    def test_auc_equal_variance_point(self):
        # 10^4-point trapezoid integration oracle of the curve itself
        fpf = np.linspace(1e-9, 1.0 - 1e-9, 10_000)
        tpf = binormal_tpf_array(0.8955, 1.0, fpf)
        oracle = np.trapezoid(tpf, fpf)
        assert binormal_auc(0.8955, 1.0) == pytest.approx(0.7366, abs=2e-4)
        assert binormal_auc(0.8955, 1.0) == pytest.approx(oracle, abs=1e-4)

    def test_auc_against_fine_trapezoid(self):
        fpf = np.linspace(1e-10, 1.0 - 1e-10, 100_000)
        tpf = binormal_tpf_array(1.5, 0.7, fpf)
        assert binormal_auc(1.5, 0.7) == pytest.approx(np.trapezoid(tpf, fpf), abs=1e-5)

    def test_auc_grid_against_trapezoid(self):
        fpf = np.linspace(1e-10, 1.0 - 1e-10, 100_000)
        for a in (0.0, 0.5, 1.0, 2.0):
            for b in (0.5, 1.0, 2.0):
                oracle = np.trapezoid(binormal_tpf_array(a, b, fpf), fpf)
                assert binormal_auc(a, b) == pytest.approx(oracle, abs=1e-5)


class TestNormalDeviateFit:
    def test_round_trip_exact_binormal(self):
        fpf = np.linspace(0.02, 0.98, 49)
        tpf = binormal_tpf_array(1.2, 0.8, fpf)
        curve = RocCurve(
            np.concatenate([[0.0], fpf, [1.0]]),
            np.concatenate([[0.0], tpf, [1.0]]),
            np.concatenate([[np.inf], np.zeros(49), [-np.inf]]),
        )
        fit = normal_deviate_fit(curve)
        assert fit.a == pytest.approx(1.2, abs=1e-6)
        assert fit.b == pytest.approx(0.8, abs=1e-6)
        assert fit.residual < 1e-9

    def test_diagonal_fits_chance_line(self):
        fpf = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        curve = RocCurve(fpf, fpf, np.array([np.inf, 3.0, 2.0, 1.0, -np.inf]))
        fit = normal_deviate_fit(curve)
        assert fit.a == pytest.approx(0.0, abs=1e-9)
        assert fit.b == pytest.approx(1.0, abs=1e-9)

    def test_too_few_interior_points(self):
        curve = RocCurve([0.0, 0.5, 1.0], [0.0, 0.7, 1.0], [np.inf, 0.0, -np.inf])
        with pytest.raises(InsufficientDataError):
            normal_deviate_fit(curve)

    def test_interior_points_at_one_fpf_have_no_line(self):
        # Every interior point sits at FPF 0.25: a vertical line, no slope.
        curve = empirical_roc(ScoreSet([0, 1, 2, 3, 4, 5], [2.5, 2.5, 2.5, 7.0]))
        with pytest.raises(InsufficientDataError, match="distinct"):
            normal_deviate_fit(curve)

    def test_fit_keeps_the_deviates_of_the_interior_points(self):
        fpf = np.array([0.0, 0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
        tpf = np.array([0.0, 0.3, 0.5, 0.7, 0.9, 1.0, 1.0])
        curve = RocCurve(fpf, tpf, np.array([np.inf, 6.0, 5.0, 4.0, 3.0, 2.0, -np.inf]))
        fit = normal_deviate_fit(curve)
        np.testing.assert_array_equal(fit.z_fpf, std_normal_quantile_array(fpf[2:5]))
        np.testing.assert_array_equal(fit.z_tpf, std_normal_quantile_array(tpf[2:5]))
        assert not (fit.z_fpf.flags.writeable or fit.z_tpf.flags.writeable)


class TestAucProbabilityIdentity:
    def test_separated(self):
        assert auc_probability_identity_check(ScoreSet([2.0, 3.0], [0.0, 1.0])) == (1.0, 1.0)

    def test_all_tied(self):
        assert auc_probability_identity_check(ScoreSet([1.0, 1.0], [1.0, 1.0])) == (0.5, 0.5)

    def test_random_sets_agree_exactly(self):
        for s in random_score_sets(100, seed=26):
            mw, prob = auc_probability_identity_check(s)
            assert abs(mw - prob) <= 1e-15


class TestRocCsv:
    def test_round_trip_and_sentinels(self):
        curve = empirical_roc(ScoreSet([0.25, 1.0, 1.0], [0.0, 0.25]))
        text = curve.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "fpf,tpf,threshold"
        assert lines[1].endswith(",inf")
        assert lines[-1].endswith(",-inf")
        for i, line in enumerate(lines[1:]):
            f, t, th = line.split(",")
            assert float(f) == curve.fpf[i]
            assert float(t) == curve.tpf[i]
            assert float(th) == curve.thresholds[i] or (
                np.isinf(float(th)) and np.isinf(curve.thresholds[i])
            )
