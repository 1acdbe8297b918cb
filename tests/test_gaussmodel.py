import warnings

import numpy as np
import pytest
from numpy.random import Philox
from scipy.integrate import simpson

from llrlab import (
    GaussianParams,
    ScoreSet,
    SeededRng,
    TwoClassProblem,
    empirical_auc,
    estimate_params,
    llr_scores,
    mahalanobis_sq,
    mvn_sample,
)
from llrlab.errors import (
    ConditioningError,
    ContractError,
    DecompositionError,
    InsufficientDataError,
)
from llrlab.gaussmodel import mahalanobis_sq_rows, mvn_logpdf_array
from tests.conftest import MU1, MU2, SIGMA1, SIGMA2


class TestMvnPdf:
    def test_peak_value_identity_covariance(self):
        params = GaussianParams([0.3, -0.7], np.eye(2))
        assert np.exp(mvn_logpdf_array([0.3, -0.7], params)[0]) == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-14)

    def test_counterexample_class1_at_mean(self):
        params = GaussianParams(MU1, SIGMA1)
        # direct substitution: 1 / (2 pi sqrt(0.96))
        assert np.exp(mvn_logpdf_array([2.0, 2.0], params)[0]) == pytest.approx(0.16243683359034922, rel=1e-12)
        assert np.exp(mvn_logpdf_array([2.0, 2.0], params)[0]) == pytest.approx(
            1.0 / (2.0 * np.pi * np.sqrt(0.96)), rel=1e-14
        )

    @pytest.mark.parametrize(
        "mu,sigma", [(MU1, SIGMA1), (MU2, SIGMA2), ([0.0, 0.0], np.eye(2))]
    )
    def test_normalization_by_grid_quadrature(self, mu, sigma):
        params = GaussianParams(mu, sigma)
        sds = np.sqrt(np.diag(params.sigma))
        xs = np.linspace(mu[0] - 8 * sds[0], mu[0] + 8 * sds[0], 801)
        ys = np.linspace(mu[1] - 8 * sds[1], mu[1] + 8 * sds[1], 801)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        dev = pts - params.mu
        q = np.einsum("ij,jk,ik->i", dev, params.sigma_inv, dev)
        dens = np.exp(-0.5 * q) / (2.0 * np.pi * np.exp(0.5 * params.log_det))
        total = simpson(simpson(dens.reshape(gx.shape), x=ys, axis=1), x=xs)
        assert total == pytest.approx(1.0, abs=1e-6)
        # spot-check one point against the oracle path
        assert np.exp(mvn_logpdf_array(pts[12345], params)[0]) == pytest.approx(dens[12345], rel=1e-12)

    def test_maximized_at_mean(self):
        params = GaussianParams(MU2, SIGMA2)
        peak = np.exp(mvn_logpdf_array(MU2, params)[0])
        rng = np.random.default_rng(5)
        for _ in range(50):
            assert np.exp(mvn_logpdf_array(MU2 + rng.normal(scale=0.5, size=2), params)[0]) < peak

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            mvn_logpdf_array([1.0, 2.0, 3.0], GaussianParams([0.0, 0.0], np.eye(2)))


class TestMvnSample:
    def test_zero_samples(self):
        params = GaussianParams([0.0], [[1.0]])
        out = mvn_sample(params, 0, SeededRng(1))
        assert out.shape == (0, 1)

    def test_determinism(self):
        params = GaussianParams(MU1, SIGMA1)
        a = mvn_sample(params, 100, SeededRng(9, 3))
        b = mvn_sample(params, 100, SeededRng(9, 3))
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        params = GaussianParams(MU1, SIGMA1)
        a = mvn_sample(params, 100, SeededRng(9, 3))
        b = mvn_sample(params, 100, SeededRng(9, 4))
        assert not np.array_equal(a, b)

    def test_law_of_large_numbers_class1(self):
        params = GaussianParams(MU1, SIGMA1)
        n = 100_000
        x = mvn_sample(params, n, SeededRng(2024, 1))
        sd = np.sqrt(np.diag(SIGMA1))
        assert np.all(np.abs(x.mean(axis=0) - MU1) < 4.0 * sd / np.sqrt(n))
        cov = np.cov(x, rowvar=False)
        assert np.abs(cov - SIGMA1).max() < 0.05 * np.abs(SIGMA1).max()

    @pytest.mark.parametrize("p", [1, 2, 3, 7, 11])
    def test_bit_equal_to_mean_plus_mapped_normals(self, p):
        gen = np.random.default_rng(p)
        a = gen.normal(size=(p, p))
        params = GaussianParams(gen.normal(size=p), a @ a.T + np.eye(p))
        for n in (1, 5, 300):
            rng = SeededRng(17, n)
            z = rng.normals(n * p).reshape(n, p)
            x = mvn_sample(params, n, rng)
            assert np.array_equal(x, params.mu + z @ params.chol.T)
            assert x.flags.writeable and not np.shares_memory(x, params.mu)

    def test_non_spd_sigma_surfaces_cholesky_error(self):
        with pytest.raises(DecompositionError):
            GaussianParams([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])


class TestSeededRng:
    def test_derive_is_deterministic_and_injective_enough(self):
        base = SeededRng(77)
        assert base.derive(1, 2) == base.derive(1, 2)
        seen = {base.derive(i, j).stream_id for i in range(20) for j in range(20)}
        assert len(seen) == 400

    def test_uniforms_open_interval(self):
        u = SeededRng(5).uniforms(10_000)
        assert np.all((u > 0.0) & (u < 1.0))

    def test_golden_stream(self):
        # Pinned values guard the bit-stream contract across platforms.
        u = SeededRng(1, 2).uniforms(3)
        np.testing.assert_allclose(
            u, [0.3093149111858346, 0.3569562367935076, 0.0369045304683569], rtol=0, atol=1e-16
        )
        # one word above 2^63, and one that rounds to the key word 0
        assert SeededRng(1, 2**63 + 5).uniforms(3).tolist() == [
            0.4416023241550047, 0.12554152782297906, 0.05510588589829685
        ]
        assert SeededRng(2**64 - 7, 2).uniforms(3).tolist() == [
            0.8144335776159866, 0.43968080496272327, 0.29972002917843327
        ]

    def test_philox_key_is_the_one_numpy_forms_from_the_pair(self):
        # every regime of the two words: both below 2^63, both at or above,
        # either one alone above, and one within 1024 of 2^64
        draw = np.random.default_rng(11)
        low = lambda: int(draw.integers(0, 2**63, dtype=np.uint64))
        high = lambda: int(draw.integers(2**63, 2**64 - 1, dtype=np.uint64, endpoint=True))
        top = lambda: 2**64 - 1 - int(draw.integers(0, 1100))
        for first, second in ((low, low), (high, high), (low, high), (high, low), (low, top), (top, low)):
            for _ in range(300):
                rng = SeededRng(first(), second())
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    expected = Philox(key=[rng.seed, rng.stream_id]).state
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    state = rng.generator().bit_generator.state
                assert str(state) == str(expected), (rng.seed, rng.stream_id)

    def test_ids_that_round_alike_share_a_stream(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(SeededRng(3, 2**63).uniforms(8), SeededRng(3, 2**63 + 1000).uniforms(8))
            assert not np.array_equal(SeededRng(3, 2**63).uniforms(8), SeededRng(3, 2**63 + 2048).uniforms(8))
            # both words at or above 2^63 keep every bit
            assert not np.array_equal(SeededRng(2**63, 2**63).uniforms(8), SeededRng(2**63, 2**63 + 1).uniforms(8))
            # within 1024 of 2^64 the word rounds to 2^64, which is the key word 0
            assert SeededRng(3, 2**64 - 1).generator().bit_generator.state["state"]["key"].tolist() == [3, 0]

    def test_uniforms_are_the_integer_midpoint_formula(self):
        # (k + 0.5) / 2^53 for the top 53 bits k of each word, also for
        # k >= 2^52, where k + 0.5 is a tie that rounds to even
        for seed, stream, n in ((0, 0, 1), (1, 2, 3), (5, 0, 1000), (77, 2**63 + 5, 20_000), (3, 9, 4097)):
            rng = SeededRng(seed, stream)
            k = rng.generator().integers(0, 2**53, size=n, dtype=np.uint64)
            expected = (k.astype(float) + 0.5) / 2**53
            np.testing.assert_array_equal(rng.uniforms(n).view(np.uint64), expected.view(np.uint64))
        high = k[k >= 2**52]
        assert (high % 2 == 0).any() and (high % 2 == 1).any()

    def test_the_top_word_stays_below_one(self, monkeypatch):
        # (k + 0.5) / 2^53 rounds to 1 for k = 2^53 - 1, whose normal deviate
        # is infinite; it is clamped at the largest double below 1, and the
        # words under it keep their values
        k = np.array([0, 2**52, 2**53 - 3, 2**53 - 2, 2**53 - 1], dtype=np.uint64)

        class TopWords:
            def random(self, n):
                return k[:n] * 2.0**-53

        monkeypatch.setattr(SeededRng, "generator", lambda self: TopWords())
        u = SeededRng(0).uniforms(k.size)
        assert u[-1] == np.nextafter(1.0, 0.0)
        midpoints = (k[:-1].astype(float) + 0.5) / 2**53
        np.testing.assert_array_equal(u[:-1].view(np.uint64), midpoints.view(np.uint64))
        z = SeededRng(0).normals(k.size)
        assert np.isfinite(z).all() and z[-1] > 8.0

    def test_negative_counts_are_a_contract_error(self):
        rng = SeededRng(5)
        for draw in (rng.uniforms, rng.normals):
            with pytest.raises(ContractError, match="-1"):
                draw(-1)
            assert draw(0).shape == (0,)

    def test_normals_moments(self):
        z = SeededRng(123).normals(200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01


class TestEstimateParams:
    def test_two_point_degenerate_scatter(self):
        # Eq-by-hand: mean (1,1), scatter [[2,2],[2,2]] which is singular.
        with pytest.raises(ConditioningError):
            estimate_params([[0.0, 0.0], [2.0, 2.0]])

    @pytest.mark.parametrize("column", ["zero", "copy", "double"])
    def test_rank_deficient_batch_is_a_conditioning_error(self, column):
        # every scatter entry here is exact, so a zero column, or one that
        # repeats the first or doubles it, makes the covariance exactly
        # singular; it is rejected before any factorization
        x0, x1 = np.array([-2.0, -2.0, 2.0, 2.0, 0.0]), np.array([1.0, -1.0, 1.0, -1.0, 0.0])
        third = {"zero": np.zeros(5), "copy": x0, "double": 2.0 * x0}[column]
        with pytest.raises(ConditioningError) as err:
            estimate_params(np.column_stack([x0, x1, third]))
        assert str(err.value) == "sample covariance from 5 points in dimension 3 is numerically singular"
        assert err.value.__cause__ is None

    def test_a_repeated_column_is_one_message_at_every_scale(self):
        # Whether rounding leaves the last Cholesky pivot at or just above 0
        # varies from batch to batch; the verdict and its message must not.
        messages = set()
        for k in (1.0, 2.0, 3.0, 0.1):
            for seed in range(200):
                x = np.random.default_rng(seed).normal(size=(20, 3))
                x[:, 2] = k * x[:, 0]
                with pytest.raises(ConditioningError) as err:
                    estimate_params(x)
                assert err.value.__cause__ is None
                messages.add(str(err.value))
        assert messages == {"sample covariance from 20 points in dimension 3 is numerically singular"}

    def test_rescaling_a_feature_keeps_the_fit_and_its_auc(self):
        gen = np.random.default_rng(5)
        mix = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.2], [0.0, 0.0, 1.0]])
        train = [gen.normal(size=(20, 3)) @ mix, gen.normal(size=(20, 3)) @ mix + 0.5]
        test = [gen.normal(size=(200, 3)) @ mix, gen.normal(size=(200, 3)) @ mix + 0.5]

        def auc(scale):
            fitted = TwoClassProblem(*(estimate_params(x * scale) for x in train))
            return empirical_auc(ScoreSet(*(llr_scores(x * scale, fitted) for x in test))), fitted

        base, _ = auc(np.ones(3))
        scaled, fitted = auc(np.array([1.0, 1e6, 1.0]))
        # the unscaled condition number of the rescaled covariances is far past the limit
        assert np.linalg.cond(fitted.class1.sigma) > 1e12
        assert scaled == base

    def test_single_sample_insufficient(self):
        with pytest.raises(InsufficientDataError):
            estimate_params([[1.0, 2.0]])

    def test_recovers_class2_parameters(self):
        params = GaussianParams(MU2, SIGMA2)
        x = mvn_sample(params, 100_000, SeededRng(31, 7))
        est = estimate_params(x)
        assert np.abs(est.mu - MU2).max() < 0.02 * np.abs(MU2).max()
        assert np.abs(est.sigma - SIGMA2).max() < 0.02 * np.abs(SIGMA2).max()

    def test_mean_is_arithmetic_mean(self):
        x = np.array([[0.0, 1.0], [1.0, 3.0], [2.0, 2.0], [3.0, 0.0]])
        est = estimate_params(x)
        np.testing.assert_allclose(est.mu, x.mean(axis=0), rtol=0, atol=0)
        dev = x - x.mean(axis=0)
        np.testing.assert_allclose(est.sigma, dev.T @ dev / 3.0, atol=1e-15)

    def test_bit_equal_to_the_mean_and_symmetrized_scatter(self):
        gen = np.random.default_rng(53)
        for p in range(1, 17):
            for n in (p + 3, 40 * p):
                x = 2.0 + gen.normal(size=(n, p)) * gen.uniform(0.1, 10.0, size=p)
                est = estimate_params(x)
                dev = x - x.mean(axis=0)
                s = dev.T @ dev / (n - 1)
                assert np.array_equal(est.mu, x.mean(axis=0)), (p, n)
                assert np.array_equal(est.sigma, 0.5 * (s + s.T)), (p, n)

    def test_convergence_schedule(self):
        params = GaussianParams(MU2, SIGMA2)
        errs = []
        for i, n in enumerate((1_000, 10_000, 100_000)):
            x = mvn_sample(params, n, SeededRng(404, i))
            est = estimate_params(x)
            errs.append(np.abs(est.sigma - SIGMA2).max() / np.abs(SIGMA2).max())
        # non-increasing within a 10% noise margin
        assert errs[1] <= errs[0] * 1.1
        assert errs[2] <= errs[1] * 1.1


class TestMahalanobis:
    def test_coincident_means(self):
        assert np.sqrt(mahalanobis_sq([1.0, 2.0], [1.0, 2.0], np.eye(2))) == 0.0

    def test_eleven_dimensional_calibration_point(self):
        # c = 0.27 with p = 11: distance 0.27*sqrt(11), squared ~ 0.8019
        mu2 = np.full(11, 0.27)
        d = np.sqrt(mahalanobis_sq(np.zeros(11), mu2, np.eye(11)))
        assert d == pytest.approx(0.8954886933959579, rel=1e-12)
        assert mahalanobis_sq(np.zeros(11), mu2, np.eye(11)) == pytest.approx(0.8019, abs=1e-12)

    def test_one_dimensional(self):
        assert np.sqrt(mahalanobis_sq([2.0], [0.0], [[4.0]])) == pytest.approx(1.0, rel=1e-14)

    def test_features_in_far_apart_units(self):
        # one standard deviation along each axis; the unscaled condition number is 1e14
        d = np.sqrt(mahalanobis_sq([0.0, 0.0], [1e-4, 1e3], np.diag([1e-8, 1e6])))
        assert d == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=2 * 3).reshape(2, 3)
        A = rng.normal(size=(3, 3))
        S = A @ A.T + np.eye(3)
        assert np.sqrt(mahalanobis_sq(a, b, S)) == pytest.approx(np.sqrt(mahalanobis_sq(b, a, S)), abs=1e-14)

    def test_invariance_under_linear_maps(self):
        rng = np.random.default_rng(17)
        mu1 = rng.normal(size=4)
        mu2 = rng.normal(size=4)
        B = rng.normal(size=(4, 4))
        S = B @ B.T + np.eye(4)
        base = np.sqrt(mahalanobis_sq(mu1, mu2, S))
        for _ in range(20):
            A = rng.normal(size=(4, 4)) + 3.0 * np.eye(4)
            mapped = np.sqrt(mahalanobis_sq(A @ mu1, A @ mu2, A @ S @ A.T))
            assert abs(mapped - base) < 1e-10

    def test_hand_elimination(self):
        # Sigma^-1 (1, 1) = (2.5, 2.5)
        assert mahalanobis_sq([1.0, 1.0], [0.0, 0.0], [[0.3, 0.1], [0.1, 0.3]]) == pytest.approx(5.0, rel=1e-14)

    def test_near_singular_raises(self):
        with pytest.raises(ConditioningError):
            mahalanobis_sq([0.0, 0.0], [1.0, 2.0], [[1.0, 1.0], [1.0, 1.0 + 1e-14]])

    def test_grossly_indefinite_matrix_is_singular_without_a_warning(self):
        # its scaled off-diagonal entry, 1e200 / 1e-200, overflows: estimate
        # inf, found before any factorization (RuntimeWarnings are errors here)
        with pytest.raises(ConditioningError):
            mahalanobis_sq([0.0, 0.0], [1.0, 1.0], [[1e-200, 1e200], [1e200, 1e-200]])

    def test_indefinite_matrix_is_not_positive_definite(self):
        with pytest.raises(DecompositionError):
            mahalanobis_sq([0.0, 0.0], [1.0, 1.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            mahalanobis_sq([0.0, 0.0, 0.0], [1.0, 2.0], np.eye(2))
        with pytest.raises(ContractError):
            mahalanobis_sq([0.0, 0.0], [1.0, 2.0, 3.0], np.eye(2))
        with pytest.raises(ContractError):
            mahalanobis_sq([[0.0, 0.0], [1.0, 1.0]], [1.0, 2.0], np.eye(2))


class TestMahalanobisRows:
    # Scores are written at 17 digits, so the kernel must keep its per-row
    # summation order exactly: the terms (d_j S_jk) d_k one at a time, j
    # outer and k inner, as the loop below adds them.  The one exception is
    # a lone 2-D row, whose four terms einsum adds pairwise.
    @staticmethod
    def _problem(p, n, order, seed):
        gen = np.random.default_rng(seed)
        a = gen.normal(size=(p, p))
        params = GaussianParams(gen.normal(size=p), a @ a.T + p * np.eye(p))
        return np.asarray(3.0 * gen.normal(size=(n, p)), order=order), params

    @staticmethod
    def _pairwise(X, params):
        (d0, d1), = (X - params.mu).tolist()
        (s00, s01), (s10, s11) = params.sigma_inv.tolist()
        return (d0 * s00 * d0 + d0 * s01 * d1) + (d1 * s10 * d0 + d1 * s11 * d1)

    @pytest.mark.parametrize(
        "p, n, order",
        [(p, n, order) for p in (1, 2, 3, 7, 11) for n in (1, 2, 3, 20, 257, 1000) for order in "CF"],
    )
    def test_bit_identical_to_row_major_einsum(self, p, n, order):
        X, params = self._problem(p, n, order, 1000 * p + n)
        S = params.sigma_inv.tolist()
        oracle = []
        for d in (X - params.mu).tolist():
            q = 0.0
            for j in range(p):
                for k in range(p):
                    q += d[j] * S[j][k] * d[k]
            oracle.append(q)
        if (p, n) == (2, 1):
            oracle = [self._pairwise(X, params)]
        assert np.array_equal(mahalanobis_sq_rows(X, params), oracle)

    def test_a_lone_2d_row_is_summed_pairwise(self):
        differs = 0
        for seed in range(40):
            X, params = self._problem(2, 1, "C", seed)
            got = mahalanobis_sq_rows(X, params)[0]
            assert got == self._pairwise(X, params)
            # the same row inside a batch of two takes the j-outer, k-inner sum
            differs += got != mahalanobis_sq_rows(np.vstack([X, X]), params)[0]
        assert differs > 0
