import numpy as np
import pytest
from scipy.integrate import simpson

from llrlab import (
    GaussianParams,
    SeededRng,
    estimate_params,
    mahalanobis,
    mahalanobis_sq,
    mvn_pdf,
    mvn_sample,
)
from llrlab.errors import (
    ConditioningError,
    ContractError,
    DecompositionError,
    InsufficientDataError,
)
from llrlab.gaussmodel import mahalanobis_sq_rows, mvn_logpdf_array, mvn_logpdf_coords
from tests.conftest import MU1, MU2, SIGMA1, SIGMA2


class TestMvnPdf:
    def test_peak_value_identity_covariance(self):
        params = GaussianParams([0.3, -0.7], np.eye(2))
        assert mvn_pdf([0.3, -0.7], params) == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-14)

    def test_counterexample_class1_at_mean(self):
        params = GaussianParams(MU1, SIGMA1)
        # direct substitution: 1 / (2 pi sqrt(0.96))
        assert mvn_pdf([2.0, 2.0], params) == pytest.approx(0.16243683359034922, rel=1e-12)
        assert mvn_pdf([2.0, 2.0], params) == pytest.approx(
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
        # spot-check the scalar entry point against the vectorized oracle path
        assert mvn_pdf(pts[12345], params) == pytest.approx(dens[12345], rel=1e-12)

    def test_maximized_at_mean(self):
        params = GaussianParams(MU2, SIGMA2)
        peak = mvn_pdf(MU2, params)
        rng = np.random.default_rng(5)
        for _ in range(50):
            assert mvn_pdf(MU2 + rng.normal(scale=0.5, size=2), params) < peak

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            mvn_pdf([1.0, 2.0, 3.0], GaussianParams([0.0, 0.0], np.eye(2)))


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
        assert mahalanobis([1.0, 2.0], [1.0, 2.0], np.eye(2)) == 0.0

    def test_eleven_dimensional_calibration_point(self):
        # c = 0.27 with p = 11: distance 0.27*sqrt(11), squared ~ 0.8019
        mu2 = np.full(11, 0.27)
        d = mahalanobis(np.zeros(11), mu2, np.eye(11))
        assert d == pytest.approx(0.8954886933959579, rel=1e-12)
        assert mahalanobis_sq(np.zeros(11), mu2, np.eye(11)) == pytest.approx(0.8019, abs=1e-12)

    def test_one_dimensional(self):
        assert mahalanobis([2.0], [0.0], [[4.0]]) == pytest.approx(1.0, rel=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=2 * 3).reshape(2, 3)
        A = rng.normal(size=(3, 3))
        S = A @ A.T + np.eye(3)
        assert mahalanobis(a, b, S) == pytest.approx(mahalanobis(b, a, S), abs=1e-14)

    def test_invariance_under_linear_maps(self):
        rng = np.random.default_rng(17)
        mu1 = rng.normal(size=4)
        mu2 = rng.normal(size=4)
        B = rng.normal(size=(4, 4))
        S = B @ B.T + np.eye(4)
        base = mahalanobis(mu1, mu2, S)
        for _ in range(20):
            A = rng.normal(size=(4, 4)) + 3.0 * np.eye(4)
            mapped = mahalanobis(A @ mu1, A @ mu2, A @ S @ A.T)
            assert abs(mapped - base) < 1e-10


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


class TestLogpdfCoords:
    # The level-curve densities of llrdist are pinned to the bytes the point
    # array path gave, so the coordinate kernel must match it bit for bit.
    # At a single 2-D point einsum adds the terms pairwise,
    # (t00 + t01) + (t10 + t11), so batches here hold at least two points.
    @staticmethod
    def _params(p, diagonal, seed):
        gen = np.random.default_rng(seed)
        if diagonal:
            return GaussianParams(gen.normal(size=p), np.diag(gen.uniform(0.2, 3.0, size=p)))
        a = gen.normal(size=(p, p))
        return GaussianParams(gen.normal(size=p), a @ a.T + 0.3 * np.eye(p))

    @pytest.mark.parametrize(
        "p, diagonal",
        [(1, True), (2, True), (2, False), (3, True), (3, False)],
    )
    @pytest.mark.parametrize("shape", [(2,), (3,), (257,), (7, 45)])
    def test_bit_identical_to_point_array_path(self, p, diagonal, shape):
        for seed in range(10):
            params = self._params(p, diagonal, seed)
            X = 3.0 * np.random.default_rng(100 + seed).normal(size=(*shape, p))
            coords = tuple(np.moveaxis(X, -1, 0))
            got = mvn_logpdf_coords(coords, params)
            assert got.shape == shape
            want = mvn_logpdf_array(X.reshape(-1, p), params).reshape(shape)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p, diagonal", [(1, True), (2, True), (2, False), (3, True)])
    def test_infinite_coordinate_gives_nan_as_before(self, p, diagonal):
        # inf * 0 in a cross term of a diagonal model is what makes it nan;
        # dropping the zero terms would give -inf instead
        params = self._params(p, diagonal, 7)
        X = np.random.default_rng(8).normal(size=(6, p))
        X[1, -1] = np.inf
        X[4, 0] = -np.inf
        with np.errstate(invalid="ignore"):
            got = mvn_logpdf_coords(tuple(X.T), params)
            want = mvn_logpdf_array(X, params)
        if p > 1:
            assert np.isnan(got[[1, 4]]).all()
        assert np.array_equal(got, want, equal_nan=True)

    def test_scalars_and_dimension_mismatch(self):
        params = GaussianParams([0.3, -0.7], np.eye(2))
        assert mvn_logpdf_coords((0.3, -0.7), params) == pytest.approx(-np.log(2.0 * np.pi), rel=1e-15)
        with pytest.raises(ContractError):
            mvn_logpdf_coords((np.zeros(3),), params)
