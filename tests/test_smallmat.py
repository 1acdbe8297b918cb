import numpy as np
import pytest
from scipy.integrate import simpson

from llrlab import cholesky, estimate_params, spd_solve, std_normal_cdf_array, std_normal_quantile_array
from llrlab.errors import ConditioningError, ContractError, DecompositionError, DomainError
from llrlab.smallmat import SYMMETRY_RTOL, condition_estimate, require_symmetric


def phi_by_integration(z: float, n: int = 200_001) -> float:
    """Independent oracle: Simpson integration of the normal density.

    Truncation below -12 contributes less than 2e-33.
    """
    xs = np.linspace(-12.0, z, n)
    pdf = np.exp(-0.5 * xs * xs) / np.sqrt(2.0 * np.pi)
    return float(simpson(pdf, x=xs))


def bisect_oracle(p: float, tol: float = 1e-12) -> float:
    """Invert the integration oracle by bisection."""
    lo, hi = -10.0, 10.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if phi_by_integration(mid, n=20_001) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestStdNormalCdf:
    def test_symmetry_at_zero(self):
        assert std_normal_cdf_array(0.0) == 0.5

    def test_against_integration_oracle(self):
        # 0.73654 frozen from phi_by_integration(0.6325)
        assert std_normal_cdf_array(0.6325) == pytest.approx(0.73654, abs=1e-4)
        assert std_normal_cdf_array(0.6325) == pytest.approx(phi_by_integration(0.6325), abs=1e-10)

    def test_975_point(self):
        # 1.959964 frozen from bisect_oracle(0.975)
        assert std_normal_cdf_array(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_strictly_increasing_and_in_unit_interval(self):
        z = np.linspace(-8.0, 8.0, 10_000)
        v = std_normal_cdf_array(z)
        assert np.all((v > 0.0) & (v < 1.0))
        assert np.all(np.diff(v) >= 0)
        # Strict increase holds wherever increments are representable; above
        # z ~ 7.7 consecutive values collide with the float64 grid below 1.
        resolvable = z[:-1] <= 7.5
        assert np.all(np.diff(v)[resolvable] > 0)

    def test_high_accuracy_on_grid(self):
        z = np.array([-5.0, -2.0, -0.5, 0.3, 1.0, 4.0])
        oracle = [phi_by_integration(v) for v in z]
        assert std_normal_cdf_array(z) == pytest.approx(oracle, abs=1e-12)


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile_array(0.5) == 0.0

    def test_round_trip(self):
        assert std_normal_quantile_array(std_normal_cdf_array(1.3)) == pytest.approx(1.3, abs=1e-9)

    def test_frozen_bisection_value(self):
        # 1.95996 frozen from bisect_oracle(0.975)
        assert std_normal_quantile_array(0.975) == pytest.approx(1.95996, abs=1e-5)

    def test_domain_errors(self):
        for p in (0.0, 1.0, -0.1, 1.1, np.nan):
            with pytest.raises(DomainError):
                std_normal_quantile_array(p)

    def test_domain_errors_inside_an_array(self):
        for p in (0.0, 1.0, -0.1, 1.1, np.nan):
            with pytest.raises(DomainError):
                std_normal_quantile_array([0.3, p])
        with pytest.raises(DomainError):
            std_normal_quantile_array(np.full((2, 3), np.nan))
        np.testing.assert_array_equal(std_normal_quantile_array([0.5, 0.975]), [0.0, std_normal_quantile_array(0.975)])

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
    @pytest.mark.parametrize("bad", [np.nan, 0.0, -0.0, 1.0, -0.1, 1.1])
    def test_array_rejects_a_bad_entry_at_every_position(self, shape, bad):
        # Fails if the range check reads np.nanmin / np.nanmax, which skip a NaN.
        for pos in np.ndindex(shape):
            p = np.full(shape, 0.5)
            p[pos] = bad
            with pytest.raises(DomainError):
                std_normal_quantile_array(p)

    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_array_of_no_probabilities_is_empty(self, shape):
        z = std_normal_quantile_array(np.empty(shape))
        assert z.shape == shape and z.dtype == np.float64

    def test_quantile_cdf_identity(self):
        z = np.linspace(-6.0, 6.0, 2_001)
        back = std_normal_quantile_array(std_normal_cdf_array(z))
        err = np.abs(back - z)
        # Above z ~ 5.6 the rounding of p toward 1 alone costs ~1e-8 in z.
        assert err[z <= 5.5].max() < 1e-9
        assert err.max() < 2e-8

    def test_cdf_of_quantile_identity(self):
        ps = np.concatenate(
            [np.geomspace(1e-12, 0.5, 500), 1.0 - np.geomspace(1e-12, 0.5, 500)]
        )
        assert np.abs(std_normal_cdf_array(std_normal_quantile_array(ps)) - ps).max() < 1e-10


def reference_cholesky(S) -> np.ndarray:
    """The column loop written out plainly: each pivot slice re-indexed and
    its root taken by np.sqrt.  cholesky must reproduce it bit for bit."""
    A = np.asarray(S, dtype=float)
    n = A.shape[0]
    L = np.zeros_like(A)
    for j in range(n):
        d = A[j, j] - L[j, :j] @ L[j, :j]
        L[j, j] = np.sqrt(d)
        if j + 1 < n:
            L[j + 1 :, j] = (A[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def reference_is_symmetric(S) -> bool:
    """The symmetry predicate evaluated on every matrix, with no shortcut."""
    scale = np.abs(S).max()
    return not (scale > 0 and np.abs(S - S.T).max() > SYMMETRY_RTOL * scale)


def symmetry_cases():
    """Matrices on both sides of the symmetry tolerance and at its edge."""
    rng = np.random.default_rng(29)
    cases = [np.zeros((3, 3)), np.zeros((1, 1)), np.array([[-2.5]]), np.array([[0.0, -0.0], [0.0, 1.0]])]
    for dim in (2, 3, 7):
        A = rng.normal(size=(dim, dim)) * 10.0 ** rng.integers(-3, 4)
        S = A + A.T
        # the largest entry sits on the diagonal, so no edit below moves the scale
        S[0, 0] = 3.0 * np.abs(S).max()
        cases.append(S)
        tol = SYMMETRY_RTOL * S[0, 0]
        for gap in (0.5 * tol, np.nextafter(tol, 0.0), tol, np.nextafter(tol, np.inf), 2.0 * tol):
            # the gap sits against a zero partner, so max|S - S^T| is exactly gap
            edge = S.copy()
            edge[0, -1], edge[-1, 0] = gap, 0.0
            cases.append(edge)
            # and against a nonzero partner, where the difference is rounded
            shifted = S.copy()
            shifted[-1, 0] = S[0, -1] + gap
            cases.append(shifted)
    return cases


class TestRequireSymmetric:
    def test_accepts_and_rejects_as_the_full_predicate_does(self):
        # Fails if the exact-symmetry gate is written (S == S.T).any(): a
        # matrix just beyond the tolerance would then pass unchecked.
        verdicts = []
        for S in symmetry_cases():
            try:
                out = require_symmetric(S)
            except ContractError:
                accepted = False
            else:
                accepted = True
                np.testing.assert_array_equal(out, S)
            assert accepted == reference_is_symmetric(S), S
            verdicts.append(accepted)
        assert True in verdicts and False in verdicts


class TestCholesky:
    def test_bit_equal_to_the_reference_loop(self):
        # Fails if the column is multiplied by 1 / L[j, j] instead of divided.
        rng = np.random.default_rng(41)
        for dim in range(1, 17):
            for _ in range(3):
                A = rng.normal(size=(dim, dim))
                S = A @ A.T + 0.1 * dim * np.eye(dim)
                assert np.array_equal(cholesky(S), reference_cholesky(S)), dim

    def test_fitted_scatters_are_bit_equal_to_the_reference_loop(self):
        rng = np.random.default_rng(43)
        for dim in range(1, 17):
            for n in (dim + 3, 5 * dim + 10):
                sigma = estimate_params(rng.normal(size=(n, dim)) + 0.3).sigma
                assert np.array_equal(cholesky(sigma), reference_cholesky(sigma)), (dim, n)

    def test_identity(self):
        np.testing.assert_array_equal(cholesky(np.eye(2)), np.eye(2))

    def test_reconstruction_counterexample_sigma(self):
        S = np.array([[1.0, 0.2], [0.2, 1.0]])
        L = cholesky(S)
        assert np.abs(L @ L.T - S).max() < 1e-12
        assert np.allclose(np.tril(L), L)
        assert np.all(np.diag(L) > 0)

    def test_indefinite_matrix_names_pivot(self):
        with pytest.raises(DecompositionError) as exc:
            cholesky([[1.0, 2.0], [2.0, 1.0]])
        assert exc.value.pivot == 1

    def test_random_spd_reconstruction(self):
        rng = np.random.default_rng(7)
        for dim in range(1, 17):
            A = rng.normal(size=(dim, dim))
            S = A @ A.T + dim * np.eye(dim)
            L = cholesky(S)
            assert np.abs(L @ L.T - S).max() <= 1e-10 * np.abs(S).max()

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractError):
            cholesky([[1.0, 0.5], [0.0, 1.0]])


class TestSpdSolve:
    def test_identity(self):
        v = np.array([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(spd_solve(np.eye(3), v), v)

    def test_hand_elimination(self):
        x = spd_solve([[0.3, 0.1], [0.1, 0.3]], [1.0, 1.0])
        np.testing.assert_allclose(x, [2.5, 2.5], atol=1e-14)

    def test_near_singular_raises(self):
        S = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        with pytest.raises(ConditioningError):
            spd_solve(S, [1.0, 2.0])

    def test_consistency_random(self):
        rng = np.random.default_rng(11)
        for dim in (2, 5, 9, 16):
            A = rng.normal(size=(dim, dim))
            S = A @ A.T + dim * np.eye(dim)
            v = rng.normal(size=dim)
            x = spd_solve(S, v)
            assert np.linalg.norm(S @ x - v) <= 1e-10 * np.linalg.norm(v)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            spd_solve(np.eye(2), [1.0, 2.0, 3.0])

    def test_grossly_indefinite_matrix_is_singular_without_a_warning(self):
        # its scaled off-diagonal entry, 1e200 / 1e-200, overflows: estimate
        # inf (RuntimeWarnings are errors here)
        with pytest.raises(ConditioningError):
            spd_solve([[1e-200, 1e200], [1e200, 1e-200]], [1.0, 1.0])


def test_condition_estimate_scales():
    # the estimate is that of the correlation matrix, so no diagonal
    # scaling, i.e. no choice of feature units, moves it
    assert condition_estimate(np.eye(4)) == pytest.approx(1.0)
    assert condition_estimate(np.diag([1e6, 1e-8])) == pytest.approx(1.0)
    gen = np.random.default_rng(19)
    A = gen.normal(size=(5, 5))
    S = A @ A.T + 0.01 * np.eye(5)
    base = condition_estimate(S)
    assert base > 10.0
    for scale in (np.array([1.0, 1e6, 1.0, 1.0, 1.0]), np.geomspace(1e-8, 1e8, 5)):
        assert condition_estimate(scale[:, None] * S * scale) == pytest.approx(base, rel=1e-9)
    assert condition_estimate([[1.0, 1.0], [1.0, 1.0 + 1e-14]]) > 1e12


@pytest.mark.parametrize("diagonal", [[1.0, 0.0], [-1.0, 2.0], [0.0, -0.0]])
def test_condition_estimate_without_a_positive_diagonal_is_infinite(diagonal):
    # RuntimeWarnings are errors here, so this also checks that no warning is raised
    S = np.diag(diagonal)
    S[0, 1] = S[1, 0] = 0.5
    assert condition_estimate(S) == np.inf
