"""Multinormal class models: density evaluation, reproducible sampling,
moment estimation, and Mahalanobis separation.

Every log density of a batch of points goes through one quadratic-form
kernel, :func:`mahalanobis_sq_rows`, which also scores ``llr_scores`` and
measures ``mahalanobis_sq``; each batch of points passes :func:`as_points`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.random import Generator, Philox

from . import smallmat
from .errors import ConditioningError, ContractError, InsufficientDataError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# 53-bit uniforms are drawn as (k + 0.5) / 2^53 so that 0 and 1 are
# unreachable and the inverse-CDF transform stays finite.  For the top word
# k = 2^53 - 1 that quotient rounds to 1, so it is clamped at the largest
# double below 1.
_U53 = 1 << 53
_U53_INV = 1.0 / _U53
_U_MAX = 1.0 - _U53_INV

_LOG_2PI = np.log(2.0 * np.pi)


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class SeededRng:
    """A value-type handle on a counter-based random stream.

    The pair (seed, stream_id) fully determines the output sequence; the
    underlying generator is Philox, so distinct stream ids are independent
    and the raw bit stream does not depend on platform or execution order.
    Consumers always build a fresh generator from the value, which makes
    every drawing operation a pure function of (seed, stream_id, n).
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", smallmat.as_integer(self.seed, "seed") & _MASK64)
        object.__setattr__(self, "stream_id", smallmat.as_integer(self.stream_id, "stream_id") & _MASK64)

    def derive(self, *indices: int) -> "SeededRng":
        """Child stream obtained by mixing integer indices into stream_id.

        Deriving with the same indices always yields the same child, and
        children of distinct index tuples are distinct for all practical
        purposes (64-bit mixing).
        """
        s = self.stream_id
        for idx in indices:
            s = _splitmix64(s ^ _splitmix64(smallmat.as_integer(idx, "a derive index") & _MASK64))
        return SeededRng(self.seed, s)

    def generator(self) -> Generator:
        """Fresh numpy Generator positioned at the start of this stream."""
        return Generator(Philox(key=[self.seed, self.stream_id]))

    def uniforms(self, n: int) -> np.ndarray:
        """n uniforms strictly inside (0, 1), one 53-bit word each."""
        n = smallmat.as_integer(n, "n", 0)
        # random() is k / 2^53 for the top 53 bits k of one word, and adding
        # 2^-54 rounds exactly as (k + 0.5) / 2^53 does
        u = self.generator().random(n)
        u += 0.5 * _U53_INV
        return np.minimum(u, _U_MAX, out=u)

    def normals(self, n: int) -> np.ndarray:
        """n standard normal variates via the inverse-CDF transform.

        Exactly one uniform is consumed per variate, which keeps stream
        accounting deterministic.
        """
        return smallmat.std_normal_quantile_array(self.uniforms(n))


@dataclass(frozen=True, eq=False)
class GaussianParams:
    """Mean vector and covariance matrix of one class.

    The covariance must be symmetric positive definite; this is checked at
    construction, and the Cholesky factor is kept for reuse.  mu and sigma
    are kept as read-only copies of the caller's arrays.
    """

    mu: np.ndarray
    sigma: np.ndarray
    #: Lower Cholesky factor of sigma; factorizing at construction is the SPD check.
    chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mu = smallmat.as_vector(self.mu, "mu")
        sigma = smallmat.require_symmetric(self.sigma, "sigma")
        if sigma.shape[0] != mu.shape[0]:
            raise ContractError(
                f"mean has dimension {mu.shape[0]} but covariance is {sigma.shape[0]}x{sigma.shape[1]}"
            )
        object.__setattr__(self, "mu", smallmat.read_only_copy(mu))
        object.__setattr__(self, "sigma", smallmat.read_only_copy(sigma))
        object.__setattr__(self, "chol", smallmat.read_only_copy(smallmat.cholesky(sigma)))

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    @cached_property
    def sigma_inv(self) -> np.ndarray:
        Linv = smallmat.triangular_inverse(self.chol)
        return smallmat.read_only_copy(Linv.T @ Linv)

    @cached_property
    def log_det(self) -> float:
        return smallmat.chol_logdet(self.chol)


def as_points(x, dim: int) -> np.ndarray:
    """x as an (n, dim) float64 batch of finite points, a 1-D x as one point:
    the input rule of every function that takes a batch of points."""
    X = np.atleast_2d(np.asarray(x, dtype=float))
    if X.ndim != 2 or X.shape[1] != dim:
        raise ContractError(f"points must be rows of dimension {dim}, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ContractError("x contains non-finite entries")
    return X


def mvn_logpdf_array(x, params: GaussianParams) -> np.ndarray:
    """Log density of rows of x under the multinormal model (vectorized)."""
    X = as_points(x, params.dim)
    q = mahalanobis_sq_rows(X, params)
    p = params.dim
    return -0.5 * (q + params.log_det + p * _LOG_2PI)


def mahalanobis_sq_rows(X: np.ndarray, params: GaussianParams) -> np.ndarray:
    """(x - mu)' Sigma^-1 (x - mu) for each row x of a validated (n, dim) batch.

    The deviations are laid out as one C-contiguous (dim, n) array so that the
    row axis is einsum's inner loop, which vectorizes over rows instead of over
    a handful of features.  Each row still sums its terms (d_j S_jk) d_k with j
    outer and k inner, the order of the row-major form, except a lone 2-D row,
    whose terms einsum adds pairwise, (t00 + t01) + (t10 + t11): that point
    can differ in the last bit from its value inside a larger batch.  The
    order must not change, because `llr_scores` feeds these values into
    score files written at 17 significant digits.
    """
    dev = np.subtract(X.T, params.mu[:, None], order="C")
    return np.einsum("ji,jk,ki->i", dev, params.sigma_inv, dev)


def mvn_sample(params: GaussianParams, n: int, rng: SeededRng) -> np.ndarray:
    """Draw n vectors, returned as an (n, dim) array.

    Standard normals are generated row-major (each vector consumes dim
    consecutive variates) and mapped through the Cholesky factor, so the
    output is a pure function of (params, n, rng).
    """
    n = smallmat.as_integer(n, "n", 0)
    p = params.dim
    z = rng.normals(n * p).reshape(n, p)
    x = z @ params.chol.T
    x += params.mu
    return x


def estimate_params(samples) -> GaussianParams:
    """Sample mean and (n-1)-denominator covariance of a batch of vectors.

    Raises :class:`InsufficientDataError` when fewer than two samples are
    given, and :class:`ConditioningError` when the unit-free
    :func:`smallmat.condition_estimate` finds the covariance singular (no
    silent regularization).  Below about 60 dimensions, Cholesky provably
    succeeds on every covariance that test accepts (Higham 2002, sec. 10.1).
    """
    X = np.asarray(samples, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or not np.isfinite(X).all():
        raise ContractError("samples must be a finite 2-D batch of vectors")
    n = X.shape[0]
    if n < 2:
        raise InsufficientDataError(f"need at least 2 samples to form a covariance, got {n}")
    mu = np.add.reduce(X, axis=0) / n  # what X.mean(axis=0) computes
    dev = X - mu
    sigma = dev.T @ dev
    sigma /= n - 1
    sigma = 0.5 * (sigma + sigma.T)
    _require_conditioned(sigma, f"sample covariance from {n} points in dimension {X.shape[1]}")
    return GaussianParams(mu, sigma)


def _require_conditioned(sigma, what: str) -> None:
    """A :class:`ConditioningError` naming ``what`` when the unit-free
    :func:`smallmat.condition_estimate` finds sigma singular; run before any
    factorization, so an indefinite sigma that it finds singular is one too."""
    if smallmat.condition_estimate(sigma) > smallmat.CONDITION_LIMIT:
        raise ConditioningError(f"{what} is numerically singular")


def mahalanobis_sq(mu1, mu2, sigma) -> float:
    """Squared Mahalanobis distance (mu1-mu2)' Sigma^-1 (mu1-mu2), by
    :func:`mahalanobis_sq_rows` on N(mu2, sigma), after
    :func:`_require_conditioned`; mu1 is one point of :func:`as_points`."""
    _require_conditioned(sigma, "covariance")
    model = GaussianParams(mu2, sigma)
    X = as_points(mu1, model.dim)
    if X.shape[0] != 1:
        raise ContractError(f"mu1 must be one point, got shape {np.shape(mu1)}")
    return float(mahalanobis_sq_rows(X, model)[0])
