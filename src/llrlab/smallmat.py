"""Small dense linear algebra and scalar normal-distribution utilities.

Everything here is pure and stateless.  Matrices are plain 2-D float64
numpy arrays, vectors are 1-D arrays; the helpers below validate shape
and finiteness at the public entry points.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import ConditioningError, ContractError, DecompositionError, DomainError

#: Condition-number estimate above which a matrix is treated as singular.
CONDITION_LIMIT = 1e12
#: Relative asymmetry max|S - S^T| / max|S| above which a matrix is rejected.
SYMMETRY_RTOL = 1e-12

_SQRT2 = np.sqrt(2.0)


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array of length >= 1."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ContractError(f"{name} must be 1-D with at least one entry, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ContractError(f"{name} contains non-finite entries")
    return arr


def as_integer(n, name: str, least: int | None = None) -> int:
    """An int or numpy integer (a bool is neither) as int, not below ``least``."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or (least is not None and n < least):
        bound = "" if least is None else f" of at least {least}"
        raise ContractError(f"{name} must be an integer{bound}, got {n!r}")
    return int(n)


def read_only_copy(a, dtype=float) -> np.ndarray:
    """A read-only copy of ``a``: what a value type keeps of its caller's arrays."""
    arr = np.array(a, dtype=dtype)
    arr.flags.writeable = False
    return arr


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array with rows, cols >= 1."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ContractError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ContractError(f"{name} contains non-finite entries")
    return arr


def require_symmetric(S, name: str = "matrix") -> np.ndarray:
    """Validate that S is square and symmetric within SYMMETRY_RTOL."""
    arr = as_matrix(S, name)
    if arr.shape[0] != arr.shape[1]:
        raise ContractError(f"{name} must be square, got shape {arr.shape}")
    # an exactly symmetric matrix has max|S - S^T| = 0, which no tolerance exceeds
    if not (arr == arr.T).all():
        scale = np.abs(arr).max()
        if scale > 0 and np.abs(arr - arr.T).max() > SYMMETRY_RTOL * scale:
            raise ContractError(f"{name} is not symmetric within relative tolerance {SYMMETRY_RTOL:g}")
    return arr


def std_normal_cdf(z: float) -> float:
    """Standard normal CDF, accurate to better than 1e-12 everywhere.

    Evaluated through the complementary error function, which keeps full
    relative accuracy deep in the lower tail.
    """
    return float(0.5 * special.erfc(-float(z) / _SQRT2))


def std_normal_quantile(p: float) -> float:
    """Inverse of :func:`std_normal_cdf` for p strictly inside (0, 1)."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile requires 0 < p < 1, got {p!r}")
    return float(special.ndtri(p))


def std_normal_cdf_array(z) -> np.ndarray:
    """Vectorized standard normal CDF."""
    return 0.5 * special.erfc(-np.asarray(z, dtype=float) / _SQRT2)


def std_normal_quantile_array(p) -> np.ndarray:
    """Vectorized normal quantile; every entry must lie strictly in (0, 1),
    so a NaN entry is a :class:`DomainError`, as it is for the scalar form."""
    arr = np.asarray(p, dtype=float)
    # a NaN makes min or max NaN, which fails its comparison
    if arr.size and not (arr.min() > 0.0 and arr.max() < 1.0):
        raise DomainError("quantile requires all probabilities strictly inside (0, 1)")
    return special.ndtri(arr)


def cholesky(S) -> np.ndarray:
    """Lower-triangular Cholesky factor L with L @ L.T == S.

    Raises :class:`DecompositionError` carrying the index of the first
    non-positive pivot when S is not positive definite.
    """
    A = require_symmetric(S, "cholesky input")
    n = A.shape[0]
    L = np.zeros_like(A)
    for j in range(n):
        row = L[j, :j]
        d = A[j, j] - row @ row
        if d <= 0.0:
            raise DecompositionError(
                f"matrix is not positive definite: pivot {j} is {d:.6g}", pivot=j
            )
        # math.sqrt rounds correctly, as np.sqrt does
        root = L[j, j] = math.sqrt(d)
        if j + 1 < n:
            L[j + 1 :, j] = (A[j + 1 :, j] - L[j + 1 :, :j] @ row) / root
    return L


def chol_logdet(L: np.ndarray) -> float:
    """log det(S) from the Cholesky factor of S (sum of squared diagonals)."""
    return float(2.0 * np.sum(np.log(np.diag(L))))


def condition_estimate(S) -> float:
    """2-norm condition estimate of a symmetric matrix via its eigenvalues.

    Returns inf when the spectrum touches zero.
    """
    A = require_symmetric(S, "condition input")
    eig = np.abs(np.linalg.eigvalsh(A))
    if eig.min() == 0.0:
        return np.inf
    return float(eig.max() / eig.min())


def spd_solve(S, v) -> np.ndarray:
    """Solve S x = v for symmetric positive definite S.

    Raises :class:`ConditioningError` when the condition estimate exceeds
    :data:`CONDITION_LIMIT`, and :class:`DecompositionError` when S is not
    positive definite at all.
    """
    A = require_symmetric(S, "spd_solve matrix")
    b = as_vector(v, "spd_solve rhs")
    if A.shape[0] != b.shape[0]:
        raise ContractError(
            f"dimension mismatch: matrix is {A.shape[0]}x{A.shape[1]}, rhs has {b.shape[0]}"
        )
    cond = condition_estimate(A)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise ConditioningError(f"matrix condition estimate {cond:.3g} exceeds {CONDITION_LIMIT:g}")
    L = cholesky(A)
    y = np.linalg.solve(L, b)
    return np.linalg.solve(L.T, y)


def triangular_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix (used for Sigma^-1 = Linv.T Linv)."""
    return np.linalg.solve(L, np.eye(L.shape[0]))
