"""Performance measurement: empirical error fractions, ROC curves, the
Mann-Whitney AUC estimator, and the two-parameter binormal ROC model.

Tie conventions, fixed throughout:
  * error fractions use strict inequalities, so scores equal to the
    threshold count toward neither error;
  * the pairwise AUC kernel scores 1 / 0.5 / 0 for win / tie / loss;
  * the ROC sweep classifies "class 1 when score > t", one point per
    distinct pooled score, so tied scores trace diagonal segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import smallmat
from .csvio import csv_text
from .errors import ContractError, DomainError, InsufficientDataError


def _finite_scores(values, name: str) -> np.ndarray:
    arr = smallmat.read_only_copy(np.ravel(values))
    if arr.size and not np.isfinite(arr).all():
        raise ContractError(f"{name} contains non-finite scores")
    return arr


@dataclass(frozen=True, eq=False)
class ScoreSet:
    """Labeled decision scores for the two classes, kept as read-only copies."""

    class1_scores: np.ndarray
    class2_scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "class1_scores", _finite_scores(self.class1_scores, "class1_scores"))
        object.__setattr__(self, "class2_scores", _finite_scores(self.class2_scores, "class2_scores"))

    def require_nonempty(self):
        if self.class1_scores.size == 0 or self.class2_scores.size == 0:
            raise ContractError("estimator operations need at least one score per class")

    def swapped(self) -> "ScoreSet":
        return ScoreSet(self.class2_scores, self.class1_scores)


def _count_arrays(counts, n, frac: np.ndarray, counts_name: str, n_name: str) -> tuple[int, np.ndarray]:
    """Validated (class size, read-only count copy) for one class of a ROC curve."""
    n = smallmat.as_integer(n, n_name, 1)
    counts = smallmat.read_only_copy(counts, None)
    if counts.dtype.kind not in "iu":
        raise ContractError(f"{counts_name} must be an integer array, got dtype {counts.dtype}")
    if counts.shape != frac.shape:
        raise ContractError(f"{counts_name} has shape {counts.shape}, the curve {frac.shape}")
    if counts[0] != 0 or counts[-1] != n or np.any(counts[1:] < counts[:-1]):
        raise ContractError(f"{counts_name} must run non-decreasing from 0 to {n_name} = {n}")
    if not np.array_equal(frac, counts / n):
        raise ContractError(f"{counts_name} / {n_name} does not give the curve's fractions exactly")
    return n, counts


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Ordered (FPF, TPF) points with the generating threshold per point.

    Threshold sentinels +inf / -inf mark the (0,0) and (1,1) anchors.  When
    the curve comes from an empirical sweep, the integer true/false positive
    counts are kept alongside so that areas can be accumulated exactly.
    The counts come with the class sizes n1, n2 >= 1 or not at all; each
    runs from 0 to its class size and gives its fraction exactly, with
    tpf == tp_counts / n1 and fpf == fp_counts / n2.
    """

    fpf: np.ndarray
    tpf: np.ndarray
    thresholds: np.ndarray
    tp_counts: np.ndarray | None = None
    fp_counts: np.ndarray | None = None
    n1: int | None = None
    n2: int | None = None

    def __post_init__(self):
        fpf = smallmat.read_only_copy(self.fpf)
        tpf = smallmat.read_only_copy(self.tpf)
        th = smallmat.read_only_copy(self.thresholds)
        if not (fpf.shape == tpf.shape == th.shape) or fpf.ndim != 1 or fpf.size < 2:
            raise ContractError("a ROC curve needs matching 1-D arrays with at least 2 points")
        if np.any(np.isnan(fpf)) or np.any(np.isnan(tpf)):
            raise ContractError("ROC coordinates must not be NaN")
        if fpf[0] != 0.0 or tpf[0] != 0.0 or fpf[-1] != 1.0 or tpf[-1] != 1.0:
            raise ContractError("ROC curve must start at (0,0) and end at (1,1)")
        if np.any(np.diff(fpf) < 0.0) or np.any(np.diff(tpf) < 0.0):
            raise ContractError("ROC coordinates must be non-decreasing along the curve")
        for name, arr in (("fpf", fpf), ("tpf", tpf), ("thresholds", th)):
            object.__setattr__(self, name, arr)
        given = [v is not None for v in (self.tp_counts, self.fp_counts, self.n1, self.n2)]
        if any(given) and not all(given):
            raise ContractError("tp_counts, fp_counts, n1 and n2 must be given together or not at all")
        if all(given):
            for counts_name, n_name, frac in (("tp_counts", "n1", tpf), ("fp_counts", "n2", fpf)):
                n, counts = _count_arrays(getattr(self, counts_name), getattr(self, n_name), frac,
                                          counts_name, n_name)
                object.__setattr__(self, counts_name, counts)
                object.__setattr__(self, n_name, n)

    def __len__(self) -> int:
        return self.fpf.size

    @property
    def has_counts(self) -> bool:
        return self.tp_counts is not None

    def to_csv(self) -> str:
        """Schema: fpf,tpf,threshold with inf/-inf at the anchors."""
        return csv_text(("fpf", "tpf", "threshold"), (self.fpf, self.tpf, self.thresholds))


@dataclass(frozen=True)
class BinormalFit:
    """Straight-line fit in double-normal-deviate space.

    ``a`` is the intercept, ``b`` the slope; ``residual`` is the RMS
    deviation of the deviate points from the line (0 for an exact fit).
    A proper fit has b > 0.  ``z_fpf`` and ``z_tpf`` are the deviate
    points the line was fitted to, read-only.
    """

    a: float
    b: float
    residual: float
    z_fpf: np.ndarray = field(repr=False, compare=False)
    z_tpf: np.ndarray = field(repr=False, compare=False)


def _win_tie_counts(s1: np.ndarray, s2: np.ndarray) -> tuple[int, int]:
    """Exact counts of class-1-over-class-2 wins and ties across all pairs."""
    sorted2 = np.sort(s2)
    keys = np.sort(s1)  # sorted keys keep the binary searches cache-friendly
    lo = np.searchsorted(sorted2, keys, side="left")
    hi = np.searchsorted(sorted2, keys, side="right")
    return int(lo.sum()), int((hi - lo).sum())


def empirical_error_fractions(scores: ScoreSet, th: float) -> tuple[float, float]:
    """(FNF, FPF) at a fixed threshold; ties at th count toward neither."""
    scores.require_nonempty()
    th = float(th)
    fnf = np.count_nonzero(scores.class1_scores < th) / scores.class1_scores.size
    fpf = np.count_nonzero(scores.class2_scores > th) / scores.class2_scores.size
    return float(fnf), float(fpf)


def empirical_auc(scores: ScoreSet) -> float:
    """Pairwise win/tie/loss AUC estimate (the Mann-Whitney statistic)."""
    scores.require_nonempty()
    wins, ties = _win_tie_counts(scores.class1_scores, scores.class2_scores)
    n1 = scores.class1_scores.size
    n2 = scores.class2_scores.size
    return (2 * wins + ties) / (2 * n1 * n2)


def empirical_roc(scores: ScoreSet) -> RocCurve:
    """Threshold sweep over every distinct pooled score, plus anchors.

    At threshold t the operating point is (#{s2 > t}/n2, #{s1 > t}/n1);
    the integer counts are retained on the returned curve.

    Both counts come from one stable merge of the sorted classes: at the
    last merged position i of each run of equal scores t, the running count
    of class-1 positions is #{s1 <= t}, and the other i + 1 - #{s1 <= t} are
    #{s2 <= t}.  The thresholds themselves come from ``np.unique``, whose
    sort decides which signed zero a tie of -0.0 and 0.0 keeps.
    """
    scores.require_nonempty()
    s1 = np.sort(scores.class1_scores)
    s2 = np.sort(scores.class2_scores)
    n1, n2 = s1.size, s2.size
    both = np.concatenate([s1, s2])
    order = np.argsort(both, kind="stable")
    merged = both[order]
    last = np.append(np.flatnonzero(merged[1:] != merged[:-1]), merged.size - 1)[::-1]
    le1 = np.cumsum(order < n1)[last]
    tp = n1 - le1
    fp = n2 - (last + 1 - le1)
    pooled = np.unique(both)[::-1]
    tp_counts = np.concatenate([[0], tp, [n1]])
    fp_counts = np.concatenate([[0], fp, [n2]])
    thresholds = np.concatenate([[np.inf], pooled, [-np.inf]])
    return RocCurve(
        fpf=fp_counts / n2,
        tpf=tp_counts / n1,
        thresholds=thresholds,
        tp_counts=tp_counts.astype(np.int64),
        fp_counts=fp_counts.astype(np.int64),
        n1=n1,
        n2=n2,
    )


def trapezoid_auc(curve: RocCurve) -> float:
    """Area under the curve by the trapezoid rule.

    Curves carrying integer sweep counts are accumulated in exact int64
    arithmetic, so the result coincides bit-for-bit with the pairwise AUC
    estimate of the generating scores; beyond 2^62 score pairs that sum could
    overflow, which is a :class:`ContractError`.
    """
    if curve.has_counts:
        n1, n2 = curve.n1, curve.n2
        # every partial sum of the doubled area is at most 2 n1 n2
        if 2 * n1 * n2 >= 2**63:
            raise ContractError(f"{n1} x {n2} score pairs overflow the exact int64 area sum")
        tp = np.asarray(curve.tp_counts, dtype=np.int64)
        dfp = np.diff(np.asarray(curve.fp_counts, dtype=np.int64))
        area2 = int(np.sum((tp[:-1] + tp[1:]) * dfp))
        return area2 / (2 * n1 * n2)
    x, y = curve.fpf, curve.tpf
    return float(np.sum(0.5 * (y[:-1] + y[1:]) * np.diff(x)))


def binormal_tpf(a: float, b: float, fpf: float) -> float:
    """TPF of the binormal ROC whose deviate plot is the line a + b*z."""
    fpf = float(fpf)
    if not 0.0 < fpf < 1.0:
        raise DomainError(f"binormal_tpf needs 0 < fpf < 1, got {fpf!r}")
    return smallmat.std_normal_cdf(a + b * smallmat.std_normal_quantile(fpf))


def binormal_tpf_array(a: float, b: float, fpf) -> np.ndarray:
    """Vectorized :func:`binormal_tpf`."""
    z = smallmat.std_normal_quantile_array(fpf)
    return smallmat.std_normal_cdf_array(a + b * z)


def binormal_auc(a: float, b: float) -> float:
    """Area under the binormal ROC: Phi(a / sqrt(1 + b^2)) for b > 0."""
    b = float(b)
    if b <= 0.0:
        raise DomainError(f"binormal_auc needs slope b > 0, got {b!r}")
    return smallmat.std_normal_cdf(float(a) / np.sqrt(1.0 + b * b))


def normal_deviate_fit(curve: RocCurve) -> BinormalFit:
    """Least-squares line through the curve's interior points in deviate space.

    Points with FPF or TPF at exactly 0 or 1 have no finite deviate and are
    excluded; at least three usable points are required, at two or more
    distinct FPFs (a vertical line has no least-squares slope).
    """
    mask = (curve.fpf > 0.0) & (curve.fpf < 1.0) & (curve.tpf > 0.0) & (curve.tpf < 1.0)
    if np.count_nonzero(mask) < 3:
        raise InsufficientDataError(
            f"normal-deviate fit needs >= 3 interior points, found {np.count_nonzero(mask)}"
        )
    x = smallmat.std_normal_quantile_array(curve.fpf[mask])
    y = smallmat.std_normal_quantile_array(curve.tpf[mask])
    if x.min() == x.max():
        raise InsufficientDataError(
            f"normal-deviate fit needs >= 2 distinct interior FPFs, all are {curve.fpf[mask][0]!r}"
        )
    b, a = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - (a + b * x)) ** 2)))
    x.flags.writeable = y.flags.writeable = False
    return BinormalFit(a=float(a), b=float(b), residual=residual, z_fpf=x, z_tpf=y)


def auc_probability_identity_check(scores: ScoreSet) -> tuple[float, float]:
    """The pairwise-kernel AUC next to the direct pair-probability estimate.

    The first value is the Mann-Whitney estimate; the second is the fraction
    of (class1, class2) pairs with the class-2 score strictly below, plus
    half the tied fraction, counted by explicit enumeration.  The two are the
    same number by construction; returning both makes the identity testable.
    """
    scores.require_nonempty()
    auc_mw = empirical_auc(scores)
    s1 = scores.class1_scores
    s2 = scores.class2_scores
    wins = 0
    ties = 0
    # Explicit pairwise enumeration, chunked to bound memory.
    step = max(1, int(2**22 // max(1, s2.size)))
    for start in range(0, s1.size, step):
        block = s1[start : start + step, None]
        wins += int(np.count_nonzero(s2[None, :] < block))
        ties += int(np.count_nonzero(s2[None, :] == block))
    auc_prob = (wins + 0.5 * ties) / (s1.size * s2.size)
    return auc_mw, float(auc_prob)
