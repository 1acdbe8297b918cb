"""Problem set and output checks of the exact-density workload.

Everything here is independent of llrlab's own numerics: geometry is
classified from numpy inverses, simulated scores come from numpy's own
generator and log-density formula, and the checks integrate the tabulated
grids with numpy.  A bug in the code under test therefore cannot make its
own check pass.

Known defects of the code under test, which the set keeps in view (the
problems that can hit one are tagged with it; every other problem must pass
every check):

- ``parabolic``: a rank-one precision difference makes d2 = 0 exactly; when
  it rounds below zero the density is all zero (ROADMAP item 1).
- ``saddle``: when the score has a saddle (hyperbolic problems, and linear
  ones whose x2 coefficient changes sign), its log singularity is not
  resolved and the grid's mass is off by a percent or more.
- ``edge-singularity``: a score of x1 alone with a vertex inside the classes
  has a 1/sqrt singularity at the support edge; the densities are exact but
  the trapezoid integral of the default grid is not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GEOMETRIES = ("ellipse", "hyperbolic", "linear", "x1_only", "parabolic")

#: Seed-drawn problems per geometry class, on top of the two fixed problems.
PER_GEOMETRY = 2

#: Simulated scores per class for the KS check.
SIM_SIZE = 20_000

H_POINTS = 801

# Tolerances of the acceptance suite (criteria 1 and 2).
MASS_TOL = 1e-3
KS_TOL = 0.02
RATIO_TOL = 1e-6
RATIO_FLOOR = 1e-8
AUC_TOL = 0.01
#: Two-sample KS bound for the CLI's 10k scores per class against the 20k
#: simulated here: sqrt(1/10k + 1/20k) = 0.0122, so the bound is 2.45 times
#: the statistic's scale, for a false alarm rate of 2 exp(-2 * 2.45^2) = 1e-5.
KS2_TOL = 0.03


@dataclass(frozen=True)
class Problem:
    """One 2-D two-class problem: means, covariances and its geometry tag."""

    name: str
    geometry: str
    mu1: tuple
    sigma1: tuple
    mu2: tuple
    sigma2: tuple
    #: the defect of this commit the problem may hit, or None if it must pass
    known_defect: str | None = None


def _problem(name, geometry, mu1, s1, mu2, s2, known_defect=None) -> Problem:
    def vec(v):
        return tuple(float(x) for x in v)

    def mat(m):
        return tuple(vec(row) for row in np.asarray(m, dtype=float))

    return Problem(name, geometry, vec(mu1), mat(s1), vec(mu2), mat(s2), known_defect)


def _precision_shift(sigma, shift) -> np.ndarray:
    """The covariance whose precision is inv(sigma) + shift."""
    out = np.linalg.inv(np.linalg.inv(np.asarray(sigma)) + np.asarray(shift))
    return 0.5 * (out + out.T)


COUNTER_EXAMPLE = _problem(
    "counter-example", "ellipse", (2, 2), [[1, 0.2], [0.2, 1]], (1, 1), [[0.3, 0.1], [0.1, 0.3]]
)
ROADMAP_ITEM1 = _problem(
    "item1-reproducer", "parabolic", (1, 0), [[1, 0.2], [0.2, 1]], (0, 0), [[1, 0.2], [0.2, 1.1]],
    "parabolic",
)

_S = ((1.0, 0.3), (0.3, 0.8))

#: Two representatives per geometry class: (mu1, sigma1, mu2, sigma2, defect).
#: The first must pass every check at this commit; the second of the
#: ellipse class must too, the second of every other class meets a defect.
SHAPES = {
    "ellipse": (
        ((0.5, -0.3), ((1.2, 0.3), (0.3, 0.9)), (-0.4, 0.6), ((0.4, 0.05), (0.05, 0.35)), None),
        ((0.0, 0.4), ((0.6, 0.1), (0.1, 0.5)), (0.8, 0.0), ((1.5, -0.3), (-0.3, 1.2)), None),
    ),
    "hyperbolic": (
        # Axis-aligned swapped variances: mass 1.585 on the default grid.
        ((0.0, 0.0), ((2.0, 0.0), (0.0, 0.5)), (1.0, 1.0), ((0.5, 0.0), (0.0, 2.0)), "saddle"),
        # Swapped principal variances at 30 degrees, saddle near mu1.
        ((0.3, -0.2), ((1.475, 0.5629), (0.5629, 0.825)), (-0.0202, 0.5854),
         ((0.825, -0.5629), (-0.5629, 1.475)), "saddle"),
    ),
    "linear": (
        ((1.0, 0.5), _S, (0.0, -0.3), _S, None),
        # Precision difference with a zero (2, 2) entry: the x2 coefficient
        # changes sign, at a saddle near mu1.
        ((0.2, 0.1), _S, (0.2514, 0.1365), _precision_shift(_S, ((0.2, 0.2), (0.2, 0.0))), "saddle"),
    ),
    "x1_only": (
        ((1.0, 0.2), ((1.0, 0.0), (0.0, 1.5)), (0.0, 0.2), ((1.0, 0.0), (0.0, 1.5)), None),
        ((0.2, 0.0), ((0.8, 0.0), (0.0, 1.2)), (0.0, 0.0), ((2.0, 0.0), (0.0, 1.2)), "edge-singularity"),
    ),
    "parabolic": (
        ((0.5, 0.5), ROADMAP_ITEM1.sigma1, (-0.5, 0.0), ROADMAP_ITEM1.sigma2, "parabolic"),
        ((1.0, 0.0), ((1.0, 0.2), (0.2, 1.0)), (0.0, 0.0), ((1.0, 0.2), (0.2, 1.001)), "parabolic"),
    ),
}


def _draw(geometry: str, variant: int, rng) -> Problem:
    """A class representative under a seed-drawn common affine map.

    x -> D x + t applied to both classes leaves the score of every point,
    and so the score distributions, their ROC and the h grid, unchanged: a
    draw moves the problem, not its difficulty or its defects.  D is
    diagonal, which keeps the geometry class.  Parabolic problems are only
    translated, because their defect depends on how d2 = 0 rounds, which a
    scaling would redraw.
    """
    mu1, s1, mu2, s2, defect = SHAPES[geometry][variant % 2]
    t = rng.normal(0.0, 1.0, 2)
    d = np.ones(2) if geometry == "parabolic" else np.exp(rng.uniform(np.log(0.5), np.log(2.0), 2))
    dd = np.outer(d, d)
    return _problem(f"{geometry}-{variant}", geometry, d * np.array(mu1) + t, dd * np.array(s1),
                    d * np.array(mu2) + t, dd * np.array(s2), defect)


def geometry_of(mu1, sigma1, mu2, sigma2) -> str:
    """Geometry class of the score conic, from the precision difference.

    With dP = inv(S1) - inv(S2), the x2^2 coefficient of the score is
    -dP[1,1]/2 and the x1-discriminant coefficient is d2 = -det(dP).
    """
    p1 = np.linalg.inv(np.asarray(sigma1, dtype=float))
    p2 = np.linalg.inv(np.asarray(sigma2, dtype=float))
    dp = p1 - p2
    scale = max(np.abs(p1).max(), np.abs(p2).max())
    tol = 1e-9 * scale
    if abs(dp[1, 1]) <= tol:
        x2_coeff = (p1 @ np.asarray(mu1, dtype=float) - p2 @ np.asarray(mu2, dtype=float))[1]
        return "x1_only" if abs(dp[0, 1]) <= tol and abs(x2_coeff) <= tol else "linear"
    det = dp[0, 0] * dp[1, 1] - dp[0, 1] * dp[0, 1]
    if abs(det) <= 1e-9 * scale * scale:
        return "parabolic"
    return "ellipse" if det > 0.0 else "hyperbolic"


def problem_set(seed: int) -> list[Problem]:
    """The two fixed problems plus PER_GEOMETRY seed-drawn ones per class."""
    rng = np.random.default_rng([seed, 0xD5])
    out = [COUNTER_EXAMPLE, ROADMAP_ITEM1]
    for geometry in GEOMETRIES:
        for k in range(PER_GEOMETRY):
            prob = _draw(geometry, k, rng)
            found = geometry_of(prob.mu1, prob.sigma1, prob.mu2, prob.sigma2)
            if found != geometry:
                raise RuntimeError(f"generator drew a {found} problem for class {geometry}")
            out.append(prob)
    return out


def simulate_scores(prob: Problem, label: int, n: int, rng) -> np.ndarray:
    """Exact log-likelihood-ratio scores of n draws from one class."""
    mus = (np.array(prob.mu1), np.array(prob.mu2))
    sigmas = (np.array(prob.sigma1), np.array(prob.sigma2))
    x = mus[label - 1] + rng.standard_normal((n, 2)) @ np.linalg.cholesky(sigmas[label - 1]).T

    def logpdf(mu, sigma):
        d = x - mu
        q = np.sum((d @ np.linalg.inv(sigma)) * d, axis=1)
        return -0.5 * (q + np.linalg.slogdet(sigma)[1])

    return logpdf(mus[0], sigmas[0]) - logpdf(mus[1], sigmas[1])


def _trapezoid_cdf(h: np.ndarray, f: np.ndarray) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(h))])


def ks_distance(h: np.ndarray, f: np.ndarray, scores: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of scores from the tabulated density."""
    s = np.sort(scores)
    cdf = np.interp(s, h, _trapezoid_cdf(h, f), left=0.0)
    n = s.size
    return float(max(np.abs(cdf - np.arange(1, n + 1) / n).max(), np.abs(cdf - np.arange(n) / n).max()))


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between two samples' empirical CDFs."""
    a, b = np.sort(a), np.sort(b)
    at = np.concatenate([a, b])
    return float(np.abs(np.searchsorted(a, at, side="right") / a.size
                        - np.searchsorted(b, at, side="right") / b.size).max())


def mann_whitney_auc(s1: np.ndarray, s2: np.ndarray) -> float:
    s2 = np.sort(s2)
    wins = np.searchsorted(s2, s1, side="left").sum()
    ties = (np.searchsorted(s2, s1, side="right") - np.searchsorted(s2, s1, side="left")).sum()
    return float((2 * wins + ties) / (2 * s1.size * s2.size))


def check_pair(h, f1, f2, fpf, tpf, sims) -> dict:
    """Failed checks of one problem, per class label: {1: [...], 2: [...]}.

    Per grid: unit mass and KS against the simulated scores.  Per problem
    (charged to both grids): the ratio law f1 = e^h f2 where both densities
    exceed a floor, and the density ROC's area against the Mann-Whitney
    area of the simulated scores.
    """
    h = np.asarray(h, dtype=float)
    failed = {1: [], 2: []}
    for label, f in ((1, f1), (2, f2)):
        f = np.asarray(f, dtype=float)
        if not np.all(np.isfinite(f)) or abs(np.trapezoid(f, h) - 1.0) > MASS_TOL:
            failed[label].append("mass")
        if ks_distance(h, f, sims[label]) > KS_TOL:
            failed[label].append("ks")
    f1, f2 = np.asarray(f1, dtype=float), np.asarray(f2, dtype=float)
    both = (f1 > RATIO_FLOOR) & (f2 > RATIO_FLOOR)
    shared = []
    if not np.any(both) or np.abs(f1[both] / (np.exp(h[both]) * f2[both]) - 1.0).max() > RATIO_TOL:
        shared.append("ratio")
    if fpf is not None:
        auc = float(np.sum(0.5 * (tpf[1:] + tpf[:-1]) * np.diff(fpf)))
        if not abs(auc - mann_whitney_auc(sims[1], sims[2])) <= AUC_TOL:
            shared.append("roc")
    for label in (1, 2):
        failed[label].extend(shared)
    return failed
