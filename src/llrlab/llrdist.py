"""Exact distribution of the log-likelihood-ratio score: its moments and range
for any number of features, its densities for 2-D problems.

For a two-feature problem the score is a quadratic in x2 at fixed x1,
h(x1, x2) = A x2^2 + B(x1) x2 + C(x1), so the joint density of (h, x1) is
the branch sum  sum pdf(x1, x2_root) / sqrt(D)  over the x2 roots, with
D(h, x1) = B(x1)^2 - 4 A (C(x1) - h), on the conic region D >= 0.

Marginal densities f(h|class), the score's range and its moments work in
the simultaneously diagonalized coordinates y instead, where the class
coordinates are independent normals and h = sum alpha_i y_i^2 + beta_i y_i
+ gamma.  In 2-D its level sets are conics in standard position: a normal
score, a lone square term, a parabola, an ellipse or a hyperbola, each
integrated along its level curve with a smooth integrand.

Every quadratic is solved by one cancellation-free root helper
(``_quadratic_roots``).  In the diagonal coordinates the class density is a
product of one normal per coordinate, evaluated as bells in class standard
units (``_bell``), so a level-curve point and its mirror images sum to a
product of per-coordinate pairs (``_pair_sum``): the lone square term's two
roots, a parabola point and its mirror image, the four points of a conic.
Every level-curve integral runs on one nested trapezoid engine
(``adaptive_gk_rows``) that refines the curves of all grid points together.
A conic level curve is parametrized in both coordinates, so no root is
solved along it.  The joint density of (h, x1), in the original
coordinates, takes arrays of points and scores the roots of all of them as
one batch of rows of ``gaussmodel.mvn_logpdf_array``; the support in x1 at
one score is a tuple of intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import betainc

from . import smallmat
from .bayesllr import CLASS1, CLASS2, TwoClassProblem
from .csvio import csv_text
from .errors import ContractError, SingularityError
from .gaussmodel import GaussianParams, mvn_logpdf_array
from .rocauc import RocCurve


def _require_class(label: int) -> int:
    label = smallmat.as_integer(label, "class label", CLASS1)
    if label > CLASS2:
        raise ContractError(f"class label must be {CLASS1} or {CLASS2}, got {label!r}")
    return label


def _class_params(problem: TwoClassProblem, label: int) -> GaussianParams:
    return problem.class1 if _require_class(label) == CLASS1 else problem.class2


# ---------------------------------------------------------------------------
# Score geometry: coefficients of h as a polynomial in (x1, x2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScoreGeometry:
    """Polynomial structure of the 2-D score.

    h(x1, x2) = a2 x2^2 + (b0 + b1 x1) x2 + (c0 + c1 x1 + c2 x1^2)

    ``kind`` is "quadratic" when a2 != 0, "linear" when a2 == 0 but the x2
    coefficient is not identically zero, and "x1_only" when the score does
    not involve x2 at all.  A coefficient is rounding noise below 1e-12 of
    a size that no unit or origin of the features moves (see
    :func:`score_geometry`).  An a2 below that is stored as exactly 0, so
    the root helper sees the linear case.
    """

    a2: float
    b0: float
    b1: float
    c0: float
    c1: float
    c2: float
    kind: str

    def discriminant_coeffs(self, h: float) -> tuple[float, float, float]:
        """(d2, d1, d0) of D(h, x1) = d2 x1^2 + d1 x1 + d0 at fixed h."""
        d2 = self.b1 * self.b1 - 4.0 * self.a2 * self.c2
        d1 = 2.0 * self.b0 * self.b1 - 4.0 * self.a2 * self.c1
        d0 = self.b0 * self.b0 - 4.0 * self.a2 * (self.c0 - h)
        return d2, d1, d0

    def x2_quadratic(self, h, x1):
        """(b, c, D) at (h, x1), elementwise: the x2 with score(x1, x2) = h
        are the roots of a2 x2^2 + b x2 + c, whose discriminant is
        D = b^2 - 4 a2 c; b = b0 + b1 x1 and c = c0 + c1 x1 + c2 x1^2 - h.
        A point where one of them overflows is a :class:`ContractError`
        that names it."""
        if self.kind == "x1_only":
            raise ContractError("degenerate geometry: the score depends on x1 only")
        h, x1 = np.asarray(h, dtype=float), np.asarray(x1, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            b = self.b0 + self.b1 * x1
            c = self.c0 + x1 * (self.c1 + x1 * self.c2) - h
            disc = b * b - 4.0 * self.a2 * c
        bad = ~(np.isfinite(b) & np.isfinite(c) & np.isfinite(disc))
        if bad.any():
            i = np.flatnonzero(bad)[0]
            h, x1 = np.broadcast_to(h, bad.shape).flat[i], np.broadcast_to(x1, bad.shape).flat[i]
            raise ContractError(f"the x2 quadratic of the score overflows a float at (h={h:g}, x1={x1:g})")
        return b, c, disc


def score_geometry(problem: TwoClassProblem) -> ScoreGeometry:
    """Expand the score into its (x1, x2) polynomial coefficients."""
    if problem.dim != 2:
        raise ContractError(f"the analytic path handles 2-D problems only, got dim {problem.dim}")
    p1, p2 = problem.class1, problem.class2
    (a1, b1_), (_, c1_) = p1.sigma_inv
    (a2_, b2_), (_, c2_) = p2.sigma_inv
    m11, m12 = p1.mu
    m21, m22 = p2.mu

    a2 = -0.5 * (c1_ - c2_)
    b1 = -(b1_ - b2_)
    b0 = (b1_ * m11 + c1_ * m12) - (b2_ * m21 + c2_ * m22)
    c2 = -0.5 * (a1 - a2_)
    c1 = (a1 * m11 + b1_ * m12) - (a2_ * m21 + b2_ * m22)
    c0 = (
        -0.5 * (a1 * m11 * m11 + 2.0 * b1_ * m11 * m12 + c1_ * m12 * m12)
        + 0.5 * (a2_ * m21 * m21 + 2.0 * b2_ * m21 * m22 + c2_ * m22 * m22)
        - 0.5 * (p1.log_det - p2.log_det)
    )

    # each verdict is free of the units and the origin of x1 and x2: a2 is
    # noise against the c's and b1 against the bound sqrt(a c) on each
    # precision's b.  With both noise, the x2 slope is b0 less their share,
    # b1_ (m11 - m21) + c1_ (m12 - m22), and it is noise when it moves h by
    # at most _NOISE of the score's scale over x2's reach in the class
    # windows, the rule of _diagonal_score taken in x
    if abs(a2) > 1e-12 * max(abs(c1_), abs(c2_)):
        kind = "quadratic"
    else:
        a2 = 0.0
        d = p1.mu - p2.mu
        reach = np.abs(d) + _N_SIGMAS * np.sqrt(np.maximum(np.diag(p1.sigma), np.diag(p2.sigma)))
        scale = 0.5 * max(reach @ np.abs(p1.sigma_inv) @ reach, reach @ np.abs(p2.sigma_inv) @ reach)
        x1_slope = abs(b1) > 1e-12 * max(a1 * c1_, a2_ * c2_) ** 0.5
        x2_slope = abs(b1_ * d[0] + c1_ * d[1]) * reach[1] > _NOISE * scale
        kind = "linear" if x1_slope or x2_slope else "x1_only"
    return ScoreGeometry(a2=a2, b0=b0, b1=b1, c0=c0, c1=c1, c2=c2, kind=kind)


# ---------------------------------------------------------------------------
# Branch inversion and the joint density of (h, x1)
# ---------------------------------------------------------------------------


def _quadratic_roots(a, b, c, sq):
    """Roots of a t^2 + b t + c = 0 from sq = sqrt(b^2 - 4 a c), elementwise.

    q = -(b + sign(b) sq) / 2 never subtracts, and the roots q/a and c/q keep
    full relative accuracy, the small one included (Goldberg 1991, sec. 1.4).
    a == 0 gives the one linear root c/q = -c/b.  q vanishes only for
    b = sq = 0, the double root 0 of a t^2, which no caller passes.
    """
    q = -0.5 * (b + np.copysign(sq, b))
    if a == 0.0:
        return (c / q,)
    return q / a, c / q


def _bell(x) -> np.ndarray:
    """exp(-x^2 / 2), in place in the fresh array x."""
    x *= x
    x *= -0.5
    return np.exp(x, out=x)


def _pair_sum(x, axis) -> np.ndarray:
    """exp(-x^2 / 2) + exp(-(2 axis - x)^2 / 2), in place in the fresh array
    x: sigma sqrt(2 pi) times the density of one class coordinate at a point
    x and at its mirror image in the axis, all in that coordinate's standard
    units.

    x is the point the caller holds exactly: the mirror image is then the
    rounded one, and it carries no density when the axis is far from the
    class.
    """
    mirror = _bell(2.0 * axis - x)
    out = _bell(x)
    out += mirror
    return out


def _finite(value, name: str) -> np.ndarray:
    """``value`` as a float64 array; a NaN or infinite entry is a
    :class:`ContractError` that names the argument."""
    arr = np.asarray(value, dtype=float)
    bad = ~np.isfinite(arr)
    if bad.any():
        raise ContractError(f"{name} must be finite, got {float(arr[bad][0])}")
    return arr


def invert_llr(h: float, x1: float, problem: TwoClassProblem) -> list[float]:
    """All x2 with score(x1, x2) = h; length 0, 1, or 2 by discriminant sign,
    less any root past the float range, which :func:`joint_density` gives no
    density either."""
    h, x1 = _finite(h, "h"), _finite(x1, "x1")
    geom = score_geometry(problem)
    b, c, disc = (float(v) for v in geom.x2_quadratic(h, x1))
    if geom.a2 == 0.0 and b == 0.0:
        raise ContractError("degenerate geometry: the score does not depend on x2 at this x1")
    if disc < 0.0:
        return []
    with np.errstate(over="ignore"):
        if disc == 0.0 and geom.a2 != 0.0:
            # the fold's double root, q/a of _quadratic_roots, whose c/q is 0/0 at b == c == 0
            roots = (-0.5 * b / geom.a2,)
        else:
            roots = _quadratic_roots(geom.a2, b, c, np.sqrt(disc))
    return sorted(float(r) for r in roots if np.isfinite(r))


def joint_density(h, x1, label: int, problem: TwoClassProblem) -> float | np.ndarray:
    """Joint density of (score, x1) under one class, elementwise over h and
    x1, which broadcast together; a float when both are scalars.

    The class density summed over the x2 roots at each (h, x1), divided by
    the Jacobian sqrt(D) (:meth:`ScoreGeometry.x2_quadratic`); zero outside
    the support region, where D < 0, and a root past the float range adds
    no density.  A point on the fold itself (D >= 0 with sqrt(D) at most
    1e-12 times the root of the size of the terms D is formed from, so that
    no unit of x2 moves the verdict) raises :class:`SingularityError`, which
    names the first such point.
    """
    h, x1 = np.broadcast_arrays(_finite(h, "h"), _finite(x1, "x1"))
    geom = score_geometry(problem)
    params = _class_params(problem, label)
    b, c, disc = geom.x2_quadratic(h, x1)
    size = (abs(geom.b0) + np.abs(geom.b1 * x1)) ** 2 + 4.0 * abs(geom.a2) * (
        abs(geom.c0) + np.abs(geom.c1 * x1) + abs(geom.c2) * x1 * x1 + np.abs(h)
    )
    fold = (disc >= 0.0) & (np.sqrt(np.abs(disc)) <= 1e-12 * np.sqrt(size))
    if fold.any():
        i = np.flatnonzero(fold)[0]
        raise SingularityError(
            f"point (h={h.flat[i]:g}, x1={x1.flat[i]:g}) lies on the fold of the score transformation"
        )
    out = np.zeros(disc.shape)
    inside = disc > 0.0
    if inside.any():
        sq = np.sqrt(disc[inside])
        with np.errstate(over="ignore"):
            roots = _quadratic_roots(geom.a2, b[inside], c[inside], sq)
        # the points (x1, root) of every root as one batch of rows; their
        # densities add in root order, and a root past the float range
        # carries none
        rows = np.stack([np.tile(x1[inside], len(roots)), np.concatenate(roots)], axis=1)
        finite = np.isfinite(rows[:, 1])
        pdf = np.zeros(finite.size)
        pdf[finite] = np.exp(mvn_logpdf_array(rows[finite], params))
        out[inside] = pdf.reshape(len(roots), -1).sum(axis=0) / sq
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Support region
# ---------------------------------------------------------------------------


def _quadratic_nonneg_intervals(d2: float, d1: float, d0: float) -> tuple:
    """Closed intervals where d2 x^2 + d1 x + d0 >= 0."""
    if d2 == 0.0:
        if d1 == 0.0:
            return ((-np.inf, np.inf),) if d0 >= 0.0 else ()
        # the line's one root, c/q of _quadratic_roots, solved without the
        # square d1^2, which underflows to 0 for |d1| below 1e-154
        root = -d0 / d1
        return ((root, np.inf),) if d1 > 0.0 else ((-np.inf, root),)
    disc = d1 * d1 - 4.0 * d2 * d0
    if disc <= 0.0:
        # no sign change
        return ((-np.inf, np.inf),) if d2 > 0.0 else ()
    lo, hi = sorted(_quadratic_roots(d2, d1, d0, np.sqrt(disc)))
    if d2 < 0.0:
        return ((lo, hi),)
    if lo == hi:
        return ((-np.inf, np.inf),)
    return ((-np.inf, lo), (hi, np.inf))


def support_region(h: float, problem: TwoClassProblem) -> tuple:
    """The x1 support of the joint density of (h, x1) at one score h: a
    tuple of closed intervals (lo, hi), which may extend to -+inf, in
    increasing order; () when no x1 reaches h."""
    h = float(_finite(h, "h"))
    geom = score_geometry(problem)
    if geom.kind == "quadratic":
        return _quadratic_nonneg_intervals(*geom.discriminant_coeffs(h))
    if geom.kind == "linear":
        # Every x1 with a nonzero x2 coefficient b0 + b1 x1 carries one
        # branch; it vanishes at x_star, unless that lies past the float range.
        with np.errstate(divide="ignore", over="ignore"):
            x_star = -geom.b0 / geom.b1
        if not np.isfinite(x_star):
            return ((-np.inf, np.inf),)
        return ((-np.inf, x_star), (x_star, np.inf))
    raise ContractError("degenerate geometry: the score depends on x1 only")


def support_h_range(problem: TwoClassProblem) -> tuple[float, float]:
    """Range of scores with non-empty support ((-inf, inf) when unbounded).

    The score is bounded, on one side, only when every coordinate that enters
    its diagonal form carries a square term of one sign (an ellipse or a
    lone square term); the bound is the vertex value.
    """
    _, alpha, beta, gamma = _diagonal_score(problem)
    squares = alpha != 0.0
    if not squares.any() or beta[~squares].any() or alpha.min() * alpha.max() < 0.0:
        return (-np.inf, np.inf)
    vertex = _vertex_score(alpha, beta, gamma)
    return (vertex, np.inf) if alpha.max() > 0.0 else (-np.inf, vertex)


def _vertex_score(alpha, beta, gamma) -> float:
    """gamma - sum beta_i^2 / (4 alpha_i) over the square terms: the score at
    their axis point, the finite end of a bounded score range."""
    squares = alpha != 0.0
    return gamma - float(np.sum(beta[squares] ** 2 / (4.0 * alpha[squares])))


# ---------------------------------------------------------------------------
# Nested trapezoid rule
# ---------------------------------------------------------------------------

_ABS_TOL, _REL_TOL, _MAX_EVALS = 1e-15, 1e-9, 2**15
#: Equal steps of the first trapezoid level; each later level halves them.
_FIRST_STEPS = 8
#: The nodes of the first two levels on [0, 1]: j/n is 2j/2n exactly.
_FIRST_NODES = np.arange(2 * _FIRST_STEPS + 1) / (2 * _FIRST_STEPS)


def _settled(value, error):
    """Whether a row of :func:`adaptive_gk_rows` converged: its value is
    finite and error <= max(_ABS_TOL, _REL_TOL |value|)."""
    return np.isfinite(value) & (error <= np.fmax(_ABS_TOL, _REL_TOL * np.abs(value)))


def adaptive_gk_rows(f, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Nested trapezoid rule on 8, 16, 32, ... equal steps of [a[i], b[i]],
    every row i at once.

    Meant for integrands that are analytic on the interval and even about,
    or negligible at, each end, as every level-curve integrand of
    :func:`marginal_density` is: the rule then converges geometrically
    (Trefethen & Weideman 2014, SIAM Review 56:385), and halving the step
    reuses every node.

    ``f(rows, x)`` maps the indices of the rows still refining and their
    abscissae, an array of shape (len(rows), m), to values of that shape.
    The first two levels are one call on their 17 nodes, each later level one
    call on the new midpoints only.  Row i returns (integral, error_estimate)
    of the first level T_2n whose estimate |T_2n - T_n| is within
    max(_ABS_TOL, _REL_TOL |T_2n|), and leaves later calls; or of the last
    level before the evaluations would pass _MAX_EVALS.  A row whose value
    is not finite leaves at once with error inf: no later level can change a
    sum that holds it.  A row with a == b is 0 with error 0 and never
    reaches ``f``.  So a row converged exactly when its value is finite and
    error <= max(_ABS_TOL, _REL_TOL |value|) (:func:`_settled`).  Rows do
    not interact, so each row's result is that of :func:`adaptive_gk` on it
    alone.  Never raises on slow convergence: the caller decides what an
    unconverged row means.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    value, error = np.zeros(a.shape), np.zeros(a.shape)
    rows = np.flatnonzero(a != b)
    if rows.size == 0:
        return value, error
    lo, width = a[rows], b[rows] - a[rows]
    # one call on the first two levels: T_n sums the even nodes, T_2n adds the odd
    steps = 2 * _FIRST_STEPS
    fx = f(rows, lo[:, None] + width[:, None] * _FIRST_NODES)
    # every node value so far, the two ends at half weight
    sums = 0.5 * (fx[:, 0] + fx[:, -1]) + fx[:, 2:-1:2].sum(axis=1)
    first = sums * width / _FIRST_STEPS
    sums = sums + fx[:, 1::2].sum(axis=1)
    # a row whose first level is not finite leaves with it
    finite = np.isfinite(first)
    new = np.where(finite, sums * width / steps, first)
    err = np.abs(np.subtract(new, first, out=np.full(rows.size, np.inf), where=finite))
    while True:
        keep = ~_settled(new, err)
        finite = np.isfinite(new)
        if not finite.all():
            err, keep = np.where(finite, err, np.inf), keep & finite
        value[rows], error[rows] = new, err
        rows, lo, width, sums = rows[keep], lo[keep], width[keep], sums[keep]
        if rows.size == 0 or 2 * steps + 1 > _MAX_EVALS:
            break
        sums = sums + f(rows, lo[:, None] + width[:, None] * ((np.arange(steps) + 0.5) / steps)).sum(axis=1)
        steps *= 2
        new = sums * width / steps
        err = np.abs(new - value[rows])
    return value, error


def adaptive_gk(f, a: float, b: float) -> tuple[float, float, bool]:
    """The one-row case of :func:`adaptive_gk_rows`: (integral,
    error_estimate, converged) of ``f``, which maps a 1-D array of abscissae
    to values, over [a, b]; converged is :func:`_settled` of the first two."""
    value, error = adaptive_gk_rows(lambda rows, x: f(x[0])[None], [a], [b])
    return float(value[0]), float(error[0]), bool(_settled(value[0], error[0]))


# ---------------------------------------------------------------------------
# Marginal density of the score
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DensityGrid:
    """Tabulated f(h | class) with a per-point quadrature error estimate, the
    difference |T_2n - T_n| of the last two trapezoid levels (0 for a closed
    form, inf where the density is infinite or its quadrature failed)."""

    h_values: np.ndarray
    density: np.ndarray
    est_error: np.ndarray
    label: int

    def __post_init__(self):
        h = smallmat.read_only_copy(self.h_values)
        d = smallmat.read_only_copy(self.density)
        e = smallmat.read_only_copy(self.est_error)
        if not (h.shape == d.shape == e.shape) or h.ndim != 1 or h.size < 2:
            raise ContractError("density grid needs matching 1-D arrays of length >= 2")
        # written so that NaN fails; an infinite density or est_error (a
        # saddle or vertex score, a row whose quadrature failed) passes
        if not (h[1:] > h[:-1]).all():
            raise ContractError("h_values must be strictly increasing (and not NaN)")
        if not (d >= 0.0).all():
            raise ContractError("densities must be non-negative (and not NaN)")
        if not (e >= 0.0).all():
            raise ContractError("error estimates must be non-negative (and not NaN)")
        object.__setattr__(self, "label", _require_class(self.label))
        for name, arr in (("h_values", h), ("density", d), ("est_error", e)):
            object.__setattr__(self, name, arr)

    def integral(self) -> float:
        """Trapezoid integral of the density over the grid."""
        return float(self._segment_masses().sum())

    def _segment_masses(self) -> np.ndarray:
        """Trapezoid mass of each interval between neighbouring grid points."""
        return 0.5 * (self.density[:-1] + self.density[1:]) * np.diff(self.h_values)

    def cdf_values(self) -> np.ndarray:
        """Cumulative trapezoid integral at each grid point (not renormalized)."""
        return np.concatenate([[0.0], np.cumsum(self._segment_masses())])

    def survival_values(self) -> np.ndarray:
        """Upper-tail trapezoid integral at each grid point.

        Accumulated from the right end, so small survival values keep full
        relative accuracy instead of being differences of order-one CDFs.
        """
        return np.concatenate([np.cumsum(self._segment_masses()[::-1])[::-1], [0.0]])

    def to_csv(self) -> str:
        """Schema: h,density,est_error,class."""
        return csv_text(
            ("h", "density", "est_error", "class"),
            (self.h_values, self.density, self.est_error, np.full(self.h_values.size, self.label)),
        )


#: Half-width of a class window, in class standard deviations: level-curve
#: points farther out than this carry no representable density.
_N_SIGMAS = 14.0
#: A term of the diagonal score that moves it by at most this share of the
#: score's scale, anywhere in either class window, is rounding noise.
_NOISE = 1e-12


@lru_cache(maxsize=64)
def _diagonal_score(problem: TwoClassProblem):
    """(diagonalized problem, alpha, beta, gamma) of the score in the
    coordinates y of :func:`transform_problem`, where the class coordinates
    are independent normals and h = sum alpha_i y_i^2 + beta_i y_i + gamma,
    alpha_i = (1/lam_i - 1)/2.

    One rule, on the score's own scale, decides which terms are rounding
    noise.  In either class window (mean -+ _N_SIGMAS class deviations)
    coordinate i lies within r_i = |m1_i - m2_i| + the wider half-window of
    either class mean.  h is the difference of the class log-densities,
    which there stay below S = max(sum r_i^2, sum r_i^2 / lam_i) / 2, and
    carries their rounding.  A term that moves h by at most _NOISE S in
    either window comes back as exactly 0:

    - a square term, by |alpha_i| r_i^2 against lam_i = 1; dropped, lam_i
      counts as exactly 1 in beta and gamma;
    - then a linear term with no square term beside it, beta_i (y_i -
      (m1_i + m2_i)/2) with its share of gamma, by |beta_i| r_i;
    - a linear term beside a square term, beta_i y_i, by |beta_i| times the
      largest |y_i| in the windows.

    The zeros that callers branch on, alpha and the beta of a coordinate
    with no square term, depend on lam and the means' difference only, so
    translating the features cannot change them.  With no term left the
    score is constant: a :class:`ContractError`.

    Built once per problem and shared by every caller: a problem is frozen
    and compares by identity, and alpha and beta come back read-only.
    """
    diag = transform_problem(problem)
    lam = diag.lam
    m1, m2 = diag.problem.class1.mu, diag.problem.class2.mu
    reach = np.abs(m1 - m2) + _N_SIGMAS * np.sqrt(np.maximum(lam, 1.0))
    noise = _NOISE * 0.5 * max(reach @ reach, reach @ (reach / lam))
    flat = 0.5 * np.abs(1.0 / lam - 1.0) * reach**2 <= noise
    lam = np.where(flat, 1.0, lam)
    # how far y_i gets from where its linear term is dropped about: the
    # means' midpoint without a square term, the origin beside one
    far = reach + np.where(flat, 0.0, np.maximum(np.abs(m1), np.abs(m2)))
    gone = np.abs(m1 - m2 / lam) * far <= noise
    m1, m2 = np.where(gone & flat, 0.0, m1), np.where(gone & flat, 0.0, m2)
    alpha = 0.5 * (1.0 / lam - 1.0)
    beta = np.where(gone, 0.0, m1 - m2 / lam)
    gamma = 0.5 * (m2 @ (m2 / lam) - m1 @ m1 + np.sum(np.log(lam)))
    if not (alpha.any() or beta.any()):
        raise ContractError("degenerate geometry: the score is constant")
    alpha.flags.writeable = beta.flags.writeable = False
    return diag.problem, alpha, beta, float(gamma)


def marginal_density(h_values, label: int, problem: TwoClassProblem) -> DensityGrid:
    """f(h | class) on a grid of score values.

    The square terms of the diagonal form (:func:`_diagonal_score`) decide
    the method.  With none, h is normal, in closed form; a lone one is the
    class density at its two roots y_u over the Jacobian |dh/dy_u|.  A
    parabola integrates over the square coordinate y_u, with its linear
    partner as the one root.  An ellipse (hyperbola) takes both coordinates
    from its parametrization, y_f = c_f +- r_f sin t (sinh t) and
    y_s = c_s +- r_s cos t (cosh t), with the constant coarea Jacobian
    1 / (2 sqrt|alpha_f alpha_s|).  The class coordinates are independent,
    so the class density summed over the two roots, over a parabola point
    and its mirror image, or over the four curve points, is a product of
    per-coordinate pair sums (:func:`_pair_sum`).

    Each integral runs over the arc of the level curve inside both class
    windows, folded at the curve's axis, so each integrand is analytic on
    its arc and, at each end, even (a fold) or negligible (a window edge 14
    class deviations out): the nested trapezoid rule converges geometrically
    there.  The arcs of all grid points are the rows of one
    :func:`adaptive_gk_rows` call per free coordinate (a hyperbola has two),
    so a point's value and error estimate are those of its own quadrature,
    whatever else is on the grid; a point whose refinement exhausted the
    budget keeps its best value and a large est_error.  At the saddle value
    of a hyperbola and at the vertex value of a lone square term the density
    is infinite, with an infinite est_error.  At the vertex value of an
    ellipse it is the limit from inside the support,
    pi pdf(axis point) / sqrt|alpha_0 alpha_1|, with est_error 0.
    """
    h_arr = np.asarray(h_values, dtype=float)
    if h_arr.ndim != 1:
        raise ContractError(f"h_values must be a 1-D array of scores, got shape {h_arr.shape}")
    if problem.dim != 2:
        raise ContractError(f"the marginal density handles 2-D problems only, got dim {problem.dim}")
    return DensityGrid(h_arr, *_level_plan(problem, _require_class(label))(h_arr), label)


@lru_cache(maxsize=128)
def _level_plan(problem: TwoClassProblem, label: int):
    """The evaluator h -> (density, est_error) of :func:`marginal_density`,
    built once per (problem, label) with everything that does not depend on
    h; each call does the work of its own grid only, into fresh arrays."""
    diag_problem, alpha, beta, gamma = _diagonal_score(problem)
    params = _class_params(diag_problem, label)
    mean, var = params.mu, np.diag(params.sigma)
    squares = np.flatnonzero(alpha)

    if squares.size == 0:
        mu_h, var_h = _moments(alpha, beta, gamma, params)
        sd_h = np.sqrt(var_h)
        norm = sd_h * np.sqrt(2.0 * np.pi)
        return lambda h: (_bell((h - mu_h) / sd_h) / norm, np.zeros_like(h))

    u, v = squares[0], 1 - squares[0]
    sd = np.sqrt(var)
    center = -0.5 * beta / np.where(alpha == 0.0, 1.0, alpha)
    # each axis in class standard units
    z_axis = (center - mean) / sd

    if squares.size == 1 and beta[v] == 0.0:
        four_a, vertex = 4.0 * alpha[u], _vertex_score(alpha, beta, gamma)
        norm = sd[u] * np.sqrt(2.0 * np.pi)
        # the root on the class's side of the axis is held exactly, and the
        # other root is its mirror image
        class_side = np.maximum if mean[u] > center[u] else np.minimum

        def lone_square(h):
            # the discriminant in vertex form is exactly 0 at the finite end
            # of support_h_range, where the density is infinite
            c = gamma - h
            disc = four_a * (h - vertex)
            dens, err = np.zeros_like(h), np.zeros_like(h)
            at_vertex = disc == 0.0
            dens[at_vertex] = err[at_vertex] = np.inf
            inside = disc > 0.0
            sq = np.sqrt(disc[inside])
            y = class_side(*_quadratic_roots(alpha[u], beta[u], c[inside], sq))
            dens[inside] = _pair_sum((y - mean[u]) / sd[u], z_axis[u]) / (norm * sq)
            return dens, err

        return lone_square

    lo_w, hi_w = mean - _N_SIGMAS * sd, mean + _N_SIGMAS * sd
    # nearest and farthest distance from each axis to the class window
    near = np.maximum(0.0, np.maximum(lo_w - center, center - hi_w))
    far = np.maximum(center - lo_w, hi_w - center)

    # arcs(h, density, est_error) sets the closed-form points and returns (grid
    # rows, arc start, arc end, integrand) per set of curves with one free coordinate
    if squares.size == 1:
        # h = a (y_u - c_u)^2 + b_v y_v + base.  y_u itself is the variable,
        # on the side of the axis that faces the window, so it stays exact
        # when a is tiny and the axis far away.
        a, b_v = alpha[u], beta[v]
        base = gamma - a * center[u] ** 2
        window_v = b_v * np.array([lo_w[v], hi_w[v]])
        window_below = center[u] > hi_w[u]
        scale = 1.0 / (2.0 * np.pi * sd[u] * sd[v] * abs(b_v))

        def arcs(h, density, est_error):
            # |y_u - c_u| on the curve, over the y_v window
            ends = (h[:, None] - base - window_v) / a
            r_lo = np.maximum(near[u], np.sqrt(np.maximum(ends.min(axis=1), 0.0)))
            r_hi = np.minimum(far[u], np.sqrt(np.maximum(ends.max(axis=1), 0.0)))
            if window_below:
                lo, hi = center[u] - r_hi, center[u] - r_lo
            else:
                lo, hi = center[u] + r_lo, center[u] + r_hi

            def parabola(i, y):
                # the curve point over y_u and its mirror image in the axis
                # share their linear partner y_v, the one root, solved at y_u = y
                (y_v,) = _quadratic_roots(0.0, b_v, y * (a * y + beta[u]) + gamma - h[i, None], abs(b_v))
                out = _pair_sum((y - mean[u]) / sd[u], z_axis[u])
                out *= _bell((y_v - mean[v]) / sd[v])
                out *= scale
                return out

            return [(np.arange(h.size), lo, hi, parabola)]
    else:
        # the radii are measured from the score at the computed axis point,
        # which can differ in the last bit from _vertex_score, the support
        # edge of an ellipse
        axis_score = gamma - float(alpha @ center**2)
        jacobian = 0.5 / np.sqrt(abs(alpha[0] * alpha[1]))
        hyperbola = alpha[0] * alpha[1] < 0.0
        if hyperbola:
            odd, even = np.sinh, np.cosh
            inv_odd, inv_even = np.arcsinh, (lambda x: np.arccosh(np.maximum(x, 1.0)))
        else:
            odd, even = np.sin, np.cos
            inv_odd, inv_even = ((lambda x: np.arcsin(np.minimum(x, 1.0))),
                                 (lambda x: np.arccos(np.minimum(x, 1.0))))
            # the free coordinate takes the larger curvature
            f = int(abs(alpha[1]) > abs(alpha[0]))
            vertex = _vertex_score(alpha, beta, gamma)
            # at the vertex, or within rounding of it, the level curve is the
            # axis point: the density is its limit from inside the support,
            # pi pdf(axis point) / sqrt|alpha_0 alpha_1|
            axis_pdf = np.prod(_bell(z_axis.copy())) / (2.0 * np.pi * sd[0] * sd[1])
            vertex_density = np.pi * axis_pdf / np.sqrt(abs(alpha[0] * alpha[1]))
        scale = jacobian / (2.0 * np.pi * sd[0] * sd[1])

        def arcs(h, density, est_error):
            k = h - axis_score
            if hyperbola:
                saddle = k == 0.0
                density[saddle] = est_error[saddle] = np.inf
                # the free coordinate's square term has the sign of -k
                free = alpha[0] * k > 0.0
                groups = [(0, ~saddle & ~free), (1, ~saddle & free)]
            else:
                inside = (h - vertex) / alpha[f]
                on_curve = (inside > 0.0) & (k / alpha[f] > 0.0)
                density[(inside >= 0.0) & ~on_curve] = vertex_density
                groups = [(f, on_curve)]

            def conic_arc(f, rows):
                s = 1 - f
                r_f, r_s = np.sqrt(np.abs(k[rows] / alpha[f])), np.sqrt(np.abs(k[rows] / alpha[s]))
                t_near, t_far = inv_even(near[s] / r_s), inv_even(far[s] / r_s)
                # the radii in class standard units
                w_f, w_s = r_f / sd[f], r_s / sd[s]

                def g(i, t):
                    # the curve points (c_f +- r_f odd(t), c_s +- r_s even(t)):
                    # the product of each coordinate's mirror pair
                    out = _pair_sum(z_axis[f] + w_f[i, None] * odd(t), z_axis[f])
                    out *= _pair_sum(z_axis[s] + w_s[i, None] * even(t), z_axis[s])
                    out *= scale
                    return out

                lo = np.maximum(inv_odd(near[f] / r_f), np.minimum(t_near, t_far))
                hi = np.minimum(inv_odd(far[f] / r_f), np.maximum(t_near, t_far))
                return rows, lo, hi, g

            return [conic_arc(f, np.flatnonzero(mask)) for f, mask in groups]

    def level_curves(h):
        density, est_error = np.zeros_like(h), np.zeros_like(h)
        for rows, lo, hi, integrand in arcs(h, density, est_error):
            # a curve that misses the class windows has lo >= hi: an empty arc
            value, err = adaptive_gk_rows(integrand, lo, np.maximum(lo, hi))
            density[rows] = np.maximum(value, 0.0)
            est_error[rows] = err
        return density, est_error

    return level_curves


def _moments(alpha, beta, gamma, params: GaussianParams) -> tuple[float, float]:
    """Mean and variance of h = sum alpha_i y_i^2 + beta_i y_i + gamma for
    independent normal y_i with the class's means m_i and variances v_i:
    gamma + sum alpha (v + m^2) + beta m, and sum 2 alpha^2 v^2 + (2 alpha m + beta)^2 v."""
    m, v = params.mu, np.diag(params.sigma)
    slope = 2.0 * alpha * m + beta
    return gamma + alpha @ (v + m * m) + beta @ m, 2.0 * (alpha * alpha) @ (v * v) + slope * slope @ v


def score_moments(problem: TwoClassProblem, label: int) -> tuple[float, float]:
    """Exact mean and variance of the score under one class model, from its
    diagonal form (:func:`_diagonal_score`), for any number of features."""
    diag_problem, alpha, beta, gamma = _diagonal_score(problem)
    mean, var = _moments(alpha, beta, gamma, _class_params(diag_problem, label))
    return float(mean), float(var)


#: Score deviations from each class mean to its end of the grid; panel ends
#: closer than _GRID_MERGE of the span are one; a finite support end with a
#: finite density gets a point _GRID_EDGE of the span inside it.
_GRID_SIGMAS, _GRID_MERGE, _GRID_EDGE = 16.0, 1e-9, 1e-7
#: Class deviations by which the axis point moves along each coordinate.
_GRID_STEPS = (1.0, -1.0, 0.1, -0.1)


def _grid_marks(alpha, beta, gamma, params: GaussianParams) -> tuple[np.ndarray, np.ndarray]:
    """(scores, orders) of the panel ends that one class gives
    :func:`default_h_grid`: none without a square term.

    At the score of the axis point (the vertex or saddle of the conic; a
    coordinate with no square term sits at the class mean) the density is
    infinite (a saddle, a lone square term's vertex), jumps (an ellipse's
    vertex) or peaks narrowly (a parabola's vertex).  Its nodes crowd
    quadratically (order 2).  Near it the density changes on the scale of each term of the
    score, which the axis point moved by _GRID_STEPS class deviations along
    each coordinate marks; with two or more square terms, so do the
    near-vertices, the axis point with one square coordinate at the class
    mean (the vertex of a nearly parabolic conic).  The density is smooth
    at these, and their nodes crowd cubically (order 3), which resolves the
    change without the trapezoid error that a quadratic crowding makes
    where the density is not singular.  A point outside the class window
    carries no density and gives no end.
    """
    squares = alpha != 0.0
    if not squares.any():
        return np.empty(0), np.empty(0, dtype=int)
    sd = np.sqrt(np.diag(params.sigma))
    axis = np.where(squares, -0.5 * beta / np.where(squares, alpha, 1.0), params.mu)
    points = [axis[None], (axis + np.multiply.outer(_GRID_STEPS, np.diag(sd))).reshape(-1, axis.size)]
    if squares.sum() > 1:
        points.append(np.where(np.eye(axis.size, dtype=bool), params.mu, axis)[squares])
    points = np.vstack(points)
    orders = np.full(len(points), 3)
    orders[0] = 2
    seen = np.all(np.abs(points - params.mu) <= _N_SIGMAS * sd, axis=1)
    return (points**2 @ alpha + points @ beta + gamma)[seen], orders[seen]


def default_h_grid(problem: TwoClassProblem, n_points: int = 801) -> np.ndarray:
    """A score grid of exactly ``n_points`` points (at least 2, as
    :class:`DensityGrid` requires) covering both class distributions and the
    exact support.

    The grid is a row of panels from the lowest to the highest class mean
    -+ _GRID_SIGMAS score deviations, cut to the support.  The inner panel
    ends are both classes' singular scores and the scores that mark how the
    density changes near them (:func:`_grid_marks`).  Each panel [a, a + w]
    gets m open nodes a + w I(sin^2(pi tau / 2); o_a / 2, o_b / 2),
    tau = (i + 1/2) / m, with I the regularized incomplete beta function:
    the nodes crowd toward an end of order o as the o-th power of their
    distance in tau, so no node sits on an end; order 1 is even spacing, and
    order 2 toward both ends is the cosine grading a + w sin^2(pi tau / 2),
    whose trapezoid rule cancels the leading error of a 1/sqrt singularity
    at an end.  A support bound is an end of order 2, and a grid end that is
    not one lies in both classes' tails: order 1.  The trapezoid error of a
    panel goes as c w / m^2, with c largest on the narrow panels around a
    singular score, so the points are shared out in proportion to w^(1/4),
    more evenly than the w^(1/3) that minimizes the sum for equal c.  A
    finite support end where the density is finite (two or more square
    terms: an ellipse's vertex) also gets a point _GRID_EDGE of the span
    inside it, so scores simulated there fall on the grid.
    """
    n_points = smallmat.as_integer(n_points, "a score grid's n_points", 2)
    lo_sup, hi_sup = support_h_range(problem)
    diag_problem, alpha, beta, gamma = _diagonal_score(problem)
    squares = alpha != 0.0
    classes = [_class_params(diag_problem, label) for label in (CLASS1, CLASS2)]
    ranges = []
    for params in classes:
        mean, var = _moments(alpha, beta, gamma, params)
        ranges += [mean - _GRID_SIGMAS * np.sqrt(var), mean + _GRID_SIGMAS * np.sqrt(var)]
    lo, hi = max(min(ranges), lo_sup), min(max(ranges), hi_sup)
    span = hi - lo
    # the marks inside the grid by score, the more singular first
    h, order = (np.concatenate(part) for part in zip(*(_grid_marks(alpha, beta, gamma, c) for c in classes)))
    inside = (h > lo + _GRID_MERGE * span) & (h < hi - _GRID_MERGE * span)
    h, order = h[inside], order[inside]
    by = np.lexsort((order, h))
    h, order = h[by], order[by]
    # a mark within _GRID_MERGE of the span of the one before joins its end,
    # which crowds as the most singular of them
    first = np.flatnonzero(np.diff(h, prepend=lo) > _GRID_MERGE * span)
    ends = np.concatenate([[lo], h[first], [hi]])
    orders = np.concatenate([[2 if lo == lo_sup else 1], np.minimum.reduceat(order, first), [2 if hi == hi_sup else 1]])
    edge = int(squares.sum() > 1 and (np.isfinite(lo_sup) or np.isfinite(hi_sup)))
    # the largest-remainder share of w^(1/4) among the panels
    width = np.diff(ends)
    quota = (n_points - edge) * width**0.25 / np.sum(width**0.25)
    counts = np.floor(quota).astype(int)
    counts[np.argsort(counts - quota, kind="stable")[: n_points - edge - counts.sum()]] += 1
    # every node's panel k and its tau within the panel
    k = np.repeat(np.arange(width.size), counts)
    tau = (np.arange(k.size) - np.repeat(np.cumsum(counts) - counts, counts) + 0.5) / counts[k]
    grid = ends[k] + width[k] * betainc(0.5 * orders[k], 0.5 * orders[k + 1], np.sin(0.5 * np.pi * tau) ** 2)
    if edge and np.isfinite(lo_sup):
        grid = np.concatenate([[lo + min(_GRID_EDGE * span, 0.5 * (grid[0] - lo))], grid])
    elif edge:
        grid = np.append(grid, hi - min(_GRID_EDGE * span, 0.5 * (hi - grid[-1])))
    return grid


# ---------------------------------------------------------------------------
# Simultaneous diagonalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiagonalizedProblem:
    """A problem re-expressed in coordinates y = W' x where the first class
    covariance is the identity and the second is diag(lam)."""

    transform: np.ndarray
    problem: TwoClassProblem
    lam: np.ndarray

    def map_points(self, x) -> np.ndarray:
        """Map feature rows into the diagonalized coordinates."""
        return np.atleast_2d(np.asarray(x, dtype=float)) @ self.transform


def transform_problem(problem: TwoClassProblem) -> DiagonalizedProblem:
    """Rotate/scale features so the covariances are I and diag(lam), lam
    descending, whitening with class 1's own Cholesky factor.

    The score of a point and of its image agree exactly (the two Jacobian
    factors cancel in the likelihood ratio), so classification decisions and
    score distributions are unchanged.
    """
    Linv = smallmat.triangular_inverse(problem.class1.chol)
    M = Linv @ problem.class2.sigma @ Linv.T
    M = 0.5 * (M + M.T)
    lam, Q = np.linalg.eigh(M)
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    Q = Q[:, order]
    if lam[-1] <= 0.0:
        raise ContractError("second covariance is not positive definite in the whitened basis")
    W = Linv.T @ Q
    mu1 = W.T @ problem.class1.mu
    mu2 = W.T @ problem.class2.mu
    new_problem = TwoClassProblem(
        class1=GaussianParams(mu1, np.eye(len(mu1))),
        class2=GaussianParams(mu2, np.diag(lam)),
    )
    return DiagonalizedProblem(transform=W, problem=new_problem, lam=lam)


# ---------------------------------------------------------------------------
# Consistency against simulated scores; ROC from tabulated densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HistogramTable:
    """Histogram of scores with the bin rule used for density overlays; its arrays are read-only copies."""

    bin_edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bin_edges", smallmat.read_only_copy(self.bin_edges))
        object.__setattr__(self, "counts", smallmat.read_only_copy(self.counts, None))

    @property
    def densities(self) -> np.ndarray:
        widths = np.diff(self.bin_edges)
        total = self.counts.sum()
        return self.counts / (total * widths)


_MIN_BINS, _MAX_BINS = 20, 200


def freedman_diaconis_bins(scores: np.ndarray) -> int:
    """Freedman-Diaconis bin count, clamped to [_MIN_BINS, _MAX_BINS]."""
    scores = np.asarray(scores, dtype=float)
    q75, q25 = np.percentile(scores, [75.0, 25.0])
    iqr = q75 - q25
    span = scores.max() - scores.min()
    if iqr <= 0.0 or span <= 0.0:
        return _MIN_BINS
    width = 2.0 * iqr / scores.size ** (1.0 / 3.0)
    return int(np.clip(np.ceil(span / width), _MIN_BINS, _MAX_BINS))


def histogram_vs_analytic(scores, grid: DensityGrid) -> tuple[float, HistogramTable]:
    """Kolmogorov-Smirnov distance between scores and a tabulated density.

    The analytic CDF is the grid's cumulative trapezoid integral, read by
    linear interpolation: a score below the grid reads 0 and one above it
    reads the grid mass, so the grid need not span the scores.  The scores
    must be finite.
    """
    s = np.sort(np.asarray(scores, dtype=float).ravel())
    if s.size == 0:
        raise ContractError("need at least one score")
    if not np.all(np.isfinite(s)):
        raise ContractError(f"scores must be finite, got {np.count_nonzero(~np.isfinite(s))} that are not")
    cdf = np.interp(s, grid.h_values, grid.cdf_values())
    n = s.size
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    ks = float(np.max(np.maximum(np.abs(cdf - upper), np.abs(cdf - lower))))
    nbins = freedman_diaconis_bins(s)
    counts, edges = np.histogram(s, bins=nbins)
    return ks, HistogramTable(bin_edges=edges, counts=counts)


def density_roc(grid1: DensityGrid, grid2: DensityGrid, band: tuple | None = None) -> RocCurve:
    """ROC of the score distributions tabulated on a shared grid.

    Sweeps the threshold over the grid: TPF(t) and FPF(t) are the upper-tail
    integrals of the class densities, accumulated from the right so the
    operating points near (0, 0) stay relatively accurate.  The grid must
    cover the distributions; ``band`` optionally restricts the *emitted*
    thresholds to (t_lo, t_hi), dropping extreme operating points whose
    complements fall below the grid's integration accuracy.
    """
    if not np.array_equal(grid1.h_values, grid2.h_values):
        raise ContractError("density grids must share the same h grid")
    if grid1.label == grid2.label:
        raise ContractError("need one grid per class")
    g1 = grid1 if grid1.label == CLASS1 else grid2
    g2 = grid2 if grid1.label == CLASS1 else grid1
    keep = np.ones(g1.h_values.size, dtype=bool)
    if band is not None:
        keep = (g1.h_values >= band[0]) & (g1.h_values <= band[1])
        if not np.any(keep):
            raise ContractError("threshold band excludes every grid point")
    tpf = np.clip(g1.survival_values(), 0.0, 1.0)[::-1][keep[::-1]]
    fpf = np.clip(g2.survival_values(), 0.0, 1.0)[::-1][keep[::-1]]
    thresholds = g1.h_values[::-1][keep[::-1]]
    return RocCurve(
        fpf=np.concatenate([[0.0], fpf, [1.0]]),
        tpf=np.concatenate([[0.0], tpf, [1.0]]),
        thresholds=np.concatenate([[np.inf], thresholds, [-np.inf]]),
    )
