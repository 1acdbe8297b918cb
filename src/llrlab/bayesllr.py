"""Bayes decision machinery: log-likelihood-ratio scoring, the optimal
threshold from priors and costs, and the decision rule itself.

Scores are in nats.  Class labels are the integers 1 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .gaussmodel import GaussianParams, mahalanobis_sq_rows

CLASS1 = 1
CLASS2 = 2

#: Symmetric 0-1 loss: no cost for correct decisions, unit cost for errors.
ZERO_ONE_COSTS = ((0.0, 1.0), (1.0, 0.0))


@dataclass(frozen=True, eq=False)
class TwoClassProblem:
    """A two-class Gaussian classification problem: its two class models."""

    class1: GaussianParams
    class2: GaussianParams

    def __post_init__(self):
        if self.class1.dim != self.class2.dim:
            raise ContractError(
                f"class models disagree in dimension: {self.class1.dim} vs {self.class2.dim}"
            )

    @property
    def dim(self) -> int:
        return self.class1.dim


def llr_scores(x, problem: TwoClassProblem) -> np.ndarray:
    """Log-likelihood-ratio scores, in nats, of the rows of x (a 1-D x is one row).

    value = -1/2 [ (x-mu1)' S1^-1 (x-mu1) - (x-mu2)' S2^-1 (x-mu2) ]
            - 1/2 ln(|S1| / |S2|)
    """
    X = np.atleast_2d(np.asarray(x, dtype=float))
    if X.shape[1] != problem.dim:
        raise ContractError(f"points have dimension {X.shape[1]}, problem has {problem.dim}")
    c1, c2 = problem.class1, problem.class2
    # the docstring's expression, formed in place op for op
    q = mahalanobis_sq_rows(X, c1)
    q -= mahalanobis_sq_rows(X, c2)
    q *= -0.5
    q -= 0.5 * (c1.log_det - c2.log_det)
    return q


def bayes_threshold(prior1: float = 0.5, costs=ZERO_ONE_COSTS) -> float:
    """Risk-minimizing decision threshold from the class-1 prior and the costs.

    costs[i][j] is the price of deciding class j+1 when class i+1 is true;
    misclassification must cost more than a correct decision on each row.
    With P2 = 1 - P1, th = ln[ P2 (c22 - c21) / (P1 (c11 - c12)) ]; with
    equal priors and symmetric 0-1 costs this is 0.
    """
    p1 = float(prior1)
    p2 = 1.0 - p1
    if not 0.0 < p1 < 1.0:
        raise ContractError(f"priors must lie strictly in (0, 1), got {p1}, {p2}")
    c = np.asarray(costs, dtype=float)
    if c.shape != (2, 2) or not np.isfinite(c).all():
        raise ContractError("costs must be a finite 2x2 matrix")
    if not (c[0, 1] > c[0, 0] and c[1, 0] > c[1, 1]):
        raise ContractError(
            "misclassification costs must exceed correct-decision costs "
            f"(need c12 > c11 and c21 > c22, got {c.tolist()})"
        )
    return float(np.log(p2 * (c[1, 1] - c[1, 0]) / (p1 * (c[0, 0] - c[0, 1]))))


def classify_scores(scores, th: float) -> np.ndarray:
    """Decide class 1 where score > th, elementwise; ties go to class 2."""
    s = np.asarray(scores, dtype=float)
    return np.where(s > th, CLASS1, CLASS2)
