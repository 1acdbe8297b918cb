import numpy as np
import pytest
from hypothesis import settings

from llrlab import GaussianParams, TwoClassProblem

# Every property test draws the same examples on every run, so the suite's
# verdict does not change from one run to the next.  Each test keeps its own
# max_examples.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

MU1 = np.array([2.0, 2.0])
SIGMA1 = np.array([[1.0, 0.2], [0.2, 1.0]])
MU2 = np.array([1.0, 1.0])
SIGMA2 = np.array([[0.3, 0.1], [0.1, 0.3]])


@pytest.fixture(scope="session")
def counterexample_problem():
    """The 2-D two-class setup whose score distribution is severely non-normal."""
    return TwoClassProblem(
        class1=GaussianParams(MU1, SIGMA1),
        class2=GaussianParams(MU2, SIGMA2),
    )


@pytest.fixture(scope="session")
def equal_cov_problem():
    """Identity covariances, separation along the first axis: the score is
    exactly normal under both classes."""
    delta_sq = 0.8
    d = np.sqrt(delta_sq)
    return TwoClassProblem(
        class1=GaussianParams([d, 0.0], np.eye(2)),
        class2=GaussianParams([0.0, 0.0], np.eye(2)),
    )
