"""One rule per kind of input.

Every public count and class label goes through ``smallmat.as_integer``, and
every value type keeps read-only copies of the arrays its caller hands it.
"""

import dataclasses

import numpy as np
import pytest

from llrlab import (
    DensityGrid,
    GaussianParams,
    RocCurve,
    ScoreSet,
    SeededRng,
    TwoClassProblem,
    calibrate_c,
    marginal_density,
    mvn_sample,
    run_trial,
)
from llrlab.errors import ContractError
from llrlab.svgplot import Series

PROBLEM = TwoClassProblem(
    class1=GaussianParams([2.0, 2.0], [[1.0, 0.2], [0.2, 1.0]]),
    class2=GaussianParams([1.0, 1.0], [[0.3, 0.1], [0.1, 0.3]]),
)
H = np.linspace(-3.0, 2.0, 9)

#: site -> (the name its message gives, least valid value or None, call, a valid value)
COUNTS = {
    "SeededRng-seed": ("seed", None, lambda v: SeededRng(v), 7),
    "SeededRng-stream_id": ("stream_id", None, lambda v: SeededRng(7, v), 3),
    "SeededRng.derive": ("a derive index", None, lambda v: SeededRng(7).derive(1, v), 3),
    "SeededRng.uniforms": ("n", 0, lambda v: SeededRng(7).uniforms(v), 5),
    "SeededRng.normals": ("n", 0, lambda v: SeededRng(7).normals(v), 5),
    "mvn_sample": ("n", 0, lambda v: mvn_sample(PROBLEM.class2, v, SeededRng(7)), 5),
    "calibrate_c": ("p", 1, lambda v: calibrate_c(v, 0.8), 3),
    "run_trial-p": ("p", 1, lambda v: run_trial(v, 20, 0.5, 30, SeededRng(7)), 3),
    # n must exceed p = 3
    "run_trial-n": ("n", 4, lambda v: run_trial(3, v, 0.5, 30, SeededRng(7)), 20),
    "run_trial-test_size": ("test_size", 1, lambda v: run_trial(3, 20, 0.5, v, SeededRng(7)), 30),
    "marginal_density-label": ("class label", 1, lambda v: marginal_density(H, v, PROBLEM), 2),
}

BAD = [
    (site, bad)
    for site, (_, least, _, _) in COUNTS.items()
    for bad in (2.5, True, "3", *(() if least is None else (least - 1,)))
]


@pytest.mark.parametrize("site, bad", BAD, ids=[f"{site}-{bad!r}" for site, bad in BAD])
def test_a_count_that_is_not_a_valid_integer_is_a_contract_error(site, bad):
    name, _, call, _ = COUNTS[site]
    with pytest.raises(ContractError, match=f"^{name} must be an integer"):
        call(bad)


def _parts(result) -> tuple:
    if isinstance(result, DensityGrid):
        return result.h_values, result.density, result.est_error, result.label
    if dataclasses.is_dataclass(result):
        return dataclasses.astuple(result)
    return (result,)


@pytest.mark.parametrize("site", COUNTS)
def test_a_numpy_integer_count_gives_the_plain_int_result(site):
    _, _, call, good = COUNTS[site]
    for got, want in zip(_parts(call(np.int64(good))), _parts(call(good)), strict=True):
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _gaussian_params():
    mu, sigma = np.array([0.5, -1.0]), np.array([[2.0, 0.3], [0.3, 1.0]])
    return (mu, sigma), GaussianParams(mu, sigma), ("mu", "sigma")


def _score_set():
    s1, s2 = np.array([0.3, 1.2, -0.4]), np.array([-1.0, 0.1])
    return (s1, s2), ScoreSet(s1, s2), ("class1_scores", "class2_scores")


def _roc_curve():
    fpf, tpf, th = np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.25, 1.0]), np.array([np.inf, 0.0, -np.inf])
    tp, fp = np.array([0, 1, 4]), np.array([0, 1, 2])
    curve = RocCurve(fpf, tpf, th, tp_counts=tp, fp_counts=fp, n1=4, n2=2)
    return (fpf, tpf, th, tp, fp), curve, ("fpf", "tpf", "thresholds", "tp_counts", "fp_counts")


def _density_grid():
    h, d, e = np.array([0.0, 1.0, 2.0]), np.array([0.1, 0.5, 0.2]), np.array([0.0, 1e-9, 2e-9])
    return (h, d, e), DensityGrid(h, d, e, 1), ("h_values", "density", "est_error")


def _series():
    x, y = np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0, 0.5])
    return (x, y), Series("s", x, y), ("x", "y")


@pytest.mark.parametrize("build", [_gaussian_params, _score_set, _roc_curve, _density_grid, _series],
                         ids=["GaussianParams", "ScoreSet", "RocCurve", "DensityGrid", "Series"])
def test_a_value_keeps_read_only_copies_of_its_callers_arrays(build):
    given, value, names = build()
    kept = {name: getattr(value, name).copy() for name in names}
    for arr in given:
        assert arr.flags.writeable
        arr[...] = 9
    for name in names:
        np.testing.assert_array_equal(getattr(value, name), kept[name])
        assert not getattr(value, name).flags.writeable
