"""Self-test of the benchmark: output contract, metric coverage, seeds.

    python3 -m pytest -q bench/tests

Runs every workload once untraced and once traced with a one-second budget
(about four minutes on two cores).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import problems  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3
HELD_OUT_SEED = 1_000_003


def bench(workload, trace, seed=SEED, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module", params=[w["name"] for w in SPEC["workloads"]])
def runs(request):
    return request.param, parse(bench(request.param, 0)), parse(bench(request.param, 1))


def test_result_line_contract(runs):
    _, (_, plain), (_, traced) = runs
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_end_to_end_metrics_are_positive(runs):
    _, (_, plain), _ = runs
    assert all(v["value"] > 0 for v in plain["metrics"].values())


def test_details_record_seed_and_machine(runs):
    workload, (detail, _), _ = runs
    assert detail["workload"] == workload and detail["seed"] == SEED
    facts = detail["facts"]
    for key in ("nproc", "python", "numpy", "scipy", "openblas", "openblas_threads", "git_commit"):
        assert key in facts
    assert facts["openblas_threads"] == 1


def test_traced_run_covers_the_north_star_layers(runs):
    workload, _, (_, traced) = runs
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    assert m["trace.spans"] > 0
    if workload == "mc-curve":
        for name in ("gaussmodel.SeededRng.normals.calls", "gaussmodel.mvn_sample.calls",
                     "gaussmodel.estimate_params.calls", "bayesllr.llr_scores.calls",
                     "rocauc.empirical_auc.calls", "smallmat.cholesky.calls"):
            assert m[name] > 0, name
        assert m["mcharness.run_trial.calls"] == 15 * workloads.TRIALS_PER_CELL
        cells = [k for k in m if k.startswith("mcharness.cell.")]
        assert len(cells) == 15 and all(m[k] > 0 for k in cells)
        assert m["mcharness.attempts_per_trial"] >= 1.0
        assert 0 < m["mcharness.pool2.busy_ratio"] and m["mcharness.pool2.trials_per_s"] > 0
        assert m["llrdist.marginal_density.calls"] == 0
    elif workload == "exact-density":
        assert m["llrdist.marginal_density.us_per_point"] > 0
        assert m["llrdist.density_roc.s"] > 0
        assert m["llrdist.adaptive_gk.nodes"] > 0
        for g in problems.GEOMETRIES:
            assert m[f"llrdist.marginal_density.{g}.s"] > 0, g
        assert m["fail_frac"] > 0
    else:
        for name in ("cli.parse_config.s", "cli.run_command.s", "csvio.to_csv.s", "svgplot.render_svg.s",
                     "cli.bytes_written", "svgplot.points", "llrdist.histogram_vs_analytic.s"):
            assert m[name] > 0, name
        assert 0 < m["cli.roc.emit_share"] < 1


def test_held_out_seed_has_the_same_structure():
    """Same geometry mix and the same pass/fail pattern for another seed."""
    def structure(seed):
        detail, result = parse(bench("exact-density", 0, seed))
        return ([p.geometry for p in problems.problem_set(seed)], result["attempted"], result["failed"],
                {k: v for k, v in detail["figures"].items() if k.endswith(".fail")})

    assert structure(SEED) == structure(HELD_OUT_SEED)


def test_seed_without_reference_is_still_checked():
    """Outside the reference table the outputs are compared across passes
    and cross-checked, and must still pass."""
    for workload in ("cli-emit", "mc-curve"):
        detail, result = parse(bench(workload, 0, HELD_OUT_SEED))
        assert detail["reference_checked"] is False
        assert result["correct"] is True and result["failed"] == 0


@pytest.fixture(scope="module")
def llrlab():
    import run

    return run.load_llrlab()


def test_chunked_density_equals_one_call(llrlab):
    """exact-density's chunked tabulation is the whole-grid call, bit for bit."""
    _, two, _ = workloads.ExactDensity().setup(llrlab, SEED, None)["cases"][0]
    h = llrlab.llrdist.default_h_grid(two, problems.H_POINTS)
    whole = llrlab.llrdist.marginal_density(h, 2, two)
    parts = [llrlab.llrdist.marginal_density(h[c:c + workloads.CHUNK_POINTS], 2, two)
             for c in range(0, h.size, workloads.CHUNK_POINTS)]
    assert np.array_equal(whole.density, np.concatenate([g.density for g in parts]))


def test_pacer_scales_to_nominal_speed(monkeypatch):
    monkeypatch.setattr(workloads, "reference_kernel", lambda: 2 * workloads.REF_NOMINAL_S)
    pacer = workloads.Pacer()
    for _ in range(3):
        pacer.timed("unit", time.sleep, 0.02)
    assert pacer.seconds(nominal=False) >= 0.02
    assert pacer.seconds() == pytest.approx(pacer.seconds(nominal=False) / 2)


def test_llrlab_errors_count_as_failures(llrlab, monkeypatch):
    def unresolved(*args, **kwargs):
        raise llrlab.SingularityError("unresolved saddle")

    density = workloads.ExactDensity()
    inp = density.setup(llrlab, SEED, None)
    inp["cases"] = inp["cases"][:2]  # the counter-example and the item-1 reproducer
    monkeypatch.setattr(llrlab.llrdist, "marginal_density", unresolved)
    res = density.run(inp, 0.0)
    assert res.attempted == res.failed == 4 * res.detail["density.passes"]
    # Only the counter-example carries no known defect.
    assert 2 * len(res.unexpected) == res.failed
    assert all(u.startswith("counter-example") for u in res.unexpected)

    curve = workloads.McCurve()
    inp = curve.setup(llrlab, SEED, None)
    monkeypatch.setattr(llrlab.mcharness, "run_trial", unresolved)
    res = curve.run(inp, 0.0)
    assert res.attempted == res.failed == len(res.unexpected) == 1


def test_cli_cross_check_catches_inconsistent_outputs(llrlab, tmp_path):
    cli = workloads.CliEmit()
    inp = cli.setup(llrlab, SEED, tmp_path)
    for cmd in ("roc", "normal-deviate", "simulate"):
        assert inp["main"](inp["argv"][cmd]) == 0
    assert workloads._cross_check(inp["dirs"], inp["sims"]) == []
    fit = inp["dirs"]["normal-deviate"] / "binormal_fit.csv"
    header, row = fit.read_text(encoding="utf-8").strip().split("\n")
    a, b, residual = row.split(",")
    fit.write_text(f"{header}\n{float(a) * 1.001!r},{b},{residual}\n", encoding="utf-8")
    assert workloads._cross_check(inp["dirs"], inp["sims"]) == [
        "normal-deviate line is not the least-squares fit of roc's points"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("cli-emit", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
