"""The three workloads of the llrlab benchmark.

Each workload has a ``setup(llrlab, seed, work_dir)`` that builds its inputs (timed
as set-up) and a ``run(inputs, seconds, tracer)`` that measures, checks the
program's outputs and returns a ``Result``.  With a tracer, ``run`` first
measures an untraced share of the budget, then installs the wrappers and
measures the same work traced, so the two can be compared.

Work is repeated while the next repetition is predicted to end within the
budget, and always done at least once.

A shared host's cores change speed many times a second: on the reference
machine a unit of work's time swung by up to 1.8x between back-to-back
repetitions.  The untraced run therefore splits its work into short units
and times each one against a fixed reference kernel run right after it
(see ``Pacer``).  It reports rates at the core speed on which that kernel
takes REF_NOMINAL_S; the rates as measured are in the run's details.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import special

import problems
import tracing

HERE = Path(__file__).resolve().parent

#: Trials per grid cell of mc-curve's learning curve (the library default is
#: 100): a cell of 20 trials is a unit of 0.03-0.2 s, short enough to time
#: against the reference kernel.
TRIALS_PER_CELL = 20

#: Grid points per marginal_density call of exact-density (801 = 9 x 89),
#: which keeps its units under 0.2 s.
CHUNK_POINTS = 89

#: Thread-pool width of the parallel learning-curve pass (= cores of the
#: reference machine; BLAS runs single-threaded, so it is also the thread cap).
POOL_WORKERS = 2

CLI_COMMANDS = ("density", "roc", "normal-deviate", "simulate")
HASHED_COMMANDS = ("roc", "normal-deviate", "simulate")


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    #: end-to-end metrics (untraced) by name
    e2e: dict = field(default_factory=dict)
    #: the workload's own headline figures (untraced), by name
    detail: dict = field(default_factory=dict)
    #: per-layer metrics (traced run only) by name
    layers: dict = field(default_factory=dict)
    #: failures that are not known defects of the program
    unexpected: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)


def _references() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def _repeat(seconds: float, work, at_least: int = 1) -> None:
    """Call work() at least at_least times, then until the next call is
    predicted to overrun the budget."""
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        work()
        durations.append(time.perf_counter() - t0)
        if len(durations) >= at_least and time.perf_counter() - start + statistics.median(durations) > seconds:
            return


#: Fastest reference_kernel() time on an idle core of the reference machine
#: (a 2-vCPU 2.0 GHz Xeon VM, Python 3.11, numpy 2.4).
REF_NOMINAL_S = 0.0097

_REF_A = np.random.default_rng(0).standard_normal((200, 7))


def reference_kernel() -> float:
    """Seconds of a fixed mix of interpreter loops and small-array numpy work.

    No change to llrlab touches it, so its time measures the speed of the
    core it ran on.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(40_000):
        acc += (i * 1.0001) % 7.0
    for _ in range(400):
        x = _REF_A @ _REF_A.T[:, :7]
        acc += float(np.exp(-0.5 * np.sum(x * x, axis=1)).sum())
    return time.perf_counter() - t0


class Pacer:
    """Times repetitions of named units of work.

    When paced, the reference kernel runs right after each repetition and
    sees nearly the same core speed, so the unit's time times
    REF_NOMINAL_S / (kernel time) is its time at nominal core speed.  A
    unit's estimate is the median over its repetitions.  Unpaced, it only
    keeps the times as measured.
    """

    def __init__(self, paced: bool = True):
        self.paced = paced
        #: seconds of each repetition by unit, as measured and at nominal speed
        self.raw, self.nominal = {}, {}
        self.refs = []

    def timed(self, key, work, *args):
        """work(*args), timed as one repetition of unit key, also when it raises."""
        t0 = time.perf_counter()
        try:
            return work(*args)
        finally:
            spent = time.perf_counter() - t0
            self.raw.setdefault(key, []).append(spent)
            if self.paced:
                ref = reference_kernel()
                self.refs.append(ref)
                self.nominal.setdefault(key, []).append(spent * REF_NOMINAL_S / ref)

    def median(self, key, nominal: bool = True) -> float:
        return statistics.median((self.nominal if nominal else self.raw)[key])

    def seconds(self, nominal: bool = True) -> float:
        """One repetition of every unit: the sum of their medians."""
        return sum(self.median(key, nominal) for key in self.raw)

    def record(self, res) -> None:
        if self.refs:
            res.detail["core.median_ref_s"] = statistics.median(self.refs)


@contextlib.contextmanager
def _traced(tracer):
    """Install the wrappers for the body of a with statement."""
    restore = tracing.install(tracer, _geometry_of)
    try:
        yield
    finally:
        restore()


def _geometry_of(problem) -> str:
    return problems.geometry_of(problem.class1.mu, problem.class1.sigma,
                                problem.class2.mu, problem.class2.sigma)


# ---------------------------------------------------------------------------
# mc-curve
# ---------------------------------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _timed_curve(llrlab, config, workers=None):
    """(seconds, CurveSummary or None, error message or None) of one learning_curve call."""
    t0 = time.perf_counter()
    try:
        summary = llrlab.mcharness.learning_curve(config, max_workers=workers)
    except llrlab.LlrLabError as err:
        return time.perf_counter() - t0, None, f"learning_curve raised {type(err).__name__}: {err}"
    return time.perf_counter() - t0, summary, None


class McCurve:
    name = "mc-curve"

    def setup(self, llrlab, seed, work_dir):
        config = llrlab.ExperimentConfig(base_seed=seed, n_trials=TRIALS_PER_CELL)
        # Warm-up: first calls of every layer, at a trivial size.
        llrlab.learning_curve(llrlab.ExperimentConfig(dims=(3,), train_sizes=(20,), n_trials=2,
                                                      test_size=10, base_seed=seed))
        # One single-cell config per grid cell: trials are seeded by
        # (base_seed, p, n, trial), so the cells' rows are the full curve's.
        cells = [dataclasses.replace(config, dims=(p,), train_sizes=(n,))
                 for p in sorted(config.dims) for n in sorted(config.train_sizes)]
        return {"llrlab": llrlab, "config": config, "cells": cells,
                "reference": _references()["mc-curve"].get(str(seed))}

    def run(self, inp, seconds, tracer=None):
        llrlab, config = inp["llrlab"], inp["config"]
        trials = len(config.dims) * len(config.train_sizes) * config.n_trials
        res = Result()
        #: the CSV of every pass, or the error that stopped it
        outcomes = []

        def full_pass(workers):
            dt, summary, error = _timed_curve(llrlab, config, workers)
            outcomes.append((summary.to_csv() if summary else None, error))
            return dt

        if tracer is None:
            # Untraced: the grid one cell per call, round after round; the
            # cells' paced medians add up to a serial pass.
            pacer = Pacer()

            def one_round():
                rows, errors = [], []
                for cell in inp["cells"]:
                    try:
                        summary = pacer.timed(cell.dims + cell.train_sizes, llrlab.mcharness.learning_curve, cell)
                    except llrlab.LlrLabError as err:
                        errors.append(f"learning_curve raised {type(err).__name__}: {err}")
                    else:
                        rows.extend(summary.rows)
                csv = None if errors else llrlab.mcharness.CurveSummary(rows=tuple(rows)).to_csv()
                outcomes.append((csv, "; ".join(errors) or None))

            _repeat(seconds, one_round)
            serial_s = pacer.seconds(nominal=False)
            res.e2e["work_per_s"] = trials / pacer.seconds()
            pacer.record(res)
            res.detail["mc.rounds"] = len(outcomes)
        else:
            serial_s = full_pass(None)
            t2w = full_pass(POOL_WORKERS)
            with _traced(tracer):
                mark = len(tracer.spans)
                traced_serial = full_pass(None)
                window = tracer.spans[mark:]
                mark = len(tracer.spans)
                traced_2w = full_pass(POOL_WORKERS)
                pool = tracer.spans[mark:]
            res.layers = tracing.layer_metrics(window)
            busy = sum(sp.duration for sp in pool if sp.name == "mcharness.run_trial")
            res.layers["mcharness.pool2.busy_ratio"] = busy / (POOL_WORKERS * traced_2w)
            res.layers["mcharness.pool2.trials_per_s"] = trials / traced_2w
            res.layers["trace.overhead_frac"] = traced_serial / serial_s - 1.0
            res.detail["mc.trials_per_s_2w"] = trials / t2w

        res.detail["mc.trials_per_s"] = trials / serial_s

        # Check: every pass (serial, per cell or pooled) reproduces the
        # reference CSV of this commit for the seed; without one, the passes
        # must agree with each other and be plausible.
        ref = inp["reference"]
        res.notes["reference_checked"] = ref is not None
        first = outcomes[0][0]
        for csv, error in outcomes:
            res.attempted += 1
            if error:
                ok = False
            elif ref is not None:
                ok = sha256(csv) == ref
                error = "learning_curve CSV differs from the reference"
            else:
                ok = csv == first and _plausible_curve(csv, config)
                error = "learning_curve CSV differs between passes or is implausible"
            if not ok:
                res.failed += 1
                res.unexpected.append(error)
        return res


def _plausible_curve(text: str, config) -> bool:
    rows = [line.split(",") for line in text.strip().split("\n")[1:]]
    if len(rows) != len(config.dims) * len(config.train_sizes):
        return False
    for row in rows:
        true, apparent = float(row[2]), float(row[3])
        if not (0.5 < true < 1.0 and 0.5 < apparent < 1.0 and int(row[6]) == config.n_trials):
            return False
    return True


# ---------------------------------------------------------------------------
# exact-density
# ---------------------------------------------------------------------------


class ExactDensity:
    name = "exact-density"

    def setup(self, llrlab, seed, work_dir):
        rng = np.random.default_rng([seed, 0x5C])
        cases = []
        for prob in problems.problem_set(seed):
            two = llrlab.TwoClassProblem(
                llrlab.GaussianParams(np.array(prob.mu1), np.array(prob.sigma1)),
                llrlab.GaussianParams(np.array(prob.mu2), np.array(prob.sigma2)),
            )
            sims = {label: problems.simulate_scores(prob, label, problems.SIM_SIZE, rng) for label in (1, 2)}
            cases.append((prob, two, sims))
        return {"llrlab": llrlab, "cases": cases}

    def _pass(self, inp, pacer, tracer=None):
        """Tabulate every problem once: per problem (grid points, failed checks by label).

        Each class's grid is tabulated CHUNK_POINTS at a time, every call a
        unit of the pacer.  An error of llrlab fails both grids of its problem.
        """
        llrlab = inp["llrlab"]
        llrdist = llrlab.llrdist
        out = []
        for i, (prob, two, sims) in enumerate(inp["cases"]):
            span = tracer.span("bench.problem", problem=prob.name) if tracer else contextlib.nullcontext()
            try:
                with span:
                    h = pacer.timed((i, "h"), llrdist.default_h_grid, two, problems.H_POINTS)
                    grids = {}
                    for label in (1, 2):
                        parts = [pacer.timed((i, label, c), llrdist.marginal_density,
                                             h[c:c + CHUNK_POINTS], label, two)
                                 for c in range(0, h.size, CHUNK_POINTS)]
                        grids[label] = llrdist.DensityGrid(h, np.concatenate([g.density for g in parts]),
                                                           np.concatenate([g.est_error for g in parts]), label)
                    roc = pacer.timed((i, "roc"), llrdist.density_roc, grids[1], grids[2])
            except llrlab.LlrLabError as err:
                raised = [f"raised {type(err).__name__}"]
                out.append((0, {1: raised, 2: raised}))
            else:
                out.append((h.size, problems.check_pair(h, grids[1].density, grids[2].density,
                                                        roc.fpf, roc.tpf, sims)))
        return out

    def run(self, inp, seconds, tracer=None):
        res = Result()
        passes = []
        pacer = Pacer()
        if tracer is None:
            # A pass takes a third to a half of a 30-s budget.
            _repeat(seconds, lambda: passes.append(self._pass(inp, pacer)), at_least=2)
        else:
            passes.append(self._pass(inp, pacer))
            stopwatch = Pacer(paced=False)
            with _traced(tracer):
                passes.append(self._pass(inp, stopwatch, tracer))
            res.layers = tracing.layer_metrics(tracer.spans)
            res.layers["trace.overhead_frac"] = stopwatch.seconds(nominal=False) / pacer.seconds(nominal=False) - 1.0

        # A grid earns its points only if it passed every check in every pass.
        good = sum(passes[0][i][0] for i in range(len(inp["cases"])) for label in (1, 2)
                   if not any(p[i][1][label] for p in passes))
        res.e2e["work_per_s"] = good / pacer.seconds()
        pacer.record(res)
        by_geometry = {g: 0 for g in problems.GEOMETRIES}
        for one_pass in passes:
            for (prob, _, _), (_, failed) in zip(inp["cases"], one_pass):
                for label in (1, 2):
                    res.attempted += 1
                    if not failed[label]:
                        continue
                    res.failed += 1
                    by_geometry[prob.geometry] += 1
                    if prob.known_defect is None:
                        res.unexpected.append(f"{prob.name} class {label}: {','.join(failed[label])}")
        res.detail.update({"density.good_points_per_s": good / pacer.seconds(nominal=False),
                           "density.passes": len(passes)})
        for g in problems.GEOMETRIES:
            res.detail[f"density.{g}.fail"] = by_geometry[g] / len(passes)
        res.notes["failures"] = sorted(f"{prob.name}:{label}:{','.join(failed[label])}"
                                       for (prob, _, _), (_, failed) in zip(inp["cases"], passes[0])
                                       for label in (1, 2) if failed[label])
        res.layers.update({k: v for k, v in res.detail.items() if k.endswith(".fail")})
        return res


# ---------------------------------------------------------------------------
# cli-emit
# ---------------------------------------------------------------------------


def outputs_sha(out_dir: Path) -> str:
    """One digest over every file a command wrote, by name."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def cli_argv(command: str, seed: int, out_dir: Path) -> list:
    return [command, "--seed", str(seed), "--out", str(out_dir)]


def _read_density_csv(path: Path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1))
    return data[:, 0], data[:, 1]


def _cross_check(dirs, sims) -> list:
    """Failed cross-checks of one round's roc, normal-deviate and simulate outputs.

    The three commands draw the same scores for a seed.  simulate's scores
    must follow each class's score law (two-sample KS against the
    benchmark's own draws); roc's area must be their Mann-Whitney area; and
    the normal-deviate line must be the least-squares fit through roc's
    interior points in deviate space.
    """
    failed = []
    table = np.loadtxt(dirs["simulate"] / "scores.csv", delimiter=",", skiprows=1)
    scores = {label: table[table[:, 0] == label, 1] for label in (1, 2)}
    for label in (1, 2):
        if scores[label].size == 0 or problems.ks_two_sample(scores[label], sims[label]) > problems.KS2_TOL:
            failed.append(f"simulate class {label} scores do not follow the class's score law")
    roc = np.loadtxt(dirs["roc"] / "roc.csv", delimiter=",", skiprows=1)
    fpf, tpf = roc[:, 0], roc[:, 1]
    area = float(np.sum(0.5 * (tpf[1:] + tpf[:-1]) * np.diff(fpf)))
    if not abs(area - problems.mann_whitney_auc(scores[1], scores[2])) <= 1e-9:
        failed.append("roc area differs from the Mann-Whitney area of simulate's scores")
    interior = (fpf > 0) & (fpf < 1) & (tpf > 0) & (tpf < 1)
    b, a = np.polyfit(special.ndtri(fpf[interior]), special.ndtri(tpf[interior]), 1)
    fit = np.loadtxt(dirs["normal-deviate"] / "binormal_fit.csv", delimiter=",", skiprows=1)
    if not np.allclose(fit[:2], (a, b), rtol=1e-6, atol=1e-9):
        failed.append("normal-deviate line is not the least-squares fit of roc's points")
    return failed


class CliEmit:
    name = "cli-emit"

    def setup(self, llrlab, seed, work_dir):
        import llrlab.cli

        rng = np.random.default_rng([seed, 0xC1])
        prob = problems.COUNTER_EXAMPLE
        sims = {label: problems.simulate_scores(prob, label, problems.SIM_SIZE, rng) for label in (1, 2)}
        argv = {cmd: cli_argv(cmd, seed, work_dir / cmd) for cmd in CLI_COMMANDS}
        return {"main": llrlab.cli.main, "argv": argv, "dirs": {c: work_dir / c for c in CLI_COMMANDS},
                "sims": sims, "reference": _references()["cli-emit"].get(str(seed))}

    def _round(self, inp, pacer, failures, first, tracer=None):
        for cmd in CLI_COMMANDS:
            span = tracer.span("cli.main", command=cmd) if tracer else contextlib.nullcontext()
            with span, contextlib.redirect_stdout(io.StringIO()):
                code = pacer.timed(cmd, inp["main"], inp["argv"][cmd])
            failures.append(self._check(inp, cmd, code, first))
        if len(pacer.raw["roc"]) == 1:
            # First round of a series: the outputs must also agree with each other.
            try:
                failures.extend(_cross_check(inp["dirs"], inp["sims"]) or [None])
            except (OSError, ValueError) as err:
                failures.append(f"outputs unreadable: {err}")

    def _check(self, inp, cmd, code, first):
        """A failure message for one invocation, or None.

        Density grids are checked by invariants.  The other outputs must
        match this commit's reference digest for the seed, or, for a seed
        without one, the first round's outputs.
        """
        if code != 0:
            return f"{cmd} exited {code}"
        out_dir = inp["dirs"][cmd]
        if cmd == "density":
            h, f1 = _read_density_csv(out_dir / "density_w1.csv")
            h2, f2 = _read_density_csv(out_dir / "density_w2.csv")
            if not np.array_equal(h, h2):
                return "density grids differ between classes"
            failed = problems.check_pair(h, f1, f2, None, None, inp["sims"])
            return f"density {failed}" if failed[1] or failed[2] else None
        digest = outputs_sha(out_dir)
        ref = inp["reference"]
        if ref is not None:
            return None if digest == ref[cmd] else f"{cmd} outputs differ from the reference"
        return None if digest == first.setdefault(cmd, digest) else f"{cmd} outputs differ from the first round's"

    def run(self, inp, seconds, tracer=None):
        res = Result()
        failures = []
        first = {}
        pacer = Pacer()
        budget = seconds if tracer is None else seconds / 2
        _repeat(budget, lambda: self._round(inp, pacer, failures, first))
        if tracer is not None:
            stopwatch = Pacer(paced=False)
            with _traced(tracer):
                _repeat(budget, lambda: self._round(inp, stopwatch, failures, first, tracer))
            res.layers = tracing.layer_metrics(tracer.spans)
            roc_ops = {sp.op for sp in tracer.spans if sp.name == "cli.main" and sp.attrs["command"] == "roc"}
            emit = tracing.outer_layer_time(tracer.spans, roc_ops, ("csvio", "svgplot"))
            res.layers["cli.roc.emit_share"] = emit / sum(stopwatch.raw["roc"])
            res.layers["trace.overhead_frac"] = stopwatch.seconds(nominal=False) / pacer.seconds(nominal=False) - 1.0

        # Geometric mean: each command's relative change weighs the same.
        rate = 1.0 / float(np.exp(np.mean(np.log([pacer.median(cmd) for cmd in CLI_COMMANDS]))))
        res.e2e["work_per_s"] = rate
        pacer.record(res)
        res.detail.update({f"cli.{cmd}_s": pacer.median(cmd, nominal=False) for cmd in CLI_COMMANDS})
        res.detail["cli.rounds"] = len(pacer.raw["density"])
        res.attempted = len(failures)
        res.unexpected = [f for f in failures if f is not None]
        res.failed = len(res.unexpected)
        res.notes["reference_checked"] = inp["reference"] is not None
        return res


WORKLOADS = {w.name: w for w in (McCurve(), ExactDensity(), CliEmit())}
