"""Monte-Carlo learning-curve engine.

The population setup is two unit-covariance multinormal classes with means
0 and c*1; c is calibrated per dimensionality so the squared Mahalanobis
separation (and hence the asymptotic Bayes AUC) is the same for every p.
A trial trains the plug-in Bayes rule on n samples per class, then scores
both the training sample itself (apparent AUC) and a fresh pseudo-infinite
test sample (true AUC).

Every trial draws from its own stream derived from (base_seed, p, n, trial),
so a cell's rows do not depend on which other cells run in the same call,
nor on which process runs each trial.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import smallmat
from .bayesllr import TwoClassProblem, llr_scores
from .csvio import csv_text
from .errors import ConditioningError, ContractError, LlrLabError
from .gaussmodel import GaussianParams, SeededRng, estimate_params, mvn_sample
from .rocauc import ScoreSet, empirical_auc

#: Stream-derivation roles within one trial (mixed in after the attempt index).
_ROLE_TRAIN1, _ROLE_TRAIN2, _ROLE_TEST1, _ROLE_TEST2 = 1, 2, 3, 4

_MAX_RETRIES = 3


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid and budget of a learning-curve experiment."""

    dims: tuple = (3, 7, 11)
    train_sizes: tuple = (20, 50, 100, 500, 2000)
    n_trials: int = 100
    test_size: int = 1000
    target_delta_sq: float = 0.8
    base_seed: int = 2

    def __post_init__(self):
        dims = tuple(smallmat.as_integer(p, "a dims entry", 1) for p in self.dims)
        sizes = tuple(smallmat.as_integer(n, "a train_sizes entry", 1) for n in self.train_sizes)
        if not dims:
            raise ContractError("dims must not be empty")
        if not sizes:
            raise ContractError("train_sizes must not be empty")
        repeated = [name for name, v in (("dims", dims), ("train_sizes", sizes)) if len(set(v)) < len(v)]
        if repeated:
            raise ContractError(f"{' and '.join(repeated)} must not repeat a value")
        if any(n <= max(dims) for n in sizes):
            raise ContractError(
                f"every training size must exceed max(dims)={max(dims)} for estimability"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "train_sizes", sizes)
        object.__setattr__(self, "n_trials", smallmat.as_integer(self.n_trials, "n_trials", 1))
        object.__setattr__(self, "test_size", smallmat.as_integer(self.test_size, "test_size", 1))
        object.__setattr__(self, "target_delta_sq", _separation(self.target_delta_sq))
        object.__setattr__(self, "base_seed", smallmat.as_integer(self.base_seed, "base_seed"))

    def rng(self) -> SeededRng:
        return SeededRng(self.base_seed)


@dataclass(frozen=True)
class TrialResult:
    """AUC pair from one Monte-Carlo trial, with the index of the attempt
    whose fit succeeded (0 unless singular training covariances were retried)."""

    auc_true: float
    auc_apparent: float
    attempt: int


@dataclass(frozen=True)
class CurveRow:
    """Across-trial summary at one (dimensionality, training size) cell.

    retries is the sum of the trials' TrialResult.attempt: the fits retried
    on a fresh sub-stream over the whole cell.  It is not written to CSV.
    """

    p: int
    n: int
    mean_auc_true: float
    mean_auc_apparent: float
    var_auc_true: float
    var_auc_apparent: float
    n_trials: int
    retries: int = 0


@dataclass(frozen=True)
class CurveSummary:
    """Learning-curve table, ordered by p ascending then n ascending."""

    rows: tuple

    def to_csv(self) -> str:
        """Schema: p,n,mean_auc_true,mean_auc_apparent,var_auc_true,var_auc_apparent,n_trials."""
        header = (
            "p",
            "n",
            "mean_auc_true",
            "mean_auc_apparent",
            "var_auc_true",
            "var_auc_apparent",
            "n_trials",
        )
        return csv_text(header, [[getattr(r, name) for r in self.rows] for name in header])

    def cell(self, p: int, n: int) -> CurveRow:
        for r in self.rows:
            if r.p == p and r.n == n:
                return r
        raise KeyError(f"no cell (p={p}, n={n})")


def _separation(target_delta_sq) -> float:
    """A squared Mahalanobis separation as a float; it must be finite and positive."""
    target = float(target_delta_sq)
    if not 0.0 < target < np.inf:
        raise ContractError(f"target_delta_sq must be positive and finite, got {target!r}")
    return target


def calibrate_c(p: int, target_delta_sq: float) -> float:
    """Mean offset c with squared Mahalanobis separation c^2 p = target."""
    p = smallmat.as_integer(p, "p", 1)
    return float(np.sqrt(_separation(target_delta_sq) / p))


def asymptotic_auc(target_delta_sq: float) -> float:
    """Equal-covariance Bayes AUC at squared separation delta_sq: Phi(delta/sqrt(2))."""
    return float(smallmat.std_normal_cdf_array(np.sqrt(_separation(target_delta_sq)) / np.sqrt(2.0)))


@lru_cache(maxsize=64)
def population(p: int, c: float) -> TwoClassProblem:
    """The simulation population: mu1 = 0, mu2 = c*1, identity covariances.

    Built once per (p, c) and shared by every trial of a cell; the problem is
    frozen and its arrays read-only, so no trial can alter it for the next.
    """
    eye = np.eye(p)
    return TwoClassProblem(
        class1=GaussianParams(np.zeros(p), eye),
        class2=GaussianParams(np.full(p, float(c)), eye),
    )


def run_trial(p: int, n: int, c: float, test_size: int, rng: SeededRng) -> TrialResult:
    """One Monte-Carlo trial: sample, fit, and score both ways.

    n must exceed p, so that the training scatter can be full rank.  A
    singular training covariance (a :class:`ConditioningError`) is retried
    on the next derived sub-stream at most three times before the error
    surfaces with trial provenance.  The result is a pure function of the
    arguments.
    """
    p = smallmat.as_integer(p, "p", 1)
    n = smallmat.as_integer(n, "n", p + 1)
    test_size = smallmat.as_integer(test_size, "test_size", 1)
    pop = population(p, c)

    last_err = None
    for attempt in range(_MAX_RETRIES + 1):
        train1 = mvn_sample(pop.class1, n, rng.derive(_ROLE_TRAIN1, attempt))
        train2 = mvn_sample(pop.class2, n, rng.derive(_ROLE_TRAIN2, attempt))
        try:
            fitted = TwoClassProblem(
                class1=estimate_params(train1), class2=estimate_params(train2)
            )
        except ConditioningError as err:
            last_err = err
            continue
        test1 = mvn_sample(pop.class1, test_size, rng.derive(_ROLE_TEST1, attempt))
        test2 = mvn_sample(pop.class2, test_size, rng.derive(_ROLE_TEST2, attempt))
        apparent = ScoreSet(llr_scores(train1, fitted), llr_scores(train2, fitted))
        true = ScoreSet(llr_scores(test1, fitted), llr_scores(test2, fitted))
        return TrialResult(
            auc_true=empirical_auc(true),
            auc_apparent=empirical_auc(apparent),
            attempt=attempt,
        )
    raise ConditioningError(
        f"parameter estimation failed after {_MAX_RETRIES + 1} attempts at p={p}, n={n}"
    ) from last_err


def _summarize(p: int, n: int, results: list[TrialResult]) -> CurveRow:
    true = np.array([r.auc_true for r in results])
    app = np.array([r.auc_apparent for r in results])
    if len(results) > 1:
        var_true = float(np.var(true, ddof=1))
        var_app = float(np.var(app, ddof=1))
    else:
        var_true = var_app = float("nan")
    return CurveRow(
        p=p,
        n=n,
        mean_auc_true=float(true.mean()),
        mean_auc_apparent=float(app.mean()),
        var_auc_true=var_true,
        var_auc_apparent=var_app,
        n_trials=len(results),
        retries=sum(r.attempt for r in results),
    )


def _run_slice(config: ExperimentConfig, tasks: list) -> list[TrialResult]:
    """Run (p, n, c, trial) tasks in order; an error names its trial."""
    base = config.rng()
    results = []
    for p, n, c, t in tasks:
        try:
            results.append(run_trial(p, n, c, config.test_size, base.derive(p, n, t)))
        except LlrLabError as err:
            raise type(err)(f"trial (p={p}, n={n}, trial={t}) failed: {err}") from err
    return results


#: Forked trial workers, kept from one learning_curve call to the next as
#: (pid, task pipe into it, result pipe out of it), in the order they are dealt tasks.
_workers = []
#: Serializes the calls that deal tasks to the workers.
_workers_lock = threading.Lock()


def _serve(task_fd: int, result_fd: int):
    """Body of a forked worker: for each (config, tasks) read from the task
    pipe, run the slice and pickle its results or its error down the result
    pipe; end the process, without returning, when the task pipe closes.

    It ignores SIGINT, which a terminal's Ctrl-C sends to it along with its
    caller: the caller kills its workers if the interrupt stops a call, and
    an interrupt between calls leaves them serving.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    code = 1
    try:
        with open(task_fd, "rb") as inbox, open(result_fd, "wb") as outbox:
            while True:
                try:
                    config, tasks = pickle.load(inbox)
                except EOFError:
                    break
                try:
                    outcome = (True, _run_slice(config, tasks))
                except Exception as err:  # every failure is reported to the caller
                    outcome = (False, err)
                outbox.write(pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL))
                outbox.flush()
        code = 0
    finally:
        os._exit(code)


def _fork_worker():
    """Fork one more worker and append it to _workers."""
    task_r, task_w = os.pipe()
    result_r, result_w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        for fd in (task_r, task_w, result_r, result_w):
            os.close(fd)
        raise
    if pid == 0:
        os.close(task_w)
        os.close(result_r)
        _serve(task_r, result_w)
    os.close(task_r)
    os.close(result_w)
    _workers.append((pid, open(task_w, "wb"), open(result_r, "rb")))


def _retire_workers():
    """Kill and reap every worker."""
    while _workers:
        pid, inbox, outbox = _workers.pop()
        for pipe in (inbox, outbox):
            with contextlib.suppress(OSError):  # a task left unsent to a dead worker
                pipe.close()
        with contextlib.suppress(ProcessLookupError, ChildProcessError):  # reaped elsewhere
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _forget_workers():
    """In a forked child: close the parent's worker pipes, so that those
    workers still see the task pipe close when the parent ends, and start
    with no workers and a free lock."""
    global _workers_lock
    for _, inbox, outbox in _workers:
        inbox.close()
        outbox.close()
    _workers.clear()
    _workers_lock = threading.Lock()


atexit.register(_retire_workers)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _run_tasks(config: ExperimentConfig, tasks: list, workers: int) -> list[TrialResult]:
    """Results of every task, in task order.

    Process k runs tasks[k::workers]: the caller is process 0, and the
    others are the first workers - 1 of _workers, forked when first needed.
    A call that raises, or is interrupted, kills and reaps every worker.
    """
    if workers == 1:
        return _run_slice(config, tasks)
    results = [None] * len(tasks)
    with _workers_lock:
        try:
            while len(_workers) < workers - 1:
                _fork_worker()
            helpers = _workers[: workers - 1]
            for k, (pid, inbox, _) in enumerate(helpers, 1):
                try:
                    inbox.write(pickle.dumps((config, tasks[k::workers]), protocol=pickle.HIGHEST_PROTOCOL))
                    inbox.flush()
                except BrokenPipeError:
                    raise LlrLabError(f"trial worker process {pid} ended without reporting") from None
            results[0::workers] = _run_slice(config, tasks[0::workers])
            for k, (pid, _, outbox) in enumerate(helpers, 1):
                try:
                    ok, payload = pickle.load(outbox)
                except (EOFError, pickle.UnpicklingError):
                    raise LlrLabError(f"trial worker process {pid} ended without reporting") from None
                if not ok:
                    raise payload
                results[k::workers] = payload
        except BaseException:
            _retire_workers()
            raise
    return results


def learning_curve(config: ExperimentConfig, max_workers: int | None = None) -> CurveSummary:
    """Mean and variance of true and apparent AUC over the whole grid.

    The grid's trials are dealt round-robin, in (p, n, trial) order, over
    min(max_workers, usable cores, trials) processes: the caller and
    workers forked from it, so call it from a single-threaded process or
    pass max_workers=1.  max_workers=None uses every usable core; 1, or a
    platform without os.fork, runs every trial in the caller.  Each trial
    draws from its own stream, so the result does not depend on
    max_workers, bit for bit.

    The first call that needs a worker forks it, and it serves every later
    call: a worker runs the library as it stood when it was forked, so code
    patched after that runs only in the caller.  Calls that use workers run
    one at a time.  A call that raises kills and reaps every worker, and so
    does the interpreter's exit; a worker whose caller dies without exiting
    ends once its task pipe closes.
    """
    if max_workers is not None:
        max_workers = smallmat.as_integer(max_workers, "max_workers", 1)
    cells = [(p, n) for p in sorted(config.dims) for n in sorted(config.train_sizes)]
    offsets = {p: calibrate_c(p, config.target_delta_sq) for p in config.dims}
    tasks = [(p, n, offsets[p], t) for p, n in cells for t in range(config.n_trials)]
    if not hasattr(os, "fork"):
        cores = 1
    elif hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    results = _run_tasks(config, tasks, min(max_workers or cores, cores, len(tasks)))
    per_cell = config.n_trials
    rows = [
        _summarize(p, n, results[i * per_cell : (i + 1) * per_cell])
        for i, (p, n) in enumerate(cells)
    ]
    return CurveSummary(rows=tuple(rows))

