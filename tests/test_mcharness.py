import hashlib
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from llrlab import (
    ExperimentConfig,
    SeededRng,
    asymptotic_auc,
    calibrate_c,
    learning_curve,
    mahalanobis_sq,
    run_trial,
)
from llrlab.errors import ConditioningError, ContractError, LlrLabError
from llrlab import mcharness


class TestCalibrateC:
    def test_eleven_dimensions(self):
        # published operating point: c rounds to 0.27 at p=11
        assert calibrate_c(11, 0.8) == pytest.approx(0.26967994498529685, rel=1e-12)
        assert round(calibrate_c(11, 0.8), 2) == 0.27

    def test_one_dimension(self):
        assert calibrate_c(1, 0.8) == pytest.approx(np.sqrt(0.8), rel=1e-15)

    def test_round_trip_through_mahalanobis(self):
        for p in (3, 7, 11):
            c = calibrate_c(p, 0.8)
            dsq = mahalanobis_sq(np.zeros(p), np.full(p, c), np.eye(p))
            assert dsq == pytest.approx(0.8, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ContractError):
            calibrate_c(0, 0.8)
        # an infinite separation would put the class-2 mean at infinity
        for target in (0.0, np.inf, np.nan):
            for call in (lambda t: calibrate_c(3, t), asymptotic_auc):
                with pytest.raises(ContractError, match="target_delta_sq must be positive"):
                    call(target)


class TestAsymptoticAuc:
    def test_published_operating_point(self):
        # c = 0.27 at p = 11 gives delta^2 = 0.8019 and AUC ~ 0.74
        assert asymptotic_auc(0.8019) == pytest.approx(0.7367, abs=1e-4)
        assert round(asymptotic_auc(0.8019), 2) == 0.74
        assert type(asymptotic_auc(0.8019)) is float

    def test_vanishing_separation(self):
        assert asymptotic_auc(1e-12) == pytest.approx(0.5, abs=1e-6)

    def test_large_sample_simulation_oracle(self):
        result = run_trial(p=3, n=100_000, c=calibrate_c(3, 0.8), test_size=100_000,
                           rng=SeededRng(1234).derive(3, 100_000, 0))
        assert result.auc_true == pytest.approx(asymptotic_auc(0.8), abs=0.005)


class TestRunTrial:
    def test_bit_identical_repeats(self):
        rng = SeededRng(9).derive(5, 30, 0)
        a = run_trial(5, 30, calibrate_c(5, 0.8), 200, rng)
        b = run_trial(5, 30, calibrate_c(5, 0.8), 200, rng)
        assert a == b

    def test_minimal_training_size(self):
        result = run_trial(4, 6, calibrate_c(4, 0.8), 50, SeededRng(11).derive(4, 6, 0))
        assert 0.0 <= result.auc_true <= 1.0
        assert 0.0 <= result.auc_apparent <= 1.0

    def test_large_n_approaches_asymptote(self):
        result = run_trial(3, 10_000, calibrate_c(3, 0.8), 10_000, SeededRng(12).derive(0))
        assert result.auc_true == pytest.approx(asymptotic_auc(0.8), abs=0.01)

    def test_population_is_built_once_and_read_only(self):
        c = calibrate_c(7, 0.8)
        pop = mcharness.population(7, c)
        assert mcharness.population(7, c) is pop
        for params in (pop.class1, pop.class2):
            for arr in (params.mu, params.sigma, params.chol):
                assert not arr.flags.writeable

    def test_n_not_exceeding_p_rejected(self):
        with pytest.raises(ContractError):
            run_trial(5, 5, 0.4, 100, SeededRng(1))

    def test_retry_uses_fresh_substream_then_succeeds(self, monkeypatch):
        calls = []
        real = mcharness.estimate_params

        def flaky(samples):
            calls.append(len(calls))
            if len(calls) <= 3:
                raise ConditioningError("forced failure")
            return real(samples)

        monkeypatch.setattr(mcharness, "estimate_params", flaky)
        result = run_trial(3, 20, 0.5, 50, SeededRng(77).derive(1))
        assert result.auc_true >= 0.0
        assert len(calls) >= 4

    def test_result_names_the_attempt_whose_fit_succeeded(self, monkeypatch):
        real = mcharness.estimate_params
        failed = []

        def fails_once(samples):
            if not failed:
                failed.append(1)
                raise ConditioningError("forced failure")
            return real(samples)

        rng = SeededRng(77).derive(1)
        assert run_trial(3, 20, 0.5, 50, rng).attempt == 0
        monkeypatch.setattr(mcharness, "estimate_params", fails_once)
        assert run_trial(3, 20, 0.5, 50, rng).attempt == 1

    def test_retry_budget_exhausted_surfaces_error(self, monkeypatch):
        def always_fail(samples):
            raise ConditioningError("forced failure")

        monkeypatch.setattr(mcharness, "estimate_params", always_fail)
        with pytest.raises(ConditioningError, match="p=3, n=20"):
            run_trial(3, 20, 0.5, 50, SeededRng(78).derive(1))


SMALL = dict(dims=(2, 3), train_sizes=(8, 25), n_trials=6, test_size=40, base_seed=77)
CORES = len(os.sched_getaffinity(0))


@pytest.fixture
def fresh_workers():
    """No trial worker before the test or after it: a worker runs the code
    it was forked with, so the test's patches are what its calls fork, and
    none of its workers serves a later test."""
    mcharness._retire_workers()
    yield
    mcharness._retire_workers()


@pytest.fixture
def forks(monkeypatch):
    """The pids forked by mcharness during the test, in order."""
    pids = []
    real_fork = os.fork

    def recorded_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(mcharness.os, "fork", recorded_fork)
    return pids


def worker_pids() -> list:
    return [pid for pid, _, _ in mcharness._workers]


def running(pid: int) -> bool:
    """Whether pid names a live process that has not yet ended (a zombie
    has ended, whoever is left to reap it)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def wait_until_gone(pids, seconds: float) -> list:
    """The pids still running after up to seconds of polling."""
    deadline = time.monotonic() + seconds
    while any(running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.01)
    return [pid for pid in pids if running(pid)]


class TestLearningCurve:
    def test_row_order_and_shape(self):
        summary = learning_curve(ExperimentConfig(**SMALL))
        assert [(r.p, r.n) for r in summary.rows] == [(2, 8), (2, 25), (3, 8), (3, 25)]
        assert all(r.n_trials == 6 for r in summary.rows)

    def test_single_trial_variances_are_nan(self):
        cfg = ExperimentConfig(dims=(2,), train_sizes=(10,), n_trials=1, test_size=30, base_seed=5)
        summary = learning_curve(cfg)
        row = summary.rows[0]
        assert np.isnan(row.var_auc_true) and np.isnan(row.var_auc_apparent)
        trial = run_trial(2, 10, calibrate_c(2, 0.8), 30, cfg.rng().derive(2, 10, 0))
        assert row.mean_auc_true == trial.auc_true

    def test_cell_counts_its_retried_fits(self, fresh_workers, monkeypatch):
        # Fail the fit of trial 0's first training sample in cell (2, 8),
        # whichever process runs it; its retry draws a different sample.
        cfg = ExperimentConfig(**SMALL)
        population = mcharness.population(2, calibrate_c(2, cfg.target_delta_sq))
        stream = cfg.rng().derive(2, 8, 0).derive(mcharness._ROLE_TRAIN1, 0)
        doomed = mcharness.mvn_sample(population.class1, 8, stream)
        real = mcharness.estimate_params

        def fails_one_fit(samples):
            if samples.shape == doomed.shape and np.array_equal(samples, doomed):
                raise ConditioningError("forced failure")
            return real(samples)

        monkeypatch.setattr(mcharness, "estimate_params", fails_one_fit)
        for workers in (1, 2, None):
            summary = learning_curve(cfg, max_workers=workers)
            assert [r.retries for r in summary.rows] == [1, 0, 0, 0], workers
        # Positional construction without the count still works.
        assert mcharness.CurveRow(2, 8, 0.5, 0.5, 0.0, 0.0, 1).retries == 0

    def test_csv_bytes_match_golden_digest(self):
        # Pinned from the row-major scoring kernel's output: a faster trial must
        # not move a single output bit.
        cfg = ExperimentConfig(
            dims=(3, 7), train_sizes=(20, 100), n_trials=5, test_size=300, base_seed=13
        )
        digest = hashlib.sha256(learning_curve(cfg).to_csv().encode()).hexdigest()
        assert digest == "c5c9c4f451bd57849c0519f7a06ddfaa5a86a1f4888db27fbd5890d94f612503"

    def test_parallel_schedule_is_bitwise_identical(self):
        cfg = ExperimentConfig(**SMALL)
        serial = learning_curve(cfg, max_workers=1).to_csv()
        assert learning_curve(cfg, max_workers=2).to_csv() == serial
        assert learning_curve(cfg).to_csv() == serial

    @pytest.mark.skipif(CORES < 2, reason="needs two usable cores to fork")
    @pytest.mark.parametrize(
        "failing_trial, error",
        [(None, None), (0, ConditioningError), (1, ConditioningError), (0, KeyboardInterrupt)],
    )
    def test_errors_surface_and_children_are_reaped(self, failing_trial, error, fresh_workers, forks,
                                                    monkeypatch):
        # At two workers the caller runs trials 0, 2, 4 and the worker 1, 3, 5.
        cfg = ExperimentConfig(dims=(2,), train_sizes=(8,), n_trials=6, test_size=40, base_seed=77)
        doomed = None if failing_trial is None else cfg.rng().derive(2, 8, failing_trial)
        real_trial = mcharness.run_trial

        def fails_one_trial(p, n, c, test_size, rng):
            if rng == doomed:
                raise error("forced failure")
            return real_trial(p, n, c, test_size, rng)

        monkeypatch.setattr(mcharness, "run_trial", fails_one_trial)
        if error is None:
            assert learning_curve(cfg, max_workers=2).rows[0].n_trials == 6
            # the worker stays up for the next call until the workers retire
            assert worker_pids() == forks and os.waitpid(forks[0], os.WNOHANG) == (0, 0)
            mcharness._retire_workers()
        else:
            match = "forced failure"
            if error is ConditioningError:
                match = rf"trial \(p=2, n=8, trial={failing_trial}\) failed: " + match
            with pytest.raises(error, match=match):
                learning_curve(cfg, max_workers=2)
        assert len(forks) == 1 and worker_pids() == []
        for pid in forks:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @pytest.mark.skipif(CORES < 2, reason="needs two usable cores to fork")
    def test_later_calls_reuse_the_workers_and_match_the_serial_bytes(self, fresh_workers, forks):
        cfg = ExperimentConfig(**SMALL)
        serial = learning_curve(cfg, max_workers=1).to_csv()
        assert forks == []
        for _ in range(3):
            assert learning_curve(cfg, max_workers=2).to_csv() == serial
        assert len(forks) == 1 and worker_pids() == forks
        # every usable core: the call forks only the workers it lacks
        for _ in range(2):
            assert learning_curve(cfg).to_csv() == serial
        assert len(forks) == min(CORES, 24) - 1 and worker_pids() == forks
        # a Ctrl-C between calls reaches the workers too, and leaves them serving
        for pid in forks:
            os.kill(pid, signal.SIGINT)
        assert learning_curve(cfg).to_csv() == serial
        assert len(forks) == min(CORES, 24) - 1 and worker_pids() == forks
        for pid in forks:
            assert os.waitpid(pid, os.WNOHANG) == (0, 0)

    @pytest.mark.skipif(CORES < 2 or not os.path.isdir("/proc"), reason="needs two cores and /proc")
    def test_a_worker_killed_between_calls_is_an_error_then_replaced(self, fresh_workers):
        cfg = ExperimentConfig(**SMALL)
        serial = learning_curve(cfg, max_workers=1).to_csv()
        assert learning_curve(cfg, max_workers=2).to_csv() == serial
        (dead,) = worker_pids()
        os.kill(dead, signal.SIGKILL)
        assert wait_until_gone([dead], 10.0) == []
        with pytest.raises(LlrLabError, match=f"trial worker process {dead} ended without reporting"):
            learning_curve(cfg, max_workers=2)
        assert worker_pids() == []
        with pytest.raises(ChildProcessError):
            os.waitpid(dead, os.WNOHANG)
        assert learning_curve(cfg, max_workers=2).to_csv() == serial

    @pytest.mark.skipif(CORES < 2, reason="needs two usable cores to fork")
    def test_a_forked_child_of_the_caller_gets_its_own_workers(self, fresh_workers):
        cfg = ExperimentConfig(**SMALL)
        serial = learning_curve(cfg, max_workers=1).to_csv()
        assert learning_curve(cfg, max_workers=2).to_csv() == serial
        parents = worker_pids()
        pipes = [pipe.fileno() for _, inbox, outbox in mcharness._workers for pipe in (inbox, outbox)]
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                # no worker, and none of the parent's pipes, came along
                assert mcharness._workers == []
                for fd in pipes:
                    with pytest.raises(OSError):
                        os.fstat(fd)
                assert learning_curve(cfg, max_workers=2).to_csv() == serial
                own = worker_pids()
                mcharness._retire_workers()
                assert len(own) == 1 and own[0] not in parents
                code = 0
            finally:
                os._exit(code)
        assert os.waitpid(pid, 0)[1] == 0
        assert worker_pids() == parents
        assert learning_curve(cfg, max_workers=2).to_csv() == serial

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
    @pytest.mark.parametrize("ending", ["exit", "SIGKILL"])
    def test_no_worker_outlives_its_caller(self, ending):
        # Two workers, on three pretended cores, and a bystander: a child the
        # caller forks after them, which outlives it and must not hold their
        # task pipes open.
        script = textwrap.dedent(f"""
            import atexit, os, time
            workers = []

            def reaped(pid):
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    return True
                return False

            # registered before llrlab's own exit handler, so it runs after it
            atexit.register(lambda: print(all(map(reaped, workers)), flush=True))
            from llrlab import ExperimentConfig, learning_curve, mcharness
            os.sched_getaffinity = lambda pid: {{0, 1, 2}}
            learning_curve(ExperimentConfig(**{SMALL!r}), max_workers=3)
            workers.extend(pid for pid, _, _ in mcharness._workers)
            bystander = os.fork()
            if bystander == 0:
                time.sleep(60)
                os._exit(0)
            print(bystander, *workers, flush=True)
            if {ending!r} == "SIGKILL":
                time.sleep(60)
        """)
        src = str(Path(mcharness.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        bystander = None
        try:
            with subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, env=env) as caller:
                bystander, *pids = (int(w) for w in caller.stdout.readline().split())
                if ending == "SIGKILL":
                    caller.kill()
                else:
                    # the interpreter's exit reaps the workers
                    assert caller.stdout.readline() == b"True\n"
                assert caller.wait(timeout=60) == (-signal.SIGKILL if ending == "SIGKILL" else 0)
            assert len(pids) == 2 and running(bystander)
            # a killed caller's workers end on their own once its task pipes close
            assert wait_until_gone(pids, 1.0) == []
        finally:
            if bystander is not None:
                os.kill(bystander, signal.SIGKILL)

    def test_without_fork_every_trial_runs_in_the_caller(self, monkeypatch):
        cfg = ExperimentConfig(**SMALL)
        serial = learning_curve(cfg, max_workers=1).to_csv()
        monkeypatch.delattr(mcharness.os, "fork")
        assert learning_curve(cfg).to_csv() == serial

    @pytest.mark.parametrize(
        "config, workers, allowed",
        [
            # SMALL has 24 trials: at most one process each
            (SMALL, 64, min(CORES, 24) - 1),
            (dict(SMALL, dims=(2,), train_sizes=(8,), n_trials=1), None, 0),
            (SMALL, 1, 0),
        ],
    )
    def test_process_cap(self, config, workers, allowed, fresh_workers, monkeypatch):
        forks = []
        real_fork = os.fork

        def capped_fork():
            forks.append(1)
            if len(forks) > allowed:
                raise AssertionError(f"fork {len(forks)} exceeds the cap of {allowed}")
            return real_fork()

        monkeypatch.setattr(mcharness.os, "fork", capped_fork)
        summary = learning_curve(ExperimentConfig(**config), max_workers=workers)
        assert all(r.n_trials == config["n_trials"] for r in summary.rows)
        assert len(forks) == allowed

    def test_bias_and_dimensionality_direction_moderate_scale(self):
        cfg = ExperimentConfig(
            dims=(3, 7), train_sizes=(20, 100), n_trials=40, test_size=300, base_seed=13
        )
        summary = learning_curve(cfg)
        for r in summary.rows:
            se = np.sqrt((r.var_auc_true + r.var_auc_apparent) / r.n_trials)
            assert r.mean_auc_apparent >= r.mean_auc_true - 2 * se
        # more parameters hurt at fixed small n
        lo = summary.cell(3, 20)
        hi = summary.cell(7, 20)
        se = np.sqrt(lo.var_auc_true / 40 + hi.var_auc_true / 40)
        assert hi.mean_auc_true <= lo.mean_auc_true + 2 * se
        # true AUC improves with training size
        for p in (3, 7):
            small = summary.cell(p, 20)
            big = summary.cell(p, 100)
            se = np.sqrt(small.var_auc_true / 40 + big.var_auc_true / 40)
            assert big.mean_auc_true >= small.mean_auc_true - 2 * se

    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_is_a_contract_error(self, workers, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("work started before max_workers was checked")

        monkeypatch.setattr(mcharness, "run_trial", must_not_run)
        with pytest.raises(ContractError, match="max_workers"):
            learning_curve(ExperimentConfig(**SMALL), max_workers=workers)

    @pytest.mark.parametrize("workers", [2.5, 2.0, True, False, "2", np.float64(3.0)])
    def test_a_worker_count_that_is_not_an_integer_is_a_contract_error(self, workers, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("work started before max_workers was checked")

        # with 4 usable cores a float count reaches range() in the fork loop
        monkeypatch.setattr(mcharness.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr(mcharness, "run_trial", must_not_run)
        with pytest.raises(ContractError, match="max_workers must be an integer"):
            learning_curve(ExperimentConfig(**SMALL), max_workers=workers)

    def test_a_numpy_integer_worker_count_is_accepted(self, monkeypatch):
        cfg = ExperimentConfig(**SMALL)
        serial = learning_curve(cfg, max_workers=1).to_csv()
        monkeypatch.setattr(mcharness.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert learning_curve(cfg, max_workers=np.int64(3)).to_csv() == serial

    def test_invalid_config(self):
        with pytest.raises(ContractError):
            ExperimentConfig(dims=(3,), train_sizes=(3,))
        with pytest.raises(ContractError):
            ExperimentConfig(dims=(), train_sizes=(10,))
        for target in (-1.0, np.inf, np.nan):
            with pytest.raises(ContractError, match="target_delta_sq must be positive"):
                ExperimentConfig(target_delta_sq=target)

    @pytest.mark.parametrize(
        "field, value",
        [("dims", (2.9,)), ("dims", (2, True)), ("train_sizes", (20.7, 50)), ("n_trials", 3.9),
         ("n_trials", "6"), ("test_size", True), ("test_size", np.float64(40.0)), ("base_seed", 2.5)],
    )
    def test_counts_and_the_seed_must_be_integers(self, field, value):
        # int() would truncate these silently and run a grid nobody asked for
        with pytest.raises(ContractError, match="must be an integer"):
            ExperimentConfig(**{**SMALL, field: value})

    def test_numpy_integers_and_any_integer_seed_are_accepted(self):
        cfg = ExperimentConfig(dims=np.array([2, 3]), train_sizes=(np.int64(8), 25), n_trials=np.int32(6),
                               test_size=40, base_seed=-77)
        assert (cfg.dims, cfg.train_sizes, cfg.n_trials, cfg.base_seed) == ((2, 3), (8, 25), 6, -77)
        assert all(type(v) is int for v in (*cfg.dims, *cfg.train_sizes, cfg.n_trials, cfg.test_size))

    @pytest.mark.parametrize("dims, sizes", [((3, 3), (20, 20)), ((3, 3), (20,)), ((3,), (20, 50, 20))])
    def test_repeated_dims_or_train_sizes_rejected(self, dims, sizes):
        # a repeated value would run the same cell again and write a duplicate row
        with pytest.raises(ContractError, match="must not repeat"):
            ExperimentConfig(dims=dims, train_sizes=sizes, n_trials=2, test_size=30)


class TestVarianceStudy:
    # a variance study is a learning curve at one dimensionality with at least
    # two trials, rules that `llr-lab variance-study` checks

    def test_variances_nonnegative_and_reported(self):
        cfg = ExperimentConfig(dims=(3,), train_sizes=(10, 60), n_trials=12, test_size=60, base_seed=3)
        summary = learning_curve(cfg)
        assert all(r.var_auc_true >= 0 for r in summary.rows)
        assert [r.n for r in summary.rows] == [10, 60]

    def test_doubling_trials_is_stable(self):
        base = ExperimentConfig(dims=(3,), train_sizes=(30,), n_trials=30, test_size=200, base_seed=8)
        double = ExperimentConfig(dims=(3,), train_sizes=(30,), n_trials=60, test_size=200, base_seed=8)
        a = learning_curve(base).rows[0]
        b = learning_curve(double).rows[0]
        se = np.sqrt(a.var_auc_true / a.n_trials + b.var_auc_true / b.n_trials)
        assert abs(a.mean_auc_true - b.mean_auc_true) <= 3 * se


class TestCurveSummaryCsv:
    def test_schema_and_round_trip(self):
        summary = learning_curve(ExperimentConfig(**SMALL))
        text = summary.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "p,n,mean_auc_true,mean_auc_apparent,var_auc_true,var_auc_apparent,n_trials"
        assert len(lines) == 1 + len(summary.rows)
        for line, row in zip(lines[1:], summary.rows):
            p, n, mt, ma, vt, va, k = line.split(",")
            assert (int(p), int(n), int(k)) == (row.p, row.n, row.n_trials)
            assert float(mt) == row.mean_auc_true
            assert float(ma) == row.mean_auc_apparent
            assert float(vt) == row.var_auc_true
            assert float(va) == row.var_auc_apparent
