#!/usr/bin/env python3
"""llrlab benchmark.

    python3 bench/run.py --workload {mc-curve,exact-density,cli-emit}
                         --seed N --seconds S --trace {0,1}

Run from the repository root.  llrlab is imported from ``src/`` of the same
tree (nothing is installed).  The workload's inputs are made from --seed;
work is measured for about --seconds; every output is checked.

stdout ends with two JSON lines.  The first holds the run's details: seed,
machine facts, the workload's own figures and its failures.  The last is
the result: ``{"correct", "attempted", "failed", "metrics"}``, where the
metrics are the ``end_to_end`` ones of BENCHMARK.json with --trace 0 and
the ``per_layer`` ones with --trace 1.  A traced run also writes its spans
to ``.bench_out/``.

BLAS is pinned to one thread per calling thread, so the two-worker pass of
mc-curve runs at most two compute threads.  Exit status 0 means the run
completed (``correct`` says whether the outputs were right); 2 means the
benchmark could not run, for example because ``src/llrlab`` is missing.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere in this process or its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh-interpreter set-ups per run: one to fill the bytecode cache, then
#: the timed ones whose median is setup_s.  Each is paced like a unit of
#: work: the set-up interpreter runs the reference kernel right after it.
SETUP_WARM, SETUP_TIMED = 1, 7


class BenchError(Exception):
    """The benchmark cannot run in this tree."""


def load_llrlab():
    """Import llrlab from this tree's src/, and nowhere else."""
    if not (SRC / "llrlab" / "__init__.py").is_file():
        raise BenchError(f"no llrlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import llrlab

    if Path(llrlab.__file__).resolve().parent != (SRC / "llrlab").resolve():
        raise BenchError(f"imported llrlab from {llrlab.__file__}, not from {SRC}")
    return llrlab


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def timed_setups(workload: str, seed: int) -> list[float]:
    """Wall time from process start to 'inputs ready', in fresh interpreters,
    at nominal core speed (see workloads.Pacer)."""
    import workloads

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for i in range(SETUP_WARM + SETUP_TIMED):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            ref = proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise BenchError(f"set-up in a fresh interpreter failed (exit {code})")
        if i >= SETUP_WARM:
            times.append((t1 - t0) * workloads.REF_NOMINAL_S / float(ref))
    return times


def _openblas():
    """(version string, threads) of the OpenBLAS numpy loaded, if any."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    version = f"{blas.get('name')} {blas.get('version')}"
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and line.split()[-1].endswith(".so")}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return version, threads


def machine_facts(pool_workers: int) -> dict:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas_version, blas_threads = _openblas()
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "llrlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version,
        "openblas_threads": blas_threads,
        "thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "pool_workers": pool_workers,
        "threads_within_nproc": blas_threads is not None and pool_workers * blas_threads <= nproc,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="internal: build the inputs in this fresh interpreter, print 'ready', "
                             "then the reference kernel's time, exit")
    args = parser.parse_args(argv)

    work_dir = ROOT / ".bench_out" / f"work-{os.getpid()}"
    try:
        bench = spec()
        llrlab = load_llrlab()
        import tracing
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
        workload = workloads.WORKLOADS[args.workload]
        work_dir.mkdir(parents=True, exist_ok=True)
        if args.setup_only:
            workload.setup(llrlab, args.seed, work_dir)
            print("ready", flush=True)
            print(workloads.reference_kernel())
            return 0

        setup_s = statistics.median(timed_setups(args.workload, args.seed)) if not args.trace else None
        inputs = workload.setup(llrlab, args.seed, work_dir)
        tracer = tracing.Tracer() if args.trace else None
        result = workload.run(inputs, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        fail_frac = result.failed / result.attempted
        if args.trace:
            values = {**result.detail, **result.layers, "fail_frac": fail_frac}
            section = bench["per_layer"]
            spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.dump(spans_path)
        else:
            values = {**result.e2e, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
            section = bench["end_to_end"]
        metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in section}
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "facts": machine_facts(workloads.POOL_WORKERS),
            "figures": {**result.detail, "fail_frac": fail_frac},
            "unexpected_failures": result.unexpected,
            **result.notes,
        }
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(json.dumps(detail))
    print(json.dumps({"correct": not result.unexpected, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
