#!/usr/bin/env python3
"""Regenerate bench/reference.json: output digests of this tree, per seed.

    python3 bench/make_reference.py

For each seed in SEEDS, mc-curve stores the sha256 of the CSV of the
default grid's learning curve at TRIALS_PER_CELL trials per cell; cli-emit
stores, per command whose outputs are byte-stable (roc, normal-deviate,
simulate), one digest over the files it writes.  Run
it only on a commit whose outputs are the reference; a run of the benchmark
on a seed outside the table falls back to consistency checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import multiprocessing
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before numpy loads
import workloads

HERE = Path(__file__).resolve().parent

SEEDS = range(100)


def digests(seed: int) -> tuple[int, str, dict]:
    llrlab = run.load_llrlab()
    import llrlab.cli

    config = llrlab.ExperimentConfig(base_seed=seed, n_trials=workloads.TRIALS_PER_CELL)
    curve = workloads.sha256(llrlab.learning_curve(config).to_csv())
    cli = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_out") as tmp:
        for cmd in workloads.HASHED_COMMANDS:
            out = Path(tmp) / cmd
            with contextlib.redirect_stdout(io.StringIO()):
                code = llrlab.cli.main(workloads.cli_argv(cmd, seed, out))
            if code != 0:
                raise RuntimeError(f"{cmd} --seed {seed} exited {code}")
            cli[cmd] = workloads.outputs_sha(out)
    return seed, curve, cli


def main() -> int:
    (run.ROOT / ".bench_out").mkdir(exist_ok=True)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(workloads.POOL_WORKERS) as pool:
        rows = pool.map(digests, SEEDS)
    table = {"mc-curve": {str(s): c for s, c, _ in rows}, "cli-emit": {str(s): d for s, _, d in rows}}
    (HERE / "reference.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
