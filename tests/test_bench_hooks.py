"""The benchmark's tracer must still find every name it hooks.

bench/tracing.py wraps llrlab functions where their callers look them up,
reading each one through ``owner.__dict__[attr]``.  Renaming or deleting a
hooked name breaks every traced benchmark run; this test catches that
without running the benchmark.
"""

from __future__ import annotations

from pathlib import Path

from llrlab import bayesllr, cli, csvio, gaussmodel, llrdist, mcharness, rocauc, smallmat, svgplot

BENCH = Path(__file__).resolve().parent.parent / "bench"

OWNERS = (
    smallmat, gaussmodel, gaussmodel.SeededRng, bayesllr, rocauc, rocauc.RocCurve,
    llrdist, llrdist.DensityGrid, mcharness, mcharness.CurveSummary, cli, csvio, svgplot,
)


def test_install_hooks_every_name_and_restore_puts_them_back(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    before = [dict(vars(owner)) for owner in OWNERS]
    restore = tracing.install(tracing.Tracer(), lambda problem: "any")
    try:
        hooked = {
            (owner, attr)
            for owner, names in zip(OWNERS, before)
            for attr, value in vars(owner).items()
            if names.get(attr) is not value
        }
        for owner, attr in (
            (mcharness, "run_trial"),
            (mcharness, "learning_curve"),
            (llrdist, "adaptive_gk"),
            (llrdist, "support_region"),
            (cli, "std_normal_quantile_array"),
        ):
            assert (owner, attr) in hooked
    finally:
        restore()
    for owner, names in zip(OWNERS, before):
        after = vars(owner)
        assert set(after) == set(names), owner
        assert all(after[attr] is value for attr, value in names.items()), owner
