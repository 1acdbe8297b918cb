"""Span tracing of llrlab's public functions from the benchmark's side.

Each wrapper is installed where its caller looks the function up: the
module globals of the calling module for names bound by ``from ... import``,
the defining module for calls through ``module.function``, and the class
for methods.  llrlab's own files are not edited.

A span records its name, start, end, the id of its parent span (the
innermost open span of the same thread) and the id of the operation it
belongs to (the id of its root span).  Spans stay in memory; ``dump``
writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

#: Modules whose spans are attributed to a layer; "bench" spans are the
#: benchmark's own operation roots.
LAYERS = ("smallmat", "gaussmodel", "bayesllr", "rocauc", "llrdist", "mcharness", "cli", "csvio", "svgplot")


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "attrs", "error")

    def __init__(self, sid: int, parent: "Span | None", name: str):
        self.id = sid
        self.parent = parent.id if parent is not None else 0
        self.op = parent.op if parent is not None else sid
        self.name = name
        self.attrs = {}
        self.error = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder shared by every wrapper of one run."""

    def __init__(self):
        self.spans: list[Span] = []
        # next() on a count and list.append are single C calls, atomic under
        # the interpreter lock, so pool threads may record concurrently.
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        sp = Span(next(self._ids), stack[-1] if stack else None, name)
        stack.append(sp)
        sp.start = time.perf_counter()
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(sp)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """A span around the body of a with statement."""
        sp = self._open(name)
        sp.attrs.update(attrs)
        try:
            yield sp
        except BaseException:
            sp.error = True
            raise
        finally:
            self._close(sp)

    def wrap(self, name: str, fn, attrs=None):
        """Traced stand-in for fn; attrs(args, kwargs, result) -> dict."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sp = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                sp.error = True
                raise
            finally:
                self._close(sp)
            if attrs is not None:
                sp.attrs.update(attrs(args, kwargs, result))
            return result

        return traced

    def dump(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sp in self.spans:
                row = {"id": sp.id, "parent": sp.parent, "op": sp.op, "name": sp.name,
                       "start": sp.start, "end": sp.end}
                if sp.attrs:
                    row["attrs"] = sp.attrs
                if sp.error:
                    row["error"] = True
                fh.write(json.dumps(row) + "\n")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def install(tracer: Tracer, geometry_of) -> "callable":
    """Install wrappers on every lookup site; returns the function that undoes it.

    geometry_of(problem) names the geometry class of a TwoClassProblem, for
    the per-geometry marginal_density times.
    """
    from llrlab import bayesllr, cli, csvio, gaussmodel, llrdist, mcharness, rocauc, smallmat, svgplot

    undo = []

    def put(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def hook(name, home, attr, sites=(), attrs=None):
        traced = tracer.wrap(name, getattr(home, attr), attrs)
        for owner in (home, *sites):
            put(owner, attr, traced)

    def rows_of_result(args, kwargs, result):
        return {"rows": int(np.shape(result)[0])}

    hook("smallmat.cholesky", smallmat, "cholesky")
    hook("smallmat.condition_estimate", smallmat, "condition_estimate")
    hook("smallmat.std_normal_quantile_array", smallmat, "std_normal_quantile_array", (cli,))
    hook("gaussmodel.SeededRng.normals", gaussmodel.SeededRng, "normals")
    hook("gaussmodel.mvn_sample", gaussmodel, "mvn_sample", (mcharness, cli),
         lambda a, k, r: {"rows": int(_arg(a, k, 1, "n"))})
    hook("gaussmodel.estimate_params", gaussmodel, "estimate_params", (mcharness,))
    hook("gaussmodel.mvn_logpdf_array", gaussmodel, "mvn_logpdf_array", (llrdist,), rows_of_result)
    hook("bayesllr.llr_scores", bayesllr, "llr_scores", (mcharness, cli), rows_of_result)
    hook("rocauc.empirical_auc", rocauc, "empirical_auc", (mcharness,))
    hook("rocauc.empirical_roc", rocauc, "empirical_roc")
    hook("rocauc.normal_deviate_fit", rocauc, "normal_deviate_fit")
    hook("llrdist.marginal_density", llrdist, "marginal_density", (),
         lambda a, k, r: {"points": int(r.h_values.size),
                          "geometry": geometry_of(_arg(a, k, 2, "problem"))})
    hook("llrdist.support_region", llrdist, "support_region")
    hook("llrdist.density_roc", llrdist, "density_roc")
    hook("llrdist.histogram_vs_analytic", llrdist, "histogram_vs_analytic")
    hook("mcharness.learning_curve", mcharness, "learning_curve")
    hook("mcharness.run_trial", mcharness, "run_trial", (),
         lambda a, k, r: {"p": int(_arg(a, k, 0, "p")), "n": int(_arg(a, k, 1, "n"))})
    hook("cli.parse_config", cli, "parse_config")
    hook("cli.run_command", cli, "run_command", (),
         lambda a, k, r: {"bytes": sum(path.stat().st_size for path in r)})
    hook("csvio.csv_text", csvio, "csv_text", (mcharness, rocauc, llrdist, cli))
    for cls in (llrdist.DensityGrid, rocauc.RocCurve, mcharness.CurveSummary):
        hook("csvio.to_csv", cls, "to_csv")
    hook("svgplot.render_svg", svgplot, "render_svg", (),
         lambda a, k, r: {"points": sum(len(s.x) for s in _arg(a, k, 0, "spec").series)})

    # adaptive_gk also counts the integrand abscissae it asks for.
    gk = llrdist.adaptive_gk

    def counted_gk(f, *args, **kwargs):
        nodes = [0]

        def counted(x):
            nodes[0] += np.size(x)
            return f(x)

        with tracer.span("llrdist.adaptive_gk") as sp:
            result = gk(counted, *args, **kwargs)
        sp.attrs.update(nodes=nodes[0], unconverged=int(not result[2]))
        return result

    put(llrdist, "adaptive_gk", functools.wraps(gk)(counted_gk))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# ---------------------------------------------------------------------------
# Per-layer metrics from a list of spans
# ---------------------------------------------------------------------------


def self_times(spans) -> dict:
    """span id -> duration minus the part covered by its child spans.

    Children run on their parent's thread, one at a time, so the covered
    part is the sum of their durations.
    """
    covered = defaultdict(float)
    for sp in spans:
        if sp.parent:
            covered[sp.parent] += sp.duration
    return {sp.id: sp.duration - covered[sp.id] for sp in spans}


def layer_metrics(spans) -> dict:
    """Counts, inclusive times and per-layer self times of one span window.

    A metric of a layer the window never entered is absent (run.py reports
    it as 0).
    """
    by_name = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)
    own = self_times(spans)
    out = {}

    def total(name):
        return float(sum(sp.duration for sp in by_name[name]))

    def attr_sum(name, key):
        return float(sum(sp.attrs.get(key, 0) for sp in by_name[name]))

    # Every span name gets a call count and an inclusive time; run.py keeps
    # the ones BENCHMARK.json names.
    for name, group in by_name.items():
        out[f"{name}.calls"] = len(group)
        out[f"{name}.s"] = total(name)

    out["gaussmodel.mvn_sample.rows"] = attr_sum("gaussmodel.mvn_sample", "rows")
    out["gaussmodel.estimate_params.fail"] = sum(sp.error for sp in by_name["gaussmodel.estimate_params"])
    calls = len(by_name["gaussmodel.mvn_logpdf_array"])
    out["gaussmodel.mvn_logpdf_array.rows_per_call"] = (
        attr_sum("gaussmodel.mvn_logpdf_array", "rows") / calls if calls else 0.0)
    out["bayesllr.llr_scores.rows"] = attr_sum("bayesllr.llr_scores", "rows")

    points = attr_sum("llrdist.marginal_density", "points")
    out["llrdist.marginal_density.us_per_point"] = (
        1e6 * total("llrdist.marginal_density") / points if points else 0.0)
    for sp in by_name["llrdist.marginal_density"]:
        key = f"llrdist.marginal_density.{sp.attrs['geometry']}.s"
        out[key] = out.get(key, 0.0) + sp.duration
    out["llrdist.adaptive_gk.nodes"] = attr_sum("llrdist.adaptive_gk", "nodes")
    out["llrdist.adaptive_gk.unconverged"] = attr_sum("llrdist.adaptive_gk", "unconverged")

    trials = by_name["mcharness.run_trial"]
    ms = np.array([sp.duration for sp in trials]) * 1e3
    out["mcharness.run_trial.p50_ms"] = float(np.percentile(ms, 50)) if ms.size else 0.0
    out["mcharness.run_trial.p99_ms"] = float(np.percentile(ms, 99)) if ms.size else 0.0
    out["mcharness.run_trial.self_s"] = float(sum(own[sp.id] for sp in trials))
    cells = defaultdict(float)
    for sp in trials:
        cells[f"mcharness.cell.p{sp.attrs['p']}.n{sp.attrs['n']}.s"] += sp.duration
    out.update(cells)
    # A failed fit ends its attempt, so attempts = trials + failed fits.
    out["mcharness.attempts_per_trial"] = (
        (len(trials) + out["gaussmodel.estimate_params.fail"]) / len(trials) if trials else 0.0)

    out["cli.run_command.self_s"] = float(sum(own[sp.id] for sp in by_name["cli.run_command"]))
    out["cli.bytes_written"] = attr_sum("cli.run_command", "bytes")
    out["svgplot.points"] = attr_sum("svgplot.render_svg", "points")

    layer_self = defaultdict(float)
    for sp in spans:
        if sp.layer in LAYERS:
            layer_self[sp.layer] += own[sp.id]
    work = sum(sp.duration for sp in spans if not sp.parent)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    out["llrdist.self_share"] = layer_self["llrdist"] / work if work else 0.0
    out["trace.spans"] = len(spans)
    return out


def outer_layer_time(spans, root_ids, layers) -> float:
    """Time inside the given layers under the given roots, counting only the
    outermost span of each nested run of those layers."""
    index = {sp.id: sp for sp in spans}
    out = 0.0
    for sp in spans:
        if sp.op not in root_ids or sp.layer not in layers:
            continue
        parent = index.get(sp.parent)
        if parent is None or parent.layer not in layers:
            out += sp.duration
    return out
