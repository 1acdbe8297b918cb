"""Command-line front end.

    llr-lab <command> [--config FILE] [--seed N] [--out DIR] [--no-svg]
            [--key value]...

Commands: density, roc, normal-deviate, learning-curve, variance-study,
simulate.  Any config key can be overridden with --key value (dotted
section prefixes like problem.mu1 are accepted).

Config files are line based: `key = value`, `#` comments, optional
`[problem]` / `[experiment]` / `[output]` section headers, matrices as
nested bracketed rows `[[1,.2],[.2,1]]`, lists comma separated.

Exit codes: 0 success, 2 configuration error, 3 numerical error (also a density
grid that fails its own unit-mass, KS or ratio-law check), 4 I/O error.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import llrdist, mcharness, rocauc, svgplot
from .bayesllr import CLASS1, CLASS2, TwoClassProblem, llr_scores
from .csvio import csv_text
from .errors import ConfigError, InsufficientDataError, LlrLabError
from .gaussmodel import GaussianParams, SeededRng, mvn_sample
from .smallmat import std_normal_quantile_array  # noqa: F401  (bench/tracing.py hooks this name here)

COMMANDS = ("density", "roc", "normal-deviate", "learning-curve", "variance-study", "simulate")

#: the experiment defaults, which the CLI's own defaults do not restate
_EXPERIMENT = mcharness.ExperimentConfig()
DEFAULT_SEED = _EXPERIMENT.base_seed
SEED_ENV_VAR = "LLR_LAB_SEED"

_SECTIONS = ("problem", "experiment", "output")


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _list(item):
    """Parser of a comma-separated list, optionally bracketed, of ``item``s."""

    def parse(raw: str) -> tuple:
        return tuple(item(p.strip()) for p in raw.strip("[]").split(",") if p.strip())

    return parse


def _matrix(raw: str) -> tuple:
    arr = np.asarray(ast.literal_eval(raw), dtype=float)
    if arr.ndim != 2:
        raise ValueError("expected nested bracketed rows like [[1,.2],[.2,1]]")
    return tuple(map(tuple, arr.tolist()))


#: key -> (section, parser, default)
_SCHEMA = {
    "command": ("output", str, None),
    "mu1": ("problem", _list(float), (2.0, 2.0)),
    "sigma1": ("problem", _matrix, ((1.0, 0.2), (0.2, 1.0))),
    "mu2": ("problem", _list(float), (1.0, 1.0)),
    "sigma2": ("problem", _matrix, ((0.3, 0.1), (0.1, 0.3))),
    "dims": ("experiment", _list(int), _EXPERIMENT.dims),
    "train_sizes": ("experiment", _list(int), _EXPERIMENT.train_sizes),
    "n_trials": ("experiment", int, _EXPERIMENT.n_trials),
    "test_size": ("experiment", int, _EXPERIMENT.test_size),
    "delta_sq": ("experiment", float, _EXPERIMENT.target_delta_sq),
    "base_seed": ("experiment", int, DEFAULT_SEED),
    "sim_size": ("experiment", int, 10000),
    "h_points": ("experiment", int, 801),
    "out_dir": ("output", str, "."),
    "emit_svg": ("output", _bool, True),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description."""

    command: str
    problem: TwoClassProblem
    experiment: mcharness.ExperimentConfig
    sim_size: int
    h_points: int
    out_dir: Path
    emit_svg: bool


def _parse_value(key: str, parse, raw: str, line: int | None):
    raw = raw.strip()
    try:
        return parse(raw)
    except (ValueError, SyntaxError, TypeError) as err:
        raise ConfigError(f"could not parse {key} = {raw!r}: {err}", line=line) from err


def _canonical_key(key: str, line: int | None) -> str:
    key = key.strip()
    section = None
    if "." in key:
        section, _, bare = key.partition(".")
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section {section!r} in key {key!r}", line=line)
        key = bare.strip()
    if key not in _SCHEMA:
        raise ConfigError(f"unknown key {key!r}", line=line)
    if section is not None and _SCHEMA[key][0] != section:
        raise ConfigError(f"key {key!r} belongs to [{_SCHEMA[key][0]}], not [{section}]", line=line)
    return key


def parse_config(text: str, overrides=()) -> RunConfig:
    """Build a RunConfig from file text plus (key, value) override pairs.

    Overrides win over file values; anything not mentioned falls back to the
    documented defaults (counter-example problem parameters, delta_sq = 0.8,
    100 trials, 1000 testers per class).
    """
    values = {}
    lines_of = {}
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]", line=lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        key, _, raw_value = line.partition("=")
        key = _canonical_key(key, lineno)
        values[key] = _parse_value(key, _SCHEMA[key][1], raw_value, lineno)
        lines_of[key] = lineno

    for key, raw_value in overrides:
        key = _canonical_key(key, None)
        values[key] = _parse_value(key, _SCHEMA[key][1], str(raw_value), None)
        lines_of.pop(key, None)

    explicit = frozenset(values)
    for key, (_, _, default) in _SCHEMA.items():
        values.setdefault(key, default)

    command = values["command"]
    if command is None:
        raise ConfigError("no command given")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")

    def _build(factory, keys):
        try:
            return factory()
        except (LlrLabError, ValueError) as err:
            where = [f"{k} (line {lines_of[k]})" for k in keys if k in lines_of]
            suffix = f" [from {', '.join(where)}]" if where else ""
            raise ConfigError(f"{err}{suffix}") from err

    score_keys = ("mu1", "sigma1", "mu2", "sigma2")
    problem = _build(
        lambda: TwoClassProblem(
            class1=GaussianParams(np.array(values["mu1"]), np.array(values["sigma1"])),
            class2=GaussianParams(np.array(values["mu2"]), np.array(values["sigma2"])),
        ),
        score_keys,
    )

    if command == "density":
        if problem.dim != 2:
            raise ConfigError(
                f"density needs a 2-D problem, got dim {problem.dim}",
                line=lines_of.get("mu1", lines_of.get("sigma1")),
            )
        # a score that is constant to rounding has no density; the problem's
        # score range builds the diagonal form that the run then reuses
        _build(lambda: llrdist.support_h_range(problem), score_keys)

    dims = values["dims"]
    if command == "variance-study" and "dims" not in explicit:
        dims = (11,)
    experiment = _build(
        lambda: mcharness.ExperimentConfig(
            dims=dims,
            train_sizes=values["train_sizes"],
            n_trials=values["n_trials"],
            test_size=values["test_size"],
            target_delta_sq=values["delta_sq"],
            base_seed=values["base_seed"],
        ),
        ("dims", "train_sizes", "n_trials", "test_size", "delta_sq", "base_seed"),
    )

    if command == "variance-study" and experiment.n_trials < 2:
        raise ConfigError(
            f"variance-study needs n_trials >= 2 to estimate a variance, got {experiment.n_trials}",
            line=lines_of.get("n_trials"),
        )
    if command == "variance-study" and len(experiment.dims) != 1:
        raise ConfigError(
            f"variance-study needs exactly one dimensionality, got {experiment.dims}",
            line=lines_of.get("dims"),
        )

    for key, least in (("sim_size", 1), ("h_points", 8)):
        if values[key] < least:
            raise ConfigError(f"{key} must be >= {least}, got {values[key]}", line=lines_of.get(key))

    return RunConfig(
        command=command,
        problem=problem,
        experiment=experiment,
        sim_size=values["sim_size"],
        h_points=values["h_points"],
        out_dir=Path(values["out_dir"]),
        emit_svg=bool(values["emit_svg"]),
    )


# ---------------------------------------------------------------------------
# Command implementations (each returns {filename: CSV text or PlotSpec})
# ---------------------------------------------------------------------------


def _simulated_scores(config: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    rng = SeededRng(config.experiment.base_seed)
    x1 = mvn_sample(config.problem.class1, config.sim_size, rng.derive(CLASS1))
    x2 = mvn_sample(config.problem.class2, config.sim_size, rng.derive(CLASS2))
    return llr_scores(x1, config.problem), llr_scores(x2, config.problem)


def _simulated_roc(config: RunConfig) -> rocauc.RocCurve:
    return rocauc.empirical_roc(rocauc.ScoreSet(*_simulated_scores(config)))


#: density fails when a class's grid mass is off by more than _MASS_TOL, or
#: when its KS distance to the command's own simulated scores exceeds the DKW
#: bound sqrt(ln(2 / _KS_ALPHA) / (2 sim_size)), which a correct density
#: passes with probability at least 1 - _KS_ALPHA; or when the exact law
#: f1 = e^h f2 fails by more than _RATIO_TOL relative where both densities
#: are finite and above _RATIO_FLOOR, an error too small for mass and KS.
_MASS_TOL, _KS_ALPHA, _RATIO_TOL, _RATIO_FLOOR = 1e-3, 1e-6, 1e-6, 1e-8


def _cmd_density(config: RunConfig) -> dict:
    """Both class densities on ``default_h_grid(problem, h_points)``, checked
    against the command's own simulated scores.

    The grid is exactly ``h_points`` points whatever was simulated: in the
    KS check a score below the grid reads CDF 0 and one above it the grid
    mass (:func:`llrdist.histogram_vs_analytic`).
    """
    s1, s2 = _simulated_scores(config)
    grid_h = llrdist.default_h_grid(config.problem, n_points=config.h_points)
    g1 = llrdist.marginal_density(grid_h, CLASS1, config.problem)
    g2 = llrdist.marginal_density(grid_h, CLASS2, config.problem)
    ks_bound = np.sqrt(np.log(2.0 / _KS_ALPHA) / (2.0 * config.sim_size))
    hists = []
    for grid, scores in ((g1, s1), (g2, s2)):
        where = f"class {grid.label} at h_points={config.h_points}"
        mass = grid.integral()
        if not abs(mass - 1.0) <= _MASS_TOL:
            raise InsufficientDataError(f"{where}: grid mass {mass:.6g} is off by more than {_MASS_TOL:g}")
        ks, hist = llrdist.histogram_vs_analytic(scores, grid)
        if ks > ks_bound:
            raise InsufficientDataError(
                f"{where}: KS distance {ks:.4g} to {config.sim_size} simulated scores "
                f"exceeds the DKW bound {ks_bound:.4g}"
            )
        hists.append(hist)
    f1, f2 = g1.density, g2.density
    both = np.isfinite(f1) & np.isfinite(f2) & (f1 > _RATIO_FLOOR) & (f2 > _RATIO_FLOOR)
    ratio_error = float(np.abs(f1[both] / (np.exp(grid_h[both]) * f2[both]) - 1.0).max(initial=0.0))
    if ratio_error > _RATIO_TOL:
        raise InsufficientDataError(
            f"h_points={config.h_points}: the densities break f1 = e^h f2 by {ratio_error:.3g} relative, "
            f"more than {_RATIO_TOL:g}"
        )
    series = []
    for grid, hist in zip((g1, g2), hists):
        series.append(svgplot.Series(name=f"analytic f(h|{grid.label})", x=grid.h_values, y=grid.density))
        series.append(
            svgplot.Series(
                name=f"simulated f(h|{grid.label})", x=hist.bin_edges, y=np.append(hist.densities, 0.0), step=True
            )
        )
    return {
        "density_w1.csv": g1.to_csv(),
        "density_w2.csv": g2.to_csv(),
        "density.svg": svgplot.PlotSpec(
            title="Score densities: analytic vs simulated",
            x_label="score h (nats)",
            y_label="density",
            series=tuple(series),
        ),
    }


def _cmd_roc(config: RunConfig) -> dict:
    curve = _simulated_roc(config)
    return {
        "roc.csv": curve.to_csv(),
        "roc.svg": svgplot.PlotSpec(
            title=f"Empirical ROC (AUC = {rocauc.trapezoid_auc(curve):.4f})",
            x_label="false positive fraction",
            y_label="true positive fraction",
            series=(
                svgplot.Series(name="ROC", x=curve.fpf, y=curve.tpf),
                svgplot.Series(name="chance", x=(0.0, 1.0), y=(0.0, 1.0)),
            ),
        ),
    }


def _cmd_normal_deviate(config: RunConfig) -> dict:
    curve = _simulated_roc(config)
    fit = rocauc.normal_deviate_fit(curve)
    zx, zy = fit.z_fpf, fit.z_tpf
    line_y = (fit.a + fit.b * zx[0], fit.a + fit.b * zx[-1])
    return {
        "deviate_points.csv": csv_text(("z_fpf", "z_tpf"), (zx, zy)),
        "binormal_fit.csv": csv_text(("a", "b", "residual"), ([fit.a], [fit.b], [fit.residual])),
        "deviate.svg": svgplot.PlotSpec(
            title=f"Normal-deviate plot (a={fit.a:.3f}, b={fit.b:.3f}, rms={fit.residual:.4f})",
            x_label="normal deviate of FPF",
            y_label="normal deviate of TPF",
            series=(
                svgplot.Series(name="deviate points", x=zx, y=zy),
                svgplot.Series(name="least-squares line", x=(zx[0], zx[-1]), y=line_y),
            ),
        ),
    }


def _cmd_learning_curve(config: RunConfig) -> dict:
    summary = mcharness.learning_curve(config.experiment)
    series = []
    for p in config.experiment.dims:
        rows = [r for r in summary.rows if r.p == p]
        xs = tuple(1.0 / r.n for r in rows)
        series.append(svgplot.Series(name=f"ts p={p}", x=xs, y=tuple(r.mean_auc_true for r in rows)))
        series.append(svgplot.Series(name=f"tr p={p}", x=xs, y=tuple(r.mean_auc_apparent for r in rows)))
    return {
        "learning_curve.csv": summary.to_csv(),
        "learning_curve.svg": svgplot.PlotSpec(
            title="Mean AUC vs 1/n",
            x_label="1 / training size",
            y_label="mean AUC",
            series=tuple(series),
        ),
    }


def _cmd_variance_study(config: RunConfig) -> dict:
    summary = mcharness.variance_study(config.experiment)
    # every row has the study's one dimensionality
    (p,) = config.experiment.dims
    return {
        "variance_study.csv": summary.to_csv(),
        "variance_study.svg": svgplot.PlotSpec(
            title="AUC variance vs training size",
            x_label="training size per class",
            y_label="variance of true AUC",
            series=(
                svgplot.Series(
                    name=f"var true AUC, p={p}",
                    x=tuple(float(r.n) for r in summary.rows),
                    y=tuple(r.var_auc_true for r in summary.rows),
                ),
            ),
        ),
    }


def _cmd_simulate(config: RunConfig) -> dict:
    s1, s2 = _simulated_scores(config)
    labels = np.repeat([CLASS1, CLASS2], (s1.size, s2.size))
    return {"scores.csv": csv_text(("label", "score"), (labels, np.concatenate((s1, s2))))}


_RUNNERS = {
    "density": _cmd_density,
    "roc": _cmd_roc,
    "normal-deviate": _cmd_normal_deviate,
    "learning-curve": _cmd_learning_curve,
    "variance-study": _cmd_variance_study,
    "simulate": _cmd_simulate,
}


def run_command(config: RunConfig) -> list[Path]:
    """Execute the configured command and write its output files.

    The plots are dropped when ``emit_svg`` is false, else rendered; files
    are materialized only after every one is rendered, and if any write
    fails, every file this run wrote or began to write is removed.  An
    existing output is unlinked and created anew, not truncated in place:
    a symlinked or hard-linked output's other names keep their bytes, and
    the new file takes the umask's mode and the caller's ownership, so an
    output made read-only is replaced as well.  On ext4 this is also
    cheaper when the old file was itself rewritten and not yet written
    back: its blocks were allocated at close, a fresh file's are not.
    """
    files = {}
    for name, body in _RUNNERS[config.command](config).items():
        if isinstance(body, svgplot.PlotSpec):
            if not config.emit_svg:
                continue
            body = svgplot.render_svg(body)
        files[name] = body
    config.out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        for name, text in files.items():
            path = config.out_dir / name
            written.append(path)  # before the write, so a partial file is removed too
            path.unlink(missing_ok=True)
            path.write_text(text, encoding="utf-8")
    except OSError:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        raise
    return written


def _split_overrides(extras: list[str]) -> list[tuple[str, str]]:
    pairs = []
    i = 0
    while i < len(extras):
        token = extras[i]
        if not token.startswith("--") or len(token) == 2:
            raise ConfigError(f"unexpected argument {token!r} (overrides look like --key value)")
        key = token[2:]
        if "=" in key:
            key, _, value = key.partition("=")
            i += 1
        else:
            if i + 1 >= len(extras):
                raise ConfigError(f"override --{key} is missing a value")
            value = extras[i + 1]
            i += 2
        pairs.append((key, value))
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="llr-lab",
        description="Two-class Gaussian score-distribution and AUC laboratory.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", type=Path, default=None, help="config file path")
    parser.add_argument("--seed", type=int, default=None, help="base seed (else $LLR_LAB_SEED)")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument("--no-svg", action="store_true", help="skip SVG output")
    args, extras = parser.parse_known_args(argv)

    try:
        text = ""
        if args.config is not None:
            text = args.config.read_text(encoding="utf-8")
        overrides = [("command", args.command)]
        seed = args.seed
        if seed is None and os.environ.get(SEED_ENV_VAR):
            try:
                seed = int(os.environ[SEED_ENV_VAR])
            except ValueError as err:
                raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from err
        if seed is not None:
            overrides.append(("base_seed", str(seed)))
        if args.out is not None:
            overrides.append(("out_dir", str(args.out)))
        if args.no_svg:
            overrides.append(("emit_svg", "false"))
        overrides.extend(_split_overrides(extras))
        written = run_command(parse_config(text, overrides))
    except ConfigError as err:
        print(f"llr-lab: config error: {err}", file=sys.stderr)
        return 2
    except LlrLabError as err:
        print(f"llr-lab: {args.command} failed: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"llr-lab: i/o error: {err}", file=sys.stderr)
        return 4
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
