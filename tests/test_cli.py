import hashlib
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llrlab import cli, svgplot
from llrlab.errors import ConfigError, ContractError
from llrlab.svgplot import PlotSpec, Series, render_svg


class TestParseConfig:
    def test_empty_file_with_command_gives_defaults(self):
        cfg = cli.parse_config("", [("command", "learning-curve")])
        assert cfg.command == "learning-curve"
        assert cfg.experiment.dims == (3, 7, 11)
        assert cfg.experiment.train_sizes == (20, 50, 100, 500, 2000)
        assert cfg.experiment.n_trials == 100
        assert cfg.experiment.test_size == 1000
        assert cfg.experiment.target_delta_sq == 0.8
        np.testing.assert_array_equal(cfg.problem.class1.mu, [2.0, 2.0])
        np.testing.assert_array_equal(cfg.problem.class2.sigma, [[0.3, 0.1], [0.1, 0.3]])

    def test_file_values_map_through(self):
        text = """
        # experiment grid
        [experiment]
        delta_sq = 0.9
        dims = 3,7,11
        train_sizes = 30, 60
        [problem]
        prior1 = 0.25
        prior2 = 0.75
        """
        cfg = cli.parse_config(text, [("command", "learning-curve")])
        assert cfg.experiment.target_delta_sq == 0.9
        assert cfg.experiment.dims == (3, 7, 11)
        assert cfg.experiment.train_sizes == (30, 60)
        assert cfg.problem.prior1 == 0.25

    def test_non_spd_covariance_is_cited_with_line(self):
        text = "[problem]\nsigma1 = [[1,2],[2,1]]\n"
        with pytest.raises(ConfigError) as exc:
            cli.parse_config(text, [("command", "density")])
        message = str(exc.value)
        assert "positive definite" in message
        assert "line 2" in message

    def test_unknown_key_cites_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            cli.parse_config("\n\nbogus = 1\n", [("command", "density")])

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"\[nope\]"):
            cli.parse_config("[nope]\n", [("command", "density")])

    def test_malformed_matrix(self):
        with pytest.raises(ConfigError, match="line 1"):
            cli.parse_config("sigma1 = [[1,0.2],[0.2]\n", [("command", "density")])

    def test_overrides_win_and_accept_dotted_keys(self):
        cfg = cli.parse_config(
            "n_trials = 7\n",
            [("command", "simulate"), ("experiment.n_trials", "9"), ("problem.mu1", "0,1")],
        )
        assert cfg.experiment.n_trials == 9
        np.testing.assert_array_equal(cfg.problem.class1.mu, [0.0, 1.0])

    def test_missing_command(self):
        with pytest.raises(ConfigError, match="command"):
            cli.parse_config("delta_sq = 0.8\n")

    def test_variance_study_defaults_to_single_dimensionality(self):
        cfg = cli.parse_config("", [("command", "variance-study")])
        assert cfg.experiment.dims == (11,)
        cfg = cli.parse_config("dims = 5\n", [("command", "variance-study")])
        assert cfg.experiment.dims == (5,)

    def test_variance_study_needs_two_trials(self):
        with pytest.raises(ConfigError, match=r"line 2: variance-study needs n_trials >= 2"):
            cli.parse_config("[experiment]\nn_trials = 1\n", [("command", "variance-study")])
        # one trial is a valid learning curve: its variances are nan
        assert cli.parse_config("n_trials = 1\n", [("command", "learning-curve")]).experiment.n_trials == 1

    @pytest.mark.parametrize(
        "line",
        ["n_trials = 3.5", "prior1 = half", "emit_svg = maybe", "dims = 3, x", "mu1 = 1, two",
         "sigma1 = [[1, 0.2], [0.2]"],
        ids=["int", "float", "bool", "int list", "float list", "matrix"],
    )
    def test_malformed_value_exits_2_citing_key_and_line(self, tmp_path, capsys, line):
        config = tmp_path / "run.cfg"
        config.write_text(f"# one malformed value\n{line}\n")
        assert cli.main(["variance-study", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        key = line.partition(" = ")[0]
        assert f"config error: line 2: could not parse {key} = " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bool_values(self):
        cfg = cli.parse_config("emit_svg = false\n", [("command", "roc")])
        assert cfg.emit_svg is False
        with pytest.raises(ConfigError):
            cli.parse_config("emit_svg = maybe\n", [("command", "roc")])


class TestRenderSvg:
    def test_two_point_diagonal_has_one_polyline(self):
        spec = PlotSpec(
            title="diag",
            x_label="x",
            y_label="y",
            series=(Series(name="d", x=(0.0, 1.0), y=(0.0, 1.0)),),
        )
        svg = render_svg(spec)
        assert svg.count("<polyline") == 1
        ET.fromstring(svg)

    def test_byte_identical_for_identical_specs(self):
        spec = PlotSpec(
            title="t",
            x_label="x",
            y_label="y",
            series=(
                Series(name="a", x=(0.0, 0.5, 1.0), y=(0.1, 0.4, 0.2)),
                Series(name="b", x=(0.0, 0.5, 1.0), y=(0.3, 0.1, 0.5)),
            ),
        )
        assert render_svg(spec) == render_svg(spec)

    def test_legend_references_every_series(self):
        names = ("ts p=3", "tr p=3", "ts p=7")
        spec = PlotSpec(
            title="curves",
            x_label="1/n",
            y_label="AUC",
            series=tuple(
                Series(name=n, x=(0.0, 1.0, 2.0), y=(0.5, 0.6, 0.55 + 0.01 * i))
                for i, n in enumerate(names)
            ),
        )
        svg = render_svg(spec)
        root = ET.fromstring(svg)
        texts = {el.text for el in root.iter("{http://www.w3.org/2000/svg}text")}
        for n in names:
            assert n in texts

    def test_empty_series_rejected(self):
        with pytest.raises(ContractError):
            PlotSpec(title="", x_label="", y_label="", series=())
        with pytest.raises(ContractError):
            Series(name="bad", x=(), y=())

    def test_series_accepts_arrays_and_validates_them(self):
        x, y = np.array([0.0, 0.5]), np.array([1, 2])
        s = Series(name="a", x=x, y=y)
        np.testing.assert_array_equal(s.x, [0.0, 0.5])
        np.testing.assert_array_equal(s.y, [1.0, 2.0])
        for kept in (s.x, s.y):
            assert kept.dtype == np.float64 and not kept.flags.writeable
        # The series keeps copies: the caller's arrays stay writeable, and
        # writing to them leaves the series as it was.
        assert x.flags.writeable and y.flags.writeable
        x[0], y[0] = 9.0, 9
        np.testing.assert_array_equal(s.x, [0.0, 0.5])
        np.testing.assert_array_equal(s.y, [1.0, 2.0])
        for x, y in (
            (np.array([0.0, np.nan]), np.zeros(2)),
            (np.zeros(2), np.array([np.inf, 0.0])),
            (np.zeros(3), np.zeros(2)),
            (np.zeros((2, 2)), np.zeros((2, 2))),
        ):
            with pytest.raises(ContractError):
                Series(name="bad", x=x, y=y)

    @staticmethod
    def _points(svg: str) -> list[str]:
        root = ET.fromstring(svg)
        return [el.get("points") for el in root.iter("{http://www.w3.org/2000/svg}polyline")]

    def test_step_series_matches_per_point_staircase(self):
        x = (-1.0, 0.25, 0.5, 2.0, 3.5)
        y = (0.3, 0.9, 0.1, 0.6, 0.0)
        # The per-point staircase loop the array form replaced.
        pts = []
        for j, (xj, yj) in enumerate(zip(x, y)):
            if j:
                pts.append((xj, y[j - 1]))
            pts.append((xj, yj))

        def spec(series):
            return PlotSpec(title="t", x_label="x", y_label="y", series=(series,))

        step = render_svg(spec(Series(name="s", x=x, y=y, step=True)))
        expanded = render_svg(spec(Series(name="s", x=[p[0] for p in pts], y=[p[1] for p in pts])))
        assert self._points(step) == self._points(expanded)
        assert len(self._points(step)[0].split(" ")) == 2 * len(x) - 1

    def test_axis_a_few_ulps_wide_terminates(self):
        y = (1e6, float(np.nextafter(1e6, 2e6)))
        svg = render_svg(PlotSpec(title="t", x_label="x", y_label="y",
                                  series=(Series(name="s", x=(0.0, 1.0), y=y),)))
        assert len(self._points(svg)) == 1

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_span_that_overflows_a_float_is_a_contract_error(self, axis):
        wide, narrow = (-1e308, 1e308), (0.0, 1.0)
        x, y = (wide, narrow) if axis == "x" else (narrow, wide)
        spec = PlotSpec(title="t", x_label="x", y_label="y",
                        series=(Series(name="s", x=x, y=y),))
        with pytest.raises(ContractError, match=f"the {axis} axis"):
            render_svg(spec)

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_constant_series_too_large_to_pad_is_a_contract_error(self, axis):
        # 1e17 +- 0.5 rounds back to 1e17, so the padded axis has no width.
        flat, narrow = (1e17, 1e17), (0.0, 1.0)
        x, y = (flat, narrow) if axis == "x" else (narrow, flat)
        spec = PlotSpec(title="t", x_label="x", y_label="y",
                        series=(Series(name="s", x=x, y=y),))
        with pytest.raises(ContractError, match=f"the {axis} axis"):
            render_svg(spec)

    # Spans that rendered before subnormal spans were handled keep their bytes.
    _SUBNORMAL_DIGESTS = {
        ("x", 1e-322): "5fe9f7797ebb7ba71262ed26278c8903956d99e4711770b13ac8d588e46381ed",
        ("y", 1e-322): "8c579573d15e4f519e3d09100caa535e0d73f05142d90b0e98b1f801d472e573",
    }

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("span", [5e-324, 1e-323, 3e-323, 1e-322])
    def test_axis_a_few_subnormals_wide_renders(self, axis, span):
        x, y = ((0.0, span), (0.0, 1.0)) if axis == "x" else ((0.0, 1.0), (0.0, span))
        svg = render_svg(PlotSpec(title="t", x_label="x", y_label="y",
                                  series=(Series(name="s", x=x, y=y),)))
        assert len(self._points(svg)) == 1
        anchor = "middle" if axis == "x" else "end"
        root = ET.fromstring(svg)
        labels = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")
                  if el.get("font-size") == "11" and el.get("text-anchor") == anchor]
        assert "0" in labels and len(labels) >= 2
        if (axis, span) in self._SUBNORMAL_DIGESTS:
            assert hashlib.sha256(svg.encode()).hexdigest() == self._SUBNORMAL_DIGESTS[(axis, span)]


# Finite values of mixed magnitudes; the fixed ones add signed zeros,
# subnormals and the smallest normal.
_COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-322, 2.2250738585072014e-308]),
    st.floats(-1e-300, 1e-300),
    st.floats(-1e3, 1e3),
    st.floats(-1e300, 1e300),
)


@st.composite
def _series_tuples(draw):
    """1-3 (x, y, step) triples of 1-50 finite points each."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 50))
        xs = draw(st.lists(_COORD, min_size=n, max_size=n))
        ys = draw(st.lists(_COORD, min_size=n, max_size=n))
        out.append((xs, ys, draw(st.booleans())))
    return out


def _padded_limits(values, pad):
    lo, hi = min(values), max(values)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    return lo - pad * (hi - lo), hi + pad * (hi - lo)


_SUBNORMALS = (0.0, 5e-324, 1e-323, 1.5e-323)


class TestPolylinePoints:
    @settings(max_examples=300, deadline=None)
    @given(_series_tuples())
    # Subnormal spans on either axis, +-1e300, a constant and a step series.
    @example([(list(_SUBNORMALS), [0.0, 1.0, 0.5, 0.25], False)])
    @example([([0.0, 1.0, 0.5, 0.25], [-v for v in _SUBNORMALS], True)])
    @example([([-1e300, 1e300, 0.0], [1e300, -1e300, -1e300], False), ([0.0], [1e300], True)])
    @example([([2.5] * 5, [-7.0] * 5, False)])
    @example([([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 0.5], True), ([0.5, 1.5], [3.0, 3.0], True)])
    def test_points_match_per_point_formatting(self, triples):
        """Each polyline equals the per-point rendering from Python-float axis limits."""
        spec = PlotSpec(title="t", x_label="x", y_label="y",
                        series=tuple(Series(name=f"s{i}", x=xs, y=ys, step=step)
                                     for i, (xs, ys, step) in enumerate(triples)))
        x_lo, x_hi = _padded_limits([v for xs, _, _ in triples for v in xs], 0.04)
        y_lo, y_hi = _padded_limits([v for _, ys, _ in triples for v in ys], 0.06)
        if not all(math.isfinite(hi - lo) and hi != lo for lo, hi in ((x_lo, x_hi), (y_lo, y_hi))):
            with pytest.raises(ContractError, match="axis"):
                render_svg(spec)
            return
        plot_w = svgplot.WIDTH - svgplot.MARGIN_LEFT - svgplot.MARGIN_RIGHT
        plot_h = svgplot.HEIGHT - svgplot.MARGIN_TOP - svgplot.MARGIN_BOTTOM
        expected = []
        for xs, ys, step in triples:
            pts = []
            for j, (xj, yj) in enumerate(zip(xs, ys)):
                if step and j:
                    pts.append((xj, ys[j - 1]))
                pts.append((xj, yj))
            coords = [(svgplot.MARGIN_LEFT + (xv - x_lo) / (x_hi - x_lo) * plot_w,
                       svgplot.MARGIN_TOP + (y_hi - yv) / (y_hi - y_lo) * plot_h) for xv, yv in pts]
            # The polyline kernel's window holds every pixel coordinate.
            assert all(1.0 <= v < 1000.0 for pt in coords for v in pt)
            expected.append(" ".join("%.2f,%.2f" % pt for pt in coords))
        assert TestRenderSvg._points(render_svg(spec)) == expected


def _octave_samples(rng, n):
    """n doubles with uniformly random mantissa bits in each binary octave
    [2^e, 2^(e+1)) for e = 0..9, cut to [1, 1000)."""
    bits = (np.arange(1023, 1033, dtype=np.uint64)[:, None] << np.uint64(52)
            | rng.integers(0, 2**52, (10, n), dtype=np.uint64))
    v = bits.view(np.float64).ravel()
    return v[v < 1000.0]


_MIDPOINTS = np.arange(201, 200000) / 200  # n/200: the hundredths' rounding midpoints


@pytest.mark.parametrize("values", [
    _octave_samples(np.random.default_rng(22), 20000),
    np.arange(8, 8000) / 8,  # exact binary ties at every odd k/8
    np.concatenate((_MIDPOINTS, np.nextafter(_MIDPOINTS, 0.0), np.nextafter(_MIDPOINTS, 2000.0))),
    np.array([1.0, np.nextafter(1.0, 2.0), 9.995, 99.995, 999.995, np.nextafter(1000.0, 0.0)]),
], ids=["octaves", "ties", "midpoint-neighbours", "window-ends"])
def test_points_kernel_matches_percent_2f_over_its_window(values):
    """svgplot._points against '%.2f' on values in its window, 1 <= v < 1000."""
    xy = np.resize(values, (values.size + 1) // 2 * 2).reshape(-1, 2)
    assert svgplot._points(xy) == " ".join("%.2f,%.2f" % (x, y) for x, y in xy.tolist())


class TestMain:
    def test_density_outputs_normalized_grids(self, tmp_path):
        code = cli.main(
            ["density", "--out", str(tmp_path), "--sim_size", "4000", "--h_points", "501"]
        )
        assert code == 0
        for name in ("density_w1.csv", "density_w2.csv"):
            rows = (tmp_path / name).read_text().strip().split("\n")[1:]
            data = np.array([[float(v) for v in r.split(",")] for r in rows])
            total = np.trapezoid(data[:, 1], data[:, 0])
            assert total == pytest.approx(1.0, abs=1e-3)
        assert (tmp_path / "density.svg").exists()

    def test_learning_curve_row_count_and_determinism(self, tmp_path):
        argv = [
            "learning-curve",
            "--out",
            str(tmp_path / "a"),
            "--dims",
            "2,3",
            "--train_sizes",
            "8,20",
            "--n_trials",
            "4",
            "--test_size",
            "50",
            "--seed",
            "99",
        ]
        assert cli.main(argv) == 0
        argv[2] = str(tmp_path / "b")
        assert cli.main(argv) == 0
        a = (tmp_path / "a" / "learning_curve.csv").read_bytes()
        b = (tmp_path / "b" / "learning_curve.csv").read_bytes()
        assert a == b
        assert len(a.decode().strip().split("\n")) == 1 + 2 * 2

    def test_normal_deviate_on_equal_covariance_scores(self, tmp_path):
        code = cli.main(
            [
                "normal-deviate",
                "--out",
                str(tmp_path),
                "--mu1",
                "0.9,0",
                "--sigma1",
                "[[1,0],[0,1]]",
                "--mu2",
                "0,0",
                "--sigma2",
                "[[1,0],[0,1]]",
                "--sim_size",
                "10000",
            ]
        )
        assert code == 0
        header, row = (tmp_path / "binormal_fit.csv").read_text().strip().split("\n")
        assert header == "a,b,residual"
        a, b, _ = (float(v) for v in row.split(","))
        assert b == pytest.approx(1.0, abs=0.05)
        assert a == pytest.approx(0.9, abs=0.1)

    def test_exit_code_2_on_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("sigma1 = [[1,2],[2,1]]\n")
        assert cli.main(["density", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_exit_code_4_on_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        out = tmp_path / "out"
        assert cli.main(["roc", "--config", str(missing), "--out", str(out)]) == 4
        assert "i/o error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_exit_code_3_on_module_error(self, tmp_path, capsys):
        # 3-D problem has no analytic density path
        code = cli.main(
            [
                "density",
                "--out",
                str(tmp_path),
                "--mu1",
                "0,0,1",
                "--sigma1",
                "[[1,0,0],[0,1,0],[0,0,1]]",
                "--mu2",
                "0,0,0",
                "--sigma2",
                "[[1,0,0],[0,1,0],[0,0,2]]",
                "--sim_size",
                "100",
            ]
        )
        assert code == 3
        assert "failed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_density_that_fails_its_own_mass_check_exits_3(self, tmp_path, capsys):
        # A parabolic score whose class-2 peak is narrow: the densities are
        # right (20 001 points give mass 1.0000, the default 801 pass), but a
        # 101-point grid integrates class 1 to 1.010.
        code = cli.main(
            [
                "density",
                "--out",
                str(tmp_path),
                "--h_points",
                "101",
                "--mu1",
                "-1.0806560260576248,-2.7496676481277817",
                "--sigma1",
                "[[1.0229036726384353,0.9738040184530798],[0.9738040184530798,2.181942197582763]]",
                "--mu2",
                "-0.6467949956447576,-2.0797586305822158",
                "--sigma2",
                "[[0.4397709224674652,-0.07278191278339577],[-0.07278191278339577,0.3035669714597664]]",
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "class 1" in err and "grid mass 1.01" in err and "h_points=101" in err
        assert list(tmp_path.iterdir()) == []

    def test_symmetric_hyperbola_density_passes_every_check(self, tmp_path):
        # the saddle score is exactly 0, where both densities are infinite:
        # the default grid must neither hit it nor under-resolve its log
        # singularity
        code = cli.main(
            ["density", "--out", str(tmp_path), "--no-svg", "--mu1", "0,0", "--sigma1", "[[2,0],[0,0.5]]",
             "--mu2", "1,1", "--sigma2", "[[0.5,0],[0,2]]"]
        )
        assert code == 0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("sigmas", [("[[1,0],[0,1]]", "[[2,0],[0,1]]"), ("[[2,0],[0,1]]", "[[1,0],[0,1]]")])
    def test_lone_square_density_passes_every_check(self, tmp_path, seed, sigmas):
        # the score is a lone square term in x1 with its vertex at the class
        # means, so the most extreme simulated score sits a hair from the
        # finite support end and its 1/sqrt singularity; the written grid is
        # the default grid alone, whose mass is off by about 2e-5
        code = cli.main(
            ["density", "--out", str(tmp_path), "--no-svg", "--seed", str(seed), "--mu1", "0,0",
             "--sigma1", sigmas[0], "--mu2", "0,0", "--sigma2", sigmas[1]]
        )
        assert code == 0
        for name in ("density_w1.csv", "density_w2.csv"):
            data = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
            assert data.shape[0] == 801
            assert np.trapezoid(data[:, 1], data[:, 0]) == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("eps", [1e-10, 1e-11])
    def test_density_that_breaks_the_ratio_law_exits_3(self, tmp_path, capsys, eps):
        # Nearly equal class-2 variances: the hyperbola's densities lose
        # digits, about 1e-15 / eps relative, far below what the mass and KS
        # checks see, but f1 = e^h f2 fails by more than 1e-6.
        code = cli.main(
            [
                "density",
                "--out",
                str(tmp_path),
                "--mu1",
                "0,0",
                "--sigma1",
                "[[1,0],[0,1]]",
                "--mu2",
                "1,0.5",
                "--sigma2",
                f"[[{1.0 + eps!r},0],[0,{1.0 - eps / 3.0!r}]]",
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "f1 = e^h f2" in err and "h_points=801" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_counterexample_density_passes_every_check(self, tmp_path, seed):
        assert cli.main(["density", "--out", str(tmp_path), "--no-svg", "--seed", str(seed)]) == 0

    def test_density_that_fails_its_own_ks_check_exits_3(self, tmp_path, capsys, monkeypatch):
        # each class's grid checked against the other class's scores
        simulated = cli._simulated_scores
        monkeypatch.setattr(cli, "_simulated_scores", lambda config: simulated(config)[::-1])
        code = cli.main(["density", "--out", str(tmp_path), "--sim_size", "2000"])
        assert code == 3
        err = capsys.readouterr().err
        assert "class 1" in err and "exceeds the DKW bound 0.06" in err and "h_points=801" in err
        assert list(tmp_path.iterdir()) == []

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "314")
        cfg_a = cli.parse_config("", [("command", "simulate")])
        argvs = ["simulate", "--out", str(tmp_path / "x"), "--sim_size", "50"]
        assert cli.main(argvs) == 0
        monkeypatch.setenv(cli.SEED_ENV_VAR, "315")
        assert cli.main(["simulate", "--out", str(tmp_path / "y"), "--sim_size", "50"]) == 0
        assert (tmp_path / "x" / "scores.csv").read_bytes() != (
            tmp_path / "y" / "scores.csv"
        ).read_bytes()
        assert cfg_a.experiment.base_seed == cli.DEFAULT_SEED  # env not read by parse_config

    def test_failed_write_removes_partial_outputs(self, tmp_path, monkeypatch):
        import pathlib

        real_write = pathlib.Path.write_text
        state = {"count": 0}

        def flaky(self, text, **kwargs):
            state["count"] += 1
            if state["count"] >= 2:
                raise OSError("disk full")
            return real_write(self, text, **kwargs)

        monkeypatch.setattr(pathlib.Path, "write_text", flaky)
        code = cli.main(
            ["density", "--out", str(tmp_path), "--sim_size", "500"]
        )
        assert code == 4
        assert list(tmp_path.iterdir()) == []

    def test_override_without_value_is_config_error(self, tmp_path):
        assert cli.main(["roc", "--out", str(tmp_path), "--sim_size"]) == 2

    def test_variance_study_with_one_trial_exits_2(self, tmp_path, capsys):
        # a one-trial variance is nan, which the CSV could write but no plot can draw
        for flags in ([], ["--no-svg"]):
            argv = ["variance-study", "--out", str(tmp_path), "--n_trials", "1", "--train_sizes", "20,50",
                    "--test_size", "100"]
            assert cli.main(argv + flags) == 2
            assert "n_trials >= 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_no_svg_flag(self, tmp_path):
        assert cli.main(["roc", "--out", str(tmp_path), "--no-svg", "--sim_size", "500"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["roc.csv"]

    def test_end_to_end_byte_determinism_all_files(self, tmp_path):
        argv = ["density", "--seed", "7", "--sim_size", "2000", "--h_points", "201"]
        assert cli.main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(argv + ["--out", str(tmp_path / "b")]) == 0
        names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize(
        "command, digests",
        [
            ("simulate", {"scores.csv": "20687e4a9589828dd7c0b3f4f2d9e380285431f6b817a8f1517036251e89ffac"}),
            (
                "roc",
                {
                    "roc.csv": "9d7d4e693cde6188ae9267f02f39d1359c6d8b232903a4ec1073d4538eeca9c4",
                    "roc.svg": "f1aa353e87d10b00f6d3d0dc03c999cc9d599e33ecce8da1d1cc7b8b1f22edbf",
                },
            ),
            (
                "density",
                {
                    "density_w1.csv": "cfe6b3ec7a44eef76f72f6233fb7b000d3a30457a25d07bdf3556b1379d68a3a",
                    "density_w2.csv": "ae2c07e2fcc65a8d2ff3b2fccf8e7376cbdfcad6cb95f070bf48bdd703f18005",
                    "density.svg": "b30a089a7ba65b0b09bc38edd5af0b3d44bc93be0fa16d06e614237d24b04ca2",
                },
            ),
            (
                "normal-deviate",
                {
                    "deviate_points.csv": "f5bdac9191fafba4213888c9ec3c3041d9240a48edbe2a454461090ea29480f7",
                    "binormal_fit.csv": "9c47f8ab79fa57cb5d7ff851a382c156d62e60a6da236dec093929d9b1658e1b",
                    "deviate.svg": "21c6948eb66ed1ac92c6be644ed6696eb8beeea31d1b9464522701c0b5b9b280",
                },
            ),
            (
                "learning-curve --n_trials 3 --train_sizes 20,50 --test_size 200",
                {
                    "learning_curve.csv": "1069630f6cb738e8d4e9ba61f8c2891b7ecfac8964ab22d693cf20a83e728344",
                    "learning_curve.svg": "68925a680ab8134b8325c359e6ee5e2155e8a46fa87e46839802058ea576a73f",
                },
            ),
            (
                "variance-study --n_trials 3 --train_sizes 20,50 --test_size 200",
                {
                    "variance_study.csv": "7bbb1cc984f6d80281a3bd6bbd6c88eb8799bb986f7d501cc707d5f1e6b65ade",
                    "variance_study.svg": "10911b4ef82c7427486e19e32702005fa29ef3a9224cad98daae0577d0f5e820",
                },
            ),
        ],
    )
    def test_output_bytes_match_golden_digests(self, tmp_path, command, digests):
        # Scores and densities are written at 17 digits, so any change to the
        # scoring or density quadrature arithmetic shows here; every CSV and
        # SVG emitter is pinned.  --no-svg writes the same CSVs and no SVG.
        csv_only = {name: digest for name, digest in digests.items() if not name.endswith(".svg")}
        for flags, expected in (([], digests), (["--no-svg"], csv_only)):
            out = tmp_path / "-".join(["run", *flags])
            assert cli.main(command.split() + ["--seed", "2", "--sim_size", "200", "--out", str(out)] + flags) == 0
            written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
            assert written == expected

    def test_simulate_schema(self, tmp_path):
        assert cli.main(["simulate", "--out", str(tmp_path), "--sim_size", "20"]) == 0
        lines = (tmp_path / "scores.csv").read_text().strip().split("\n")
        assert lines[0] == "label,score"
        labels = {line.split(",")[0] for line in lines[1:]}
        assert labels == {"1", "2"}
        assert len(lines) == 1 + 40
