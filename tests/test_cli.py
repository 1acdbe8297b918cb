import hashlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from llrlab import cli
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
        s = Series(name="a", x=np.array([0.0, 0.5]), y=np.array([1, 2]))
        assert s.x == (0.0, 0.5) and s.y == (1.0, 2.0)
        assert all(type(v) is float for v in s.x + s.y)
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
        # A parabolic score whose class-2 peak is too narrow for the default
        # 801-point grid: the densities are right (20 001 points give mass
        # 1.0000), but this grid integrates to 1.042 and 1.147.
        code = cli.main(
            [
                "density",
                "--out",
                str(tmp_path),
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
        assert "class 1" in err and "grid mass 1.04" in err and "h_points=801" in err
        assert list(tmp_path.iterdir()) == []

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
                    "density_w1.csv": "630d142822947e5689abfa789fc9bcd38456f874fbfac3bb24659a9fae026534",
                    "density_w2.csv": "109749fbe7254ef2c3d11c98d90e59a95f360bdf9be98eccc55955c164c3cd76",
                    "density.svg": "44044a567e5547e126f7eaf68377067b78b65e154cb11e72534fdb29aaecf568",
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
        # SVG emitter is pinned.
        assert cli.main(command.split() + ["--seed", "2", "--sim_size", "200", "--out", str(tmp_path)]) == 0
        written = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()
        }
        assert written == digests

    def test_simulate_schema(self, tmp_path):
        assert cli.main(["simulate", "--out", str(tmp_path), "--sim_size", "20"]) == 0
        lines = (tmp_path / "scores.csv").read_text().strip().split("\n")
        assert lines[0] == "label,score"
        labels = {line.split(",")[0] for line in lines[1:]}
        assert labels == {"1", "2"}
        assert len(lines) == 1 + 40
