"""Command-line interface tests.

Everything except one entry-point smoke test drives ``cli.main`` in
process, so exit codes and output files are checked without paying
subprocess startup per case.  Heavy verification runs use either the
infinitely generated builtin (whose pipeline finishes in about a
second) or a deliberately starved orbit budget.
"""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kleindim.cli as cli
import kleindim.estdim as ed
import kleindim.group as gr
import kleindim.predict as predict
import kleindim.psmeasure as ps


def cantor_cloud(depth: int) -> ed.PointCloud:
    """Left endpoints of the surviving depth-m quarter intervals."""
    pts = np.zeros(1)
    for a in range(1, depth + 1):
        pts = np.concatenate([pts, pts + 3.0 * 4.0 ** -a])
    return ed.PointCloud(
        coords=np.sort(pts)[:, None],
        d=1,
        resolution=0.5 * 4.0 ** -depth,
    )


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "group.json"
    path.write_text(json.dumps(payload))
    return str(path)


def report_rows(path: str) -> list:
    """(name, status with its note) of each row of a verify report."""
    lines = open(path).read().splitlines()
    start = lines.index("name,predicted,estimated,tolerance,direction,status") + 1
    return [(f[0], f[5]) for f in (line.split(",", 5) for line in lines[start:-1])]


# every flag that a subcommand does not read, with a valid value
UNREAD_FLAGS = [
    (["generate", "schottky"], "--seed", "1"),
    (["generate", "schottky"], "--scales", "0.1:0.5:3"),
    (["generate", "schottky"], "--tolerance", "dim_H=1"),
    (["generate", "schottky"], "--method", "box"),
    (["dimension", "cloud.csv"], "--config", "schottky"),
    (["dimension", "cloud.csv"], "--out", "out.txt"),
    (["dimension", "cloud.csv"], "--budget-words", "10"),
    (["dimension", "cloud.csv"], "--budget-dist", "5"),
    (["dimension", "cloud.csv"], "--resolution", "0.1"),
    (["dimension", "cloud.csv"], "--tolerance", "dim_H=1"),
    (["verify", "schottky"], "--scales", "0.1:0.5:3"),
    (["verify", "schottky"], "--method", "box"),
    (["plot", "--phase", "1", "3", "4"], "--config", "schottky"),
    (["plot", "--phase", "1", "3", "4"], "--seed", "1"),
    (["plot", "--phase", "1", "3", "4"], "--tolerance", "dim_H=1"),
    (["plot", "--phase", "1", "3", "4"], "--method", "box"),
]


@pytest.fixture(scope="module")
def cantor_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("clouds") / "cantor.csv")
    cli.write_cloud(path, cantor_cloud(10))
    return path


class TestParsing:
    def test_scales_ok(self):
        assert cli._parse_scales("0.01:0.5:7") == (0.01, 0.5, 7)

    @pytest.mark.parametrize(
        "text", ["1:2", "a:b:c", "0:1:5", "2:1:5", "0.1:0.5:1", "1:2:3:4"]
    )
    def test_scales_rejected(self, text):
        with pytest.raises(cli.UsageError):
            cli._parse_scales(text)

    def test_tolerances_override_only_named(self):
        tol = cli._parse_tolerances(["dim_H=0.25", "poincare=0"])
        assert tol["dim_H"] == 0.25
        assert tol["poincare"] == 0.0
        assert tol["dim_A"] == cli.DEFAULT_TOLERANCES["dim_A"]

    @pytest.mark.parametrize("tok", ["nope=1", "dim_H", "dim_H=x", "dim_H=-1"])
    def test_tolerances_rejected(self, tok):
        with pytest.raises(cli.UsageError):
            cli._parse_tolerances([tok])

    def test_load_group_builtin(self):
        g = cli.load_group("apollonian")
        assert g.name == "apollonian"

    def test_load_group_unknown_name(self):
        with pytest.raises(cli.UsageError, match="unknown builtin"):
            cli.load_group("not_a_group")

    def test_load_group_json_with_params(self, tmp_path):
        path = write_config(
            tmp_path, {"group": "schottky", "params": {"n_pairs": 3}}
        )
        g = cli.load_group(path)
        assert g.name == "schottky"
        assert len(g.generators) == 3

    @pytest.mark.parametrize(
        "payload",
        [
            {"group": "schottky", "extra": 1},
            {"params": {}},
            {"group": "schottky", "params": 3},
            [1, 2],
        ],
    )
    def test_load_group_bad_config(self, tmp_path, payload):
        with pytest.raises(cli.UsageError):
            cli.load_group(write_config(tmp_path, payload))

    def test_load_group_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{group:")
        with pytest.raises(cli.UsageError):
            cli.load_group(str(path))

    def test_load_group_bad_params_value(self, tmp_path):
        path = write_config(
            tmp_path, {"group": "schottky", "params": {"separation": 1.0}}
        )
        with pytest.raises(cli.UsageError, match="disjoint"):
            cli.load_group(path)


class TestCloudIO:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        cloud = ed.PointCloud(
            coords=rng.standard_normal((40, 2)),
            d=2,
            resolution=1.25e-3,
        )
        path = str(tmp_path / "cloud.csv")
        cli.write_cloud(path, cloud)
        assert open(path).readlines()[2] == "# halfspace,2,0.00125\n"
        back = cli.read_cloud(path)
        assert back.d == cloud.d
        assert back.resolution == cloud.resolution
        assert np.array_equal(back.coords, cloud.coords)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "stuff.csv"
        path.write_text("x,y\n0.1,0.2\n")
        with pytest.raises(cli.UsageError, match="not a kleindim cloud"):
            cli.read_cloud(str(path))

    def test_rejects_other_model(self, tmp_path):
        path = tmp_path / "ball.csv"
        path.write_text("# kleindim-cloud\n# model,d,resolution\n# ball,2,0.01\n0,0,1\n")
        with pytest.raises(cli.UsageError, match="not halfspace"):
            cli.read_cloud(str(path))
        assert cli.main(["dimension", str(path)]) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.UsageError, match="cannot read"):
            cli.read_cloud(str(tmp_path / "nope.csv"))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_coordinates(self, tmp_path, capsys, bad):
        path = str(tmp_path / f"{bad}.csv")
        with open(path, "w") as fh:
            fh.write(f"# kleindim-cloud\n# model,d,resolution\n# halfspace,2,0.01\n0,0\n1,{bad}\n")
        with pytest.raises(cli.UsageError, match="finite"):
            cli.read_cloud(path)
        for method in ("box", "lower"):
            assert cli.main(["dimension", path, "--method", method]) == cli.EXIT_USAGE
            assert capsys.readouterr().err == (
                f"error: {path}: coordinates must be finite numbers\n"
            )

    @pytest.mark.parametrize(
        "body, why",
        [
            ("", "header wants model,d,resolution"),
            ("# halfspace,x,0.01\n0,0\n", "invalid literal for int"),
            ("# halfspace,2,0.01\n0,0,1\n", "cloud with d=2 needs 2 columns, got 3"),
            ("# halfspace,2,0.01\n0,0\n1,abc\n", "could not convert string 'abc'"),
        ],
        ids=["two-line-header", "text-dimension", "three-columns", "text-cell"],
    )
    def test_malformed_files_are_usage_errors(self, tmp_path, capsys, body, why):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("# kleindim-cloud\n# model,d,resolution\n" + body)
        with pytest.raises(cli.UsageError, match=why) as err:
            cli.read_cloud(path)
        assert str(err.value).startswith(f"{path}: ")
        assert cli.main(["dimension", path]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_empty_cloud_file(self, tmp_path, capsys):
        path = str(tmp_path / "empty.csv")
        cli.write_cloud(path, ed.PointCloud(coords=np.empty((0, 2)), d=2, resolution=1e-3))
        cloud = cli.read_cloud(path)
        assert cloud.coords.shape == (0, 2)
        assert cli.main(["dimension", path]) == cli.EXIT_COMPUTE
        captured = capsys.readouterr()
        assert captured.err == (
            "error: box dimension needs a cloud of at least 2 points; this one has 0\n"
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_round_trip_random_clouds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        cloud = ed.PointCloud(
            coords=rng.uniform(-10, 10, size=(n, 2)),
            d=2,
            resolution=float(rng.uniform(1e-6, 1e-2)),
        )
        path = f"/tmp/kleindim_cli_test_{seed}.csv"
        cli.write_cloud(path, cloud)
        back = cli.read_cloud(path)
        assert back.resolution == cloud.resolution
        assert np.array_equal(back.coords, cloud.coords)


class TestReport:
    def test_abs_row_boundaries(self):
        assert cli.ReportRow("x", 1.0, 1.05, 0.1).status == "pass"
        assert cli.ReportRow("x", 1.0, 1.2, 0.1).status == "fail"

    def test_one_sided_rows(self):
        assert cli.ReportRow("x", 0.75, 0.66, 0.1, direction="ge").status == "pass"
        assert cli.ReportRow("x", 0.75, 0.64, 0.1, direction="ge").status == "fail"
        assert cli.ReportRow("x", 0.0, 0.19, 0.2, direction="le").status == "pass"
        assert cli.ReportRow("x", 0.0, 0.21, 0.2, direction="le").status == "fail"

    def test_error_row_keeps_first_line(self):
        row = cli._error_row("stage", ValueError("top line\nsecond line"))
        assert row.status == "error"
        assert row.note == "top line"

    def test_to_text_layout(self):
        report = cli.VerificationReport(
            group="demo",
            rows=[cli.ReportRow("dim_H", 1.0, 1.05, 0.1)],
            environment={"seed": 0},
            flags=("a flag",),
        )
        text = report.to_text()
        lines = text.splitlines()
        assert lines[0] == "# kleindim verification report"
        assert lines[1] == "group=demo"
        assert "seed=0" in lines
        assert "flag=a flag" in lines
        assert "name,predicted,estimated,tolerance,direction,status" in lines
        assert "dim_H,1,1.05,0.1,abs,pass" in lines
        assert lines[-1] == "overall=pass"

    def test_empty_report_never_passes(self):
        report = cli.VerificationReport(group="demo")
        assert not report.all_pass
        assert report.to_text().endswith("overall=fail\n")

    def test_error_rows_poison_overall(self):
        report = cli.VerificationReport(
            group="demo", rows=[cli._error_row("stage", ValueError("boom"))]
        )
        assert report.has_errors
        assert not report.all_pass


class TestExitCodes:
    def test_no_command(self, capsys):
        assert cli.main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self):
        assert cli.main(["frobnicate"]) == 1

    def test_generate_needs_config(self):
        assert cli.main(["generate"]) == 1

    def test_generate_rejects_double_config(self):
        assert cli.main(["generate", "apollonian", "--config", "apollonian"]) == 1

    def test_generate_unknown_group(self, capsys):
        assert cli.main(["generate", "not_a_group"]) == 1
        assert "unknown builtin" in capsys.readouterr().err

    def test_dimension_missing_cloud(self):
        assert cli.main(["dimension", "/nonexistent/cloud.csv"]) == 1

    def test_plot_needs_a_mode(self):
        assert cli.main(["plot"]) == 1

    def test_plot_rejects_both_modes(self):
        assert cli.main(["plot", "--phase", "1", "3", "4", "--gasket", "x"]) == 1

    def test_plot_phase_wants_integers(self):
        assert cli.main(["plot", "--phase", "a", "b", "c"]) == 1

    def test_plot_phase_grid_outside_domain(self, capsys):
        code = cli.main(
            ["plot", "--phase", "1", "3", "4", "--scales", "0.2:5:50"]
        )
        assert code == 1
        assert "k_max/2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--resolution", "0"],
            ["--resolution", "-1"],
            ["--resolution", "nan"],
            ["--budget-dist", "0"],
            ["--budget-dist", "-2.5"],
            ["--budget-dist", "far"],
            ["--budget-words", "0"],
            ["--budget-words", "-3"],
        ],
    )
    def test_nonpositive_scales_and_budgets(self, flags, capsys):
        for command in ("generate", "verify"):
            assert cli.main([command, "schottky", *flags]) == 1
            assert flags[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, value",
        UNREAD_FLAGS,
        ids=[f"{command[0]} {flag}" for command, flag, _ in UNREAD_FLAGS],
    )
    def test_unread_flags_are_rejected(
        self, command, flag, value, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert cli.main([*command, flag, value]) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kleindim"], capture_output=True, text=True
        )
        assert proc.returncode == 1
        assert "usage" in proc.stderr

    def test_import_leaves_scipy_stats_out(self):
        # scipy.stats costs about a second and 35 MB in every process
        code = "import sys, kleindim.cli; print('scipy.stats' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestGenerate:
    def test_writes_cloud_file(self, tmp_path, capsys):
        out = str(tmp_path / "gasket.csv")
        code = cli.main(
            ["generate", "apollonian", "--resolution", "0.02", "--out", out]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        cloud = cli.read_cloud(out)
        assert cloud.d == 2
        assert len(cloud.coords) > 100
        # the sampler works at half the requested scale, so the file
        # over-resolves the declared target
        assert cloud.resolution <= 0.02

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for out in (a, b):
            assert (
                cli.main(
                    ["generate", "apollonian", "--resolution", "0.02", "--out", out]
                )
                == 0
            )
        assert open(a).read() == open(b).read()

    def test_thin_group_files_are_honestly_small(self, tmp_path):
        # the two-pair Schottky limit set is a sparse Cantor set, so a
        # coarse file legitimately holds only a handful of points
        out = str(tmp_path / "schottky.csv")
        assert cli.main(["generate", "schottky", "--out", out]) == 0
        cloud = cli.read_cloud(out)
        assert cloud.d == 1
        assert 2 < len(cloud.coords) < 2000

    def test_default_run_is_dense(self, tmp_path):
        # the default resolution must deliver at least ten thousand
        # points for the flagship example
        out = str(tmp_path / "gasket.csv")
        assert cli.main(["generate", "apollonian", "--out", out]) == 0
        assert len(cli.read_cloud(out).coords) >= 10_000

    def test_horizon_below_the_sampling_depth(self, tmp_path, capsys):
        # the file is sampled at half the requested 1e-3, so the orbit
        # must reach past log(2000) = 7.60
        out = str(tmp_path / "gasket.csv")
        assert cli.main(["generate", "apollonian", "--budget-dist", "7.5", "--out", out]) == 2
        assert capsys.readouterr().err == (
            "error: empty limit sample: the orbit, complete to t_valid=7.5, holds no "
            "point at or beyond min(t_valid, log(1/resolution)=7.601); raise the "
            "distance budget past 7.601\n"
        )

    def test_zero_word_budget(self, capsys):
        code = cli.main(["generate", "schottky", "--budget-words", "0"])
        assert code == 1
        assert "must be positive" in capsys.readouterr().err


class TestDimension:
    def test_box_on_cantor_file(self, cantor_file, capsys):
        code = cli.main(
            ["dimension", cantor_file, "--scales", "0.000244140625:0.25:6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = dict(
            line.split("=", 1) for line in out.splitlines() if "=" in line
        )
        assert lines["method"] == "box"
        assert float(lines["value"]) == pytest.approx(0.5, abs=0.05)
        assert lines["n_points"] == "1024"

    def test_assouad_on_cantor_file(self, cantor_file, capsys):
        # coarse radii keep every window populated; the 1024-point file
        # cannot support the deep default windows without granularity
        code = cli.main(
            [
                "dimension",
                cantor_file,
                "--method",
                "assouad",
                "--scales",
                "0.01:0.25:4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        value = float(dict(
            line.split("=", 1) for line in out.splitlines() if "=" in line
        )["value"])
        assert value == pytest.approx(0.5, abs=0.15)

    def test_single_point_cloud(self, tmp_path, capsys):
        path = str(tmp_path / "point.csv")
        cli.write_cloud(
            path,
            ed.PointCloud(
                coords=np.array([[0.25, 0.75]]),
                d=2,
                resolution=1e-3,
            ),
        )
        # one point has no scale to read: a compute error with the
        # reason, not an estimate of 0
        for method in ("box", "assouad", "lower"):
            code = cli.main(["dimension", path, "--method", method])
            assert code == cli.EXIT_COMPUTE
            captured = capsys.readouterr()
            assert "value=" not in captured.out
            assert captured.err == (
                f"error: {method} dimension needs a cloud of at least 2 points; "
                "this one has 1\n"
            )

    def test_window_below_resolution(self, cantor_file, capsys):
        code = cli.main(
            [
                "dimension",
                cantor_file,
                "--method",
                "assouad",
                "--scales",
                "1e-9:1e-8:3",
            ]
        )
        assert code == 2
        assert "resolution" in capsys.readouterr().err

    def test_unknown_method(self, cantor_file):
        assert cli.main(["dimension", cantor_file, "--method", "banana"]) == 1


class TestVerify:
    def test_infinite_group_passes(self, tmp_path, capsys):
        out = str(tmp_path / "report.txt")
        code = cli.main(["verify", "infinite_fuchsian", "--out", out])
        assert code == 0
        text = open(out).read()
        assert text.endswith("overall=pass\n")
        assert "flag=geometrically infinite" in text
        # the environment names the sampler's own walk, not the distance
        # budget and measure band that this branch never reads
        lines = text.splitlines()
        env = dict(ln.split("=", 1) for ln in lines[1:8])
        assert sorted(env) == [
            "budget_words", "group", "n_fixed_points", "n_orbit", "resolution", "seed", "t_valid",
        ]  # fmt: skip
        assert (env["n_orbit"], env["n_fixed_points"]) == ("316", "1016")
        assert float(env["t_valid"]) == pytest.approx(426.553, abs=1e-3)
        assert [ln.rsplit(",", 1)[1] for ln in lines[10:13]] == ["pass"] * 3
        assert capsys.readouterr().out.startswith("# kleindim verification report")

    def test_tight_tolerance_fails_cleanly(self, tmp_path):
        out = str(tmp_path / "report.txt")
        code = cli.main(
            [
                "verify",
                "infinite_fuchsian",
                "--out",
                out,
                "--tolerance",
                "box=0.001",
            ]
        )
        assert code == 3
        text = open(out).read()
        assert "box," in text
        assert text.endswith("overall=fail\n")

    def test_rank_one_cusp_on_a_line(self, tmp_path):
        # d=1 cusp points have one coordinate; the regularity and local
        # dimension probes at the cusp used to index a second one
        out = str(tmp_path / "report.txt")
        code = cli.main(["verify", "parabolic_cusp_fuchsian", "--out", out])
        assert code in (2, 3)
        text = open(out).read()
        assert "profile=delta:" in text and ",k_min:1,k_max:1,d:1," in text
        assert "inf_lower_loc," in text
        assert text.startswith("# kleindim") and "\noverall=" in text

    def test_flat_cusp_profile_is_an_error_row(self, tmp_path):
        # at depth 8 the 103-atom measure puts the same atoms in all 13
        # balls of the cusp window; the flat profile used to read a slope
        # of -0 and pass against the predicted 0.079
        out = str(tmp_path / "report.txt")
        code = cli.main(["verify", "parabolic_cusp_fuchsian", "--out", out, "--budget-dist", "8"])
        assert code == 2
        rows = dict(report_rows(out))
        assert rows["inf_lower_loc"] == (
            "error (flat mass profile: all 13 balls of the window hold the same "
            "mass, so the measure is too thin there for a slope)"
        )

    def test_starved_budget_reports_errors(self, tmp_path):
        out = str(tmp_path / "report.txt")
        code = cli.main(
            ["verify", "apollonian", "--out", out, "--budget-dist", "6"]
        )
        assert code == 2
        rows = dict(report_rows(out))
        # the horizon below log(1/resolution) leaves nothing to sample:
        # the three cloud rows name it, the measure rows still run
        empty = (
            "error (empty limit sample: the orbit, complete to t_valid=6, holds no "
            "point at or beyond min(t_valid, log(1/resolution)=6.908); raise the "
            "distance budget past 6.908)"
        )
        assert [rows[name] for name in ("dim_H", "dim_A", "dim_L")] == [empty] * 3
        assert rows["sup_upper_loc"] == "fail"
        assert rows["inf_lower_loc"] == (
            "error (budget leaves no typical local-dimension window; "
            "raise --budget-dist)"
        )

    def test_measure_failure_errors_the_four_measure_rows(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("no measure")

        monkeypatch.setattr(ps, "patterson_measure", fail)
        out = str(tmp_path / "report.txt")
        assert cli.main(["verify", "apollonian", "--out", out, "--budget-dist", "7"]) == 2
        failed = "error (no measure)"
        assert report_rows(out) == [
            ("poincare", "pass"),
            ("dim_H", "fail"),
            ("dim_A", "fail"),
            ("dim_L", "fail"),
            ("upper_reg", failed),
            ("lower_reg", failed),
            ("sup_upper_loc", failed),
            ("inf_lower_loc", failed),
        ]

    def test_horoball_failure_is_one_row(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise gr.CuspDetectionError("no family")

        monkeypatch.setattr(gr, "standard_horoballs", fail)
        out = str(tmp_path / "report.txt")
        assert cli.main(["verify", "apollonian", "--out", out, "--budget-dist", "7"]) == 2
        no_window = "error (budget leaves no trusted regularity window; raise --budget-dist)"
        assert report_rows(out) == [
            ("poincare", "pass"),
            ("dim_H", "fail"),
            ("dim_A", "fail"),
            ("dim_L", "fail"),
            ("horoballs", "error (no family)"),
            ("upper_reg", no_window),
            ("lower_reg", no_window),
            ("sup_upper_loc", "pass"),
            ("inf_lower_loc", "fail"),
        ]
        # without cusp points both local rows read the typical point
        local = [line.split(",")[2] for line in open(out) if "_loc," in line]
        assert local[0] == local[1]

    def test_pipeline_failure_is_one_row(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("no cusps")

        monkeypatch.setattr(gr, "find_cusps", fail)
        out = str(tmp_path / "report.txt")
        assert cli.main(["verify", "apollonian", "--out", out, "--budget-dist", "7"]) == 2
        assert report_rows(out) == [("poincare", "pass"), ("pipeline", "error (no cusps)")]

    def test_sampling_failure_errors_the_three_cloud_rows(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("no cloud")

        monkeypatch.setattr(gr, "sample_limit_set", fail)
        out = str(tmp_path / "report.txt")
        assert cli.main(["verify", "apollonian", "--out", out, "--budget-dist", "7"]) == 2
        rows = report_rows(out)
        assert rows[:4] == [("poincare", "pass")] + [
            (name, "error (no cloud)") for name in ("dim_H", "dim_A", "dim_L")
        ]
        # the measure rows are read as without the failure
        assert [name for name, _ in rows[4:]] == [
            "upper_reg",
            "lower_reg",
            "sup_upper_loc",
            "inf_lower_loc",
        ]
        assert "no cloud" not in "".join(status for _, status in rows[4:])

    def test_config_file_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, {"group": "infinite_fuchsian"})
        out = str(tmp_path / "report.txt")
        assert cli.main(["verify", "--config", cfg, "--out", out]) == 0
        assert "group=infinite_fuchsian" in open(out).read()


class TestPlot:
    def test_phase_matches_library_table(self, tmp_path):
        out = str(tmp_path / "phase.csv")
        assert cli.main(["plot", "--phase", "1", "3", "4", "--out", out]) == 0
        lo = 3 / 2.0
        grid = lo + (4 - lo) * np.arange(1, 201) / 200.0
        expected = predict.format_phase_table(predict.phase_plot(1, 3, 4, grid))
        assert open(out).read() == expected
        svg = open(str(tmp_path / "phase.svg")).read()
        assert svg.startswith("<?xml")
        assert "<svg" in svg
        assert "polyline" in svg

    def test_phase_custom_grid(self, tmp_path):
        out = str(tmp_path / "phase.csv")
        code = cli.main(
            ["plot", "--phase", "1", "3", "4", "--scales", "1.8:3.9:12", "--out", out]
        )
        assert code == 0
        rows = predict.phase_plot(1, 3, 4, np.linspace(1.8, 3.9, 12))
        assert open(out).read() == predict.format_phase_table(rows)

    def test_default_output_names(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["plot", "--phase", "1", "1", "2"]) == 0
        assert (tmp_path / "phase_k1_1_d2.csv").exists()
        assert (tmp_path / "phase_k1_1_d2.svg").exists()

    def test_gasket_scatter(self, tmp_path, capsys):
        out = str(tmp_path / "limit.svg")
        code = cli.main(
            ["plot", "--gasket", "apollonian", "--resolution", "0.02", "--out", out]
        )
        assert code == 0
        svg = open(out).read()
        assert svg.startswith("<?xml")
        assert "<circle" in svg
        assert "wrote" in capsys.readouterr().out
