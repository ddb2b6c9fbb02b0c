"""Command-line interface tests.

Everything except one entry-point smoke test drives ``cli.main`` in
process, so exit codes and output files are checked without paying
subprocess startup per case.  Heavy verification runs use either the
infinitely generated builtin (whose pipeline finishes in about a
second) or a deliberately starved orbit budget.
"""

import ast
import json
import os
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kleindim.cli as cli
import kleindim.estdim as ed
import kleindim.group as gr
import kleindim.predict as predict
import kleindim.psmeasure as ps
from kleindim.pipeline import ORBIT_SLACK


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


UNRESOLVABLE = (
    "unresolvable at this tolerance: the prediction lies within the "
    "tolerance of the degenerate value 0"
)


NO_WINDOW = "error (budget leaves no trusted regularity window; raise --budget-dist)"
FLAT_PROFILE = (
    "error (flat mass profile: all 13 balls of the window hold the same mass, "
    "so the measure is too thin there for a slope)"
)

# (exit code, report rows) of `verify GROUP --budget-dist 8` for every
# builtin: each row passes, fails, or errors with a named reason
VERIFY_MATRIX_AT_8 = {
    "apollonian": (2, [
        ("poincare", "pass"), ("dim_H", "pass"), ("dim_A", "fail"), ("dim_L", "fail"),
        ("upper_reg", NO_WINDOW), ("lower_reg", NO_WINDOW),
        ("sup_upper_loc", "fail"), ("inf_lower_loc", "fail"),
    ]),
    "schottky": (2, [("pipeline", "error (orbit too sparse in the fit window)")]),
    "parabolic_cusp_fuchsian": (2, [
        ("dim_H", "fail"), ("dim_A", "pass"), ("dim_L", "fail"),
        ("upper_reg", "fail"), ("lower_reg", f"error ({UNRESOLVABLE})"),
        ("sup_upper_loc", "pass"), ("inf_lower_loc", FLAT_PROFILE),
    ]),
    "rank2_cusp": (2, [
        ("dim_H", "fail"), ("dim_A", "fail"), ("dim_L", "fail"),
        ("upper_reg", NO_WINDOW), ("lower_reg", NO_WINDOW),
        ("sup_upper_loc", "fail"), ("inf_lower_loc", FLAT_PROFILE),
    ]),
    "infinite_fuchsian": (0, [("box", "pass"), ("lower", "pass"), ("assouad", "pass")]),
}  # fmt: skip


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
        "text",
        ["1:2", "a:b:c", "0:1:5", "2:1:5", "0.1:0.5:1", "1:2:3:4",
         "0.1:inf:5", "inf:inf:5", "nan:1:5", "0.1:nan:5"],
    )  # fmt: skip
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

    @pytest.mark.parametrize("val", ["inf", "nan"])
    def test_non_finite_tolerance_is_a_usage_error(self, capsys, val):
        # an infinite tolerance passes any estimate, a NaN one fails every one
        code = cli.main(["verify", "schottky", "--tolerance", f"dim_H={val}"])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: --tolerance dim_H must be finite and nonnegative\n"
        )

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
            ("# halfspace,1,inf\n0\n1\n", "resolution must be a finite number"),
        ],
        ids=[
            "two-line-header", "text-dimension", "three-columns", "text-cell",
            "infinite-resolution",
        ],
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

    def test_prediction_near_zero_is_unresolvable(self):
        # an estimate of 0 would pass these rows, so none could fail
        for predicted, estimated in ((0.0372, 0.0), (0.15, 0.9), (-0.1, 0.5), (0.0, 0.0)):
            row = cli.ReportRow("x", predicted, estimated, 0.15)
            assert row.status == "error"
            assert row.note == UNRESOLVABLE
        assert cli.ReportRow("x", 0.16, 0.0, 0.15).status == "fail"
        # a one-sided bound keeps its meaning
        assert cli.ReportRow("x", 0.0, 0.0, 0.2, direction="le").status == "pass"

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

    def test_generate_shares_verify_element_budget(self, tmp_path, capsys):
        # the old default of 2,000,000 stopped this walk short and wrote
        # 23,984 points at a declared resolution of 0.031
        out = str(tmp_path / "gasket.json")
        assert cli.main(["generate", "apollonian", "--budget-dist", "10", "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "achieved resolution 0.0005 (requested 0.001), orbit_truncated=False" in printed

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

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_scales_are_usage_errors(self, cantor_file, capsys, bad):
        for argv in (
            ["plot", "--phase", "1", "3", "4", "--scales", f"1.8:{bad}:5"],
            ["dimension", cantor_file, "--scales", f"0.1:{bad}:5"],
            ["dimension", cantor_file, "--scales", f"{bad}:0.5:5"],
        ):
            # numpy would warn on the grid before any check saw it
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cli.main(argv) == 1
            assert capsys.readouterr().err == (
                "error: --scales needs finite 0 < R_MIN < R_MAX and COUNT >= 2\n"
            )

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
            ["--resolution", "inf"],
            ["--resolution", "1"],
            ["--resolution", "1.5"],
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

    def test_import_leaves_scipy_stats_out(self, tmp_path):
        # scipy.stats costs about a second and 35 MB in every process, and
        # scipy.spatial 0.3 s and 36 MB; the package loads neither, in
        # verify or on the measure side: the squeezed horoball family, the
        # drift of the measure formula and the deepest cusps
        code = (
            "import json, sys\n"
            "import kleindim\n"
            "import kleindim.cli as cli\n"
            "import kleindim.group as gr\n"
            "import kleindim.psmeasure as ps\n"
            "from kleindim.pipeline import Pipeline, deepest_cusp_points\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "loaded = {'import': scipy_modules()}\n"
            "for g in sys.argv[1:]:\n"
            "    cli.main(['verify', g, '--budget-dist', '8', '--out', g + '.txt'])\n"
            "    loaded[g] = scipy_modules()\n"
            "p = Pipeline(gr.builtin_group('apollonian'), 8.0)\n"
            "family = gr.standard_horoballs(p.orbit, p.cusps)\n"
            "ctx = ps.GMFContext(delta=p.delta, family=family)\n"
            "ps.gmf_drift(ctx, p.measure, n_samples=50, seed=0)\n"
            "deepest_cusp_points(p.cusps, family)\n"
            "loaded['measure side'] = scipy_modules()\n"
            "print(json.dumps(loaded))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", code, *VERIFY_MATRIX_AT_8],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert loaded == {name: [] for name in ["import", *VERIFY_MATRIX_AT_8, "measure side"]}

    def test_no_module_imports_scipy(self):
        # scipy serves the tests alone: no module of the package imports
        # it, and the runtime dependencies leave it out
        tomllib = pytest.importorskip("tomllib")
        package = os.path.dirname(os.path.abspath(cli.__file__))
        for name in sorted(os.listdir(package)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                assert all(m.split(".")[0] != "scipy" for m in modules), name
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            project = tomllib.load(fh)["project"]
        assert not [dep for dep in project["dependencies"] if dep.startswith("scipy")]
        assert [dep for dep in project["optional-dependencies"]["test"] if dep.startswith("scipy")]


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

    @pytest.mark.parametrize("group", ["rank2_cusp", "parabolic_cusp_fuchsian"])
    def test_cusp_groups_are_sampled_in_the_bounded_chart(self, tmp_path, group):
        # both groups declare a gap point; the chart that sends it to
        # infinity, the one verify measures, holds the limit set within
        # [-1.36, 1.36] x [-2.37, 2.37], where the raw chart spans +-89
        out = str(tmp_path / f"{group}.csv")
        assert cli.main(["generate", group, "--resolution", "0.02", "--out", out]) == 0
        assert np.abs(cli.read_cloud(out).coords).max() < 3.0

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
        text = open(out).read()
        assert "profile=delta:" in text and ",k_min:1,k_max:1,d:1," in text
        assert text.startswith("# kleindim") and "\noverall=" in text
        # both rows predict 2 delta - 1 = 0.093, inside their 0.15 tolerance of 0
        assert code == 2
        assert [row for row in report_rows(out) if row[1].startswith("error")] == [
            ("lower_reg", f"error ({UNRESOLVABLE})"),
            ("inf_lower_loc", f"error ({UNRESOLVABLE})"),
        ]

    def test_loose_growth_fit_is_one_pipeline_error(self, tmp_path):
        # schottky's 9-point orbit at the default budget fits delta-hat
        # 0.037 with a stderr of 0.58 of it; no row is read off that fit
        out = str(tmp_path / "report.txt")
        assert cli.main(["verify", "schottky", "--out", out]) == 2
        assert report_rows(out) == [
            (
                "pipeline",
                "error (growth fit too loose: stderr 0.0215 exceeds 0.1 of the "
                "fitted exponent 0.0372; raise the distance budget)",
            )
        ]

    @pytest.mark.parametrize("group", list(VERIFY_MATRIX_AT_8))
    def test_builtin_matrix_at_budget_8(self, tmp_path, group):
        out = str(tmp_path / "report.txt")
        code = cli.main(["verify", group, "--budget-dist", "8", "--out", out])
        assert (code, report_rows(out)) == VERIFY_MATRIX_AT_8[group]

    @pytest.mark.parametrize(
        "argv", [["apollonian", "--budget-dist", "8"], ["infinite_fuchsian"]], ids=lambda a: a[0]
    )
    def test_both_extremes_read_one_sweep(self, tmp_path, monkeypatch, argv):
        # dim_A and dim_L (lower and assouad on the infinite branch) read
        # the windows of one sweep of the cloud
        calls = []
        window_counts = ed._window_counts

        def counted(*args):
            calls.append(args)
            return window_counts(*args)

        monkeypatch.setattr(ed, "_window_counts", counted)
        cli.main(["verify", *argv, "--out", str(tmp_path / "report.txt")])
        extremes = ("dim_A", "dim_L", "lower", "assouad")
        rows = [s for name, s in report_rows(str(tmp_path / "report.txt")) if name in extremes]
        assert len(calls) == 1
        assert len(rows) == 2 and not any(s.startswith("error") for s in rows)

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

        monkeypatch.setattr(gr, "unsqueezed_horoballs", fail)
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

    def test_family_value_error_is_the_pipeline_row(self, tmp_path, monkeypatch):
        # the cusp order is built first, but a plain ValueError of its
        # family ends the report where the order is read: after the cloud
        # rows and the measure
        def fail(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(gr, "unsqueezed_horoballs", fail)
        out = str(tmp_path / "report.txt")
        assert cli.main(["verify", "apollonian", "--out", out, "--budget-dist", "7"]) == 2
        assert report_rows(out) == [
            ("poincare", "pass"),
            ("dim_H", "fail"),
            ("dim_A", "fail"),
            ("dim_L", "fail"),
            ("pipeline", "error (boom)"),
        ]

    def test_measure_failure_hides_the_family_failure(self, tmp_path, monkeypatch):
        # the family is built before the measure, yet a failed measure
        # ends the report before the cusp order would have been read
        def fail_family(*args, **kwargs):
            raise gr.CuspDetectionError("no family")

        def fail_measure(*args, **kwargs):
            raise ValueError("no measure")

        monkeypatch.setattr(gr, "unsqueezed_horoballs", fail_family)
        monkeypatch.setattr(ps, "patterson_measure", fail_measure)
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

    def test_orbit_and_family_are_built_once_and_dropped_before_the_sweep(
        self, tmp_path, monkeypatch
    ):
        # the walk and the family are each built once, and neither is
        # alive when the window sweep starts: nothing walks the orbit
        # again after verify drops it
        built, alive_at_sweep = [], []

        def tracked(fn):
            def call(*args, **kwargs):
                value = fn(*args, **kwargs)
                built.append((fn.__name__, weakref.ref(value)))
                return value

            return call

        def sweep(*args, **kwargs):
            alive_at_sweep.extend(name for name, ref in built if ref() is not None)
            return window_sweep(*args, **kwargs)

        window_sweep = ed.window_sweep
        for name in ("enumerate_orbit", "unsqueezed_horoballs"):
            monkeypatch.setattr(gr, name, tracked(getattr(gr, name)))
        monkeypatch.setattr(ed, "window_sweep", sweep)
        out = str(tmp_path / "report.txt")
        cli.main(["verify", "apollonian", "--out", out, "--budget-dist", "8"])
        assert sorted(name for name, _ in built) == ["enumerate_orbit", "unsqueezed_horoballs"]
        assert alive_at_sweep == []
        assert "horoballs" not in dict(report_rows(out))

    @pytest.mark.memory
    def test_verify_peaks_at_its_walk(self, tmp_path, traced_peak):
        # the family, the cloud, the measure and the sweeps each fit in
        # what the walk held: at 9.5 building the family beside the cloud
        # and the measure, and keeping the orbit to the end, peaked at
        # 1.07 times the walk
        g = gr.bounded_model(gr.builtin_group("apollonian"))[0]
        walk, _ = traced_peak(gr.enumerate_orbit, g, 9.5, slack=ORBIT_SLACK)
        argv = ["verify", "apollonian", "--budget-dist", "9.5", "--out", str(tmp_path / "r.txt")]
        peak, _ = traced_peak(cli.main, argv)
        assert peak < 1.03 * walk

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
