"""Batch command line front end.

Four subcommands cover the artifact workflow: ``generate`` samples a
limit set into a point cloud file, ``dimension`` runs one estimator on
a saved cloud, ``verify`` compares a full estimation pipeline against
the closed-form dimension profile and writes a pass/fail report, and
``plot`` emits phase-diagram tables plus SVG renderings.

All outputs are plain text or SVG, written atomically (temp file then
rename), and byte-identical across reruns with the same seed and
budgets.  Exit codes: 0 success or all rows pass, 1 usage error,
2 computation error, 3 verification failure.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import estdim as ed
from . import group as gr
from . import predict
from . import psmeasure as ps
from .pipeline import Pipeline
# perfbench/op.py finds the deepest cusp through this name
from .pipeline import deepest_cusp_points as _deepest_cusp_points

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_VERIFY = 3

# verification constants: the deep-band width for the empirical measure
# and the default orbit budgets the report tolerances were tuned at
VERIFY_BAND = 3.5
DEFAULT_BUDGET_DIST = 11.0
DEFAULT_BUDGET_WORDS = 4_000_000
DEFAULT_RESOLUTION = 1e-3

DEFAULT_TOLERANCES = {
    "poincare": 0.05,
    "dim_H": 0.1,
    "dim_A": 0.1,
    # the thin-window extreme fits over small covering counts, so its
    # finite-sample spread is wider than the other extremal estimate
    "dim_L": 0.15,
    "upper_reg": 0.15,
    "lower_reg": 0.15,
    "sup_upper_loc": 0.15,
    "inf_lower_loc": 0.15,
    "box": 0.1,
    "lower": 0.2,
    "assouad": 0.1,
}


class UsageError(ValueError):
    """Bad flags, bad config, bad parameter ranges: exit code 1."""


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_cloud(path: str, cloud: ed.PointCloud) -> None:
    """Plain-text cloud file: commented header, one CSV row per point."""
    lines = [
        "# kleindim-cloud",
        "# model,d,resolution",
        f"# halfspace,{cloud.d},{cloud.resolution!r}",
        f"# truncated={cloud.meta.get('orbit_truncated', False)} "
        f"n={len(cloud.coords)}",
    ]
    for row in cloud.coords:
        lines.append(",".join(f"{v:.17g}" for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_cloud(path: str) -> ed.PointCloud:
    """Read a file written by :func:`write_cloud`; a file that is not one
    raises ``UsageError`` naming it."""
    try:
        with open(path) as fh:
            if "kleindim-cloud" not in fh.readline():
                raise UsageError(f"{path} is not a kleindim cloud file")
            fh.readline()
            header = fh.readline().lstrip("# ").strip().split(",")
            rows = [line for line in fh if line.split("#", 1)[0].strip()]
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}") from None
    try:
        if len(header) != 3:
            raise ValueError("header wants model,d,resolution")
        model, d, resolution = header
        if model != "halfspace":
            raise ValueError(f"model {model!r} is not halfspace")
        if rows:
            coords = np.loadtxt(rows, delimiter=",", comments="#", ndmin=2)
        else:
            coords = np.empty((0, int(d)))
        if not np.isfinite(coords).all():
            raise ValueError("coordinates must be finite numbers")
        return ed.PointCloud(coords, int(d), float(resolution), meta={"source": path})
    except ValueError as e:
        raise UsageError(f"{path}: {e}") from None


def load_group(spec: str) -> gr.GroupPresentation:
    """Resolve a builtin name or a JSON config {"group": ..., "params": ...}."""
    if os.path.exists(spec):
        try:
            with open(spec) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise UsageError(f"config {spec}: {e}") from None
        if not isinstance(cfg, dict) or "group" not in cfg:
            raise UsageError(f"config {spec}: expected an object with a 'group' key")
        extra = set(cfg) - {"group", "params"}
        if extra:
            raise UsageError(f"config {spec}: unknown keys {sorted(extra)}")
        name = cfg["group"]
        params = cfg.get("params", {})
        if not isinstance(params, dict):
            raise UsageError(f"config {spec}: 'params' must be an object")
    else:
        name, params = spec, {}
    try:
        return gr.builtin_group(name, **params)
    except (ValueError, TypeError) as e:
        raise UsageError(str(e)) from None


def _parse_scales(text: str) -> tuple[float, float, int]:
    """R_MIN:R_MAX:COUNT with 0 < R_MIN < R_MAX and COUNT >= 2."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--scales wants R_MIN:R_MAX:COUNT, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"--scales wants numbers, got {text!r}") from None
    if not (0.0 < lo < hi) or n < 2:
        raise UsageError("--scales needs 0 < R_MIN < R_MAX and COUNT >= 2")
    return lo, hi, n


def _parse_tolerances(pairs: Optional[Sequence[str]]) -> dict:
    tol = dict(DEFAULT_TOLERANCES)
    for tok in pairs or []:
        name, sep, val = tok.partition("=")
        if not sep or name not in DEFAULT_TOLERANCES:
            known = ", ".join(sorted(DEFAULT_TOLERANCES))
            raise UsageError(f"--tolerance wants NAME=VAL with NAME in {{{known}}}")
        try:
            tol[name] = float(val)
        except ValueError:
            raise UsageError(f"--tolerance {name}: {val!r} is not a number") from None
        if tol[name] < 0:
            raise UsageError(f"--tolerance {name} must be nonnegative")
    return tol


# ---------------------------------------------------------------------------
# SVG emission (hand-rolled: a few polylines and circles, nothing more)
# ---------------------------------------------------------------------------

_SVG_SIZE = 720
_SVG_MARGIN = 60

# stroke styles per curve, the usual solid/dashed/dotted distinctions
_PHASE_STYLES = [
    ("upper_reg", "#000000", "", 2.0),
    ("lower_reg", "#000000", "9,5", 2.0),
    ("dim_A", "#555555", "2,4", 2.0),
    ("dim_L", "#555555", "9,3,2,3", 2.0),
    ("poincare", "#999999", "", 1.0),
]


def _svg_open(width: int, height: int) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]


def _axis_map(lo: float, hi: float, pix: int, margin: int):
    span = hi - lo if hi > lo else 1.0

    def to_pix(v: float) -> float:
        return margin + (v - lo) / span * (pix - 2 * margin)

    return to_pix


def phase_svg(rows: np.ndarray) -> str:
    """Render the five phase-plot curves over the delta grid."""
    w = h = _SVG_SIZE
    xs = rows[:, 0]
    ys = rows[:, 1:]
    x_map = _axis_map(float(xs.min()), float(xs.max()), w, _SVG_MARGIN)
    y_lo, y_hi = float(ys.min()), float(ys.max())
    y_map = _axis_map(y_lo, y_hi, h, _SVG_MARGIN)
    out = _svg_open(w, h)
    out.append(
        f'<rect x="{_SVG_MARGIN}" y="{_SVG_MARGIN}" '
        f'width="{w - 2 * _SVG_MARGIN}" height="{h - 2 * _SVG_MARGIN}" '
        'fill="none" stroke="#cccccc"/>'
    )
    for col, (name, color, dash, width) in enumerate(_PHASE_STYLES, start=1):
        pts = " ".join(
            f"{x_map(x):.2f},{h - y_map(v):.2f}" for x, v in zip(xs, rows[:, col])
        )
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="{width}"'
            f"{dash_attr} points=\"{pts}\"/>"
        )
        lx = x_map(xs[-1]) + 4
        ly = h - y_map(rows[-1, col])
        out.append(
            f'<text x="{lx:.2f}" y="{ly:.2f}" font-size="11" '
            f'fill="{color}">{name}</text>'
        )
    for v, label in ((xs[0], f"{xs[0]:.3g}"), (xs[-1], f"{xs[-1]:.3g}")):
        out.append(
            f'<text x="{x_map(v):.2f}" y="{h - _SVG_MARGIN + 16}" '
            f'font-size="11" text-anchor="middle">{label}</text>'
        )
    for v in (y_lo, y_hi):
        out.append(
            f'<text x="{_SVG_MARGIN - 6}" y="{h - y_map(v):.2f}" '
            f'font-size="11" text-anchor="end">{v:.3g}</text>'
        )
    out.append(
        f'<text x="{w / 2:.0f}" y="{h - 14}" font-size="12" '
        'text-anchor="middle">delta</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def scatter_svg(cloud: ed.PointCloud) -> str:
    """Render a point cloud as an SVG scatter."""
    w = h = _SVG_SIZE
    xs = cloud.coords[:, 0]
    ys = cloud.coords[:, 1] if cloud.d == 2 else np.zeros_like(xs)
    pad = 0.05 * max(float(xs.max() - xs.min()), float(ys.max() - ys.min()), 1e-9)
    x_map = _axis_map(float(xs.min()) - pad, float(xs.max()) + pad, w, 10)
    y_map = _axis_map(float(ys.min()) - pad, float(ys.max()) + pad, h, 10)
    out = _svg_open(w, h)
    for x, y in zip(xs, ys):
        out.append(f'<circle cx="{x_map(x):.2f}" cy="{h - y_map(y):.2f}" r="0.6"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------


@dataclass
class ReportRow:
    """One verified quantity: prediction, estimate, tolerance, outcome.

    ``direction`` is "abs" for two-sided comparisons and "ge"/"le" for
    one-sided bounds (used when only an inequality is predicted).
    """

    name: str
    predicted: float
    estimated: float
    tolerance: float
    direction: str = "abs"
    status: str = ""
    note: str = ""

    def __post_init__(self) -> None:
        if not self.status:
            self.status = "pass" if self._holds() else "fail"

    def _holds(self) -> bool:
        if self.direction == "ge":
            return self.estimated >= self.predicted - self.tolerance
        if self.direction == "le":
            return self.estimated <= self.predicted + self.tolerance
        return abs(self.estimated - self.predicted) <= self.tolerance


@dataclass
class VerificationReport:
    """Full pass/fail table plus everything needed to rerun it."""

    group: str
    rows: list = field(default_factory=list)
    environment: dict = field(default_factory=dict)
    profile: Optional[predict.GroupProfile] = None
    flags: tuple = ()

    @property
    def all_pass(self) -> bool:
        return bool(self.rows) and all(r.status == "pass" for r in self.rows)

    @property
    def has_errors(self) -> bool:
        return any(r.status == "error" for r in self.rows)

    def to_text(self) -> str:
        lines = ["# kleindim verification report", f"group={self.group}"]
        for key in sorted(self.environment):
            lines.append(f"{key}={self.environment[key]}")
        if self.profile is not None:
            p = self.profile
            lines.append(
                f"profile=delta:{p.delta:.12g},k_min:{p.k_min},"
                f"k_max:{p.k_max},d:{p.d},parabolic_free:{p.parabolic_free}"
            )
        for flag in self.flags:
            lines.append(f"flag={flag}")
        lines.append("name,predicted,estimated,tolerance,direction,status")
        for r in self.rows:
            lines.append(
                f"{r.name},{r.predicted:.12g},{r.estimated:.12g},"
                f"{r.tolerance:.12g},{r.direction},{r.status}"
                + (f" ({r.note})" if r.note else "")
            )
        lines.append(f"overall={'pass' if self.all_pass else 'fail'}")
        return "\n".join(lines) + "\n"


def _error_row(name: str, exc: Exception) -> ReportRow:
    note = str(exc).split("\n")[0]
    return ReportRow(
        name=name,
        predicted=math.nan,
        estimated=math.nan,
        tolerance=math.nan,
        status="error",
        note=note,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _resolve_config(args) -> str:
    spec = getattr(args, "config_pos", None) or args.config
    if getattr(args, "config_pos", None) and args.config:
        raise UsageError("give the config either positionally or via --config")
    if not spec:
        raise UsageError("a group config (builtin name or JSON path) is required")
    return spec


def _sample_cloud(g: gr.GroupPresentation, args) -> ed.PointCloud:
    """Sample ``g`` within the budgets given on the command line."""
    resolution = args.resolution or DEFAULT_RESOLUTION
    kwargs = {}
    if args.budget_words:
        kwargs["max_elements"] = args.budget_words
    if args.budget_dist:
        kwargs["max_dist"] = args.budget_dist
    # sample at half the requested scale so the file over-resolves its
    # declared target instead of meeting it marginally
    return gr.sample_limit_set(g, target_resolution=resolution / 2.0, **kwargs)


def cmd_generate(args) -> int:
    g = load_group(_resolve_config(args))
    cloud = _sample_cloud(g, args)
    out = args.out or f"{g.name or 'group'}_cloud.csv"
    write_cloud(out, cloud)
    print(f"wrote {out}: {len(cloud.coords)} points, model=halfspace, d={cloud.d}")
    print(
        f"achieved resolution {cloud.resolution:.6g} "
        f"(requested {args.resolution or DEFAULT_RESOLUTION:.6g}), "
        f"orbit_truncated={cloud.meta.get('orbit_truncated', False)}"
    )
    return EXIT_OK


def cmd_dimension(args) -> int:
    cloud = read_cloud(args.cloud)
    method = args.method or "box"
    if method not in ("box", "assouad", "lower"):
        raise UsageError(f"unknown method {method!r}; pick box, assouad or lower")
    scales = None
    if args.scales:
        lo, hi, n = _parse_scales(args.scales)
        scales = np.geomspace(hi, lo, n)
    if method == "box":
        est = ed.box_dimension(cloud, scales=scales)
    elif method == "assouad":
        est = ed.assouad_dimension(cloud, radii=scales, seed=args.seed)
    else:
        est = ed.lower_dimension(cloud, radii=scales, seed=args.seed)
    print(f"method={est.method}")
    print(f"value={est.value:.12g}")
    print(f"n_points={len(cloud.coords)}")
    print(f"resolution={cloud.resolution:.12g}")
    for key in sorted(est.diagnostics):
        print(f"{key}={est.diagnostics[key]}")
    return EXIT_OK


def _add_rows(report, names, predicted, tol, estimate, direction="abs"):
    """Append one row per name, holding the values ``estimate()`` returns
    against ``predicted[name]``, or one error row per name if it raises
    a ``ValueError``."""
    try:
        values = estimate()
    except ValueError as e:
        report.rows.extend(_error_row(name, e) for name in names)
        return
    for name, value in zip(names, values):
        report.rows.append(
            ReportRow(name, predicted[name], value, tol[name], direction)
        )


def _verify_geometrically_finite(p, tol, seed, report):
    delta_hat, cusps = p.delta, p.cusps
    profile = predict.GroupProfile(
        delta=delta_hat,
        k_min=cusps.k_min or 0,
        k_max=cusps.k_max or 0,
        d=p.group.d,
        parabolic_free=not cusps.has_cusps,
    )
    report.profile = profile
    predicted = vars(predict.predict_dims(profile))

    # the cloud is read inside each row, so a failed sample errors only
    # these three rows
    def box():
        cloud = p.cloud
        extent = cloud.extent()
        if extent <= 0.0:
            raise ValueError(
                "budget leaves a limit sample of zero extent; raise --budget-dist"
            )
        bottom = max(10.0 * cloud.resolution, extent / 256.0)
        scales = np.geomspace(extent / 16.0, bottom, 10)
        return [ed.box_dimension(cloud, scales=scales).value]

    def assouad():
        return [ed.assouad_dimension(p.cloud, seed=seed).value]

    def lower():
        # smaller ratios push the window floor deep enough that the thin
        # cusp horns, where the lower dimension is attained, are seen;
        # the wide default window never leaves the typical part
        return [ed.lower_dimension(p.cloud, ratios=(4.0, 8.0, 16.0), seed=seed).value]

    _add_rows(report, ["dim_H"], predicted, tol, box)
    _add_rows(report, ["dim_A"], predicted, tol, assouad)
    _add_rows(report, ["dim_L"], predicted, tol, lower)

    # measure stages: deep-band empirical measure, regularity sweep in
    # the window the finite budget actually supports, local dimensions
    try:
        mu = p.measure
    except ValueError as e:
        names = ("upper_reg", "lower_reg", "sup_upper_loc", "inf_lower_loc")
        report.rows.extend(_error_row(name, e) for name in names)
        return

    cusp_rows = []
    wall_t = None
    if cusps.has_cusps:
        try:
            cusp_rows = p.cusp_points
        except gr.CuspDetectionError as e:
            report.rows.append(_error_row("horoballs", e))
        # below e^-wall_t the truncated orbit undersupplies the cusp
        # neighbourhoods and mass ratios there read too steep
        wall_t = (p.orbit.t_valid - p.band) / 2.0

    def regularity():
        r_floor = 2.0 * mu.resolution
        if wall_t is not None:
            r_floor = max(r_floor, math.exp(-wall_t))
        ratio = 16.0
        r_bot = ratio * r_floor
        r_top = min(mu.extent() / 3.5, 1.6 * r_bot)
        if r_top < r_bot:
            raise ps.MeasureScaleError(
                "budget leaves no trusted regularity window; raise --budget-dist"
            )
        extras = None
        if cusp_rows:
            extras = np.array([point for _, _, point in cusp_rows])
        upper, lower = ps.regularity_exponents(
            mu,
            radii=np.geomspace(r_top, r_bot, 3),
            ratios=(ratio,),
            n_centers=192,
            min_atoms=128,
            extra_centers=extras,
            seed=seed,
        )
        return [upper.value, lower.value]

    _add_rows(report, ["upper_reg", "lower_reg"], predicted, tol, regularity)

    rng = np.random.default_rng(seed)
    typical = mu.coords[int(rng.choice(mu.n, p=mu.weights))]
    t_deep = min(6.0, -math.log(mu.resolution) - 0.1)

    def local_dim(rank):
        """Local dimension at the deepest finite cusp of ``rank`` in the
        cusp window, else at the typical point."""
        for _, c, point in cusp_rows:
            if c.rank == rank:
                window = (1.0, max(1.5, min(3.5, wall_t)))
                return [ps.local_dimension(mu, point, t_window=window).slope]
        if t_deep <= 2.0:
            raise ValueError(
                "budget leaves no typical local-dimension window; raise --budget-dist"
            )
        return [ps.local_dimension(mu, typical, t_window=(2.0, t_deep)).slope]

    # the supremum of upper local dimensions is attained at a minimal-rank
    # parabolic point when one exists, the infimum of lower ones at a
    # maximal-rank one
    sup_rank = profile.k_min if delta_hat > profile.k_min else None
    inf_rank = profile.k_max if delta_hat < profile.k_max else None
    _add_rows(report, ["sup_upper_loc"], predicted, tol, lambda: local_dim(sup_rank))
    _add_rows(report, ["inf_lower_loc"], predicted, tol, lambda: local_dim(inf_rank))


def _verify_geometrically_infinite(g, cloud, tol, seed, report):
    report.flags = (
        "geometrically infinite: closed-form dimension profile not applicable",
    )
    predicted = {"box": float(g.metadata.get("beta", 1.0)), "lower": 0.0, "assouad": 1.0}
    rows = (
        ("box", "ge", lambda: [ed.box_dimension(cloud).value]),
        ("lower", "le", lambda: [ed.lower_dimension(cloud, seed=seed).value]),
        ("assouad", "ge", lambda: [ed.assouad_dimension(cloud, seed=seed).value]),
    )
    for name, direction, estimate in rows:
        _add_rows(report, [name], predicted, tol, estimate, direction)


def cmd_verify(args) -> int:
    g0 = load_group(_resolve_config(args))
    tol = _parse_tolerances(args.tolerance)
    seed = args.seed
    budget_dist = args.budget_dist or DEFAULT_BUDGET_DIST
    budget_words = args.budget_words or DEFAULT_BUDGET_WORDS
    resolution = args.resolution or DEFAULT_RESOLUTION

    p = Pipeline(
        g0, budget_dist, words=budget_words, resolution=resolution, band=VERIFY_BAND
    )
    finite = p.group.metadata.get("geometrically_finite", True)
    report = VerificationReport(
        group=g0.name or "custom",
        environment={"budget_words": budget_words, "resolution": resolution, "seed": seed},
    )
    if finite:
        report.environment.update(band=VERIFY_BAND, budget_dist=budget_dist)

    try:
        if finite:
            delta_hat = p.delta
            report.environment["delta_hat"] = f"{delta_hat:.12g}"
            report.environment["n_orbit"] = p.orbit.n
            known = p.group.metadata.get("known_delta")
            if known is not None:
                report.rows.append(
                    ReportRow("poincare", float(known), delta_hat, tol["poincare"])
                )
            _verify_geometrically_finite(p, tol, seed, report)
        else:
            # no growth fit and no distance budget here: at the default
            # budgets the walk of infinite_fuchsian to 11 holds only the
            # identity.  The cloud comes from the sampler's own walk
            # (spectral-gap retry to distance ~426, 316 elements) and the
            # 1,016 fixed points of those elements, which the report records
            cloud = gr.sample_limit_set(p.group, resolution, max_elements=budget_words)
            report.environment.update(
                (key, cloud.meta[key]) for key in ("n_orbit", "t_valid", "n_fixed_points")
            )
            _verify_geometrically_infinite(p.group, cloud, tol, seed, report)
    except ValueError as e:  # CuspDetectionError is a ValueError
        report.rows.append(_error_row("pipeline", e))

    out = args.out or f"{report.group}_verify.txt"
    _atomic_write(out, report.to_text())
    print(report.to_text(), end="")
    print(f"wrote {out}")
    if report.has_errors:
        return EXIT_COMPUTE
    return EXIT_OK if report.all_pass else EXIT_VERIFY


def cmd_plot(args) -> int:
    if args.phase is not None and args.gasket:
        raise UsageError("pick one of --phase or --gasket")
    if args.phase is not None:
        try:
            k_min, k_max, d = (int(v) for v in args.phase)
        except ValueError:
            raise UsageError("--phase wants three integers K_MIN K_MAX D") from None
        if args.scales:
            lo, hi, n = _parse_scales(args.scales)
            grid = np.linspace(lo, hi, n)
        else:
            lo = k_max / 2.0
            grid = lo + (d - lo) * np.arange(1, 201) / 200.0
        try:
            rows = predict.phase_plot(k_min, k_max, d, grid)
        except ValueError as e:
            raise UsageError(str(e)) from None
        out = args.out or f"phase_k{k_min}_{k_max}_d{d}.csv"
        _atomic_write(out, predict.format_phase_table(rows))
        svg_path = os.path.splitext(out)[0] + ".svg"
        _atomic_write(svg_path, phase_svg(rows))
        print(f"wrote {out} and {svg_path} ({len(rows)} grid points)")
        return EXIT_OK
    if args.gasket:
        g = load_group(args.gasket)
        cloud = _sample_cloud(g, args)
        out = args.out or f"{g.name or 'group'}_limit.svg"
        _atomic_write(out, scatter_svg(cloud))
        print(f"wrote {out} ({len(cloud.coords)} points)")
        return EXIT_OK
    raise UsageError("plot needs --phase K_MIN K_MAX D or --gasket CONFIG")


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_float(text: str) -> float:
    """Argument type for scales and budgets: a number above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """Argument type for element budgets: an integer above zero."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


# one definition per flag; each subcommand registers the flags it reads
_FLAGS = {
    "--config": dict(help="builtin name or JSON config path"),
    "--out": dict(help="output file path"),
    "--seed": dict(type=int, default=0, help="RNG seed (default 0)"),
    "--budget-words": dict(type=_positive_int, help="orbit enumeration element budget"),
    "--budget-dist": dict(type=_positive_float, help="orbit enumeration distance budget"),
    "--resolution": dict(type=_positive_float, help="target sampling resolution"),
    "--scales": dict(help="R_MIN:R_MAX:COUNT, the estimator's radii or plot's delta grid"),
    "--tolerance": dict(
        action="append",
        metavar="NAME=VAL",
        help="override a verification tolerance (repeatable)",
    ),
    "--method": dict(help="estimator: box (default), assouad or lower"),
}
# the orbit budgets and target resolution of a sampled limit set
_BUDGETS = ("--budget-words", "--budget-dist", "--resolution")


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kleindim",
        description=__doc__.split("\n\n")[0],
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("generate", help="sample a limit set into a cloud file")
    p.add_argument("config_pos", nargs="?", metavar="CONFIG")
    _add_flags(p, "--config", "--out", *_BUDGETS)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("dimension", help="run one estimator on a saved cloud")
    p.add_argument("cloud", metavar="CLOUD")
    _add_flags(p, "--seed", "--scales", "--method")
    p.set_defaults(func=cmd_dimension)

    p = sub.add_parser("verify", help="compare estimates against the formulas")
    p.add_argument("config_pos", nargs="?", metavar="CONFIG")
    _add_flags(p, "--config", "--out", "--seed", *_BUDGETS, "--tolerance")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("plot", help="phase tables/SVG or limit-set scatter SVG")
    p.add_argument("--phase", nargs=3, metavar=("K_MIN", "K_MAX", "D"))
    p.add_argument("--gasket", metavar="CONFIG")
    _add_flags(p, "--out", *_BUDGETS, "--scales")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as e:  # a failed stage raises ValueError: exit 2
        print(f"error: {e}", file=sys.stderr)
        return EXIT_COMPUTE
