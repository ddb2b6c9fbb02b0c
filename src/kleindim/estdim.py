"""Dimension estimators for finite point clouds.

A :class:`PointCloud` is a finite sample of a bounded set together with
the resolution it was produced at; every estimator refuses to look below
twice that resolution, since structure there is sampling artefact.

Estimators return a :class:`DimensionEstimate` carrying the headline
value, the raw (unclamped) fit, and enough diagnostics to judge the fit
quality: scales, counts, regression stderr, and for the extremal
estimators the witness ball achieving the extreme.

Box dimension is a least-squares slope of log-covering counts.  Assouad
and lower dimensions are extrema of local covering exponents over
sampled windows (a centre x and an outer radius R).  With a single
ratio the window exponent is the two-scale quotient
log N_r(B(x, R)) / log(R / r); with several ratios it is the
least-squares slope of log N against log(R / r) across the inner
scales, which cancels the window's multiplicative constant (a ball
that is nearly full at one scale no longer reads as inflated
dimension).

The window sweep computes each ball's covering counts without sorting
the ball.  The grid offsets of ``covering_count`` depend on the scale
alone, so every (radius, ratio, offset) grid labels the cells of the
whole cloud once; a ball's count is then the number of distinct labels
among its points, found by one scatter and one gather.  The points of
a centre's largest ball are sorted by squared distance once, and each
smaller ball is a prefix of that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.stats import linregress

# estimators ignore scales below this multiple of the sampling resolution
MIN_SCALE_FACTOR = 2.0
# number of deterministic grid offsets tried per covering count
GRID_OFFSETS = 3


@dataclass
class PointCloud:
    """Finite sample of a boundary set.

    ``coords`` has one row per point: d columns of planar coordinates in
    the halfspace model.  ``resolution`` is the scale down to which the
    sample is trusted to resolve the underlying set.
    """

    coords: np.ndarray
    d: int
    resolution: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.coords = np.atleast_2d(np.asarray(self.coords, dtype=float))
        if self.d not in (1, 2):
            raise ValueError("boundary dimension must be 1 or 2")
        if self.coords.shape[1] != self.d:
            raise ValueError(
                f"cloud with d={self.d} needs {self.d} columns, "
                f"got {self.coords.shape[1]}"
            )
        if not (self.resolution > 0):
            raise ValueError("resolution must be positive")

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    def extent(self) -> float:
        """Bounding box diagonal, an upper bound for the diameter."""
        if self.n == 0:
            return 0.0
        span = self.coords.max(axis=0) - self.coords.min(axis=0)
        return float(np.linalg.norm(span))


@dataclass(frozen=True)
class DimensionEstimate:
    value: float
    method: str
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __float__(self) -> float:
        return self.value


# ---------------------------------------------------------------------------
# covering counts
# ---------------------------------------------------------------------------


def _cell_ids(coords: np.ndarray, r: float, offset: np.ndarray) -> np.ndarray:
    cells = np.floor((coords - offset) / r).astype(np.int64)
    k = cells.shape[1]
    if k == 1:
        return cells[:, 0]
    lo = cells.min(axis=0)
    cells = cells - lo  # nonnegative, keeps the packing collision free
    if k == 2 and cells.max() < 2**31:
        return (cells[:, 0] << 32) | cells[:, 1]
    if k == 3 and cells.max() < 2**20:
        return (cells[:, 0] << 42) | (cells[:, 1] << 21) | cells[:, 2]
    # fallback: exact row dedup
    rows = np.ascontiguousarray(cells)
    return np.unique(rows, axis=0, return_inverse=True)[1]


def _grid_offsets(r: float, k: int, offsets: int = GRID_OFFSETS) -> list:
    """The grid offsets tried at scale r in k columns: zero, then
    deterministic uniform shifts, so they depend on r and k alone."""
    rng = np.random.default_rng(12345)
    return [
        np.zeros(k) if i == 0 else rng.uniform(0.0, r, k) for i in range(max(1, offsets))
    ]


def covering_count(coords: np.ndarray, r: float, offsets: int = GRID_OFFSETS) -> int:
    """Number of r-grid cells hit, minimized over a few grid offsets.

    The minimum over offsets removes the worst of the grid alignment
    noise while staying a genuine covering count at scale r.
    """
    if len(coords) == 0:
        return 0
    return min(
        len(np.unique(_cell_ids(coords, r, off)))
        for off in _grid_offsets(r, coords.shape[1], offsets)
    )


def _scale_window(cloud: PointCloud, scales: Optional[Sequence[float]], n_scales: int):
    floor = MIN_SCALE_FACTOR * cloud.resolution
    if scales is not None:
        arr = np.asarray(sorted(set(float(s) for s in scales), reverse=True))
        arr = arr[arr >= floor]
        return arr
    top = cloud.extent() / 4.0
    if top <= floor:
        return np.asarray([max(top, floor)])
    return np.geomspace(top, floor, n_scales)


# ---------------------------------------------------------------------------
# box dimension
# ---------------------------------------------------------------------------


def _trivial_estimate(method: str) -> DimensionEstimate:
    """A one-point set has every dimension equal to zero."""
    return DimensionEstimate(
        value=0.0, method=method, diagnostics={"trivial": True}
    )


def box_dimension(
    cloud: PointCloud,
    scales: Optional[Sequence[float]] = None,
    n_scales: int = 12,
) -> DimensionEstimate:
    """Upper box dimension estimate from a log-log covering count fit."""
    if len(cloud.coords) < 2:
        return _trivial_estimate("box")
    rs = _scale_window(cloud, scales, n_scales)
    if len(rs) < 4:
        raise ValueError(
            "need at least 4 usable scales above twice the resolution; "
            f"got {len(rs)} (resolution {cloud.resolution:g})"
        )
    counts = np.array([covering_count(cloud.coords, float(r)) for r in rs])
    fit = linregress(np.log(1.0 / rs), np.log(counts))
    value = float(np.clip(fit.slope, 0.0, cloud.d))
    return DimensionEstimate(
        value=value,
        method="box",
        diagnostics={
            "slope_raw": float(fit.slope),
            "stderr": float(fit.stderr),
            "r2": float(fit.rvalue**2),
            "scales": rs.tolist(),
            "counts": counts.tolist(),
        },
    )


# ---------------------------------------------------------------------------
# Assouad and lower dimensions
# ---------------------------------------------------------------------------


def _sq_dists(cols: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared distances from ``center`` to the points whose coordinates
    are the rows of ``cols``, summed in coordinate order: the rounding of
    np.linalg.norm and of cKDTree's ball membership test."""
    d2 = (cols[0] - center[0]) ** 2
    for col, x in zip(cols[1:], center[1:]):
        d2 += (col - x) ** 2
    return d2


def _farthest_point_sample(coords: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Indices of a k-point farthest-point subsample (2-approx net)."""
    n = len(coords)
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    rng = np.random.default_rng(seed)
    if n > 50_000:
        pool = rng.choice(n, size=50_000, replace=False)
    else:
        pool = np.arange(n)
    cols = np.ascontiguousarray(coords[pool].T)
    k = min(k, len(pool))
    chosen = [int(rng.integers(len(pool)))]
    dist = np.sqrt(_sq_dists(cols, cols[:, chosen[0]]))
    for _ in range(k - 1):
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        np.minimum(dist, np.sqrt(_sq_dists(cols, cols[:, nxt])), out=dist)
    return pool[np.asarray(chosen)]


def _window_slopes(
    cloud: PointCloud,
    radii: Optional[Sequence[float]],
    ratios: Sequence[float],
    n_centers: int,
    seed: int,
):
    """All (slope, witness) pairs of local covering exponents.

    A window is a centre x with an outer radius R; its exponent comes
    from the covering counts of B(x, R) at the inner scales r = R/q
    over the requested ratios q.  One ratio gives the plain quotient
    log N / log(R/r).  Several ratios give the least-squares slope of
    log N against log(R/r), so the window's multiplicative constant
    drops out instead of polluting the exponent by log C / log q.

    A window only contributes when every requested inner scale sits
    above the resolution floor; mixing windows fitted over different
    scale sets would make the extrema incomparable.

    The counts equal ``covering_count`` on each ball's points; the
    module docstring says how they are computed without it.
    """
    coords = cloud.coords
    floor = MIN_SCALE_FACTOR * cloud.resolution
    ratios = sorted(float(q) for q in ratios)
    if not ratios or ratios[0] <= 1.0:
        raise ValueError("every ratio must exceed 1")
    if len(ratios) > 1 and ratios[0] == ratios[-1]:
        raise ValueError("several ratios must not all be equal")
    if radii is None:
        top = cloud.extent() / 4.0
        lo = floor * ratios[-1]
        if top <= lo:
            radii = [top]
        else:
            radii = np.geomspace(top, lo, 8)
    radii = [float(R) for R in radii]
    radii = [R for R in radii if R / ratios[-1] >= floor * (1.0 - 1e-9)]
    centers = coords[_farthest_point_sample(coords, n_centers, seed)]
    if not radii or len(centers) == 0:
        raise ValueError(
            "no sample window resolves every requested ratio above twice "
            "the resolution; supply coarser radii or smaller ratios"
        )
    # per radius, per ratio, per grid offset: a dense cell label per point
    grids = {
        R: [
            [
                np.unique(_cell_ids(coords, R / q, off), return_inverse=True)[1]
                for off in _grid_offsets(R / q, coords.shape[1])
            ]
            for q in ratios
        ]
        for R in radii
    }
    stamp = np.empty(len(coords), dtype=np.intp)
    steps = np.arange(len(coords))

    def distinct(labels: np.ndarray) -> int:
        # exactly one write to each label survives, whatever order the
        # repeated writes land in, so the survivors count the labels
        stamp[labels] = steps[: len(labels)]
        return int(np.count_nonzero(stamp[labels] == steps[: len(labels)]))

    cols = np.ascontiguousarray(coords.T)
    log_q = np.log(ratios)
    sq_radii = np.array([R * R for R in radii])
    windows = [[] for _ in radii]
    for center in centers:
        d2 = _sq_dists(cols, center)
        near = np.flatnonzero(d2 <= sq_radii.max())
        order = np.argsort(d2[near])
        near = near[order]
        # every ball holds its centre, so no prefix is empty
        ends = np.searchsorted(d2[near], sq_radii, side="right")
        for R, m, out in zip(radii, ends.tolist(), windows):
            ball = near[:m]
            counts = [
                min(distinct(labels[ball]) for labels in per_offset)
                for per_offset in grids[R]
            ]
            scales = [R / q for q in ratios]
            if len(ratios) == 1:
                slope = math.log(counts[0]) / log_q[0]
                witness = {
                    "center": center.tolist(),
                    "R": R,
                    "r": scales[0],
                    "count": counts[0],
                    "ball_points": m,
                }
            else:
                slope = _lstsq_slope(log_q, np.log(counts))
                witness = {
                    "center": center.tolist(),
                    "R": R,
                    "scales": scales,
                    "counts": counts,
                    "ball_points": m,
                }
            out.append((slope, witness))
    return [w for out in windows for w in out]


def _lstsq_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y on x, rounded exactly as scipy's
    ``linregress`` rounds it: mean cross product over mean square."""
    n = len(x)
    xc = x - np.mean(x)
    yc = y - np.mean(y)
    return float((np.dot(xc, yc) * (1.0 / n)) / (np.dot(xc, xc) * (1.0 / n)))


def assouad_dimension(
    cloud: PointCloud,
    radii: Optional[Sequence[float]] = None,
    ratios: Sequence[float] = (8.0, 64.0),
    n_centers: int = 512,
    seed: int = 0,
) -> DimensionEstimate:
    """Assouad dimension estimate: worst-case local covering exponent."""
    if len(cloud.coords) < 2:
        return _trivial_estimate("assouad")
    slopes = _window_slopes(cloud, radii, ratios, n_centers, seed)
    slopes.sort(key=lambda t: (-t[0], repr(t[1])))
    best, witness = slopes[0]
    return DimensionEstimate(
        value=float(np.clip(best, 0.0, cloud.d)),
        method="assouad",
        diagnostics={"slope_raw": best, "witness": witness, "n_samples": len(slopes)},
    )


def lower_dimension(
    cloud: PointCloud,
    radii: Optional[Sequence[float]] = None,
    ratios: Sequence[float] = (8.0, 64.0),
    n_centers: int = 512,
    seed: int = 0,
) -> DimensionEstimate:
    """Lower dimension estimate: best-case (thinnest) local covering exponent."""
    if len(cloud.coords) < 2:
        return _trivial_estimate("lower")
    slopes = _window_slopes(cloud, radii, ratios, n_centers, seed)
    slopes.sort(key=lambda t: (t[0], repr(t[1])))
    best, witness = slopes[0]
    return DimensionEstimate(
        value=float(np.clip(best, 0.0, cloud.d)),
        method="lower",
        diagnostics={"slope_raw": best, "witness": witness, "n_samples": len(slopes)},
    )


# ---------------------------------------------------------------------------
# orbital growth exponent
# ---------------------------------------------------------------------------


def poincare_exponent(
    dists,
    t_valid: Optional[float] = None,
    window: float = 3.5,
) -> DimensionEstimate:
    """Critical exponent estimate from orbit point distances.

    ``dists`` is either an array of d(o, g o) values or an object with
    ``dists`` and ``t_valid`` attributes (an enumerated orbit).  The
    headline value is the least-squares slope of log N(t) over the last
    ``window`` units before the completeness horizon; an independent
    annulus-sum estimate is reported in the diagnostics together with
    the disagreement between the two.
    """
    if hasattr(dists, "dists"):
        if t_valid is None:
            t_valid = getattr(dists, "t_valid", None)
        dists = dists.dists
    dd = np.sort(np.asarray(dists, dtype=float))
    if t_valid is None:
        t_valid = float(dd[-1])
    t_hi = min(float(t_valid), float(dd[-1]))
    t_lo = max(t_hi - window, float(dd[0]) + 0.5)
    if t_hi - t_lo < 1.0:
        raise ValueError("orbit too shallow to fit a growth rate")
    ts = np.linspace(t_lo, t_hi, 25)
    counts = np.searchsorted(dd, ts, side="right")
    if counts[0] < 2:
        raise ValueError("orbit too sparse in the fit window")
    fit = linregress(ts, np.log(counts))
    cumulative = float(fit.slope)

    annulus = _annulus_exponent(dd, t_hi)
    disagreement = abs(cumulative - annulus) if not math.isnan(annulus) else math.nan
    return DimensionEstimate(
        value=cumulative,
        method="poincare",
        diagnostics={
            "stderr": float(fit.stderr),
            "annulus": annulus,
            "disagreement": disagreement,
            "window": (t_lo, t_hi),
            "n_points": int(counts[-1]),
        },
    )


def _annulus_exponent(sorted_dists: np.ndarray, t_hi: float) -> float:
    """Exponent s at which the partial sums over unit annuli stop growing."""
    n_hi = int(math.floor(t_hi))
    n_lo = max(0, n_hi - 5)
    if n_hi - n_lo < 3:
        return math.nan
    edges = np.arange(n_lo, n_hi + 1, dtype=float)
    idx = np.searchsorted(sorted_dists, edges, side="right")
    if np.any(np.diff(idx) == 0):
        return math.nan

    centers = []
    for i in range(len(edges) - 1):
        centers.append(sorted_dists[idx[i] : idx[i + 1]])

    def annulus_slope(s: float) -> float:
        logs = [math.log(np.exp(-s * c).sum()) for c in centers]
        ns = edges[:-1] + 0.5
        return float(linregress(ns, logs).slope)

    lo, hi = 0.0, 5.0
    # annulus sums grow like e^{(delta - s) n}: bisect the flat point
    f_lo = annulus_slope(lo)
    if f_lo <= 0:
        return 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if annulus_slope(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
