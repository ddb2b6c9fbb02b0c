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

One window sweep (:func:`window_sweep`) serves every ratio set that a
caller reads one cloud with: the sets share the sampled centres, each
centre's distances are computed and sorted once, and a (radius, ratio)
that two sets share is counted once.  ``assouad_dimension`` and
``lower_dimension`` are one-set readers of it.  Each set comes back as
arrays over (centre, radius) (:class:`Windows`): covering counts, ball
populations and exponents fitted for all windows at once.  The array
fit may round apart from scipy's in the last bit, so it only picks the
candidates: every window within ``EXTREME_SLACK`` of the array extreme
is fitted again exactly, and the repr of its witness breaks ties.

The sweep computes each ball's covering counts from the ball's shell,
not from all its points.  The grid offsets of ``covering_count``
depend on the scale alone, so every (radius, ratio, offset) grid labels
the cells of the whole cloud once, with the ranks of its cell keys
(:func:`_grid_keys`) that ``covering_count`` counts.  For a ball B(x, R)
and a grid of side r, a count splits into two parts:

* the occupied cells wholly inside the ball, counted once per grid and
  centre from the grid's sorted cell keys, row by row;
* the other cells among the points of the shell, the ball's points
  farther than R - sqrt(2) r from x: distinct labels found by one
  scatter and one gather, less those of inner cells.

A cell has diameter sqrt(2) r, so a point nearer x than R - sqrt(2) r
lies in an inner cell, and every point of a cell that is not inner
lies in the shell.  The split is exact, so every count, slope and
witness equals that of ``covering_count`` on the ball's points:

* one evaluation of one formula decides whether a cell is inner in both
  parts, so rounding cannot put a cell in both or in neither;
* the inner test runs 1e-9 R inside the ball and the shell starts
  1e-6 R early, so neither rounds a point to the wrong side while the
  coordinates stay within about 10^6 R of the origin.

The points of a centre's largest ball are sorted by squared distance
once; each smaller ball is a prefix of that order and each shell a
slice of it.  A grid keeps its labels in the narrowest unsigned dtype
that holds them, and a shell's labels are offset into one shared
numbering as they are gathered.  A d = 1 cloud is a single grid row of
the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

# estimators ignore scales below this multiple of the sampling resolution
MIN_SCALE_FACTOR = 2.0
# number of deterministic grid offsets tried per covering count
GRID_OFFSETS = 3
# scales of the box-dimension fit when none are given
BOX_SCALES = 12
# distance window below the completeness horizon of the growth fit
GROWTH_WINDOW = 3.5
# the growth fit errors when its stderr exceeds this share of the slope
GROWTH_MAX_REL_STDERR = 0.1
# a grid whose key span holds at most this many keys per point ranks its
# cells through an occupancy mask, five bytes a key, rather than by a
# sort of its points; the finest grids of the distance-9.5 gasket sample
# span 21 keys a point and sort, the coarser ones take the mask
DENSE_SPAN = 16
# window slopes within this of the array extreme are fitted again one by
# one, since the array fit may round apart from it in the last bit
EXTREME_SLACK = 1e-12
# why a window set reads nothing when no radius or centre is left
_UNRESOLVED = (
    "no sample window resolves every requested ratio above twice the "
    "resolution; supply coarser radii or smaller ratios"
)


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


def _plane(coords: np.ndarray) -> np.ndarray:
    """The points' coordinates as the two rows of a contiguous array; a
    d = 1 cloud gets a zero first row, so its cells form one grid row."""
    cols = np.ascontiguousarray(coords.T, dtype=float)
    if len(cols) not in (1, 2):
        raise ValueError(f"points need 1 or 2 coordinates, not {len(cols)}")
    if len(cols) == 1:
        cols = np.concatenate([np.zeros_like(cols), cols])
    return cols


def _grid_cells(plane: np.ndarray, r: float) -> np.ndarray:
    """The int64 indices floor(plane / r) of the r-grid cells holding the
    points, the columns of ``plane``; ``ValueError`` past 2^62 in size."""
    cells = plane / r
    np.floor(cells, out=cells)
    if not -(2.0**62) < cells.min() <= cells.max() < 2.0**62:
        raise ValueError(f"a grid of side {r:g} has too many cells for 64-bit keys")
    return cells.astype(np.int64)


def _grid_keys(c0: np.ndarray, c1: np.ndarray) -> tuple:
    """(keys, width): the package's one rule for keying grid cells.

    Each cell-index pair (c0[i], c1[i]), within 2^62 of zero, gets one
    exact int64 key, equal exactly where the pairs are and sorting as they
    do by (c0, c1).  Below 2^62 cells (the spans max - min + 1 of c0 and
    c1 multiplied) a key packs as (c0 - min c0) width + c1 - min c1,
    written over ``c0``, width being the span of c1; a wider grid ranks,
    rank0 m1 + rank1 by the dense ranks of c0 and c1 (m1 distinct c1),
    width 0."""
    if not len(c0):
        return c0, 1
    low0, low1 = int(c0.min()), int(c1.min())
    width = int(c1.max()) - low1 + 1
    if (int(c0.max()) - low0 + 1) * width < 2**62:
        c0 -= low0
        c0 *= width
        c0 += c1
        c0 -= low1
        return c0, width
    distinct1, rank1 = np.unique(c1, return_inverse=True)
    return np.unique(c0, return_inverse=True)[1] * len(distinct1) + rank1, 0


def _grid_offsets(r: float, d: int, offsets: int = GRID_OFFSETS) -> list:
    """The grid offsets tried at scale r for a d-dimensional cloud, as
    offsets of its :func:`_plane`: zero, then deterministic uniform
    shifts, so they depend on r and d alone."""
    rng = np.random.default_rng(12345)
    return [
        np.zeros(2) if i == 0 else np.append(np.zeros(2 - d), rng.uniform(0.0, r, d))
        for i in range(max(1, offsets))
    ]


def _dense_labels(keys: np.ndarray) -> tuple:
    """(occupied, labels, below) of the non-negative int64 cell ``keys``:
    the distinct keys in increasing order, each key's index among them
    (``np.unique``'s inverse), and a function that maps an array of keys
    to the number of distinct keys below each.

    A span of at most ``DENSE_SPAN`` keys per point is ranked through an
    occupancy mask and its running sum; a wider one, by sorting.  Both
    give the same ranks."""
    span = int(keys.max()) + 1
    if span > DENSE_SPAN * len(keys):
        occupied, labels = np.unique(keys, return_inverse=True)
        return occupied, labels, partial(np.searchsorted, occupied)
    mask = np.zeros(span, dtype=bool)
    mask[keys] = True
    below = np.zeros(span + 1, dtype=np.int32)
    np.cumsum(mask, dtype=np.int32, out=below[1:])
    # clipped, a key past the span has every occupied key below it
    return np.flatnonzero(mask), below[keys], partial(below.take, mode="clip")


def covering_count(coords: np.ndarray, r: float, offsets: int = GRID_OFFSETS) -> int:
    """Number of r-grid cells hit, minimized over a few grid offsets.

    The minimum over offsets removes the worst of the grid alignment
    noise while staying a genuine covering count at scale r.
    """
    if len(coords) == 0:
        return 0
    plane = _plane(coords)
    return min(
        len(_dense_labels(_grid_keys(*_grid_cells(plane - off[:, None], r))[0])[0])
        for off in _grid_offsets(r, coords.shape[1], offsets)
    )


def _scale_window(cloud: PointCloud, scales: Optional[Sequence[float]]):
    floor = MIN_SCALE_FACTOR * cloud.resolution
    if scales is not None:
        arr = np.asarray(sorted(set(float(s) for s in scales), reverse=True))
        arr = arr[arr >= floor]
        return arr
    top = cloud.extent() / 4.0
    if top <= floor:
        return np.asarray([max(top, floor)])
    return np.geomspace(top, floor, BOX_SCALES)


# ---------------------------------------------------------------------------
# box dimension
# ---------------------------------------------------------------------------


def _require_two_points(cloud: PointCloud, method: str) -> None:
    """Raise ``ValueError`` for fewer than two points: an estimate of 0
    there would pass against any prediction near 0."""
    if len(cloud.coords) < 2:
        raise ValueError(
            f"{method} dimension needs a cloud of at least 2 points; "
            f"this one has {len(cloud.coords)}"
        )


def box_dimension(
    cloud: PointCloud,
    scales: Optional[Sequence[float]] = None,
) -> DimensionEstimate:
    """Upper box dimension estimate from a log-log covering count fit.
    A cloud of fewer than two points raises ``ValueError``."""
    _require_two_points(cloud, "box")
    rs = _scale_window(cloud, scales)
    if len(rs) < 4:
        raise ValueError(
            "need at least 4 usable scales above twice the resolution; "
            f"got {len(rs)} (resolution {cloud.resolution:g})"
        )
    counts = np.array([covering_count(cloud.coords, float(r)) for r in rs])
    slope, rvalue, stderr = _linear_fit(np.log(1.0 / rs), np.log(counts))
    value = float(np.clip(slope, 0.0, cloud.d))
    return DimensionEstimate(
        value=value,
        method="box",
        diagnostics={
            "slope_raw": float(slope),
            "stderr": float(stderr),
            "r2": float(rvalue**2),
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
    np.linalg.norm and of cKDTree's ball membership test.

    ``d2 <= r * r`` on these values is the one membership test of every
    ball this package reads: the window sweep here and every ball mass
    of ``psmeasure``."""
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


def _inner_columns(du, u1, rho2):
    """(lo, hi), the columns of the grid cells in one row that lie wholly
    inside a ball: those whose far corner does.  Units are cells; the
    ball has squared radius ``rho2`` about (u0, u1), and ``du`` is the
    row's index less u0.  A row without such a cell has lo > hi.

    Both parts of a window count (see the module docstring) call this
    one evaluation, so rounding cannot put a cell in both or in neither.
    """
    half = np.sqrt(np.maximum(rho2 - np.maximum(np.abs(du), np.abs(du + 1.0)) ** 2, 0.0))
    return np.ceil(u1 - half), np.floor(u1 + half) - 1.0


def _sweep_grid(plane, centers, r, offset, rho2, reach):
    """One grid of the window sweep: side r, shifted by ``offset``.

    Returns the cell label of each point (a column of ``plane``), in the
    narrowest unsigned dtype that holds it; the row and column of each
    label; each centre's (row, column) position u0, u1 in cell units;
    and per centre, the number of occupied cells wholly inside its ball
    of squared radius ``rho2`` in cell units.  A ball meets no row more
    than ``reach`` rows from its centre's.
    """
    cells = _grid_cells(plane - offset[:, None], r)
    low = cells.min(axis=1)
    keys, width = _grid_keys(*cells)
    if not width:  # rows and columns are read off packed keys
        raise ValueError(f"a grid of side {r:g} has too many cells for 64-bit keys")
    occupied, labels, below = _dense_labels(keys)
    rows, cols = np.divmod(occupied, width)
    nrows = int(rows[-1]) + 1
    u = (centers - offset) / r - low
    span = min(2 * reach + 1, nrows)
    near_rows = np.clip(np.floor(u[:, :1]) - reach, 0, nrows - span) + np.arange(span)
    lo, hi = _inner_columns(near_rows - u[:, :1], u[:, 1:], rho2)
    lo, hi = np.maximum(lo, 0), np.minimum(hi, width - 1)
    start = near_rows.astype(np.int64) * width
    hits = below(start + hi.astype(np.int64) + 1) - below(start + lo.astype(np.int64))
    inner = np.where(lo <= hi, hits, 0).sum(axis=1)
    narrow = np.min_scalar_type(max(nrows, width))
    labels = labels.astype(np.min_scalar_type(len(occupied) - 1))
    return labels, rows.astype(narrow), cols.astype(narrow), u[:, 0], u[:, 1], inner


def _sweep_counts(cloud: PointCloud, centers: np.ndarray, pairs: list) -> tuple:
    """Covering counts of the balls B(x, R) at scale R / q for every
    centre x and every (R, q) in ``pairs``, each equal to
    ``covering_count`` on the ball's points.

    Returns (counts, radii, ball_points): ``counts[c, k]`` for centre c
    and pair k; the distinct radii, increasing; and ``ball_points[c, j]``,
    the number of points within ``radii[j]`` of centre c.

    Each (R, q) has one grid per offset of ``covering_count``, and every
    grid labels the cells of the whole cloud once.  A count is the
    number of occupied cells wholly inside the ball, counted per grid
    and centre, plus the number of other cells that hold points of the
    ball's shell; the module docstring says why that is exact.
    """
    plane = _plane(cloud.coords)
    plane_centers = _plane(centers).T
    # per pair, the (offset, point) labels local to each grid, and the
    # offset of each grid's labels among those of all grids
    tables, firsts = [], []
    cell_rows, cell_cols, u0, u1, inner, rho2 = [], [], [], [], [], []
    n_labels = 0
    for R, q in pairs:
        per_offset = []
        for off in _grid_offsets(R / q, cloud.d):
            # a whisker inside the ball: a cell found inside holds only
            # points that the ball's own test admits
            rho = R * (1.0 - 1e-9) / (R / q)
            part = _sweep_grid(plane, plane_centers, R / q, off, rho * rho, math.ceil(q) + 2)
            per_offset.append(part[0])
            firsts.append(n_labels)
            n_labels += len(part[1])
            for out, value in zip((cell_rows, cell_cols, u0, u1, inner), part[1:]):
                out.append(value)
            rho2.append(rho * rho)
        tables.append(np.stack(per_offset))
    firsts = np.array(firsts, dtype=np.intp).reshape(len(pairs), -1, 1)
    grid_of = np.repeat(
        np.arange(len(rho2), dtype=np.min_scalar_type(len(rho2) - 1)),
        [len(rows) for rows in cell_rows],
    )
    cell_rows, cell_cols = np.concatenate(cell_rows), np.concatenate(cell_cols)
    u0, u1, inner = np.column_stack(u0), np.column_stack(u1), np.column_stack(inner)
    rho2 = np.array(rho2)

    cols = plane[2 - cloud.d :]
    radii = sorted({R for R, _ in pairs})
    pair_radius = np.searchsorted(radii, [R for R, _ in pairs])
    sq_radii = np.array([R * R for R in radii])
    # a point nearer the centre than R - sqrt(2) r lies in a cell wholly
    # inside the ball; the margin keeps rounding on that side, and below
    # ratio sqrt(2) no point does
    inside = np.array([R - math.sqrt(2.0) * R / q - 1e-6 * R for R, q in pairs])
    bounds = np.concatenate([sq_radii, np.where(inside > 0.0, inside * inside, -1.0)])
    counts = np.empty((len(centers), len(pairs)), dtype=np.int64)
    ball_points = np.empty((len(centers), len(radii)), dtype=np.int64)
    stamp = np.empty(n_labels, dtype=np.int32)
    steps = np.arange(0, dtype=np.int32)
    shell = np.empty(0, dtype=np.intp)
    for c, center in enumerate(centers):
        d2 = _sq_dists(cols, center)
        near = np.flatnonzero(d2 <= sq_radii[-1])
        near_d2 = d2[near]
        order = np.argsort(near_d2)
        near = near[order]
        # every ball holds its centre, so no prefix is empty
        ends = np.searchsorted(near_d2[order], bounds, side="right")
        ball_points[c] = ends[: len(radii)]
        starts = ends[len(radii) :]
        ends = ends[pair_radius]
        sizes = firsts.shape[1] * (ends - starts)
        stops = np.cumsum(sizes).tolist()
        if stops[-1] > len(shell):
            shell = np.empty(stops[-1], dtype=np.intp)
            steps = np.arange(stops[-1], dtype=np.int32)
        # the global labels of every (radius, ratio) shell, offset by offset
        for table, first, s, e, stop, size in zip(
            tables, firsts, starts.tolist(), ends.tolist(), stops, sizes.tolist()
        ):
            if size:
                out = shell[stop - size : stop].reshape(len(first), -1)
                np.add(table.take(near[s:e], axis=1), first, out=out)
        labels = shell[: stops[-1]]
        # exactly one write to each label survives, whatever order the
        # repeated writes land in, so the survivors are the distinct cells
        stamp[labels] = steps[: len(labels)]
        cells = labels[stamp.take(labels) == steps[: len(labels)]]
        g = grid_of[cells]
        lo, hi = _inner_columns(cell_rows[cells] - u0[c, g], u1[c, g], rho2[g])
        col = cell_cols[cells]
        outer = np.bincount(g[(col < lo) | (col > hi)], minlength=len(rho2))
        counts[c] = (inner[c] + outer).reshape(len(pairs), -1).min(axis=1)
    return counts, radii, ball_points


def _window_ladder(cloud: PointCloud, radii, ratios) -> tuple:
    """(radii, ratios) of one set's windows: the ratios sorted, and the
    radii in the given order, or eight from a quarter of the extent
    down, less those whose smallest inner scale falls below the floor.
    Raises ``ValueError`` for ratios that cannot form a window and when
    no radius is left."""
    floor = MIN_SCALE_FACTOR * cloud.resolution
    ratios = sorted(float(q) for q in ratios)
    if not ratios or ratios[0] <= 1.0:
        raise ValueError("every ratio must exceed 1")
    if len(ratios) > 1 and ratios[0] == ratios[-1]:
        raise ValueError("several ratios must not all be equal")
    if radii is None:
        top = cloud.extent() / 4.0
        lo = floor * ratios[-1]
        radii = [top] if top <= lo else np.geomspace(top, lo, 8)
    radii = [float(R) for R in radii]
    radii = [R for R in radii if R / ratios[-1] >= floor * (1.0 - 1e-9)]
    if not radii:
        raise ValueError(_UNRESOLVED)
    return radii, ratios


def _array_slopes(counts: np.ndarray, ratios: Sequence[float]) -> np.ndarray:
    """The exponents of windows whose counts run along the last axis, all
    at once: within a few ulps of :meth:`Windows.window`'s exact fit."""
    log_q = np.log(ratios)
    y = np.log(counts)
    if len(ratios) == 1:
        return y[..., 0] / log_q[0]
    xc = log_q - log_q.mean()
    return (y - y.mean(axis=-1, keepdims=True)) @ xc / (xc @ xc)


@dataclass(frozen=True, eq=False)
class Windows:
    """The sample windows of one ratio set: every centre x with every
    outer radius R, read at the inner scales R / q of the set's ratios.

    ``counts[c, i, j]`` is the covering count of B(centers[c], radii[i])
    at scale radii[i] / ratios[j], ``ball_points[c, i]`` the number of
    points in that ball, and ``slopes[c, i]`` the window's exponent as
    fitted for every window at once.  A set without a window to read
    holds the reason in ``error`` and no arrays.
    """

    cloud: PointCloud
    ratios: tuple = ()
    radii: tuple = ()
    centers: Optional[np.ndarray] = None
    counts: Optional[np.ndarray] = None
    ball_points: Optional[np.ndarray] = None
    slopes: Optional[np.ndarray] = None
    error: str = ""

    def window(self, c: int, i: int) -> tuple:
        """(exponent, witness) of the window at centre c and radius i,
        the exponent fitted as scipy's ``linregress`` fits it."""
        R = self.radii[i]
        counts = self.counts[c, i].tolist()
        scales = [R / q for q in self.ratios]
        log_q = np.log(self.ratios)
        witness = {"center": self.centers[c].tolist(), "R": R}
        if len(self.ratios) == 1:
            slope = math.log(counts[0]) / log_q[0]
            witness.update(r=scales[0], count=counts[0])
        else:
            slope = _linear_fit(log_q, np.log(counts))[0]
            witness.update(scales=scales, counts=counts)
        witness["ball_points"] = int(self.ball_points[c, i])
        return slope, witness

    def extreme(self, method: str) -> DimensionEstimate:
        """The ``assouad`` estimate, the largest window exponent, or the
        ``lower`` one, the smallest; the ``repr`` of the witness breaks
        ties, and windows count radius by radius, centre by centre.

        The array exponents pick the candidates; each window within
        ``EXTREME_SLACK`` of their extreme is fitted again exactly.
        Raises ``ValueError`` for a cloud of fewer than two points and
        for a set without a window."""
        sign = {"assouad": -1.0, "lower": 1.0}[method]
        _require_two_points(self.cloud, method)
        if self.error:
            raise ValueError(self.error)
        keys = sign * self.slopes.T.ravel()
        n = len(self.centers)
        best, witness = min(
            (self.window(k % n, k // n) for k in np.flatnonzero(keys <= keys.min() + EXTREME_SLACK)),
            key=lambda t: (sign * t[0], repr(t[1])),
        )
        return DimensionEstimate(
            value=float(np.clip(best, 0.0, self.cloud.d)),
            method=method,
            diagnostics={"slope_raw": best, "witness": witness, "n_samples": keys.size},
        )


def window_sweep(
    cloud: PointCloud,
    sets: Sequence[tuple],
    n_centers: int = 512,
    seed: int = 0,
) -> list:
    """The :class:`Windows` of each (radii, ratios) set in ``sets``.

    A window is a centre x with an outer radius R; its exponent comes
    from the covering counts of B(x, R) at the inner scales r = R/q
    over the set's ratios q.  One ratio gives the plain quotient
    log N / log(R/r).  Several ratios give the least-squares slope of
    log N against log(R/r), so the window's multiplicative constant
    drops out instead of polluting the exponent by log C / log q.
    Radii None give eight from a quarter of the extent down to the
    floor times the largest ratio.

    A window only contributes when every inner scale of its set sits
    above the resolution floor; mixing windows fitted over different
    scale sets would make the extrema incomparable.  A set left without
    a window, or with ratios that form none, gets its reason in
    ``error`` while the other sets read.

    Every set reads the same centres, a farthest-point sample of
    ``n_centers`` points.  One sweep serves all sets: each centre's
    distances are computed and sorted once, and a (radius, ratio) that
    several sets share is counted once.
    """
    ladders = []
    for radii, ratios in sets:
        try:
            ladders.append(_window_ladder(cloud, radii, ratios))
        except ValueError as e:
            ladders.append(e)
    usable = [ladder for ladder in ladders if not isinstance(ladder, ValueError)]
    centers = cloud.coords[:0]
    if usable and cloud.n >= 2:
        centers = cloud.coords[_farthest_point_sample(cloud.coords, n_centers, seed)]
    if not len(centers):
        # no centre to read a window at
        errors = [str(e) if isinstance(e, ValueError) else _UNRESOLVED for e in ladders]
        return [Windows(cloud, error=error) for error in errors]
    pairs = sorted({(R, q) for radii, ratios in usable for R in radii for q in ratios})
    counts, radii_swept, ball_points = _sweep_counts(cloud, centers, pairs)
    index = {pair: k for k, pair in enumerate(pairs)}
    out = []
    for ladder in ladders:
        if isinstance(ladder, ValueError):
            out.append(Windows(cloud, error=str(ladder)))
            continue
        radii, ratios = ladder
        set_counts = counts[:, [[index[R, q] for q in ratios] for R in radii]]
        out.append(
            Windows(
                cloud,
                tuple(ratios),
                tuple(radii),
                centers,
                set_counts,
                ball_points[:, np.searchsorted(radii_swept, radii)],
                _array_slopes(set_counts, ratios),
            )
        )
    return out


def _linear_fit(x, y) -> tuple:
    """Least-squares (slope, rvalue, stderr) of y on x, computed and
    rounded step for step as scipy's ``linregress`` computes them.

    Raises ``ValueError`` for empty input or when every x is equal.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.size == 0 or y.size == 0:
        raise ValueError("Inputs must not be empty.")
    n = len(x)
    if np.amax(x) == np.amin(x) and n > 1:
        raise ValueError(
            "Cannot calculate a linear regression if all x values are identical"
        )
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.asarray(np.nan if ssxym == 0 else 0.0)[()]
    else:
        r = ssxym / np.sqrt(ssxm * ssym)
        if r > 1.0:
            r = 1.0
        elif r < -1.0:
            r = -1.0
    slope = ssxym / ssxm
    if n == 2:
        stderr = 0.0
    else:
        stderr = np.sqrt((1 - r**2) * ssym / ssxm / (n - 2))
    return float(slope), float(r), float(stderr)


def assouad_dimension(
    cloud: PointCloud,
    radii: Optional[Sequence[float]] = None,
    ratios: Sequence[float] = (8.0, 64.0),
    n_centers: int = 512,
    seed: int = 0,
) -> DimensionEstimate:
    """Assouad dimension estimate: worst-case local covering exponent
    (:func:`window_sweep`, :meth:`Windows.extreme`)."""
    return window_sweep(cloud, [(radii, ratios)], n_centers, seed)[0].extreme("assouad")


def lower_dimension(
    cloud: PointCloud,
    radii: Optional[Sequence[float]] = None,
    ratios: Sequence[float] = (8.0, 64.0),
    n_centers: int = 512,
    seed: int = 0,
) -> DimensionEstimate:
    """Lower dimension estimate: best-case (thinnest) local covering
    exponent (:func:`window_sweep`, :meth:`Windows.extreme`)."""
    return window_sweep(cloud, [(radii, ratios)], n_centers, seed)[0].extreme("lower")


# ---------------------------------------------------------------------------
# orbital growth exponent
# ---------------------------------------------------------------------------


def poincare_exponent(dists) -> DimensionEstimate:
    """Critical exponent estimate from orbit point distances.

    ``dists`` is either an array of d(o, g o) values or an object with
    ``dists`` and ``t_valid`` attributes (an enumerated orbit).  The
    value is the least-squares slope of log N(t) over the last
    ``GROWTH_WINDOW`` units before the completeness horizon ``t_valid``,
    or before the largest distance of a plain array.  A fit whose
    stderr exceeds ``GROWTH_MAX_REL_STDERR`` times its slope raises
    ``ValueError``: the orbit is too sparse in the window to fix a rate.
    """
    t_valid = getattr(dists, "t_valid", None)
    dd = np.sort(np.asarray(getattr(dists, "dists", dists), dtype=float))
    if t_valid is None:
        t_valid = float(dd[-1])
    t_hi = min(float(t_valid), float(dd[-1]))
    t_lo = max(t_hi - GROWTH_WINDOW, float(dd[0]) + 0.5)
    if t_hi - t_lo < 1.0:
        raise ValueError("orbit too shallow to fit a growth rate")
    ts = np.linspace(t_lo, t_hi, 25)
    counts = np.searchsorted(dd, ts, side="right")
    if counts[0] < 2:
        raise ValueError("orbit too sparse in the fit window")
    slope, _, stderr = _linear_fit(ts, np.log(counts))
    if stderr > GROWTH_MAX_REL_STDERR * slope:
        raise ValueError(
            f"growth fit too loose: stderr {stderr:.3g} exceeds "
            f"{GROWTH_MAX_REL_STDERR:g} of the fitted exponent {slope:.4g}; "
            "raise the distance budget"
        )
    return DimensionEstimate(
        value=slope,
        method="poincare",
        diagnostics={
            "stderr": stderr,
            "window": (t_lo, t_hi),
            "n_points": int(counts[-1]),
        },
    )

