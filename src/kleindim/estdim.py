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
caller reads one cloud with: the sets share the sampled centres, and a
(radius, ratio) that two sets share is counted once.
``assouad_dimension`` and ``lower_dimension`` are one-set readers of
it.  Each set comes back as arrays over (centre, radius)
(:class:`Windows`): counts and exponents fitted for all windows at
once.  The array fit may round apart from scipy's in the last bit, so
it only picks the candidates: every window within ``EXTREME_SLACK`` of
the array extreme is fitted again exactly, and the repr of its witness
breaks ties.

The count of a window B(x, R) at scale r = R / q is the number of
occupied r-cells whose closed squares meet the closed ball, the fewest
over the grid offsets of ``covering_count``.  Each such cell holds a
point within R + sqrt(2) r of x, and each point of the ball lies in
one, so the count lies between ``covering_count`` on the points of
B(x, R) and on those of B(x, R + sqrt(2) r).  The larger ball lies in
B(x, (1 + sqrt(2) / q) R), and balls of radius R and of a fixed
multiple of R define the same Assouad and lower dimensions (Fraser,
*Assouad Dimension and Fractal Geometry*, 2020).

The offsets depend on the scale alone, so every (radius, ratio,
offset) grid sorts the cell keys of the whole cloud once
(:func:`_grid_keys`, :func:`_dense_labels`), and every centre reads
its count off them at once, one key range a grid row
(:func:`_meeting_columns`).  The ball reaches ``MEET_MARGIN`` R past
R, so no rounding drops the cell of a point the ball's own test
admits.  A d = 1 cloud is a single grid row of the same code.

The package's fixed-radius pair searches, the horoball family's overlap
scan and its deepest-member lookups, are one pair join
(:func:`_grid_pairs`): the points are sorted once by their
:func:`_grid_keys` cells (:func:`_sorted_grid`), each query reads the key
ranges of its block of cells, one range a row, and :func:`_block_pairs`
expands the ranges into candidate pairs in bounded runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, Optional, Sequence

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
# a pair join (see _grid_pairs) searches this many key ranges at a time
# and forms about this many candidate pairs at a time, which bounds its
# memory; its grid spans at most 2^GRID_SPAN_BITS cells a side, and
# takes the cells of JOIN_RANGES points at a time
JOIN_RANGES = 1 << 14
JOIN_PAIRS = 1 << 17
GRID_SPAN_BITS = 30
# a window's ball reaches this share of its radius past it, so that
# rounding never drops the cell of a point that the ball's own test
# admits while the coordinates stay within about 10^6 R of the origin
MEET_MARGIN = 1e-9
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


class _Grid(NamedTuple):
    """Points sorted by their cells in a grid of side ``side`` whose cell
    (0, 0) holds ``origin``, the points' lowest coordinates: their cell
    keys by :func:`_grid_keys`, rows of ``width`` cells, in increasing
    order, their int32 indices in the input and their coordinates, as
    two rows, in that order."""

    origin: np.ndarray
    side: float
    width: int
    key: np.ndarray
    order: np.ndarray
    xy: np.ndarray


def _sorted_grid(plane: np.ndarray, side: float) -> _Grid:
    """The points, the columns of ``plane``, sorted by their cells in a
    grid of side ``side``, or coarser: at most 2^``GRID_SPAN_BITS``
    cells a side, so that the keys pack.

    The columns are sorted in place, a row at a time, and ``plane``
    becomes the grid's ``xy``.  The cells are computed ``JOIN_RANGES``
    points at a time and the keys sorted in place, so that besides
    ``plane`` the build holds at most two int64 arrays of one per point,
    then the sorted keys, the int32 order and one row."""
    origin = plane.min(axis=1, keepdims=True)
    extent = float((plane.max(axis=1) - origin[:, 0]).max())
    side = max(side, extent * 2.0**-GRID_SPAN_BITS)
    n = plane.shape[1]
    c0, c1 = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    for a in range(0, n, JOIN_RANGES):
        c0[a : a + JOIN_RANGES], c1[a : a + JOIN_RANGES] = _grid_cells(
            plane[:, a : a + JOIN_RANGES] - origin, side
        )
    key, width = _grid_keys(c0, c1)
    del c0, c1
    order = np.argsort(key)
    key.sort()  # the values of key[order], with no second array
    order = order.astype(np.int32)
    for row in plane:
        row[:] = row[order]
    return _Grid(origin, side, width, key, order, plane)


def _reach(grid: _Grid, radius: float) -> int:
    """The cells m a query's block reaches either side of its own cell
    in ``grid`` to hold every point within ``radius`` of the query,
    with a margin for the rounding of the cells."""
    return math.ceil(radius / grid.side * (1.0 + 1e-6))


def _grid_pairs(grid: _Grid, radius: float, qxy: Optional[np.ndarray] = None):
    """The package's one fixed-radius pair join: candidate pairs of query
    points with the points of ``grid``, among them every pair within
    ``radius``.

    Each query point, a column of ``qxy``, meets the points of the block
    of (2m + 1)^2 cells around its own (m by :func:`_reach`), clipped to
    the grid's rows and columns, so that no block wraps onto the next
    row.  With ``qxy`` None the grid's own points query, each meeting
    only the points after it in key order: the rest of its cell and of
    its row's part of the block, then the block's rows below, so that
    each unordered pair of them comes once.  The queries go
    ``JOIN_RANGES`` key ranges at a time to :func:`_block_pairs`, whose
    (a, b, q, at, d2) are yielded with a and b counted over all queries
    and ``at`` the grid's position of each pair's point.  Queries sorted
    by their cells search the keys fastest."""
    key, width = grid.key, grid.width
    n_rows = int(key[-1]) // width + 1
    m = _reach(grid, radius)
    half = qxy is None
    # the block's rows that can meet the grid, from its first one there
    span = np.arange(min(m if half else 2 * m + 1, n_rows))[:, None]
    n = len(key) if half else qxy.shape[1]
    step = max(JOIN_RANGES // (len(span) + half), 1)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        if half:
            pts = grid.xy[:, lo:hi]
            c0, c1 = np.divmod(key[lo:hi], width)
            first = c0 + 1
        else:
            pts = qxy[:, lo:hi]
            c = pts - grid.origin
            c /= grid.side
            np.floor(c, out=c)
            # far off the grid, a query's block stays off it
            np.maximum(c, -m - 1.0, out=c)
            np.minimum(c, [[n_rows + m], [width + m]], out=c)
            c0, c1 = c.astype(np.int64)
            first = np.maximum(c0 - m, 0)
        stop = np.minimum(c0 + m + 1, n_rows)
        rows = first + span
        rows *= width
        start = rows + np.maximum(c1 - m, 0)
        end = rows + np.minimum(c1 + m + 1, width)
        np.copyto(end, start, where=rows >= stop * width)
        # one row of the block at a time, sorted queries' keys rise
        start, end = key.searchsorted(start), key.searchsorted(end)
        if half:
            own = key.searchsorted(c0 * width + np.minimum(c1 + m + 1, width))
            start = np.vstack([np.arange(lo + 1, hi + 1), start])
            end = np.vstack([own, end])
        for a, b, q, at, d2 in _block_pairs(pts, grid.xy, start.T, end.T):
            yield lo + a, lo + b, q, at, d2


def _block_pairs(qxy: np.ndarray, xy: np.ndarray, start: np.ndarray, end: np.ndarray):
    """Candidate pairs of the query points ``qxy`` (two rows) with the
    points of the position ranges [start, end) of ``xy`` in their rows.
    Yields (a, b, q, at, d2) for consecutive runs of queries a:b, of
    about ``JOIN_PAIRS`` pairs, every pair of a query in one run: each
    pair's query index in the run, its point's position in ``xy`` and
    its squared distance, summed in coordinate order as cKDTree sums
    it."""
    lens = end - start
    counts = lens.sum(axis=1)
    cum = np.cumsum(counts)
    if not len(cum):
        return
    bounds = np.searchsorted(cum, np.arange(0, int(cum[-1]), JOIN_PAIRS), "right")
    bounds = sorted(set(bounds.tolist() + [len(cum)]))
    for a, b in zip(bounds[:-1], bounds[1:]):
        run = lens[a:b].ravel()
        stop = np.cumsum(run)
        at = np.repeat(start[a:b].ravel() - stop + run, run)
        at += np.arange(len(at))
        q = np.repeat(np.arange(b - a, dtype=np.int32), counts[a:b])
        d2 = (qxy[0][a:b][q] - xy[0][at]) ** 2
        d2 += (qxy[1][a:b][q] - xy[1][at]) ** 2
        yield a, b, q, at, d2


def _grid_offsets(r: float, d: int) -> list:
    """The grid offsets tried at scale r for a d-dimensional cloud, as
    offsets of its :func:`_plane`: zero, then deterministic uniform
    shifts, so they depend on r and d alone."""
    rng = np.random.default_rng(12345)
    return [
        np.zeros(2) if i == 0 else np.append(np.zeros(2 - d), rng.uniform(0.0, r, d))
        for i in range(GRID_OFFSETS)
    ]


def _dense_labels(keys: np.ndarray) -> tuple:
    """(distinct, below) of the non-negative int64 cell ``keys``: the
    number of distinct keys, and a function that maps an array of keys
    to the number of distinct keys below each, a key's dense label.

    A span of at most ``DENSE_SPAN`` keys per point is ranked through an
    occupancy mask and its running sum; a wider one, by sorting.  Both
    give the same ranks."""
    span = int(keys.max()) + 1
    if span > DENSE_SPAN * len(keys):
        occupied = np.unique(keys)
        return len(occupied), partial(np.searchsorted, occupied)
    mask = np.zeros(span, dtype=bool)
    mask[keys] = True
    below = np.zeros(span + 1, dtype=np.int32)
    np.cumsum(mask, dtype=np.int32, out=below[1:])
    # clipped, a key past the span has every occupied key below it
    return int(below[-1]), partial(below.take, mode="clip")


def covering_count(coords: np.ndarray, r: float) -> int:
    """Number of r-grid cells hit, minimized over a few grid offsets.

    The minimum over offsets removes the worst of the grid alignment
    noise while staying a genuine covering count at scale r.
    """
    if len(coords) == 0:
        return 0
    plane = _plane(coords)
    return min(
        _dense_labels(_grid_keys(*_grid_cells(plane - off[:, None], r))[0])[0]
        for off in _grid_offsets(r, coords.shape[1])
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


def _meeting_columns(du, u1, rho2):
    """(lo, hi), the columns of the grid cells in one row whose closed
    squares meet a closed ball.  Units are cells; the ball has squared
    radius ``rho2`` about (u0, u1), and ``du`` is the row's index less
    u0.  A row that the ball misses has lo > hi.

    This one evaluation decides which cells meet a window's ball."""
    # from u0 to the row's nearest edge; 0 in the row that holds u0
    gap = np.maximum(np.maximum(du, -1.0 - du), 0.0)
    left = rho2 - gap * gap
    half = np.sqrt(np.maximum(left, 0.0))
    lo = np.ceil(u1 - half) - 1.0
    return lo, np.where(left >= 0.0, np.floor(u1 + half), lo - 1.0)


def _grid_meeting_counts(plane, centers, R, q, offset):
    """Per centre x, a row of ``centers``, the number of occupied cells of
    one grid, side r = R / q shifted by ``offset``, whose closed squares
    meet the ball B(x, R (1 + ``MEET_MARGIN``)).  The points are the
    columns of ``plane``.

    Every centre reads the grid's sorted cell keys at once, one range of
    :func:`_meeting_columns` a row."""
    r = R / q
    cells = _grid_cells(plane - offset[:, None], r)
    low = cells.min(axis=1)
    nrows = int(cells[0].max() - low[0]) + 1
    keys, width = _grid_keys(*cells)
    if not width:  # rows and columns are read off packed keys
        raise ValueError(f"a grid of side {r:g} has too many cells for 64-bit keys")
    below = _dense_labels(keys)[1]
    u = (centers - offset) / r - low
    rho = q * (1.0 + MEET_MARGIN)
    # a ball meets no row more than this many rows from its centre's
    reach = math.ceil(q) + 2
    span = min(2 * reach + 1, nrows)
    near_rows = np.clip(np.floor(u[:, :1]) - reach, 0, nrows - span) + np.arange(span)
    lo, hi = _meeting_columns(near_rows - u[:, :1], u[:, 1:], rho * rho)
    lo, hi = np.maximum(lo, 0), np.minimum(hi, width - 1)
    start = near_rows.astype(np.int64) * width
    hits = below(start + hi.astype(np.int64) + 1) - below(start + lo.astype(np.int64))
    return np.where(lo <= hi, hits, 0).sum(axis=1)


def _window_counts(cloud: PointCloud, centers: np.ndarray, pairs: list) -> np.ndarray:
    """``counts[c, k]``, the count of the window at centre c and the k-th
    (R, q) of ``pairs``: the occupied (R / q)-cells whose closed squares
    meet the closed ball B(x, R), fewest over the offsets of
    ``covering_count``.  The sweep holds one grid at a time."""
    plane = _plane(cloud.coords)
    plane_centers = _plane(centers).T
    counts = np.empty((len(centers), len(pairs)), dtype=np.int64)
    for k, (R, q) in enumerate(pairs):
        grids = [
            _grid_meeting_counts(plane, plane_centers, R, q, off)
            for off in _grid_offsets(R / q, cloud.d)
        ]
        counts[:, k] = np.min(grids, axis=0)
    return counts


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

    ``counts[c, i, j]`` is the window count of B(centers[c], radii[i])
    at scale r = radii[i] / ratios[j]: the occupied r-cells whose closed
    squares meet the closed ball (see the module docstring), and
    ``slopes[c, i]`` the window's exponent as fitted for every window at
    once.  A set without a window to read holds the reason in ``error``
    and no arrays.
    """

    cloud: PointCloud
    ratios: tuple = ()
    radii: tuple = ()
    centers: Optional[np.ndarray] = None
    counts: Optional[np.ndarray] = None
    slopes: Optional[np.ndarray] = None
    error: str = ""

    def window(self, c: int, i: int) -> tuple:
        """(exponent, witness) of the window at centre c and radius i,
        the exponent fitted as scipy's ``linregress`` fits it; the
        witness's ``ball_points`` counts the points of the ball."""
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
        d2 = _sq_dists(self.cloud.coords.T, self.centers[c])
        witness["ball_points"] = int(np.count_nonzero(d2 <= R * R))
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
    from its counts at the inner scales r = R/q over the set's ratios
    q, each the number of occupied r-cells that meet the ball B(x, R)
    (see the module docstring).  One ratio gives the plain quotient
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
    ``n_centers`` points.  One sweep serves all sets: a (radius, ratio)
    that several sets share is counted once, and each grid is built
    once for every centre.  Only the extremes' candidate windows count
    the points of their balls, for the witness.
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
    counts = _window_counts(cloud, centers, pairs)
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

