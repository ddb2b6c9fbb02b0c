"""Empirical conformal measures on the limit set and scaling diagnostics.

The conformal (Patterson-Sullivan type) measure of a discrete group is
approximated by weighting every enumerated orbit point g(o) with
exp(-s d(o, g(o))) for the exponent s = (1 + S_MARGIN) delta just above
the critical exponent, normalizing, and placing each weight at the
boundary projection of g(o).  The weak limit s -> delta is replaced by
that fixed margin.  The measure's declared resolution reads the median
distance from an atom to its eighth-nearest other atom over a strided
sample of the atoms, each solved exactly on grids in numpy
(``_kth_neighbour_median``).

The second half of the module is the measure-formula machinery: the
escape depth rho(z, t) and cusp rank k(z, t) of geodesic ray points
relative to a disjoint horoball family, the model ball-mass value
exp(-t delta - rho (delta - k)), mass-ratio regularity exponents,
local dimensions, horoball counting sums, squeezed-shadow mass checks,
and the deep-excursion witness construction used to exhibit the
upper-regularity behaviour near a cusp.

All Euclidean ball masses are planar halfspace-model masses; groups
whose limit set is unbounded should be conjugated into a bounded chart
first (see ``group.bounded_model``).  Every point the module reads, the
centre of a ball, the endpoint of a ray or the centre of a horoball
sum, is a finite point of that chart (``_point_coords``).  Every ball
mass comes from the one kernel ``_ball_masses``: per centre, the window
sweep's membership test ``estdim._sq_dists`` over the one run of atoms
that can reach its largest ball, and each radius's mass summed over the
members in atom-index order.  No index list outlives its centre, so
memory stays O(atoms) however many centres a sweep reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import hypgeom as hg
from .estdim import _block_pairs, _farthest_point_sample, _grid_cells, _grid_keys
from .estdim import _linear_fit, _plane, _sq_dists, poincare_exponent
from .group import (
    Cusp,
    GroupPresentation,
    HoroballFamily,
    OrbitData,
    _planar_coords,
    enumerate_orbit,  # noqa: F401
)

# ``perfbench/op.py --trace 1`` wraps ``enumerate_orbit`` and
# ``poincare_exponent`` as attributes of this module, so both names stay
# bound here although nothing in the module calls ``enumerate_orbit``

# atoms are aggregated on a grid this many times finer than the
# declared reliable scale
ATOM_GRID_FACTOR = 16.0
# relative margin of the weighting exponent above the fitted critical
# exponent
S_MARGIN = 0.05
# smallest admissible mass-ratio scale separation R/r
MIN_RATIO = 8.0
# squeezing factors of the shadow mass check
SQUEEZE_THETAS = (1.0, 0.5, 0.25, 0.125)
# the declared resolution of a measure reads the distance from each atom
# to its KNN_K-th nearest atom, itself included
KNN_K = 9
# the k-th neighbour median (see _kth_neighbour_median) solves about this
# many sampled atoms
KNN_SAMPLE = 2048
# the (row, column) offsets of a cell's 3x3 block
_BLOCK = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]).T


class MeasureScaleError(ValueError):
    """A requested scale lies below what the measure resolves reliably:
    under its resolution, or where every ball of a window holds the same
    mass."""


# ---------------------------------------------------------------------------
# empirical measures
# ---------------------------------------------------------------------------


@dataclass
class EmpiricalMeasure:
    """Finitely many weighted atoms approximating a boundary measure.

    ``coords`` holds one planar halfspace-model position per atom (one
    column for d = 1, two for d = 2) and ``weights`` the corresponding
    masses, positive with total 1.  ``resolution`` is the finest scale
    at which ball masses are trusted; queries below it see individual
    atoms instead of the measure.  ``provenance`` records the exponent
    and orbit budget that produced the measure.
    """

    coords: np.ndarray
    weights: np.ndarray
    d: int
    resolution: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.coords = np.atleast_2d(np.asarray(self.coords, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float).ravel()
        if self.d not in (1, 2):
            raise ValueError("boundary dimension must be 1 or 2")
        if self.coords.shape[1] != self.d:
            raise ValueError(
                f"d={self.d} measure needs {self.d} coordinate columns, "
                f"got {self.coords.shape[1]}"
            )
        if len(self.weights) != len(self.coords):
            raise ValueError("one weight per atom required")
        if len(self.weights) == 0:
            raise ValueError("a measure needs at least one atom")
        if not np.all(self.weights > 0):
            raise ValueError("atom weights must be positive")
        if not (self.resolution > 0):
            raise ValueError("resolution must be positive")
        total = float(self.weights.sum())
        self.weights = self.weights / total
        if not abs(float(self.weights.sum()) - 1.0) <= 1e-12:
            raise ValueError("atom weights do not normalise to 1")

    @property
    def n(self) -> int:
        return len(self.weights)

    def extent(self) -> float:
        span = self.coords.max(axis=0) - self.coords.min(axis=0)
        return float(np.linalg.norm(span))

    @cached_property
    def _x_runs(self) -> tuple:
        """The running maximum of the atoms' first coordinates from the
        front and their running minimum, filled in place, from the back."""
        x = self.coords[:, 0]
        run_min = np.empty_like(x)
        np.fmin.accumulate(x[::-1], out=run_min[::-1])
        return np.fmax.accumulate(x), run_min


def _aggregate_atoms(coords: np.ndarray, weights: np.ndarray, cell: float):
    """Merge atoms sharing a grid cell into their centre of mass, by real
    cell, then imaginary cell with non-negative ones first: the atoms a
    ball reaches form one short run (``_ball_masses``), and ``verify``
    draws its typical atom by index, so the order must not change."""
    c0, c1 = _grid_cells(_plane(coords), cell)
    if coords.shape[1] == 2:
        c1[c1 < 0] += int(c1.max()) - int(c1.min()) + 1
    keys = _grid_keys(c0, c1)[0]
    inverse = np.unique(keys, return_inverse=True)[1]
    w = np.bincount(inverse, weights=weights)
    merged = np.column_stack([np.bincount(inverse, weights=weights * c) for c in coords.T])
    return merged / w[:, None], w


def _spread_bits(v: np.ndarray) -> np.ndarray:
    """The low 31 bits of each int64 moved to its even bits: one
    coordinate's share of a Morton key."""
    v = v & 0x7FFFFFFF
    for shift, mask in (
        (16, 0x0000FFFF0000FFFF),
        (8, 0x00FF00FF00FF00FF),
        (4, 0x0F0F0F0F0F0F0F0F),
        (2, 0x3333333333333333),
        (1, 0x5555555555555555),
    ):
        v = (v | (v << shift)) & mask
    return v


def _kth_smallest(q: np.ndarray, d2: np.ndarray, k: int) -> tuple:
    """(queries, values): the k-th smallest of each query's ``d2`` values,
    for the queries of the sorted ``q``, each with k values or more."""
    order = np.lexsort((d2, q))
    q = q[order]
    first = np.flatnonzero(np.diff(q, prepend=-1))
    return q[first], d2[order[first + k - 1]]


def _exact_kth_sq(plane: np.ndarray, rows: np.ndarray, k: int, fine: float) -> np.ndarray:
    """The squared distances from the points ``rows`` of ``plane``
    (columns of :func:`estdim._plane` coordinates, at least k) to their
    k-th nearest points, themselves included, in increasing order.

    The points are sorted once by the Morton key of their cell in a grid
    of side ``fine``, where every cell of a coarser level l, of side
    fine 2^l, is one run of keys.  Each query climbs the levels until k
    points of its 3x3 block of level-l cells lie within fine 2^l, less a
    margin for the rounding of the cells: every point that near lies in
    the block, so the k-th smallest of those distances is exact.  A grid
    2^24 times finer than the points' span resolves every query by
    level 25.  The climb needs Morton keys, not the row-major ones of
    ``estdim._grid_keys``: each coarser cell must be one run of keys."""
    low = plane.min(axis=1, keepdims=True)
    ij = np.floor((plane - low) / fine).astype(np.int64)
    key = _spread_bits(ij[0]) | (_spread_bits(ij[1]) << 1)
    order = np.argsort(key)
    key, ij, xy = key[order], ij[:, order], plane[:, order]
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    del order

    def blocks(pos, level):
        shift = level[:, None]
        a = (ij[0][pos][:, None] >> shift) + _BLOCK[0]
        b = (ij[1][pos][:, None] >> shift) + _BLOCK[1]
        first = ((_spread_bits(a) | (_spread_bits(b) << 1)) << (2 * shift)).T
        # one offset at a time, the keys of queries in key order mostly rise
        start = np.searchsorted(key, first).T
        end = np.searchsorted(key, first + (1 << (2 * shift)).T).T
        # no cell lies before the grid's first row or column
        np.copyto(end, start, where=(a < 0) | (b < 0))
        return start, end

    pos = np.sort(rank[rows])
    # start one level below the lowest whose cell holds k points that
    # are neighbours in key order: the keys of the first and last of k
    # such points differ in no bit above that level's
    first = np.clip(pos[:, None] - np.arange(k), 0, len(key) - k)
    bits = np.frexp((key[first] ^ key[first + k - 1]).astype(float))[1]
    level = np.maximum((bits.min(axis=1) + 1) // 2 - 1, 0).astype(np.int64)
    del first, bits
    kth = np.empty(len(pos))
    todo = np.arange(len(pos))
    while len(todo):
        start, end = blocks(pos[todo], level[todo])
        short = []
        for a, b, q, _, d2 in _block_pairs(xy[:, pos[todo]], xy, start, end):
            side = np.ldexp(fine * (1.0 - 1e-6), level[todo[a:b]])
            near = d2 <= (side * side)[q]
            q, d2 = q[near], d2[near]
            enough = np.bincount(q, minlength=b - a) >= k
            near = enough[q]
            done, values = _kth_smallest(q[near], d2[near], k)
            kth[todo[a + done]] = values
            short.append(a + np.flatnonzero(~enough))
        todo = todo[np.concatenate(short)]
        level[todo] += 1
    kth.sort()
    return kth


def _kth_neighbour_median(coords: np.ndarray, k: int) -> float:
    """Median over sampled points of the distance to the k-th nearest
    point, itself included: ``np.median(cKDTree(coords).query(
    coords[rows], k)[0][:, -1])`` bit for bit.  ``rows`` is every point
    up to ``2 KNN_SAMPLE`` points, and above that every (n //
    KNN_SAMPLE)-th one, about ``KNN_SAMPLE`` to ``2 KNN_SAMPLE`` of them.
    Fewer than k points, or a non-finite coordinate, raise
    ``ValueError``.

    The sampled rows are solved exactly against every point
    (:func:`_exact_kth_sq`).  Distances are compared squared, summed in
    coordinate order as cKDTree sums them, and rooted last."""
    plane = _plane(coords)
    n = plane.shape[1]
    if n < k or not np.isfinite(plane).all():
        raise ValueError(f"a k-th neighbour median needs {k} or more finite points")
    extent = float((plane.max(axis=1) - plane.min(axis=1)).max())
    # the finest grid of the climb, so that keys fit 64 bits
    fine = extent * 2.0**-24 if extent > 0 else 1.0
    stride = n // KNN_SAMPLE if n > 2 * KNN_SAMPLE else 1
    return float(np.median(np.sqrt(_exact_kth_sq(plane, np.arange(0, n, stride), k, fine))))


def patterson_measure(
    group: GroupPresentation,
    orbit: OrbitData,
    *,
    band: float,
    delta_hat: Optional[float] = None,
) -> EmpiricalMeasure:
    """Weight the orbit's projections by exp(-s * orbit distance) and
    normalize, with s = (1 + S_MARGIN) * delta_hat.

    ``delta_hat`` is the orbit's fitted critical exponent when the
    caller already has it (``Pipeline.fit``); without it the exponent
    is fitted here, and an orbit too shallow to fit raises that fit's
    ``ValueError``.

    ``band`` restricts the budget to orbit points within that distance of
    the completeness horizon before weighting; ``math.inf`` keeps the
    whole orbit.  A full finite orbit over-weights coarse scales relative
    to the converged measure, because every ball is missing exactly the
    atoms beyond the horizon and the missing fraction grows with the
    ball; reading ball masses off a fixed deep band removes that drift at
    the cost of a grainier measure.  An orbit with no finite projection,
    or a band that keeps none, raises ``ValueError``.
    """
    if delta_hat is None:
        delta_hat = float(poincare_exponent(orbit).value)
    s = delta_hat * (1.0 + S_MARGIN)

    proj, finite = orbit.boundary_projections()
    if not finite.any():
        raise ValueError("the orbit has no finite boundary projection to weight")
    if not (band > 0):
        raise ValueError("band must be positive")
    keep = finite & (orbit.dists >= orbit.t_valid - float(band))
    raw = np.exp(-s * (orbit.dists - float(orbit.dists.min())))
    wts = raw[keep]
    coords = _planar_coords(proj[keep], group.d)
    # the whole orbit's projections and weights go before the atoms merge
    del proj, finite, keep, raw
    if len(wts) == 0:
        raise ValueError("the band excluded every atom; widen it")

    resolution = max(2.0 * math.exp(-orbit.t_valid), 1e-14)
    provenance = {
        "group": group.name,
        "s": s,
        "delta_hat": delta_hat,
        "n_orbit": orbit.n,
        "n_dropped": orbit.n - len(wts),
        "band": band,
        "t_valid": orbit.t_valid,
        "orbit_truncated": orbit.truncated,
    }

    coords, weights = _aggregate_atoms(coords, wts, resolution / ATOM_GRID_FACTOR)
    del wts
    if len(coords) >= 16:
        # ball masses are only smooth above the atom spacing, so the
        # declared reliable scale is the typical distance to the 8th
        # nearest atom, not the finer set-sampling resolution
        resolution = max(resolution, 2.0 * _kth_neighbour_median(coords, KNN_K))
    return EmpiricalMeasure(
        coords=coords,
        weights=weights,
        d=group.d,
        resolution=resolution,
        provenance=provenance,
    )


def _point_coords(z, d: int) -> np.ndarray:
    """The d coordinates of a finite boundary point, given as a
    :class:`~kleindim.hypgeom.BoundaryPoint`, a complex number (real for
    d = 1) or a sequence of floats.

    Infinity, any other coordinate count and a non-finite coordinate
    raise ValueError: ball masses, rays and horoball sums live in the
    bounded chart (``group.bounded_model``).
    """
    if isinstance(z, hg.BoundaryPoint):
        if z.is_infinity:
            raise ValueError(
                "the point at infinity is outside the bounded chart; "
                "conjugate the group with group.bounded_model first"
            )
        z = z.coords
    elif isinstance(z, complex):
        z = [z.real] if d == 1 and z.imag == 0.0 else [z.real, z.imag]
    row = np.asarray(z, dtype=float).ravel()
    if len(row) != d or not np.isfinite(row).all():
        raise ValueError(
            f"a point of the bounded chart needs {d} finite coordinates, got {row.tolist()}"
        )
    return row


def ball_mass(measure: EmpiricalMeasure, x, r: float) -> float:
    """Total weight within Euclidean distance r of the centre."""
    if not (r > 0):
        raise ValueError("radius must be positive")
    row = _point_coords(x, measure.d)
    return float(_ball_masses(measure, row[None, :], [r])[0, 0])


def _ball_masses(measure: EmpiricalMeasure, centers: np.ndarray, radii) -> np.ndarray:
    """Masses of the closed balls B(c, r), one row per centre c and one
    column per radius r (one row of radii, or one row per centre).  Each
    centre reads the run of atoms outside which every atom lies farther
    than its largest radius in the first coordinate, and sums the
    members' weights in atom-index order: the sum over a sorted
    ``query_ball_point`` index list, bit for bit."""
    radii = np.asarray(radii, dtype=float)
    radii = np.broadcast_to(radii, (len(centers), radii.shape[-1]))
    sq_radii, masses = radii**2, np.zeros(radii.shape)
    x, r = centers[:, 0], radii.max(axis=1, initial=0.0)
    # the widening dwarfs the rounding of x - x_c and of the run's ends
    pad = r + 1e-9 * (r + np.abs(x))
    starts = np.searchsorted(measure._x_runs[0], x - pad).tolist()
    ends = np.searchsorted(measure._x_runs[1], x + pad, "right").tolist()
    for i, (center, a, b) in enumerate(zip(centers, starts, ends)):
        d2 = _sq_dists(measure.coords[a:b].T, center)
        near = np.flatnonzero(d2 <= r[i] * r[i])
        d2, weights = d2[near], measure.weights[a:b][near]
        for j, sq in enumerate(sq_radii[i]):
            masses[i, j] = weights[d2 <= sq].sum()
    return masses


# ---------------------------------------------------------------------------
# global measure formula
# ---------------------------------------------------------------------------


@dataclass
class GMFContext:
    """Everything the measure formula needs: delta and the horoballs.
    Rays start at the height-1 point above 0.

    The standing geometric fact delta > k/2 for every cusp rank k is
    enforced at construction; a fitted delta violating it is estimator
    error and has no meaningful formula semantics.
    """

    delta: float
    family: HoroballFamily

    def __post_init__(self) -> None:
        if not (self.delta > 0):
            raise ValueError("delta must be positive")
        for k in np.unique(self.family.ranks).tolist():
            if k > 0 and not (self.delta > k / 2.0):
                raise ValueError(
                    f"delta={self.delta} violates delta > k/2 for cusp rank {k}"
                )


def _ray_ranks_depths(ctx: GMFContext, z: np.ndarray, t: np.ndarray):
    """Cusp rank and escape depth of the ray points z_t, as in
    :func:`k_and_rho`, for arrays of boundary points and distances."""
    w, h = hg.geodesic_points(z, t, ctx.family.d)
    depth, rank = ctx.family.deepest(w, h)
    inside = depth > 0.0
    return np.where(inside, rank, 0), np.where(inside, depth, 0.0)


def k_and_rho(ctx: GMFContext, z, t: float) -> tuple[int, float]:
    """Cusp rank and escape depth of the ray point z_t.

    z_t is the point at distance t from the height-1 point above 0 along
    the geodesic ray toward z.  Inside a family horoball the pair is
    (member rank, distance to the member's boundary); outside every
    member it is (0, 0).  Disjointness makes the member unambiguous.
    """
    if not (t > 0):
        raise ValueError("t must be positive")
    zc = complex(*_point_coords(z, ctx.family.d))
    k, rho = _ray_ranks_depths(ctx, np.array([zc]), np.array([float(t)]))
    return int(k[0]), float(rho[0])


def gmf_value(ctx: GMFContext, z, t: float) -> float:
    """The model ball mass exp(-t delta - rho (delta - k)) at (z, t).

    With an empty family (parabolic-free group) this reduces to the
    Ahlfors-David regular form exp(-t delta).
    """
    k, rho = k_and_rho(ctx, z, t)
    return math.exp(-float(t) * ctx.delta - rho * (ctx.delta - k))


@dataclass(frozen=True)
class GMFReport:
    """Drift diagnostics of log(empirical mass / formula value).

    ``slope`` is the regression slope against t: a value near zero means
    the formula tracks the empirical masses with no exponential drift,
    which is the strongest statement available while the two-sided
    constants stay untracked.
    """

    slope: float
    spread: float
    rows: tuple
    n_zero_mass: int


def gmf_drift(
    ctx: GMFContext,
    measure: EmpiricalMeasure,
    n_samples: int = 200,
    t_range: tuple[float, float] = (2.0, 6.0),
    seed: int = 0,
) -> GMFReport:
    """Compare empirical ball masses against the formula on random (z, t).

    Centres are atoms drawn with probability proportional to their mass
    (typical points of the measure); t is uniform on the window.  Rows
    record (z, t, k, rho, mass, formula value, log ratio).
    """
    rng = np.random.default_rng(seed)
    idx = rng.choice(measure.n, size=n_samples, p=measure.weights)
    ts = rng.uniform(t_range[0], t_range[1], size=n_samples)
    masses = _ball_masses(measure, measure.coords[idx], [[math.exp(-t)] for t in ts])[:, 0]
    used = masses > 0.0
    centers = measure.coords[idx[used]]
    zs = centers[:, 0] + 1j * (centers[:, 1] if measure.d == 2 else 0.0)
    ks, rhos = _ray_ranks_depths(ctx, zs, ts[used])
    rows = []
    for z, t, k, rho, mass in zip(*(a.tolist() for a in (zs, ts[used], ks, rhos, masses[used]))):
        g = math.exp(-t * ctx.delta - rho * (ctx.delta - k))
        rows.append((z, t, k, rho, mass, g, math.log(mass / g)))
    if len(rows) < 8:
        raise ValueError("too few usable samples; enlarge the measure budget")
    logr = np.array([row[6] for row in rows])
    return GMFReport(
        slope=_linear_fit(ts[used], logr)[0],
        spread=float(logr.max() - logr.min()),
        rows=tuple(rows),
        n_zero_mass=int((~used).sum()),
    )


# ---------------------------------------------------------------------------
# regularity exponents of the measure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityEstimate:
    """Extremal mass-ratio exponent with its witnessing ball pair."""

    value: float
    direction: str
    witness: dict
    window: dict


def regularity_exponents(
    measure: EmpiricalMeasure,
    *,
    radii: Sequence[float],
    ratios: Sequence[float] = (8.0, 64.0),
    n_centers: int = 256,
    extra_centers: Optional[np.ndarray] = None,
    min_atoms: int = 32,
    seed: int = 0,
) -> tuple[RegularityEstimate, RegularityEstimate]:
    """Extremal exponents of mass ratios of concentric balls.

    Sweeping centres (a farthest-point sample of the atoms plus any
    supplied extra centres, typically detected parabolic points) and
    scale pairs (R, R/ratio) over the outer ``radii``, the upper estimate
    is the largest observed log(mass ratio) / log(scale ratio) and the
    lower estimate the smallest; ties go to the first scale pair, then
    the first centre.  Scales below the measure's reliable resolution
    are refused; scale ratios must be at least 8 so the exponent is read
    over a genuine scale separation; the inner ball must hold at least
    ``min_atoms`` atoms' worth of mass, since the extremes of a sweep
    are exactly where sampling graininess shows up first.
    """
    if measure.n < 16:
        raise ValueError("measure has fewer than 16 atoms; enlarge the budget")
    for ratio in ratios:
        if ratio < MIN_RATIO:
            raise ValueError(f"scale ratio {ratio} is below the minimum {MIN_RATIO}")
    min_mass = min(float(min_atoms), measure.n / 4.0) / measure.n
    floor = measure.resolution
    centers_idx = _farthest_point_sample(measure.coords, n_centers, seed)
    centers = measure.coords[centers_idx]
    if extra_centers is not None:
        extra = np.atleast_2d(np.asarray(extra_centers, dtype=float))
        centers = np.vstack([centers, extra]) if len(centers) else extra
    if len(centers) == 0:
        raise ValueError("no centres to sweep; raise n_centers or pass extras")

    # every scale pair (R, R/ratio) above the floor, all scales read in
    # one pass per centre; one row of slopes per pair, NaN where the
    # inner ball is too light
    pairs = [
        (R, ratio, R / float(ratio))
        for R in map(float, radii)
        if R >= floor
        for ratio in ratios
        if R / float(ratio) >= floor
    ]
    scales = sorted({R for R, _, _ in pairs} | {r for _, _, r in pairs})
    masses = _ball_masses(measure, centers, scales)
    mass_R = masses[:, [scales.index(R) for R, _, _ in pairs]].T
    mass_r = masses[:, [scales.index(r) for _, _, r in pairs]].T
    log_q = np.array([math.log(ratio) for _, ratio, _ in pairs])
    ok = (mass_r >= min_mass) & (mass_R > 0.0)
    if not ok.any():
        raise MeasureScaleError(
            "no admissible scale pair above the measure's reliable resolution"
        )
    slopes = np.full(ok.shape, np.nan)
    slopes[ok] = np.log(mass_R[ok] / mass_r[ok]) / log_q[np.nonzero(ok)[0]]
    window = {
        "radii": [float(R) for R in radii],
        "ratios": [float(x) for x in ratios],
        "floor": floor,
        "n_pairs": int(ok.sum()),
    }

    def estimate(flat: int, direction: str) -> RegularityEstimate:
        i, j = divmod(flat, len(centers))
        R, _, r = pairs[i]
        witness = {
            "center": centers[j].tolist(),
            "R": R,
            "r": r,
            "mass_R": float(mass_R[i, j]),
            "mass_r": float(mass_r[i, j]),
        }
        return RegularityEstimate(float(slopes[i, j]), direction, witness, window)

    return (
        estimate(int(np.nanargmax(slopes)), "upper"),
        estimate(int(np.nanargmin(slopes)), "lower"),
    )


# ---------------------------------------------------------------------------
# local dimensions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalDimension:
    """Running-slope summary of log mass over a window of scales.

    Iterating yields (lower, upper); ``slope`` is the least-squares
    slope over the whole window, the stablest single-number reading.
    """

    lower: float
    upper: float
    slope: float
    ts: tuple
    log_masses: tuple

    def __iter__(self):
        yield self.lower
        yield self.upper


def local_dimension(
    measure: EmpiricalMeasure,
    z,
    t_window: tuple[float, float] = (2.0, 6.0),
    n_steps: int = 13,
) -> LocalDimension:
    """Local scaling exponents of the measure at z.

    Ball masses are read at radii e^-t for t on a uniform grid over the
    window; the returned pair is the (min, max) of the slopes between
    consecutive grid points.  Zero mass at the largest scale means z is
    too far from the support for the window and is an error; zero mass
    at finer scales truncates the window (recorded by the grid length).
    Equal masses in every ball of the (truncated) window carry no slope
    and raise MeasureScaleError.
    """
    t0, t1 = float(t_window[0]), float(t_window[1])
    if not (0 < t0 < t1):
        raise ValueError("need 0 < t_min < t_max")
    row = _point_coords(z, measure.d)
    if math.exp(-t1) < measure.resolution:
        raise MeasureScaleError(
            f"window reaches e^-{t1:.3g} below the reliable resolution "
            f"{measure.resolution:.3g}"
        )
    ts = np.linspace(t0, t1, n_steps)
    masses = _ball_masses(measure, row[None, :], [math.exp(-t) for t in ts])[0]
    if masses[0] <= 0.0:
        raise ValueError("zero mass at the largest window scale")
    keep = masses > 0.0
    cut = int(np.argmin(keep)) if not keep.all() else len(ts)
    ts = ts[:cut]
    masses = masses[:cut]
    if len(ts) < 3:
        raise ValueError("fewer than 3 usable scales in the window")
    if (masses == masses[0]).all():
        raise MeasureScaleError(
            f"flat mass profile: all {len(ts)} balls of the window hold the "
            "same mass, so the measure is too thin there for a slope"
        )
    logm = np.log(masses)
    run = (logm[:-1] - logm[1:]) / np.diff(ts)
    return LocalDimension(
        lower=float(run.min()),
        upper=float(run.max()),
        slope=-_linear_fit(ts, logm)[0],
        ts=tuple(float(t) for t in ts),
        log_masses=tuple(float(v) for v in logm),
    )


# ---------------------------------------------------------------------------
# horoball counting and squeezing
# ---------------------------------------------------------------------------


def horoball_sum(ctx: GMFContext, z, t: float, T: float) -> float:
    """Sum of |H|^delta over family members based near z with mid sizes.

    Counts members whose base lies in B(z, e^-t) and whose diameter lies
    in [e^-T, e^-t); for a conformal density of exponent delta this sum
    is bounded by a multiple of (T - t) times the mass of B(z, e^-t).
    """
    if not (T > t > 0):
        raise ValueError("need T > t > 0")
    zc = complex(*_point_coords(z, ctx.family.d))
    hi = math.exp(-float(t))
    lo = math.exp(-float(T))
    sel = (
        (np.abs(ctx.family.bases - zc) <= hi)
        & (ctx.family.sizes >= lo)
        & (ctx.family.sizes < hi)
    )
    if not sel.any():
        return 0.0
    return float((ctx.family.sizes[sel] ** ctx.delta).sum())


@dataclass(frozen=True)
class SqueezeRow:
    theta: float
    shadow_radius: float
    mass: float
    predicted: float

    @property
    def ratio(self) -> float:
        return self.mass / self.predicted


def squeeze_mass_check(
    ctx: GMFContext,
    measure: EmpiricalMeasure,
    H: hg.Horoball,
) -> list[SqueezeRow]:
    """Empirical shadow masses of squeezed horoballs against the model.

    For each squeezing factor theta in ``SQUEEZE_THETAS`` the shadow of
    theta H is projected from the height-1 point above 0 and its mass
    compared with theta^(2 delta - k) |H|^delta.  The ratios are only
    meaningful up to the untracked two-sided constant, so consumers look
    at their spread and at the slope of log mass against log theta.
    """
    rows = []
    for theta in SQUEEZE_THETAS:
        sh = hg.shadow(hg.squeeze(H, theta))
        if sh.radius < measure.resolution:
            raise MeasureScaleError(
                f"shadow radius {sh.radius:.3g} at theta={theta} is below "
                f"the reliable resolution {measure.resolution:.3g}"
            )
        mass = ball_mass(measure, sh.center, sh.radius)
        predicted = theta ** (2.0 * ctx.delta - H.rank) * H.size**ctx.delta
        rows.append(
            SqueezeRow(
                theta=theta,
                shadow_radius=float(sh.radius),
                mass=mass,
                predicted=float(predicted),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# deep-excursion witness
# ---------------------------------------------------------------------------


def ureg_witness(
    group: GroupPresentation,
    cusp: Cusp,
    n: int,
    family: HoroballFamily,
) -> tuple[hg.BoundaryPoint, float, float]:
    """A limit point with a long horoball excursion near the cusp.

    Pushing the family base z0 farthest from the cusp point toward it
    with the n-th power of the cusp's parabolic yields z = f^n(z0).  T is
    the exit time from the cusp's horoball of the ray toward z from the
    height-1 point above 0.  The earlier time t is fixed by the
    classical picture: u is the point of the horoball boundary (in the
    plane spanned by the cusp point, z, and the exit point) at hyperbolic
    distance 1 from the exit point on the far side from the cusp, and
    z_t is the ray point directly above u once the cusp is rotated to
    infinity.  By construction the escape depth at (z, t) is at least
    T - t - 1, which is what makes the pair a mass-ratio witness: both
    scales see essentially the cusp's rank.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    d = group.d
    p = hg._hs_boundary(cusp.point)

    i = int(family.members_at([p])[0])
    if i == len(family.sizes):
        raise ValueError("the family has no horoball at the cusp point")
    H_p = hg.Horoball(cusp.point, float(family.sizes[i]), int(family.ranks[i]))

    far = int(np.argmax(np.abs(family.bases - p)))
    z0 = complex(family.bases[far])
    if abs(z0 - p) < 1e-8:
        raise ValueError("no limit point away from the cusp is available")

    fn = hg.MobiusMap(np.linalg.matrix_power(cusp.generator.matrix, n))
    z = hg._apply_boundary_mat(fn.matrix, z0)
    if z is None:
        raise ValueError("f^n maps the farthest family base to infinity")
    zb = hg._boundary_from_hs(z, d)

    times = hg.horoball_crossing_times(zb, H_p)
    if times is None:
        raise ValueError("the ray toward f^n(z0) misses the horoball; increase n")
    T = float(times[1])
    if not math.isfinite(T):
        raise ValueError("z equals the cusp point; the ray never exits")

    # rotate the cusp to infinity: the horoball becomes a height plane
    M = hg._mobius_to_infinity(p)
    # M's denominator c w + d is exactly 0 at the horosphere's top point
    eta = H_p.size / (H_p.size * H_p.size)
    ob = hg.apply(M, hg.origin(d))
    wo, ho = hg._hs_interior(ob)
    zc = hg._hs_boundary(hg.apply(M, zb))
    if zc is None:
        raise ValueError("z coincides with the cusp point; increase n is futile")

    # the base, z, the exit point and the cusp are coplanar, so after the
    # rotation everything lives in the vertical plane over one line
    axis = zc - wo
    axis_len = abs(axis)
    if axis_len < 1e-13:
        raise ValueError("degenerate configuration: z sits under the base")
    e = axis / axis_len
    zT = hg.apply(M, hg.geodesic_point(zb, T))
    wT, hT = hg._hs_interior(zT)
    xi_T = ((wT - wo) / e).real

    # semicircle carrying the ray in (xi, h) coordinates
    xi_z = axis_len
    xi_c = (xi_z * xi_z - ho * ho) / (2.0 * xi_z)
    rad = math.hypot(xi_c, ho)

    # boundary-circle point at hyperbolic distance 1 from the exit point,
    # on whichever side is farther from the cusp in the original chart
    lam = 2.0 * eta * math.sinh(0.5)
    Minv = M.inverse()
    candidates = []
    for xi_u in (xi_T - lam, xi_T + lam):
        wu = wo + xi_u * e
        coords = (wu.real, eta) if d == 1 else (wu.real, wu.imag, eta)
        back = hg.apply(Minv, hg.InteriorPoint(coords))
        wb, hb = hg._hs_interior(back)
        candidates.append((math.hypot(abs(wb - p), hb), xi_u))
    xi_u = max(candidates)[1]

    under = rad * rad - (xi_u - xi_c) ** 2
    if under <= 0:
        raise ValueError("the normal foot misses the ray; increase n")
    h_t = math.sqrt(under)
    if h_t <= eta:
        raise ValueError("the normal foot lies outside the horoball; increase n")
    wu = wo + xi_u * e
    coords = (wu.real, h_t) if d == 1 else (wu.real, wu.imag, h_t)
    zt = hg.InteriorPoint(coords)
    t = hg.hyp_distance(ob, zt)
    return zb, float(t), T
