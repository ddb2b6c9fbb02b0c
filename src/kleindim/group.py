"""Finitely generated Kleinian and Fuchsian groups.

A :class:`GroupPresentation` is a finite list of Moebius generators with a
declared boundary dimension.  The heavy lifting is orbit enumeration: a
breadth-first walk over reduced words with vectorized matrix products,
grid-canonical deduplication and a distance prune, producing the orbit of
the canonical base point together with a completeness horizon up to which
the element list is believed exhaustive.

On top of the enumeration sit parabolic/cusp detection with rank
computation, construction of a disjoint invariant horoball family (one
reference horoball per detected cusp orbit, shrunk by the dyadic factor
that makes it disjoint), and limit set sampling by radial projection.
Cusp detection and the family decide when two boundary points are the
same point by one rule, stated at :func:`_cells`, and group what is the
same by one components helper, :func:`_components`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from . import hypgeom as hg
from .estdim import PointCloud

# more than this many distinct elements within distance 1/2 of the base
# point is taken as proof of non-discreteness
NONDISCRETE_COUNT = 500
NONDISCRETE_RADIUS = 0.5
# distance slack for expanding words whose prefixes overshoot the target
DEFAULT_SLACK = 2.5
# candidate products (frontier rows times letters) per vectorized chunk
EXPAND_PRODUCTS = 200_000
# rows of a chunk multiplied at a time, so the products' temporaries
# stay in cache
PRODUCT_BLOCK = 1024
# the dyadic squeeze of a horoball family stops at theta = 2^-MAX_SHRINK_STEPS
MAX_SHRINK_STEPS = 40
# cell side of the same-point rule (see _cells) for parabolic fixed
# points, cusp references and cusp points
CUSP_CLUSTER_TOL = 1e-8
# the shortest parabolics per cluster whose translations decide a cusp's rank
RANK_SAMPLE = 32
# horoball bases sharing a cell of this side are one base, and members
# there whose sizes agree within this relative tolerance are duplicates
DEDUP_GRID = 1e-9
DEDUP_SIZE_REL_TOL = 1e-6
# buckets over the targets' real span that prefilter the points a cell
# lookup tests
CELL_BUCKETS = 1 << 16

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


class NonDiscreteError(ValueError):
    """The generators produced an implausibly dense orbit."""


class CuspDetectionError(ValueError):
    """Inconsistent parabolic data while building a horoball family."""


@dataclass(frozen=True)
class GroupPresentation:
    """Finitely many Moebius generators plus a boundary dimension.

    ``metadata`` carries optional construction facts used downstream:
    ``known_delta``, ``k_min``/``k_max`` (cusp ranks), ``gap_point`` (a
    boundary point in the complement of the limit set, for conjugating an
    unbounded limit set into a bounded chart), ``resolution_floor``,
    ``fixed_point_sampling``, ``geometrically_finite``.
    """

    generators: tuple[hg.MobiusMap, ...]
    d: int
    name: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValueError("need at least one generator")
        if self.d not in (1, 2):
            raise ValueError("boundary dimension must be 1 or 2")
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if g.is_identity:
                raise ValueError("identity is not a useful generator")
            if self.d == 1 and float(np.abs(g.matrix.imag).max()) > 1e-10:
                raise ValueError("d=1 requires real generator matrices")

    @property
    def n_generators(self) -> int:
        return len(self.generators)


def conjugated_presentation(group: GroupPresentation, q: hg.MobiusMap) -> GroupPresentation:
    """The presentation of q Gamma q^-1, with coordinate metadata dropped."""
    qi = q.inverse().matrix
    gens = tuple(
        hg.MobiusMap(q.matrix @ g.matrix @ qi, label=g.label) for g in group.generators
    )
    meta = {k: v for k, v in group.metadata.items() if k != "gap_point"}
    meta["conjugated"] = True
    d = group.d
    if d == 1 and any(float(np.abs(g.matrix.imag).max()) > 1e-10 for g in gens):
        d = 2  # a complex conjugator moves a Fuchsian group off the real line
    return GroupPresentation(gens, d, name=group.name, metadata=meta)


def bounded_model(group: GroupPresentation) -> tuple[GroupPresentation, hg.MobiusMap]:
    """Conjugate a known gap point to infinity, bounding the limit set.

    Returns the (possibly unchanged) presentation and the conjugator used.
    """
    gap = group.metadata.get("gap_point")
    if gap is None:
        return group, hg.identity_map()
    p = complex(gap)
    q = hg.MobiusMap(np.array([[0.0, -1.0], [1.0, -p]], dtype=complex))
    return conjugated_presentation(group, q), q


# ---------------------------------------------------------------------------
# vectorized canonical form and identification keys
# ---------------------------------------------------------------------------


def _canonicalize_signs(mats: np.ndarray) -> np.ndarray:
    """Vectorized PSL sign fix matching MobiusMap's canonical form, in place."""
    flat = mats.reshape(len(mats), 4)
    scale = np.abs(flat).max(axis=1)
    tol = hg.ENTRY_TOL * scale
    big = np.abs(flat) > tol[:, None]
    first = np.argmax(big, axis=1)
    v = flat[np.arange(len(flat)), first]
    use_re = np.abs(v.real) > tol
    s = np.where(use_re, np.sign(v.real), np.sign(v.imag))
    s[s == 0] = 1.0
    mats *= s[:, None, None]
    return mats


def _key_ints(mats: np.ndarray) -> np.ndarray:
    flat = mats.reshape(len(mats), 4)
    parts = np.empty((len(flat), 8))
    parts[:, 0::2] = flat.real
    parts[:, 1::2] = flat.imag
    cells = np.clip(np.round(parts / hg.MATRIX_GRID), -hg.KEY_CLAMP, hg.KEY_CLAMP)
    return cells.astype(np.int64)


def _key_hashes(mats: np.ndarray) -> np.ndarray:
    """64-bit FNV-style hash of the grid-rounded canonical entries."""
    ints = _key_ints(mats).view(np.uint64)
    h = np.full(len(ints), _FNV_OFFSET)
    for k in range(8):
        h = (h ^ ints[:, k]) * _FNV_PRIME
    return h.view(np.int64)


def _orbit_dists(mats: np.ndarray) -> np.ndarray:
    fro = (np.abs(mats) ** 2).sum(axis=(1, 2))
    return np.arccosh(np.maximum(fro / 2.0, 1.0))


# ---------------------------------------------------------------------------
# orbit enumeration
# ---------------------------------------------------------------------------


@dataclass
class OrbitData:
    """Enumerated orbit of the canonical base point.

    ``matrices`` holds one canonical unit-determinant matrix per distinct
    group element with d(o, g o) <= the requested distance; ``t_valid`` is
    the horizon up to which the listing is believed complete (equal to the
    requested distance unless a budget truncated the walk).
    """

    matrices: np.ndarray
    dists: np.ndarray
    word_lengths: np.ndarray
    t_valid: float
    truncated: bool
    d: int
    group: Optional[GroupPresentation] = None

    @property
    def n(self) -> int:
        return len(self.dists)

    def orbit_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Halfspace coordinates (w complex, h > 0) of every g(o)."""
        m = self.matrices
        a, b = m[:, 0, 0], m[:, 0, 1]
        c, dd = m[:, 1, 0], m[:, 1, 1]
        big_d = np.abs(c) ** 2 + np.abs(dd) ** 2
        w = (b * dd.conjugate() + a * c.conjugate()) / big_d
        return w, 1.0 / big_d

    def boundary_projections(self) -> tuple[np.ndarray, np.ndarray]:
        """Radial projections of the orbit points from the base point.

        Returns (projections, finite_mask); rows with finite_mask False
        project to infinity and carry no planar coordinate.
        """
        w, h = self.orbit_points()
        sep = np.abs(w)
        vertical = sep < 1e-14
        sep_safe = np.where(vertical, 1.0, sep)
        m = (sep_safe**2 + h**2 - 1.0) / (2.0 * sep_safe)
        hyp = np.hypot(m, 1.0)
        ep = np.where(m >= 0, m + hyp, 1.0 / (hyp - m))
        proj = ep * w / sep_safe
        proj[vertical] = 0.0
        finite = ~(vertical & (h >= 1.0))
        return proj, finite


def _products(chunk: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Every product ``chunk[f] @ gens[k]``, in (frontier, letter) row order.

    Bit for bit what ``np.einsum("fij,kjl->fkil", chunk, gens)`` returns,
    signed zeros, infinities and NaNs included: each entry is einsum's
    sum, from zero, of two complex products written out on the real and
    imaginary planes.  Rows are multiplied one cache-sized block at a
    time, straight into the output.
    """
    k = len(gens)
    # row j of every generator, flattened over (letter, column)
    g0r, g0i = gens.real[:, 0].reshape(1, 1, -1), gens.imag[:, 0].reshape(1, 1, -1)
    g1r, g1i = gens.real[:, 1].reshape(1, 1, -1), gens.imag[:, 1].reshape(1, 1, -1)
    out = np.empty((len(chunk), k, 2, 2), dtype=complex)
    for s in range(0, len(chunk), PRODUCT_BLOCK):
        block = chunk[s : s + PRODUCT_BLOCK]
        a0r, a0i = block.real[:, :, 0, None], block.imag[:, :, 0, None]
        a1r, a1i = block.real[:, :, 1, None], block.imag[:, :, 1, None]
        # "+ 0.0" turns a first product of -0.0 into +0.0, as einsum's
        # zero-started sum does
        re = ((a0r * g0r - a0i * g0i) + 0.0) + (a1r * g1r - a1i * g1i)
        im = ((a0r * g0i + a0i * g0r) + 0.0) + (a1r * g1i + a1i * g1r)
        # (row, i, letter, l) -> (row, letter, i, l)
        dst = out[s : s + PRODUCT_BLOCK]
        dst.real = re.reshape(len(block), 2, k, 2).transpose(0, 2, 1, 3)
        dst.imag = im.reshape(len(block), 2, k, 2).transpose(0, 2, 1, 3)
    return out.reshape(-1, 2, 2)


def _generator_stack(group: GroupPresentation) -> np.ndarray:
    mats = []
    for g in group.generators:
        mats.append(g.matrix)
        mats.append(g.inverse().matrix)
    return np.stack(mats)


class _HashSet:
    """Membership structure over int64 hashes: a few sorted chunks,
    consolidated when they pile up, so levels with few new elements do
    not pay a full re-sort of everything seen so far.

    ``contains`` answers for needles in any order, but sorted needles are
    much faster: each binary search then starts near where the previous
    one ended, so the walk through a large chunk stays in cache."""

    def __init__(self, initial: np.ndarray) -> None:
        self.chunks: list[np.ndarray] = [np.sort(initial)]
        self.n = len(initial)

    def contains(self, values: np.ndarray) -> np.ndarray:
        out = np.zeros(len(values), dtype=bool)
        for chunk in self.chunks:
            idx = np.searchsorted(chunk, values)
            idx[idx == len(chunk)] = len(chunk) - 1
            out |= chunk[idx] == values
        return out

    def add(self, values: np.ndarray) -> None:
        if not len(values):
            return
        self.chunks.append(np.sort(values))
        self.n += len(values)
        if len(self.chunks) > 8:
            self.chunks = [np.sort(np.concatenate(self.chunks))]


def enumerate_orbit(
    group: GroupPresentation,
    max_dist: Optional[float] = None,
    *,
    max_elements: int = 2_000_000,
    max_word_length: Optional[int] = None,
    slack: float = DEFAULT_SLACK,
) -> OrbitData:
    """Breadth-first enumeration of distinct group elements.

    Elements are reported when d(o, g o) <= max_dist; words are expanded
    while their running distance stays below max_dist + slack, so short
    elements reached only through overshooting prefixes are still found
    as long as the overshoot is under the slack.  Deduplication uses the
    canonical matrix form rounded to a 1e-9 grid, hashed to 64 bits.

    When ``max_elements`` or ``max_word_length`` stops the walk early,
    ``truncated`` is set and ``t_valid`` drops to the smallest distance of
    an unexpanded element less the slack: an element within that horizon
    reached through prefixes overshooting it by less than the slack is
    found, the same promise an untruncated walk makes for ``max_dist``.
    The element budget is checked between levels and between chunks of
    ``EXPAND_PRODUCTS`` candidate products.
    """
    if max_dist is None and max_word_length is None:
        raise ValueError("need max_dist or max_word_length")
    report_dist = math.inf if max_dist is None else float(max_dist)
    expand_dist = report_dist + slack
    gens = _generator_stack(group)
    n_letters = len(gens)
    chunk_rows = max(1, EXPAND_PRODUCTS // n_letters)
    letter_ids = np.arange(n_letters, dtype=np.uint8)

    ident = np.eye(2, dtype=complex)
    visited = _HashSet(_key_hashes(ident[None]))
    acc_m = [ident[None].copy()]
    acc_dist = [np.zeros(1)]
    acc_len = [np.zeros(1, dtype=np.int32)]

    frontier = ident[None].copy()
    frontier_last = np.array([255], dtype=np.uint8)  # 255: no previous letter
    frontier_dist = np.zeros(1)

    truncated = False
    horizon = math.inf
    level = 0
    n_close = 0

    while len(frontier):
        level += 1
        if max_word_length is not None and level > max_word_length:
            truncated = True
            horizon = min(horizon, float(frontier_dist.min()))
            break
        if visited.n >= max_elements:
            truncated = True
            horizon = min(horizon, float(frontier_dist.min()))
            break

        lvl_m, lvl_dist, lvl_last, lvl_hash = [], [], [], []
        n_lvl = 0  # the level's new elements so far, chunk duplicates included
        stopped = False
        for start in range(0, len(frontier), chunk_rows):
            if visited.n + n_lvl >= max_elements and start > 0:
                truncated = True
                horizon = min(horizon, float(frontier_dist[start:].min()))
                stopped = True
                break
            chunk_last = frontier_last[start : start + chunk_rows]
            cand = _products(frontier[start : start + chunk_rows], gens)
            dists = _orbit_dists(cand)
            # no letter undoes the previous one; matrices whose norm
            # overflows double precision are dropped, they sit far beyond
            # any usable horizon
            rows = np.flatnonzero(
                (letter_ids != (chunk_last[:, None] ^ 1)).ravel()
                & (dists <= expand_dist)
                & np.isfinite(dists)
            )
            if not len(rows):
                continue
            cand = _canonicalize_signs(cand[rows])
            hashes = _key_hashes(cand)
            # the unique hashes come sorted: ask the visited set in that
            # order, then restore row order
            uniq, first = np.unique(hashes, return_index=True)
            first = first[~visited.contains(uniq)]
            first.sort()
            if not len(first):
                continue
            rows = rows[first]
            lvl_m.append(cand[first])
            lvl_dist.append(dists[rows])
            lvl_last.append((rows % n_letters).astype(np.uint8))
            lvl_hash.append(hashes[first])
            n_lvl += len(first)

        if not lvl_dist:
            if stopped:
                break
            frontier = np.empty((0, 2, 2), dtype=complex)
            continue

        new_m = np.concatenate(lvl_m)
        new_dist = np.concatenate(lvl_dist)
        new_last = np.concatenate(lvl_last)
        new_hash = np.concatenate(lvl_hash)
        # chunks were deduplicated locally; a duplicate can straddle chunks
        _, cross = np.unique(new_hash, return_index=True)
        if len(cross) < len(new_hash):
            cross.sort()
            new_m, new_dist, new_last, new_hash = (
                new_m[cross],
                new_dist[cross],
                new_last[cross],
                new_hash[cross],
            )

        visited.add(new_hash)

        report = new_dist <= report_dist
        acc_m.append(new_m[report])
        acc_dist.append(new_dist[report])
        acc_len.append(np.full(int(report.sum()), level, dtype=np.int32))

        n_close += int((new_dist[report] <= NONDISCRETE_RADIUS).sum())
        if n_close > NONDISCRETE_COUNT:
            raise NonDiscreteError(
                f"{n_close} distinct elements within distance "
                f"{NONDISCRETE_RADIUS} of the base point; the group is "
                "almost certainly non-discrete"
            )

        frontier = new_m
        frontier_last = new_last
        frontier_dist = new_dist
        if stopped:
            # the level just created was never expanded either
            horizon = min(horizon, float(new_dist.min()))
            break

    t_valid = min(report_dist, max(0.0, horizon - slack)) if truncated else report_dist
    matrices = np.concatenate(acc_m)
    return OrbitData(
        matrices=matrices,
        dists=np.concatenate(acc_dist),
        word_lengths=np.concatenate(acc_len),
        t_valid=float(t_valid),
        truncated=truncated,
        d=group.d,
        group=group,
    )


# ---------------------------------------------------------------------------
# boundary cells and components
# ---------------------------------------------------------------------------


def _cells(z: np.ndarray, side: float, frac: float) -> tuple[np.ndarray, np.ndarray]:
    """The cells of side ``side`` at offset ``frac`` holding the complex
    boundary points z: exact int64 indices floor(x / side + frac) of the
    real and of the imaginary parts.

    This is the one rule for "same boundary point", used by cusp
    clustering, the cusp reference premerge, the horoball base dedup and
    the deepest-cusp lookup: two points are the same when they share a
    cell at offset 0 or at offset 1/2.  Points sharing a cell lie within sqrt(2) side of each
    other.  Points closer than side / 2 on both axes share a cell at one
    offset or the other on each axis, so they are the same unless they
    straddle an edge of one offset on one axis and an edge of the other
    offset on the other.  Indices are exact, so distinct cells never
    alias; an index beyond 4e18 in size raises
    :class:`CuspDetectionError` instead of wrapping around int64.
    """
    out = []
    for x in (z.real, z.imag):
        c = x / side
        c += frac
        np.floor(c, out=c)
        if len(c) and max(c.max(), -c.min()) > 4.0e18:
            raise CuspDetectionError(
                "boundary point beyond the integer grid range of its cells; "
                "bound the points to a working window first"
            )
        out.append(c.astype(np.int64))
    return out[0], out[1]


def _shared_cells(z: np.ndarray, targets: np.ndarray, side: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) with z[i] the same point as targets[j] by the
    :func:`_cells` rule: at each offset, every point is paired with the
    lowest target in its cell.  Only points whose real part falls in a
    bucket within 2 side of some target's, and whose imaginary part
    lies within a cell of the targets' span, are looked up; the others,
    NaN included, pair with nothing and never reach the range guard."""
    none = np.empty(0, dtype=np.intp)
    if not len(z) or not len(targets):
        return none, none
    # buckets 1 .. CELL_BUCKETS + 1 cover the targets' real span; the
    # end buckets 0 and CELL_BUCKETS + 2 take everything else
    reach = 2.0 * side
    lo = targets.real.min() - reach
    per = CELL_BUCKETS / (targets.real.max() + reach - lo)

    def bucket(x: np.ndarray) -> np.ndarray:
        k = x - lo
        k *= per
        np.fmax(k, -1.0, out=k)  # NaN goes to the low end bucket
        np.fmin(k, CELL_BUCKETS + 1.0, out=k)
        np.floor(k, out=k)
        return k.astype(np.intp) + 1

    # +1 at the bucket where a target's reach starts, -1 past its end
    edges = np.zeros(CELL_BUCKETS + 4, dtype=np.intp)
    np.add.at(edges, bucket(targets.real - reach), 1)
    np.add.at(edges, bucket(targets.real + reach) + 1, -1)
    rows = np.flatnonzero((np.cumsum(edges) > 0)[bucket(z.real)])
    y = z.imag[rows]
    rows = rows[(y >= targets.imag.min() - side) & (y <= targets.imag.max() + side)]
    both = np.concatenate([targets, z[rows]])
    n = len(targets)
    pairs_i, pairs_j = [none], [none]
    for frac in (0.0, 0.5):
        cells = np.column_stack(_cells(both, side, frac))
        # equal ids are equal cells
        _, ids = np.unique(cells, axis=0, return_inverse=True)
        ids = ids.ravel()
        lowest = np.full(ids.max() + 1, n)
        np.minimum.at(lowest, ids[:n], np.arange(n))
        j = lowest[ids[n:]]
        hit = j < n
        pairs_i.append(rows[hit])
        pairs_j.append(j[hit])
    return np.concatenate(pairs_i), np.concatenate(pairs_j)


def _components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Connected components of the graph on nodes 0 .. n-1 with edges
    (i[k], j[k]), each node labelled by the smallest node of its own.
    Each round lowers both ends of every edge to the smaller of their
    labels, then every label to its label's label; labels stay inside
    their component and stop falling once each holds its smallest node."""
    label = np.arange(n)
    i = np.asarray(i, dtype=np.intp)
    j = np.asarray(j, dtype=np.intp)
    while True:
        low = np.minimum(label[i], label[j])
        new = label.copy()
        np.minimum.at(new, i, low)
        np.minimum.at(new, j, low)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


# ---------------------------------------------------------------------------
# cusp detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cusp:
    """One detected cusp orbit: a representative fixed point, its rank,
    and a shortest enumerated parabolic fixing it."""

    point: hg.BoundaryPoint
    rank: int
    generator: hg.MobiusMap
    n_conjugates: int


@dataclass(frozen=True)
class CuspSummary:
    cusps: tuple[Cusp, ...]
    k_min: Optional[int]
    k_max: Optional[int]
    n_parabolics: int
    orbit_truncated: bool

    @property
    def has_cusps(self) -> bool:
        return bool(self.cusps)


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal values in ``keys``."""
    starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    return starts, np.diff(np.append(starts, len(keys)))


def find_cusps(orbit: OrbitData) -> CuspSummary:
    """Detect parabolic fixed points, group them into cusp orbits.

    A cluster is a connected set of fixed points that are the same point
    by the :func:`_cells` rule at ``CUSP_CLUSTER_TOL``; all fixed points
    at infinity form one.  Clusters are joined into orbits when a
    generator carries a fixed point into a cluster's cell.  The orbit
    partition is a lower bound on the truth (two clusters whose
    connecting element was not enumerated stay separate); downstream
    horoball construction merges orbits when it finds evidence for it.
    """
    group = orbit.group
    if group is None:
        raise ValueError("orbit does not reference its group presentation")
    m = orbit.matrices
    tr2 = (m[:, 0, 0] + m[:, 1, 1]) ** 2
    nontrivial = orbit.word_lengths > 0
    para = nontrivial & (np.abs(tr2 - 4.0) <= hg.PARABOLIC_TOL)
    not_ident = np.abs(m - np.eye(2)).max(axis=(1, 2)) > 1e-9
    para &= not_ident
    pm = m[para]
    pd = orbit.dists[para]
    plen = orbit.word_lengths[para]
    n_para = len(pm)

    if n_para == 0:
        return CuspSummary((), None, None, 0, orbit.truncated)

    a, c = pm[:, 0, 0], pm[:, 1, 0]
    dd = pm[:, 1, 1]
    scale = np.abs(pm).max(axis=(1, 2))
    at_inf = np.abs(c) <= hg.ENTRY_TOL * scale
    fp = np.zeros(n_para, dtype=complex)
    fin = np.flatnonzero(~at_inf)
    fp[fin] = (a[fin] - dd[fin]) / (2.0 * c[fin])
    inf = np.flatnonzero(at_inf)
    to_inf = inf[:1]  # edges into infinity's cluster end at its first parabolic

    # one lookup per distinct fixed point value, by its first parabolic
    vals, first, inv = np.unique(fp[fin], return_index=True, return_inverse=True)
    reps = fin[first]
    ki, kj = _shared_cells(vals, vals, CUSP_CLUSTER_TOL)
    same_i = np.concatenate([fin, reps[ki], inf])
    same_j = np.concatenate([reps[inv], reps[kj], to_inf.repeat(len(inf))])
    cluster = _components(n_para, same_i, same_j)

    # a generator image of a fixed point joins the cluster whose cell it
    # lands in; a point sent to infinity joins infinity's cluster
    gens = _generator_stack(group)
    ga, gb, gc, gd = (gens[:, r, s, None] for r, s in ((0, 0), (0, 1), (1, 0), (1, 1)))
    gscale = np.abs(gens).max(axis=(1, 2))[:, None]
    den = gc * vals + gd
    ok = np.abs(den) > 1e-13 * gscale * np.maximum(1.0, np.abs(vals))
    img = (ga * vals + gb) / np.where(ok, den, 1.0)
    src = np.broadcast_to(reps, img.shape)
    moves_inf = (np.abs(gc[:, 0]) >= 1e-13 * gscale[:, 0]) & bool(len(inf))
    q = np.concatenate([img[ok], ga[moves_inf, 0] / gc[moves_inf, 0]])
    q_src = np.concatenate([src[ok], to_inf.repeat(moves_inf.sum())])
    qi, tj = _shared_cells(q, vals, CUSP_CLUSTER_TOL)
    poles = src[~ok] if len(inf) else reps[:0]
    comp = _components(
        n_para,
        np.concatenate([same_i, q_src[qi], poles]),
        np.concatenate([same_j, reps[tj], to_inf.repeat(len(poles))]),
    )

    # a cluster has rank 2 when the translation of one of its RANK_SAMPLE
    # shortest parabolics, read off with its fixed point moved to
    # infinity, is independent of the longest such translation; an orbit
    # takes its clusters' largest rank
    cl_rank = np.ones(n_para, dtype=int)
    if group.d == 2:
        order = np.lexsort((pd, cluster))
        starts, sizes = _runs(cluster[order])
        sel = order[np.arange(n_para) - np.repeat(starts, sizes) < RANK_SAMPLE]
        cl = cluster[sel]
        ms = pm[sel]
        taus = -ms[:, 1, 0] / (ms[:, 1, 0] * fp[cl] + ms[:, 1, 1])
        up = at_inf[cl]
        taus[up] = ms[up, 0, 1] / ms[up, 0, 0]
        starts, sizes = _runs(cl)
        run = np.repeat(np.arange(len(starts)), sizes)
        mag = np.abs(taus)
        ref = taus[np.lexsort((-mag, run))[starts]][run]
        independent = np.abs((taus * ref.conjugate()).imag) > 1e-8 * mag * np.abs(ref)
        cl_rank[cl[starts]] = np.where(np.logical_or.reduceat(independent, starts), 2, 1)
    rank = np.zeros(n_para, dtype=int)
    np.maximum.at(rank, comp, cl_rank[cluster])

    # each orbit's shortest parabolic, the earliest cluster's and then the
    # earliest one on ties
    order = np.lexsort((cluster, pd, plen, comp))
    starts, counts = _runs(comp[order])
    cusps = []
    for best, n_conj in zip(order[starts], counts):
        point = hg._boundary_from_hs(None if at_inf[best] else fp[best], group.d)
        gen = hg.MobiusMap(pm[best])
        cusps.append(Cusp(point, int(rank[comp[best]]), gen, int(n_conj)))

    cusps.sort(key=lambda cu: (math.inf,) if cu.point.is_infinity else cu.point.coords)
    ranks = [cu.rank for cu in cusps]
    return CuspSummary(tuple(cusps), min(ranks), max(ranks), n_para, orbit.truncated)


# ---------------------------------------------------------------------------
# invariant horoball families
# ---------------------------------------------------------------------------


@dataclass
class HoroballFamily:
    """Disjoint family of horoballs over the detected cusp orbits.

    ``bases``/``sizes`` describe finite-based horoballs (tangent-point
    diameter convention); an optional member at infinity is a horizontal
    plane at ``inf_height``.  ``theta`` is the dyadic squeeze that was
    applied to the raw family to make it disjoint.  Members based beyond
    ``query_window`` were discarded during construction (they cannot
    contain any point with planar norm inside the window and height at
    most 1), so ``deepest`` only answers queries inside the window.
    """

    bases: np.ndarray
    sizes: np.ndarray
    ranks: np.ndarray
    d: int
    inf_height: Optional[float] = None
    inf_rank: int = 0
    theta: float = 1.0
    query_window: float = math.inf
    n_references: int = 0
    _bins: Optional[list] = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.sizes) + (1 if self.inf_height is not None else 0)

    def to_horoballs(self, min_size: float = 0.0) -> list[hg.Horoball]:
        out = []
        if self.inf_height is not None:
            out.append(hg.Horoball(hg.infinity(), float(self.inf_height), int(self.inf_rank)))
        for p, s, r in zip(self.bases, self.sizes, self.ranks):
            if s >= min_size:
                out.append(hg.Horoball(hg._boundary_from_hs(p, self.d), float(s), int(r)))
        return out

    def members_at(self, points) -> np.ndarray:
        """For each complex point, the lowest-index member based at the same
        point by the :func:`_cells` rule at ``CUSP_CLUSTER_TOL``, or
        ``len(sizes)`` where none is.  Where two of the points share a
        cell, that cell's members go to the lower one."""
        points = np.asarray(points, dtype=complex).ravel()
        # few points, many members: the members are looked up among the points
        i, j = _shared_cells(self.bases, points, CUSP_CLUSTER_TOL)
        member = np.full(len(points), len(self.sizes))
        np.minimum.at(member, j, i)
        return member

    def _octaves(self):
        if self._bins is None:
            self._bins = _size_octave_bins(self.bases, self.sizes)
        return self._bins

    def deepest(self, w: np.ndarray, h: np.ndarray):
        """Escape depth and cusp rank of the member containing each point.

        Points outside every member get depth 0 and rank 0.  The family
        is disjoint, so "the" member is unambiguous.
        """
        w = np.asarray(w, dtype=complex).ravel()
        h = np.asarray(h, dtype=float).ravel()
        if len(w) and float(np.abs(w).max()) > self.query_window:
            raise ValueError(
                "query point outside the family's working window; rebuild "
                "the family from an orbit covering this region"
            )
        depth = np.zeros(len(w))
        rank = np.zeros(len(w), dtype=np.int32)
        if self.inf_height is not None:
            above = h > self.inf_height
            depth[above] = np.log(h[above] / self.inf_height)
            rank[above] = self.inf_rank
        pts = np.column_stack([w.real, w.imag])
        # squared by the C library's pow, as a scalar h ** 2 is; numpy's
        # vector square h * h differs from it in the last bit for some h
        h_sq = np.array([x**2 for x in h.tolist()])
        for tree, idx, s_max in self._octaves():
            cand = np.flatnonzero(h <= s_max)
            if not len(cand):
                continue
            radii = np.sqrt(np.maximum(s_max * h[cand], 0.0))
            hits = tree.query_ball_point(pts[cand], radii)
            counts = np.fromiter(map(len, hits), dtype=np.intp, count=len(hits))
            # one row per (point, hit member)
            pt = np.repeat(cand, counts)
            gi = idx[np.fromiter(chain.from_iterable(hits), dtype=np.intp, count=int(counts.sum()))]
            q = np.abs(self.bases[gi] - w[pt]) ** 2 + h_sq[pt]
            val = self.sizes[gi] * h[pt] / q
            inside = val > 1.0
            pt, gi, val = pt[inside], gi[inside], val[inside]
            # per point, its largest value and, on ties, the lowest member
            order = np.lexsort((gi, -val, pt))
            first = order[np.flatnonzero(np.diff(pt[order], prepend=-1))]
            # math.log: numpy's vector log may round differently
            logs = np.array([math.log(v) for v in val[first].tolist()])
            pt, gi = pt[first], gi[first]
            deeper = logs > depth[pt]
            depth[pt[deeper]] = logs[deeper]
            rank[pt[deeper]] = self.ranks[gi[deeper]]
        return depth, rank


def _size_octave_bins(bases: np.ndarray, sizes: np.ndarray):
    bins = []
    if len(sizes) == 0:
        return bins
    octave = np.log2(sizes)
    np.floor(octave, out=octave)
    octave = octave.astype(int)
    for o in np.unique(octave):
        idx = np.flatnonzero(octave == o)
        b = bases[idx]
        # unbalanced, uncompacted trees build faster and find the same pairs
        tree = cKDTree(np.column_stack([b.real, b.imag]), balanced_tree=False, compact_nodes=False)
        bins.append((tree, idx, float(2.0 ** (o + 1))))
    return bins


def _horoball_images(mats: np.ndarray, p: Optional[complex]):
    """Images of the unit reference horoball at p under every matrix.

    Returns (finite_bases, finite_sizes, inf_heights).  The reference is
    the tangent horoball of diameter 1 (finite p) or the plane at height
    1 (p = None).  Image sizes are exact, via the derivative formula.
    """
    a, b = mats[:, 0, 0], mats[:, 0, 1]
    c, dd = mats[:, 1, 0], mats[:, 1, 1]
    scale = np.abs(mats).max(axis=(1, 2))
    if p is None:
        den = c
        pole = np.abs(den) <= 1e-13 * scale
        bases = np.where(pole, 0.0, a) / np.where(pole, 1.0, den)
        sizes = 1.0 / np.abs(np.where(pole, 1.0, den)) ** 2
        inf_heights = np.abs(a[pole]) ** 2
    else:
        den = c * p + dd
        pole = np.abs(den) <= 1e-13 * scale * max(1.0, abs(p))
        num = a * p + b
        bases = np.where(pole, 0.0, num) / np.where(pole, 1.0, den)
        sizes = 1.0 / np.abs(np.where(pole, 1.0, den)) ** 2
        inf_heights = np.abs(num[pole]) ** 2
    return bases[~pole], sizes[~pole], inf_heights


def _max_overlap_ratio(bases: np.ndarray, sizes: np.ndarray, inf_height: Optional[float]) -> float:
    """max over pairs of s_i s_j / |p_i - p_j|^2 (and s_i / H for the plane).

    1.0 means tangency; above 1 means overlap.  Uses size-octave KD trees
    so only plausibly-overlapping pairs are inspected.
    """
    worst = 0.0
    if inf_height is not None and len(sizes):
        worst = float(sizes.max() / inf_height)
    if len(sizes) < 2:
        return worst
    bins = _size_octave_bins(bases, sizes)
    for bi, (tree_i, idx_i, smax_i) in enumerate(bins):
        for bj, (tree_j, idx_j, smax_j) in enumerate(bins[bi:], bi):
            r = math.sqrt(smax_i * smax_j) * (1.0 + 1e-12)
            hits = tree_i.sparse_distance_matrix(tree_j, r, output_type="ndarray")
            if not len(hits):
                continue
            gi = idx_i[hits["i"]]
            gj = idx_j[hits["j"]]
            d2 = hits["v"]
            if bi == bj:
                # a tree against itself finds each pair twice and every
                # member with itself; pairs across octaves come once
                m = gi < gj
                if not m.any():
                    continue
                gi, gj, d2 = gi[m], gj[m], d2[m]
                del m
            del hits
            np.square(d2, out=d2)
            if (d2 == 0.0).any():
                return math.inf
            ratio = sizes[gi]
            ratio *= sizes[gj]
            ratio /= d2
            worst = max(worst, float(ratio.max()))
    return worst


def _premerge_refs(mats: np.ndarray, refs: list) -> np.ndarray:
    """Component labels of the cusp references joined by a single
    enumerated element, each the smallest reference of its component.

    Cusp detection may split one orbit into many satellite clusters.
    Building horoball images for every satellite multiplies the memory
    bill by the split factor, so references whose points are mapped onto
    each other by some enumerated element are merged beforehand.  The
    size-conflict restart in the family builder remains as a backstop
    for orbit pairs whose connecting element was not enumerated.  An
    image joins a finite reference when it is the same point by the
    :func:`_cells` rule at ``CUSP_CLUSTER_TOL``.
    """
    pts = [p for p, _ in refs]
    fin = [i for i, p in enumerate(pts) if p is not None]
    inf_i = next((i for i, p in enumerate(pts) if p is None), None)
    if len(fin) + (inf_i is not None) < 2:
        return np.arange(len(refs))
    a, b, c, dd = (np.ascontiguousarray(mats[:, r, s]) for r, s in ((0, 0), (0, 1), (1, 0), (1, 1)))
    tol = np.abs(mats).max(axis=(1, 2))
    tol *= 1e-12
    fin_pts = np.array([pts[i] for i in fin], dtype=complex)
    fin_ids = np.asarray(fin)
    src, dst = [], []
    for i in fin + ([inf_i] if inf_i is not None else []):
        if pts[i] is None:
            num, den = a, c
        else:
            num, den = a * pts[i] + b, c * pts[i] + dd
        to_inf = np.abs(den) <= tol
        if inf_i is not None and i != inf_i and bool(to_inf.any()):
            src.append(i)
            dst.append(inf_i)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = num / den
        w[to_inf] = np.nan
        j = fin_ids[_shared_cells(w, fin_pts, CUSP_CLUSTER_TOL)[1]]
        src.extend([i] * len(j))
        dst.extend(j.tolist())
    return _components(len(refs), src, dst)


def _fold_refs(refs: list, active, labels: np.ndarray) -> list:
    """Fold each active reference into its component's label, the
    smallest reference of the component, which takes the component's
    largest rank.  Returns the sorted labels, the references left."""
    ranks: dict[int, int] = {}
    for ri in active:
        w = int(labels[ri])
        ranks[w] = max(ranks.get(w, 0), refs[ri][1])
    for w, rank in ranks.items():
        refs[w] = (refs[w][0], rank)
    return sorted(ranks)


def _squeeze_theta(bases: np.ndarray, sizes: np.ndarray, inf_height: Optional[float]) -> float:
    """The dyadic squeeze theta = 2^-m of a raw horoball family.

    m is the smallest exponent that makes the squeezed members pairwise
    disjoint (overlap ratio at most 1 + 1e-6) and keeps the base point at
    height 1 strictly outside all of them.  It is read in closed form off
    the largest overlap ratio known, at first the plane's alone, and one
    scan of the family squeezed by that theta accepts it.  A second scan
    runs only when the overlap decides m.  ``sizes`` is squeezed in place
    for each scan and restored exactly.
    """
    # the enumeration base at height 1 must stay strictly outside every
    # member, else rays have no horoball-free start and escape depths
    # lose their normalization; a finite ball swallows it exactly when
    # its diameter exceeds 1 + |base|^2
    finite_ratio = float((sizes / (1.0 + np.abs(bases) ** 2)).max()) if len(sizes) else 0.0
    base_ratio = finite_ratio
    if inf_height is not None:
        base_ratio = max(base_ratio, 1.0 / inf_height)
    worst = float(sizes.max() / inf_height) if inf_height is not None and len(sizes) else 0.0
    m, scanned = 0, None
    while math.isfinite(worst):  # else two members share a base point
        # closed form; the re-check below absorbs the rounding of the logs
        if worst > 1.0 + 1e-6:
            m = max(m, math.ceil(math.log(worst) / math.log(4.0)))
        if base_ratio > 1.0 - 1e-6:
            m = max(m, 1, math.ceil(math.log2(base_ratio / (1.0 - 1e-6))))
        if m > MAX_SHRINK_STEPS:
            break
        theta = 2.0**-m
        ok = worst * theta * theta <= 1.0 + 1e-6
        ok &= finite_ratio * theta <= 1.0 - 1e-6
        if inf_height is not None:
            ok &= inf_height / theta >= 1.0 + 1e-6
        if not ok:
            m += 1
        elif scanned == m:
            # this m's scan read worst * theta^2 <= 1 + 1e-6 and kept m
            return theta
        else:
            sizes *= theta
            check = _max_overlap_ratio(bases, sizes, None if inf_height is None else inf_height / theta)
            sizes /= theta
            # Exact: a dyadic theta scales every pair's ratio and the
            # plane's by exactly theta^2, and the scan finds every pair
            # whose squeezed ratio is near 1 or above.  So when the raw
            # family's worst pair could raise m, check / theta^2 is its raw
            # ratio bit for bit and m moves where a raw scan would put it.
            worst, scanned = check / (theta * theta), m
    raise CuspDetectionError(
        f"family needs theta below 2^-{MAX_SHRINK_STEPS}; "
        "the input looks degenerate"
    )


def standard_horoballs(orbit: OrbitData, cusps: CuspSummary) -> HoroballFamily:
    """Invariant disjoint horoball family from enumerated group elements.

    One unit reference horoball is placed at a representative of each
    detected cusp orbit and pushed around by every enumerated element.
    If two references turn out to generate horoballs at the same base
    point with different sizes, that proves the two detected orbits are
    really one; the later reference is dropped and construction restarts.
    Finally every member is shrunk by one dyadic theta = 2^-m: the
    smallest m that makes the members pairwise disjoint and keeps the base
    point at height 1 outside all of them.  An overlap scan of the
    squeezed family accepts theta; it is the only scan when the base point
    decides m, and a second one runs only when the overlap decides.
    """
    if not cusps.has_cusps:
        raise CuspDetectionError("no parabolic elements found; the group has no cusps")

    refs = [(hg._hs_boundary(cu.point), cu.rank) for cu in cusps.cusps]

    ow, _ = orbit.orbit_points()
    window = max(16.0, 4.0 * float(np.abs(ow).max()) + 8.0)

    active = _fold_refs(refs, range(len(refs)), _premerge_refs(orbit.matrices, refs))
    while True:
        bases, sizes, ref_of, inf_h = _raw_family(orbit.matrices, refs, active, window)
        conflict = _dedup_and_find_conflict(bases, sizes, ref_of)
        if isinstance(conflict, tuple) and conflict[0] == "merge":
            # conflicting sizes between references prove their detected
            # orbits coincide; merge every proven pair in one restart
            i, j = np.array(conflict[1]).T
            if (i == j).any():
                raise CuspDetectionError(
                    "inconsistent horoball sizes within one cusp orbit; "
                    "parabolic detection is unreliable for this input"
                )
            active = _fold_refs(refs, active, _components(len(refs), i, j))
            continue
        keep = conflict
        bases, sizes = bases[keep], sizes[keep]
        ranks = np.array([rank for _, rank in refs], dtype=np.int32)[ref_of[keep]]

        inf_height = None
        inf_rank = 0
        if inf_h:
            hs = sorted(set(round(h, 12) for h, _, _ in inf_h))
            if len(hs) > 1:
                lo_ref = min(r for _, _, r in inf_h)
                hi_ref = max(r for _, _, r in inf_h)
                if lo_ref != hi_ref:
                    active.remove(hi_ref)
                    continue
                raise CuspDetectionError(
                    "inconsistent plane heights at the infinite cusp"
                )
            inf_height = float(inf_h[0][0])
            inf_rank = int(inf_h[0][1])
        break

    theta = _squeeze_theta(bases, sizes, inf_height)
    sizes *= theta
    return HoroballFamily(
        bases=bases,
        sizes=sizes,
        ranks=ranks,
        d=orbit.d,
        inf_height=None if inf_height is None else inf_height / theta,
        inf_rank=inf_rank,
        theta=theta,
        query_window=window,
        n_references=len(active),
    )


def _raw_family(mats, refs, active, window):
    """Unit reference horoballs at every active reference, pushed around by
    every matrix: (bases, sizes, ref_of, inf_h) of the finite members
    inside the working window and the (height, rank, ref) of each plane."""
    bases_l, sizes_l, ref_l = [], [], []
    inf_h: list[tuple[float, int, int]] = []
    for ri in active:
        p, rank = refs[ri]
        fb, fs, ih = _horoball_images(mats, p)
        near = _window_filter(fb, fs, window)
        bases_l.append(fb[near])
        sizes_l.append(fs[near])
        ref_l.append(np.full(len(sizes_l[-1]), ri, dtype=np.int32))
        inf_h.extend((float(hh), rank, ri) for hh in ih)
    return np.concatenate(bases_l), np.concatenate(sizes_l), np.concatenate(ref_l), inf_h


def _dedup_and_find_conflict(bases, sizes, ref_of):
    """Indices of base-deduplicated horoballs, or a merge directive.

    Bases are the same by the :func:`_cells` rule at ``DEDUP_GRID``, one
    pass per offset, the second over the entries the first kept.  Two
    entries at the same base with agreeing sizes are duplicates (the
    stabilizer coset redundancy); agreeing means within
    ``DEDUP_SIZE_REL_TOL`` relative size.  Disagreeing macroscopic sizes
    from different references prove the referenced cusp orbits coincide.
    """
    keep = None
    for frac in (0.0, 0.5):
        keep, pairs = _dedup_pass(bases, sizes, frac, keep)
        if pairs is not None:
            return ("merge", sorted({(int(ref_of[i]), int(ref_of[j])) for i, j in pairs}))
    return keep


def _dedup_pass(bases, sizes, frac, rows=None):
    """One grid pass over the sorted indices ``rows`` (default all):
    (sorted indices kept, None), or (None, index pairs (cell leader,
    member) whose sizes disagree).  Each key column is built from the
    rows alone and freed once the cell boundaries are known."""

    def take(a):
        return a if rows is None else a[rows]

    c0, c1 = _cells(take(bases), DEDUP_GRID, frac)
    sizes = take(sizes)
    n = len(sizes)
    order = np.lexsort((-sizes, c1, c0))
    # a new cell starts where either sorted coordinate changes
    new_group = np.ones(n, dtype=bool)
    c0 = c0[order]
    np.not_equal(c0[1:], c0[:-1], out=new_group[1:])
    del c0
    c1 = c1[order]
    new_group[1:] |= c1[1:] != c1[:-1]
    del c1
    lead_rows = np.flatnonzero(new_group)
    sizes = sizes[order]
    lead_size = np.repeat(sizes[lead_rows], np.diff(lead_rows, append=n))
    gap = sizes - lead_size
    np.abs(gap, out=gap)
    macro = (sizes > 1e-9) & (lead_size > 1e-9)
    lead_size *= DEDUP_SIZE_REL_TOL
    odd = ~(gap <= lead_size)
    del sizes, lead_size, gap
    if rows is not None:
        order = rows[order]
    conflict = ~new_group & odd & macro
    if conflict.any():
        at = np.flatnonzero(conflict)
        leads = lead_rows[np.searchsorted(lead_rows, at, side="right") - 1]
        return None, np.column_stack([order[leads], order[at]])
    keep = order[new_group | odd]
    keep.sort()
    return keep, None


def _window_filter(bases, sizes, window):
    """Mask of members that can contain some point with |w| <= window, h <= 1.

    Containment needs |w - p|^2 + h^2 <= s h, so a member based farther
    than the window can only matter if (|p| - window)^2 <= s.
    """
    far = np.abs(bases) > window
    reachable = (np.abs(bases) - window) ** 2 <= sizes
    return ~far | reachable


# ---------------------------------------------------------------------------
# limit set sampling
# ---------------------------------------------------------------------------


def _loxodromic_fixed_points(orbit: OrbitData) -> np.ndarray:
    m = orbit.matrices
    tr2 = (m[:, 0, 0] + m[:, 1, 1]) ** 2
    seg = np.hypot(tr2.real - np.clip(tr2.real, 0.0, 4.0), tr2.imag)
    lox = (orbit.word_lengths > 0) & (np.abs(tr2 - 4.0) > hg.PARABOLIC_TOL) & (
        seg > hg.PARABOLIC_TOL
    )
    mm = m[lox]
    if not len(mm):
        return np.empty(0, dtype=complex)
    a, b = mm[:, 0, 0], mm[:, 0, 1]
    c, dd = mm[:, 1, 0], mm[:, 1, 1]
    scale = np.abs(mm).max(axis=(1, 2))
    disc = np.sqrt((a - dd) ** 2 + 4.0 * b * c)
    cz = np.abs(c) <= hg.ENTRY_TOL * scale
    c_safe = np.where(cz, 1.0, c)
    r1 = (a - dd + disc) / (2.0 * c_safe)
    r2 = (a - dd - disc) / (2.0 * c_safe)
    # c = 0: one fixed point at infinity (dropped), the other at b/(d-a)
    ad = np.abs(a - dd) > hg.ENTRY_TOL * scale
    alt = np.where(cz & ad, b / np.where(cz & ad, dd - a, 1.0), np.nan)
    pts = np.concatenate([r1[~cz], r2[~cz], alt[cz & ad]])
    pts = pts[~np.isnan(pts)]
    if orbit.d == 1:
        pts = pts[np.abs(pts.imag) <= 1e-7 * np.maximum(1.0, np.abs(pts))].real.astype(
            complex
        )
    return pts


def _planar_coords(pts: np.ndarray, d: int) -> np.ndarray:
    """Complex boundary points as coordinate rows: one column (the real
    part) when d=1, two when d=2."""
    if d == 1:
        bad = np.abs(pts.imag) > 1e-7 * np.maximum(1.0, np.abs(pts))
        if bad.any():
            raise ValueError(
                "projections left the real line for a d=1 group; "
                "check the presentation"
            )
        return pts.real[:, None]
    return np.column_stack([pts.real, pts.imag])


def _cell_keys(coords: np.ndarray, cell: float) -> np.ndarray:
    """One int64 key per row naming its cell of side ``cell``; distinct
    while the cell indices fit in 32 bits."""
    cells = np.floor(coords / cell).astype(np.int64)
    if coords.shape[1] == 1:
        return cells[:, 0]
    return (cells[:, 0] << np.int64(32)) ^ (cells[:, 1] & np.int64(0xFFFFFFFF))


def sample_limit_set(
    group: GroupPresentation,
    target_resolution: float = 1e-3,
    *,
    max_elements: int = 2_000_000,
    max_dist: Optional[float] = None,
    orbit: Optional[OrbitData] = None,
) -> PointCloud:
    """Sample the limit set by projecting deep orbit points to the boundary.

    Orbit points at distance t project within about e^-t of the limit
    set, so points past log(1/resolution) are kept.  Groups flagged with
    ``fixed_point_sampling`` (sparse, very non-uniform orbit growth) also
    contribute the boundary fixed points of every enumerated element.
    The declared resolution of the returned cloud degrades to match the
    enumeration horizon whenever the orbit stops short of
    log(1/resolution), by a budget or by its own distance, and never goes
    below the presentation's ``resolution_floor``.  An orbit with no
    point to sample raises ``ValueError``: the cloud is never empty.
    """
    if not (0 < target_resolution < 1):
        raise ValueError("target_resolution must be in (0, 1)")
    t_cut = math.log(1.0 / target_resolution)
    auto_window = orbit is None and max_dist is None
    if orbit is None:
        if max_dist is None:
            max_dist = t_cut + math.log(4.0)
        orbit = enumerate_orbit(group, max_dist, max_elements=max_elements)
    include_fixed_points = bool(group.metadata.get("fixed_point_sampling", False))

    proj, finite = orbit.boundary_projections()
    t_sel = min(t_cut, orbit.t_valid)
    deep = orbit.dists >= t_sel
    if auto_window and not orbit.truncated and not deep.any():
        # Groups whose shortest motions are long (widely separated Schottky
        # circles) can have a spectral gap covering the default window.  One
        # generator step bounds the gap length, so widening by that much
        # guarantees a hit.
        step = float(_orbit_dists(np.stack([g.matrix for g in group.generators])).max())
        orbit = enumerate_orbit(
            group, t_cut + step + math.log(4.0), max_elements=max_elements
        )
        proj, finite = orbit.boundary_projections()
        t_sel = min(t_cut, orbit.t_valid)
        deep = orbit.dists >= t_sel
    pts = proj[deep & finite]
    n_dropped_inf = int((deep & ~finite).sum())

    n_fixed = 0
    if include_fixed_points:
        fps = _loxodromic_fixed_points(orbit)
        gen_fps = [
            hg._hs_boundary(bp)
            for g in group.generators
            for bp in hg.classify(g, d=group.d).fixed_points
            if not bp.is_infinity
        ]
        n_fixed = len(fps) + len(gen_fps)
        pts = np.concatenate([pts, fps, np.asarray(gen_fps, dtype=complex)])

    if not len(pts):
        raise ValueError(
            f"empty limit sample: the orbit, complete to t_valid={orbit.t_valid:.4g}, "
            f"holds no point at or beyond min(t_valid, log(1/resolution)={t_cut:.4g}); "
            f"raise the distance budget past {max(orbit.t_valid, t_cut):.4g}"
        )

    resolution = target_resolution
    if orbit.t_valid < t_cut and not include_fixed_points:
        resolution = max(resolution, 2.0 * math.exp(-orbit.t_valid))
    floor = group.metadata.get("resolution_floor")
    if floor is not None:
        resolution = max(resolution, float(floor))

    coords = _planar_coords(pts, group.d)
    # deduplicate on a grid much finer than the resolution
    _, first = np.unique(_cell_keys(coords, resolution / 16.0), return_index=True)
    first.sort()
    coords = coords[first]

    return PointCloud(
        coords=coords,
        d=group.d,
        resolution=resolution,
        meta={
            "group": group.name,
            "n_orbit": orbit.n,
            "n_projected": int((deep & finite).sum()),
            "n_dropped_infinite": n_dropped_inf,
            "n_fixed_points": n_fixed,
            "t_valid": orbit.t_valid,
            "orbit_truncated": orbit.truncated,
        },
    )


# ---------------------------------------------------------------------------
# builtin presentations
# ---------------------------------------------------------------------------


def _inversion_matrix(center: complex, radius: float) -> np.ndarray:
    # scaled to determinant -1 so products of inversions in circles of
    # wildly different radii stay numerically well conditioned
    c = complex(center)
    m = np.array([[c, radius * radius - abs(c) ** 2], [1.0, -c.conjugate()]], dtype=complex)
    return m / radius


def _inversion_product(c_out, r_out, c_in, r_in, label="") -> hg.MobiusMap:
    """sigma_outer o sigma_inner as a Moebius map (matrix M_out conj(M_in))."""
    m = _inversion_matrix(c_out, r_out) @ np.conj(_inversion_matrix(c_in, r_in))
    return hg.MobiusMap(m, label=label)


def _apollonian() -> GroupPresentation:
    """Symmetry group of the bounded Apollonian gasket with root curvatures
    (-1, 2, 2, 3): products of inversions in the four mutually tangent dual
    circles (the real line and three circles through the tangency points).
    """
    m1 = np.eye(2, dtype=complex)  # inversion in the real line
    m2 = _inversion_matrix(-1.0 + 1.0j, 1.0)
    m3 = _inversion_matrix(1.0 + 1.0j, 1.0)
    m4 = _inversion_matrix(0.25j, 0.25)
    gens = (
        hg.MobiusMap(m1 @ np.conj(m2), label="a"),
        hg.MobiusMap(m2 @ np.conj(m3), label="b"),
        hg.MobiusMap(m3 @ np.conj(m4), label="c"),
        hg.MobiusMap(m4 @ np.conj(m1), label="d"),
    )
    return GroupPresentation(
        gens,
        d=2,
        name="apollonian",
        metadata={
            "known_delta": 1.305688,
            "k_min": 1,
            "k_max": 1,
            "geometrically_finite": True,
        },
    )


def _schottky(n_pairs: int = 2, separation: float = 3.0, radius: float = 1.0) -> GroupPresentation:
    """Classical Fuchsian Schottky group: each generator is the product of
    inversions in a disjoint pair of circles on the real line, mapping the
    exterior of one into the interior of the other.  Free and parabolic
    free by ping-pong.
    """
    if n_pairs < 1:
        raise ValueError("need at least one circle pair")
    if separation <= 2 * radius:
        raise ValueError("circles must be disjoint: separation > 2 radius")
    centers = [(-(2 * n_pairs - 1) / 2.0 + k) * separation for k in range(2 * n_pairs)]
    gens = []
    for k in range(n_pairs):
        c1, c2 = centers[2 * k], centers[2 * k + 1]
        gens.append(_inversion_product(c2, radius, c1, radius, label=f"g{k + 1}"))
    return GroupPresentation(
        tuple(gens),
        d=1,
        name="schottky",
        metadata={
            "geometrically_finite": True,
            "parabolic_free": True,
        },
    )


def _parabolic_cusp_fuchsian() -> GroupPresentation:
    """Fuchsian free product of the integer translation and one inversion
    pair: a single rank-1 cusp at infinity plus a loxodromic generator.
    The limit set misses (0.85, 1.15); the midpoint 1.0 is recorded as a
    gap point for bounded-chart conjugation.
    """
    t = hg.MobiusMap(np.array([[1.0, 1.0], [0.0, 1.0]]), label="t")
    h = _inversion_product(0.3, 0.15, -0.3, 0.15, label="h")
    return GroupPresentation(
        (t, h),
        d=1,
        name="parabolic_cusp_fuchsian",
        metadata={
            "k_min": 1,
            "k_max": 1,
            "gap_point": 1.0,
            "geometrically_finite": True,
        },
    )


def _rank2_cusp() -> GroupPresentation:
    """Kleinian free product of the Z^2 translation lattice and one
    inversion pair: a single rank-2 cusp at infinity.  The point 0.5 is a
    gap point (all finite limit points lie in lattice translates of the
    two small disks).
    """
    t1 = hg.MobiusMap(np.array([[1.0, 1.0], [0.0, 1.0]]), label="t1")
    t2 = hg.MobiusMap(np.array([[1.0, 1.0j], [0.0, 1.0]]), label="t2")
    h = _inversion_product(0.7 + 0.7j, 0.12, 0.3 + 0.3j, 0.12, label="h")
    return GroupPresentation(
        (t1, t2, h),
        d=2,
        name="rank2_cusp",
        metadata={
            "k_min": 2,
            "k_max": 2,
            "gap_point": 0.5,
            "geometrically_finite": True,
        },
    )


def _infinite_fuchsian(
    alpha: float = 0.05, beta: float = 0.75, n_circles: int = 200
) -> GroupPresentation:
    """Truncation of an infinitely generated Fuchsian group.

    Circles C_k sit on the real line at x_k = k^(-gamma) with
    gamma = 1/beta - 1, with radii r_k = alpha * min(e^-k, gap/4) so they
    shrink much faster than their spacing; generator h_k pairs C_1 with
    C_k.  The accumulation rate of the centres is tuned so the box
    dimension of the visible skeleton is beta while individual circles
    carry almost no mass, giving a large gap between the box and lower
    dimensions.  The full (non-truncated) object is geometrically
    infinite, which is how downstream consumers treat it.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    if not (0.0 < beta < 1.0):
        raise ValueError("beta must be in (0, 1)")
    if not 3 <= n_circles <= 250:
        raise ValueError(
            "n_circles must be between 3 and 250; beyond that the pairing "
            "maps overflow double precision"
        )
    gamma = 1.0 / beta - 1.0
    ks = np.arange(1, n_circles + 1, dtype=float)
    xs = ks**-gamma
    gaps = xs[:-1] - xs[1:]
    r = np.empty(n_circles)
    for i in range(n_circles):
        bound = math.exp(-(i + 1.0))
        if i > 0:
            bound = min(bound, gaps[i - 1] / 4.0)
        if i < n_circles - 1:
            bound = min(bound, gaps[i] / 4.0)
        r[i] = alpha * bound
    gens = tuple(
        _inversion_product(xs[0], r[0], xs[k], r[k], label=f"h{k + 1}")
        for k in range(1, n_circles)
    )
    min_gap = float(gaps.min())
    return GroupPresentation(
        gens,
        d=1,
        name="infinite_fuchsian",
        metadata={
            "geometrically_finite": False,
            "parabolic_free": True,
            "fixed_point_sampling": True,
            "resolution_floor": min_gap / 4.0,
            "alpha": alpha,
            "beta": beta,
            "n_circles": n_circles,
        },
    )


_BUILTINS = {
    "apollonian": _apollonian,
    "schottky": _schottky,
    "parabolic_cusp_fuchsian": _parabolic_cusp_fuchsian,
    "rank2_cusp": _rank2_cusp,
    "infinite_fuchsian": _infinite_fuchsian,
}


def builtin_group(name: str, **params) -> GroupPresentation:
    """Construct one of the named example groups.

    Available: apollonian, schottky, parabolic_cusp_fuchsian, rank2_cusp,
    infinite_fuchsian.
    """
    try:
        ctor = _BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin group {name!r}; available: {', '.join(sorted(_BUILTINS))}"
        ) from None
    return ctor(**params)
