"""Finitely generated Kleinian and Fuchsian groups.

A :class:`GroupPresentation` is a finite list of Moebius generators with a
declared boundary dimension.  The heavy lifting is orbit enumeration: a
breadth-first walk over reduced words with vectorized matrix products,
deduplication by the one same-element rule of :func:`hg._key_ints` and a
distance prune, producing the orbit of the canonical base point together
with a completeness horizon up to which the element list is believed
exhaustive.

On top of the enumeration sit parabolic/cusp detection with rank
computation, construction of a disjoint invariant horoball family (one
reference horoball per detected cusp orbit, shrunk by the dyadic factor
that makes it disjoint), and limit set sampling by radial projection.
The sign rule, projections and fixed points applied to whole orbits
are ``hypgeom``'s array functions; no copy of them lives here.
Cusp detection and the family decide when two boundary points are the
same point by one rule, stated at :func:`_cells`, and group what is the
same by one components helper, :func:`_components`; every grid cell the
module groups is keyed by the package's one rule, ``estdim._grid_keys``.
The family's overlap scan and deepest-member lookups search one grid per
band of member sizes with the package's one pair join,
``estdim._grid_pairs``.

Cusps and horoball families exist only in the bounded chart of
:func:`bounded_model`, where infinity is not a limit point: every cusp
point and every family member is finite, and a cusp point at infinity
is a :class:`CuspDetectionError` that names ``bounded_model``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import hypgeom as hg
from .estdim import PointCloud, _grid_cells, _grid_keys, _grid_pairs, _plane, _reach, _sorted_grid

# more than this many distinct elements within distance 1/2 of the base
# point is taken as proof of non-discreteness
NONDISCRETE_COUNT = 500
NONDISCRETE_RADIUS = 0.5
# distance slack for expanding words whose prefixes overshoot the target
DEFAULT_SLACK = 2.5
# the one default element budget of every orbit walk: enumerate_orbit,
# sample_limit_set, Pipeline and the CLI's --budget-words
DEFAULT_BUDGET_WORDS = 4_000_000
# candidate products (frontier rows times letters) per vectorized chunk
EXPAND_PRODUCTS = 200_000
# products formed at a time, so their temporaries stay in cache
PAIR_BLOCK = 1024
# products hashed at a time, so that a chunk's (n, 8) key rows and their
# float parts never exist whole
HASH_BLOCK = 4096
# relative slack per unit squared letter norm of the norm prefilter
# (see _reach_cuts)
REACH_MARGIN = 1e-12
# chunks of fewer frontier rows skip the norm prefilter: its fixed cost,
# about eight numpy calls, exceeds the products it saves there
REACH_MIN_ROWS = 64
# the walk's hashes of recent levels fold into the sorted array of all
# older ones once they outnumber this share of it, so that a level
# merges its new hashes into a small array rather than a large one
RECENT_SHARE = 0.125
# size octaves per grid of a horoball family's overlap scan and
# deepest-member lookup: wider bands mean fewer grids to join, but
# more candidate pairs for their smaller members
BAND_OCTAVES = 3
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
# points per block of the brute-force nearest-reference search, whose
# two block-sized temporaries then stay in cache
NEAREST_BLOCK = 1 << 14
# family members looked up at a time by HoroballFamily.members_at
MEMBER_BLOCK = 1 << 16


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
        if hg.isometry_kinds(np.stack([g.matrix for g in self.generators]))[0].any():
            raise ValueError("identity is not a useful generator")
        if self.d == 1 and any(g.d != 1 for g in self.generators):
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
    if d == 1 and any(g.d != 1 for g in gens):
        d = 2  # a complex conjugator moves a Fuchsian group off the real line
    return GroupPresentation(gens, d, name=group.name, metadata=meta)


def bounded_model(group: GroupPresentation) -> tuple[GroupPresentation, hg.MobiusMap]:
    """Conjugate a known gap point to infinity, bounding the limit set.

    Returns the (possibly unchanged) presentation and the conjugator used.
    """
    gap = group.metadata.get("gap_point")
    if gap is None:
        return group, hg.identity_map()
    q = hg._mobius_to_infinity(complex(gap))
    return conjugated_presentation(group, q), q


# ---------------------------------------------------------------------------
# identification keys
# ---------------------------------------------------------------------------


def _key_hashes(mats: np.ndarray) -> np.ndarray:
    """64-bit hash of each :func:`hg._key_ints` row: every word is xored in
    and the state mixed by the splitmix64 finalizer, a bijection that
    carries every bit into every other.  Rows are hashed ``HASH_BLOCK``
    at a time, so that a chunk's key rows never exist all at once."""
    out = np.zeros(len(mats), dtype=np.uint64)
    for s in range(0, len(mats), HASH_BLOCK):
        ints = hg._key_ints(mats[s : s + HASH_BLOCK]).view(np.uint64)
        h = out[s : s + HASH_BLOCK]
        for k in range(8):
            h ^= ints[:, k]
            h ^= h >> np.uint64(30)
            h *= np.uint64(0xBF58476D1CE4E5B9)
            h ^= h >> np.uint64(27)
            h *= np.uint64(0x94D049BB133111EB)
            h ^= h >> np.uint64(31)
    return out.view(np.int64)


def _first_of_each(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of ``keys`` and the index of each one's
    first occurrence, as ``np.unique(keys, return_index=True)`` gives
    them, by an unstable quicksort and each run's lowest index."""
    order = np.argsort(keys)
    ordered = keys[order]
    starts = np.empty(len(keys), dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    starts = np.flatnonzero(starts)
    first = np.minimum.reduceat(order, starts)
    del order  # before the values are gathered, to hold no more than np.unique
    return ordered[starts], first


def _unseen(seen: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Mask of the sorted ``keys`` absent from the non-empty sorted
    array ``seen``; sorted keys make each binary search start near where
    the previous one ended."""
    at = np.searchsorted(seen, keys)
    at[at == len(seen)] = 0  # beyond the largest: cannot match
    return seen[at] != keys


def _orbit_dists(mats: np.ndarray) -> np.ndarray:
    sq = np.abs(mats)
    np.square(sq, out=sq)  # in place: a chunk's products need no second copy
    fro = sq.sum(axis=(1, 2))
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
        """:func:`hg.boundary_projections` of the orbit points: (projections,
        finite_mask), rows with finite_mask False at infinity."""
        return hg.boundary_projections(*self.orbit_points())


def _columns(mats: np.ndarray) -> np.ndarray:
    """The real planes of 2x2 complex matrices as an (8, n) array: the
    real and imaginary parts of entry (i, j) are rows 4i + 2j and
    4i + 2j + 1."""
    return np.ascontiguousarray(mats.view(np.float64).reshape(len(mats), 8).T)


def _letter_forms(gens: np.ndarray) -> np.ndarray:
    """(5, letters) weights W with ||g a||_F^2 = F(g) @ W[:, a] for the
    features F(g) of :func:`_within_reach`.

    With H = g* g, A and B the squared norms of a's rows and C = sum_l
    conj(a_0l) a_1l, the norm is H00 A + H11 B + 2 Re(H01 C); the
    features split Im H01 into its two sums of products.
    """
    row0, row1 = gens[:, 0], gens[:, 1]
    c = (row0.conj() * row1).sum(axis=1)
    a, b = (np.abs(row0) ** 2).sum(axis=1), (np.abs(row1) ** 2).sum(axis=1)
    return np.stack([a, b, 2.0 * c.real, -2.0 * c.imag, 2.0 * c.imag])


def _reach_cuts(gens: np.ndarray, expand_dist: float) -> np.ndarray:
    """Per letter a, the cut above which :func:`_within_reach` skips the
    products g a: top (1 + ``REACH_MARGIN`` ||a||^2), with top = 2
    cosh(expand_dist).

    Every frontier row g has ||g||^2 <= top.  The estimate and the
    computed ||g a||^2 each lie within about 30 ulps of ||g||^2 ||a||^2
    of the exact norm, so they differ by less than 2e-14 top ||a||^2;
    the arccosh of the distance test moves its threshold by about
    ``expand_dist`` ulps of top, under 2e-13 top while top is finite.
    With ||a||^2 >= 2 and ``REACH_MARGIN`` = 1e-12 the cut clears both
    by a factor of 10 or more, so every product the exact test keeps is
    multiplied.  Where top is infinite, so is the cut, and nothing is
    skipped.
    """
    norms = (np.abs(gens) ** 2).sum(axis=(1, 2))
    with np.errstate(over="ignore"):
        return 2.0 * np.cosh(np.float64(expand_dist)) * (1.0 + REACH_MARGIN * norms)


def _within_reach(cols: np.ndarray, forms: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """(rows, letters) mask of the products g a, for the rows g with
    :func:`_columns` ``cols``, whose norm estimate is not above the
    letter's cut.  The features of g are H00, H11 and Re H01 of H = g* g
    and the two sums of products sum_i Re g_i0 Im g_i1 and
    sum_i Im g_i0 Re g_i1, whose difference is Im H01.  An estimate
    that is NaN or infinite stays in, so that the exact test decides."""
    x = cols.reshape(2, 2, 2, -1)  # (i, j, re/im, row)
    f = np.empty((5, x.shape[-1]))
    np.sum(x * x, axis=(0, 2), out=f[:2])
    np.sum(x[:, 0] * x[:, 1], axis=(0, 1), out=f[2])
    np.sum(x[:, 0] * x[:, 1, ::-1], axis=0, out=f[3:])
    # einsum's own loop, not BLAS, whose threads cost more than the sum
    est = np.einsum("pr,pa->ra", f, forms)
    return ~(est > cut) | np.isinf(est)


def _letter_planes(gens: np.ndarray) -> np.ndarray:
    """The letters' entries as the (re/im, term, l, letter) table whose
    four terms, times a row's entries (a_i0r, a_i0i, a_i1r, a_i1i), are
    the four real products of entry (i, l) of the row times the letter:
    (g_0lr, -g_0li, g_1lr, -g_1li) on the real plane and (g_0li, g_0lr,
    g_1li, g_1lr) on the imaginary one.  Negating a finite factor is
    exact, so adding these products gives the bits of subtracting."""
    g0, g1 = gens[:, 0].T, gens[:, 1].T  # (l, letter)
    re = np.stack([g0.real, -g0.imag, g1.real, -g1.imag])
    im = np.stack([g0.imag, g0.real, g1.imag, g1.real])
    return np.stack([re, im])


def _pair_products(cols: np.ndarray, planes: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The products ``m[r // k] @ gens[r % k]`` for the flat indices r of
    ``rows``, where ``cols`` are the :func:`_columns` of m and ``planes``
    the :func:`_letter_planes` of the k letters ``gens``.

    Bit for bit the rows ``rows`` of ``np.einsum("fij,kjl->fkil", m,
    gens)``, signed zeros, infinities and NaNs included: each entry is
    einsum's sum, from zero, of two complex products written out on the
    real and imaginary planes.  Products are formed ``PAIR_BLOCK`` at a
    time, so the temporaries stay in cache.
    """
    out = np.empty((len(rows), 2, 2, 2))
    size = min(len(rows), PAIR_BLOCK)
    buf = np.empty((2, 4, 2, 2, size))
    for s in range(0, len(rows), PAIR_BLOCK):
        f, k = np.divmod(rows[s : s + PAIR_BLOCK], planes.shape[-1])
        n = len(f)
        p = buf if n == size else buf[..., :n]
        # the row's (term, i) entries against the letter's (re/im, term, l)
        a = cols.take(f, axis=1).reshape(2, 4, 1, n).transpose(1, 0, 2, 3)
        np.multiply(a, planes.take(k, axis=-1)[:, :, None], out=p)
        # (re/im, j, i, l): the two products of each j ...
        q = np.add(p[:, 0::2], p[:, 1::2], out=p[:, 0::2])
        # ... and "+ 0.0", which turns a first sum of -0.0 into +0.0, as
        # einsum's zero-started sum does, before adding the second
        q[:, 0] += 0.0
        q = np.add(q[:, 0], q[:, 1], out=q[:, 0])
        out[s : s + n] = q.transpose(3, 1, 2, 0)
    return out.view(complex).reshape(-1, 2, 2)


def _gather(pieces: list, rows: Optional[np.ndarray]) -> np.ndarray:
    """The sorted rows ``rows`` (every row where None) of the
    concatenation of the arrays ``pieces``, gathered into one array.
    Each piece leaves the list once read, so that the pieces shrink as
    the result fills and neither their concatenation nor a second
    gathered copy ever exists."""
    n = sum(map(len, pieces)) if rows is None else len(rows)
    out = np.empty((n,) + pieces[0].shape[1:], dtype=pieces[0].dtype)
    at = start = 0
    for k, piece in enumerate(pieces):
        pieces[k] = None
        if rows is None:
            out[at : at + len(piece)] = piece
            at += len(piece)
        else:
            stop = int(np.searchsorted(rows, start + len(piece)))
            # "clip" writes straight into ``out``; the default mode buffers
            np.take(piece, rows[at:stop] - start, axis=0, out=out[at:stop], mode="clip")
            at = stop
        start += len(piece)
    return out


def _generator_stack(group: GroupPresentation) -> np.ndarray:
    mats = []
    for g in group.generators:
        mats.append(g.matrix)
        mats.append(g.inverse().matrix)
    return np.stack(mats)


def enumerate_orbit(
    group: GroupPresentation,
    max_dist: Optional[float] = None,
    *,
    max_elements: int = DEFAULT_BUDGET_WORDS,
    max_word_length: Optional[int] = None,
    slack: float = DEFAULT_SLACK,
) -> OrbitData:
    """Breadth-first enumeration of distinct group elements.

    Elements are reported when d(o, g o) <= max_dist; words are expanded
    while their running distance stays below max_dist + slack, so short
    elements reached only through overshooting prefixes are still found
    as long as the overshoot is under the slack.  Two products are the
    same element when their :func:`hg._key_ints` rows agree; the walk
    keeps the rows' 64-bit :func:`_key_hashes` of every element seen in
    two sorted arrays, ``visited`` and a smaller ``recent``.  Each level
    merges its new hashes into ``recent``, which folds into ``visited``
    once it holds more than ``RECENT_SHARE`` of its length, so a level
    pays for the recent hashes and not for everything seen; each chunk
    searches both arrays (``recent`` only when it is not empty).  Within
    a chunk and across a level's chunks, a duplicate resolves to its
    first row-major occurrence (:func:`_first_of_each`).

    When ``max_elements`` or ``max_word_length`` stops the walk early,
    ``truncated`` is set and ``t_valid`` drops to the smallest distance of
    an unexpanded element less the slack: an element within that horizon
    reached through prefixes overshooting it by less than the slack is
    found, the same promise an untruncated walk makes for ``max_dist``.
    Both caps are checked at one place, the start of every chunk of
    ``EXPAND_PRODUCTS`` candidate products, a level's first included; the
    element budget counts ``visited``, ``recent`` and the level's new
    elements so far, and the word-length cap binds at a level's first
    chunk.  The default budget, ``DEFAULT_BUDGET_WORDS``, is the one
    ``verify``, ``generate`` and ``plot`` share.  On a cusped group a
    budget stop collapses ``t_valid`` far below ``max_dist``: the walk is
    breadth-first, so the short elements at the end of long parabolic
    chains are still unexpanded when the budget runs out (the bounded
    gasket at distance 11 stops at ``t_valid`` 2.125 at the default).

    Only the candidates g a that can land inside the expansion horizon
    are multiplied: a few flops per (row, letter) estimate ||g a||^2 from
    g* g and three numbers per letter (:func:`_within_reach`), and
    candidates whose estimate lies above the cut of :func:`_reach_cuts`
    are skipped.  The cut's margin covers the rounding of the estimate,
    of the product and of the distance test, so the products formed
    (:func:`_pair_products`, bit for bit einsum's) and then kept by the
    exact distance test are those a walk multiplying every candidate
    keeps, in the same order.  A walk bounded by ``max_word_length``
    alone skips nothing, and neither does a chunk of fewer than
    ``REACH_MIN_ROWS`` rows, whose products the exact test alone decides.

    The working set is one copy of each level.  A level's chunks leave
    their new elements as pieces; the expanded level is freed before the
    next one is assembled, and :func:`_gather` moves the pieces into one
    array, dropping each once read.  So the walk holds the elements
    reported so far, one level with the pieces of the next (or, while
    they are assembled, the pieces and the level they fill) and one
    chunk's products, and at its end the reported elements twice, as
    their per-level arrays are joined.
    """
    if max_dist is None and max_word_length is None:
        raise ValueError("need max_dist or max_word_length")
    report_dist = math.inf if max_dist is None else float(max_dist)
    expand_dist = report_dist + slack
    gens = _generator_stack(group)
    planes = _letter_planes(gens)
    forms = _letter_forms(gens)
    cut = _reach_cuts(gens, expand_dist)
    n_letters = len(gens)
    chunk_rows = max(1, EXPAND_PRODUCTS // n_letters)
    letter_ids = np.arange(n_letters, dtype=np.uint8)

    ident = np.eye(2, dtype=complex)
    # every element seen: the sorted hashes of older levels (the head of
    # buf) and the sorted hashes of recent ones
    visited = buf = _key_hashes(ident[None])
    recent = visited[:0]
    acc_m = [ident[None].copy()]
    acc_dist = [np.zeros(1)]
    acc_len = [np.zeros(1, dtype=np.int32)]

    frontier = ident[None].copy()
    frontier_last = np.array([255], dtype=np.uint8)  # 255: no previous letter
    frontier_dist = np.zeros(1)

    max_level = math.inf if max_word_length is None else max_word_length
    truncated = False
    horizon = math.inf
    level = 0
    n_close = 0

    while len(frontier):
        level += 1
        n_seen = len(visited) + len(recent)
        lvl_m, lvl_dist, lvl_last, lvl_hash = [], [], [], []
        n_lvl = 0  # the level's new elements so far, chunk duplicates included
        for start in range(0, len(frontier), chunk_rows):
            if level > max_level or n_seen + n_lvl >= max_elements:
                truncated = True
                horizon = float(frontier_dist[start:].min())
                break
            cols = _columns(frontier[start : start + chunk_rows])
            # no letter undoes the previous one, and products whose norm
            # estimate lies beyond the horizon are never formed
            near = letter_ids != (frontier_last[start : start + chunk_rows, None] ^ 1)
            if cols.shape[1] >= REACH_MIN_ROWS:
                near &= _within_reach(cols, forms, cut)
            rows = np.flatnonzero(near)
            cand = _pair_products(cols, planes, rows)
            dists = _orbit_dists(cand)
            # matrices whose norm overflows double precision are dropped,
            # they sit far beyond any usable horizon
            keep = (dists <= expand_dist) & np.isfinite(dists)
            if not keep.all():
                keep = np.flatnonzero(keep)
                rows, cand, dists = rows[keep], cand[keep], dists[keep]
            if not len(rows):
                continue
            cand = hg._canonicalize_signs(cand)
            hashes = _key_hashes(cand)
            uniq, first = _first_of_each(hashes)
            fresh = _unseen(visited, uniq)
            if len(recent):
                fresh &= _unseen(recent, uniq)
            first = first[fresh]
            first.sort()  # back to row order
            if not len(first):
                continue
            rows = rows[first]
            lvl_m.append(cand[first])
            lvl_dist.append(dists[first])
            lvl_last.append((rows % n_letters).astype(np.uint8))
            lvl_hash.append(hashes[first])
            n_lvl += len(first)

        # the expanded level goes before the next one is assembled
        del frontier
        if not lvl_dist:  # nothing new: the walk is done, or was stopped
            break

        new_dist = np.concatenate(lvl_dist)
        new_last = np.concatenate(lvl_last)
        # chunks were deduplicated locally; a duplicate can straddle chunks
        new_hash, cross = _first_of_each(np.concatenate(lvl_hash))
        if len(cross) < len(new_dist):
            cross.sort()
            new_dist, new_last = new_dist[cross], new_last[cross]
        else:
            cross = None
        frontier = _gather(lvl_m, cross)
        # the stable sort (timsort) merges two sorted runs in one pass
        recent = np.concatenate([recent, new_hash])
        recent.sort(kind="stable")
        if len(recent) > RECENT_SHARE * len(visited):
            # visited is the sorted head of buf, which grows
            # geometrically, so a fold does not pay for a fresh copy of
            # everything seen
            end = len(visited) + len(recent)
            if end > len(buf):
                buf = np.concatenate([visited, np.empty(end, dtype=np.int64)])
            buf[len(visited) : end] = recent
            visited = buf[:end]
            visited.sort(kind="stable")
            recent = visited[:0]

        report = new_dist <= report_dist
        acc_m.append(frontier if report.all() else frontier[report])
        acc_dist.append(new_dist[report])
        acc_len.append(np.full(int(report.sum()), level, dtype=np.int32))

        n_close += int((new_dist[report] <= NONDISCRETE_RADIUS).sum())
        if n_close > NONDISCRETE_COUNT:
            raise NonDiscreteError(
                f"{n_close} distinct elements within distance "
                f"{NONDISCRETE_RADIUS} of the base point; the group is "
                "almost certainly non-discrete"
            )

        frontier_last = new_last
        frontier_dist = new_dist
        if truncated:
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


def _cell_lookup(targets: np.ndarray, side: float):
    """The lookup ``pairs(z)`` of index pairs (i, j) with z[i] the same
    point as targets[j] by the :func:`_cells` rule: at each offset, every
    point is paired with the lowest target in its cell by ``estdim._grid_keys``.
    The targets' cells and the reach map below are built once, for every
    ``z`` looked up.  Only points whose real part falls in a bucket within
    2 side of some target's, and whose imaginary part lies within a cell
    of the targets' span, are looked up; the others, NaN included, pair
    with nothing and never reach the range guard."""
    none = np.empty(0, dtype=np.intp)
    n = len(targets)
    if not n:
        return lambda z: (none, none)
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
    near = np.cumsum(edges) > 0
    y_lo, y_hi = targets.imag.min() - side, targets.imag.max() + side
    target_cells = [_cells(targets, side, frac) for frac in (0.0, 0.5)]

    def pairs(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if not len(z):
            return none, none
        rows = np.flatnonzero(near[bucket(z.real)])
        y = z.imag[rows]
        rows = rows[(y >= y_lo) & (y <= y_hi)]
        pairs_i, pairs_j = [none], [none]
        for frac, (t0, t1) in zip((0.0, 0.5), target_cells):
            c0, c1 = _cells(z[rows], side, frac)
            keys = _grid_keys(np.concatenate([t0, c0]), np.concatenate([t1, c1]))[0]
            # equal ids are equal cells
            _, ids = np.unique(keys, return_inverse=True)
            lowest = np.full(ids.max() + 1, n)
            np.minimum.at(lowest, ids[:n], np.arange(n))
            j = lowest[ids[n:]]
            hit = j < n
            pairs_i.append(rows[hit])
            pairs_j.append(j[hit])
        return np.concatenate(pairs_i), np.concatenate(pairs_j)

    return pairs


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
    by the :func:`_cells` rule at ``CUSP_CLUSTER_TOL``.  Clusters are
    joined into orbits when a generator carries a fixed point into a
    cluster's cell.  The orbit partition is a lower bound on the truth
    (two clusters whose connecting element was not enumerated stay
    separate); downstream horoball construction merges orbits when it
    finds evidence for it.  A fixed point at infinity, or one that a
    generator sends there, raises :class:`CuspDetectionError`: cusps
    exist only in the bounded chart.
    """
    group = orbit.group
    if group is None:
        raise ValueError("orbit does not reference its group presentation")
    para = (orbit.word_lengths > 0) & hg.isometry_kinds(orbit.matrices)[1]
    pm = orbit.matrices[para]
    pd = orbit.dists[para]
    plen = orbit.word_lengths[para]
    n_para = len(pm)

    if n_para == 0:
        return CuspSummary((), None, None, 0, orbit.truncated)

    at_inf, roots = hg.fixed_points(pm, group.d)
    fp = roots[:, 0]
    if at_inf.any():
        raise CuspDetectionError(hg._AT_INFINITY)

    # one lookup per distinct fixed point value, by its first parabolic
    vals, first, inv = np.unique(fp, return_index=True, return_inverse=True)
    lookup = _cell_lookup(vals, CUSP_CLUSTER_TOL)
    ki, kj = lookup(vals)
    same_i = np.concatenate([np.arange(n_para), first[ki]])
    same_j = np.concatenate([first[inv], first[kj]])
    cluster = _components(n_para, same_i, same_j)

    # a generator image of a fixed point joins the cluster whose cell it
    # lands in
    gens = _generator_stack(group)
    img, _, at_inf = hg.boundary_images(gens[:, None], vals)
    if at_inf.any():
        raise CuspDetectionError(hg._AT_INFINITY)
    qi, tj = lookup(img.ravel())
    comp = _components(
        n_para,
        np.concatenate([same_i, np.tile(first, len(gens))[qi]]),
        np.concatenate([same_j, first[tj]]),
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
        taus = -ms[:, 1, 0] / hg.boundary_images(ms, fp[cl])[1]
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
        point = hg._boundary_from_hs(fp[best], group.d)
        gen = hg.MobiusMap(pm[best])
        cusps.append(Cusp(point, int(rank[comp[best]]), gen, int(n_conj)))

    cusps.sort(key=lambda cu: cu.point.coords)
    ranks = [cu.rank for cu in cusps]
    return CuspSummary(tuple(cusps), min(ranks), max(ranks), n_para, orbit.truncated)


# ---------------------------------------------------------------------------
# invariant horoball families
# ---------------------------------------------------------------------------


@dataclass
class HoroballFamily:
    """Family of horoballs over the detected cusp orbits.

    ``bases``/``sizes`` describe the horoballs (tangent-point diameter
    convention), all based at finite points.  ``theta`` is the dyadic
    squeeze that was applied to the raw family to make it disjoint;
    theta = 1 means the family is not squeezed, and its members may
    overlap (:func:`unsqueezed_horoballs`).
    """

    bases: np.ndarray
    sizes: np.ndarray
    ranks: np.ndarray
    d: int
    theta: float = 1.0
    n_references: int = 0
    _bins: Optional[list] = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return len(self.sizes)

    def to_horoballs(self) -> list[hg.Horoball]:
        return [
            hg.Horoball(hg._boundary_from_hs(p, self.d), float(s), int(r))
            for p, s, r in zip(self.bases, self.sizes, self.ranks)
        ]

    def members_at(self, points) -> np.ndarray:
        """For each complex point, the lowest-index member based at the same
        point by the :func:`_cells` rule at ``CUSP_CLUSTER_TOL``, or
        ``len(sizes)`` where none is.  Where two of the points share a
        cell, that cell's members go to the lower one."""
        points = np.asarray(points, dtype=complex).ravel()
        # few points, many members: the members are looked up among the
        # points, ``MEMBER_BLOCK`` at a time
        lookup = _cell_lookup(points, CUSP_CLUSTER_TOL)
        member = np.full(len(points), len(self.sizes))
        for a in range(0, len(self.bases), MEMBER_BLOCK):
            i, j = lookup(self.bases[a : a + MEMBER_BLOCK])
            np.minimum.at(member, j, i + a)
        return member

    def _bands(self) -> list:
        # [member indices, s_max, grid] per size band, each grid built
        # when a lookup first needs it
        if self._bins is None:
            self._bins = [[idx, s_max, None] for idx, s_max in _size_bands(self.sizes)]
        return self._bins

    def deepest(self, w: np.ndarray, h: np.ndarray):
        """Escape depth and cusp rank of the member containing each point.

        Points outside every member get depth 0 and rank 0.  The family
        is disjoint, so "the" member is unambiguous.  A point at height
        h lies inside a member of size s only where h < s, and then only
        within sqrt(s_max h) <= s_max of its base, s_max being the top
        of the member's band; so only the bands above some point's
        height are searched, each in its own grid.
        """
        w = np.asarray(w, dtype=complex).ravel()
        h = np.asarray(h, dtype=float).ravel()
        depth = np.zeros(len(w))
        rank = np.zeros(len(w), dtype=np.int32)
        # squared by the C library's pow, as a scalar h ** 2 is; numpy's
        # vector square h * h differs from it in the last bit for some h
        h_sq = np.array([x**2 for x in h.tolist()])
        plane = np.array([w.real, w.imag])
        for band in self._bands():
            idx, s_max, grid = band
            cand = np.flatnonzero(h <= s_max)
            if not len(cand):
                continue
            if grid is None:
                band[2] = grid = _band_grid(self.bases, idx, s_max)
            # one row per (point, candidate member); every row of a point
            # in one run
            for a, _, row, at, _ in _grid_pairs(grid, s_max, plane[:, cand]):
                pt, gi = cand[a + row], grid.order[at]
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


def _size_bands(sizes: np.ndarray):
    """The bands of ``BAND_OCTAVES`` size octaves, counted from size 1,
    from the smallest: (int32 member indices, s_max) per band, with
    every member's size below s_max, the band's top.

    Members of sizes s and t overlap or touch only within sqrt(s t) of
    each other (:func:`_max_overlap_ratio`); a point at height h lies
    inside a member only within sqrt(s_max h) of its base
    (:meth:`HoroballFamily.deepest`).
    """
    if len(sizes) == 0:
        return
    band = np.log2(sizes)
    band /= BAND_OCTAVES
    np.floor(band, out=band)
    band = band.astype(np.int16)  # the octaves of doubles fit
    for b in np.unique(band):
        s_max = float(2.0 ** (BAND_OCTAVES * (int(b) + 1)))
        yield np.flatnonzero(band == b).astype(np.int32), s_max


def _band_grid(bases: np.ndarray, idx: np.ndarray, s_max: float):
    """The pair-join grid (``estdim._sorted_grid``) of the members
    ``idx`` of one band, its ``order`` holding their indices.  Its side
    is a whisker above the radius of the band's join with the next band
    up, sqrt(2^BAND_OCTAVES) s_max, so that this join and the band's
    join with itself both take 3x3 blocks however the cells round; a
    finer grid would search more blocks that hold nothing."""
    side = math.sqrt(2.0**BAND_OCTAVES) * s_max * (1.0 + 1e-5)
    # the members' coordinates go straight into the rows that the grid
    # sorts in place and keeps
    plane = np.empty((2, len(idx)))
    plane[0] = bases.real[idx]
    plane[1] = bases.imag[idx]
    grid = _sorted_grid(plane, side)
    return grid._replace(order=idx[grid.order])


def _max_overlap_ratio(bases: np.ndarray, sizes: np.ndarray) -> float:
    """max over pairs of s_i s_j / |p_i - p_j|^2.

    1.0 means tangency; above 1 means overlap.  Pairs are joined band
    against band (:func:`_size_bands`) over one grid per band
    (:func:`_band_grid`), each pair of bands in whichever direction
    searches fewer key ranges and each band with itself once, and kept
    within the geometric mean of the two bands' tops: a pair with ratio
    1 or more lies closer than sqrt(s_i s_j), so every such pair is
    kept.  Every pair kept has its |p_i - p_j|^2 computed from ``bases``
    by one formula.  So the largest ratio at or above 1 does not depend
    on the bands, and scaling every size by a power of two scales it
    exactly.
    """
    worst = 0.0
    if len(sizes) < 2:
        return worst
    grids = [(_band_grid(bases, idx, top), top) for idx, top in _size_bands(sizes)]
    for bi, (grid_i, top_i) in enumerate(grids):
        for grid_j, top_j in grids[bi:]:
            r = math.sqrt(top_i * top_j) * (1.0 + 1e-12)
            # of band j's points in band i's grid and band i's in band j's,
            # the join that searches fewer key ranges runs
            in_i = len(grid_j.key) * (2 * _reach(grid_i, r) + 1)
            in_j = len(grid_i.key) * (2 * _reach(grid_j, r) + 1)
            g, qg = (grid_i, grid_j) if in_i <= in_j else (grid_j, grid_i)
            for a, _, q, at, d2 in _grid_pairs(g, r, None if g is qg else qg.xy):
                near = d2 <= r * r
                d2 = d2[near]
                if not len(d2):
                    continue
                if (d2 == 0.0).any():
                    return math.inf
                ratio = sizes[g.order[at[near]]]
                ratio *= sizes[qg.order[a + q[near]]]
                ratio /= d2
                worst = max(worst, float(ratio.max()))
    return worst


def _nearest_distance(z: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Distance from each complex point ``z`` to the nearest of the few
    complex points ``pts``, as cKDTree's nearest-neighbour query computes
    it: the square root of the least dx^2 + dy^2.  Each block of
    ``NEAREST_BLOCK`` points meets the points ``pts`` one at a time."""
    out = np.full(len(z), np.inf)
    sq, dy = np.empty(NEAREST_BLOCK), np.empty(NEAREST_BLOCK)
    for a in range(0, len(z), NEAREST_BLOCK):
        w = z[a : a + NEAREST_BLOCK]
        best, s, t = out[a : a + len(w)], sq[: len(w)], dy[: len(w)]
        for p in pts.tolist():
            np.subtract(w.real, p.real, out=s)
            s *= s
            np.subtract(w.imag, p.imag, out=t)
            t *= t
            s += t
            np.minimum(best, s, out=best)
    return np.sqrt(out, out=out)


def _may_join(mats: np.ndarray, pts: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Indices of the matrices that may carry one of the points ``pts``
    into the cell of another (see :func:`_premerge_refs`).

    A row g = [[a, b], [c, d]] with c != 0 carries every point p to
    g(p) = a/c - (ad - bc) / (c (c p + d)), within the spread
    |ad - bc| / (|c|^2 rho) of its centre a/c, where rho is the distance
    from its pole -d/c to the nearest point.  The row is skipped when
    the nearest point to the centre lies farther than twice the spread
    plus 100 ``CUSP_CLUSTER_TOL`` (points sharing a cell lie within 1.5
    ``CUSP_CLUSTER_TOL`` of each other) plus ``err``.  The spread's
    numerator adds a bound on the rounding of ad - bc, and ``err``
    bounds, ten times over, the rounding of the images that the exact
    path computes and of the centre; where the pole lies within rounding
    of a point, ``err`` outgrows every distance to the points and the
    row is kept.  Rows with c = 0, or a non-finite centre or pole, or
    any non-finite entry, are kept.
    """
    a, b, c, d = (mats[:, r, s] for r, s in ((0, 0), (0, 1), (1, 0), (1, 1)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        centre, pole = a / c, -d / c
        rows = np.flatnonzero(np.isfinite(centre) & np.isfinite(pole))
        rho = _nearest_distance(pole[rows], pts)
        dist = _nearest_distance(centre[rows], pts)
        a, b, c, d, m = a[rows], b[rows], c[rows], d[rows], scale[rows]
        spread = np.abs(a * d - b * c)
        spread += 1e-15 * m * m
        c = np.abs(c)
        spread /= c * c * rho
        reach = 1.0 + np.abs(pts).max()
        err = 1e-14 * (1.0 + m * reach / (c * rho)) * (reach + np.abs(centre[rows]) + spread)
        far = dist > 2.0 * spread + 100.0 * CUSP_CLUSTER_TOL + err
    keep = np.ones(len(mats), dtype=bool)
    keep[rows[far]] = False
    return np.flatnonzero(keep)


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
    :func:`_cells` rule at ``CUSP_CLUSTER_TOL``; an image at infinity
    joins nothing.  Only the matrices that :func:`_may_join` keeps, those
    whose images of the references can come near one, are mapped.
    """
    if len(refs) < 2:
        return np.arange(len(refs))
    scale = hg._entry_scales(mats)
    pts = np.array([p for p, _ in refs], dtype=complex)
    rows = _may_join(mats, pts, scale)
    mats, scale = mats[rows], scale[rows]
    lookup = _cell_lookup(pts, CUSP_CLUSTER_TOL)
    src, dst = [], []
    for i, p in enumerate(pts):
        w, _, at_inf = hg.boundary_images(mats, p, scale)
        w[at_inf] = np.nan
        j = lookup(w)[1]
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


def _squeeze_theta(bases: np.ndarray, sizes: np.ndarray) -> float:
    """The dyadic squeeze theta = 2^-m of a raw horoball family.

    m is the smallest exponent that makes the squeezed members pairwise
    disjoint (overlap ratio at most 1 + 1e-6) and keeps the base point at
    height 1 strictly outside all of them.  It is read in closed form off
    the base point, and off the largest overlap ratio once a scan has
    found one; one scan of the family squeezed by that theta accepts it.
    A second scan runs only when the overlap decides m.  ``sizes`` is
    squeezed in place for each scan and restored exactly.
    """
    # the enumeration base at height 1 must stay strictly outside every
    # member, else rays have no horoball-free start and escape depths
    # lose their normalization; a ball swallows it exactly when its
    # diameter exceeds 1 + |base|^2
    base_ratio = float((sizes / (1.0 + np.abs(bases) ** 2)).max()) if len(sizes) else 0.0
    worst = 0.0
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
        if worst * theta * theta > 1.0 + 1e-6 or base_ratio * theta > 1.0 - 1e-6:
            m += 1
        elif scanned == m:
            # this m's scan read worst * theta^2 <= 1 + 1e-6 and kept m
            return theta
        else:
            sizes *= theta
            check = _max_overlap_ratio(bases, sizes)
            sizes /= theta
            # Exact: a dyadic theta scales every pair's ratio by exactly
            # theta^2, and the scan finds every pair whose squeezed ratio
            # is near 1 or above.  So when the raw family's worst pair
            # could raise m, check / theta^2 is its raw ratio bit for bit
            # and m moves where a raw scan would put it.
            worst, scanned = check / (theta * theta), m
    raise CuspDetectionError(
        f"family needs theta below 2^-{MAX_SHRINK_STEPS}; "
        "the input looks degenerate"
    )


def unsqueezed_horoballs(orbit: OrbitData, cusps: CuspSummary) -> HoroballFamily:
    """Invariant horoball family from enumerated group elements, before
    its squeeze (theta = 1).

    One unit reference horoball is placed at a representative of each
    detected cusp orbit and pushed around by every enumerated element.
    If two references turn out to generate horoballs at the same base
    point with different sizes, that proves the two detected orbits are
    really one; the later reference is dropped and construction restarts.
    Members may overlap; :func:`squeeze_horoballs` makes them disjoint.
    A dyadic squeeze scales every size exactly, so the members' order by
    size is that of the squeezed family.

    The working set is one raw family: :func:`_raw_family` writes every
    reference's images into arrays of the raw family's size, the dedup
    passes hold the working arrays of :func:`_dedup_pass` beside it, and
    the kept members move down in place before the arrays shrink to
    them, so no copy of the kept family exists beside the raw one.
    """
    if not cusps.has_cusps:
        raise CuspDetectionError("no parabolic elements found; the group has no cusps")

    refs = [(hg._hs_boundary(cu.point), cu.rank) for cu in cusps.cusps]

    active = _fold_refs(refs, range(len(refs)), _premerge_refs(orbit.matrices, refs))
    while True:
        bases, sizes, ref_of = _raw_family(orbit.matrices, refs, active)
        keep = _dedup_and_find_conflict(bases, sizes, ref_of)
        if not isinstance(keep, tuple):
            break
        # conflicting sizes between references prove their detected
        # orbits coincide; merge every proven pair in one restart
        i, j = np.array(keep[1]).T
        if (i == j).any():
            raise CuspDetectionError(
                "inconsistent horoball sizes within one cusp orbit; "
                "parabolic detection is unreliable for this input"
            )
        active = _fold_refs(refs, active, _components(len(refs), i, j))
    # the kept members move down in place, a block at a time: keep is
    # ascending, so a block overwrites only rows already read; the arrays
    # then shrink to the kept members, and ref_of becomes the ranks
    rank_of = np.array([rank for _, rank in refs], dtype=np.int32)
    n = len(keep)
    for a in range(0, n, MEMBER_BLOCK):
        at = keep[a : a + MEMBER_BLOCK]
        bases[a : a + len(at)] = bases[at]
        sizes[a : a + len(at)] = sizes[at]
        ref_of[a : a + len(at)] = rank_of[ref_of[at]]
    del keep
    # no view of the three arrays exists here, so the shrink skips numpy's
    # reference count check: a profiler or tracer holding this frame's
    # locals would fail it
    bases.resize(n, refcheck=False)
    sizes.resize(n, refcheck=False)
    ref_of.resize(n, refcheck=False)
    return HoroballFamily(bases=bases, sizes=sizes, ranks=ref_of, d=orbit.d, n_references=len(active))


def squeeze_horoballs(family: HoroballFamily) -> HoroballFamily:
    """The family with every size shrunk by one dyadic theta = 2^-m: the
    smallest m that makes the members pairwise disjoint and keeps the
    base point at height 1 outside all of them (:func:`_squeeze_theta`).
    An overlap scan of the squeezed family accepts theta; it is the only
    scan when the base point decides m, and a second one runs only when
    the overlap decides."""
    theta = _squeeze_theta(family.bases, family.sizes)
    # the squeezed sizes need grids of their own
    return replace(family, sizes=family.sizes * theta, theta=theta, _bins=None)


def standard_horoballs(orbit: OrbitData, cusps: CuspSummary) -> HoroballFamily:
    """Invariant disjoint horoball family from enumerated group elements:
    :func:`unsqueezed_horoballs`, then :func:`squeeze_horoballs`."""
    return squeeze_horoballs(unsqueezed_horoballs(orbit, cusps))


def _raw_family(mats, refs, active):
    """Unit reference horoballs at every active reference, pushed around by
    every matrix: (bases, sizes, ref_of), one reference's images after
    another, each written into arrays of the family's final size."""
    n = len(mats)
    scale = hg._entry_scales(mats)
    bases = np.empty(n * len(active), dtype=complex)
    sizes = np.empty(n * len(active))
    for k, ri in enumerate(active):
        try:
            bases[k * n : (k + 1) * n], sizes[k * n : (k + 1) * n] = hg.horoball_images(
                mats, refs[ri][0], scale=scale
            )
        except hg.ModelError:
            raise CuspDetectionError(hg._AT_INFINITY) from None
    return bases, sizes, np.repeat(np.array(active, dtype=np.int32), n)


def _dedup_and_find_conflict(bases, sizes, ref_of):
    """Indices of base-deduplicated horoballs, or a merge directive.

    Bases are the same by the :func:`_cells` rule at ``DEDUP_GRID``, one
    pass per offset, the second over the entries the first kept.  Two
    entries at the same base with agreeing sizes are duplicates (the
    stabilizer coset redundancy); agreeing means within
    ``DEDUP_SIZE_REL_TOL`` relative size.  Disagreeing macroscopic sizes
    from different references prove the referenced cusp orbits coincide.
    """
    keep, pairs = _dedup_pass(bases, sizes, 0.0)
    if pairs is None:
        # the second pass holds the first one's rows throughout: as
        # int32, they take half the bytes
        keep = keep.astype(np.int32)
        keep, pairs = _dedup_pass(bases, sizes, 0.5, keep)
    if pairs is not None:
        return ("merge", sorted({(int(ref_of[i]), int(ref_of[j])) for i, j in pairs}))
    return keep.astype(np.intp)


def _lead_first(order, new_group, sizes):
    """Move each cell's leader to the front of its run in ``order``, in
    place: the member of largest size and, on ties, lowest index, the
    member a stable sort by falling size would put first (NaN sizes
    last).  Only the runs of two or more members are searched."""
    multi = ~new_group
    multi[:-1] |= multi[1:]
    sub = np.flatnonzero(multi)
    del multi
    if not len(sub):
        return
    idx = order[sub]
    s = sizes[idx]
    starts = np.flatnonzero(new_group[sub])
    counts = np.diff(starts, append=len(sub))
    # the lowest index among each run's largest sizes; fmax skips NaN,
    # and in a run of NaN sizes only the lowest index leads
    top = np.fmax.reduceat(s, starts).repeat(counts)
    top = (s == top) | np.isnan(top)
    del s
    lead = np.minimum.reduceat(np.where(top, idx, np.iinfo(idx.dtype).max), starts)
    del top
    at = sub[np.flatnonzero(idx == lead.repeat(counts))]
    first = sub[starts]
    order[first], order[at] = order[at], order[first]


def _dedup_pass(bases, sizes, frac, rows=None):
    """One grid pass over the sorted indices ``rows`` (default all):
    (sorted indices kept, None), or (None, index pairs (cell leader,
    member) whose sizes disagree).

    Each row's cell gets its exact key from its two :func:`_cells`
    indices by ``estdim._grid_keys``, packed in place where it can; one
    quicksort groups the cells.  Each cell's leader is its member of
    largest size and, on ties, lowest index (:func:`_lead_first`), the
    member a sort by cell and falling size puts first.  A row is kept
    when it leads its cell or its size disagrees with the leader's.

    The cells are computed at the rows only, and the cell starts, the
    leaders and the size agreement ``MEMBER_BLOCK`` sorted rows at a
    time.  So besides its inputs a pass holds two row-sized integer
    arrays at a time (the two cell indices, then the keys and their
    order, then the order and the kept rows), a row-sized mask, the
    arrays of :func:`_lead_first` over the rows whose cell they share,
    and blocks."""
    n = len(bases) if rows is None else len(rows)
    c0, c1 = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    for a in range(0, n, MEMBER_BLOCK):
        z = bases[a : a + MEMBER_BLOCK] if rows is None else bases[rows[a : a + MEMBER_BLOCK]]
        c0[a : a + len(z)], c1[a : a + len(z)] = _cells(z, DEDUP_GRID, frac)
    key = _grid_keys(c0, c1)[0]
    del c0, c1
    order = np.argsort(key)
    # a new cell starts where the sorted key changes
    new_group = np.ones(n, dtype=bool)
    for a in range(0, n, MEMBER_BLOCK):
        lo = max(a - 1, 0)
        k = key[order[lo : a + MEMBER_BLOCK]]
        np.not_equal(k[1:], k[:-1], out=new_group[lo + 1 : a + MEMBER_BLOCK])
    del key
    if rows is not None:
        order = order.astype(rows.dtype, copy=False)
        for a in range(0, n, MEMBER_BLOCK):
            order[a : a + MEMBER_BLOCK] = rows[order[a : a + MEMBER_BLOCK]]
    _lead_first(order, new_group, sizes)
    # per block: each row's cell leader, the last cell start at or
    # before it; a row whose size disagrees with its leader's is odd,
    # and a conflict where both sizes are macroscopic
    conflicts = []
    lead_at = 0
    for a in range(0, n, MEMBER_BLOCK):
        start = new_group[a : a + MEMBER_BLOCK]
        lead = np.arange(a, a + len(start))
        lead[~start] = lead_at
        np.maximum.accumulate(lead, out=lead)
        lead_at = lead[-1]
        size = sizes[order[a : a + len(start)]]
        lead_size = sizes[order[lead]]
        macro = (size > 1e-9) & (lead_size > 1e-9)
        gap = np.subtract(size, lead_size, out=size)
        np.abs(gap, out=gap)
        lead_size *= DEDUP_SIZE_REL_TOL
        odd = ~(gap <= lead_size)
        conflict = ~start & odd & macro
        if conflict.any():
            at = np.flatnonzero(conflict)
            conflicts.append(np.column_stack([order[lead[at]], order[a + at]]))
        # the block's starts are read: the mask becomes the rows kept
        start |= odd
    if conflicts:
        return None, np.concatenate(conflicts)
    keep = order[new_group]
    keep.sort()
    return keep, None


# ---------------------------------------------------------------------------
# limit set sampling
# ---------------------------------------------------------------------------


def _loxodromic_fixed_points(orbit: OrbitData) -> np.ndarray:
    m = orbit.matrices
    lox = (orbit.word_lengths > 0) & hg.isometry_kinds(m)[2]
    # the first roots, the second roots, then the finite roots of the
    # maps that fix infinity
    at_inf, roots = hg.fixed_points(m[lox], orbit.d)
    pts = np.concatenate([roots[~at_inf, 0], roots[~at_inf, 1], roots[at_inf, 0]])
    return pts[~np.isnan(pts)]


def _planar_coords(pts: np.ndarray, d: int) -> np.ndarray:
    """Complex boundary points as coordinate rows: one column (the real
    part) when d=1, two when d=2."""
    if d == 1:
        bad = np.abs(pts.imag) > hg.REAL_LINE_TOL * np.maximum(1.0, np.abs(pts))
        if bad.any():
            raise ValueError(
                "projections left the real line for a d=1 group; "
                "check the presentation"
            )
        return pts.real[:, None]
    return np.column_stack([pts.real, pts.imag])


def sample_limit_set(
    group: GroupPresentation,
    target_resolution: float = 1e-3,
    *,
    max_elements: int = DEFAULT_BUDGET_WORDS,
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
        # the loxodromic elements' fixed points, then the generators' finite
        # fixed points in generator order
        gen_fps = hg.fixed_points(np.stack([g.matrix for g in group.generators]), group.d)[1]
        fps = np.concatenate([_loxodromic_fixed_points(orbit), gen_fps[~np.isnan(gen_fps)]])
        n_fixed = len(fps)
        pts = np.concatenate([pts, fps])

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
    keys = _grid_keys(*_grid_cells(_plane(coords), resolution / 16.0))[0]
    _, first = np.unique(keys, return_index=True)
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
