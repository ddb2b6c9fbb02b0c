"""Hyperbolic geometry in the Poincare ball and upper halfspace models.

Points live in hyperbolic space H^(d+1) with boundary dimension d = 1
(Fuchsian setting, boundary a circle/line) or d = 2 (Kleinian setting,
boundary a sphere/plane).  Two coordinate models are supported:

``ball``
    open unit ball in R^(d+1) with the metric 2|dx| / (1 - |x|^2);
    boundary points are unit vectors.

``halfspace``
    R^d x (0, inf), coordinates ``(w_1, ..., w_d, h)`` with height last,
    metric |dx| / h; boundary points are points of R^d or the point at
    infinity.

The two models are identified by the inversion in the sphere of radius
sqrt(2) centred at -e_n (n = d+1), which maps the ball onto the upper
halfspace, the ball centre to the height-1 point and the south pole to
infinity.  All Moebius arithmetic happens in the halfspace model where a
map is an ordinary 2x2 real (d=1) or complex (d=2) matrix of determinant
one acting by fractional-linear transformations on the boundary and by
the quaternionic extension on interior points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

BALL = "ball"
HALFSPACE = "halfspace"

# |tr^2 - 4| below this means parabolic (if not the identity).
PARABOLIC_TOL = 1e-8
# within 10x of the classification boundary we refuse to commit silently.
AMBIGUOUS_BAND = 10 * PARABOLIC_TOL
# relative threshold for treating a matrix entry as zero.
ENTRY_TOL = 1e-9
# identification grid for canonical matrices.
MATRIX_GRID = 1e-9

# saturation bound for grid-rounded matrix entries (exact in float64)
KEY_CLAMP = 2.0**62


class ModelError(ValueError):
    """Raised for points or maps used in an unsupported model/dimension."""


class ShadowError(ValueError):
    """Raised when a radial shadow is unbounded or ill-defined."""


def _check_model(model: str) -> str:
    if model not in (BALL, HALFSPACE):
        raise ModelError(f"unknown model {model!r}")
    return model


@dataclass(frozen=True)
class InteriorPoint:
    """A point of hyperbolic space H^(d+1) in one of the two models."""

    model: str
    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_model(self.model)
        coords = tuple(float(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) not in (2, 3):
            raise ModelError("interior points need d+1 coordinates, d in {1, 2}")
        if self.model == BALL:
            if sum(c * c for c in coords) >= 1.0:
                raise ModelError("ball-model point outside the open unit ball")
        else:
            if coords[-1] <= 0.0:
                raise ModelError("halfspace-model point needs positive height")

    @property
    def d(self) -> int:
        return len(self.coords) - 1


@dataclass(frozen=True)
class BoundaryPoint:
    """A boundary point: unit vector (ball) or point of R^d / infinity."""

    model: str
    coords: Optional[tuple[float, ...]]  # None encodes the halfspace infinity

    def __post_init__(self) -> None:
        _check_model(self.model)
        if self.coords is None:
            if self.model != HALFSPACE:
                raise ModelError("only the halfspace model has a point at infinity")
            return
        coords = tuple(float(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if self.model == BALL:
            if len(coords) not in (2, 3):
                raise ModelError("ball boundary points are unit vectors in R^(d+1)")
            norm = math.sqrt(sum(c * c for c in coords))
            if abs(norm - 1.0) > 1e-9:
                raise ModelError("ball boundary point must lie on the unit sphere")
            object.__setattr__(self, "coords", tuple(c / norm for c in coords))
        else:
            if len(coords) not in (1, 2):
                raise ModelError("halfspace boundary points live in R^d, d in {1, 2}")

    @property
    def is_infinity(self) -> bool:
        return self.coords is None

    @property
    def d(self) -> int:
        if self.coords is None:
            raise ModelError("dimension of the point at infinity is ambiguous")
        return len(self.coords) if self.model == HALFSPACE else len(self.coords) - 1


def infinity() -> BoundaryPoint:
    return BoundaryPoint(HALFSPACE, None)


def origin(d: int, model: str = HALFSPACE) -> InteriorPoint:
    """The canonical base point: ball centre, alias halfspace height-1 point."""
    if model == BALL:
        return InteriorPoint(BALL, (0.0,) * (d + 1))
    return InteriorPoint(HALFSPACE, (0.0,) * d + (1.0,))


# ---------------------------------------------------------------------------
# model conversion (inversion in S(-e_n, sqrt 2), an involution)
# ---------------------------------------------------------------------------


def ball_to_halfspace(p: InteriorPoint) -> InteriorPoint:
    if p.model == HALFSPACE:
        return p
    x = np.asarray(p.coords)
    d = len(x) - 1
    shifted = x.copy()
    shifted[-1] += 1.0  # x - c with c = -e_n
    denom = float(shifted @ shifted)
    img = 2.0 * shifted / denom
    img[-1] -= 1.0
    return InteriorPoint(HALFSPACE, tuple(img[:d]) + (float(img[-1]),))


def halfspace_to_ball(p: InteriorPoint) -> InteriorPoint:
    if p.model == BALL:
        return p
    w = np.asarray(p.coords[:-1])
    h = p.coords[-1]
    denom = float(w @ w) + (h + 1.0) ** 2
    img = np.empty(len(p.coords))
    img[:-1] = 2.0 * w / denom
    img[-1] = 2.0 * (h + 1.0) / denom - 1.0
    return InteriorPoint(BALL, tuple(img))


def boundary_to_halfspace(p: BoundaryPoint) -> BoundaryPoint:
    if p.model == HALFSPACE:
        return p
    u = np.asarray(p.coords)
    if abs(u[-1] + 1.0) < 1e-14:  # south pole
        return infinity()
    return BoundaryPoint(HALFSPACE, tuple(u[:-1] / (1.0 + u[-1])))


def boundary_to_ball(p: BoundaryPoint, d: Optional[int] = None) -> BoundaryPoint:
    if p.model == BALL:
        return p
    if p.is_infinity:
        if d is None:
            raise ModelError("converting infinity to the ball needs the dimension d")
        south = (0.0,) * d + (-1.0,)
        return BoundaryPoint(BALL, south)
    y = np.asarray(p.coords)
    n2 = float(y @ y)
    img = np.empty(len(y) + 1)
    img[:-1] = 2.0 * y / (1.0 + n2)
    img[-1] = (1.0 - n2) / (1.0 + n2)
    return BoundaryPoint(BALL, tuple(img))


def convert_interior(p: InteriorPoint, model: str) -> InteriorPoint:
    _check_model(model)
    return ball_to_halfspace(p) if model == HALFSPACE else halfspace_to_ball(p)


def convert_boundary(p: BoundaryPoint, model: str, d: Optional[int] = None) -> BoundaryPoint:
    _check_model(model)
    return boundary_to_halfspace(p) if model == HALFSPACE else boundary_to_ball(p, d)


# ---------------------------------------------------------------------------
# complex helpers for the halfspace model
# ---------------------------------------------------------------------------


def _hs_interior(p: InteriorPoint) -> tuple[complex, float]:
    """Halfspace interior point as (complex boundary part, height)."""
    q = ball_to_halfspace(p)
    if q.d == 1:
        return complex(q.coords[0], 0.0), q.coords[1]
    return complex(q.coords[0], q.coords[1]), q.coords[2]


def _hs_boundary(p: BoundaryPoint) -> Optional[complex]:
    """Halfspace boundary point as a complex number, None for infinity."""
    q = boundary_to_halfspace(p)
    if q.is_infinity:
        return None
    if len(q.coords) == 1:
        return complex(q.coords[0], 0.0)
    return complex(q.coords[0], q.coords[1])


def _interior_from_hs(w: complex, h: float, d: int, model: str) -> InteriorPoint:
    if d == 1:
        p = InteriorPoint(HALFSPACE, (w.real, h))
    else:
        p = InteriorPoint(HALFSPACE, (w.real, w.imag, h))
    return convert_interior(p, model)


def _boundary_from_hs(w: Optional[complex], d: int, model: str) -> BoundaryPoint:
    if w is None:
        p = infinity()
    elif d == 1:
        p = BoundaryPoint(HALFSPACE, (w.real,))
    else:
        p = BoundaryPoint(HALFSPACE, (w.real, w.imag))
    return convert_boundary(p, model, d)


# ---------------------------------------------------------------------------
# distances and geodesics
# ---------------------------------------------------------------------------


def hyp_distance(p: InteriorPoint, q: InteriorPoint) -> float:
    """Hyperbolic distance; mixed-model arguments are converted first."""
    if p.model != q.model:
        q = convert_interior(q, p.model)
    if p.d != q.d:
        raise ModelError("points of different dimension")
    if p.model == BALL:
        x = np.asarray(p.coords)
        y = np.asarray(q.coords)
        dd = float((x - y) @ (x - y))
        val = 1.0 + 2.0 * dd / ((1.0 - float(x @ x)) * (1.0 - float(y @ y)))
    else:
        wx, hx = _hs_interior(p)
        wy, hy = _hs_interior(q)
        val = 1.0 + (abs(wx - wy) ** 2 + (hx - hy) ** 2) / (2.0 * hx * hy)
    return float(np.arccosh(max(val, 1.0)))


def _mobius_to_infinity(p: complex) -> "MobiusMap":
    """A unit-determinant map sending the finite boundary point p to infinity."""
    return MobiusMap(np.array([[0.0, -1.0], [1.0, -p]], dtype=complex))


def geodesic_point(z: BoundaryPoint, t: float, base: Optional[InteriorPoint] = None) -> InteriorPoint:
    """Point at distance t from ``base`` along the geodesic ray toward z.

    With the default base (ball centre / halfspace height-1 point) the
    ball-model image has Euclidean norm tanh(t/2).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    d = z.d if not z.is_infinity else (base.d if base is not None else 2)
    if base is None:
        base = origin(d, HALFSPACE)
    model = z.model
    wb, hb = _hs_interior(base)
    zc = _hs_boundary(z)
    if zc is None:
        return _interior_from_hs(wb, hb * math.exp(t), base.d, model)
    g = _mobius_to_infinity(zc)
    wb2, hb2 = _apply_interior_mat(g.matrix, wb, hb)
    w3, h3 = _apply_interior_mat(g.inverse().matrix, wb2, hb2 * math.exp(t))
    return _interior_from_hs(w3, h3, base.d, model)


def boundary_project(x: InteriorPoint, base: Optional[InteriorPoint] = None) -> BoundaryPoint:
    """Radial projection: endpoint of the geodesic ray from ``base`` through x.

    In the ball model with the centre as base this is x / |x|.
    """
    if base is None:
        base = origin(x.d, HALFSPACE)
    wb, hb = _hs_interior(base)
    wx, hx = _hs_interior(x)
    sep = abs(wx - wb)
    if sep < 1e-14:
        if abs(hx - hb) < 1e-14:
            raise ValueError("cannot project the base point")
        return _boundary_from_hs(wb if hx < hb else None, x.d, x.model)
    u = (wx - wb) / sep
    m = (sep * sep + hx * hx - hb * hb) / (2.0 * sep)
    # endpoint on the far side of x, stable for large negative m
    if m >= 0:
        ep = m + math.hypot(m, hb)
    else:
        ep = hb * hb / (math.hypot(m, hb) - m)
    return _boundary_from_hs(wb + ep * u, x.d, x.model)


# ---------------------------------------------------------------------------
# Moebius maps
# ---------------------------------------------------------------------------


class IsometryClass(Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC_LOXODROMIC = "hyperbolic_loxodromic"


@dataclass(frozen=True)
class Classification:
    kind: IsometryClass
    fixed_points: tuple[BoundaryPoint, ...]
    ambiguous: bool = False


def _normalize_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ModelError("Moebius maps are 2x2 matrices")
    ad = m[0, 0] * m[1, 1]
    bc = m[0, 1] * m[1, 0]
    det = ad - bc
    # ad - bc cancels catastrophically for large-norm matrices, so the
    # computed determinant of a product of unit-determinant factors can
    # land anywhere in a window of width ~ eps |ad|.  If 1 lies in that
    # window, trust the construction and skip rescaling.
    err = 64.0 * 2.3e-16 * (abs(ad) + abs(bc) + 1.0)
    if abs(det - 1.0) > err:
        if abs(det) < max(1e-30, err):
            raise ModelError("singular matrix is not a Moebius map")
        m = m / np.sqrt(det)
    return _canonical_sign(m)


def _canonical_sign(m: np.ndarray) -> np.ndarray:
    """Fix the PSL sign: first nonzero entry gets positive real part
    (positive imaginary part when the real part vanishes)."""
    flat = m.reshape(-1)
    scale = float(np.abs(flat).max())
    for v in flat:
        if abs(v) > ENTRY_TOL * scale:
            if abs(v.real) > ENTRY_TOL * scale:
                s = 1.0 if v.real > 0 else -1.0
            else:
                s = 1.0 if v.imag > 0 else -1.0
            return m * s
    raise ModelError("zero matrix")


@dataclass(frozen=True)
class MobiusMap:
    """An orientation-preserving isometry of H^(d+1) in halfspace coordinates.

    Stored as a unit-determinant 2x2 complex matrix in canonical sign.  For
    d = 1 all entries are real and the map preserves the upper half plane;
    for d = 2 it acts on the upper halfspace over C.
    """

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        m = _normalize_matrix(self.matrix)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def d(self) -> int:
        return 1 if float(np.abs(self.matrix.imag).max()) < 1e-12 else 2

    @property
    def is_identity(self) -> bool:
        return bool(np.abs(self.matrix - np.eye(2)).max() < 1e-12)

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        return MobiusMap(self.matrix @ other.matrix)

    def __matmul__(self, other: "MobiusMap") -> "MobiusMap":
        return self.compose(other)

    def inverse(self) -> "MobiusMap":
        a, b = self.matrix[0]
        c, dd = self.matrix[1]
        return MobiusMap(np.array([[dd, -b], [-c, a]]))

    def key(self) -> bytes:
        """Identification key: canonical entries rounded to the 1e-9 grid.

        Entries beyond the grid's integer range saturate, so maps of
        astronomical matrix norm may share a key; at that norm the 1e-9
        absolute grid carries no information anyway.
        """
        flat = self.matrix.reshape(-1)
        parts = np.empty(8)
        parts[0::2] = flat.real
        parts[1::2] = flat.imag
        cells = np.clip(np.round(parts / MATRIX_GRID), -KEY_CLAMP, KEY_CLAMP)
        return cells.astype(np.int64).tobytes()

    def trace_squared(self) -> complex:
        tr = self.matrix[0, 0] + self.matrix[1, 1]
        return complex(tr * tr)


def identity_map() -> MobiusMap:
    return MobiusMap(np.eye(2))


def _apply_boundary_mat(m: np.ndarray, z: Optional[complex]) -> Optional[complex]:
    a, b = complex(m[0, 0]), complex(m[0, 1])
    c, dd = complex(m[1, 0]), complex(m[1, 1])
    scale = max(abs(a), abs(b), abs(c), abs(dd))
    if z is None:
        if abs(c) < 1e-14 * scale:
            return None
        return a / c
    denom = c * z + dd
    if abs(denom) < 1e-14 * scale * max(1.0, abs(z)):
        return None
    return (a * z + b) / denom


def _apply_interior_mat(m: np.ndarray, w: complex, h: float) -> tuple[complex, float]:
    a, b = complex(m[0, 0]), complex(m[0, 1])
    c, dd = complex(m[1, 0]), complex(m[1, 1])
    cw = c * w + dd
    denom = abs(cw) ** 2 + abs(c) ** 2 * h * h
    w2 = ((a * w + b) * cw.conjugate() + a * c.conjugate() * h * h) / denom
    return w2, h / denom


def apply(g: MobiusMap, p: InteriorPoint | BoundaryPoint):
    """Apply an isometry; the result is in the same model as the input."""
    if isinstance(p, InteriorPoint):
        w, h = _hs_interior(p)
        w2, h2 = _apply_interior_mat(g.matrix, w, h)
        return _interior_from_hs(w2, h2, p.d, p.model)
    d = g.d if p.is_infinity else p.d
    w = _hs_boundary(p)
    w2 = _apply_boundary_mat(g.matrix, w)
    return _boundary_from_hs(w2, d, p.model)


def classify(g: MobiusMap, d: Optional[int] = None) -> Classification:
    """Trace classification with explicit tolerance handling.

    Parabolic means tr^2 = 4 within 1e-8 (and g is not the identity in
    PSL); verdicts within ten times that tolerance of a class boundary are
    flagged ambiguous rather than silently committed.  ``d`` overrides the
    guessed boundary dimension: a real elliptic matrix has no boundary
    fixed points as a Fuchsian element but an axis pair as a Kleinian one.
    """
    if d is None:
        d = g.d
    if g.is_identity:
        return Classification(IsometryClass.IDENTITY, ())
    t2 = g.trace_squared()
    gap4 = abs(t2 - 4.0)
    if gap4 <= PARABOLIC_TOL:
        return Classification(IsometryClass.PARABOLIC, (_parabolic_fixed_point(g, d),))
    # distance from tr^2 to the elliptic locus, the real segment [0, 4]
    seg = math.hypot(t2.real - min(max(t2.real, 0.0), 4.0), t2.imag)
    ambiguous = gap4 <= AMBIGUOUS_BAND or PARABOLIC_TOL < seg <= AMBIGUOUS_BAND
    if seg <= PARABOLIC_TOL:
        return Classification(IsometryClass.ELLIPTIC, _boundary_fixed_points(g, d), ambiguous)
    return Classification(
        IsometryClass.HYPERBOLIC_LOXODROMIC, _boundary_fixed_points(g, d), ambiguous
    )


def _parabolic_fixed_point(g: MobiusMap, d: int) -> BoundaryPoint:
    m = g.matrix
    scale = float(np.abs(m).max())
    if abs(m[1, 0]) < ENTRY_TOL * scale:
        return infinity()
    return _boundary_from_hs((m[0, 0] - m[1, 1]) / (2.0 * m[1, 0]), d, HALFSPACE)


def _boundary_fixed_points(g: MobiusMap, d: int) -> tuple[BoundaryPoint, ...]:
    """Roots of the fixed-point equation that actually lie on the boundary."""
    m = g.matrix
    a, b, c, dd = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    scale = float(np.abs(m).max())
    disc = np.sqrt(complex((a - dd) ** 2 + 4 * b * c))
    pts: list[Optional[complex]] = []
    if abs(c) < ENTRY_TOL * scale:
        pts.append(None)
        if abs(a - dd) > ENTRY_TOL * scale:
            pts.append(complex(b / (dd - a)))
    else:
        pts.append(complex((a - dd + disc) / (2 * c)))
        pts.append(complex((a - dd - disc) / (2 * c)))
    out = []
    for z in pts:
        if d == 1 and z is not None and abs(z.imag) > 1e-7 * max(1.0, abs(z)):
            continue  # interior fixed point of a real elliptic, not on the boundary
        if d == 1 and z is not None:
            z = complex(z.real, 0.0)
        out.append(_boundary_from_hs(z, d, HALFSPACE))
    return tuple(out)


# ---------------------------------------------------------------------------
# horoballs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Horoball:
    """Horoball tangent at ``base``.

    ``size`` is the Euclidean diameter for a finite base point and the
    height of the bounding horizontal plane when the base is the halfspace
    infinity (the horoball is then everything above that plane).  ``rank``
    tags the rank of the parabolic fixed point when the horoball belongs
    to a cusp family; purely geometric horoballs default to 1.
    """

    base: BoundaryPoint
    size: float
    rank: int = 1

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("horoball size must be positive")
        if self.base.model == BALL and self.size >= 2.0:
            raise ValueError("ball-model horoball diameter must be < 2")
        if self.rank < 1:
            raise ValueError("rank is a positive integer")

    @property
    def model(self) -> str:
        return self.base.model


def convert_horoball(H: Horoball, model: str, d: Optional[int] = None) -> Horoball:
    """Rewrite a horoball in the other model via a horosphere sample point.

    ``d`` disambiguates the boundary dimension when the base point is the
    halfspace infinity (which carries none); it is otherwise ignored.
    """
    _check_model(model)
    if H.model == model:
        return H
    d = _horoball_dim(H, d)
    new_base = convert_boundary(H.base, model, d=d)
    sample = _horosphere_sample(H, d)
    img = convert_interior(sample, model)
    return _horoball_through(new_base, img, rank=H.rank)


def _horoball_dim(H: Horoball, d: Optional[int] = None) -> int:
    if not H.base.is_infinity:
        return H.base.d
    return 2 if d is None else d


def _horosphere_sample(H: Horoball, d: Optional[int] = None) -> InteriorPoint:
    """An interior point lying exactly on the horosphere."""
    if H.model == BALL:
        u = np.asarray(H.base.coords)
        return InteriorPoint(BALL, tuple((1.0 - H.size) * u))
    if H.base.is_infinity:
        return InteriorPoint(HALFSPACE, (0.0,) * _horoball_dim(H, d) + (H.size,))
    p = H.base.coords
    return InteriorPoint(HALFSPACE, tuple(p) + (H.size,))


def _horoball_through(base: BoundaryPoint, x: InteriorPoint, rank: int) -> Horoball:
    """The horoball at ``base`` whose horosphere passes through x."""
    x = convert_interior(x, base.model)
    if base.model == HALFSPACE:
        w, h = _hs_interior(x)
        if base.is_infinity:
            return Horoball(base, h, rank)
        p = _hs_boundary(base)
        assert p is not None
        return Horoball(base, (abs(w - p) ** 2 + h * h) / h, rank)
    u = np.asarray(base.coords)
    y = np.asarray(x.coords)
    # Euclidean sphere of diameter s tangent internally at u, through y:
    # |y - (1 - s/2) u|^2 = (s/2)^2  solves to  s = |y - u|^2 / (1 - u.y).
    uy = float(u @ y)
    s = float((y - u) @ (y - u)) / (1.0 - uy)
    return Horoball(base, s, rank)


def horoball_contains(H: Horoball, x: InteriorPoint) -> bool:
    return escape_depth(x, H) > 0.0


def escape_depth(x: InteriorPoint, H: Horoball) -> float:
    """Hyperbolic distance from x to the complement of H (0 outside H).

    Computed by conjugating the base point to infinity with an explicit
    Moebius map and reading off log(height / plane height) there.
    """
    Hh = convert_horoball(H, HALFSPACE)
    w, h = _hs_interior(x)
    if Hh.base.is_infinity:
        plane = Hh.size
    else:
        p = _hs_boundary(Hh.base)
        assert p is not None
        g = _mobius_to_infinity(p)
        w, h = _apply_interior_mat(g.matrix, w, h)
        plane = 1.0 / Hh.size
    if h <= plane:
        return 0.0
    return math.log(h / plane)


def squeeze(H: Horoball, theta: float) -> Horoball:
    """Shrink a horoball toward its base point: |theta H| = theta |H|.

    Equivalently the set of points of H at escape depth >= log(1/theta),
    so for an infinity-based horoball the plane height divides by theta.
    """
    if not 0 < theta <= 1:
        raise ValueError("theta must lie in (0, 1]")
    if H.base.model == HALFSPACE and H.base.is_infinity:
        return Horoball(H.base, H.size / theta, H.rank)
    return Horoball(H.base, H.size * theta, H.rank)


def apply_horoball(g: MobiusMap, H: Horoball, d: Optional[int] = None) -> Horoball:
    """Image horoball g(H), in the same model as H."""
    d = _horoball_dim(H, d)
    Hh = convert_horoball(H, HALFSPACE, d)
    w2 = _apply_boundary_mat(g.matrix, _hs_boundary(Hh.base))
    new_base = _boundary_from_hs(w2, d, HALFSPACE)
    sample = _horosphere_sample(Hh, d)
    img = apply(g, sample)
    out = _horoball_through(new_base, img, rank=H.rank)
    return convert_horoball(out, H.model, d)


def horoball_crossing_times(
    z: BoundaryPoint, H: Horoball, base: Optional[InteriorPoint] = None
) -> Optional[tuple[float, float]]:
    """Entry/exit times of the ray from ``base`` toward z through H.

    Returns (t_enter, t_exit); t_exit is ``inf`` when z is the base point
    of H (the ray never leaves).  Returns None when the ray misses H.
    Requires the base point to lie outside the horoball.
    """
    Hh = convert_horoball(H, HALFSPACE)
    d = 1 if (not Hh.base.is_infinity and Hh.base.d == 1) else 2
    if base is None:
        base = origin(d, HALFSPACE)
    if Hh.base.is_infinity:
        g = identity_map()
        plane = Hh.size
    else:
        p = _hs_boundary(Hh.base)
        assert p is not None
        g = _mobius_to_infinity(p)
        plane = 1.0 / Hh.size
    wb, hb = _hs_interior(base)
    wb, hb = _apply_interior_mat(g.matrix, wb, hb)
    if hb >= plane:
        raise ValueError("base point lies inside the horoball")
    zc = _apply_boundary_mat(g.matrix, _hs_boundary(z))
    if zc is None:  # ray into the base point of H
        return math.log(plane / hb), math.inf
    sep = abs(zc - wb)
    if sep < 1e-14:
        return None  # vertical ray downwards at the base's own projection
    m = (sep * sep - hb * hb) / (2.0 * sep)  # circle centre along the ray direction
    rc = math.hypot(m, hb)
    if rc <= plane:
        return None
    alpha = math.asin(plane / rc)
    # base sits at angle phi_b measured from the endpoint direction
    phi_b = math.atan2(hb, -m)  # xi_b = 0, circle centre at xi = m
    if phi_b <= alpha + 1e-15:
        return None  # base beyond the horoball's chord, ray only descends
    tan_b = math.tan(phi_b / 2.0)
    t_exit = math.log(tan_b / math.tan(alpha / 2.0))
    if phi_b >= math.pi - alpha:
        t_enter = math.log(tan_b / math.tan((math.pi - alpha) / 2.0))
    else:  # base already inside would have been caught; numerical edge
        t_enter = 0.0
    return t_enter, t_exit


# ---------------------------------------------------------------------------
# shadows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryBall:
    """A round ball on the boundary: Euclidean disk (halfspace) or
    spherical cap given by chordal centre/radius (ball model)."""

    center: BoundaryPoint
    radius: float


def shadow(H: Horoball, base: Optional[InteriorPoint] = None) -> BoundaryBall:
    """Radial projection of H from ``base`` as an exact boundary ball.

    The projection of a horoball from an exterior viewpoint is a round
    ball: a planar disk/interval in the halfspace model, a chordal cap in
    the ball model (matching the model of H).  Raises ShadowError if the
    base point lies in H or a halfspace shadow is unbounded.
    """
    model = H.model
    if base is not None:
        d = base.d
    else:
        d = _horoball_dim(H)
        base = origin(d, HALFSPACE)
    # move the base to the canonical point, where projection is radial
    wb, hb = _hs_interior(base)
    move = MobiusMap(np.array([[1.0, -wb], [0.0, hb]], dtype=complex))
    H1 = apply_horoball(move, convert_horoball(H, HALFSPACE, d), d)
    Hb = convert_horoball(H1, BALL, d)
    s = Hb.size
    if s >= 1.0:
        raise ShadowError("base point lies inside or on the horoball")
    alpha = math.asin((s / 2.0) / (1.0 - s / 2.0))
    q = np.asarray(Hb.base.coords)
    back = move.inverse()

    def pull(u: np.ndarray) -> BoundaryPoint:
        return apply(back, boundary_to_halfspace(BoundaryPoint(BALL, tuple(u))))

    # rim directions of the cap in the moved picture, plus its centre as a
    # marker known to lie inside the true shadow (it is the tangency image)
    if d == 1:
        rot = np.array([[math.cos(alpha), -math.sin(alpha)], [math.sin(alpha), math.cos(alpha)]])
        rim = [rot @ q, rot.T @ q]
    else:
        v1 = _any_unit_normal(q)
        v2 = np.cross(q, v1)
        rim = []
        for theta in (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0):
            u = math.cos(alpha) * q + math.sin(alpha) * (math.cos(theta) * v1 + math.sin(theta) * v2)
            rim.append(u / np.linalg.norm(u))
    marker = pull(q)
    rim_img = [pull(u) for u in rim]

    if model == HALFSPACE:
        if marker.is_infinity or any(r.is_infinity for r in rim_img):
            raise ShadowError("shadow is unbounded in the halfspace chart")
        if d == 1:
            xs = [r.coords[0] for r in rim_img]
            lo, hi = min(xs), max(xs)
            if not (lo <= marker.coords[0] <= hi):
                raise ShadowError("shadow wraps around infinity")
            return BoundaryBall(BoundaryPoint(HALFSPACE, ((lo + hi) / 2.0,)), (hi - lo) / 2.0)
        zs = [complex(r.coords[0], r.coords[1]) for r in rim_img]
        center, radius = _circumcircle(zs)
        mk = complex(marker.coords[0], marker.coords[1])
        if abs(mk - center) > radius * (1.0 + 1e-9):
            raise ShadowError("shadow is the outside of a disk")
        return BoundaryBall(BoundaryPoint(HALFSPACE, (center.real, center.imag)), radius)

    # ball-model output: the cap pulled back is still a cap; recover its
    # centre from the rim and pick the side containing the marker
    mk = np.asarray(convert_boundary(marker, BALL, d).coords)
    rb = [np.asarray(convert_boundary(r, BALL, d).coords) for r in rim_img]
    if d == 1:
        mid = rb[0] + rb[1]
        nm = float(np.linalg.norm(mid))
        if nm < 1e-12:  # rim points antipodal: cap is a half circle
            c = mk
        else:
            c = mid / nm
            if float(mk @ c) < float(rb[0] @ c):
                c = -c
    else:
        n = np.cross(rb[1] - rb[0], rb[2] - rb[0])
        nn = float(np.linalg.norm(n))
        if nn < 1e-14:
            raise ShadowError("degenerate shadow circle")
        c = n / nn
        if float(mk @ c) < float(rb[0] @ c):
            c = -c
    return BoundaryBall(BoundaryPoint(BALL, tuple(c)), float(np.linalg.norm(rb[0] - c)))


def _any_unit_normal(q: np.ndarray) -> np.ndarray:
    e = np.zeros(3)
    e[int(np.argmin(np.abs(q)))] = 1.0
    v = np.cross(q, e)
    return v / np.linalg.norm(v)


def _circumcircle(zs: Sequence[complex]) -> tuple[complex, float]:
    z1, z2, z3 = zs
    ax, ay = z1.real, z1.imag
    bx, by = z2.real, z2.imag
    cx, cy = z3.real, z3.imag
    dmat = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(dmat) < 1e-30:
        raise ShadowError("degenerate shadow circle")
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay) + (cx**2 + cy**2) * (ay - by)) / dmat
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx) + (cx**2 + cy**2) * (bx - ax)) / dmat
    center = complex(ux, uy)
    return center, abs(z1 - center)
