"""Finite windows of infinite zero sequences.

The objects under study are infinite sets of distinct complex numbers whose
norms diverge.  All computations operate on *windows*: the finite trace of
such a set inside a closed sampling ball.  A window records its sampling
radius, an arithmetic mode (exact rationals, or floats with a tolerance),
the generator it came from, and the canonicalizing translation that moved
the norm-smallest term to the origin.

Every window keeps its points on one coordinate grid, ``grid`` = ``(xs,
ys, scale)``.  Exact windows are scaled by ``scale``, the lcm of their
denominators, to integers: int64 while no coordinate exceeds 2**28, which
keeps every cross and dot product of differences inside int64, and Python
ints past that.  Float windows get float64 arrays and ``scale`` None.  The
grid is a window's only coordinate store: ``ZeroWindow.points`` are built
from it on first access.  An exact window's radius is a Fraction.  Arrays
of grid integers become float64 through ``_ratio``, in every module: it
rounds each quotient by the scale (or its square) as ``float(Fraction)``
does.  Only ``_packed`` packs grid points or vectors into integers, as
``(x << shift) + y`` with the shift set by a bound on |x| and |y|: a
lexicographic, linear packing, so keys sort as (x, y) do and
``_unpacked`` reads back keys, their negatives and their differences.

Ordering convention: points are sorted by norm, ties broken by argument in
``[0, 2*pi)``.  ``canonical_permutation`` computes this order on a grid, so
exact coordinates are compared as integers, never in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import (
    ContractingGenerator,
    DuplicatePoint,
    EmptyWindow,
    ModeMismatch,
    NonFinite,
    SingularMatrix,
)
from .kinds import SEQUENCE_KINDS

# --------------------------------------------------------------------------
# arithmetic modes


@dataclass(frozen=True)
class Mode:
    """Arithmetic mode: ``exact`` (rational) or ``float`` (with tolerance)."""

    kind: str = "exact"
    eps: float = 1e-9

    def __post_init__(self):
        # eps = 0 asks for exact comparisons of floats; NaN fails both tests
        if not 0 <= self.eps < math.inf:
            raise ValueError(f"eps must be finite and >= 0, got {self.eps!r}")

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"


EXACT = Mode("exact")


def float_mode(eps: float = 1e-9) -> Mode:
    return Mode("float", eps)


def as_scalar(value, mode: Mode):
    """Coerce a number or ``p/q`` string to the mode's scalar type."""
    if mode.is_exact:
        if isinstance(value, Fraction):
            return value
        return Fraction(value)
    return float(Fraction(value)) if isinstance(value, str) else float(value)


def scalar_repr(value):
    """Serialize a coordinate: rationals as ``p/q`` strings, floats as-is."""
    if isinstance(value, Fraction):
        return str(value)
    return value


# --------------------------------------------------------------------------
# points


class ZPoint(NamedTuple):
    """A complex number with mode-typed coordinates (Fraction or float).

    It is the tuple ``(re, im)``: it equals and hashes as that plain tuple,
    unpacks and orders; ``*`` raises ``TypeError`` rather than repeat it.
    """

    re: object
    im: object

    def __add__(self, other: "ZPoint") -> "ZPoint":
        return ZPoint(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ZPoint") -> "ZPoint":
        return ZPoint(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ZPoint":
        return ZPoint(-self.re, -self.im)

    def __mul__(self, other):
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c) -> "ZPoint":
        return ZPoint(self.re * c, self.im * c)

    def norm2(self):
        return self.re * self.re + self.im * self.im

    def norm(self) -> float:
        return math.sqrt(float(self.norm2()))

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @staticmethod
    def of(re, im, mode: Mode = EXACT) -> "ZPoint":
        return ZPoint(as_scalar(re, mode), as_scalar(im, mode))

    @staticmethod
    def zero(mode: Mode = EXACT) -> "ZPoint":
        return ZPoint.of(0, 0, mode)


def cross(p: ZPoint, q: ZPoint):
    return p.re * q.im - p.im * q.re


def dot(p: ZPoint, q: ZPoint):
    return p.re * q.re + p.im * q.im


def zmul(p: ZPoint, q: ZPoint) -> ZPoint:
    return ZPoint(p.re * q.re - p.im * q.im, p.re * q.im + p.im * q.re)


def zreciprocal(p: ZPoint) -> ZPoint:
    n2 = p.norm2()
    if n2 == 0:
        raise ZeroDivisionError("reciprocal of zero")
    return ZPoint(p.re / n2, -p.im / n2)


def zdiv(p: ZPoint, q: ZPoint) -> ZPoint:
    return zmul(p, zreciprocal(q))


def same_point(p: ZPoint, q: ZPoint, mode: Mode) -> bool:
    # eps = 0 compares floats exactly: a squared difference below about
    # 1e-162 would underflow to 0
    if mode.is_exact or mode.eps == 0:
        return p.re == q.re and p.im == q.im
    return (p - q).norm2() <= mode.eps * mode.eps


# --------------------------------------------------------------------------
# canonical ordering

# Argument half-planes for args in [0, 2*pi): half 0 covers [0, pi),
# half 1 covers [pi, 2*pi).  On a circle of fixed norm the argument falls as
# re rises in half 0 and rises with it in half 1, so (norm2, half, -re or re)
# orders by (norm, argument) with no trigonometry; it stays exact for
# rational coordinates.


def _arg_half(p: ZPoint) -> int:
    if p.im > 0 or (p.im == 0 and p.re > 0):
        return 0
    return 1


def _canonical_key(p: ZPoint) -> tuple:
    half = _arg_half(p)
    return (p.norm2(), half, -p.re if half == 0 else p.re)


def compare_canonical(p: ZPoint, q: ZPoint) -> int:
    kp, kq = _canonical_key(p), _canonical_key(q)
    return (kp > kq) - (kp < kq)


def canonical_permutation(xs, ys):
    """Indices that put the grid points (xs, ys) in canonical order: one
    stable lexsort on the key of ``compare_canonical``, for int64, Python-int
    and float arrays alike."""
    upper = (ys > 0) | ((ys == 0) & (xs > 0))
    return np.lexsort((np.where(upper, -xs, xs), ~upper, xs * xs + ys * ys))


def canonical_order(points, mode: Mode = EXACT) -> list:
    """Sort points by (norm, argument); duplicates raise ``DuplicatePoint``."""
    return list(ZeroWindow._on_grid(*coordinate_grid(list(points), mode), 0, mode).points)


# --------------------------------------------------------------------------
# the coordinate grid

_INT_COORD_LIMIT = 1 << 28  # keeps every cross/dot product inside int64


def coordinate_grid(points, mode: Mode, base: int = 1) -> tuple:
    """``(xs, ys, scale)`` of ``points`` (see the module docstring).

    In exact mode ``scale`` is the lcm of ``base`` and every denominator,
    so vectors can share the grid of the window they came from.
    """
    if not mode.is_exact:
        coords = np.fromiter(chain.from_iterable(points), float, 2 * len(points))
        return coords[0::2], coords[1::2], None
    scale = math.lcm(base, *(p.re.denominator for p in points),
                     *(p.im.denominator for p in points))
    xs = [p.re.numerator * (scale // p.re.denominator) for p in points]
    ys = [p.im.numerator * (scale // p.im.denominator) for p in points]
    return _typed_grid(xs, ys, scale)


def _typed_grid(xs, ys, scale: int) -> tuple:
    """The exact grid coordinates (xs, ys), typed as the module docstring says."""
    span = int(max(np.abs(xs).max(initial=0), np.abs(ys).max(initial=0)))
    dtype = np.int64 if span <= _INT_COORD_LIMIT else object
    return np.array(xs, dtype=dtype), np.array(ys, dtype=dtype), scale


def rescale_grid(xs, ys, factor: int, span: int) -> tuple:
    """The exact grid coordinates (xs, ys) times ``factor``, moved to
    Python-int arrays when a product, or ``span`` (the largest coordinate
    to be combined with them), passes 2**28."""
    if xs.dtype != object and (factor > 1 or span > _INT_COORD_LIMIT):
        grid_span = int(max(np.abs(xs).max(initial=0), np.abs(ys).max(initial=0)))
        if max(grid_span * factor, span) > _INT_COORD_LIMIT:
            xs, ys = xs.astype(object), ys.astype(object)
    if factor == 1:
        return xs, ys
    return xs * factor, ys * factor


_INT64_SAFE = 1 << 62


def _ints(bound: int, *arrays) -> list:
    """``arrays`` as int64 when ``bound`` caps every value computed from
    them below 2**62, else as Python ints, not copied when already so."""
    dtype = np.int64 if bound < _INT64_SAFE else object
    return [np.asarray(a).astype(dtype, copy=False) for a in arrays]


def _span(*arrays) -> int:
    """Largest absolute value in ``arrays``."""
    return max((int(np.max(np.abs(a))) for a in arrays if np.size(a)), default=0)


def _packed(xs, ys, bound: int) -> tuple:
    """``(keys, shift)`` of the grid points (xs, ys), none past ``bound``:
    ``(x << shift) + y``, with the low part of a difference of two keys, at
    most 2 bound, below 2**(shift - 1), in int64 while every key is below
    2**62, so a difference of two is too, and in Python ints past that."""
    shift = (2 * bound).bit_length() + 1
    xs, ys = _ints((bound << shift) + bound, xs, ys)
    return (xs << shift) + ys, shift


def _unpacked(keys, shift: int) -> tuple:
    """The points (xs, ys) of ``_packed`` keys, their negatives or differences."""
    # the low part y of a key x * 2**shift + y lies in [-2**(shift - 1), 2**(shift - 1))
    half = 1 << (shift - 1)
    ys = ((keys + half) & ((1 << shift) - 1)) - half
    return (keys - ys) >> shift, ys


def _moved(xs, ys, scale, b: ZPoint) -> tuple:
    """(xs, ys, scale) plus ``b``, exact grids on the lcm of scale and b's denominators."""
    if scale is None:
        return xs + float(b.re), ys + float(b.im), None
    bx, by = Fraction(b.re), Fraction(b.im)
    s = math.lcm(scale, bx.denominator, by.denominator)
    bx, by = bx.numerator * (s // bx.denominator), by.numerator * (s // by.denominator)
    xs, ys = rescale_grid(xs, ys, s // scale, max(abs(bx), abs(by)))
    return xs + bx, ys + by, s


def grid_points(xs, ys, scale) -> list:
    """ZPoints of the grid coordinates (xs, ys): Fractions over ``scale``,
    one per distinct value, or the floats themselves when it is None."""
    xs, ys = xs.tolist(), ys.tolist()
    if scale is not None:
        frac = {v: Fraction(v, scale) for v in set(xs) | set(ys)}
        xs, ys = map(frac.__getitem__, xs), map(frac.__getitem__, ys)
    return list(map(partial(tuple.__new__, ZPoint), zip(xs, ys)))


_FLOAT_INTS = 1 << 53  # integers up to here are exact in float64


def _ratio(num, den):
    """The float64 quotients num / den of an integer array by an integer, each
    correctly rounded, as Python's int division and ``float(Fraction)`` round
    them: numpy divides while num and den are exact in float64, Python ints
    past that.  A float array (``den`` None) comes back as it is."""
    if den is None:
        return num
    if num.dtype != object and den <= _FLOAT_INTS and np.abs(num).max(initial=0) <= _FLOAT_INTS:
        return num / den
    return np.array([a / den for a in num.tolist()], dtype=np.float64)


def _lengths(xs, ys, scale):
    """float64 lengths of the grid vectors (xs, ys) / ``scale``, rounded as
    ``ZPoint.norm`` rounds them; their squares must fit the arrays' dtype."""
    return np.sqrt(_ratio(xs * xs + ys * ys, None if scale is None else scale * scale))


def _same(dx, dy, mode: Mode):
    """Mask of the grid differences (dx, dy) that ``same_point`` calls zero:
    equality when exact or eps = 0, dx**2 + dy**2 <= eps**2 in float mode."""
    if mode.is_exact or mode.eps == 0:
        return (dx == 0) & (dy == 0)
    return dx * dx + dy * dy <= mode.eps * mode.eps


def _require_finite(xs, ys, scale) -> None:
    """Raise ``NonFinite`` at the first point of a float grid (``scale``
    None) with a NaN or infinite coordinate."""
    if scale is None:
        bad = np.flatnonzero(~(np.isfinite(xs) & np.isfinite(ys)))
        if len(bad):
            raise NonFinite(f"point {grid_points(xs[bad[:1]], ys[bad[:1]], None)[0]!r} "
                            "is not finite")


def _spans(lo, count):
    """The indices lo[k], ..., lo[k] + count[k] - 1 of every k, in turn."""
    return np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - lo, count)


_PAIR_BLOCK = 1 << 16  # candidate pairs per pass of ``_coinciding``


def _coinciding(xs, ys, mode: Mode) -> tuple:
    """Arrays (i, j), i ascending, of the pairs i < j of the finite grid
    points (xs, ys), in canonical order, that ``same_point`` matches, j the
    first such for each i.

    Equal exact points are neighbours in canonical order.  A float point p
    matches only a q with ||p| - |q|| <= |p - q| <= eps, and the order sorts
    the norms, so p is tested against the later points whose norm lies
    within a band of eps about its own, widened for the rounding of the
    norms (and by 1e-150 for squares that underflow): first its neighbour,
    then, when that is no match and the band holds two more points, the
    rest of the band, in blocks of about _PAIR_BLOCK pairs, so that a
    window whose points share one norm cannot fill memory.
    """
    if mode.is_exact:
        at = np.flatnonzero(_same(np.diff(xs), np.diff(ys), mode))
        return at, at + 1
    norm = np.sqrt(xs * xs + ys * ys)
    band = norm * (1 + 1e-12) + (mode.eps * (1 + 1e-9) + 1e-150)
    close = norm[1:] <= band[:-1]
    i = np.flatnonzero(close)
    i = i[_same(xs[i + 1] - xs[i], ys[i + 1] - ys[i], mode)]
    far = close[:-1] & close[1:]
    far[i[i < len(far)]] = False
    live = np.flatnonzero(far)
    if not len(live):
        return i, i + 1
    out_i, out_j = [i], [i + 1]
    count = np.searchsorted(norm, band[live], side="right") - live - 2
    before = np.cumsum(count) - count
    cuts = np.searchsorted(before, range(_PAIR_BLOCK, int(before[-1]) + 1, _PAIR_BLOCK)).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(live)]):
        i = np.repeat(live[lo:hi], count[lo:hi])
        j = _spans(live[lo:hi] + 2, count[lo:hi])
        hit = _same(xs[j] - xs[i], ys[j] - ys[i], mode)
        i, j = i[hit], j[hit]
        # the pairs of each i are in order of j
        first = np.ones(len(i), dtype=bool)
        first[1:] = i[1:] != i[:-1]
        out_i.append(i[first])
        out_j.append(j[first])
    i, j = np.concatenate(out_i), np.concatenate(out_j)
    order = np.argsort(i, kind="stable")
    return i[order], j[order]


def _outside_ball(xs, ys, scale, radius, mode: Mode, center: ZPoint):
    """Mask of the grid points outside the closed ball of ``radius`` about
    ``center``; floats get a relative band of 1e-12."""
    xs, ys, scale = _moved(xs, ys, scale, -center)
    if scale is None:
        # a product, unlike ** 2, overflows to inf past 1.3e154
        rad = float(radius)
        rad2 = rad * rad
        return xs * xs + ys * ys > rad2 + 1e-12 * (1.0 + rad2)
    r = Fraction(radius)
    return xs * xs + ys * ys > (r.numerator * scale) ** 2 // r.denominator ** 2


# --------------------------------------------------------------------------
# generators


@dataclass(frozen=True)
class GeneratorSpec:
    """Description of how a window's raw points are produced.

    Kinds: ``positive-integers``, ``all-integers``, ``odd4n13-positive``
    (the family 4n+1, 4n+3 for n >= 1), ``odd4n13-all`` (same with n
    ranging over all integers), ``gaussian-lattice``,
    ``integers-plus-minus-i``, ``orbit`` (a seed set swept by a matrix
    group), and ``explicit``.
    """

    kind: str
    params: dict = field(default_factory=dict)

    KINDS = SEQUENCE_KINDS

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")

    @staticmethod
    def explicit(points) -> "GeneratorSpec":
        return GeneratorSpec("explicit", {"points": tuple(points)})

    @staticmethod
    def orbit(k_points, generators, max_word_length: int) -> "GeneratorSpec":
        return GeneratorSpec(
            "orbit",
            {
                "k_points": tuple(k_points),
                "generators": tuple(tuple(g) for g in generators),
                "max_word_length": int(max_word_length),
            },
        )


# --------------------------------------------------------------------------
# point index (mode-aware membership)


class PointIndex:
    """Exact dict lookup, or an eps-grid with neighbor probing for floats
    with eps > 0.

    Exact windows decide membership on their grid; the index serves float
    windows, the float orbit sweep (``_orbit_loop``), ``HolonomySet.contains``
    and the point loops kept as references for the exact paths.
    """

    def __init__(self, points, mode: Mode):
        self.mode = mode
        self._exact = mode.is_exact or mode.eps == 0
        self._by_key = {}
        self._far = {}  # points beyond the eps-cells, by exact coordinates
        self._cell = mode.eps
        for i, p in enumerate(points):
            self.add(p, i)

    def add(self, p: ZPoint, i: int) -> None:
        """Record ``p`` under index ``i``."""
        if self._exact:
            self._by_key[(p.re, p.im)] = i
            return
        key = self._grid_key(p)
        if key is None:
            self._far[(p.re, p.im)] = i
        else:
            self._by_key.setdefault(key, []).append((p, i))

    def _grid_key(self, p: ZPoint):
        """The eps-cell of ``p``; None where a coordinate over eps is not
        finite, as eps then lies below that coordinate's ulp and ``p``
        compares exactly, as at eps = 0."""
        kx, ky = p.re / self._cell, p.im / self._cell
        if math.isinf(kx) or math.isinf(ky):
            return None
        return math.floor(kx), math.floor(ky)

    def find(self, p: ZPoint):
        """Index of the window point equal to ``p`` (mode-aware), or None."""
        if self._exact:
            return self._by_key.get((p.re, p.im))
        key = self._grid_key(p)
        if key is None:
            return self._far.get((p.re, p.im))
        kx, ky = key
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for q, i in self._by_key.get((kx + dx, ky + dy), ()):
                    if same_point(p, q, self.mode):
                        return i
        return None

    def __contains__(self, p: ZPoint) -> bool:
        return self.find(p) is not None


# --------------------------------------------------------------------------
# windows


class ZeroWindow:
    """A canonically ordered finite trace of a zero sequence in a ball.

    ``grid`` is the only coordinate store: the points on their coordinate
    grid (see the module docstring), in canonical order.  ``points``, the
    same points as ``ZPoint``s, are built from it on first access.  The
    sampling region is the closed ball of radius ``radius`` (a Fraction in
    exact mode) centered at ``center``; for freshly generated windows the
    center equals ``translation``, the offset that moved the raw
    norm-smallest term to the origin (so raw coordinates are
    ``point - translation``).  Windows built from explicit raw coordinates
    have ``translation = None`` and are centered at the origin.
    """

    def __init__(self, points, radius, mode: Mode = EXACT, source=None,
                 translation=None, center=None, check=True):
        xs, ys, scale = coordinate_grid(tuple(points), mode)
        if check:
            _require_finite(xs, ys, scale)
            if (canonical_permutation(xs, ys) != np.arange(len(xs))).any():
                raise ValueError("points not in canonical order")
        self._build(xs, ys, scale, radius, mode, source, translation, center, check)

    @classmethod
    def _on_grid(cls, xs, ys, scale, radius, mode, source=None, translation=None,
                 center=None, check=True) -> "ZeroWindow":
        """The window over the grid points (xs, ys) / ``scale``."""
        w = cls.__new__(cls)
        w._build(xs, ys, scale, radius, mode, source, translation, center, check)
        return w

    def _build(self, xs, ys, scale, radius, mode, source, translation, center, check):
        """Reduce, type and, with ``check``, test and sort the grid: a point
        that is not finite or ``same_point`` as another one raises."""
        if scale is not None:
            g = math.gcd(scale, int(np.gcd.reduce(xs)), int(np.gcd.reduce(ys)))
            xs, ys, scale = _typed_grid(xs // g, ys // g, scale // g)
        if check:
            _require_finite(xs, ys, scale)
            order = canonical_permutation(xs, ys)
            xs, ys = xs[order], ys[order]
            i = _coinciding(xs, ys, mode)[0][:1]
            if len(i):
                raise DuplicatePoint(f"repeated point {grid_points(xs[i], ys[i], scale)[0]!r}")
        self.grid = (xs, ys, scale)
        self.radius = as_scalar(radius, mode)
        self.mode = mode
        self.source = source
        self.translation = translation
        if center is None:
            center = translation if translation is not None else ZPoint.zero(mode)
        self.center = center
        self._cache = {}

    @cached_property
    def points(self) -> tuple:
        return tuple(grid_points(*self.grid))

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_points(points, radius, mode: Mode = EXACT, source=None) -> "ZeroWindow":
        """Window over explicit raw coordinates (no canonicalizing shift)."""
        w = ZeroWindow._on_grid(*coordinate_grid(list(points), mode), radius, mode, source)
        if not len(w):
            raise EmptyWindow("no points")
        out = np.flatnonzero(_outside_ball(*w.grid, w.radius, mode, w.center))
        if len(out):
            raise ValueError(f"point {w.points[out[0]]!r} outside sampling radius {radius}")
        return w

    def translate(self, b: ZPoint) -> "ZeroWindow":
        """The same trace moved by ``b`` (sampling region moves along)."""
        return ZeroWindow._on_grid(*_moved(*self.grid, b), self.radius, self.mode,
                                   self.source, None, self.center + b)

    def canonicalize(self) -> "ZeroWindow":
        """Translate so the first (norm-smallest) point sits at the origin."""
        if self.is_canonical and self.translation is not None:
            return self
        xs, ys, scale = self.grid
        center = self.center + grid_points(-xs[:1], -ys[:1], scale)[0]
        return ZeroWindow._on_grid(xs - xs[0], ys - ys[0], scale, self.radius, self.mode,
                                   self.source, center, center)

    # -- basic properties ---------------------------------------------------

    def __len__(self):
        return len(self.grid[0])

    def __iter__(self):
        return iter(self.points)

    @property
    def is_canonical(self) -> bool:
        return len(self) > 0 and bool(self.grid[0][0] == 0 and self.grid[1][0] == 0)

    def raw_points(self) -> list:
        off = self.translation if self.translation is not None else ZPoint.zero(self.mode)
        return [p - off for p in self.points]

    def head(self, n: int) -> "ZeroWindow":
        """The first ``n`` points in canonical order, same sampling region."""
        if not 1 <= n <= len(self):
            raise ValueError(f"need 1 <= n <= {len(self)}, got {n}")
        if n == len(self):
            return self
        xs, ys, scale = self.grid
        return ZeroWindow._on_grid(xs[:n], ys[:n], scale, self.radius, self.mode,
                                   self.source, self.translation, self.center, check=False)

    def index(self) -> PointIndex:
        idx = self._cache.get("index")
        if idx is None:
            idx = PointIndex(self.points, self.mode)
            self._cache["index"] = idx
        return idx

    def min_gap(self) -> float:
        """Smallest pairwise distance (float).

        The grid is sorted by (x, y), with x the axis of larger extent, and
        the points j apart in that order are compared for j = 1, 2, ...
        until the smallest dx**2 at offset j is no smaller than the best
        squared distance found: dx only grows with j.  On the other axis a
        line of points, all of one x, would compare every pair.
        """
        g = self._cache.get("min_gap")
        if g is None:
            xs, ys, scale = self.grid
            g = math.inf
            if len(xs) > 1:
                if ys.max() - ys.min() > xs.max() - xs.min():
                    xs, ys = ys, xs
                order = np.lexsort((ys, xs))
                xs, ys = xs[order], ys[order]
                d = math.inf
                for j in range(1, len(xs)):
                    dx2 = (xs[j:] - xs[:-j]) ** 2
                    if dx2.min() >= d:
                        break
                    d = min(d, (dx2 + (ys[j:] - ys[:-j]) ** 2).min())
                # Python int division rounds correctly, as float(Fraction) does
                g = math.sqrt(d if scale is None else int(d) / (scale * scale))
            self._cache["min_gap"] = g
        return g

    def in_region(self, p: ZPoint, slack: float = 0.0) -> bool:
        """Is ``p`` inside the sampled ball?  Exact when slack == 0."""
        d2 = (p - self.center).norm2()
        if slack == 0.0 and self.mode.is_exact:
            return d2 <= self.radius * self.radius
        reach = float(self.radius) + slack
        return float(d2) <= reach * reach


# --------------------------------------------------------------------------
# generation


def _raw_points(spec: GeneratorSpec, radius, mode: Mode) -> tuple:
    """``(xs, ys, scale)`` of the raw points of ``spec`` in the closed ball of
    ``radius`` about the origin."""
    kind = spec.kind
    if kind == "orbit":
        xs, ys, scale = _orbit_points(spec, radius, mode)
    elif kind == "explicit":
        xs, ys, scale = coordinate_grid(
            [p if isinstance(p, ZPoint) else ZPoint.of(p[0], p[1], mode)
             for p in spec.params["points"]], mode)
    else:
        n = math.floor(float(radius) + 1e-12)
        xs = np.arange(-n, n + 1, dtype=np.int64 if mode.is_exact else float)
        if kind == "positive-integers":
            xs = xs[xs >= 1]
        elif kind == "odd4n13-positive":
            # {4n+1, 4n+3 : n >= 1} is every odd integer from 5 upward.
            xs = xs[(xs >= 5) & (xs % 2 != 0)]
        elif kind == "odd4n13-all":
            # With n ranging over all integers the family covers every odd integer.
            xs = xs[xs % 2 != 0]
        ys = np.zeros_like(xs)
        if kind == "gaussian-lattice":
            xs, ys = np.repeat(xs, len(xs)), np.tile(xs, len(xs))
        elif kind == "integers-plus-minus-i" and float(radius) >= 1.0:
            xs, ys = np.append(xs, 0), np.append(ys, -1)
        scale = 1 if mode.is_exact else None
    inside = ~_outside_ball(xs, ys, scale, radius, mode, ZPoint.zero(mode))
    return xs[inside], ys[inside], scale


def _contracting(a, b, c, d) -> bool:
    """Is [[a, b], [c, d]]'s largest singular value below 1?  With F the sum
    of squared entries and D the determinant, the squared singular values
    s1 >= s2 have s1 + s2 = F and s1*s2 = D^2, so both sit below 1 exactly
    when F < 2 and F - 1 < D^2: no square roots, exact on rationals."""
    det = a * d - b * c
    if det == 0:
        raise SingularMatrix("contraction test needs an invertible matrix")
    f = a * a + b * b + c * c + d * d
    return f < 2 and f - 1 < det * det


def _orbit_points(spec: GeneratorSpec, radius, mode: Mode) -> tuple:
    """``(xs, ys, scale)`` of the orbit of ``spec``'s seeds in the closed ball
    of ``radius`` about the origin, words of up to ``max_word_length``
    letters, on the exact grid (``_orbit_sweep``) or one float point at a
    time (``_orbit_loop``)."""
    alphabet, seeds = _orbit_alphabet(spec, mode)
    max_len = spec.params["max_word_length"]
    if mode.is_exact:
        return _orbit_sweep(alphabet, seeds, max_len, radius)
    return coordinate_grid(_orbit_loop(alphabet, seeds, max_len, radius, mode), mode)


def _orbit_alphabet(spec: GeneratorSpec, mode: Mode) -> tuple:
    """(alphabet, seeds) of an orbit spec: the generators, each checked to
    be invertible and not contracting, followed by its inverse where that
    differs, and the seeds as ``ZPoint``s."""
    gens = [tuple(as_scalar(v, mode) for v in g) for g in spec.params["generators"]]
    for a, b, c, d in gens:
        if _contracting(a, b, c, d):
            raise ContractingGenerator(f"generator {((a, b), (c, d))} is contracting")
    # Sweep by the generated group, so inverses join the alphabet.
    alphabet = []
    for a, b, c, d in gens:
        det = a * d - b * c
        inv = (d / det, -b / det, -c / det, a / det)
        alphabet.append((a, b, c, d))
        if inv != (a, b, c, d):
            alphabet.append(inv)
    seeds = [p if isinstance(p, ZPoint) else ZPoint.of(p[0], p[1], mode)
             for p in spec.params["k_points"]]
    return alphabet, seeds


def _orbit_loop(alphabet, seeds, max_len: int, radius, mode: Mode) -> list:
    """The orbit's points, one ``ZPoint`` at a time, in the order they are
    first met: the seeds, then each depth's images, point by point and
    letter by letter.  The float path, and the reference for the exact one;
    in float mode two rounded copies of one image are one point, the
    first to arrive."""
    seen = PointIndex((), mode)
    found, origin = [], ZPoint.zero(mode)

    def admit(batch: list) -> list:
        xs, ys, scale = coordinate_grid(batch, mode)
        new = []
        for q, out in zip(batch, _outside_ball(xs, ys, scale, radius, mode, origin).tolist()):
            if not out and q not in seen:
                seen.add(q, len(found))
                found.append(q)
                new.append(q)
        return new

    frontier = admit(seeds)
    depth = 0
    while frontier and depth < max_len:
        depth += 1
        frontier = admit([ZPoint(a * p.re + b * p.im, c * p.re + d * p.im)
                          for p in frontier for a, b, c, d in alphabet])
    return found


def _orbit_sweep(alphabet, seeds, max_len: int, radius) -> tuple:
    """``(xs, ys, scale)`` of ``_orbit_loop``'s exact points, in its order.

    The letters are integer matrices N over D, the lcm of their entries'
    denominators, so a depth maps the whole frontier in one array
    operation, onto a grid D times finer when D > 1.  The images inside the
    ball are kept; repeats and points already found are dropped on their
    ``_packed`` keys, first copies kept.  Coordinates are int64 while no
    image or point found exceeds 2**28, and Python ints past that.
    """
    den = math.lcm(*(v.denominator for m in alphabet for v in m))
    mats = np.array([[int(v * den) for v in m] for m in alphabet], dtype=object).reshape(-1, 4)
    top = int(np.abs(mats).max(initial=0))
    r = Fraction(radius)
    xs, ys, scale = coordinate_grid(seeds, EXACT)
    fx, fy = xs[:0], ys[:0]  # the points found so far
    depth = 0
    while True:
        inside = ~_outside_ball(xs, ys, scale, r, EXACT, ZPoint.zero())
        # every coordinate kept is within lim, so the next depth's images
        # are within 2 top lim and the points found within D lim
        lim = r.numerator * scale // r.denominator
        dtype = object if max(lim * den, 2 * top * lim) > _INT_COORD_LIMIT else np.int64
        xs, ys = xs[inside].astype(dtype), ys[inside].astype(dtype)
        fx, fy = fx.astype(dtype), fy.astype(dtype)
        keys = _packed(xs, ys, lim)[0]
        first = np.sort(np.unique(keys, return_index=True)[1])
        first = first[~np.isin(keys[first], _packed(fx, fy, lim)[0])]
        xs, ys = xs[first], ys[first]
        fx, fy = np.concatenate((fx, xs)), np.concatenate((fy, ys))
        if not len(xs) or depth >= max_len:
            return fx, fy, scale
        depth += 1
        a, b, c, d = mats.T.astype(dtype)
        xs, ys = ((xs[:, None] * a + ys[:, None] * b).ravel(),
                  (xs[:, None] * c + ys[:, None] * d).ravel())
        if den > 1:
            scale, fx, fy = scale * den, fx * den, fy * den


def generate(spec: GeneratorSpec, radius, mode: Mode = EXACT) -> ZeroWindow:
    """Build the canonical window: raw trace in the ball, shifted to 0.

    Raw points of norm <= radius survive the hard cutoff; the whole set is
    then translated so the canonically first term lands at the origin, and
    re-sorted.  The translation is recorded on the window.
    """
    xs, ys, scale = _raw_points(spec, radius, mode)
    if not len(xs):
        raise EmptyWindow(f"{spec.kind} has no points of norm <= {radius}")
    # the raw grid's canonical order is that of its reduced grid; the one
    # checked build, of the moved points, tests and sorts them
    first = canonical_permutation(xs, ys)[:1]
    # 0 - x, not -x: a float window's first point at 0.0 moves by 0.0, not -0.0
    shift = grid_points(0 - xs[first], 0 - ys[first], scale)[0]
    return ZeroWindow._on_grid(xs - xs[first], ys - ys[first], scale, radius, mode, spec, shift,
                               shift)


# --------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "violations": [{"code": c, "detail": d} for c, d in self.violations],
            "notes": list(self.notes),
        }


def validate(w: ZeroWindow) -> ValidationReport:
    """Check window invariants; the report is empty iff they all hold."""
    rep = ValidationReport()
    xs, ys, scale = w.grid
    if not len(xs):
        rep.violations.append(("EmptyWindow", "window has no points"))
        return rep
    order = canonical_permutation(xs, ys)
    # points coincide by their pairs in canonical order, among the finite ones
    finite = order if scale is not None \
        else order[np.isfinite(xs[order]) & np.isfinite(ys[order])]
    found = {}
    pairs = zip(*(finite[a].tolist() for a in _coinciding(xs[finite], ys[finite], w.mode)))
    for i, j in map(sorted, pairs):
        found[i, j] = ("DuplicatePoint", f"points {i} and {j} coincide")
    # the sort is stable, so row i sorts after row i + 1 iff its rank is
    # higher, and that pair is out of order unless it coincides
    rank = np.argsort(order)
    for i in np.flatnonzero(rank[:-1] > rank[1:]).tolist():
        found.setdefault((i, i + 1), ("OrderingViolation",
                                      f"points {i} and {i + 1} out of canonical order"))
    rep.violations += [found[k] for k in sorted(found)]
    for i in np.flatnonzero(_outside_ball(xs, ys, scale, w.radius, w.mode, w.center)).tolist():
        rep.violations.append(("RadiusViolation", f"point {i} lies outside the sampled ball"))
    if w.translation is not None and not w.is_canonical:
        rep.violations.append(
            ("FirstPointNonzero", "canonicalized window must start at 0"))
    if scale is None:
        for i in np.flatnonzero(~(np.isfinite(xs) & np.isfinite(ys))).tolist():
            rep.violations.append(("NonFinite", f"point {i} is not finite"))
    else:
        # the coordinate x / scale has denominator scale / gcd(x, scale)
        dmax = scale // int(np.gcd(np.concatenate((xs, ys)), scale).min())
        rep.notes.append(f"max coordinate denominator {dmax}")
    kind = w.source.kind if w.source is not None else None
    if kind in (None, "explicit"):
        rep.notes.append("divergence of the underlying sequence not verifiable "
                         "from an explicit point list")
    return rep


# --------------------------------------------------------------------------
# sup norm


def sup_norm(points) -> float:
    """Supremum of point norms; the argmax is located exactly first."""
    pts = list(points)
    if not pts:
        raise EmptyWindow("sup_norm of an empty point list")
    best = pts[0]
    for p in pts[1:]:
        if p.norm2() > best.norm2():
            best = p
    return best.norm()


# --------------------------------------------------------------------------
# JSON form


def window_to_json(w: ZeroWindow) -> dict:
    """JSON form of ``w``; ``center`` is written only where it differs from
    what ``window_from_json`` infers: the translation, or the origin."""
    t = None
    if w.translation is not None:
        t = [scalar_repr(w.translation.re), scalar_repr(w.translation.im)]
    r = float(w.radius)  # "p/q" only where no float is exact
    data = {"mode": w.mode.kind, "radius": r if r == w.radius else str(w.radius), "translation": t}
    if w.center != (w.translation or ZPoint.zero(w.mode)):
        data["center"] = [scalar_repr(w.center.re), scalar_repr(w.center.im)]
    data["points"] = [[scalar_repr(p.re), scalar_repr(p.im)] for p in w.points]
    return data


def window_from_json(data: dict, eps: float = 1e-9) -> ZeroWindow:
    kind = data.get("mode", "exact")
    if kind not in ("exact", "float"):
        raise ModeMismatch(f"unknown mode {kind!r}")
    mode = EXACT if kind == "exact" else float_mode(eps)
    parsed = {}

    def scalar(v):
        # one Fraction per distinct "p/q" string; numbers convert cheaply,
        # and a float zero keeps its sign
        if not isinstance(v, str):
            return as_scalar(v, mode)
        got = parsed.get(v)
        if got is None:
            got = parsed[v] = as_scalar(v, mode)
        return got

    pts = [ZPoint(scalar(re), scalar(im)) for re, im in data["points"]]
    t, c = data.get("translation"), data.get("center")
    translation = ZPoint(scalar(t[0]), scalar(t[1])) if t is not None else None
    center = ZPoint(scalar(c[0]), scalar(c[1])) if c is not None else None
    return ZeroWindow._on_grid(*coordinate_grid(pts, mode), data["radius"], mode, None,
                               translation, center)
