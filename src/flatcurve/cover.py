"""Combinatorial model of the m-cyclic cover branched over the window zeros.

Charts are fixed by a cut system: one vertical ray hanging straight down
from every zero.  Crossing a cut left-to-right raises the sheet index by one
(mod m), right-to-left lowers it; a counterclockwise loop around a single
zero therefore gains +1.  A path vertex landing exactly on a cut line is
treated as lying on the right side — the deterministic equivalent of the
usual "+eps in x" perturbation — and the event is flagged rather than
silently absorbed.

Crossings run on an index of the cuts by column, built once per window:
the distinct cut x-values, sorted, and for each column its zeros' y-values,
sorted.  A segment meets only the columns in its x-range, found by
bisection, and in each it crosses the cuts of the zeros above its height
there, found by one more bisection.  Exact paths stay in integer arithmetic
on a grid that the window's grid (``ZeroWindow.grid``) divides, so the
window's grid is never rescaled; float paths use the float formulas.  Path
vertices are tested against the zeros through the same index, with
``same_point``'s predicate.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import partial
from itertools import chain, repeat
from operator import attrgetter, eq, sub, truediv
from typing import NamedTuple

import numpy as np

from .errors import PathThroughBranchPoint, RadiusTooLarge
from .zseq import Mode, ZPoint, ZeroWindow, _same, coordinate_grid


def _check_m(m: int) -> int:
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"covering degree m must be an integer >= 2, got {m!r}")
    return m


def _as_vertex(v, mode: Mode) -> ZPoint:
    """``v`` (a pair, ZPoint included, or a number) with the mode's scalars."""
    if isinstance(v, complex):
        return ZPoint.of(v.real, v.imag, mode)
    if isinstance(v, (int, float, Fraction)):
        return ZPoint.of(v, 0, mode)
    re, im = v
    return ZPoint.of(re, im, mode)


# --------------------------------------------------------------------------
# types


class CoverPoint(NamedTuple):
    base: complex
    sheet: int
    is_cone: bool = False


class CrossingEvent(NamedTuple):
    """One signed cut crossing along a path segment.

    ``on_line`` marks ties: an endpoint of the segment sat exactly on the
    cut's vertical line and was pushed to the right side.
    """

    segment: int
    zero_index: int
    direction: int
    t: float
    on_line: bool = False

    def to_dict(self) -> dict:
        return {
            "segment": self.segment,
            "zero_index": self.zero_index,
            "direction": self.direction,
            "t": self.t,
            "on_line": self.on_line,
        }


class CutSystem(NamedTuple):
    """Downward vertical cuts below every window zero, for an m-fold cover."""

    window: ZeroWindow
    m: int


def build_cuts(w: ZeroWindow, m: int) -> CutSystem:
    return CutSystem(w, _check_m(m))


class SingularitySets(NamedTuple):
    finite_cone_points: tuple
    infinite_cone_points: tuple = ()


def singularity_sets(w: ZeroWindow, m: int) -> SingularitySets:
    """All cone points of the covering surface: one per zero, nothing else.

    The metric completion adds no infinite-angle points for these covers, so
    the second component is empty by construction.
    """
    _check_m(m)
    cones = tuple(CoverPoint(p.to_complex(), 0, True) for p in w.points)
    return SingularitySets(finite_cone_points=cones)


# --------------------------------------------------------------------------
# the cuts by column


class _Columns(NamedTuple):
    """The cuts of a window by column, on the window's grid.

    ``x`` holds the distinct cut x-values, ascending; column c holds the
    zeros with x = x[c], their y-values ascending in ``ys[c]`` and their
    window indices in ``ks[c]``, all Python scalars."""

    x: list
    ys: list
    ks: list
    mode: Mode


def _columns(w: ZeroWindow) -> _Columns:
    """The ``_Columns`` of ``w``, built once per window."""
    got = w._cache.get("columns")
    if got is None:
        xs, ys, _ = w.grid
        order = np.lexsort((ys, xs))
        sx = xs[order]
        starts = [0, *(np.flatnonzero(sx[1:] != sx[:-1]) + 1).tolist()] if len(sx) else []
        bounds = list(zip(starts, [*starts[1:], len(sx)]))
        yl, kl = ys[order].tolist(), order.tolist()
        got = _Columns(sx[starts].tolist(), [yl[a:b] for a, b in bounds],
                       [kl[a:b] for a, b in bounds], w.mode)
        w._cache["columns"] = got
    return got


def _vertex_grid(verts: list, w: ZeroWindow) -> tuple:
    """``(vx, vy, f)``: the vertices' coordinates as Python scalars.  Exact
    vertices go on the coarsest grid that holds them and ``w``'s, f times
    finer than ``w``'s; float ones (f None) stay as they are."""
    vx, vy, scale = coordinate_grid(verts, w.mode, base=w.grid[2])
    return vx.tolist(), vy.tolist(), None if scale is None else scale // w.grid[2]


def _zero_vertices(vx: list, vy: list, cols: _Columns, f) -> list:
    """Indices of the vertices that are ``same_point`` as some zero.  An
    exact vertex is one when it lies on the window's grid and in a column.
    A float vertex is tested with ``_same``'s predicate against the zeros
    within a reach of it in x and in y that holds every zero the predicate
    can accept: twice eps, or 1e-150 where a difference's square could
    underflow to 0, plus a relative band for the rounding of x +- reach."""
    at = []
    if f is not None:
        for i, (x, y) in enumerate(zip(vx, vy)):
            if x % f == 0 and y % f == 0:
                x, y = x // f, y // f
                c = bisect_left(cols.x, x)
                if c < len(cols.x) and cols.x[c] == x:
                    col = cols.ys[c]
                    j = bisect_left(col, y)
                    if j < len(col) and col[j] == y:
                        at.append(i)
        return at
    reach = 2 * max(cols.mode.eps, 1e-150)
    for i, (x, y) in enumerate(zip(vx, vy)):
        rx, ry = reach + abs(x) * 2 ** -50, reach + abs(y) * 2 ** -50
        for c in range(bisect_left(cols.x, x - rx), bisect_right(cols.x, x + rx)):
            col, X = cols.ys[c], cols.x[c]
            if any(_same(x - X, y - Y, cols.mode)
                   for Y in col[bisect_left(col, y - ry):bisect_right(col, y + ry)]):
                at.append(i)
                break
    return at


def _path(verts: list, w: ZeroWindow) -> tuple:
    """``(vx, vy, cols, f)`` of a polyline that must miss every zero: its
    ``_vertex_grid`` and the ``_columns`` of ``w``."""
    vx, vy, f = _vertex_grid(verts, w)
    cols = _columns(w)
    at = _zero_vertices(vx, vy, cols, f)
    if at:
        raise PathThroughBranchPoint(f"path vertex {at[0]} is a window zero")
    return vx, vy, cols, f


def _crossed(ax, ay, bx, by, cols: _Columns, f, seg_idx: int) -> list:
    """Indices of the cuts (zeros) that the segment from (ax, ay) to (bx,
    by) crosses below their zeros, column by column.  Exact vertices lie on
    a grid f times finer than the window's, float ones (f None) on its
    floats.  Every crossing has direction +1 when bx > ax, else -1.

    Side rule: x >= cut-x counts as the right side, for both endpoints, so
    the segment meets the columns with x in (min(ax, bx), max(ax, bx)].  A
    pass through a zero raises PathThroughBranchPoint, naming the smallest
    such zero index, unless it happens at a segment endpoint (the vertex
    checks own that case).

    In column X the segment runs at height y*, and it passes below the
    column's zeros above y*: one bisection of their sorted y-values.  Float
    grids compute t = (X - ax) / dx and y* = ay + t * dy.  Exact grids,
    with c = ay * dx - ax * dy and dx > 0 (the line's equation, its sign
    chosen), compare Y with y* = (c + X f dy) / (f dx) by ``divmod`` on
    Python ints.
    """
    lo, hi = (ax, bx) if ax < bx else (bx, ax)
    dx, dy = bx - ax, by - ay
    hits, through = [], []
    if f is None:
        for i in range(bisect_right(cols.x, lo), bisect_right(cols.x, hi)):
            X, col = cols.x[i], cols.ys[i]
            t = (X - ax) / dx
            y_star = ay + t * dy
            j = bisect_right(col, y_star)
            if j and col[j - 1] == y_star and 0 < t < 1:
                through.append(cols.ks[i][j - 1])
            hits += cols.ks[i][j:]
    else:
        c = ay * dx - ax * dy
        if dx < 0:
            c, dx, dy = -c, -dx, -dy
        fdx, fdy = f * dx, f * dy
        for i in range(bisect_right(cols.x, lo // f), bisect_right(cols.x, hi // f)):
            X, col = cols.x[i], cols.ys[i]
            q, r = divmod(c + X * fdy, fdx)
            j = bisect_right(col, q)
            # a zero at y* in the right end's column is that end
            if r == 0 and j and col[j - 1] == q and X * f != hi:
                through.append(cols.ks[i][j - 1])
            hits += cols.ks[i][j:]
    if through:
        raise PathThroughBranchPoint(f"segment {seg_idx} passes through zero {min(through)}")
    return hits


def _delta(vx: list, vy: list, cols: _Columns, f) -> int:
    """Sum of the crossing directions along the polyline (vx, vy)."""
    total = 0
    for i, (ax, ay, bx, by) in enumerate(zip(vx, vy, vx[1:], vy[1:])):
        n = len(_crossed(ax, ay, bx, by, cols, f, i))
        total += n if bx > ax else -n
    return total


# --------------------------------------------------------------------------
# operations


def fiber(base, w: ZeroWindow, m: int) -> list:
    """The m preimages of a regular base point, or the single cone point."""
    _check_m(m)
    p = _as_vertex(base, w.mode)
    vx, vy, f = _vertex_grid([p], w)
    if _zero_vertices(vx, vy, _columns(w), f):
        return [CoverPoint(p.to_complex(), 0, True)]
    return [CoverPoint(p.to_complex(), s, False) for s in range(m)]


def crossing_log(poly, cuts: CutSystem) -> list:
    """All signed cut crossings along the polyline, in traversal order."""
    w = cuts.window
    verts = [_as_vertex(v, w.mode) for v in poly]
    if len(verts) < 2:
        return []
    vx, vy, cols, f = _path(verts, w)
    events = []
    for i, (ax, ay, bx, by) in enumerate(zip(vx, vy, vx[1:], vy[1:])):
        ks = _crossed(ax, ay, bx, by, cols, f, i)
        if ks:
            xs = w.grid[0][ks].tolist()
            if f is not None and f != 1:
                xs = [x * f for x in xs]
            # Python's int division rounds as float(Fraction); abs keeps
            # t = 0 from being -0.0; only the right end can sit on a cut line
            ts = map(truediv, map(abs, map(sub, xs, repeat(ax))), repeat(abs(bx - ax)))
            seg = list(map(partial(tuple.__new__, CrossingEvent),
                           zip(repeat(i), ks, repeat(1 if bx > ax else -1), ts,
                               map(eq, xs, repeat(max(ax, bx))))))
            seg.sort(key=attrgetter("t", "zero_index"))
            events += seg
    return events


def lift_path(poly, start: CoverPoint, cuts: CutSystem) -> CoverPoint:
    """End point of the lift of ``poly`` beginning at ``start``.

    The polyline must begin at the start's base point and avoid all zeros.
    """
    w = cuts.window
    verts = [_as_vertex(v, w.mode) for v in poly]
    if not verts:
        raise ValueError("empty polyline")
    if start.is_cone:
        raise ValueError("lifting must start at a regular point, not a cone point")
    base = complex(start.base)
    if abs(base - verts[0].to_complex()) > 1e-9 * (1 + abs(base)):
        raise ValueError("start point does not match the first vertex")
    sheet = (start.sheet + _delta(*_path(verts, w))) % cuts.m
    return CoverPoint(verts[-1].to_complex(), sheet, False)


class LiftedSaddle(NamedTuple):
    start_sheet: int
    end_sheet: int
    delta: int
    start: CoverPoint
    end: CoverPoint


_lifted_saddle = partial(tuple.__new__, LiftedSaddle)
_cone_point = partial(tuple.__new__, CoverPoint)


def lift_saddle(seg, w: ZeroWindow, cuts: CutSystem) -> list:
    """The m lifts of a saddle connection, labelled by start sheet.

    Which lift pairs with which sheet at the far endpoint is not canonical;
    only the start-sheet label and the crossing shift are reported.  Both
    endpoints are cone points and contribute no crossings of their own cuts.
    """
    i, j = seg.from_idx, seg.to_idx
    xs, ys, scale = w.grid
    ax, ay, bx, by = xs.item(i), ys.item(i), xs.item(j), ys.item(j)
    # x / scale on Python ints rounds as float(Fraction) does
    if scale is None:
        za, zb = complex(ax, ay), complex(bx, by)
    else:
        za, zb = complex(ax / scale, ay / scale), complex(bx / scale, by / scale)
    cw = cuts.window
    f = None
    if w.mode.is_exact != cw.mode.is_exact:  # the ends convert as path vertices do
        (ax, bx), (ay, by), f = _vertex_grid([_as_vertex(za, cw.mode), _as_vertex(zb, cw.mode)],
                                             cw)
    elif scale is not None:
        s = math.lcm(scale, cw.grid[2])
        if s != scale:
            ax, ay, bx, by = (v * (s // scale) for v in (ax, ay, bx, by))
        f = s // cw.grid[2]
    delta = len(_crossed(ax, ay, bx, by, _columns(cw), f, 0))
    if bx < ax:
        delta = -delta
    m = cuts.m
    return list(map(_lifted_saddle, zip(range(m), chain(range(delta % m, m), range(delta % m)),
                                        repeat(delta), repeat(_cone_point((za, 0, True))),
                                        repeat(_cone_point((zb, 0, True))))))


class ConeAngle(NamedTuple):
    zero_index: int
    turns: int
    angle: float
    loop_radius: float
    loop_delta: int


def cone_angle(zero_idx: int, w: ZeroWindow, m: int, radius: float | None = None,
               sides: int = 16) -> ConeAngle:
    """Total angle at a cone point, measured by lifting a small loop.

    A regular ``sides``-gon around the zero is lifted once; repeated, it
    brings the sheet back to its start after ``turns`` turns, and the angle
    is 2*pi times that number.
    The loop radius must stay at or below half the window's minimum gap.
    """
    _check_m(m)
    if not 0 <= zero_idx < len(w):
        raise ValueError(f"zero index {zero_idx} out of range")
    gap = w.min_gap()
    if not math.isfinite(gap):
        gap = max(2.0 * float(w.radius), 1.0)
    if radius is None:
        radius = gap / 4
    if radius <= 0:
        raise ValueError("loop radius must be positive")
    if radius > gap / 2:
        raise RadiusTooLarge(
            f"loop radius {radius} exceeds half the minimum point gap {gap / 2}")
    z = w.points[zero_idx].to_complex()
    # vertex angles offset so no vertex sits on the zero's own cut line
    offset = math.pi / (2 * sides)
    verts = []
    for j in range(sides + 1):
        ang = 2 * math.pi * (j % sides) / sides + offset
        p = z + radius * complex(math.cos(ang), math.sin(ang))
        verts.append(_as_vertex(p, w.mode))
    delta = _delta(*_path(verts, w))
    # each turn moves the sheet by delta mod m: back at the start after
    # m / gcd(delta, m) turns
    turns = m // math.gcd(delta, m)
    return ConeAngle(zero_idx, turns, 2 * math.pi * turns, float(radius), delta)
