"""Combinatorial model of the m-cyclic cover branched over the window zeros.

Charts are fixed by a cut system: one vertical ray hanging straight down
from every zero.  Crossing a cut left-to-right raises the sheet index by one
(mod m), right-to-left lowers it; a counterclockwise loop around a single
zero therefore gains +1.  A path vertex landing exactly on a cut line is
treated as lying on the right side — the deterministic equivalent of the
usual "+eps in x" perturbation — and the event is flagged rather than
silently absorbed.

Crossings are computed on one grid per path: the polyline's vertices join
the window's coordinate grid (``ZeroWindow.grid``) once, and each segment
meets every cut at once, exact paths in integer arithmetic, float paths with
the float formulas.  Vertices are tested against the zeros on that grid with
``same_point``'s predicate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .errors import PathThroughBranchPoint, RadiusTooLarge
from .zseq import Mode, ZPoint, ZeroWindow, _same, coordinate_grid, rescale_grid


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
# crossing computation


def _on_window_grid(vx: list, vy: list, scale, w: ZeroWindow) -> tuple:
    """Vertex grid coordinates (lists of Python scalars over ``scale``) and
    the zeros of ``w``, moved to one grid: ``(vx, vy, xs, ys)``.  Exact
    grids meet on the lcm of the two scales, float grids as they are."""
    xs, ys, ws, _ = w.grid
    if ws is None:
        return vx, vy, xs, ys
    s = math.lcm(scale, ws)
    if s != scale:
        vx, vy = [x * (s // scale) for x in vx], [y * (s // scale) for y in vy]
    return (vx, vy, *rescale_grid(xs, ys, s // ws, max(map(abs, vx + vy))))


def _path_grid(verts: list, w: ZeroWindow) -> tuple:
    """The polyline ``verts`` and the zeros of ``w`` on one grid, and the
    indices of the vertices that are ``same_point`` as some zero."""
    vx, vy, scale, _ = coordinate_grid(verts, w.mode, base=w.grid[2])
    vx, vy, xs, ys = grid = _on_window_grid(vx.tolist(), vy.tolist(), scale, w)
    step = 1 + (1 << 20) // (1 + len(xs))  # vertex blocks bound the differences' size
    hit = [_same(np.subtract.outer(vx[i:i + step], xs), np.subtract.outer(vy[i:i + step], ys),
                 w.mode).any(axis=1) for i in range(0, len(vx), step)]
    return grid, np.flatnonzero(np.concatenate(hit)).tolist()


def _checked_grid(verts: list, w: ZeroWindow) -> tuple:
    """The grid of ``_path_grid`` for a polyline that must miss every zero."""
    grid, at = _path_grid(verts, w)
    if at:
        raise PathThroughBranchPoint(f"path vertex {at[0]} is a window zero")
    return grid


def _crossed(ax, ay, bx, by, xs, ys, exact: bool, seg_idx: int):
    """Indices of the cuts (zeros (xs, ys)) that the segment from (ax, ay)
    to (bx, by) crosses below their zeros, all cuts at once; every crossing
    has direction +1 when bx > ax, else -1.

    Side rule: x >= cut-x counts as the right side, for both endpoints.  A
    pass through a zero raises PathThroughBranchPoint unless it happens at
    a segment endpoint (the vertex checks own that case).

    On an exact grid, with dx = bx - ax, the segment passes below zero
    (X, Y) iff (ay - Y)*dx + (X - ax)*(by - ay) has the sign opposite to
    dx, and through it iff that is 0.  Float grids run the float formulas.
    """
    ks = np.flatnonzero((ax >= xs) != (bx >= xs))
    if not len(ks):
        return ks
    X, Y = xs[ks], ys[ks]
    dx, dy = bx - ax, by - ay
    if exact:
        s = (ay - Y) * dx + (X - ax) * dy
        # 0 < t < 1 on a crossing whose ends are off the cut line
        through = (s == 0) & (X != ax) & (X != bx)
        below = (s < 0) if dx > 0 else (s > 0)
    else:
        t = (X - ax) / dx
        y_star = ay + t * dy
        through = (y_star == Y) & (0 < t) & (t < 1)
        below = y_star < Y
    hits = np.flatnonzero(through)
    if len(hits):
        raise PathThroughBranchPoint(f"segment {seg_idx} passes through zero {ks[hits[0]]}")
    return ks[below]


def _delta(vx: list, vy: list, xs, ys, exact: bool) -> int:
    """Sum of the crossing directions along the polyline (vx, vy)."""
    return sum(len(_crossed(ax, ay, bx, by, xs, ys, exact, i)) * (1 if bx > ax else -1)
               for i, (ax, ay, bx, by) in enumerate(zip(vx, vy, vx[1:], vy[1:])))


# --------------------------------------------------------------------------
# operations


def fiber(base, w: ZeroWindow, m: int) -> list:
    """The m preimages of a regular base point, or the single cone point."""
    _check_m(m)
    p = _as_vertex(base, w.mode)
    if _path_grid([p], w)[1]:
        return [CoverPoint(p.to_complex(), 0, True)]
    return [CoverPoint(p.to_complex(), s, False) for s in range(m)]


def crossing_log(poly, cuts: CutSystem) -> list:
    """All signed cut crossings along the polyline, in traversal order."""
    w = cuts.window
    verts = [_as_vertex(v, w.mode) for v in poly]
    if len(verts) < 2:
        return []
    vx, vy, xs, ys = _checked_grid(verts, w)
    events = []
    for i, (ax, ay, bx, by) in enumerate(zip(vx, vy, vx[1:], vy[1:])):
        ks = _crossed(ax, ay, bx, by, xs, ys, w.mode.is_exact, i)
        if len(ks):
            X = xs[ks]
            # rounded as float(Fraction): Python int division is correctly rounded, and
            # so is float64's on int64s below 2**53; abs keeps t = 0 from being -0.0
            ts = (abs(X - ax) / abs(bx - ax)).tolist()
            seg = list(map(partial(tuple.__new__, CrossingEvent),
                           zip(repeat(i), ks.tolist(), repeat(1 if bx > ax else -1), ts,
                               ((X == ax) | (X == bx)).tolist())))
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
    sheet = (start.sheet + _delta(*_checked_grid(verts, w), w.mode.is_exact)) % cuts.m
    return CoverPoint(verts[-1].to_complex(), sheet, False)


class LiftedSaddle(NamedTuple):
    start_sheet: int
    end_sheet: int
    delta: int
    start: CoverPoint
    end: CoverPoint


def lift_saddle(seg, w: ZeroWindow, cuts: CutSystem) -> list:
    """The m lifts of a saddle connection, labelled by start sheet.

    Which lift pairs with which sheet at the far endpoint is not canonical;
    only the start-sheet label and the crossing shift are reported.  Both
    endpoints are cone points and contribute no crossings of their own cuts.
    """
    ends = seg.from_idx, seg.to_idx
    xs, ys, scale, _ = w.grid
    vx, vy = [xs.item(k) for k in ends], [ys.item(k) for k in ends]
    # x / scale on Python ints rounds as float(Fraction) does
    zs = [complex(x, y) if scale is None else complex(x / scale, y / scale)
          for x, y in zip(vx, vy)]
    cw = cuts.window
    if w.mode.is_exact == cw.mode.is_exact:
        grid = _on_window_grid(vx, vy, scale, cw)
    else:  # the ends of a window in the other mode convert as path vertices do
        grid = _path_grid([_as_vertex(z, cw.mode) for z in zs], cw)[0]
    delta = _delta(*grid, cw.mode.is_exact)
    start, end = (CoverPoint(z, 0, True) for z in zs)
    return [LiftedSaddle(s, (s + delta) % cuts.m, delta, start, end)
            for s in range(cuts.m)]


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
    delta = _delta(*_checked_grid(verts, w), w.mode.is_exact)
    # each turn moves the sheet by delta mod m: back at the start after
    # m / gcd(delta, m) turns
    turns = m // math.gcd(delta, m)
    return ConeAngle(zero_idx, turns, 2 * math.pi * turns, float(radius), delta)
