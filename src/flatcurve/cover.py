"""Combinatorial model of the m-cyclic cover branched over the window zeros.

Charts are fixed by a cut system: one vertical ray hanging straight down
from every zero.  Crossing a cut left-to-right raises the sheet index by one
(mod m), right-to-left lowers it; a counterclockwise loop around a single
zero therefore gains +1.  A path vertex landing exactly on a cut line is
treated as lying on the right side — the deterministic equivalent of the
usual "+eps in x" perturbation — and the event is flagged rather than
silently absorbed.

Crossings are computed on the window's coordinate grid (``ZeroWindow.grid``),
every cut of a segment at once: exact segments with integer arithmetic,
float segments with the float formulas.
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
from .zseq import Mode, ZPoint, ZeroWindow, rescale_grid


def _check_m(m: int) -> int:
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"covering degree m must be an integer >= 2, got {m!r}")
    return m


def _as_vertex(v, mode: Mode) -> ZPoint:
    if isinstance(v, ZPoint):
        return v
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


def _segment_crossings(a: ZPoint, b: ZPoint, cuts: CutSystem, seg_idx: int,
                       times: bool = True) -> tuple:
    """Signed crossings of one segment against every cut, all cuts at once.

    Returns ``(direction, ks, ts, on_line)``: the sign every crossing of the
    segment shares, the indices of the cuts it crosses below their zeros,
    and each crossing's segment parameter and tie flag.  The last two are
    None when nothing crosses or ``times`` is false.

    Side rule: x >= cut-x counts as the right side, for both endpoints.  An
    exact pass through a zero raises PathThroughBranchPoint unless it happens
    at a segment endpoint (the vertex-level checks own that case).

    Exact segments are tested on the window's integer grid, rescaled to the
    lcm of its scale and the endpoint denominators: with dx = bx - ax the
    segment passes below zero (X, Y) iff (ay - Y)*dx + (X - ax)*(by - ay)
    has the sign opposite to dx, and through it iff that is 0.  Float
    segments run the float formulas elementwise.
    """
    xs, ys, scale, _ = cuts.window.grid
    if scale is None:
        ax, ay, bx, by = (float(c) for c in (a.re, a.im, b.re, b.im))
    else:
        ends = [Fraction(c) for c in (a.re, a.im, b.re, b.im)]
        lcm = math.lcm(scale, *(c.denominator for c in ends))
        ax, ay, bx, by = (c.numerator * (lcm // c.denominator) for c in ends)
        xs, ys = rescale_grid(xs, ys, lcm // scale, max(map(abs, (ax, ay, bx, by))))
    dx, dy = bx - ax, by - ay
    direction = 1 if dx > 0 else -1
    ks = np.flatnonzero((ax >= xs) != (bx >= xs))
    if not len(ks):
        return direction, ks, None, None
    X, Y = xs[ks], ys[ks]
    on_line = (X == ax) | (X == bx)
    if scale is None:
        t = (X - ax) / dx
        y_star = ay + t * dy
        through = y_star == Y
        interior = (0 < t) & (t < 1)
        below = y_star < Y
    else:
        s = (ay - Y) * dx + (X - ax) * dy
        through = s == 0
        interior = ~on_line  # 0 < t < 1 on a crossing
        below = (s < 0) if dx > 0 else (s > 0)
    hits = np.flatnonzero(through & interior)
    if len(hits):
        raise PathThroughBranchPoint(f"segment {seg_idx} passes through zero {ks[hits[0]]}")
    keep = np.flatnonzero(below)
    if not times:
        return direction, ks[keep], None, None
    # int64 operands below 2**53 convert to float exactly, and Python int
    # division rounds correctly, so t is float(Fraction(X - ax, dx)); the
    # absolute values, and in float mode + 0.0, keep t = 0 from turning into
    # -0.0 on a leftward segment
    ts = (t[keep] + 0.0 if scale is None else abs(X[keep] - ax) / abs(dx)).tolist()
    return direction, ks[keep], ts, on_line[keep]


def _segment_events(a: ZPoint, b: ZPoint, cuts: CutSystem, seg_idx: int) -> list:
    """The crossings of ``_segment_crossings`` as events, ordered by t."""
    direction, ks, ts, on_line = _segment_crossings(a, b, cuts, seg_idx)
    if not len(ks):
        return []
    events = list(map(partial(tuple.__new__, CrossingEvent),
                      zip(repeat(seg_idx), ks.tolist(), repeat(direction), ts, on_line.tolist())))
    events.sort(key=attrgetter("t", "zero_index"))
    return events


def _path_events(vertices: list, cuts: CutSystem) -> list:
    events = []
    for i, (a, b) in enumerate(zip(vertices, vertices[1:])):
        events.extend(_segment_events(a, b, cuts, i))
    return events


def _path_delta(vertices: list, cuts: CutSystem) -> int:
    """Sum of the crossing directions along the polyline, with the checks
    of ``_path_events`` but no events built."""
    delta = 0
    for i, (a, b) in enumerate(zip(vertices, vertices[1:])):
        direction, ks, _, _ = _segment_crossings(a, b, cuts, i, times=False)
        delta += direction * len(ks)
    return delta


def _check_vertices(vertices: list, cuts: CutSystem) -> None:
    idx = cuts.window.index()
    for i, v in enumerate(vertices):
        if v in idx:
            raise PathThroughBranchPoint(f"path vertex {i} is a window zero")


# --------------------------------------------------------------------------
# operations


def fiber(base, w: ZeroWindow, m: int) -> list:
    """The m preimages of a regular base point, or the single cone point."""
    _check_m(m)
    p = _as_vertex(base, w.mode)
    if p in w.index():
        return [CoverPoint(p.to_complex(), 0, True)]
    return [CoverPoint(p.to_complex(), s, False) for s in range(m)]


def crossing_log(poly, cuts: CutSystem) -> list:
    """All signed cut crossings along the polyline, in traversal order."""
    verts = [_as_vertex(v, cuts.window.mode) for v in poly]
    if len(verts) < 2:
        return []
    _check_vertices(verts, cuts)
    return _path_events(verts, cuts)


def lift_path(poly, start: CoverPoint, cuts: CutSystem) -> CoverPoint:
    """End point of the lift of ``poly`` beginning at ``start``.

    The polyline must begin at the start's base point and avoid all zeros.
    """
    verts = [_as_vertex(v, cuts.window.mode) for v in poly]
    if not verts:
        raise ValueError("empty polyline")
    if start.is_cone:
        raise ValueError("lifting must start at a regular point, not a cone point")
    base = complex(start.base)
    if abs(base - verts[0].to_complex()) > 1e-9 * (1 + abs(base)):
        raise ValueError("start point does not match the first vertex")
    _check_vertices(verts, cuts)
    sheet = (start.sheet + _path_delta(verts, cuts)) % cuts.m
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
    a = w.points[seg.from_idx]
    b = w.points[seg.to_idx]
    delta = _path_delta([a, b], cuts)
    start = CoverPoint(a.to_complex(), 0, True)
    end = CoverPoint(b.to_complex(), 0, True)
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
    cuts = build_cuts(w, m)
    # vertex angles offset so no vertex sits on the zero's own cut line
    offset = math.pi / (2 * sides)
    verts = []
    for j in range(sides + 1):
        ang = 2 * math.pi * (j % sides) / sides + offset
        p = z + radius * complex(math.cos(ang), math.sin(ang))
        verts.append(_as_vertex(p, w.mode))
    _check_vertices(verts, cuts)
    delta = _path_delta(verts, cuts)
    # each turn moves the sheet by delta mod m: back at the start after
    # m / gcd(delta, m) turns
    turns = m // math.gcd(delta, m)
    return ConeAngle(zero_idx, turns, 2 * math.pi * turns, float(radius), delta)
