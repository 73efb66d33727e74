"""Combinatorial model of the m-cyclic cover branched over the window zeros.

Charts are fixed by a cut system: one vertical ray hanging straight down
from every zero.  Crossing a cut left-to-right raises the sheet index by one
(mod m), right-to-left lowers it; a counterclockwise loop around a single
zero therefore gains +1.  A path vertex landing exactly on a cut line is
treated as lying on the right side — the deterministic equivalent of the
usual "+eps in x" perturbation — and the event is flagged rather than
silently absorbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import PathThroughBranchPoint, RadiusTooLarge
from .zseq import Mode, ZPoint, ZeroWindow, same_point


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


@dataclass(frozen=True)
class CoverPoint:
    base: complex
    sheet: int
    is_cone: bool = False


@dataclass(frozen=True)
class CrossingEvent:
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


@dataclass(frozen=True)
class SingularitySets:
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


def _segment_events(a: ZPoint, b: ZPoint, cuts: CutSystem, seg_idx: int,
                    skip_zero_hit: bool = False) -> list:
    """Signed crossings of one segment against every cut.

    Side rule: x >= cut-x counts as the right side, for both endpoints.  An
    exact pass through a zero raises PathThroughBranchPoint unless it happens
    at a segment endpoint (the vertex-level checks own that case).
    """
    events = []
    for k, z in enumerate(cuts.window.points):
        right_a = a.re >= z.re
        right_b = b.re >= z.re
        if right_a == right_b:
            continue
        t = (z.re - a.re) / (b.re - a.re)
        y_star = a.im + t * (b.im - a.im)
        if y_star == z.im:
            if 0 < t < 1 and not skip_zero_hit:
                raise PathThroughBranchPoint(
                    f"segment {seg_idx} passes through zero {k}")
            continue
        if y_star > z.im:
            continue  # passes above the zero, off the cut
        direction = 1 if right_b else -1
        on_line = (a.re == z.re) or (b.re == z.re)
        events.append(CrossingEvent(seg_idx, k, direction, float(t), on_line))
    events.sort(key=lambda e: (e.t, e.zero_index))
    return events


def _path_events(vertices: list, cuts: CutSystem) -> list:
    events = []
    for i, (a, b) in enumerate(zip(vertices, vertices[1:])):
        events.extend(_segment_events(a, b, cuts, i))
    return events


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
    delta = sum(e.direction for e in _path_events(verts, cuts))
    sheet = (start.sheet + delta) % cuts.m
    return CoverPoint(verts[-1].to_complex(), sheet, False)


@dataclass(frozen=True)
class LiftedSaddle:
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
    events = _segment_events(a, b, cuts, 0, skip_zero_hit=False)
    delta = sum(e.direction for e in events)
    start = CoverPoint(a.to_complex(), 0, True)
    end = CoverPoint(b.to_complex(), 0, True)
    return [LiftedSaddle(s, (s + delta) % cuts.m, delta, start, end)
            for s in range(cuts.m)]


@dataclass(frozen=True)
class ConeAngle:
    zero_index: int
    turns: int
    angle: float
    loop_radius: float
    loop_delta: int


def cone_angle(zero_idx: int, w: ZeroWindow, m: int, radius: float | None = None,
               sides: int = 16) -> ConeAngle:
    """Total angle at a cone point, measured by lifting a small loop.

    A regular ``sides``-gon around the zero is lifted repeatedly until the
    sheet returns to its start; the angle is 2*pi times the number of turns.
    The loop radius must stay at or below half the window's minimum gap.
    """
    _check_m(m)
    if not 0 <= zero_idx < len(w.points):
        raise ValueError(f"zero index {zero_idx} out of range")
    gap = w.min_gap()
    if not math.isfinite(gap):
        gap = max(2.0 * w.radius, 1.0)
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
    delta = sum(e.direction for e in _path_events(verts, cuts))
    sheet = 0
    turns = 0
    while True:
        turns += 1
        sheet = (sheet + delta) % m
        if sheet == 0:
            break
        if turns > m:
            raise RuntimeError("loop failed to close within m turns")
    return ConeAngle(zero_idx, turns, 2 * math.pi * turns, float(radius), delta)
