import bisect
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import flatcurve as fc
from flatcurve import cover, zseq

from conftest import zp


def _window(points, radius):
    return fc.ZeroWindow.from_points(points, radius)


# ---------------------------------------------------------------------------
# cuts and crossings


def test_crossing_left_to_right_is_positive():
    # one zero at the origin; segment passes below it, left to right
    w = _window([zp(0)], 2)
    cuts = fc.build_cuts(w, 3)
    events = fc.crossing_log([zp(-1, -1), zp(1, -1)], cuts)
    assert len(events) == 1
    assert events[0].direction == 1
    assert events[0].zero_index == 0
    assert 0 < events[0].t < 1


def test_crossing_right_to_left_is_negative():
    w = _window([zp(0)], 2)
    cuts = fc.build_cuts(w, 2)
    events = fc.crossing_log([zp(1, -1), zp(-1, -1)], cuts)
    assert [e.direction for e in events] == [-1]


def test_passing_above_the_zero_misses_the_cut():
    w = _window([zp(0)], 2)
    cuts = fc.build_cuts(w, 2)
    assert fc.crossing_log([zp(-1, 1), zp(1, 1)], cuts) == []


def test_endpoint_on_cut_line_counts_as_right_side():
    w = _window([zp(0)], 2)
    cuts = fc.build_cuts(w, 2)
    # segment starts exactly on the vertical line below the zero
    events = fc.crossing_log([zp(0, -1), zp(-1, -1)], cuts)
    assert [e.direction for e in events] == [-1]
    assert events[0].on_line
    # and moving right from the line is no crossing at all
    assert fc.crossing_log([zp(0, -1), zp(1, -1)], cuts) == []


def test_path_through_branch_point_rejected():
    w = _window([zp(0)], 2)
    cuts = fc.build_cuts(w, 2)
    with pytest.raises(fc.PathThroughBranchPoint):
        fc.crossing_log([zp(-1, 0), zp(1, 0)], cuts)  # straight through 0
    with pytest.raises(fc.PathThroughBranchPoint):
        fc.crossing_log([zp(0), zp(1, 1)], cuts)  # vertex at the zero


def test_crossing_log_ordered_along_path():
    w = _window([zp(0), zp(1)], 3)
    cuts = fc.build_cuts(w, 2)
    events = fc.crossing_log([zp(-1, -1), zp(2, -1)], cuts)
    assert [e.zero_index for e in events] == [0, 1]
    assert events[0].t < events[1].t


def _segment_events_reference(a, b, cuts, seg_idx):
    """The per-cut loop on the stored coordinates that the crossing core
    replaced: Fractions in exact mode, floats in float mode."""
    events = []
    for k, z in enumerate(cuts.window.points):
        right_a = a.re >= z.re
        right_b = b.re >= z.re
        if right_a == right_b:
            continue
        t = (z.re - a.re) / (b.re - a.re)
        y_star = a.im + t * (b.im - a.im)
        if y_star == z.im:
            if 0 < t < 1:
                raise fc.PathThroughBranchPoint(
                    f"segment {seg_idx} passes through zero {k}")
            continue
        if y_star > z.im:
            continue
        direction = 1 if right_b else -1
        on_line = (a.re == z.re) or (b.re == z.re)
        # + 0.0: a crossing at t = 0 reports 0.0 in both modes, never -0.0
        events.append(fc.CrossingEvent(seg_idx, k, direction, float(t) + 0.0, on_line))
    events.sort(key=lambda e: (e.t, e.zero_index))
    return events


def _reference(a, b, cuts, seg_idx):
    """The reference events of segment ``seg_idx`` from a to b, or the error message."""
    try:
        return _segment_events_reference(a, b, cuts, seg_idx)
    except fc.PathThroughBranchPoint as exc:
        return str(exc)


def _crossings(events):
    """(zero_index, direction) of each event, by zero; an error message as it is."""
    if isinstance(events, str):
        return events
    return sorted((e.zero_index, e.direction) for e in events)


def _core(grid, i, cuts):
    """``cover._crossed`` on segment i of a vertex grid, against the
    window's column index, as ``_crossings`` lists it."""
    vx, vy, f = grid
    try:
        ks = cover._crossed(vx[i], vy[i], vx[i + 1], vy[i + 1], cover._columns(cuts.window), f, i)
    except fc.PathThroughBranchPoint as exc:
        return str(exc)
    return [(k, 1 if vx[i + 1] > vx[i] else -1) for k in sorted(ks)]


def _log_or_error(verts, cuts):
    """The events' reprs, which tell -0.0 from 0.0, or the error message."""
    try:
        return [repr(e) for e in fc.crossing_log(verts, cuts)]
    except fc.PathThroughBranchPoint as exc:
        return str(exc)


def _summed_directions(verts, cuts):
    """The sheet shift along the polyline, by the reference."""
    return sum(e.direction for i, (a, b) in enumerate(zip(verts, verts[1:]))
               for e in _segment_events_reference(a, b, cuts, i))


def _assert_events_match(pairs, cuts):
    """Per segment, against the reference: the crossing core on the
    segment's own grid, and ``crossing_log`` when neither end is a zero."""
    for a, b in pairs:
        want = _reference(a, b, cuts, 0)
        assert _core(cover._vertex_grid([a, b], cuts.window), 0, cuts) == _crossings(want), (a, b)
        if len(fc.fiber(a, cuts.window, 2)) == len(fc.fiber(b, cuts.window, 2)) == 2:
            assert _log_or_error([a, b], cuts) == \
                (want if isinstance(want, str) else [repr(e) for e in want]), (a, b)


def _grid_pairs(rng, mode, den, lim, count):
    num = lambda: Fraction(rng.randint(-lim * den, lim * den), den)
    pts = [fc.ZPoint.of(num(), num(), mode) for _ in range(count + 1)]
    return list(zip(pts, pts[1:]))


def _distinct(rng, n):
    pts = set()
    while len(pts) < n:
        pts.add((Fraction(rng.randint(-20, 20), 7), Fraction(rng.randint(-20, 20), 5)))
    return [zp(x, y) for x, y in pts]


def test_segment_events_match_reference_on_the_grid():
    rng = random.Random(11)
    w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), 6)
    cuts = fc.build_cuts(w, 3)
    # the 1/194 grid of the benchmark's polylines; odd numerators sit off
    # every cut line
    half = lambda: Fraction(2 * rng.randint(-97 * 6, 97 * 6 - 1) + 1, 194)
    pts = [fc.ZPoint(half(), half()) for _ in range(120)]
    _assert_events_match(zip(pts, pts[1:]), cuts)
    # integer and half-integer vertices: on cut lines, through zeros, and
    # zero-to-zero segments, which hit zeros only at their endpoints
    pairs = _grid_pairs(rng, fc.EXACT, 2, 7, 300)
    pairs += [(w.points[rng.randrange(len(w))], w.points[rng.randrange(len(w))])
              for _ in range(100)]
    _assert_events_match([(a, b) for a, b in pairs if a != b], cuts)
    got = [_log_or_error([a, b], cuts) for a, b in pairs if a != b]
    assert any("on_line=True" in e for events in got if isinstance(events, list)
               for e in events)
    assert _core(cover._vertex_grid([zp(-2, -1), zp(2, 1)], w), 0, cuts) == \
        "segment 0 passes through zero 0"
    # a rational window whose grid scale differs from the vertices'
    rw = fc.ZeroWindow.from_points(_distinct(rng, 40), 6)
    _assert_events_match(_grid_pairs(rng, fc.EXACT, 3, 5, 200), fc.build_cuts(rw, 2))


def test_segment_events_match_reference_in_float_mode():
    rng = random.Random(12)
    mode = fc.float_mode(1e-9)
    w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), 6, mode)
    cuts = fc.build_cuts(w, 3)
    pairs = _grid_pairs(rng, mode, 194, 6, 200) + _grid_pairs(rng, mode, 2, 7, 300)
    pts = [fc.ZPoint(rng.uniform(-7, 7), rng.uniform(-7, 7)) for _ in range(200)]
    _assert_events_match(pairs + list(zip(pts, pts[1:])), cuts)


def test_segment_events_match_reference_for_vertices_from_floats():
    # cone_angle's loop vertices: exact points built from floats, whose
    # 2**k denominators push the rescaled grid onto Python ints
    rng = random.Random(13)
    w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), 6)
    cuts = fc.build_cuts(w, 5)
    pts = [fc.ZPoint.of(rng.uniform(-7, 7), rng.uniform(-7, 7)) for _ in range(150)]
    assert min(max(p.re.denominator, p.im.denominator) for p in pts) > 2 ** 28
    _assert_events_match(zip(pts, pts[1:]), cuts)
    loop = [z + 0.3 * complex(math.cos(a), math.sin(a))
            for z in (0j, 2 + 1j) for a in (0.1, 2.2, 4.3, 0.1)]
    pts = [fc.ZPoint.of(z.real, z.imag) for z in loop]
    _assert_events_match(zip(pts, pts[1:]), cuts)


def _mixed_polyline(rng, n):
    """Vertices on 1/7 (never integers), on 1/194 (odd numerators) and from
    floats, in turn."""
    sevenths = lambda: Fraction(7 * rng.randint(-6, 5) + rng.randint(1, 6), 7)
    half = lambda: Fraction(2 * rng.randint(-97 * 6, 97 * 6 - 1) + 1, 194)
    kinds = [lambda: fc.ZPoint(sevenths(), sevenths()), lambda: fc.ZPoint(half(), half()),
             lambda: fc.ZPoint.of(rng.uniform(-6, 6), rng.uniform(-6, 6))]
    return [kinds[i % 3]() for i in range(n)]


def test_one_grid_per_path_matches_reference_per_segment():
    rng = random.Random(14)
    w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), 6)
    cuts = fc.build_cuts(w, 3)
    poly = _mixed_polyline(rng, 90)
    grid = cover._vertex_grid(poly, w)
    vx, vy, f = grid
    # the lcm of 7, 194 and the floats' powers of 2 passes 2**28; the
    # vertices take it, and the window's grid stays as it is
    assert f > 2 ** 28 and {type(c) for c in vx + vy} == {int}
    assert w.grid[0].dtype == np.int64
    want = [_reference(a, b, cuts, i) for i, (a, b) in enumerate(zip(poly, poly[1:]))]
    assert [_core(grid, i, cuts) for i in range(len(poly) - 1)] == list(map(_crossings, want))
    assert sum(map(len, want)) > 20 and not any(isinstance(e, str) for e in want)
    assert _log_or_error(poly, cuts) == [repr(e) for events in want for e in events]
    start = fc.CoverPoint(poly[0].to_complex(), 0)
    assert fc.lift_path(poly, start, cuts).sheet == \
        sum(e.direction for events in want for e in events) % 3


def test_float_vertex_within_eps_of_a_zero_is_that_zero():
    mode = fc.float_mode(1e-9)
    w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), 3, mode)
    cuts = fc.build_cuts(w, 3)
    z = w.points[4]
    near = fc.ZPoint(z.re + 6e-10, z.im - 6e-10)  # 8.5e-10 from the zero
    apart = fc.ZPoint(z.re + 8e-10, z.im + 8e-10)  # 1.13e-9 from it
    assert near != z
    poly = [fc.ZPoint(0.5, 0.5), near, fc.ZPoint(0.5, -0.5)]
    with pytest.raises(fc.PathThroughBranchPoint, match="path vertex 1 is a window zero"):
        fc.crossing_log(poly, cuts)
    with pytest.raises(fc.PathThroughBranchPoint, match="path vertex 1 is a window zero"):
        fc.lift_path(poly, fc.CoverPoint(0.5 + 0.5j, 0), cuts)
    assert fc.fiber(near, w, 3) == [fc.CoverPoint(near.to_complex(), 0, True)]
    assert len(fc.fiber(apart, w, 3)) == 3
    assert isinstance(fc.crossing_log([poly[0], apart, poly[2]], cuts), list)


def _zero_vertices(poly, w):
    """``cover._zero_vertices`` of the polyline's vertex grid."""
    vx, vy, f = cover._vertex_grid(poly, w)
    return cover._zero_vertices(vx, vy, cover._columns(w), f)


def test_zero_vertex_found_past_the_first_vertex_block():
    # 2821 zeros and 800 vertices, one of them a zero far down the path
    w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), 30)
    h = Fraction(1, 2)
    poly = [zp(h + k % 7, h) for k in range(800)]
    poly[500] = w.points[9]
    assert _zero_vertices(poly, w) == [500]
    with pytest.raises(fc.PathThroughBranchPoint, match="path vertex 500 is a window zero"):
        fc.crossing_log(poly, fc.build_cuts(w, 2))


def test_lift_saddle_with_cuts_of_another_window():
    rng = random.Random(15)
    lattice = fc.generate(fc.GeneratorSpec("gaussian-lattice"), 4)
    moved = lattice.translate(zp(Fraction(1, 2), Fraction(-1, 3)))  # grid scale 6
    cloud = _distinct(rng, 40)
    exact_cloud = fc.ZeroWindow.from_points(cloud, 6)  # grid scale 35
    float_cloud = fc.ZeroWindow.from_points([fc.ZPoint(float(p.re), float(p.im)) for p in cloud],
                                            6, fc.float_mode(1e-9))
    for w, other in [(lattice, exact_cloud), (lattice, moved), (moved, exact_cloud),
                     (moved, float_cloud), (float_cloud, moved)]:
        segs = fc.saddle_connections(w, 3, max_length=2.5)
        cuts = fc.build_cuts(other, 3)
        got, want = [], []
        for s in segs:
            ref = _reference(w.points[s.from_idx], w.points[s.to_idx], cuts, 0)
            want.append(ref if isinstance(ref, str) else sum(e.direction for e in ref))
            try:
                got.append(fc.lift_saddle(s, w, cuts)[0].delta)
            except fc.PathThroughBranchPoint as exc:
                got.append(str(exc))
        assert got == want
        assert any(d for d in want if not isinstance(d, str))


_MODES = [fc.EXACT, fc.float_mode(1e-9)]


def _lifts_as_built_in_python(s, w, cuts, delta):
    """The reprs of the m ``LiftedSaddle``s of saddle s with shift ``delta``,
    built by the records' own constructors."""
    start, end = (fc.CoverPoint(w.points[k].to_complex(), 0, True) for k in (s.from_idx, s.to_idx))
    return [repr(fc.LiftedSaddle(k, (k + delta) % cuts.m, delta, start, end))
            for k in range(cuts.m)]


@pytest.mark.parametrize("radius, max_length", [(8, 1.5), (12, 2)])
@pytest.mark.parametrize("mode", _MODES, ids=["exact", "float"])
def test_every_saddle_lifts_as_the_reference(radius, max_length, mode):
    w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), radius, mode)
    segs = fc.saddle_connections(w, 3, max_length=max_length)
    want = [sum(e.direction for e in _segment_events_reference(
        w.points[s.from_idx], w.points[s.to_idx], fc.build_cuts(w, 2), 0)) for s in segs]
    assert len(segs) > 700 and any(want)
    for m in (2, 3, 5):
        cuts = fc.build_cuts(w, m)
        for s, delta in zip(segs, want):
            assert [repr(x) for x in fc.lift_saddle(s, w, cuts)] == \
                _lifts_as_built_in_python(s, w, cuts, delta), s


def _column_spans(pairs, w):
    """How many columns of cuts each segment's x-range spans."""
    xs = sorted({float(p.re) for p in w.points})
    lo_hi = [sorted((float(a.re), float(b.re))) for a, b in pairs]
    return [bisect.bisect_right(xs, hi) - bisect.bisect_right(xs, lo) for lo, hi in lo_hi]


def test_rational_cloud_with_one_zero_per_column():
    rng = random.Random(21)
    pts = [zp(Fraction(x, 37), Fraction(rng.randint(-60, 60), 11))
           for x in rng.sample(range(-290, 290), 80)]
    w = fc.ZeroWindow.from_points(pts, 12)
    cols = cover._columns(w)
    assert len(cols.x) == len(w) and {len(c) for c in cols.ys} == {1}
    cuts = fc.build_cuts(w, 3)
    pairs = _grid_pairs(rng, fc.EXACT, 5, 8, 200)
    pairs += [(w.points[rng.randrange(80)], w.points[rng.randrange(80)]) for _ in range(60)]
    pairs = [(a, b) for a, b in pairs if a != b]
    spans = _column_spans(pairs, w)
    assert min(spans) <= 1 and max(spans) > 40
    _assert_events_match(pairs, cuts)


def test_python_int_grid_matches_reference():
    rng = random.Random(22)
    w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), 5).translate(
        zp(2 ** 40 + Fraction(1, 3), -(2 ** 40)))
    assert w.grid[0].dtype == object
    cuts = fc.build_cuts(w, 3)
    shift = lambda p: zp(p.re + 2 ** 40, p.im - 2 ** 40)
    pairs = [(shift(a), shift(b)) for a, b in _grid_pairs(rng, fc.EXACT, 6, 6, 200)]
    pairs += [(w.points[rng.randrange(len(w))], w.points[rng.randrange(len(w))])
              for _ in range(60)]
    _assert_events_match([(a, b) for a, b in pairs if a != b], cuts)


@pytest.mark.parametrize("mode", _MODES, ids=["exact", "float"])
def test_vertical_segments_and_ends_on_cut_lines(mode):
    rng = random.Random(23)
    w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), 3, mode)
    cuts = fc.build_cuts(w, 3)
    # x on the integers (every cut line) and halves; y never on a zero
    verts = [fc.ZPoint.of(Fraction(x, 2), Fraction(y, 2), mode)
             for x in range(-7, 8) for y in range(-7, 8, 2)]
    vertical = [(a, b) for a in verts for b in verts if a.re == b.re and a != b]
    on_line = [(a, b) for a, b in zip(rng.sample(verts, 60), rng.sample(verts, 60))
               if a != b and (a.re.is_integer() if not mode.is_exact else a.re.denominator == 1)]
    # vertical segments through a zero meet no cut and raise nothing
    through = [(fc.ZPoint.of(1, -2.5, mode), fc.ZPoint.of(1, 2.5, mode))]
    assert fc.crossing_log(through[0], cuts) == []
    _assert_events_match(vertical + on_line + through, cuts)
    got = [_log_or_error([a, b], cuts) for a, b in on_line]
    assert any("on_line=True" in e for events in got if isinstance(events, list) for e in events)


@pytest.mark.parametrize("mode", _MODES, ids=["exact", "float"])
def test_pass_through_two_zeros_names_the_smaller_index(mode):
    w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), 3, mode)
    cuts = fc.build_cuts(w, 3)
    first, second = (fc.ZPoint.of(x, y, mode) for x, y in ((-2, -1), (1, 0)))
    idx = {p: k for k, p in enumerate(w.points)}
    # the line y = (x - 1) / 3 meets (-2, -1) first in x, then (1, 0), whose
    # index is the smaller
    assert idx[second] < idx[first]
    a, b = (fc.ZPoint.of(x, y, mode)
            for x, y in ((Fraction(-7, 2), Fraction(-3, 2)), (Fraction(5, 2), Fraction(1, 2))))
    for seg in ([a, b], [b, a]):
        want = f"segment 0 passes through zero {idx[second]}"
        assert _reference(*seg, cuts, 0) == want
        assert _log_or_error(seg, cuts) == want
        with pytest.raises(fc.PathThroughBranchPoint, match=want):
            fc.lift_path(seg, fc.CoverPoint(seg[0].to_complex(), 0), cuts)


@pytest.mark.parametrize("eps", [2.0 ** -20, 1e-9, 0.0])
def test_float_vertex_at_exactly_eps_from_a_zero(eps):
    mode = fc.float_mode(eps)
    w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), 3, mode)
    cuts = fc.build_cuts(w, 3)
    steps = [0.0, eps, math.nextafter(eps, 0), math.nextafter(eps, 1), 5e-324]
    verts = [fc.ZPoint(z.re + sx * d, z.im + sy * d) for z in w.points[:9] for d in steps
             for sx, sy in ((1, 0), (0, -1), (-1, 1))]
    cones = []
    for v in verts:
        want = any(zseq.same_point(v, z, mode) for z in w.points)
        fib = fc.fiber(v, w, 3)
        assert (len(fib) == 1) == want and fib[0].is_cone == want, v
        poly = [fc.ZPoint(0.5, 0.5), v, fc.ZPoint(0.5, -0.5)]
        if want:
            with pytest.raises(fc.PathThroughBranchPoint, match="path vertex 1 is a window zero"):
                fc.crossing_log(poly, cuts)
        cones.append(want)
    assert any(cones) and not all(cones)
    # a vertex exactly eps from the zero at the origin is that zero; the next
    # float beyond is not where eps squares exactly (2**-20, and 0)
    assert w.points[0] == fc.ZPoint(0.0, 0.0)
    assert len(fc.fiber(fc.ZPoint(eps, 0.0), w, 3)) == 1
    if eps != 1e-9:
        assert len(fc.fiber(fc.ZPoint(math.nextafter(eps, 1), 0.0), w, 3)) == 3


@pytest.mark.parametrize("mode", _MODES, ids=["exact", "float"])
def test_full_width_and_fine_vertex_segments_match_reference(mode):
    rng = random.Random(24)
    cloud = _distinct(rng, 150)
    windows = [fc.ZeroWindow.from_points([fc.ZPoint.of(p.re, p.im, mode) for p in cloud], 6, mode),
               fc.generate(fc.GeneratorSpec("gaussian-lattice"), 6, mode)]
    # full-width segments, short ones, and (exact mode) vertices from floats
    # whose grid is 2**52 times finer than the window's
    full = [fc.ZPoint.of(Fraction(41 if k % 2 else -41, 14), Fraction(2 * k - 19, 7), mode)
            for k in range(20)]
    short = [fc.ZPoint.of(Fraction(rng.randint(-40, 40), 13), Fraction(rng.randint(-40, 40), 11),
                          mode) for _ in range(40)]
    floats = [fc.ZPoint.of(x + 1e-3 * k, 0.31 + 1e-3 * k, mode)
              for k, x in enumerate((-2.95, 2.95) * 4)]
    spans = _column_spans(list(zip(full, full[1:])), windows[0])
    assert min(spans) > 40
    logs = []
    for w in windows:
        cuts = fc.build_cuts(w, 3)
        _assert_events_match([(a, b) for poly in (full, short, floats)
                              for a, b in zip(poly, poly[1:])], cuts)
        for poly in (full, floats):
            start = fc.CoverPoint(poly[0].to_complex(), 1)
            try:
                want = (1 + _summed_directions(poly, cuts)) % 3
            except fc.PathThroughBranchPoint as exc:
                with pytest.raises(fc.PathThroughBranchPoint, match=str(exc)):
                    fc.lift_path(poly, start, cuts)
            else:
                assert fc.lift_path(poly, start, cuts).sheet == want
            logs.append(_log_or_error(poly, cuts))
    # the full-width polyline meets a zero on both windows (its other
    # segments are checked one by one above); the float one lifts
    assert [isinstance(log, list) for log in logs] == [False, True, False, True]
    assert min(len(log) for log in logs[1::2]) > 20


def test_cover_builds_no_point_index(lattice5, monkeypatch):
    # vertices meet the zeros on the path grid, never through a point lookup
    def spy(*args):
        raise AssertionError("built a point lookup")

    monkeypatch.setattr(fc.flatgeom, "_members", spy)
    monkeypatch.setattr(fc.zseq, "_float_members", spy)
    h = Fraction(1, 2)
    for w in (lattice5, fc.generate(fc.GeneratorSpec("gaussian-lattice"), 5, fc.float_mode())):
        cuts = fc.build_cuts(w, 3)
        loop = [(h, h), (3 * h, h), (3 * h, 3 * h), (h, 3 * h), (h, h)]
        assert sum(e.direction for e in fc.crossing_log(loop, cuts)) == 1
        assert fc.lift_path(loop, fc.CoverPoint(0.5 + 0.5j, 0), cuts).sheet == 1
        with pytest.raises(fc.PathThroughBranchPoint):
            fc.crossing_log([(h, h), w.points[2]], cuts)
        assert len(fc.fiber((h, h), w, 3)) == 3
        assert len(fc.fiber(w.points[2], w, 3)) == 1
        fc.lift_saddle(fc.saddle_connections(w, 3)[0], w, cuts)
        assert fc.cone_angle(2, w, 3).turns == 3
        assert len(fc.singularity_sets(w, 3).finite_cone_points) == len(w)


def test_sheet_shifts_build_no_crossing_events(lattice5, monkeypatch):
    # lift_path, lift_saddle and cone_angle only add up directions
    cuts = fc.build_cuts(lattice5, 3)
    h = Fraction(1, 2)
    loop = [zp(h, h), zp(3 * h, h), zp(3 * h, 3 * h), zp(h, 3 * h), zp(h, h)]
    want = _summed_directions(loop, cuts)
    assert want == 1  # once counterclockwise around the zero 1 + i
    segs = fc.saddle_connections(lattice5, 3, max_length=2.0)
    deltas = [_summed_directions([lattice5.points[s.from_idx], lattice5.points[s.to_idx]], cuts)
              for s in segs]
    assert any(deltas)

    def no_events(*args):
        raise AssertionError("built a CrossingEvent")

    monkeypatch.setattr(cover, "CrossingEvent", no_events)
    # every sheet shift runs through the one crossing core
    calls = []
    crossed = cover._crossed
    monkeypatch.setattr(cover, "_crossed", lambda *args: calls.append(args) or crossed(*args))
    cols = cover._columns(lattice5)
    start = fc.CoverPoint(loop[0].to_complex(), 1)
    assert fc.lift_path(loop, start, cuts).sheet == (1 + want) % 3
    assert len(calls) == len(loop) - 1
    assert [fc.lift_saddle(s, lattice5, cuts)[0].delta for s in segs] == deltas
    assert len(calls) == len(loop) - 1 + len(segs)
    assert fc.cone_angle(3, lattice5, 3).turns == 3
    assert len(calls) == len(loop) - 1 + len(segs) + 16
    # (ax, ay, bx, by, columns, f, segment): every call reads the window's
    # one column index; the half-integer loop's vertices lie on a grid twice
    # as fine as the window's, the saddles' ends on the window's own
    assert all(args[4] is cols for args in calls)
    fs = [args[5] for args in calls]
    assert fs[:len(loop) - 1] == [2] * (len(loop) - 1) and set(fs[len(loop) - 1:-16]) == {1}


def test_build_cuts_requires_m_at_least_two(lattice5):
    with pytest.raises(ValueError):
        fc.build_cuts(lattice5, 1)


# ---------------------------------------------------------------------------
# fibers and singularities


def test_fiber_regular_point(lattice5):
    for m in (2, 3, 5):
        fib = fc.fiber(zp(Fraction(1, 3), Fraction(1, 7)), lattice5, m)
        assert len(fib) == m
        assert sorted(c.sheet for c in fib) == list(range(m))
        assert not any(c.is_cone for c in fib)


def test_fiber_cone_point(lattice5):
    fib = fc.fiber(lattice5.points[3], lattice5, 4)
    assert len(fib) == 1
    assert fib[0].is_cone


def test_singularity_sets(lattice5):
    sets = fc.singularity_sets(lattice5, 3)
    assert len(sets.finite_cone_points) == len(lattice5.points)
    assert sets.infinite_cone_points == ()


# ---------------------------------------------------------------------------
# lifting


def test_lift_loop_around_one_zero_shifts_sheet():
    w = _window([zp(0)], 3)
    m = 3
    cuts = fc.build_cuts(w, m)
    # counterclockwise unit square around the origin
    loop = [zp(1, -1), zp(1, 1), zp(-1, 1), zp(-1, -1), zp(1, -1)]
    start = fc.CoverPoint(complex(1, -1), 0)
    end = fc.lift_path(loop, start, cuts)
    assert end.sheet == 1
    # going around m times comes home
    sheet = 0
    for _ in range(m):
        sheet = fc.lift_path(loop, fc.CoverPoint(complex(1, -1), sheet), cuts).sheet
    assert sheet == 0


def test_lift_clockwise_is_inverse():
    w = _window([zp(0)], 3)
    cuts = fc.build_cuts(w, 5)
    ccw = [zp(1, -1), zp(1, 1), zp(-1, 1), zp(-1, -1), zp(1, -1)]
    cw = list(reversed(ccw))
    s1 = fc.lift_path(ccw, fc.CoverPoint(complex(1, -1), 0), cuts).sheet
    s2 = fc.lift_path(cw, fc.CoverPoint(complex(1, -1), s1), cuts).sheet
    assert (s1, s2) == (1, 0)


def test_lift_rejects_cone_start(lattice5):
    cuts = fc.build_cuts(lattice5, 2)
    cone = fc.fiber(lattice5.points[0], lattice5, 2)[0]
    with pytest.raises(ValueError):
        fc.lift_path([lattice5.points[0], zp(Fraction(1, 2))], cone, cuts)


def test_lift_start_must_match_first_vertex(lattice5):
    cuts = fc.build_cuts(lattice5, 2)
    with pytest.raises(ValueError):
        fc.lift_path([zp(Fraction(1, 3)), zp(Fraction(1, 2))],
                     fc.CoverPoint(5 + 5j, 0), cuts)


def test_lift_concatenation(lattice5):
    rng = random.Random(7)
    cuts = fc.build_cuts(lattice5, 3)
    done = 0
    while done < 100:
        pts = [zp(Fraction(rng.randint(-40, 40), 13),
                  Fraction(rng.randint(-40, 40), 11)) for _ in range(4)]
        try:
            start = fc.CoverPoint(pts[0].to_complex(), 0)
            whole = fc.lift_path(pts, start, cuts)
            mid = fc.lift_path(pts[:2], start, cuts)
            end = fc.lift_path(pts[1:], fc.CoverPoint(pts[1].to_complex(),
                                                      mid.sheet), cuts)
        except fc.PathThroughBranchPoint:
            continue
        assert end.sheet == whole.sheet
        done += 1


def test_lift_saddle_gives_m_distinct_lifts(lattice5):
    m = 4
    cuts = fc.build_cuts(lattice5, m)
    segs = fc.saddle_connections(lattice5, m, max_length=1.0)
    for seg in segs[:8]:
        lifts = fc.lift_saddle(seg, lattice5, cuts)
        assert len(lifts) == m
        assert sorted(l.start_sheet for l in lifts) == list(range(m))
        deltas = {l.delta for l in lifts}
        assert len(deltas) == 1  # same crossing shift on every sheet
        for l in lifts:
            assert l.end_sheet == (l.start_sheet + l.delta) % m
            assert l.start.is_cone and l.end.is_cone


# ---------------------------------------------------------------------------
# cone angles


def test_cone_angle_interior_zero(lattice5):
    for m in (2, 3, 5):
        ca = fc.cone_angle(0, lattice5, m)
        assert ca.turns == m
        assert ca.angle == pytest.approx(2 * math.pi * m)
        assert ca.loop_delta == 1


def test_cone_angle_radius_guard(lattice5):
    with pytest.raises(fc.RadiusTooLarge):
        fc.cone_angle(0, lattice5, 2, radius=0.9)  # min gap is 1


def test_cone_angle_explicit_radius(lattice5):
    ca = fc.cone_angle(2, lattice5, 3, radius=0.25)
    assert ca.loop_radius == pytest.approx(0.25)
    assert ca.turns == 3


def _turns_by_lifting(delta, m):
    """The turn loop ``cone_angle`` ran before its closed form: lift again
    until the sheet is back at 0."""
    sheet = turns = 0
    while True:
        turns += 1
        sheet = (sheet + delta) % m
        if sheet == 0:
            return turns


@pytest.mark.parametrize("m", range(2, 8))
def test_cone_angle_turns_match_repeated_lifting(lattice5, monkeypatch, m):
    for delta in range(-3 * m, 3 * m + 1):
        monkeypatch.setattr(cover, "_delta", lambda *grid_and_mode: delta)
        ca = fc.cone_angle(0, lattice5, m)
        assert (ca.turns, ca.loop_delta) == (_turns_by_lifting(delta, m), delta)
        assert ca.angle == 2 * math.pi * ca.turns


# ---------------------------------------------------------------------------
# records


def _cover_records():
    """One record of each kind ``cover`` returns, on a three-zero window."""
    w = _window([zp(0), zp(1), zp(2, 1)], 3)
    cuts = fc.build_cuts(w, 3)
    seg = fc.saddle_connections(w, 3)[-1]
    return {
        "CoverPoint": fc.fiber(zp(Fraction(1, 2), Fraction(1, 2)), w, 2)[1],
        "CrossingEvent": fc.crossing_log([zp(1, Fraction(-1, 2)), zp(Fraction(-1, 2), -1)],
                                         cuts)[0],
        "LiftedSaddle": fc.lift_saddle(seg, w, cuts)[1],
        "SingularitySets": fc.singularity_sets(_window([zp(0), zp(1)], 1), 2),
        "ConeAngle": fc.cone_angle(2, w, 3),
    }


_COVER_REPRS = {
    "CoverPoint": "CoverPoint(base=(0.5+0.5j), sheet=1, is_cone=False)",
    "CrossingEvent": "CrossingEvent(segment=0, zero_index=1, direction=-1, t=0.0, on_line=True)",
    "LiftedSaddle": "LiftedSaddle(start_sheet=1, end_sheet=1, delta=0, "
                    "start=CoverPoint(base=(1+0j), sheet=0, is_cone=True), "
                    "end=CoverPoint(base=(2+1j), sheet=0, is_cone=True))",
    "SingularitySets": "SingularitySets(finite_cone_points=(CoverPoint(base=0j, sheet=0, "
                       "is_cone=True), CoverPoint(base=(1+0j), sheet=0, is_cone=True)), "
                       "infinite_cone_points=())",
    "ConeAngle": "ConeAngle(zero_index=2, turns=3, angle=18.84955592153876, "
                 "loop_radius=0.25, loop_delta=1)",
}


@pytest.mark.parametrize("name", sorted(_COVER_REPRS))
def test_cover_records_are_immutable_values(name):
    rec, twin = _cover_records()[name], _cover_records()[name]
    assert type(rec) is getattr(fc, name)
    assert repr(rec) == _COVER_REPRS[name]
    assert rec == twin and hash(rec) == hash(twin)
    assert rec != rec._replace(**{rec._fields[1]: "changed"})
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], None)


def test_record_defaults():
    assert fc.CoverPoint(1j, 2) == fc.CoverPoint(1j, 2, False)
    assert fc.CrossingEvent(0, 1, 1, 0.5) == fc.CrossingEvent(0, 1, 1, 0.5, False)
    assert fc.SingularitySets((fc.CoverPoint(0j, 0, True),)).infinite_cone_points == ()


def test_crossing_event_to_dict():
    w = _window([zp(0), zp(1), zp(2, 1)], 3)
    path = [zp(Fraction(-1, 2), -2), zp(Fraction(5, 2), Fraction(1, 2)),
            zp(Fraction(3, 2), Fraction(1, 2)), zp(1, Fraction(-1, 2)), zp(Fraction(-1, 2), -1)]
    rows = [(0, 0, 1, 1 / 6, False), (0, 1, 1, 0.5, False), (0, 2, 1, 5 / 6, False),
            (1, 2, -1, 0.5, False), (3, 1, -1, 0.0, True), (3, 0, -1, 2 / 3, False)]
    want = [dict(zip(("segment", "zero_index", "direction", "t", "on_line"), r)) for r in rows]
    got = [e.to_dict() for e in fc.crossing_log(path, fc.build_cuts(w, 3))]
    assert got == want
    assert [type(v) for d in got for v in d.values()] == [int, int, int, float, bool] * len(rows)
