import math
import random
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

import flatcurve as fc

import reference
from conftest import pair_list, zp


def _window(points, radius):
    return fc.ZeroWindow.from_points(points, radius)


# ---------------------------------------------------------------------------
# visibility


def test_collinear_blocking():
    w = _window([zp(0), zp(1), zp(2)], 3)
    assert fc.is_visible(w, 0, 1)
    assert fc.is_visible(w, 1, 2)
    assert not fc.is_visible(w, 0, 2)  # 1 sits between


def test_point_blocks_open_segment_only():
    # endpoints never block
    assert not fc.point_blocks(zp(0), zp(2), zp(0), fc.EXACT)
    assert not fc.point_blocks(zp(0), zp(2), zp(2), fc.EXACT)
    assert fc.point_blocks(zp(0), zp(2), zp(1), fc.EXACT)
    assert not fc.point_blocks(zp(0), zp(2), zp(1, 1), fc.EXACT)


def test_off_lattice_blocker():
    # rational midpoint blocks an integer pair; canonical order is (0, 1/2, 1)
    w = _window([zp(0), zp(1), zp(Fraction(1, 2))], 2)
    assert w.points[1] == zp(Fraction(1, 2))
    assert not fc.is_visible(w, 0, 2)
    assert fc.is_visible(w, 0, 1)


def _rational_cloud(rng, n, den):
    pts = {}
    while len(pts) < n:
        p = zp(Fraction(rng.randint(-12, 12), rng.choice((1, den))),
               Fraction(rng.randint(-12, 12), rng.choice((1, den))))
        pts[(p.re, p.im)] = p
    return _window(list(pts.values()), 20)


# scaled coordinates past int64-safe range (2**28) and past int64 itself
_BIG_DENS = ((1 << 28) + 1, (1 << 64) + 13)


def _pairs_is_visible_accepts(w):
    n = len(w.points)
    return [(i, j) for i in range(n - 1) for j in range(i + 1, n) if fc.is_visible(w, i, j)]


def test_visible_pairs_matches_bruteforce_exact():
    rng = random.Random(23)
    for den in (*range(2, 8), *_BIG_DENS):
        for _ in range(5):
            w = _rational_cloud(rng, rng.randint(3, 40), den)
            assert pair_list(fc.visible_pairs(w)) == fc.visible_pairs_bruteforce(w)
            if den in _BIG_DENS:
                assert pair_list(fc.visible_pairs(w)) == _pairs_is_visible_accepts(w)


@pytest.mark.parametrize("radius", [2, 3.5, 5])
def test_visible_pairs_matches_bruteforce_lattice(radius):
    w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), radius)
    assert pair_list(fc.visible_pairs(w)) == fc.visible_pairs_bruteforce(w)


def test_restricted_visible_pairs_match_short_bruteforce_pairs():
    rng = random.Random(41)
    for den in (*range(2, 8), *_BIG_DENS):
        w = _rational_cloud(rng, 30, den)
        full = fc.visible_pairs_bruteforce(w)
        # each length is that of some visible pair in some of these clouds
        for length in (0.5, 1, 2.5, 4):
            want = [(i, j) for i, j in full
                    if (w.points[j] - w.points[i]).norm2() <= Fraction(length) ** 2]
            assert pair_list(fc.visible_pairs(w, max_length=length)) == want


def test_visible_pairs_matches_bruteforce_float():
    rng = random.Random(29)
    mode = fc.float_mode(1e-9)
    for _ in range(10):
        pts = [fc.ZPoint(rng.uniform(-5, 5), rng.uniform(-5, 5))
               for _ in range(rng.randint(3, 30))]
        w = fc.ZeroWindow.from_points(pts, 8, mode)
        assert pair_list(fc.visible_pairs(w)) == fc.visible_pairs_bruteforce(w)


_EPS = 1e-9


def _float_window(points, radius=12, eps=_EPS):
    return fc.ZeroWindow.from_points([fc.ZPoint(*p) for p in points], radius,
                                     fc.float_mode(eps))


def _grid_cloud(seed, n, unit, reach):
    """n distinct random points (x, y) unit, |x|, |y| <= reach."""
    rng = random.Random(seed)
    pts = {(rng.randint(-reach, reach) * unit, rng.randint(-reach, reach) * unit)
           for _ in range(2 * n)}
    return sorted(pts)[:n]


def _adversarial_clouds():
    """Float clouds at the edges of the eps-tube rule and of the coarse
    grid, by name, each with its eps and whether its grid is coarse."""
    e = _EPS
    base = [(0.0, 0.0), (2.0, 0.0), (0.3, 1.7), (-1.1, 0.4)]
    clouds = {f"middle off the line by {k} eps": [*base, (1.0, k * e)] for k in (0.5, 2)}
    for k in (0.3, 0.6, 3.0):
        # two points on one ray whose norms differ by k eps |b|
        clouds[f"norm tie {k} eps on an axis"] = [(0.0, 0.0), (10.0, 0.0),
                                                  (10.0 * (1 + k * e), 0.0), (3.0, 4.0)]
        clouds[f"norm tie {k} eps on a diagonal"] = [(0.0, 0.0), (6.0, 8.0), (1.0, 1.0),
                                                     (6.0 * (1 + k * e), 8.0 * (1 + k * e))]
    # dy = +0.0 puts a point at argument pi, dy = -0.0 at -pi
    clouds["straight left, +0.0 then -0.0"] = [(0.0, 0.0), (-1.0, 0.0), (-2.0, -0.0), (0.5, 0.5)]
    clouds["straight left, alternating zeros"] = [(0.0, 0.0), (-1.0, -0.0), (-2.0, 0.0),
                                                  (-3.0, -0.0), (1.0, 0.0)]
    clouds["straight left of an off-origin anchor"] = [(1.0, 0.0), (-1.0, -0.0), (-3.0, 0.0),
                                                       (0.0, 1.0), (0.0, -1.0)]
    clouds["n = 2"] = [(0.0, 0.0), (1.0, 0.0)]
    clouds["n = 3 collinear"] = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
    clouds["n = 3 in a triangle"] = [(0.5, 0.25), (-0.5, 0.25), (0.0, -1.0)]
    # points off the line by k eps, or apart by k eps, need more than 24 bits
    clouds = {name: (pts, _EPS, not name.startswith(("middle", "norm tie")))
              for name, pts in clouds.items()}
    # the coarse grid: units 1, 1/4 and 2**-10, signed zeros, 2**24 units
    # and one step past, where only eps = 0 keeps eps |b|**2 below u**2
    clouds["unit 1"] = (_grid_cloud(1, 30, 1.0, 6), _EPS, True)
    clouds["unit 1/4"] = (_grid_cloud(2, 30, 0.25, 24), _EPS, True)
    clouds["unit 2**-10"] = (_grid_cloud(3, 30, 2.0 ** -10, 2048), _EPS, True)
    clouds["signed zeros on the unit grid"] = (
        [(0.0, -0.0), (-0.0, 1.0), (1.0, -0.0), (-1.0, 0.0), (0.0, -1.0), (-0.0, 2.0),
         (2.0, 0.0), (-2.0, -0.0), (1.0, 1.0), (-1.0, -1.0), (-0.0, -2.0)], _EPS, True)
    big = 2.0 ** 24
    clouds["2**24 units"] = ([(0.0, 0.0), (big, 0.0), (big / 2, 0.0), (0.0, 1.0), (-big, 1.0),
                              (big / 2, big / 2), (-big, -big)], 0.0, True)
    clouds["2**24 + 1 units"] = ([(0.0, 0.0), (big + 1, 0.0), (big / 2, 0.0), (0.0, 1.0),
                                  (-big, 1.0)], 0.0, False)
    clouds["2**24 + 1 units of 1/2"] = ([(0.0, 0.0), ((big + 1) / 2, 0.0), (big / 4, 0.0),
                                         (0.0, 0.5), (-big / 2, 0.5)], 0.0, False)
    clouds["2**24 units, eps |b|**2 past u**2"] = (clouds["2**24 units"][0], _EPS, False)
    # (u, 0) lies u / 64 off the segment to (64 u, u): inside the tube for
    # eps = 5e-5, which eps D < u/2 keeps off the grid, not for eps = 2e-6
    u = 2.0 ** -10
    for eps, coarse in ((5e-5, False), (2e-6, True)):
        clouds[f"u / 64 off a segment, unit 2**-10, eps {eps}"] = (
            [(0.0, 0.0), (64 * u, u), (u, 0.0), (0.0, 2 * u)], eps, coarse)
    line = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.0, 1.0), (0.0, 2.0), (1.0, 1.0)]
    clouds["one coordinate 1e-300"] = ([*line, (1e-300, 3.0)], _EPS, False)
    clouds["one coordinate 2**-1000"] = ([*line, (2.0 ** -1000, 3.0)], _EPS, False)
    # u = 2**-470 keeps u**2 a normal float; 2**-480 is finer than the rule takes
    for k, coarse in ((470, True), (480, False)):
        u = 2.0 ** -k
        clouds[f"unit 2**-{k}, eps 0"] = ([(x * u, y * u) for x, y in line], 0.0, coarse)
    clouds["coordinates near 1e15"] = ([(0.0, 0.0), (1e15, 0.0), (2e15, 0.0), (0.0, 1e15),
                                        (1e15, 1e15), (1.0, 0.0)], _EPS, False)
    return clouds


def _near_pairs_reference(xs, ys, eps):
    """The pairs i < j, ordered by j, of the float vectors (xs, ys) in
    canonical order that ``same_point`` matches in neighbouring eps-cells,
    found with complex (kx, ky) cell keys sorted and searched, and the count
    of candidate pairs examined: the 3 x 3-cell search that the int64 cell
    keys of ``flatgeom._near_pairs`` must match."""
    if eps == 0:
        return [], 0
    with np.errstate(over="ignore"):
        kx, ky = np.floor(xs / eps), np.floor(ys / eps)
    cells = np.flatnonzero(np.isfinite(kx) & np.isfinite(ky))
    xs, ys, kx, ky = xs[cells], ys[cells], kx[cells], ky[cells]
    # complex numbers sort by real part, then imaginary part: by column,
    # then by row of cells
    by_cell = np.argsort(kx + 1j * ky, kind="stable")
    keys = (kx + 1j * ky)[by_cell]
    pos = np.empty_like(by_cell)
    pos[by_cell] = np.arange(len(xs))
    # each vector meets the later members of its column up to row ky + 1,
    # and rows ky - 1 .. ky + 1 of the next column, where kx + 1 is one
    nxt = np.where(kx + 1 > kx, kx + 1, np.inf)
    lo = np.r_[pos + 1, np.searchsorted(keys, nxt + 1j * (ky - 1))]
    hi = np.r_[np.searchsorted(keys, kx + 1j * (ky + 1), side="right"),
               np.searchsorted(keys, nxt + 1j * (ky + 1), side="right")]
    count = np.maximum(hi - lo, 0)
    a = np.tile(np.arange(len(xs)), 2).repeat(count)
    b = by_cell[np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - lo, count)]
    dx, dy = xs[a] - xs[b], ys[a] - ys[b]
    near = dx * dx + dy * dy <= eps * eps
    i, j = cells[np.minimum(a, b)[near]], cells[np.maximum(a, b)[near]]
    at = np.lexsort((i, j))
    return list(zip(i[at].tolist(), j[at].tolist())), int(count.sum())


def _signed_distinct_reference(xs, ys, eps):
    """The float holonomy grid of the vectors (xs, ys) built over the full
    plane: (v, -v) interleaved, exact repeats dropped by ``np.unique`` of
    complex values (0.0 == -0.0), ``canonical_permutation``, then
    ``_near_pairs_reference``; and that search's count of candidates."""
    xs, ys = np.stack((xs, -xs), axis=1).ravel(), np.stack((ys, -ys), axis=1).ravel()
    _, first = np.unique(xs + 1j * ys, return_index=True)
    first = np.sort(first)
    order = first[fc.zseq.canonical_permutation(xs[first], ys[first])]
    xs, ys = xs[order], ys[order]
    keep = np.ones(len(xs), dtype=bool)
    pairs, examined = _near_pairs_reference(xs, ys, eps)
    for i, j in pairs:
        if keep[i]:
            keep[j] = False
    return (xs[keep], ys[keep], None), examined


def _assert_float_paths_agree(w, lengths, monkeypatch) -> bool:
    """On the float window w, under each length bound: ``visible_pairs``
    equals the brute force and the angular runs, and holonomy sets equal
    ``_signed_distinct_reference`` byte for byte; the coarse grid is built
    once.  Returns whether w lies on a coarse grid."""
    flatgeom = fc.flatgeom
    builds, build = [], flatgeom._on_coarse_grid
    monkeypatch.setattr(flatgeom, "_on_coarse_grid",
                        lambda *args: builds.append(args) or build(*args))
    xs, ys = w.grid[:2]
    eps = w.mode.eps
    full = fc.visible_pairs_bruteforce(w)
    for length in lengths:
        want = full if length is None else [
            (i, j) for i, j in full
            if (xs[j] - xs[i]) ** 2 + (ys[j] - ys[i]) ** 2 <= length ** 2 * (1 + 1e-12)]
        pairs = fc.visible_pairs(w, length)
        assert pair_list(pairs) == want, length
        runs = flatgeom._float_visible_pairs(xs, ys, eps, flatgeom._length_bound(w, length))
        assert pair_list(np.stack(runs, axis=1)) == want, length
        ii, jj = pairs.T
        ref, _ = _signed_distinct_reference(xs[jj] - xs[ii], ys[jj] - ys[ii], eps)
        got = fc.holonomy(w, length).grid
        assert [a.tobytes() for a in got[:2]] == [a.tobytes() for a in ref[:2]], length
        assert got[2:] == (None,)
        fc.saddle_connections(w, 2, length)
    assert len(builds) == 1
    return flatgeom._coarse_grid(w) is not None


@pytest.mark.parametrize("name", list(_adversarial_clouds()))
def test_float_visible_pairs_match_bruteforce_on_adversarial_clouds(name, monkeypatch):
    pts, eps, coarse = _adversarial_clouds()[name]
    w = _float_window(pts, max(12.0, 2 * max(abs(c) for p in pts for c in p)), eps)
    assert _assert_float_paths_agree(w, (None, 1.5, 2.5), monkeypatch) == coarse


def test_float_middle_point_blocks_within_the_tube_only():
    for k, blocked in ((0.5, True), (2, False)):
        w = _float_window(_adversarial_clouds()[f"middle off the line by {k} eps"][0])
        ends = (w.points.index(fc.ZPoint(0.0, 0.0)), w.points.index(fc.ZPoint(2.0, 0.0)))
        assert (tuple(sorted(ends)) in pair_list(fc.visible_pairs(w))) is not blocked


def test_float_straight_left_points_block_across_pi():
    w = _float_window(_adversarial_clouds()["straight left, +0.0 then -0.0"][0])
    origin, far = w.points.index(fc.ZPoint(0.0, 0.0)), w.points.index(fc.ZPoint(-2.0, -0.0))
    assert tuple(sorted((origin, far))) not in pair_list(fc.visible_pairs(w))


def _blocks_reference(a, b, c, mode):
    """Does ``c`` block the pair (a, b)?  One triple of points at a time: in
    exact mode by Fraction cross and dot products, in float mode by the
    eps-tube test on the float offsets from ``a``."""
    u, v = b - a, c - a
    if mode.is_exact:
        return fc.zseq.cross(u, v) == 0 and 0 < fc.zseq.dot(v, u) < u.norm2()
    ux, uy = float(u.re), float(u.im)
    vx, vy = float(v.re), float(v.im)
    len2 = ux * ux + uy * uy
    if len2 == 0.0 or abs(ux * vy - uy * vx) > mode.eps * math.sqrt(len2):
        return False
    s = vx * ux + vy * uy
    return mode.eps / 2 * len2 < s < (1 - mode.eps / 2) * len2


def _visible_reference(w, r, l):
    pts = w.points
    return not any(_blocks_reference(pts[r], pts[l], c, w.mode)
                   for k, c in enumerate(pts) if k not in (r, l))


def _tube_edge_window(c):
    """(0, 0), (64, 0), c and one point off their line, with eps = 2**-10,
    for which the tube around (64, 0) has half-width eps and its dot band is
    1/32 < x < 64 - 1/32; every bound is exact in floats."""
    return _float_window([(0.0, 0.0), (64.0, 0.0), c, (5.0, 9.0)], 100, 2.0 ** -10)


# points on each edge of that tube, and just inside or past it, with whether
# they block (0, 0) from (64, 0)
_TUBE_EDGES = {(1.0 / 32, 0.0): False, (1.0 / 16, 0.0): True, (64.0 - 1.0 / 32, 0.0): False,
               (64.0 - 1.0 / 16, 0.0): True, (32.0, 2.0 ** -10): True,
               (32.0, -2.0 ** -10): True, (32.0, 2.0 ** -9): False}


_REFERENCE_WINDOWS = {
    **{f"cloud den {den}": (lambda den=den: _rational_cloud(random.Random(den), 14, den))
       for den in (1, 3, 6)},
    "lattice R2": lambda: fc.generate(_LATTICE, 2),
    "lattice R2 + 2**40 (1 + i)": lambda: fc.generate(_LATTICE, 2).translate(
        zp(1 << 40, 1 << 40)),
    "big-den cloud": lambda: _rational_cloud(random.Random(5), 12, _BIG_DENS[1]),
    **{f"float {name}": (lambda name=name: _float_window(_adversarial_clouds()[name][0]))
       for name in ("middle off the line by 0.5 eps", "middle off the line by 2 eps",
                    "norm tie 0.3 eps on a diagonal", "straight left, alternating zeros")},
    "float random": lambda: _float_window(_grid_cloud(4, 12, 0.37, 9)),
    **{f"float edge {c}": (lambda c=c: _tube_edge_window(c)) for c in _TUBE_EDGES},
}


@pytest.mark.parametrize("name", list(_REFERENCE_WINDOWS))
def test_blocking_matches_the_pointwise_reference(name):
    """``point_blocks`` on every triple, ``is_visible`` on every ordered pair
    and ``visible_pairs_bruteforce`` decide as the one-triple reference, and
    the predicates return Python bools."""
    w = _REFERENCE_WINDOWS[name]()
    xs = w.grid[0]
    if name.startswith("float"):
        assert xs.dtype == np.float64
    else:
        assert xs.dtype == (object if "2**40" in name or "big" in name else np.int64)
    pts, n = w.points, len(w)
    for r in range(n):
        for l in range(n):
            for c in pts:
                got = fc.point_blocks(pts[r], pts[l], c, w.mode)
                assert type(got) is bool and got == _blocks_reference(pts[r], pts[l], c, w.mode)
            if l != r:
                got = fc.is_visible(w, r, l)
                assert type(got) is bool and got == _visible_reference(w, r, l)
    want = [(i, j) for i in range(n - 1) for j in range(i + 1, n) if _visible_reference(w, i, j)]
    assert fc.visible_pairs_bruteforce(w) == want
    assert pair_list(fc.visible_pairs(w)) == want


def test_tube_edges_block_inside_and_on_the_tube_only():
    def blocked(c):
        w = _tube_edge_window(c)
        ends = w.points.index(fc.ZPoint(0.0, 0.0)), w.points.index(fc.ZPoint(64.0, 0.0))
        return not fc.is_visible(w, *ends)

    assert {c: blocked(c) for c in _TUBE_EDGES} == _TUBE_EDGES


def test_a_point_does_not_see_itself():
    for w in (_window([zp(0), zp(1), zp(2)], 3), _float_window([(0.0, 0.0), (1.0, 0.0),
                                                                (2.0, 0.0)])):
        with pytest.raises(ValueError, match="does not see itself"):
            fc.is_visible(w, 2, 2)
        # the indices are looked up first
        with pytest.raises(IndexError):
            fc.is_visible(w, 3, 3)


# on the lattice R=3 (bounding box 6 x 6) eps = 0.01 keeps eps |b|**2 below
# u**2 = 1, and 0.05 and 0.3 do not; 2 and sqrt(5) are lattice distances
@pytest.mark.parametrize("radius, eps, coarse",
                         [(5, _EPS, True), (8, _EPS, True), (3, 0.0, True), (3, 0.01, True),
                          (3, 0.05, False), (3, 0.3, False)],
                         ids=["5", "8", "3, eps 0", "3, eps 0.01", "3, eps 0.05", "3, eps 0.3"])
def test_float_lattice_pairs_equal_exact_pairs(radius, eps, coarse, monkeypatch):
    spec = fc.GeneratorSpec("gaussian-lattice")
    exact, floats = fc.generate(spec, radius), fc.generate(spec, radius, fc.float_mode(eps))
    lengths = (None, 1.5, 2, 2.5, math.sqrt(5))
    assert _assert_float_paths_agree(floats, lengths, monkeypatch) == coarse
    if coarse:
        for length in lengths:
            assert pair_list(fc.visible_pairs(floats, length)) \
                == pair_list(fc.visible_pairs(exact, length))


def test_only_off_grid_float_windows_take_the_angular_runs(monkeypatch):
    calls = []
    runs = fc.flatgeom._float_visible_pairs
    monkeypatch.setattr(fc.flatgeom, "_float_visible_pairs",
                        lambda *args: calls.append(args) or runs(*args))
    for den in (5, 6):
        w = _as_float(_cloud(den, 45))()
        fc.holonomy(w)
        assert len(calls) == 1
        calls.clear()
    for radius in (3, 8):
        w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), radius, fc.float_mode(_EPS))
        fc.holonomy(w)
        fc.saddle_connections(w, 2, 2)
        assert calls == []


def test_visible_pairs_max_length_filter(lattice5):
    short = set(pair_list(fc.visible_pairs(lattice5, max_length=1.0)))
    everything = set(pair_list(fc.visible_pairs(lattice5)))
    assert short < everything
    for i, j in short:
        assert (lattice5.points[j] - lattice5.points[i]).norm() <= 1.0 + 1e-12
    # the filtered set is exactly the length-restricted subset
    manual = {(i, j) for i, j in everything
              if (lattice5.points[j] - lattice5.points[i]).norm2() <= 1}
    assert short == manual


def test_visible_pairs_length_boundary_is_inclusive():
    w = _window([zp(0), zp(1), zp(0, 1)], 2)
    pairs = pair_list(fc.visible_pairs(w, max_length=1.0))
    assert (0, 1) in pairs and (0, 2) in pairs
    # sqrt(2) pair excluded at max_length 1
    assert (1, 2) not in pairs
    assert (1, 2) in pair_list(fc.visible_pairs(w, max_length=math.sqrt(2) + 1e-9))


@pytest.mark.parametrize("bad", [-2, -1e-300, math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("exact", [True, False])
def test_negative_or_non_finite_max_length_raises(bad, exact):
    mode = fc.EXACT if exact else fc.float_mode(_EPS)
    for w in (fc.generate(fc.GeneratorSpec("gaussian-lattice"), 4, mode),
              fc.ZeroWindow.from_points([fc.ZPoint.of(1, 0, mode)], 2, mode)):
        for call in (fc.visible_pairs, fc.holonomy,
                     lambda w, length: fc.saddle_connections(w, 2, length)):
            with pytest.raises(ValueError, match="max_length"):
                call(w, bad)


def test_zero_max_length_finds_no_pairs(lattice5):
    assert pair_list(fc.visible_pairs(lattice5, max_length=0)) == []
    assert fc.holonomy(lattice5, max_length=0).vectors == ()
    assert fc.saddle_connections(lattice5, 2, max_length=0) == []


def _pairless(mode):
    """Windows with a length bound, or None, under which no pair is visible."""
    two = fc.ZeroWindow.from_points([fc.ZPoint.of(0, 0, mode), fc.ZPoint.of(3, 4, mode)], 6, mode)
    return {
        "0 points": (fc.ZeroWindow((), 3, mode=mode), None),
        "1 point": (fc.ZeroWindow.from_points([fc.ZPoint.of(1, 0, mode)], 2, mode), None),
        "2 points, bound below their distance": (two, 4.9),
        "2 points, max_length 0": (two, 0),
        # no anchor has a point within the bound
        "lattice, bound below its spacing": (
            fc.generate(fc.GeneratorSpec("gaussian-lattice"), 4, mode), 0.5),
    }


@pytest.mark.parametrize("exact", [True, False])
def test_windows_without_visible_pairs_give_empty_results(exact):
    mode = fc.EXACT if exact else fc.float_mode(_EPS)
    for name, (w, length) in _pairless(mode).items():
        pairs = fc.visible_pairs(w, length)
        assert pairs.shape == (0, 2) and pairs.dtype == np.int64, name
        h = fc.holonomy(w, length)
        assert h.vectors == () and len(h.grid[0]) == 0, name
        assert h.complete_radius == float(w.radius) - (length or 0), name
        if len(w):
            assert fc.saddle_connections(w, 2, length) == [], name
        else:
            with pytest.raises(fc.EmptyWindow):
                fc.saddle_connections(w, 2, length)


@pytest.mark.parametrize("exact", [True, False])
def test_holonomy_and_saddles_call_visible_pairs_once_by_module_name(exact, monkeypatch):
    # the benchmark's tracer (perfbench/tracing.py) wraps flatgeom's public
    # names, so it sees the visibility under holonomy and saddle_connections
    # only while they reach visible_pairs through the module attribute
    mode = fc.EXACT if exact else fc.float_mode(_EPS)
    w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), 4, mode)
    calls = []
    original = fc.flatgeom.visible_pairs

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fc.flatgeom, "visible_pairs", counting)
    for length in (None, 2):
        for call in (fc.holonomy, lambda w, length: fc.saddle_connections(w, 2, length)):
            calls.clear()
            call(w, length)
            assert len(calls) == 1


def _first_steps(w):
    """(pairs with g > 1, those whose first step is a window point) on the
    grid of w, moved to put its first point at 0 and divided by the gcd of
    all coordinates, as exact ``visible_pairs`` probes it."""
    xs, ys = [int(x) for x in w.grid[0]], [int(y) for y in w.grid[1]]
    xs, ys = [x - xs[0] for x in xs], [y - ys[0] for y in ys]
    unit = math.gcd(*xs, *ys)
    pts = [(x // unit, y // unit) for x, y in zip(xs, ys)]
    present = set(pts)
    steps = hits = 0
    for i, (ax, ay) in enumerate(pts):
        for bx, by in pts[i + 1:]:
            g = math.gcd(bx - ax, by - ay)
            if g > 1:
                steps += 1
                hits += (ax + (bx - ax) // g, ay + (by - ay) // g) in present
    return steps, hits


def _restricted(w, pairs, length):
    return [(i, j) for i, j in pairs
            if (w.points[j] - w.points[i]).norm2() <= Fraction(length) ** 2]


_K = 1 << 27
# collinear windows whose gaps have gcds near 2**27 and 2**28; an off-line
# point keeps the gcd of all coordinates at 1, and 2**29 moves the grid to
# Python ints
_HUGE_GCD = {
    "0, 2**27, 2**28": [zp(0), zp(_K), zp(2 * _K)],
    "0, 2**28": [zp(0), zp(2 * _K)],
    "0, 2**27, 2**28 and 1 + i": [zp(0), zp(_K), zp(2 * _K), zp(1, 1)],
    "0, 2**28 and 1 + i": [zp(0), zp(2 * _K), zp(1, 1)],
    "diagonal 0, 2**27 (1 + i), 2**28 (1 + i) and 1": [zp(0), zp(_K, _K), zp(2 * _K, 2 * _K),
                                                        zp(1)],
    "diagonal 0, 2**28 (1 + i) and 1": [zp(0), zp(2 * _K, 2 * _K), zp(1)],
    "0, 2**28, 2**29 and i": [zp(0), zp(2 * _K), zp(4 * _K), zp(0, 1)],
    "0, 2**29 and i": [zp(0), zp(4 * _K), zp(0, 1)],
}


@pytest.mark.parametrize("name", list(_HUGE_GCD))
def test_huge_gcd_collinear_windows_match_bruteforce(name):
    w = _window(_HUGE_GCD[name], 8 * _K)
    assert w.grid[0].dtype == (object if "2**29" in name else np.int64)
    full = fc.visible_pairs_bruteforce(w)
    start = time.perf_counter()
    got = pair_list(fc.visible_pairs(w))
    restricted = {length: pair_list(fc.visible_pairs(w, max_length=length))
                  for length in (1, 1.5, _K, 1.5 * _K, 2 * _K)}
    # a walk over the steps up to g would take minutes
    assert time.perf_counter() - start < 2.0
    assert got == full
    for length, pairs in restricted.items():
        assert pairs == _restricted(w, full, length)


def _sparse_sevenths(seed):
    """Integer points and two points on the 1/7 grid, with every first-step
    probe a miss."""
    rng = random.Random(seed)
    while True:
        pts = {(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(14)}
        pts = [zp(x, y) for x, y in pts] + [zp(Fraction(1, 7), Fraction(2, 7)),
                                             zp(Fraction(-3, 7), Fraction(5, 7))]
        w = _window(pts, 10)
        steps, hits = _first_steps(w)
        if steps and not hits:
            return w


@pytest.mark.parametrize("seed", range(4))
def test_sparse_seventh_clouds_match_bruteforce(seed):
    w = _sparse_sevenths(seed)
    full = fc.visible_pairs_bruteforce(w)
    assert full != [(i, j) for i in range(len(w)) for j in range(i + 1, len(w))]
    assert pair_list(fc.visible_pairs(w)) == full
    for length in (1, 2, 3.5, 6):
        assert pair_list(fc.visible_pairs(w, max_length=length)) == _restricted(w, full, length)


# the dense difference table and the sorted keys on one reduced grid

_LATTICE = fc.GeneratorSpec("gaussian-lattice")


def _holed_lattice(radius, seed, keep):
    """The lattice ball of ``radius`` with each point but 0 kept with
    probability ``keep``."""
    rng = random.Random(seed)
    pts = [p for p in fc.generate(_LATTICE, radius).points
           if p.is_zero() or rng.random() < keep]
    return _window(pts, radius)


def _small_box(seed):
    """Up to 30 random points of a box of at most 9 x 9, some on the 1/2
    or 1/3 grid and translated: many first steps miss."""
    rng = random.Random(seed)
    den = rng.choice((1, 2, 3))
    width, height = rng.randint(1, 9), rng.randint(2, 9)
    cells = [(x, y) for x in range(width) for y in range(height)]
    pts = rng.sample(cells, min(len(cells), rng.randint(2, 30)))
    shift = (Fraction(rng.randint(-9, 9), 7), Fraction(rng.randint(-9, 9), 5))
    return _window([zp(Fraction(x, den) + shift[0], Fraction(y, den) + shift[1])
                    for x, y in pts], 20)


_LOOKUP_WINDOWS = {
    **{f"lattice R{r}": (lambda r=r: fc.generate(_LATTICE, r)) for r in range(1, 21)},
    **{f"lattice R{r} + (1/3, 1/7)": (lambda r=r: fc.generate(_LATTICE, r).translate(
        zp(Fraction(1, 3), Fraction(1, 7)))) for r in (1, 2, 3, 5, 8, 13)},
    **{f"lattice R{r} + 2**40 (1 + i)": (lambda r=r: fc.generate(_LATTICE, r).translate(
        zp(1 << 40, 1 << 40))) for r in (1, 2, 4, 7, 12)},
    **{f"{kind} R30": (lambda kind=kind: fc.generate(fc.GeneratorSpec(kind), 30))
       for kind in ("all-integers", "positive-integers")},
    "integers + 2**40": lambda: fc.generate(fc.GeneratorSpec("all-integers"), 9).translate(
        zp(1 << 40)),
    **{f"holed lattice R{r}, keep {keep}": (lambda r=r, keep=keep: _holed_lattice(r, r, keep))
       for r, keep in ((4, 0.5), (6, 0.8), (9, 0.9), (12, 0.97))},
    **{f"small box {seed}": (lambda seed=seed: _small_box(seed)) for seed in range(40)},
}


def _lookup_pairs(xs, ys, limit2, lookup):
    return np.stack(fc.flatgeom._visible_by_lookup(xs, ys, limit2, lookup), axis=1)


@pytest.mark.parametrize("name", list(_LOOKUP_WINDOWS))
def test_table_and_key_lookups_give_equal_pairs(name, monkeypatch):
    """On the same reduced grid both lookups find the same pairs, whichever
    one the rule picks, under bounds that cut inside, on and past the
    lattice distances."""
    flatgeom = fc.flatgeom
    w = _LOOKUP_WINDOWS[name]()
    assert (w.grid[0].dtype == object) == ("2**40" in name)
    taken = []
    table = flatgeom._table_lookup
    monkeypatch.setattr(flatgeom, "_table_lookup",
                        lambda *args: taken.append(True) or table(*args))
    n = len(w)
    xs, ys, _ = flatgeom._reduced(*w.grid[:2], None)
    assert xs.dtype == np.int64
    width, height = flatgeom._box(xs, ys)
    got = fc.visible_pairs(w)
    assert bool(taken) == ((2 * width - 1) * (2 * height - 1) <= n * (n - 1) // 2)
    lengths = [None, 0, 1, 2, math.sqrt(5), 1e6]
    full = None
    if n <= 120:
        full = fc.visible_pairs_bruteforce(w)
        # the longest distance, and just below it, where a bound stops cutting
        longest = max((q - p).norm() for p in w.points for q in w.points)
        lengths += [longest, longest * (1 - 1e-9)]
    # 1e6, past every box here, reduces to no bound, as None does
    bounds = {flatgeom._reduced(*w.grid[:2], flatgeom._length_bound(w, length))[2]: length
              for length in lengths}
    for limit2, length in bounds.items():
        by_table = _lookup_pairs(xs, ys, limit2, table(xs, ys, limit2))
        by_keys = _lookup_pairs(xs, ys, limit2,
                                flatgeom._key_lookup(xs, ys, limit2))
        assert np.array_equal(by_table, by_keys), length
        if limit2 is None:
            assert np.array_equal(by_table, got)
        if full is not None:
            assert pair_list(by_table) == (full if length is None else
                                           _restricted(w, full, length)), length


def test_small_boxes_reach_both_lookups_and_the_fallback(monkeypatch):
    """The random small boxes above lie on both sides of the rule, and some
    open pairs reach the nearest-point fallback on the table."""
    flatgeom = fc.flatgeom
    sides, opened = set(), []
    for seed in range(40):
        w = _small_box(seed)
        xs, ys, _ = flatgeom._reduced(*w.grid[:2], None)
        width, height = flatgeom._box(xs, ys)
        dense = (2 * width - 1) * (2 * height - 1) <= len(w) * (len(w) - 1) // 2
        sides.add(dense)
        if dense:
            nearest = flatgeom._nearest_beyond_first_step
            monkeypatch.setattr(flatgeom, "_nearest_beyond_first_step",
                                lambda *args: opened.append(seed) or nearest(*args))
            fc.visible_pairs(w)
            monkeypatch.undo()
    assert sides == {True, False}
    assert opened


# bounded visibility: the table's short differences as the candidate pairs


def _moved_far(build):
    """The window of ``build`` moved by 2**40 (1 + i): a Python-int grid."""
    return lambda: build().translate(zp(1 << 40, 1 << 40))


_BOUNDED_WINDOWS = {
    **{f"lattice R{r}": (lambda r=r: fc.generate(_LATTICE, r)) for r in range(3, 13)},
    **{f"float lattice R{r}": (lambda r=r: fc.generate(_LATTICE, r, fc.float_mode(_EPS)))
       for r in range(3, 13)},
    **{f"holed lattice R{r}, keep {keep}": (lambda r=r, keep=keep: _holed_lattice(r, r, keep))
       for r, keep in ((5, 0.6), (7, 0.8), (10, 0.9), (12, 0.95))},
    **{f"lattice R{r} + 2**40 (1 + i)": _moved_far(lambda r=r: fc.generate(_LATTICE, r))
       for r in (3, 6, 9, 12)},
    "holed lattice R7 + 2**40 (1 + i)": _moved_far(lambda: _holed_lattice(7, 7, 0.8)),
    **{f"{kind} R{r}": (lambda kind=kind, r=r: fc.generate(fc.GeneratorSpec(kind), r))
       for kind, r in (("integers-plus-minus-i", 20), ("all-integers", 30),
                       ("positive-integers", 40))},
}


def _bounds(w):
    """The lengths the bounded oracle tries on w: none of its pairs, below
    its smallest gap, on the lattice norms 1, 2 and 5 and between them, and
    just under the diagonal of its box."""
    xs, ys, scale = w.grid
    diagonal = math.hypot(float(xs.max() - xs.min()), float(ys.max() - ys.min()))
    diagonal /= 1 if scale is None else scale
    return [0, 0.5, 1, math.sqrt(2), 2, math.sqrt(5), 3, 4, math.sqrt(18), diagonal * (1 - 1e-9)]


@pytest.mark.parametrize("name", list(_BOUNDED_WINDOWS))
def test_bounded_pairs_equal_the_unbounded_and_the_bruteforce_pairs_within_the_bound(
        name, monkeypatch):
    """Under every bound, ``visible_pairs`` lists the unbounded pairs whose
    squared grid length is within ``_length_bound``, and, on windows of at
    most 200 points, the brute-force pairs within the bound.  The thin
    integer families take the short differences at small bounds and the
    triangle at large ones, and the holed lattices send short candidates to
    the nearest-point fallback."""
    flatgeom = fc.flatgeom
    w = _BOUNDED_WINDOWS[name]()
    assert (w.grid[0].dtype == object) == ("2**40" in name)
    xs, ys = w.grid[:2]
    full = fc.visible_pairs(w)
    fi, fj = full.T
    d2 = (xs[fj] - xs[fi]) ** 2 + (ys[fj] - ys[fi]) ** 2
    brute = fc.visible_pairs_bruteforce(w) if len(w) <= 200 else None
    short, opened = [], []
    table = flatgeom._table_lookup

    def noting(*args):
        lookup = table(*args)
        short.append(lookup.pairs is not None)
        return lookup

    monkeypatch.setattr(flatgeom, "_table_lookup", noting)
    nearest = flatgeom._nearest_beyond_first_step
    monkeypatch.setattr(flatgeom, "_nearest_beyond_first_step",
                        lambda *args: opened.append(short[-1]) or nearest(*args))
    for length in _bounds(w):
        got = fc.visible_pairs(w, length)
        assert np.array_equal(got, full[d2 <= flatgeom._length_bound(w, length)]), length
        if brute is not None:
            assert pair_list(got) == _restricted(w, brute, length), length
    assert short[:6] == [True] * 6
    if "integers" in name:
        assert not short[-1]
    if "holed" in name:
        assert True in opened


def test_bounded_table_windows_hand_the_lookup_n_k_entries(monkeypatch):
    """On the lattice of radius 20 a bound of 2 hands the table's lookup at
    most n k = 1257 x 6 entries, one per point and short difference, where
    the upper triangle has 789 396; with no bound it is handed the
    triangle."""
    flatgeom = fc.flatgeom
    handed = []
    table = flatgeom._table_lookup

    def counting(*args):
        lookup = table(*args)

        def counted(row, col):
            handed.append(len(row))
            return lookup(row, col)

        counted.pairs = lookup.pairs
        return counted

    monkeypatch.setattr(flatgeom, "_table_lookup", counting)
    w = fc.generate(_LATTICE, 20)
    n = len(w)
    assert n == 1257
    fc.visible_pairs(w, 2)
    assert 0 < sum(handed) <= n * 6 < n * (n - 1) // 2 == 789396
    handed.clear()
    fc.visible_pairs(w)
    assert sum(handed) == n * (n - 1) // 2


def _perfbench_cloud(seed, n, den, radius):
    """n distinct points of the 1/den grid in the disk of ``radius``, the
    origin included, as the holonomy-scan benchmark draws them."""
    rng = random.Random(seed)
    span = radius * den
    pts = {(Fraction(0), Fraction(0))}
    while len(pts) < n:
        p = (Fraction(rng.randint(-span, span), den), Fraction(rng.randint(-span, span), den))
        if p[0] ** 2 + p[1] ** 2 <= radius * radius:
            pts.add(p)
    return _window([zp(*p) for p in sorted(pts)], radius)


_CLOSED_FORM = [k for k in fc.GeneratorSpec.KINDS if k not in ("orbit", "explicit")]


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("kind", _CLOSED_FORM)
def test_pairs_visible_at_r_stay_visible_at_2r(kind, exact):
    """A closed-form window holds every term of its sequence in its ball, so
    the window of twice the radius adds no point inside the smaller ball
    and no segment there gains a blocker: every pair visible at R is
    visible at 2R."""
    mode = fc.EXACT if exact else fc.float_mode(_EPS)
    for r in (5, 8, 12):
        small, big = (fc.generate(fc.GeneratorSpec(kind), radius, mode) for radius in (r, 2 * r))
        assert small.translation == big.translation
        at = {p: i for i, p in enumerate(big.points)}
        held = set(pair_list(fc.visible_pairs(big)))
        moved = [tuple(sorted((at[small.points[i]], at[small.points[j]])))
                 for i, j in pair_list(fc.visible_pairs(small))]
        assert [pair for pair in moved if pair not in held] == [], r
        assert moved or len(small) < 2


def test_lattices_take_the_table_and_clouds_and_orbits_the_keys(monkeypatch):
    flatgeom = fc.flatgeom
    calls = []
    for name in ("_table_lookup", "_key_lookup"):
        lookup = getattr(flatgeom, name)
        monkeypatch.setattr(flatgeom, name,
                            lambda *args, name=name, lookup=lookup:
                            calls.append(name) or lookup(*args))
    seeds = [(1, 0), (Fraction(63, 80), Fraction(-43, 80))]
    orbit = fc.generate(fc.GeneratorSpec.orbit(seeds, [(1, 1, 0, 1), (1, 0, 1, 1)], 4), 6)
    cases = [(fc.generate(_LATTICE, r), "_table_lookup") for r in (3, 8, 12)] \
        + [(fc.generate(_LATTICE, 8, fc.float_mode(_EPS)), "_table_lookup"),
           (fc.generate(fc.GeneratorSpec("all-integers"), 20), "_table_lookup")] \
        + [(_perfbench_cloud(seed, 45, 5, 10), "_key_lookup") for seed in (1, 3, 11)] \
        + [(orbit, "_key_lookup")]
    for w, want in cases:
        for call in (fc.holonomy, lambda w: fc.saddle_connections(w, 2, 2)):
            calls.clear()
            call(w)
            assert calls == [want]


@pytest.mark.parametrize("exact", [True, False])
def test_bounds_past_float_range_squared_equal_no_bound(exact):
    """1e200 squared overflows float64: a float bound becomes inf, and every
    result equals the unbounded one."""
    mode = fc.EXACT if exact else fc.float_mode(_EPS)
    windows = [fc.generate(_LATTICE, 3, mode), _as_float(_cloud(5, 45))()]
    for w in windows:
        assert pair_list(fc.visible_pairs(w, 1e200)) == pair_list(fc.visible_pairs(w))
        got, want = fc.holonomy(w, 1e200), fc.holonomy(w)
        assert [a.tobytes() for a in got.grid[:2]] == [a.tobytes() for a in want.grid[:2]]
        assert got.complete_radius == 0.0
        assert fc.saddle_connections(w, 2, 1e200) == fc.saddle_connections(w, 2)
    assert len(fc.visible_pairs(windows[0], 1e200)) == 268


@pytest.mark.parametrize("exact", [True, False])
def test_bounds_past_float_range_equal_no_bound(exact):
    """A Python int past the float range bounds nothing, in float mode as in
    exact mode: once float() of it raised OverflowError."""
    mode = fc.EXACT if exact else fc.float_mode(_EPS)
    w = fc.generate(_LATTICE, 3, mode)
    for bound in (10 ** 400, Fraction(10 ** 400, 3)):
        assert pair_list(fc.visible_pairs(w, bound)) == pair_list(fc.visible_pairs(w))
        got, want = fc.holonomy(w, bound), fc.holonomy(w)
        assert [a.tobytes() for a in got.grid[:2]] == [a.tobytes() for a in want.grid[:2]]
        assert got.complete_radius == 0.0 and got.restricted_to == bound
        assert not got.contains(zp(7) if exact else fc.ZPoint(7.0, 0.0))
        assert fc.saddle_connections(w, 2, bound) == fc.saddle_connections(w, 2)
    assert len(fc.visible_pairs(w, 10 ** 400)) == 268


def test_holonomy_past_eps_cells_raises_no_warning():
    """Vectors whose coordinates over eps overflow compare exactly, so the
    near-duplicate pass divides by eps without an overflow warning."""
    pts = [fc.ZPoint(0.0, 0.0), fc.ZPoint(1e10, 0.0), fc.ZPoint(0.0, 1.0)]
    w = fc.ZeroWindow.from_points(pts, 2e10, fc.float_mode(1e-300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = fc.holonomy(w)
    assert len(h) == 6
    assert h.contains(fc.ZPoint(1e10, 0.0)) and not h.contains(fc.ZPoint(1e10, 1e-300))


# ---------------------------------------------------------------------------
# saddle connections


def test_saddle_connections_integers():
    w = fc.generate(fc.GeneratorSpec("positive-integers"), 4.5)
    segs = fc.saddle_connections(w, 2)
    assert [(s.from_idx, s.to_idx) for s in segs] == [(0, 1), (1, 2), (2, 3)]
    for s in segs:
        assert s.holonomy == zp(1)
        assert s.multiplicity == 2
        assert s.direction == pytest.approx(0.0)


def test_saddle_orientation_upper_half():
    # holonomy argument normalized into [0, pi)
    w = _window([zp(0), zp(1, -1)], 2)
    (seg,) = fc.saddle_connections(w, 2)
    assert seg.holonomy == zp(-1, 1)
    assert 0 <= seg.direction < math.pi


def test_saddle_fields_equal_fraction_formulas():
    rng = random.Random(43)
    windows = [_rational_cloud(rng, 25, den) for den in (3, 6, 7, *_BIG_DENS)]
    windows.append(fc.generate(fc.GeneratorSpec("gaussian-lattice"), 4).translate(
        zp(Fraction(1, 3), Fraction(-2, 7))))
    for w in windows:
        for seg in fc.saddle_connections(w, 3):
            v = w.points[seg.to_idx] - w.points[seg.from_idx]
            assert seg.holonomy == v
            assert v.im > 0 or (v.im == 0 and v.re > 0)
            assert seg.length == math.sqrt(float(v.norm2()))
            assert seg.direction == math.atan2(float(v.im), float(v.re))
            reach = max((w.points[k] - w.center).norm() for k in (seg.from_idx, seg.to_idx))
            assert seg.provisional == (reach + seg.length > w.radius * (1 + 1e-12))


def test_provisional_flag_marks_boundary_segments():
    w = fc.generate(fc.GeneratorSpec("positive-integers"), 4.5)
    segs = fc.saddle_connections(w, 2)
    # raw endpoint 4 plus unit length reaches past the sampled ball
    assert [s.provisional for s in segs] == [False, False, True]


def test_saddle_connections_m_validation(lattice5):
    with pytest.raises(ValueError):
        fc.saddle_connections(lattice5, 1)


def test_singleton_window_has_no_segments():
    w = _window([zp(1)], 2)
    assert fc.saddle_connections(w, 2) == []


def test_saddle_segment_is_an_immutable_value_record():
    w = _window([zp(0), zp(1), zp(2, 1)], 3)
    segs, twins = fc.saddle_connections(w, 3), fc.saddle_connections(w, 3)
    assert repr(segs[1]) == (
        "SaddleSegment(from_idx=0, to_idx=2, holonomy=ZPoint(re=Fraction(2, 1), "
        "im=Fraction(1, 1)), length=2.23606797749979, direction=0.4636476090008061, "
        "multiplicity=3, provisional=True)")
    for seg, twin in zip(segs, twins):
        assert type(seg) is fc.SaddleSegment and type(seg.holonomy) is fc.ZPoint
        assert [type(getattr(seg, f)) for f in ("from_idx", "to_idx", "length", "direction",
                                                "multiplicity", "provisional")] \
            == [int, int, float, float, int, bool]
        assert seg == twin and hash(seg) == hash(twin)
        assert seg != seg._replace(multiplicity=4)
        with pytest.raises(AttributeError):
            seg.length = 0.0
    wf = fc.ZeroWindow.from_points([fc.ZPoint(0.0, 0.0), fc.ZPoint(-1.0, 0.0)], 2,
                                   fc.float_mode(1e-9))
    assert repr(fc.saddle_connections(wf, 2)) == (
        "[SaddleSegment(from_idx=1, to_idx=0, holonomy=ZPoint(re=1.0, im=-0.0), length=1.0, "
        "direction=-0.0, multiplicity=2, provisional=False)]")


# ---------------------------------------------------------------------------
# holonomy


def test_holonomy_closed_under_negation(lattice5):
    h = fc.holonomy(lattice5)
    vecs = {(v.re, v.im) for v in h.vectors}
    assert vecs == {(-a, -b) for a, b in vecs}
    assert all(not v.is_zero() for v in h.vectors)


def test_holonomy_positive_integers_is_pm_one():
    w = fc.generate(fc.GeneratorSpec("positive-integers"), 30)
    h = fc.holonomy(w)
    assert {(v.re, v.im) for v in h.vectors} == {
        (Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))}


def test_exact_holonomy_equals_set_of_visible_differences(lattice5):
    rng = random.Random(47)
    for w in [lattice5] + [_rational_cloud(rng, 30, den) for den in (2, 5, 7, *_BIG_DENS)]:
        for length in (None, 2.5):
            pairs = pair_list(fc.visible_pairs(w, max_length=length))
            want = fc.HolonomySet([w.points[j] - w.points[i] for i, j in pairs],
                                  w.radius, w.mode, restricted_to=length)
            got = fc.holonomy(w, max_length=length)
            assert got.vectors == want.vectors
            assert got.complete_radius == want.complete_radius


def test_public_exact_holonomy_set_matches_holonomy(lattice5):
    rng = random.Random(71)
    for w in [lattice5] + [_rational_cloud(rng, 30, den) for den in (2, 7, *_BIG_DENS)]:
        for length, window in ((None, w), (2.5, w), (None, None)):
            h = fc.holonomy(w, max_length=length)
            # one sign of each vector, some twice, shuffled
            half = [v for v in h.vectors if fc.zseq._arg_half(v) == 0]
            given = half + half[::3]
            rng.shuffle(given)
            pub = fc.HolonomySet(given, w.radius, w.mode, restricted_to=length, window=window)
            assert pub.vectors == h.vectors
            assert pub.complete_radius == h.complete_radius
            probes = list(h.vectors) + [v.scale(c) for v in h.vectors[:20]
                                        for c in (2, 3, Fraction(1, 2))]
            assert [pub.contains(v) for v in probes] == [h.contains(v) for v in probes]


def _signed_inputs():
    """int64 vector arrays: visible differences, repeats, signs, the axes
    and nothing at all."""
    lattice = fc.generate(_LATTICE, 6)
    ii, jj = fc.visible_pairs(lattice).T
    xs, ys = lattice.grid[:2]
    rng = np.random.default_rng(5)
    vectors = {
        "lattice R6 differences": (xs[jj] - xs[ii], ys[jj] - ys[ii]),
        "empty": ([], []),
        "dx = 0": ([0, 0, 0, 0], [1, -3, 3, 2]),
        "dy = 0": ([2, -1, 5, 1], [0, 0, 0, 0]),
        "both axes": ([0, 3, 0, -3], [4, 0, -4, 0]),
        "one vector": ([7], [-2]),
        "repeats and negatives": ([1, 1, -1, 2, -2, 2], [1, 1, -1, 0, 0, 0]),
        "random with repeats": tuple(rng.integers(-4, 5, size=(2, 60))),
        "random, wide": tuple(rng.integers(-300, 301, size=(2, 40))),
    }
    return {name: (np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64))
            for name, (x, y) in vectors.items()}


@pytest.mark.parametrize("name", list(_signed_inputs()))
def test_signed_distinct_bitmap_and_keys_agree(name, monkeypatch):
    """The bitmap and the sorted keys give byte-equal vectors of one dtype,
    and ``_signed_distinct`` takes the bitmap exactly when the box has at
    most two cells per vector."""
    flatgeom = fc.flatgeom
    xs, ys = _signed_inputs()[name]
    reach = int(np.abs(xs).max(initial=0)), int(np.abs(ys).max(initial=0))
    by_keys = flatgeom._signed_by_keys(xs, ys, max(reach))
    by_bitmap = flatgeom._signed_by_bitmap(xs, ys, *reach)
    assert [a.dtype for a in by_bitmap] == [a.dtype for a in by_keys] == [np.int64] * 2
    assert [a.tobytes() for a in by_bitmap] == [a.tobytes() for a in by_keys]
    assert {(x, y) for x, y in zip(*map(np.ndarray.tolist, by_keys))} \
        == {(s * x, s * y) for x, y in zip(xs.tolist(), ys.tolist()) for s in (1, -1)}
    used = []
    bitmap = flatgeom._signed_by_bitmap
    monkeypatch.setattr(flatgeom, "_signed_by_bitmap",
                        lambda *args: used.append(True) or bitmap(*args))
    got = flatgeom._signed_distinct(xs, ys, 1)
    assert bool(used) == ((2 * reach[0] + 1) * (2 * reach[1] + 1) <= 2 * len(xs))
    order = fc.zseq.canonical_permutation(*by_keys)
    assert [a.tobytes() for a in got[:2]] == [a[order].tobytes() for a in by_keys]
    assert got[2:] == (1,)


def test_float_holonomy_keeps_no_near_duplicates():
    rng = random.Random(53)
    mode = fc.float_mode(1e-9)
    for den in (3, 5, 6):
        exact = _rational_cloud(rng, 40, den)
        w = fc.ZeroWindow.from_points(
            [fc.ZPoint(float(p.re), float(p.im)) for p in exact.points], 20, mode)
        h = fc.holonomy(w)
        assert len(h.vectors) == len(fc.holonomy(exact).vectors)
        z = np.array([v.to_complex() for v in h.vectors])
        close = np.abs(z[:, None] - z[None, :]) <= mode.eps  # same_point, vectorised
        assert close.sum() == len(z)  # each vector matches only itself


def test_float_holonomy_set_drops_separated_near_duplicates():
    # the images of (1/6, 1) under the square's symmetries share its norm,
    # so they sort between it and its rounding-off copy b
    mode = fc.float_mode(1e-9)
    a, b = fc.ZPoint(1 / 6, 1.0), fc.ZPoint(0.16666666666666696, 1.0)
    h = fc.HolonomySet([a, b, fc.ZPoint(-1 / 6, 1.0)], 5, mode)
    assert len(h.vectors) == 4
    assert h.contains(b) and h.contains(-b)


def _float_holonomy_oracle(vectors, mode):
    """The float vectors as a one-at-a-time dict and ``PointIndex`` loop
    keeps them: exact repeats of the (v, -v) sequence out first, then each
    vector, in canonical order, unless the index of those kept finds it."""
    signed = {}
    for v in vectors:
        for s in (v, -v):
            signed.setdefault((s.re, s.im), s)
    signed = list(signed.values())
    xs, ys, _ = fc.zseq.coordinate_grid(signed, mode)
    index, kept = reference.PointIndex((), mode), []
    for i in fc.zseq.canonical_permutation(xs, ys).tolist():
        if signed[i] not in index:
            index.add(signed[i], len(kept))
            kept.append(signed[i])
    return kept


def _float_clouds():
    rng = random.Random(61)
    mode = fc.float_mode(_EPS)
    for den in (3, 5, 6, 7):
        exact = _rational_cloud(rng, 40, den)
        yield fc.ZeroWindow.from_points(
            [fc.ZPoint(float(p.re), float(p.im)) for p in exact.points], 20, mode)
    yield fc.ZeroWindow.from_points(
        [fc.ZPoint(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(40)], 8, mode)
    yield fc.generate(fc.GeneratorSpec("gaussian-lattice"), 5, mode)


def _same_as_oracle(h, kept, probes):
    assert [repr(v) for v in h.vectors] == [repr(v) for v in kept]
    index = reference.PointIndex(kept, h.mode)
    assert [h.contains(p) for p in probes] == [not p.is_zero() and p in index for p in probes]


def test_float_holonomy_sets_match_the_point_index_loop():
    for w in _float_clouds():
        mode = w.mode
        vecs = [w.points[j] - w.points[i] for i, j in pair_list(fc.visible_pairs(w))]
        kept = _float_holonomy_oracle(vecs, mode)
        probes = kept + [fc.ZPoint(v.re + d, v.im - d) for v in kept[:40]
                         for d in (0.4 * _EPS, 0.8 * _EPS, 2 * _EPS)] + [fc.ZPoint(0.0, 0.0)]
        h = fc.holonomy(w)
        _same_as_oracle(h, kept, probes)
        longest = max(math.sqrt(v.re * v.re + v.im * v.im) for v in vecs)
        assert h.complete_radius == max(0.0, w.radius - longest)
        rng = random.Random(len(vecs))
        given = vecs + vecs[::3] + [-v for v in vecs[::2]]
        rng.shuffle(given)
        pub = fc.HolonomySet(given, w.radius, mode)
        want = _float_holonomy_oracle(given, mode)
        _same_as_oracle(pub, want, probes)
        assert pub.complete_radius == max(0.0, w.radius - want[-1].norm())


def test_float_holonomy_set_keeps_signed_zeros_as_given():
    mode = fc.float_mode(_EPS)
    given = [fc.ZPoint(1.0, 0.0), fc.ZPoint(-0.0, 2.0), fc.ZPoint(-3.0, -0.0), fc.ZPoint(0.0, -2.0)]
    h = fc.HolonomySet(given, 5, mode)
    _same_as_oracle(h, _float_holonomy_oracle(given, mode), given)
    assert "-0.0" in repr(h.vectors)


def test_float_holonomy_set_keeps_both_ends_of_a_near_duplicate_chain():
    mode = fc.float_mode(_EPS)
    a = fc.ZPoint(1.0, 2.0)
    b = fc.ZPoint(a.re + 0.8 * _EPS, a.im)
    c = fc.ZPoint(b.re + 0.8 * _EPS, b.im)
    same = fc.zseq.same_point
    assert same(a, b, mode) and same(b, c, mode) and not same(a, c, mode)
    h = fc.HolonomySet([c, b, a], 5, mode)
    assert h.vectors == (a, -a, c, -c)
    _same_as_oracle(h, _float_holonomy_oracle([c, b, a], mode), [a, b, c, -b])
    assert "_lookup" in h.__dict__  # built by contains


def _disk_cloud(rng, n, den, radius=10):
    """n distinct points of the 1/den grid in the disk of ``radius``, the
    origin among them, as a float window: the benchmark's clouds."""
    span, pts = radius * den, {(0, 0)}
    while len(pts) < n:
        p = rng.randint(-span, span), rng.randint(-span, span)
        if p[0] ** 2 + p[1] ** 2 <= span * span:
            pts.add(p)
    return fc.ZeroWindow.from_points([fc.ZPoint(x / den, y / den) for x, y in sorted(pts)],
                                     radius, fc.float_mode(_EPS))


def _holonomy_windows():
    """Float windows by name, for ``holonomy`` against the references."""
    windows = {f"float cloud {k}": w for k, w in enumerate(_float_clouds())}
    windows.update({f"adversarial {name}": _float_window(
        pts, max(12.0, 2 * max(abs(c) for p in pts for c in p)), eps)
        for name, (pts, eps, _) in _adversarial_clouds().items()})
    rng = random.Random(29)
    windows.update({f"disk n{n} den{den}": _disk_cloud(rng, n, den) for n, den in ((45, 5), (60, 6))})
    windows.update({f"lattice R{r} + (1/3, 1/7)": fc.generate(
        _LATTICE, r, fc.float_mode(_EPS)).translate(fc.ZPoint(1 / 3, 1 / 7)) for r in (8, 12)})
    windows["cells past the float range"] = fc.ZeroWindow.from_points(
        [fc.ZPoint(0.0, 0.0), fc.ZPoint(1e10, 0.0), fc.ZPoint(0.0, 1.0)], 2e10,
        fc.float_mode(1e-300))
    return windows


def _vector_inputs():
    """Float vectors (xs, ys) and an eps by name, for ``HolonomySet``
    against the references."""
    inputs = {}
    repeats = [(0.0, 3.0), (-0.0, 3.0), (0.0, -3.0), (-0.0, -3.0), (3.0, -0.0), (-3.0, 0.0),
               (1.5, 2.0), (1.5, 2.0), (-1.5, -2.0), (2.0, -1.5)]
    # (1000, y) for y below 1e-5 all round to norm2 1e6, x being equal
    rounded = [(1000.0, 2e-7), (1000.0, 1e-7), (1000.0, 3e-7), (1000.0, 1e-7), (-1000.0, -2e-7),
               (1000.0, 2.5e-7), (-1000.0, 1e-7), (0.0, 1000.0)]
    # a chain: each link within eps of the next, the two ends not
    chain = [(1.0 + 0.8 * k * _EPS, 2.0) for k in range(6)][::-1]
    # (1, 2) and (1 + 5e-301, 2) lie within eps = 1e-300 in finite cells,
    # 1e10 / 1e-300 is not finite
    past = [(1e10, 0.0), (1e10, 1e-300), (1.0, 2.0), (1.0 + 5e-301, 2.0), (0.0, 1.0)]
    for name, vecs, eps_list in (("repeats and signed zeros", repeats, (_EPS, 0.0)),
                                 ("distinct y at one norm2", rounded, (_EPS, 1e-6, 0.0)),
                                 ("chain", chain, (_EPS, 0.0)),
                                 ("cells past the float range", past, (1e-300,))):
        xs, ys = np.array(vecs).T
        inputs.update({f"{name}, eps {eps}": (xs, ys, eps) for eps in eps_list})
    t = np.arange(4000) * (2 * np.pi / 4000)
    for eps in (1e-9, 1e-3, 0.5):
        inputs[f"4000 on a circle, eps {eps}"] = (100 * np.cos(t), 100 * np.sin(t), eps)
        # far from the origin: nearly horizontal vectors
        inputs[f"4000 on a vertical line, eps {eps}"] = (
            np.full(4000, 1e4), (np.arange(4000) - 2000) * 0.25, eps)
    return inputs


def _as_grid(points):
    return tuple(np.array([getattr(p, c) for p in points], dtype=float) for c in ("re", "im"))


def _assert_builds_as_references(xs, ys, eps, got, monkeypatch):
    """``got``, a float holonomy grid of the vectors (xs, ys), equals the
    reference builder and the ``PointIndex`` loop byte for byte, and the
    near-duplicate search examines exactly the reference's candidates."""
    want, examined = _signed_distinct_reference(xs, ys, eps)
    assert [a.tobytes() for a in got[:2]] == [a.tobytes() for a in want[:2]]
    assert got[2:] == (None,)
    vectors = [fc.ZPoint(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    oracle = _as_grid(_float_holonomy_oracle(vectors, fc.float_mode(eps)))
    assert [a.tobytes() for a in got[:2]] == [a.tobytes() for a in oracle]
    flatgeom, counts = fc.flatgeom, []
    spans = flatgeom._spans
    monkeypatch.setattr(flatgeom, "_spans",
                        lambda lo, count: counts.append(int(count.sum())) or spans(lo, count))
    again = flatgeom._signed_distinct_float(xs, ys, eps)
    assert [a.tobytes() for a in again[:2]] == [a.tobytes() for a in got[:2]]
    assert sum(counts) == examined


@pytest.mark.parametrize("name", list(_holonomy_windows()))
def test_float_holonomy_grids_match_the_references(name, monkeypatch):
    w = _holonomy_windows()[name]
    ii, jj = fc.visible_pairs(w).T
    xs, ys = w.grid[:2]
    h = fc.holonomy(w)
    _assert_builds_as_references(xs[jj] - xs[ii], ys[jj] - ys[ii], w.mode.eps, h.grid, monkeypatch)


@pytest.mark.parametrize("name", list(_vector_inputs()))
def test_float_holonomy_sets_of_vectors_match_the_references(name, monkeypatch):
    xs, ys, eps = _vector_inputs()[name]
    vectors = [fc.ZPoint(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    h = fc.HolonomySet(vectors, 1e5, fc.float_mode(eps))
    _assert_builds_as_references(xs, ys, eps, h.grid, monkeypatch)


@pytest.mark.parametrize("name", ["float cloud 1", "disk n45 den5", "lattice R8 + (1/3, 1/7)",
                                  "float cloud 5"])
def test_float_joined_sets_match_the_references(name, monkeypatch):
    w = _holonomy_windows()[name]
    h, g = fc.holonomy(w, 3.0), fc.holonomy(w, 6.0)
    got = fc.flatgeom._joined(h, g)
    xs, ys = np.r_[g.grid[0], h.grid[0]], np.r_[g.grid[1], h.grid[1]]
    _assert_builds_as_references(xs, ys, w.mode.eps, got.grid, monkeypatch)
    assert got.restricted_to == 6.0 and got.complete_radius == g.complete_radius


def _sharing_a_hash(x, y):
    """A vector (x', y') != (x, y), near it, whose bits mix to the key of
    (x, y) in ``_signed_distinct_float``."""
    m0, m1 = (c % 2 ** 64 for c in fc.flatgeom._MIX)
    tx, ty = (int(np.float64(c).view(np.int64)) % 2 ** 64 for c in (x, y))
    mix = (tx * m0 + ty * m1) % 2 ** 64
    for step in range(1, 1 << 20):
        ty2 = (mix - (tx + step) * m0) * pow(m1, -1, 2 ** 64) % 2 ** 64
        x2, y2 = (float(np.int64(c - (c >> 63 << 64)).view(np.float64)) for c in (tx + step, ty2))
        if 0.5 * y < y2 < 2 * y:
            return x2, y2
    raise AssertionError("no vector shares the hash")


@pytest.mark.parametrize("eps", [_EPS, 0.0])
def test_float_holonomy_tells_apart_values_that_share_a_hash(eps, monkeypatch):
    x2, y2 = _sharing_a_hash(1.5, 2.0)
    assert (x2, y2) != (1.5, 2.0)
    vecs = [(1.5, 2.0), (x2, y2), (-1.5, -2.0), (x2, y2), (-x2, -y2), (3.0, 1.0), (1.5, 2.0)]
    xs, ys = np.array(vecs).T
    _assert_builds_as_references(xs, ys, eps, fc.flatgeom._signed_distinct_float(xs, ys, eps),
                                 monkeypatch)


def test_float_holonomy_of_a_zero_vector_raises():
    for eps in (_EPS, 0.0):
        with pytest.raises(ValueError, match="cannot contain 0"):
            fc.HolonomySet([fc.ZPoint(1.0, 2.0), fc.ZPoint(-0.0, 0.0)], 5, fc.float_mode(eps))


def test_has_holonomy_vector_agrees_with_enumeration(lattice5):
    h = fc.holonomy(lattice5)
    for v in h.vectors:
        assert fc.has_holonomy_vector(lattice5, v)
    assert not fc.has_holonomy_vector(lattice5, zp(2))  # blocked by midpoint
    assert not fc.has_holonomy_vector(lattice5, zp(0))
    assert not fc.has_holonomy_vector(lattice5, zp(Fraction(1, 2)))
    assert not fc.has_holonomy_vector(lattice5, zp(100))


def test_has_holonomy_vector_off_grid_denominators():
    big = 1 << 29
    w = _window([zp(0), zp(Fraction(1, big)), zp(1)], 2)
    assert fc.has_holonomy_vector(w, zp(Fraction(1, big)))
    assert not fc.has_holonomy_vector(w, zp(1))  # blocked by the tiny point
    half, one = zp(Fraction(1, 2), Fraction(1, 2)), zp(1, 1)
    for k, dtype in ((20, np.int64), (40, object)):
        # the tiny off-line point scales the grid by 2**k, so 1 + i is a
        # step of gcd 2**k
        tiny = zp(Fraction(1, 1 << k))
        assert fc.has_holonomy_vector(_window([zp(0), tiny, one], 2), one)
        w = _window([zp(0), half, one, tiny], 2)
        assert w.grid[0].dtype == dtype
        assert not fc.has_holonomy_vector(w, one)  # blocked by (1 + i)/2
        assert fc.has_holonomy_vector(w, half)
        h = fc.holonomy(w)
        diffs = {q - p for p in w.points for q in w.points if p != q}
        for v in diffs | {d.scale(c) for d in diffs for c in (2, Fraction(1, 2), 3)}:
            assert fc.has_holonomy_vector(w, v) == h.contains(v)


def test_float_witness_test_matches_the_point_loop():
    # the batched witness test decides each vector as the per-point loop
    # did, for vectors held, blocked, within eps of a difference, and past
    # 1e154, where a squared length would overflow
    for w in _float_clouds():
        eps = w.mode.eps
        diffs = list(dict.fromkeys(q - p for p in w.points[:12] for q in w.points if p != q))
        vs = diffs + [d.scale(2) for d in diffs[:40]] + [fc.ZPoint(d.re + eps / 3, d.im)
                                                        for d in diffs[:40]]
        vs += [fc.ZPoint(1e200, 0.0), fc.ZPoint(-3e160, 1.0), fc.ZPoint(0.0, 0.0)]
        want = [reference.has_holonomy_vector(w, v) for v in vs]
        assert [fc.has_holonomy_vector(w, v) for v in vs] == want
        vx, vy = (np.array([getattr(v, c) for v in vs[:-1]]) for c in ("re", "im"))
        assert fc.flatgeom._has_float_vectors(w, vx, vy).tolist() == want[:-1]
        assert any(want) and not all(want)


def test_holonomy_restriction_and_completeness(lattice5):
    h = fc.holonomy(lattice5, max_length=1.5)
    assert h.restricted_to == 1.5
    assert h.complete_radius == pytest.approx(3.5)
    for v in h.vectors:
        assert v.norm() <= 1.5 + 1e-9
    # beyond the restriction, membership falls back to the window oracle
    assert h.contains(zp(2, 1))
    assert not h.contains(zp(2))


@pytest.mark.parametrize("exact", [True, False])
def test_holonomy_set_reads_its_size_and_radius_off_the_grid(exact):
    # ``vectors`` are built on first read; until then len() and the default
    # complete_radius come from the grid, and agree with the vectors after
    mode = fc.EXACT if exact else fc.float_mode(1e-9)
    rng = random.Random(31)
    clouds = [[fc.ZPoint.of(p.re, p.im, mode) for p in _rational_cloud(rng, 20, den).points]
              for den in (3, 7, _BIG_DENS[0])]
    sets = [fc.HolonomySet(vecs, 30, mode) for vecs in clouds + [[]]]
    if exact:
        # an exact unrestricted enumeration takes the default radius too
        sets += [fc.holonomy(fc.generate(fc.GeneratorSpec("gaussian-lattice"), 6)),
                 fc.holonomy(fc.ZeroWindow.from_points(clouds[1], 20))]
    for h in sets:
        assert "vectors" not in h.__dict__
        n, radius = len(h), h.complete_radius
        longest = h.vectors[-1].norm() if h.vectors else 0.0
        assert (n, radius) == (len(h.vectors), max(0.0, h.window_radius - longest))


def test_holonomy_translation_invariance(integers10):
    rng = random.Random(31)
    base = {(v.re, v.im) for v in fc.holonomy(integers10).vectors}
    for _ in range(5):
        b = zp(rng.randint(-3, 3), rng.randint(-3, 3))
        moved = integers10.translate(b)
        assert {(v.re, v.im) for v in fc.holonomy(moved).vectors} == base


def test_holonomy_rotation_equivariance(lattice5):
    # exact rotation by the 3-4-5 unit rational point
    r = zp(Fraction(3, 5), Fraction(4, 5))
    rotated = fc.ZeroWindow.from_points(
        [fc.zseq.zmul(p, r) for p in lattice5.points], lattice5.radius)
    base = {(v.re, v.im) for v in fc.holonomy(lattice5).vectors}
    got = {(v.re, v.im) for v in fc.holonomy(rotated).vectors}
    assert got == {(q.re, q.im) for q in
                   (fc.zseq.zmul(fc.ZPoint(a, b), r) for a, b in base)}


# ---------------------------------------------------------------------------
# window membership: a bitmap over the box, sorted keys past its cap

_ORBIT_SPEC = fc.GeneratorSpec.orbit([(1, 0), (Fraction(63, 80), Fraction(-43, 80))],
                                     [(1, 1, 0, 1), (1, 0, 1, 1)], 4)


def _cap_box(cells):
    """Three points whose bounding box has ``cells`` cells: 2**22, the
    bitmap's cap, or one more."""
    width, height = {1 << 22: (2048, 2048), (1 << 22) + 1: (5, 838861)}[cells]
    return _window([zp(0), zp(1), zp(width - 1, height - 1)], width + height)


_MEMBER_WINDOWS = {
    **{name: make for name, make in _LOOKUP_WINDOWS.items() if "2**40" not in name},
    "orbit": lambda: fc.generate(_ORBIT_SPEC, 6),
    **{f"cloud {seed}": (lambda seed=seed: _perfbench_cloud(seed, 45, 5, 10))
       for seed in range(4)},
    "box at the cap": lambda: _cap_box(1 << 22),
}


def _bitmap_points(bitmap):
    """The points (xs, ys) marked in a ``flatgeom._Bitmap``."""
    at = np.flatnonzero(bitmap.member)
    return at // bitmap.height + bitmap.x0, at % bitmap.height + bitmap.y0


def _keys_of(bitmap):
    """The points of a ``flatgeom._Bitmap`` as ``flatgeom._SortedKeys``."""
    xs, ys = _bitmap_points(bitmap)
    span = int(max(np.abs(xs).max(), np.abs(ys).max()))
    return fc.flatgeom._SortedKeys(np.sort(fc.zseq._packed(xs, ys, span)[0]), span)


def _points_about(lo, hi, xs, ys, rng):
    """int64 points of the square [lo - 2, hi + 2]^2: all of them when there
    are few, else the points (xs, ys) and their neighbours and random ones;
    and points far outside it."""
    if (hi - lo + 5) ** 2 <= 1 << 15:
        side = np.arange(lo - 2, hi + 3)
        px, py = np.repeat(side, len(side)), np.tile(side, len(side))
    else:
        near = np.arange(-2, 3)
        ox, oy = np.repeat(near, 5), np.tile(near, 5)
        px = np.r_[np.repeat(xs, 25) + np.tile(ox, len(xs)), rng.integers(lo - 2, hi + 3, 1 << 14)]
        py = np.r_[np.repeat(ys, 25) + np.tile(oy, len(ys)), rng.integers(lo - 2, hi + 3, 1 << 14)]
    far = rng.integers(-(1 << 61), 1 << 61, size=(2, 64))
    return np.r_[px, far[0], lo - 1, hi + 1], np.r_[py, far[1], hi + 1, lo - 1]


@pytest.mark.parametrize("name", list(_MEMBER_WINDOWS))
def test_bitmap_and_keys_hold_the_same_points(name):
    """A window's bitmap and the sorted keys of its points find the same
    members, for int64 points in and around the box and far outside it,
    and for Python ints."""
    flatgeom = fc.flatgeom
    w = _MEMBER_WINDOWS[name]()
    xs, ys, _ = w.grid
    members = flatgeom._window_members(w)
    assert isinstance(members, flatgeom._Bitmap)
    assert members.member.size <= flatgeom._BITMAP_CELLS
    assert members.member.sum() == len(w)
    keys = _keys_of(members)
    assert np.array_equal(keys.keys, np.sort(fc.zseq._packed(xs, ys, keys.limit)[0]))
    rng = np.random.default_rng(len(w))
    lo, hi = int(min(xs.min(), ys.min())), int(max(xs.max(), ys.max()))
    px, py = _points_about(lo, hi, xs, ys, rng)
    got = members.contains(px, py)
    assert got.any() and not got.all()
    assert np.array_equal(got, keys.contains(px, py))
    # Python ints, some past int64, as images of the kernel's wide arithmetic
    ox, oy = px.astype(object), py.astype(object)
    ox[::7] += 1 << 70
    assert np.array_equal(members.contains(ox, oy), keys.contains(ox, oy))


def test_empty_sorted_keys_hold_nothing():
    flatgeom = fc.flatgeom
    for dtype in (np.int64, object):
        members = flatgeom._members(np.zeros(0, dtype), np.zeros(0, dtype))
        assert isinstance(members, flatgeom._SortedKeys)
        x = np.array([1, -1], dtype=dtype)
        assert members.contains(x, x).tolist() == [False, False]
        assert members.contains(x[:, None], x).tolist() == [[False, False]] * 2
    # an empty window has no holonomy vector
    assert not fc.has_holonomy_vector(fc.ZeroWindow([], 1), zp(1))


def test_bitmap_stops_at_its_cap():
    flatgeom = fc.flatgeom
    at_cap, over = _cap_box(1 << 22), _cap_box((1 << 22) + 1)
    assert flatgeom._members(*at_cap.grid[:2]).member.size == 1 << 22
    assert isinstance(flatgeom._window_members(over), flatgeom._SortedKeys)
    for w in (at_cap, over):
        diffs = {q - p for p in w.points for q in w.points if p != q}
        for v in diffs | {d.scale(2) for d in diffs} | {zp(1, 1), zp(2)}:
            assert fc.has_holonomy_vector(w, v) == (v in diffs)


def _decision_vectors(w, rng):
    """Grid vectors for ``_has_grid_vectors``: differences of window points
    and their multiples (g up to the span and past 2 span), steps off the
    window's own grid, and vectors just past its box."""
    xs, ys = (a.astype(object) for a in w.grid[:2])
    n = len(xs)
    i, j = rng.integers(0, n, size=(2, 300))
    k = rng.choice([1, 1, 2, 3, 5], 300)
    vx, vy = (xs[j] - xs[i]) * k, (ys[j] - ys[i]) * k
    off = rng.integers(-1, 2, size=(2, 60))
    span = int(max(abs(v) for v in (*xs, *ys)))
    width, height = int(max(xs) - min(xs)) + 1, int(max(ys) - min(ys)) + 1
    ex = [width, 0, width - 1, 2 * span + 1, 0, 1, 0]
    ey = [0, height, 1 - height, 0, -2 * span - 3, 0, 0]
    return np.r_[vx, vx[:60] + off[0], ex], np.r_[vy, vy[:60] + off[1], ey]


_DECISION_WINDOWS = {
    **{f"lattice R{r}": (lambda r=r: fc.generate(_LATTICE, r)) for r in (1, 2, 5, 9)},
    **{f"lattice R{r} + (1/3, 1/7)": (lambda r=r: fc.generate(_LATTICE, r).translate(
        zp(Fraction(1, 3), Fraction(1, 7)))) for r in (3, 8)},
    "lattice R4 + 2**40 (1 + i)": lambda: fc.generate(_LATTICE, 4).translate(
        zp(1 << 40, 1 << 40)),
    **{f"holed lattice R{r}, keep {keep}": (lambda r=r, keep=keep: _holed_lattice(r, r, keep))
       for r, keep in ((4, 0.5), (6, 0.8), (9, 0.9))},
    **{f"small box {seed}": (lambda seed=seed: _small_box(seed)) for seed in range(8)},
    "orbit": lambda: fc.generate(_ORBIT_SPEC, 6),
    "cloud": lambda: _perfbench_cloud(3, 45, 5, 10),
    "big-den cloud": lambda: _rational_cloud(random.Random(3), 24, _BIG_DENS[1]),
}


@pytest.mark.parametrize("name", list(_DECISION_WINDOWS))
def test_batched_decision_matches_each_vector_and_the_enumeration(name):
    """``_has_grid_vectors`` holds exactly the vectors ``holonomy``
    enumerates, and ``has_holonomy_vector`` decides each one as it does."""
    flatgeom = fc.flatgeom
    w = _DECISION_WINDOWS[name]()
    xs, ys, scale = w.grid
    vx, vy = _decision_vectors(w, np.random.default_rng(len(w)))
    if xs.dtype == np.int64:
        vx, vy = vx.astype(np.int64), vy.astype(np.int64)
    got = flatgeom._has_grid_vectors(w, vx, vy)
    h = fc.holonomy(w)
    assert h.grid[2] == scale
    listed = set(zip(*(a.tolist() for a in h.grid[:2])))
    pairs = list(zip(vx.tolist(), vy.tolist()))
    assert got.tolist() == [v in listed for v in pairs]
    assert got.tolist() == [fc.has_holonomy_vector(w, zp(Fraction(x, scale), Fraction(y, scale)))
                            for x, y in pairs]
    assert got.any() and not got.all()
    held = [v for v, ok in zip(pairs, got) if ok]
    if "+ (1/3, 1/7)" in name:
        # the window's grid is 21 times as fine as its points' lattice
        assert all(math.gcd(x, y) % 21 == 0 for x, y in held)
    if "holed" in name:
        # some held vectors step over a hole
        assert any(math.gcd(x, y) > 1 for x, y in held)


@pytest.mark.parametrize("name", list(_DECISION_WINDOWS))
def test_repeated_decisions_read_the_cached_box(name):
    """``_has_grid_vectors`` keeps the window's box and the gcd of its
    differences after its first call, and decides as the enumeration does
    on that call and on the next."""
    flatgeom = fc.flatgeom
    w = _DECISION_WINDOWS[name]()
    xs, ys, _ = w.grid
    vx, vy = _decision_vectors(w, np.random.default_rng(len(w) + 1))
    if xs.dtype == np.int64:
        vx, vy = vx.astype(np.int64), vy.astype(np.int64)
    listed = set(zip(*(a.tolist() for a in fc.holonomy(w).grid[:2])))
    want = [v in listed for v in zip(vx.tolist(), vy.tolist())]
    assert "box" not in w._cache
    assert flatgeom._has_grid_vectors(w, vx, vy).tolist() == want
    box = w._cache["box"]
    unit = math.gcd(*(int(v) for v in (*(xs - xs[0]), *(ys - ys[0]))))
    assert box == (*flatgeom._box(xs, ys), unit)
    assert flatgeom._has_grid_vectors(w, vx, vy).tolist() == want
    assert w._cache["box"] is box


# ---------------------------------------------------------------------------
# identity gate: pairs, segments and holonomy sets against per-pair references


def _pairs_by_nearest_direction(w, max_length):
    """Exact visibility one anchor at a time: j is visible from i when it is
    the nearest window point along its primitive direction."""
    xs, ys, scale = w.grid
    limit2 = None if max_length is None else math.floor((Fraction(max_length) * scale) ** 2)
    pairs = []
    for i in range(len(xs)):
        nearest = {}
        for j in range(len(xs)):
            dx, dy = int(xs[j] - xs[i]), int(ys[j] - ys[i])
            if j == i or (limit2 is not None and dx * dx + dy * dy > limit2):
                continue
            g = math.gcd(dx, dy)
            direction = (dx // g, dy // g)
            if direction not in nearest or g < nearest[direction][0]:
                nearest[direction] = (g, j)
        pairs += sorted((i, j) for _, j in nearest.values() if j > i)
    return pairs


def _segment_fields(w, pairs, m):
    """Each pair's segment fields from ``ZPoint`` arithmetic, floats as hex."""
    limit = float(w.radius) * (1 + 1e-12)
    reach = [(p - w.center).norm() for p in w.points]
    rows = []
    for i, j in pairs:
        v = w.points[j] - w.points[i]
        if not (v.im > 0 or (v.im == 0 and v.re > 0)):
            i, j, v = j, i, -v
        length = math.sqrt(float(v.norm2()))
        rows.append((i, j, repr(v), length.hex(), math.atan2(float(v.im), float(v.re)).hex(), m,
                     max(reach[i], reach[j]) + length > limit))
    return rows


def _near_limit_window():
    """An int64 window, scale 3, with coordinates near 2**27: squared
    lengths pass 2**53, where float64 division would round twice."""
    rng = random.Random(1)
    k = 1 << 27
    pts = [(0, 0)] + [(k - rng.randint(0, 1000), k - rng.randint(0, 1000)) for _ in range(6)] \
        + [(-k + rng.randint(0, 1000), rng.randint(-9, 9)) for _ in range(3)]
    return _window([zp(Fraction(x, 3), Fraction(y, 3)) for x, y in pts], k)


def _family(kind, radius):
    return lambda: fc.generate(fc.GeneratorSpec(kind), radius)


def _cloud(den, n, shift=None):
    def build():
        w = _rational_cloud(random.Random(den), n, den)
        return w if shift is None else w.translate(shift)
    return build


def _as_float(build):
    def floats():
        w = build()
        return fc.ZeroWindow.from_points([fc.ZPoint(float(p.re), float(p.im)) for p in w],
                                         w.radius, fc.float_mode(_EPS))
    return floats


_SHIFT = zp(Fraction(1, 3), Fraction(-2, 5))
_GATE = {
    "gaussian-lattice R7": _family("gaussian-lattice", 7),
    "gaussian-lattice R3": _family("gaussian-lattice", 3),
    "all-integers R20": _family("all-integers", 20),
    "odd4n13-all R30": _family("odd4n13-all", 30),
    "positive-integers R15": _family("positive-integers", 15),
    "integers-plus-minus-i R6": _family("integers-plus-minus-i", 6),
    **{f"1/{den} cloud translated": _cloud(den, 30, _SHIFT) for den in (3, 4, 6)},
    **{f"1/{den} cloud": _cloud(den, 25) for den in (7, *_BIG_DENS)},
    "int64 near 2**27": _near_limit_window,
    "float gaussian-lattice R7": _as_float(_family("gaussian-lattice", 7)),
    "float 1/6 cloud translated": _as_float(_cloud(6, 30, _SHIFT)),
    "float integers-plus-minus-i R6": _as_float(_family("integers-plus-minus-i", 6)),
}


@pytest.mark.parametrize("name", list(_GATE))
def test_visibility_holonomy_and_segments_equal_references(name):
    w = _GATE[name]()
    exact = w.mode.is_exact
    for length in (None, 2, 3.5):
        if exact:
            pairs = _pairs_by_nearest_direction(w, length)
        else:
            pairs = fc.visible_pairs_bruteforce(w)
            if length is not None:
                pairs = _restricted(w, pairs, length)
        assert pair_list(fc.visible_pairs(w, length)) == pairs
        got = [(s.from_idx, s.to_idx, repr(s.holonomy), s.length.hex(), s.direction.hex(),
                s.multiplicity, s.provisional) for s in fc.saddle_connections(w, 3, length)]
        assert got == _segment_fields(w, pairs, 3)
        if not exact:
            continue  # float holonomy sets have their own oracle above
        h = fc.holonomy(w, length)
        signed = {v for i, j in pairs for v in (w.points[j] - w.points[i],
                                                 w.points[i] - w.points[j])}
        want = sorted(signed, key=fc.zseq._canonical_key)
        assert h.vectors == tuple(want)
        longest = length if length is not None else max((v.norm() for v in want), default=0.0)
        assert h.complete_radius.hex() == max(0.0, float(w.radius) - float(longest)).hex()


def test_near_limit_window_needs_the_python_int_quotients():
    w = _near_limit_window()
    xs, ys, scale = w.grid
    assert xs.dtype == np.int64 and scale == 3
    # squared lengths past 2**53 round before float64 divides them, so a
    # float64 quotient misses some of the lengths the gate above checks
    segs = fc.saddle_connections(w, 2)
    assert any(math.sqrt(float(int(s.holonomy.norm2() * 9)) / 9.0) != s.length for s in segs)


# ---------------------------------------------------------------------------
# directions


def test_direction_profile_integers(integers10):
    prof = fc.direction_profile(fc.holonomy(integers10))
    assert prof.directions == [0.0, pytest.approx(math.pi)]
    assert prof.mean_gap == pytest.approx(math.pi)


def test_direction_profile_accumulation():
    w = fc.generate(fc.GeneratorSpec("integers-plus-minus-i"), 30)
    prof = fc.direction_profile(fc.holonomy(w))
    acc = sorted(prof.accumulation)
    assert len(acc) == 2
    assert acc[0] == pytest.approx(0.0, abs=1e-6)
    assert acc[1] == pytest.approx(math.pi, abs=1e-6)


def test_direction_profile_no_false_accumulation(lattice5):
    prof = fc.direction_profile(fc.holonomy(lattice5))
    assert prof.accumulation == []


# ---------------------------------------------------------------------------
# collinearity


def test_window_collinear(integers10, lattice5):
    assert fc.window_collinear(integers10)
    assert not fc.window_collinear(lattice5)


def test_collinear_iff_all_holonomy_parallel():
    rng = random.Random(53)
    for _ in range(40):
        if rng.random() < 0.5:
            # points on a random rational line
            d = zp(rng.randint(1, 3), rng.randint(-2, 2))
            pts = {zp(0)}
            while len(pts) < 5:
                k = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                pts.add(fc.ZPoint(d.re * k, d.im * k))
        else:
            pts = {zp(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(6)}
        pts = list(pts)
        w = fc.ZeroWindow.from_points(pts, 25)
        if len(w.points) < 2:
            continue
        h = fc.holonomy(w)
        parallel = fc.flatgeom.vectors_parallel(h.grid, w.mode)
        assert fc.window_collinear(w) == parallel
        floats = [fc.ZPoint(float(p.re), float(p.im)) for p in pts]
        assert fc.window_collinear(fc.ZeroWindow.from_points(floats, 25, fc.float_mode())) == parallel


def test_exact_point_index_is_built_on_first_query(lattice5):
    h = fc.holonomy(lattice5)
    assert "_lookup" not in h.__dict__  # enumeration alone builds no lookup
    assert h.contains(zp(1, 0)) and h.contains(zp(-2, 1))
    assert not h.contains(zp(2, 0)) and not h.contains(zp(0))
    assert "_lookup" in h.__dict__  # built by contains
