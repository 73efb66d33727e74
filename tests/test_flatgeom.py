import math
import random
from fractions import Fraction

import numpy as np
import pytest

import flatcurve as fc

from conftest import zp


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
            assert fc.visible_pairs(w) == fc.visible_pairs_bruteforce(w)
            if den in _BIG_DENS:
                assert fc.visible_pairs(w) == _pairs_is_visible_accepts(w)


@pytest.mark.parametrize("radius", [2, 3.5, 5])
def test_visible_pairs_matches_bruteforce_lattice(radius):
    w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), radius)
    assert fc.visible_pairs(w) == fc.visible_pairs_bruteforce(w)


def test_restricted_visible_pairs_match_short_bruteforce_pairs():
    rng = random.Random(41)
    for den in (*range(2, 8), *_BIG_DENS):
        w = _rational_cloud(rng, 30, den)
        full = fc.visible_pairs_bruteforce(w)
        # each length is that of some visible pair in some of these clouds
        for length in (0.5, 1, 2.5, 4):
            want = [(i, j) for i, j in full
                    if (w.points[j] - w.points[i]).norm2() <= Fraction(length) ** 2]
            assert fc.visible_pairs(w, max_length=length) == want


def test_visible_pairs_matches_bruteforce_float():
    rng = random.Random(29)
    mode = fc.float_mode(1e-9)
    for _ in range(10):
        pts = [fc.ZPoint(rng.uniform(-5, 5), rng.uniform(-5, 5))
               for _ in range(rng.randint(3, 30))]
        w = fc.ZeroWindow.from_points(pts, 8, mode)
        assert set(fc.visible_pairs(w)) == set(fc.visible_pairs_bruteforce(w))


_EPS = 1e-9


def _float_window(points, radius=12):
    return fc.ZeroWindow.from_points([fc.ZPoint(*p) for p in points], radius,
                                     fc.float_mode(_EPS))


def _adversarial_clouds():
    """Float clouds at the edges of the eps-tube rule, by name."""
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
    return clouds


@pytest.mark.parametrize("name", list(_adversarial_clouds()))
def test_float_visible_pairs_match_bruteforce_on_adversarial_clouds(name):
    w = _float_window(_adversarial_clouds()[name])
    full = fc.visible_pairs_bruteforce(w)
    assert fc.visible_pairs(w) == full
    xs, ys = w.grid[:2]
    for length in (1.5, 2.5):
        want = [(i, j) for i, j in full
                if (xs[j] - xs[i]) ** 2 + (ys[j] - ys[i]) ** 2 <= length ** 2 * (1 + 1e-12)]
        assert fc.visible_pairs(w, max_length=length) == want


def test_float_middle_point_blocks_within_the_tube_only():
    for k, blocked in ((0.5, True), (2, False)):
        w = _float_window(_adversarial_clouds()[f"middle off the line by {k} eps"])
        ends = (w.points.index(fc.ZPoint(0.0, 0.0)), w.points.index(fc.ZPoint(2.0, 0.0)))
        assert (tuple(sorted(ends)) in fc.visible_pairs(w)) is not blocked


def test_float_straight_left_points_block_across_pi():
    w = _float_window(_adversarial_clouds()["straight left, +0.0 then -0.0"])
    origin, far = w.points.index(fc.ZPoint(0.0, 0.0)), w.points.index(fc.ZPoint(-2.0, -0.0))
    assert tuple(sorted((origin, far))) not in fc.visible_pairs(w)


@pytest.mark.parametrize("radius", [5, 8])
def test_float_lattice_pairs_equal_exact_pairs(radius):
    spec = fc.GeneratorSpec("gaussian-lattice")
    exact, floats = fc.generate(spec, radius), fc.generate(spec, radius, fc.float_mode(_EPS))
    for length in (None, 1.5, 2.5):
        assert fc.visible_pairs(floats, length) == fc.visible_pairs(exact, length)


def test_visible_pairs_max_length_filter(lattice5):
    short = set(fc.visible_pairs(lattice5, max_length=1.0))
    everything = set(fc.visible_pairs(lattice5))
    assert short < everything
    for i, j in short:
        assert (lattice5.points[j] - lattice5.points[i]).norm() <= 1.0 + 1e-12
    # the filtered set is exactly the length-restricted subset
    manual = {(i, j) for i, j in everything
              if (lattice5.points[j] - lattice5.points[i]).norm2() <= 1}
    assert short == manual


def test_visible_pairs_length_boundary_is_inclusive():
    w = _window([zp(0), zp(1), zp(0, 1)], 2)
    pairs = fc.visible_pairs(w, max_length=1.0)
    assert (0, 1) in pairs and (0, 2) in pairs
    # sqrt(2) pair excluded at max_length 1
    assert (1, 2) not in pairs
    assert (1, 2) in fc.visible_pairs(w, max_length=math.sqrt(2) + 1e-9)


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
            pairs = fc.visible_pairs(w, max_length=length)
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
    xs, ys, _, _ = fc.zseq.coordinate_grid(signed, mode)
    index, kept = fc.PointIndex((), mode), []
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
    index = fc.PointIndex(kept, h.mode)
    assert [h.contains(p) for p in probes] == [not p.is_zero() and p in index for p in probes]


def test_float_holonomy_sets_match_the_point_index_loop():
    for w in _float_clouds():
        mode = w.mode
        vecs = [w.points[j] - w.points[i] for i, j in fc.visible_pairs(w)]
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
    assert h._index is not None


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


def test_holonomy_restriction_and_completeness(lattice5):
    h = fc.holonomy(lattice5, max_length=1.5)
    assert h.restricted_to == 1.5
    assert h.complete_radius == pytest.approx(3.5)
    for v in h.vectors:
        assert v.norm() <= 1.5 + 1e-9
    # beyond the restriction, membership falls back to the window oracle
    assert h.contains(zp(2, 1))
    assert not h.contains(zp(2))


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
        parallel = fc.flatgeom.vectors_parallel(list(h.vectors), w.mode)
        assert fc.window_collinear(w) == parallel
        floats = [fc.ZPoint(float(p.re), float(p.im)) for p in pts]
        assert fc.window_collinear(fc.ZeroWindow.from_points(floats, 25, fc.float_mode())) == parallel


def test_exact_point_index_is_built_on_first_query(lattice5):
    h = fc.holonomy(lattice5)
    assert h._index is None  # enumeration alone builds no Fraction index
    assert h.contains(zp(1, 0)) and h.contains(zp(-2, 1))
    assert not h.contains(zp(2, 0)) and not h.contains(zp(0))
    assert h._index is not None
