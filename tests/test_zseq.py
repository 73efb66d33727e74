import functools
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import flatcurve as fc
from flatcurve import zseq
from flatcurve.zseq import compare_canonical, coordinate_grid, same_point

from conftest import zp
from test_flatgeom import _BIG_DENS

_FLOAT = fc.float_mode(1e-9)
_FAMILIES = ("positive-integers", "all-integers", "odd4n13-positive", "odd4n13-all",
             "gaussian-lattice", "integers-plus-minus-i")


def _shuffled_cloud(rng, n, den, mode):
    pts = {}
    while len(pts) < n:
        p = zp(Fraction(rng.randint(-12, 12), rng.choice((1, den))),
               Fraction(rng.randint(-12, 12), rng.choice((1, den))))
        pts[(p.re, p.im)] = p
    pts = list(pts.values())
    rng.shuffle(pts)
    if not mode.is_exact:
        pts = [fc.ZPoint(float(p.re), float(p.im)) for p in pts]
    return pts


# exact clouds up to the int64-overflowing denominators; float clouds whose
# points stay eps-apart
_CLOUDS = [(den, fc.EXACT) for den in (*range(1, 8), 32749, *_BIG_DENS)] + \
    [(den, _FLOAT) for den in (*range(1, 8), 32749)]


def _by_comparator(points):
    return sorted(points, key=functools.cmp_to_key(compare_canonical))


def _assert_grid_of_points(w):
    """``w.grid`` is the grid ``coordinate_grid`` builds from ``w.points``:
    values, dtype and scale."""
    xs, ys, scale = w.grid
    want_xs, want_ys, want_scale = coordinate_grid(w.points, w.mode)
    assert (xs.dtype, scale) == (want_xs.dtype, want_scale)
    assert (xs.tolist(), ys.tolist()) == (want_xs.tolist(), want_ys.tolist())


# ---------------------------------------------------------------------------
# points


def test_zpoint_is_an_immutable_value_record():
    p, q = zp(Fraction(1, 2)), zp("1/2")
    assert repr(p) == "ZPoint(re=Fraction(1, 2), im=Fraction(0, 1))"
    assert repr(fc.ZPoint(-0.0, 1.5)) == "ZPoint(re=-0.0, im=1.5)"
    assert p == q and hash(p) == hash(q) and p is not q
    assert p != zp(Fraction(1, 2), 1) and len({p, q, zp(0)}) == 2
    with pytest.raises(AttributeError):
        p.re = Fraction(1)
    with pytest.raises(AttributeError):
        p.extra = 1
    # a point is the tuple (re, im): it equals it, unpacks and orders as it
    assert p == (Fraction(1, 2), Fraction(0))
    x, y = p
    assert (x, y) == (p.re, p.im)
    assert sorted([zp(1), zp(0, 1), zp(0)]) == [zp(0), zp(0, 1), zp(1)]


@pytest.mark.parametrize("product", [lambda p: 2 * p, lambda p: p * 2, lambda p: p * p])
def test_zpoint_refuses_multiplication(product):
    # a tuple would repeat itself
    with pytest.raises(TypeError):
        product(zp(1, 2))


def test_zpoint_arithmetic_is_complex():
    p, q = zp(1, 2), zp(Fraction(1, 2), -1)
    assert p + q == zp(Fraction(3, 2), 1) and type(p + q) is fc.ZPoint
    assert p - q == zp(Fraction(1, 2), 3) and -p == zp(-1, -2)
    assert p.scale(3) == zp(3, 6)


def test_errors_quote_the_point_repr():
    h = Fraction(1, 2)
    quoted = re.escape("ZPoint(re=Fraction(1, 2), im=Fraction(0, 1))")
    with pytest.raises(fc.DuplicatePoint, match=f"^repeated point {quoted}$"):
        fc.ZeroWindow.from_points([zp(h), zp(0), zp(h)], 1)
    with pytest.raises(ValueError, match=f"^point {quoted} outside sampling radius 1/4$"):
        fc.ZeroWindow.from_points([zp(0), zp(h)], Fraction(1, 4))


def test_float_grid_reads_each_coordinate_as_float_does():
    # Python floats of both zero signs, Fractions, and ints past 2**53 (ties
    # round to even) and past int64
    pts = [fc.ZPoint(-0.0, 0.0), fc.ZPoint(0.1, -0.0), fc.ZPoint(Fraction(1, 3), Fraction(-2, 7)),
           fc.ZPoint(2 ** 53 + 1, -(2 ** 53 + 3)),
           fc.ZPoint(2 ** 70 + 2 ** 17 + 1, -(10 ** 30 + 1))]
    xs, ys, scale = coordinate_grid(pts, _FLOAT)
    assert (scale, xs.dtype, ys.dtype) == (None, np.float64, np.float64)
    assert [x.hex() for x in xs.tolist()] == [float(p.re).hex() for p in pts]
    assert [y.hex() for y in ys.tolist()] == [float(p.im).hex() for p in pts]
    xs, ys, _ = coordinate_grid([], _FLOAT)
    assert (xs.shape, ys.shape, xs.dtype, ys.dtype) == ((0,), (0,), np.float64, np.float64)


# ---------------------------------------------------------------------------
# canonical order


@pytest.mark.parametrize("bound", [1, 3, (1 << 28) + 5, (1 << 30) - 1, 1 << 30, 1 << 40])
def test_packed_keys_sort_negate_and_subtract_as_their_points(bound):
    """The one packing: keys sort as their points sort by (x, y), and keys,
    their negatives and their differences unpack to the points, negatives
    and differences; keys are int64 exactly while they stay below 2**62."""
    rng = np.random.default_rng(bound % 1000)
    xs, ys = (np.r_[rng.integers(-bound, bound + 1, 300), -bound, bound, 0, -bound, bound]
              for _ in range(2))
    keys, shift = zseq._packed(xs, ys, bound)
    assert keys.dtype == (np.int64 if bound < 1 << 30 else object)
    assert np.array_equal(np.argsort(keys, kind="stable"), np.lexsort((ys, xs)))
    for k, (x, y) in ((keys, (xs, ys)), (-keys, (-xs, -ys)),
                      (keys[1:] - keys[:-1], (xs[1:] - xs[:-1], ys[1:] - ys[:-1]))):
        got = zseq._unpacked(k, shift)
        assert [a.tolist() for a in got] == [x.tolist(), y.tolist()]


def test_canonical_order_norm_then_argument():
    # ties in norm break by upper-half-plane first, then by angle
    pts = [zp(0, 1), zp(1), zp(-1)]
    assert fc.canonical_order(pts, fc.EXACT) == [zp(1), zp(0, 1), zp(-1)]


def test_canonical_order_origin_first():
    assert fc.canonical_order([zp(0), zp(3), zp(-2)], fc.EXACT) == [
        zp(0), zp(-2), zp(3)]


def test_canonical_order_mixed_complex():
    assert fc.canonical_order([zp(1, 1), zp(2), zp(0, 1)], fc.EXACT) == [
        zp(0, 1), zp(1, 1), zp(2)]


def test_canonical_order_rejects_duplicates():
    with pytest.raises(fc.DuplicatePoint):
        fc.canonical_order([zp(1), zp(1)], fc.EXACT)


def test_compare_canonical_is_a_total_order():
    rng = random.Random(11)
    pts = [zp(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
              Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
           for _ in range(60)]
    # antisymmetry + transitivity spot check through sorted consistency
    ordered = fc.canonical_order(list({(p.re, p.im): p for p in pts}.values()),
                                 fc.EXACT)
    for a, b in zip(ordered, ordered[1:]):
        assert compare_canonical(a, b) < 0
        assert compare_canonical(b, a) > 0


def _cross_compare(p, q):
    """The cross-product comparator the sort key replaced, kept as oracle."""
    np_, nq = p.norm2(), q.norm2()
    if np_ != nq:
        return -1 if np_ < nq else 1
    if np_ == 0:
        return 0
    hp, hq = fc.zseq._arg_half(p), fc.zseq._arg_half(q)
    if hp != hq:
        return -1 if hp < hq else 1
    c = fc.zseq.cross(p, q)
    return 0 if c == 0 else (-1 if c > 0 else 1)


def test_canonical_key_sorts_like_cross_product_comparator():
    rng = random.Random(13)
    ties = [(5, 0), (3, 4), (4, 3), (0, 5), (-3, 4), (-4, 3), (0, 0), (1, 7), (5, 5)]
    ties += [(-a, -b) for a, b in ties]
    for _ in range(30):
        s = rng.choice((1, 2, 3, Fraction(1, 2), Fraction(2, 7)))
        pts = [zp(a * s, b * s) for a, b in rng.sample(ties, rng.randint(2, len(ties)))]
        pts += [zp(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                   Fraction(rng.randint(-9, 9), rng.randint(1, 4))) for _ in range(10)]
        rng.shuffle(pts)
        want = sorted(pts, key=functools.cmp_to_key(_cross_compare))
        assert sorted(pts, key=fc.zseq._canonical_key) == want
        for a, b in zip(pts, pts[1:]):
            assert compare_canonical(a, b) == _cross_compare(a, b)


def test_every_constructor_orders_like_compare_canonical():
    rng = random.Random(61)
    for den, mode in _CLOUDS:
        pts = _shuffled_cloud(rng, 40, den, mode)
        want = _by_comparator(pts)
        assert fc.canonical_order(pts, mode) == want
        w = fc.ZeroWindow.from_points(pts, 20, mode)
        assert list(w.points) == want
        b = fc.ZPoint.of(Fraction(1, 3), Fraction(-2, 7), mode)
        moved = w.translate(b)
        assert list(moved.points) == _by_comparator([p + b for p in pts])
        shift = -moved.points[0]
        canon = moved.canonicalize()
        assert list(canon.points) == _by_comparator([p + shift for p in moved.points])
        data = fc.window_to_json(moved)
        rng.shuffle(data["points"])
        back = fc.window_from_json(data, eps=mode.eps)
        assert back.points == moved.points
        checked = fc.ZeroWindow(want, 20, mode)
        for v in (w, moved, canon, back, moved.head(len(pts) // 2), checked):
            _assert_grid_of_points(v)


def test_translate_reduces_and_retypes_the_grid():
    half = Fraction(1, 2)
    w = fc.ZeroWindow.from_points([zp(half), zp(3 * half)], 2).translate(zp(half))
    assert w.points == (zp(1), zp(2)) and w.grid[2] == 1
    far = zp(1 << 28, Fraction(1, 3))
    moved = w.translate(far)
    back = moved.translate(-far)
    assert moved.grid[0].dtype == object and back.grid[0].dtype == np.int64
    for v in (w, moved, back):
        _assert_grid_of_points(v)
        _assert_grid_of_points(v.canonicalize())


@pytest.mark.parametrize("mode", [fc.EXACT, _FLOAT], ids=["exact", "float"])
def test_generated_windows_order_like_compare_canonical(mode):
    orbit = fc.GeneratorSpec.orbit([(1, 0), (Fraction(1, 4), Fraction(1, 2))],
                                   [(1, 1, 0, 1), (1, 0, 1, 1)], 3)
    explicit = fc.GeneratorSpec.explicit([(Fraction(1, 2), 0), (Fraction(3, 2), Fraction(1, 3)),
                                          (-2, 1)])
    for spec in [fc.GeneratorSpec(kind) for kind in _FAMILIES] + [orbit, explicit]:
        w = fc.generate(spec, 7.5, mode)
        _assert_grid_of_points(w)
        assert list(w.points) == _by_comparator(w.points)
        shifted = [p + w.translation for p in _by_comparator(w.raw_points())]
        assert list(w.points) == _by_comparator(shifted)
        assert w.points[0].is_zero() and fc.validate(w).valid


def test_checked_constructor_rejects_disorder_and_repeats():
    for mode in (fc.EXACT, _FLOAT):
        pts = fc.canonical_order(
            [fc.ZPoint.of(a, b, mode) for a, b in ((0, 0), (1, 0), (0, 1), (2, 1))], mode)
        assert fc.ZeroWindow(pts, 5, mode).points == tuple(pts)
        with pytest.raises(ValueError, match="canonical order"):
            fc.ZeroWindow(pts[::-1], 5, mode)
        with pytest.raises(fc.DuplicatePoint):
            fc.ZeroWindow([pts[0], pts[1], pts[1], pts[2]], 5, mode)
    with pytest.raises(fc.DuplicatePoint):
        fc.ZeroWindow([fc.ZPoint(1.0, 0.0), fc.ZPoint(1.0 + 1e-12, 0.0)], 5, _FLOAT)


# ---------------------------------------------------------------------------
# generation


def test_positive_integers_window():
    w = fc.generate(fc.GeneratorSpec("positive-integers"), 4.5)
    assert [p for p in w.points] == [zp(0), zp(1), zp(2), zp(3)]
    assert w.translation == zp(-1)
    assert w.center == zp(-1)


def test_all_integers_window_keeps_origin_shift_free():
    w = fc.generate(fc.GeneratorSpec("all-integers"), 3)
    assert w.translation == zp(0)
    assert set(w.points) == {zp(k) for k in range(-3, 4)}


def test_gaussian_lattice_small():
    w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), 1.5)
    assert len(w.points) == 9
    assert zp(1, 1) in w.index()
    assert zp(-1, -1) in w.index()


def test_odd_families():
    # positive variant starts at 5 (4n+1, 4n+3 with n >= 1)
    wp = fc.generate(fc.GeneratorSpec("odd4n13-positive"), 12)
    raw = sorted(int(p.re - p.im) for p in wp.raw_points())
    assert raw == [5, 7, 9, 11]
    # two-sided variant covers every odd integer
    wa = fc.generate(fc.GeneratorSpec("odd4n13-all"), 6)
    raw = sorted(int(p.re) for p in wa.raw_points())
    assert raw == [-5, -3, -1, 1, 3, 5]


def test_integers_plus_minus_i():
    w = fc.generate(fc.GeneratorSpec("integers-plus-minus-i"), 2.5)
    assert zp(0, -1) in w.index()
    assert len(w.points) == 6


def test_hard_radius_cutoff_is_exact():
    # norm exactly R stays, epsilon over goes
    w = fc.generate(fc.GeneratorSpec("positive-integers"), 3)
    assert len(w.raw_points()) == 3
    w = fc.generate(fc.GeneratorSpec("positive-integers"), Fraction(299, 100))
    assert len(w.raw_points()) == 2


def test_empty_window_raises():
    with pytest.raises(fc.EmptyWindow):
        fc.generate(fc.GeneratorSpec("positive-integers"), 0.5)


def test_explicit_spec():
    spec = fc.GeneratorSpec.explicit([zp(2), zp(-1, 1)])
    w = fc.generate(spec, 5)
    assert len(w.points) == 2
    assert w.points[0].is_zero()


def test_orbit_spec_small():
    # one rotation sweeping a seed point; orbit stays in the ball
    spec = fc.GeneratorSpec.orbit(
        k_points=[zp(1)],
        generators=[(Fraction(0), Fraction(-1), Fraction(1), Fraction(0))],
        max_word_length=6)
    w = fc.generate(spec, 2)
    raw = {(p.re, p.im) for p in w.raw_points()}
    assert {(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
            (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1))} <= raw


def test_float_orbit_keeps_one_copy_of_each_rounded_image():
    # two words reach (63/80 + 1, ...) by different float roundings
    spec = fc.GeneratorSpec.orbit(
        [(1, 0), (Fraction(63, 80), Fraction(-43, 80))],
        [(1, 1, 0, 1), (1, 0, 1, 1)], 3)
    mode = fc.float_mode(1e-9)
    exact = fc.generate(spec, 6)
    approx = fc.generate(spec, 6, mode)
    for p in approx.points:
        assert sum(same_point(p, q, mode) for q in exact.points) == 1
    assert len(approx) == len(exact)


def test_orbit_rejects_contracting_generator():
    spec = fc.GeneratorSpec.orbit(
        k_points=[zp(1)],
        generators=[(Fraction(1, 2), Fraction(0), Fraction(0), Fraction(1, 2))],
        max_word_length=3)
    with pytest.raises(fc.ContractingGenerator):
        fc.generate(spec, 2)


def test_orbit_errors_name_the_generator_rows():
    half = Fraction(1, 2)
    spec = fc.GeneratorSpec.orbit([zp(1)], [(1, 1, 0, 1), (half, 0, 0, half)], 3)
    with pytest.raises(fc.ContractingGenerator) as err:
        fc.generate(spec, 2)
    rows = ((half, Fraction(0)), (Fraction(0), half))
    assert str(err.value) == f"generator {rows} is contracting"
    with pytest.raises(fc.SingularMatrix, match="contraction test needs an invertible matrix"):
        fc.generate(fc.GeneratorSpec.orbit([zp(1)], [(1, 2, 2, 4)], 3), 2, _FLOAT)


def _sweep_as_loop(spec, radius):
    """The exact orbit sweep, checked against the point loop: the same points
    in the same order, and the same generated window."""
    args = (*zseq._orbit_alphabet(spec, fc.EXACT), spec.params["max_word_length"], radius)
    xs, ys, scale = zseq._orbit_sweep(*args)
    pts = zseq._orbit_loop(*args, fc.EXACT)
    assert zseq.grid_points(xs, ys, scale) == pts
    got = fc.generate(spec, radius)
    want = fc.generate(fc.GeneratorSpec.explicit(pts), radius)
    gx, gy, gscale = got.grid
    wx, wy, wscale = want.grid
    assert (gx.dtype, gx.tolist(), gy.tolist(), gscale) == \
        (wx.dtype, wx.tolist(), wy.tolist(), wscale)
    assert repr((got.radius, got.center, got.translation, got.points)) == \
        repr((want.radius, want.center, want.translation, want.points))
    return xs, scale


# The dihedral symmetries of the square, each conjugating the generator pair
# [[1, 1], [0, 1]], [[1, 0], [1, 1]] into itself or its inverses
_DIHEDRAL = ((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
             (0, 1, 1, 0), (1, 0, 0, -1), (0, -1, -1, 0), (-1, 0, 0, 1))


@pytest.mark.parametrize("g", _DIHEDRAL)
def test_orbit_sweep_matches_loop_on_dihedral_copies(g):
    a, b, c, d = g
    seeds = [(a * x + b * y, c * x + d * y)
             for x, y in ((1, 0), (Fraction(63, 80), Fraction(-43, 80)))]
    for depth in (0, 1, 4):
        _sweep_as_loop(fc.GeneratorSpec.orbit(seeds, [(1, 1, 0, 1), (1, 0, 1, 1)], depth), 6)


def test_orbit_sweep_matches_loop_with_rational_generators():
    half, third = Fraction(1, 2), Fraction(1, 3)
    spec = fc.GeneratorSpec.orbit([(1, 0), (third, half)], [(1, half, 0, 1), (1, 0, third, 1)], 5)
    _, scale = _sweep_as_loop(spec, 5)
    assert scale == 6 * 6 ** 5  # the seeds' 6, then D = 6 per depth
    _sweep_as_loop(fc.GeneratorSpec.orbit([(1, 0)], [(1, half, 0, 1)], 6), 4)


def test_orbit_sweep_matches_loop_on_seeds_outside_the_ball():
    spec = fc.GeneratorSpec.orbit([(10, 0), (1, 1), (1, 1), (0, 0)], [(1, 1, 0, 1)], 3)
    xs, _ = _sweep_as_loop(spec, 5)
    assert 10 not in xs.tolist()
    spec = fc.GeneratorSpec.orbit([(10, 0)], [(1, 1, 0, 1)], 3)
    with pytest.raises(fc.EmptyWindow):
        fc.generate(spec, 5)


def test_orbit_sweep_matches_loop_past_the_int64_grid():
    # the grid grows 128000 times finer per depth: the images of depth 2
    # pass 2**28 while the points kept at depth 1 are still below it, and
    # [[2, 1], [1, 1]] sends some of them out of the ball
    spec = fc.GeneratorSpec.orbit([(1, 0), (Fraction(1, 7), Fraction(2, 9))],
                                  [(1, Fraction(1, 1024), 0, 1), (1, 0, Fraction(3, 1000), 1),
                                   (2, 1, 1, 1)], 3)
    xs, _ = _sweep_as_loop(spec, 3)
    assert xs.dtype == object
    # integer coordinates past 2**28 from the start
    spec = fc.GeneratorSpec.orbit([(2 ** 30, 1), (3, 2 ** 29)], [(1, 1, 0, 1), (1, 0, 1, 1)], 5)
    xs, _ = _sweep_as_loop(spec, 2 ** 32)
    assert xs.dtype == object


def test_orbit_sweep_keeps_the_generator_errors():
    half = Fraction(1, 2)
    rows = ((half, Fraction(0)), (Fraction(0), half))
    with pytest.raises(fc.ContractingGenerator, match=re.escape(f"generator {rows} is contracting")):
        fc.generate(fc.GeneratorSpec.orbit([zp(1)], [(1, 1, 0, 1), (half, 0, 0, half)], 3), 2)
    with pytest.raises(fc.SingularMatrix, match="contraction test needs an invertible matrix"):
        fc.generate(fc.GeneratorSpec.orbit([zp(1)], [(1, 2, 2, 4)], 3), 2)


def test_orbit_window_loads_no_search_module():
    # the sweep multiplies plain (a, b, c, d) tuples, so a fresh interpreter
    # that generates an orbit window never imports veech or flatgeom
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = ("import json, sys; import flatcurve as fc; "
            "spec = fc.GeneratorSpec.orbit([(1, 0)], [(1, 1, 0, 1), (1, 0, 1, 1)], 3); "
            "print(len(fc.generate(spec, 5)), len(fc.generate(spec, 5, fc.float_mode()))); "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('flatcurve'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, check=True)
    sizes, loaded = proc.stdout.splitlines()
    assert sizes.split()[0] == sizes.split()[1] != "0"
    assert "flatcurve.zseq" in json.loads(loaded)
    assert {"flatcurve.veech", "flatcurve.flatgeom"}.isdisjoint(json.loads(loaded))


# ---------------------------------------------------------------------------
# window methods


def test_head_prefix(integers10):
    h = integers10.head(5)
    assert h.points == integers10.points[:5]
    assert h.radius == integers10.radius
    with pytest.raises(ValueError):
        integers10.head(0)


def test_translate_moves_points_and_region_together(integers10):
    rng = random.Random(5)
    for _ in range(20):
        b = zp(rng.randint(-4, 4), rng.randint(-4, 4))
        moved = integers10.translate(b)
        assert set(moved.points) == {p + b for p in integers10.points}
        assert moved.center == integers10.center + b
        assert fc.validate(moved).valid
        assert moved.canonicalize().points[0].is_zero()


def test_min_gap(lattice5):
    assert lattice5.min_gap() == pytest.approx(1.0)


def test_min_gap_matches_pairwise_bruteforce():
    rng = random.Random(67)
    for den, mode in _CLOUDS:
        w = fc.ZeroWindow.from_points(_shuffled_cloud(rng, 30, den, mode), 20, mode)
        pts = w.points
        want = min((pts[i] - pts[j]).norm()
                   for i in range(len(pts)) for j in range(i + 1, len(pts)))
        assert w.min_gap() == want
    assert fc.ZeroWindow.from_points([zp(1, 2)], 3).min_gap() == math.inf


def _all_pairs_gap(w):
    """The smallest squared grid distance over every pair, rounded as
    ``min_gap`` rounds it."""
    xs, ys, scale = w.grid
    d = min(((xs[i] - xs[j]) ** 2 + (ys[i] - ys[j]) ** 2
             for i in range(len(xs)) for j in range(i + 1, len(xs))), default=math.inf)
    return math.sqrt(d if scale is None or d == math.inf else int(d) / (scale * scale))


def _line_gaps(rng):
    """Windows on vertical, horizontal and diagonal lines, and random
    clouds, exact and float."""
    steps = [rng.randint(1, 9) for _ in range(120)]
    run = [sum(steps[:k]) for k in range(len(steps))]
    lines = [[(3, t) for t in run], [(t, -2) for t in run], [(t, t) for t in run],
             [(t, 7 - t) for t in run]]
    out = []
    for mode in (fc.EXACT, _FLOAT):
        for pts in lines:
            out.append(fc.ZeroWindow.from_points([fc.ZPoint.of(x, y, mode) for x, y in pts],
                                                 3 * run[-1], mode))
        for _ in range(4):
            pts = {(rng.randint(-60, 60), rng.randint(-25, 25)) for _ in range(100)}
            out.append(fc.ZeroWindow.from_points([fc.ZPoint.of(Fraction(x, 3), y, mode)
                                                  for x, y in pts], 80, mode))
    return out


def test_min_gap_equals_all_pairs_on_every_grid_kind():
    rng = random.Random(71)
    far = 1 << 29  # past the int64 coordinate limit: a Python-int grid
    windows = [
        fc.generate(fc.GeneratorSpec("gaussian-lattice"), 6),
        fc.generate(fc.GeneratorSpec("gaussian-lattice"), 6, _FLOAT),
        fc.generate(fc.GeneratorSpec("odd4n13-all"), 40),
        fc.ZeroWindow.from_points([zp(far + x, y) for x, y in {(rng.randint(-9, 9), rng.randint(-9, 9))
                                                               for _ in range(40)}]
                                  + [zp(Fraction(1, 3), 0)], 2 * far),
        fc.ZeroWindow.from_points([fc.ZPoint(rng.uniform(-5, 5), rng.uniform(-5, 5))
                                   for _ in range(60)], 8, _FLOAT),
        # a vertical line, swept along y
        fc.ZeroWindow.from_points([zp(Fraction(1, 2), Fraction(k * k - 40, 7)) for k in range(19)], 60),
        fc.ZeroWindow.from_points([fc.ZPoint(3.0, k * 0.37 + 0.01 * k * k) for k in range(25)], 60, _FLOAT),
        *_line_gaps(rng),
    ]
    kinds = set()
    for w in windows:
        assert w.min_gap() == _all_pairs_gap(w)
        kinds.add(w.grid[0].dtype.kind)
    assert kinds == {"i", "O", "f"}


def test_min_gap_of_tiny_windows():
    # the constructors refuse an empty window; build one on its grid
    empty = np.zeros(0, dtype=np.int64)
    assert zseq.ZeroWindow._on_grid(empty, empty, 1, 3, fc.EXACT).min_gap() == math.inf
    assert fc.ZeroWindow.from_points([zp(1, 2)], 3).min_gap() == math.inf
    assert fc.ZeroWindow.from_points([zp(1, 2), zp(-2, -2)], 4).min_gap() == 5.0
    pair = fc.ZeroWindow.from_points([fc.ZPoint(0.1, 0.2), fc.ZPoint(0.4, -0.2)], 1, _FLOAT)
    assert pair.min_gap() == math.sqrt(0.3 ** 2 + 0.4 ** 2) == _all_pairs_gap(pair)


def test_ratio_rounds_as_float_of_fraction():
    big = 1 << 53
    # int64 values up to 2**53, where numpy divides, and past it, where a
    # float64 operand would already be rounded
    small = [0, 1, -1, 7, big - 1, big, -big]
    # (2**53 + 1) / 3 is an integer, but float(2**53 + 1) / 3 is not
    near = [big + 1, -(big + 3), (1 << 61) + 1]
    far = [(1 << 62) + 12345, (1 << 63) - 1, -(1 << 63) + 1]
    rng = random.Random(53)
    wide = [rng.randint(-(1 << 200), 1 << 200) for _ in range(20)] + [(1 << 64) + 13]
    for values, dtype in ((small, np.int64), (small + near, np.int64),
                          (small + near + far, np.int64), (small + near + far + wide, object)):
        num = np.array(values, dtype=dtype)
        for den in (1, 3, 10, 32749, big - 1, big, big + 1, (1 << 64) + 13):
            got = zseq._ratio(num, den)
            assert got.dtype == np.float64
            want = [float(Fraction(v, den)) for v in values]
            assert got.tolist() == want, (dtype, den)
            # the sign of every quotient survives, zeros included
            assert [math.copysign(1, v) for v in got.tolist()] == \
                [math.copysign(1, v) for v in want]
    floats = np.array([0.5, -0.0, 1e300])
    assert zseq._ratio(floats, None) is floats


def test_in_region_checks_against_center():
    w = fc.generate(fc.GeneratorSpec("positive-integers"), 4.5)
    # stored coords live in a ball around the recorded center
    assert w.in_region(zp(3))
    assert not w.in_region(zp(4))


def _huge_float_window():
    """0, 1 and i in float mode, sampled out to a radius whose square,
    1e310, lies past the float range."""
    pts = [fc.ZPoint(0.0, 0.0), fc.ZPoint(1.0, 0.0), fc.ZPoint(0.0, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fc.ZeroWindow.from_points(pts, radius=1e155, mode=fc.float_mode())


def test_float_radius_past_1e154_builds_a_window():
    # the squared radius is a product, which overflows to inf where ``** 2``
    # raises OverflowError
    w = _huge_float_window()
    assert len(w) == 3 and w.radius == 1e155


def test_float_radius_past_1e154_bounds_the_region():
    w = _huge_float_window()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert w.in_region(fc.ZPoint(3e154, 4e154)) and w.in_region(fc.ZPoint(1.0, 1.0), 0.5)


# ---------------------------------------------------------------------------
# validation


def test_min_gap_sweeps_along_the_axis_of_larger_extent(monkeypatch):
    """On a line of either axis the sweep's primary sort key is the
    coordinate that varies, so dx > 0 at every offset and the sweep stops
    past the first: a vertical line no longer compares every pair."""
    primary = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: primary.append(keys[-1]) or lexsort(keys))
    for pts in ([zp(0, k) for k in range(-500, 501)], [zp(k, 0) for k in range(-500, 501)]):
        w = fc.ZeroWindow.from_points(pts, 500)
        primary.clear()
        assert w.min_gap() == 1.0
        assert len(primary) == 1 and len(set(primary[0].tolist())) == len(w)


# ---------------------------------------------------------------------------
# checked construction: duplicates and non-finite points


def _assert_duplicates_as_all_pairs(pts, radius, mode) -> int:
    """``from_points`` refuses ``pts`` exactly when two are ``same_point``,
    and ``validate`` of the unchecked window in canonical order names each
    point's first later match, as a loop over all pairs finds them.
    Returns the number of points with a match."""
    xs, ys, _ = coordinate_grid(pts, mode)
    pts = [pts[k] for k in zseq.canonical_permutation(xs, ys).tolist()]
    want = []
    for i, p in enumerate(pts):
        j = next((j for j in range(i + 1, len(pts)) if same_point(p, pts[j], mode)), None)
        if j is not None:
            want.append(("DuplicatePoint", f"points {i} and {j} coincide"))
    rep = fc.validate(fc.ZeroWindow(pts, radius, mode, check=False))
    assert [v for v in rep.violations if v[0] == "DuplicatePoint"] == want
    if want:
        with pytest.raises(fc.DuplicatePoint):
            fc.ZeroWindow.from_points(pts, radius, mode)
    else:
        assert len(fc.ZeroWindow.from_points(pts, radius, mode)) == len(pts)
    return len(want)


def _near_copies(rng, pts, eps, share):
    """``pts`` plus copies of a ``share`` of them moved by 0.5 to 1.5 eps in a
    random direction: some within eps of their original, some not."""
    out = list(pts)
    for p in rng.sample(pts, int(share * len(pts))):
        t, d = rng.uniform(0, 2 * math.pi), eps * rng.uniform(0.5, 1.5)
        out.append(fc.ZPoint(p.re + d * math.cos(t), p.im + d * math.sin(t)))
    return out


def test_float_duplicates_are_every_pair_within_eps():
    """Random clouds, points on one circle, whose norms round apart so that
    canonical order scatters neighbours in angle, and three points of which
    an intervening norm separates the two that coincide."""
    rng = random.Random(89)
    matched = 0
    for eps in (1e-9, 1e-6, 0.3):
        mode = fc.float_mode(eps)
        cloud = [fc.ZPoint(rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(150)]
        matched += _assert_duplicates_as_all_pairs(_near_copies(rng, cloud, eps, 0.3), 20, mode)
        turns = [2 * math.pi * k / 200 for k in range(200)]
        circle = [fc.ZPoint(3 * math.cos(t), 3 * math.sin(t)) for t in turns]
        matched += _assert_duplicates_as_all_pairs(_near_copies(rng, circle, eps, 0.3), 4, mode)
        assert _assert_duplicates_as_all_pairs(circle, 4, fc.float_mode(eps / 1e3)) == 0
    repro = [fc.ZPoint(1.0, 0.0), fc.ZPoint(0.0, 1 + 5e-11), fc.ZPoint(1 + 1e-10, 0.0)]
    assert _assert_duplicates_as_all_pairs(repro, 5, _FLOAT) == 1
    assert ("DuplicatePoint", "points 0 and 2 coincide") in \
        fc.validate(fc.ZeroWindow(repro, 5, _FLOAT, check=False)).violations
    assert _assert_duplicates_as_all_pairs(repro, 5, fc.float_mode(0)) == 0
    assert matched > 50


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_checked_constructors_refuse_non_finite_points(bad):
    pts = [fc.ZPoint(0.0, 0.0), fc.ZPoint(bad, 1.0), fc.ZPoint(1.0, 0.0)]
    with pytest.raises(fc.NonFinite, match="is not finite"):
        fc.ZeroWindow.from_points(pts, 5, _FLOAT)
    with pytest.raises(fc.NonFinite):
        fc.ZeroWindow(pts, 5, _FLOAT)
    data = {"mode": "float", "radius": 5, "translation": None,
            "points": [[p.re, p.im] for p in pts]}
    with pytest.raises(fc.NonFinite):
        fc.window_from_json(data)
    # unchecked, the window keeps the point, and validate names it
    rep = fc.validate(fc.ZeroWindow(pts, 5, _FLOAT, check=False))
    assert ("NonFinite", "point 1 is not finite") in rep.violations


def test_validate_clean_window(lattice5):
    rep = fc.validate(lattice5)
    assert rep.valid
    assert rep.to_dict()["violations"] == []


def test_validate_flags_out_of_order():
    w = fc.ZeroWindow([zp(2), zp(1)], 5, check=False)
    rep = fc.validate(w)
    assert any(code == "OrderingViolation" for code, _ in rep.violations)


def test_validate_flags_radius():
    w = fc.ZeroWindow([zp(1), zp(40)], 5, check=False)
    rep = fc.validate(w)
    assert any(code == "RadiusViolation" for code, _ in rep.violations)


def test_validate_flags_duplicates():
    w = fc.ZeroWindow([zp(1), zp(1)], 5, check=False)
    rep = fc.validate(w)
    assert any(code == "DuplicatePoint" for code, _ in rep.violations)


def test_validate_matches_pointwise_checks():
    # the pairwise and per-point loops validate ran before it read the grid
    rng = random.Random(71)
    for den, mode in _CLOUDS:
        pts = _by_comparator(_shuffled_cloud(rng, 20, den, mode))
        for _ in range(3):
            i = rng.randrange(len(pts) - 1)
            pts[i], pts[i + 1] = pts[i + 1], pts[i]
        pts.insert(5, pts[5])
        center = fc.ZPoint.of(Fraction(1, 7), Fraction(-2, 5), mode)
        radius = fc.zseq.as_scalar(Fraction(rng.randint(20, 60), 10), mode)
        want = []
        for i, (a, b) in enumerate(zip(pts, pts[1:])):
            if same_point(a, b, mode):
                want.append(("DuplicatePoint", f"points {i} and {i + 1} coincide"))
            elif compare_canonical(a, b) > 0:
                want.append(("OrderingViolation",
                             f"points {i} and {i + 1} out of canonical order"))
        r2 = radius ** 2
        for i, p in enumerate(pts):
            d2 = (p - center).norm2()
            if d2 > (r2 if mode.is_exact else r2 + 1e-12 * (1 + r2)):
                want.append(("RadiusViolation", f"point {i} lies outside the sampled ball"))
        assert any(code == "RadiusViolation" for code, _ in want)
        w = fc.ZeroWindow(pts, radius, mode, center=center, check=False)
        assert fc.validate(w).violations == want


# ---------------------------------------------------------------------------
# point index


def test_point_index_exact(lattice5):
    idx = lattice5.index()
    assert idx.find(zp(1, 1)) is not None
    assert idx.find(zp(1, 2)) is not None
    assert idx.find(zp(Fraction(1, 2), 0)) is None


def test_point_index_float_probes_neighbor_cells():
    mode = fc.float_mode(1e-6)
    pts = [fc.ZPoint(0.0, 0.0), fc.ZPoint(1.0, 0.0)]
    idx = fc.PointIndex(pts, mode)
    # hit within eps across a grid-cell boundary
    assert fc.ZPoint(1.0 + 4e-7, -3e-7) in idx
    assert fc.ZPoint(1.0 + 5e-6, 0.0) not in idx


def test_sup_norm_exact_argmax():
    assert fc.sup_norm([zp(1), zp(-3), zp(2, 2)]) == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip(integers10):
    blob = json.dumps(fc.window_to_json(integers10))
    back = fc.window_from_json(json.loads(blob))
    assert back.points == integers10.points
    assert back.translation == integers10.translation
    assert back.radius == integers10.radius


def test_json_rationals_survive():
    w = fc.ZeroWindow.from_points([zp(0), zp(Fraction(1, 3), Fraction(-2, 7))], 2)
    data = fc.window_to_json(w)
    assert ["1/3", "-2/7"] in data["points"]
    back = fc.window_from_json(data)
    assert back.points[1] == zp(Fraction(1, 3), Fraction(-2, 7))


def test_json_round_trip_keeps_center_and_translation(integers10):
    b = zp(Fraction(1, 3), 5)
    raw = fc.ZeroWindow.from_points([zp(0), zp(Fraction(1, 3), Fraction(-2, 7)), zp(2, 1)], 3)
    lattice3 = fc.generate(fc.GeneratorSpec("gaussian-lattice"), 3)
    windows = [integers10, integers10.translate(b), integers10.translate(b).canonicalize(),
               raw, raw.translate(b), lattice3.translate(zp(5)),
               fc.generate(fc.GeneratorSpec("gaussian-lattice"), 3, _FLOAT).translate(
                   fc.ZPoint(0.5, -2.0))]
    for w in windows:
        back = fc.window_from_json(json.loads(json.dumps(fc.window_to_json(w))), eps=w.mode.eps)
        assert (back.points, back.center, back.translation) == \
            (w.points, w.center, w.translation)
        assert fc.validate(back).valid
    # generated windows are centred at their translation: no extra key
    assert "center" not in fc.window_to_json(integers10)


def test_exact_radius_is_kept_as_a_fraction():
    third = Fraction(1, 3)
    w = fc.ZeroWindow.from_points([zp(0), zp(third)], radius=third)
    assert w.radius == third
    assert fc.validate(w).valid
    assert w.in_region(zp(third)) and w.in_region(zp(0, -third))
    assert not w.in_region(zp(third + Fraction(1, 10 ** 30)))
    data = json.loads(json.dumps(fc.window_to_json(w)))
    assert data["radius"] == "1/3"
    back = fc.window_from_json(data)
    assert back.radius == third and back.points == w.points and fc.validate(back).valid
    # a radius a float holds exactly is written as that float
    assert fc.window_to_json(fc.ZeroWindow.from_points([zp(0)], Fraction(11, 2)))["radius"] == 5.5


def test_json_raw_window_has_null_translation():
    w = fc.ZeroWindow.from_points([zp(1), zp(2)], 3)
    assert fc.window_to_json(w)["translation"] is None


@pytest.mark.parametrize("bad", [-1e-9, -1.0, math.nan, math.inf, -math.inf])
def test_negative_or_non_finite_eps_raises(bad):
    data = fc.window_to_json(fc.generate(fc.GeneratorSpec("gaussian-lattice"), 3, fc.float_mode()))
    for make in (fc.float_mode, lambda eps: fc.Mode("float", eps),
                 lambda eps: fc.window_from_json(data, eps=eps)):
        with pytest.raises(ValueError, match="eps must be finite and >= 0"):
            make(bad)


def test_zero_eps_compares_floats_exactly():
    spec = fc.GeneratorSpec("gaussian-lattice")
    w = fc.generate(spec, 3, fc.float_mode(0))
    assert w.mode.eps == 0
    assert len(fc.visible_pairs(w)) == len(fc.visible_pairs(fc.generate(spec, 3))) == 268


def test_coordinates_past_eps_cells_compare_exactly():
    """Past eps * 1.8e308 a coordinate over eps is infinite: eps lies below
    the coordinate's ulp, and the index compares such points exactly, as at
    eps = 0, where it once raised OverflowError."""
    pts = [fc.ZPoint(0.0, 0.0), fc.ZPoint(1e10, 0.0), fc.ZPoint(0.0, 1.0)]
    w = fc.ZeroWindow.from_points(pts, 2e10, fc.float_mode(1e-300))
    idx = w.index()
    assert sorted(idx.find(p) for p in pts) == [0, 1, 2]
    assert idx.find(fc.ZPoint(1e10, 1e-300)) is None
    assert idx.find(fc.ZPoint(-1e10, 0.0)) is None
    assert idx.find(fc.ZPoint(0.0, 1.0 + 1e-300)) == idx.find(pts[2])


def test_zero_eps_tells_apart_points_closer_than_1e_162():
    """At eps = 0 points are the same only when their coordinates are equal:
    squared differences below about 1e-162 would underflow to 0."""
    mode = fc.float_mode(0)
    near = [fc.ZPoint(0.0, 0.0), fc.ZPoint(1e-300, 0.0), fc.ZPoint(1.0, 0.0)]
    assert not same_point(near[0], near[1], mode)
    assert not same_point(fc.ZPoint(1.0, 2.0), fc.ZPoint(1.0, 2.0 + 2.0 ** -51), mode)
    assert same_point(fc.ZPoint(0.0, 1.0), fc.ZPoint(-0.0, 1.0), mode)
    assert same_point(near[0], near[1], fc.float_mode(1e-9))
    w = fc.ZeroWindow.from_points(near, 2, mode)
    assert len(w) == 3 and fc.validate(w).valid
    assert [w.index().find(p) for p in w.points] == [0, 1, 2]
    assert w.index().find(fc.ZPoint(1e-300, 1e-300)) is None
    assert fc.ZPoint(1e10, 0.0) in fc.ZeroWindow.from_points(
        [fc.ZPoint(0.0, 0.0), fc.ZPoint(1e10, 0.0)], 2e10, mode).index()
    with pytest.raises(fc.DuplicatePoint):
        fc.ZeroWindow.from_points(near, 2, fc.float_mode(1e-9))
    with pytest.raises(fc.DuplicatePoint):
        fc.ZeroWindow.from_points([fc.ZPoint(0.0, 1.0), fc.ZPoint(-0.0, 1.0)], 2, mode)
    # a window built unchecked keeps its duplicate, and validate names it
    dup = fc.ZeroWindow([near[0], near[0], near[2]], 2, mode, check=False)
    codes = [code for code, _ in fc.validate(dup).violations]
    assert codes == ["DuplicatePoint"]


def test_float_mode_ordering_respects_eps():
    mode = fc.float_mode(1e-6)
    pts = [fc.ZPoint(1.0, 0.0), fc.ZPoint(0.5, 0.5)]
    out = fc.canonical_order(pts, mode)
    assert math.hypot(out[0].re, out[0].im) <= math.hypot(out[1].re, out[1].im)
