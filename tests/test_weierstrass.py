import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import flatcurve as fc
from flatcurve import weierstrass

from conftest import zp
from test_flatgeom import _BIG_DENS, _rational_cloud


def _window(points, radius):
    return fc.ZeroWindow.from_points(points, radius)


_FLOAT = fc.float_mode(1e-9)


# ---------------------------------------------------------------------------
# elementary factor


def test_elementary_factor_degree_zero_is_one():
    assert fc.elementary_factor(0.7 + 0.2j, 3.0, 0) == 1.0


def test_elementary_factor_exponential_polynomial():
    # degree 2 at the zero itself: exp(1 + 1/2)
    assert fc.elementary_factor(1.0, 1.0, 2) == pytest.approx(math.e ** 1.5)
    # degree 1: exp(z/z_n)
    assert fc.elementary_factor(2.0, 4.0, 1) == pytest.approx(math.e ** 0.5)


def test_elementary_factor_rejects_zero_divisor():
    with pytest.raises(fc.ZeroDivisor):
        fc.elementary_factor(1.0, 0.0, 1)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_single_zero_degree_zero():
    w = _window([zp(1)], 2)
    assert fc.eval_f(3.0, w, degrees=0, e0=0) == pytest.approx(-2.0)


def test_eval_vanishes_exactly_on_window_points():
    w = _window([zp(1), zp(2), zp(-1, 1)], 3)
    for p in w.points:
        assert fc.eval_f(p.to_complex(), w, degrees=1, e0=0) == 0j


def test_eval_origin_multiplicity():
    w = _window([zp(0), zp(1)], 2)
    # near 0 the product behaves like z^e0 * (1 - z)
    for e0 in (1, 2):
        v = fc.eval_f(1e-6, w, degrees=0, e0=e0)
        assert abs(v) == pytest.approx(1e-6 ** e0, rel=1e-4)


def test_eval_explicit_zero_with_origin_rejected():
    w = _window([zp(0), zp(1)], 2)
    with pytest.raises(fc.ZeroDivisor):
        fc.eval_f(0.5, w, degrees=1, e0=0)


def test_eval_array_shape():
    w = _window([zp(1)], 2)
    zs = np.array([0.0, 2.0, 3.0])
    out = fc.eval_f(zs, w, degrees=0, e0=0)
    assert out.shape == (3,)
    assert out[0] == pytest.approx(1.0)
    assert out[2] == pytest.approx(-2.0)


def test_eval_degree_one_matches_sine_product():
    # nonzero integers with degree-1 factors converge to sin(pi z)/pi
    w = fc.generate(fc.GeneratorSpec("all-integers"), 400, fc.float_mode(1e-9))
    val = fc.eval_f(0.5, w, degrees=1, e0=1)
    assert val == pytest.approx(1 / math.pi, abs=1e-3)
    val = fc.eval_f(0.25, w, degrees=1, e0=1)
    assert val == pytest.approx(math.sin(math.pi * 0.25) / math.pi, abs=1e-3)


def test_eval_nonfinite_overflow():
    w = _window([zp(1)], 2)
    with pytest.raises(fc.NonFinite) as err:
        fc.eval_f(-1e308, w, degrees=0, e0=0)
    assert err.value.log10mag is not None
    assert err.value.log10mag > 300


@pytest.mark.parametrize("radius", [30, 60])
def test_log_eval_matches_eval_f_where_finite(radius):
    # eval's overflow output (log10mag, arg) comes from _log_eval; where the
    # product is finite the two must agree
    w = fc.generate(fc.GeneratorSpec("positive-integers"), radius, fc.float_mode(1e-9))
    pts, origin, degs = weierstrass._resolve_degrees(w, None)
    zs = np.array([0.5, 0.3 + 0.2j, 2.5 - 1j, -3.7 + 0.4j, 7.25 + 3j, 12.5 + 0.5j])
    re, im, hit = weierstrass._log_eval(zs, pts, degs, weierstrass._resolve_e0(origin, None))
    assert not hit.any()
    for z, log_re, log_im in zip(zs, re, im):
        f = fc.eval_f(z, w)
        assert f != 0 and cmath.isfinite(f)
        assert log_re / math.log(10) == pytest.approx(math.log10(abs(f)), rel=1e-12)
        wrapped = math.remainder(log_im - cmath.phase(f), 2 * math.pi)
        assert wrapped == pytest.approx(0, abs=1e-10)


def test_eval_per_point_degrees():
    w = _window([zp(1), zp(2)], 3)
    v = fc.eval_f(0.5, w, degrees=[0, 1], e0=0)
    expect = (1 - 0.5) * (1 - 0.25) * math.exp(0.25)
    assert v == pytest.approx(expect)


# ---------------------------------------------------------------------------
# the power-sum core against the per-factor products it replaced


def _per_factor_log_eval(zs, pts, degs, e0):
    """Reference: every elementary factor summed on its own, O(m * n * D)."""
    m = len(zs)
    re = np.zeros(m)
    im = np.zeros(m)
    hit = np.zeros(m, dtype=bool)
    if e0:
        zero_at_origin = zs == 0
        hit |= zero_at_origin
        safe = np.where(zero_at_origin, 1.0, zs)
        lg = np.log(safe.astype(np.complex128))
        re += e0 * lg.real
        im += e0 * lg.imag
    n = len(pts)
    if n == 0:
        return re, im, hit
    order = np.argsort(degs, kind="stable")
    pts = pts[order]
    degs = degs[order]
    max_d = int(degs[-1]) if n else 0
    chunk = max(1, (1 << 22) // max(n, 1))
    for lo in range(0, m, chunk):
        zc = zs[lo:lo + chunk]
        ratio = zc[:, None] / pts[None, :]
        on_zero = ratio == 1
        hit[lo:lo + chunk] |= on_zero.any(axis=1)
        ratio = np.where(on_zero, 0.0, ratio)
        lg = np.log1p(-ratio)
        re[lo:lo + chunk] += lg.real.sum(axis=1)
        im[lo:lo + chunk] += lg.imag.sum(axis=1)
        if max_d > 0:
            start = int(np.searchsorted(degs, 1))
            wpow = np.ones_like(ratio[:, start:])
            active = ratio[:, start:]
            offs = start
            acc = np.zeros_like(active)
            for k in range(1, max_d + 1):
                new_start = int(np.searchsorted(degs, k))
                if new_start > offs:
                    cut = new_start - offs
                    re[lo:lo + chunk] += acc[:, :cut].real.sum(axis=1)
                    im[lo:lo + chunk] += acc[:, :cut].imag.sum(axis=1)
                    wpow = wpow[:, cut:]
                    active = active[:, cut:]
                    acc = acc[:, cut:]
                    offs = new_start
                if active.shape[1] == 0:
                    break
                wpow = wpow * active
                acc = acc + wpow / k
            if active.shape[1]:
                re[lo:lo + chunk] += acc.real.sum(axis=1)
                im[lo:lo + chunk] += acc.imag.sum(axis=1)
    return re, im, hit


def _both_log_evals(w, zs, degrees):
    pts, origin, degs = weierstrass._resolve_degrees(w, degrees)
    e0 = weierstrass._resolve_e0(origin, None)
    with np.errstate(all="ignore"):
        return (weierstrass._log_eval(zs, pts, degs, e0),
                _per_factor_log_eval(zs, pts, degs, e0))


def _pm_window(n):
    pts = [fc.ZPoint(float(s * k), 0.0) for k in range(1, n + 1) for s in (1, -1)]
    return fc.ZeroWindow.from_points(pts, radius=float(n), mode=_FLOAT)


_FAMILIES = ("positive-integers", "all-integers", "odd4n13-positive", "odd4n13-all",
             "gaussian-lattice", "integers-plus-minus-i")
_CORE_WINDOWS = [
    *(pytest.param(fc.generate(fc.GeneratorSpec(kind), 13, _FLOAT), id=f"{kind}-float")
      for kind in _FAMILIES),
    pytest.param(fc.generate(fc.GeneratorSpec("gaussian-lattice"), 8), id="lattice-exact"),
    pytest.param(fc.generate(fc.GeneratorSpec("integers-plus-minus-i"), 9), id="pm-i-exact"),
    # +-k: every odd power sum cancels to exactly 0
    pytest.param(_pm_window(40), id="plus-minus"),
]
# inside the window; most lie beyond the nearest zero
_CORE_ZS = np.array([0.5, 0.3 + 0.2j, 0.1j, 1.5 - 0.5j, 2.5 - 1j, -3.7 + 0.4j,
                     -0.7 + 1.9j, 3.3 - 4.1j, 7.25 + 3j, 9.1 - 0.2j, 0.0, 1.0, 2.0])


def _degree_cases(w):
    rng = random.Random(len(w))
    return [1, 3, "index", "auto", [rng.randint(0, 4) for _ in range(len(w))]]


@pytest.mark.parametrize("w", _CORE_WINDOWS)
def test_log_eval_matches_per_factor_reference(w):
    for degrees in _degree_cases(w):
        (re, im, hit), (ref_re, ref_im, ref_hit) = _both_log_evals(w, _CORE_ZS, degrees)
        assert (hit == ref_hit).all(), degrees
        ok = ~hit
        assert np.isfinite(ref_re[ok]).all()
        scale = np.maximum(1.0, np.abs(ref_re[ok]))
        assert (np.abs(re[ok] - ref_re[ok]) <= 1e-10 * scale).all(), degrees
        turn = np.remainder(im[ok] - ref_im[ok] + math.pi, 2 * math.pi) - math.pi
        assert (np.abs(turn) <= 1e-10 * np.maximum(scale, np.abs(ref_im[ok]))).all(), degrees


@pytest.mark.parametrize("w", _CORE_WINDOWS)
def test_log_eval_degree_zero_is_bit_equal(w):
    (re, im, hit), (ref_re, ref_im, ref_hit) = _both_log_evals(w, _CORE_ZS, 0)
    assert re.tobytes() == ref_re.tobytes()
    assert im.tobytes() == ref_im.tobytes()
    assert (hit == ref_hit).all()


def test_plus_minus_window_odd_power_sums_cancel():
    # the polynomial parts of +-k pair off: degree 1 adds exactly nothing
    w = _pm_window(40)
    (re1, im1, _), _ = _both_log_evals(w, _CORE_ZS, 1)
    (re0, im0, _), _ = _both_log_evals(w, _CORE_ZS, 0)
    assert re1.tobytes() == re0.tobytes() and im1.tobytes() == im0.tobytes()


@pytest.mark.parametrize("w, degrees", [
    (_pm_window(40), 3), (_pm_window(40), "index"),
    (fc.generate(fc.GeneratorSpec("positive-integers"), 60, _FLOAT), "index"),
    (fc.generate(fc.GeneratorSpec("gaussian-lattice"), 13, _FLOAT), "index"),
    (fc.generate(fc.GeneratorSpec("gaussian-lattice"), 8), 5),
])
def test_eval_overflows_exactly_where_the_reference_does(w, degrees):
    zs = np.array([1.5 + 0.3j, 5.5 + 0.3j, 20.5 + 0.3j, 45.5 + 0.3j, 80.5 - 0.3j, 150.5 + 0.3j,
                   400.5 + 0.3j, 1e3 + 1j, -8e2j, 1e4 + 1j])
    _, (ref_re, _, ref_hit) = _both_log_evals(w, zs, degrees)
    overflows = ~(ref_re <= weierstrass._EXP_OVERFLOW) & ~ref_hit
    assert overflows.any() and not overflows.all()
    for z, over in zip(zs, overflows):
        if over:
            with pytest.raises(fc.NonFinite):
                fc.eval_f(z, w, degrees=degrees)
        else:
            assert cmath.isfinite(fc.eval_f(z, w, degrees=degrees))


# ---------------------------------------------------------------------------
# eval_f's near/far split against the per-factor reference


_SPLIT_WINDOWS = [
    *(pytest.param(fc.generate(fc.GeneratorSpec(kind), 13, _FLOAT), id=f"{kind}-float")
      for kind in _FAMILIES),
    pytest.param(fc.generate(fc.GeneratorSpec("gaussian-lattice"), 8), id="lattice-exact"),
    pytest.param(fc.generate(fc.GeneratorSpec("integers-plus-minus-i"), 9), id="pm-i-exact"),
    pytest.param(_pm_window(40), id="plus-minus-40"),
    pytest.param(_pm_window(300), id="plus-minus-300"),
]
_SPLIT_ZS = {
    # max |z| = 1 and 2 exactly: cuts at 4 and 8; window points and 0 included
    "unit": np.array([0.5, 0.3 + 0.2j, 0.1j, -0.6 + 0.7j, 1.0, 1j, -1.0, 0.0]),
    "two": np.array([1.5 - 0.5j, -0.7 + 1.8j, 2.0, -2j, 1.25 + 0.75j, 0.0]),
    "wide": np.array([0.5, 3.3 - 4.1j, 9.1 - 0.2j, 12.5 + 0.5j]),
    # beyond every window above but the largest: its far set is empty
    "past": np.array([20.5 + 0.3j, -30j, 45.5, 0.25]),
    "origin": np.array([0.0]),
}


def _split_degree_cases(w):
    rng = random.Random(len(w) + 1)
    return [0, 1, 3, "index", "auto", [rng.randint(0, 4) for _ in range(len(w))]]


def _split_and_reference(w, zs, degrees):
    pts, origin, degs = weierstrass._resolve_degrees(w, degrees)
    e0 = weierstrass._resolve_e0(origin, None)
    with np.errstate(all="ignore"):
        return (weierstrass._split_log_eval(w, zs, pts, degs, e0, degrees),
                _per_factor_log_eval(zs, pts, degs, e0),
                weierstrass._log_eval(zs, pts, degs, e0))


def _largest_terms(zs, pts, degs):
    """Per sample, the largest modulus among the terms the reference sums:
    |u| and |u|**d / d over the factors, u = z / z_n.  A float64 sum is only
    good relative to its largest term, and beyond the nearest zeros under
    "index" degrees that term exceeds the sum by orders of magnitude."""
    a = np.abs(zs)[:, None] / np.abs(pts)[None, :]
    d = np.maximum(degs, 1)[None, :]
    with np.errstate(over="ignore"):
        return np.maximum(a, a ** d / d).max(axis=1, initial=1.0)


def _far_set_is_empty(w, zs):
    big = float(np.abs(zs).max())
    if big == 0:
        return True
    shell = math.ceil(math.log2(big))
    norms = np.abs(weierstrass._product_points(w)[0])
    return bool((norms <= 4 * 2.0 ** shell).all())


@pytest.mark.parametrize("zs_id", list(_SPLIT_ZS))
@pytest.mark.parametrize("w", _SPLIT_WINDOWS)
def test_split_eval_matches_per_factor_reference(w, zs_id):
    zs = _SPLIT_ZS[zs_id]
    for degrees in _split_degree_cases(w):
        (re, im, hit), (ref_re, ref_im, ref_hit), core = _split_and_reference(w, zs, degrees)
        assert (hit == ref_hit).all(), degrees
        ok = ~hit
        pts, _, degs = weierstrass._resolve_degrees(w, degrees)
        scale = np.maximum(np.abs(ref_re[ok]), _largest_terms(zs[ok], pts, degs))
        assert (np.abs(re[ok] - ref_re[ok]) <= 1e-10 * scale).all(), degrees
        turn = np.remainder(im[ok] - ref_im[ok] + math.pi, 2 * math.pi) - math.pi
        assert (np.abs(turn) <= 1e-10 * np.maximum(scale, np.abs(ref_im[ok]))).all(), degrees
        if _far_set_is_empty(w, zs):
            assert re.tobytes() == core[0].tobytes() and im.tobytes() == core[1].tobytes()
        # eval_f exponentiates the split of its own samples (the cut depends
        # on the largest); overflow has its own tests
        sub = zs[hit | (re <= weierstrass._EXP_OVERFLOW)]
        (re, im, hit), _, _ = _split_and_reference(w, sub, degrees)
        want = np.where(hit, 0j, np.exp(re + 1j * im))
        assert (fc.eval_f(sub, w, degrees=degrees) == want).all()


def test_split_cases_cover_hits_far_sets_and_empty_far_sets():
    far_sets = {_far_set_is_empty(w.values[0], zs) for w in _SPLIT_WINDOWS for zs in _SPLIT_ZS.values()}
    assert far_sets == {True, False}
    w = _SPLIT_WINDOWS[0].values[0]
    assert _split_and_reference(w, _SPLIT_ZS["unit"], 1)[0][2].any()
    # the +-k windows hold no origin, so e0 = 0 and f(0) = 1
    assert fc.eval_f(0.0, _pm_window(40), degrees=1) == 1


def test_far_coefficients_are_cached_per_shell_and_degrees(monkeypatch):
    calls = []
    far_coefficients = weierstrass._far_coefficients

    def counting(*args):
        calls.append(len(args[0]))
        return far_coefficients(*args)

    monkeypatch.setattr(weierstrass, "_far_coefficients", counting)
    w = _pm_window(500)
    fc.eval_f(np.array([2.5 + 0.1j, -3j]), w, degrees=1)
    fc.eval_f(3.9, w, degrees=1)  # same shell: 2**2 = 4
    assert len(calls) == 1
    fc.eval_f(4.1, w, degrees=1)
    assert len(calls) == 2
    fc.eval_f(2.5, w, degrees="index")
    fc.eval_f(2.5, w)  # None means "index"
    assert len(calls) == 3
    explicit = [1] * len(w)
    fc.eval_f(2.5, w, degrees=explicit)
    fc.eval_f(2.5, w, degrees=explicit)
    assert len(calls) == 5  # explicit lists are not cached
    chk = fc.refine_zero(w, 3.0002 + 0.0001j, degrees=1)
    assert chk.zero == pytest.approx(3.0, abs=1e-8)
    # every Newton step reuses the shell-2 sums; the confirming count_zeros
    # builds its own series about its box centre, once
    assert len(calls) == 6


def test_log_eval_receives_only_near_zeros(monkeypatch):
    sizes = []
    log_eval = weierstrass._log_eval

    def counting(zs, pts, *args):
        sizes.append(len(pts))
        return log_eval(zs, pts, *args)

    monkeypatch.setattr(weierstrass, "_log_eval", counting)
    w = _pm_window(10_000)
    rng = np.random.default_rng(3)
    zs = np.concatenate([rng.uniform(-3, 3, 64) + 1j * rng.uniform(-1, 1, 64), [3.2, -3.2j]])
    vals = fc.eval_f(zs, w, degrees=1, e0=1)
    assert sizes == [32]  # the zeros +-1 .. +-16, inside 4 * 2**2
    pts, _, degs = weierstrass._resolve_degrees(w, 1)
    ref_re, ref_im, _ = _per_factor_log_eval(zs, pts, degs, 1)
    assert np.allclose(vals, np.exp(ref_re + 1j * ref_im), rtol=1e-10, atol=0)


@pytest.mark.parametrize("w, degrees", [
    (_pm_window(40), 3), (_pm_window(40), "index"),
    (fc.generate(fc.GeneratorSpec("positive-integers"), 60, _FLOAT), "index"),
    (fc.generate(fc.GeneratorSpec("gaussian-lattice"), 13, _FLOAT), "index"),
    (fc.generate(fc.GeneratorSpec("gaussian-lattice"), 8), 5),
])
def test_overflow_reports_the_reference_magnitude(w, degrees):
    zs = np.array([5.5 + 0.3j, 20.5 + 0.3j, 45.5 + 0.3j, 80.5 - 0.3j, 150.5 + 0.3j, 1e3 + 1j])
    _, (ref_re, _, ref_hit), _ = _split_and_reference(w, zs, degrees)
    for z, log_re, z_hit in zip(zs, ref_re, ref_hit):
        if z_hit or log_re <= weierstrass._EXP_OVERFLOW:
            continue
        with pytest.raises(fc.NonFinite) as err:
            fc.eval_f(z, w, degrees=degrees)
        if math.isfinite(log_re):
            assert err.value.log10mag == pytest.approx(log_re / math.log(10), rel=1e-10)
        else:
            assert not math.isfinite(err.value.log10mag)


def _tiny_cloud(den):
    # every coordinate below 1: an int64 grid whose scale may pass 2**53
    return _window([zp(Fraction(a, den), Fraction(b, den))
                    for a, b in ((1, 0), (0, 2), (-3, 1), (5, -4), (7, 7))], 10)


def _product_point_windows():
    rng = random.Random(5)
    yield fc.generate(fc.GeneratorSpec("gaussian-lattice"), 6, _FLOAT)
    yield _pm_window(10)
    yield fc.generate(fc.GeneratorSpec("odd4n13-all"), 9)
    for den in (3, 7, *_BIG_DENS):
        yield _rational_cloud(rng, 30, den)
        yield _tiny_cloud(den)


def test_product_points_equal_float_of_each_coordinate():
    kinds = set()
    for w in _product_point_windows():
        pts, _, _ = weierstrass._resolve_degrees(w, 0)
        want = np.array([complex(float(p.re), float(p.im)) for p in w.points
                         if not p.is_zero()], dtype=np.complex128)
        assert pts.tobytes() == want.tobytes()
        xs, _, scale = w.grid
        kinds.add((xs.dtype.kind, scale is not None and scale > 1 << 53))
    # float, int64, Python-int, and int64 over a scale past 2**53
    assert kinds == {("f", False), ("i", False), ("O", False), ("O", True), ("i", True)}


def test_degree_arrays_match_the_point_loops():
    for w in _product_point_windows():
        nonzero = [not p.is_zero() for p in w.points]
        index = list(np.cumsum(nonzero) * nonzero)
        norms = sorted(p.norm() for p in w.points if not p.is_zero())
        assert fc.choose_degrees(w, "index") == index
        assert fc.choose_degrees(w, "auto") == [weierstrass._fitted_degree(norms)] * len(w)
        assert fc.choose_degrees(w, 2) == [2] * len(w)
        assert all(type(d) is int for d in fc.choose_degrees(w, "auto"))


# ---------------------------------------------------------------------------
# degree selection


def test_choose_degrees_uniform(integers10):
    assert fc.choose_degrees(integers10, 3) == [3] * len(integers10.points)


def test_choose_degrees_index_strategy():
    w = _window([zp(0), zp(1), zp(2)], 3)
    assert fc.choose_degrees(w, "index") == [0, 1, 2]


def test_choose_degrees_auto_linear_growth(integers10):
    degs = fc.choose_degrees(integers10, "auto")
    nonzero = [d for p, d in zip(integers10.points, degs) if not p.is_zero()]
    assert set(nonzero) == {1}


def test_choose_degrees_auto_lattice(lattice5):
    # sqrt-n growth needs degree 2 for convergence
    degs = fc.choose_degrees(lattice5, "auto")
    nonzero = [d for p, d in zip(lattice5.points, degs) if not p.is_zero()]
    assert set(nonzero) == {2}


def test_choose_degrees_auto_geometric_tail():
    w = _window([zp(2 ** k) for k in range(8)], 300)
    degs = fc.choose_degrees(w, "auto")
    assert set(degs) == {0}


# ---------------------------------------------------------------------------
# zero counting


def test_count_zeros_unit_boxes():
    w = fc.generate(fc.GeneratorSpec("all-integers"), 50, fc.float_mode(1e-9))
    for k in (1, 2, 3):
        assert fc.count_zeros(w, (k - 0.4, k + 0.4, -0.4, 0.4),
                              degrees=1, e0=1) == 1


def test_count_zeros_empty_box():
    w = _window([zp(1), zp(3)], 4)
    assert fc.count_zeros(w, (1.6, 2.4, -0.4, 0.4), degrees=0, e0=0) == 0


def test_count_zeros_multiple():
    w = _window([zp(1), zp(2)], 3)
    assert fc.count_zeros(w, (0.5, 2.5, -0.5, 0.5), degrees=0, e0=0) == 2


def test_count_zeros_origin_multiplicity():
    w = _window([zp(0), zp(1)], 2)
    assert fc.count_zeros(w, (-0.5, 0.5, -0.5, 0.5), degrees=0, e0=3) == 3


def test_count_zeros_contour_through_zero():
    w = _window([zp(1)], 2)
    with pytest.raises(fc.ContourThroughZero):
        fc.count_zeros(w, (1.0, 2.0, -0.5, 0.5), degrees=0, e0=0)


def _points_in_box(w, box):
    x0, x1, y0, y1 = box
    return sum(x0 < p.re < x1 and y0 < p.im < y1 for p in w.points)


# boxes with half-integer edges, some reaching past the window's edge
_ORACLE_CASES = [
    pytest.param(
        fc.generate(fc.GeneratorSpec("all-integers"), 12, _FLOAT),
        [(-0.5, 0.5, -0.5, 0.5), (3.5, 6.5, -0.5, 0.5), (9.5, 13.5, -0.5, 0.5),
         (-13.5, -10.5, -1.5, 0.5), (10.5, 11.5, -0.5, 0.5), (-7.5, 7.5, -0.5, 0.5),
         (-30.5, 30.5, -2.5, 2.5)],
        id="integers-float"),
    pytest.param(
        fc.generate(fc.GeneratorSpec("gaussian-lattice"), 5),
        [(-0.5, 0.5, -0.5, 0.5), (0.5, 2.5, -1.5, 1.5), (3.5, 5.5, -1.5, 3.5),
         (-5.5, -3.5, -5.5, 5.5), (-2.5, 2.5, 4.5, 6.5), (-6.5, 6.5, -6.5, 6.5)],
        id="lattice-exact"),
]


@pytest.mark.parametrize("degrees", [None, "auto", 2])
@pytest.mark.parametrize("w, boxes", _ORACLE_CASES)
def test_count_zeros_equals_window_points_in_box(w, boxes, degrees):
    for box in boxes:
        assert fc.count_zeros(w, box, degrees=degrees) == _points_in_box(w, box), box


def test_count_zeros_default_degrees_far_from_origin():
    # default "index" degrees: the box sits where Im P turns fastest
    w = fc.generate(fc.GeneratorSpec("positive-integers"), 44, _FLOAT)
    box = (21.5, 24.5, -0.5, 0.5)
    assert fc.count_zeros(w, box) == _points_in_box(w, box) == 3


def _close_pair():
    return fc.ZeroWindow.from_points([fc.ZPoint(0.03, 1e-7), fc.ZPoint(0.031, 1e-7),
                                      fc.ZPoint(5.0, 5.0), fc.ZPoint(-7.0, 3.0)],
                                     radius=8.0, mode=fc.float_mode(1e-12))


@pytest.mark.xfail(strict=True, reason="doubling stops once every phase step is below "
                   "0.25 rad, and two zeros 1e-3 apart hide between samples (ROADMAP item 3)")
def test_count_zeros_sees_two_close_zeros_near_an_edge():
    try:
        wind = fc.count_zeros(_close_pair(), (0, 1, 0, 1), degrees=0, e0=0)
    except fc.NoConvergence:
        return  # the honest answer when the samples cannot resolve the pair
    assert wind == 2


_REUSE_CASES = [
    (_pm_window(1000), (2.5, 5.5, -0.5, 0.5)),
    (fc.generate(fc.GeneratorSpec("gaussian-lattice"), 7, _FLOAT), (-6.5, 6.5, -6.5, 6.5)),
    (fc.generate(fc.GeneratorSpec("integers-plus-minus-i"), 6), (-2.25, 3.75, -0.6, 1.3)),
    (fc.generate(fc.GeneratorSpec("integers-plus-minus-i"), 30), (-2.25, 3.75, -0.6, 1.3)),
]


@pytest.mark.parametrize("w, box", _REUSE_CASES)
@pytest.mark.parametrize("per_edge", [8, 25, 64])
def test_reused_phases_equal_a_fresh_pass(w, box, per_edge):
    pts, origin, _ = weierstrass._resolve_degrees(w, 0)
    e0 = weierstrass._resolve_e0(origin, None)
    edges = weierstrass._box_edges(box)
    near, far = weierstrass._far_split(edges, pts)
    im = weierstrass._contour_phases(edges, per_edge, near, e0, far=far)
    for _ in range(3):
        per_edge *= 2
        im = weierstrass._contour_phases(edges, per_edge, near, e0, im, far)
        fresh = weierstrass._contour_phases(edges, per_edge, near, e0, far=far)
        assert im.tobytes() == fresh.tobytes()


def test_reuse_cases_cover_both_far_sets():
    far_sets = []
    for w, box in _REUSE_CASES:
        pts = weierstrass._product_points(w)[0]
        far_sets.append(weierstrass._far_split(weierstrass._box_edges(box), pts)[1] is not None)
    assert far_sets == [True, False, False, True]


def test_count_zeros_evaluates_each_sample_once(monkeypatch):
    rows = []
    log_eval = weierstrass._log_eval

    def counting(zs, *args):
        rows.append(len(zs))
        return log_eval(zs, *args)

    monkeypatch.setattr(weierstrass, "_log_eval", counting)
    w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), 7, _FLOAT)
    box = (-6.5, 6.5, -6.5, 6.5)
    assert fc.count_zeros(w, box, degrees=0) == _points_in_box(w, box)
    assert len(rows) > 2
    assert rows == [64] + [64 << i for i in range(len(rows) - 1)]


# ---------------------------------------------------------------------------
# count_zeros' far-field series against the per-factor core


def _one_zero_at(distance):
    """A zero ``distance`` from the centre of the box (-1, 1, -1, 1), whose
    far cut is 4 * sqrt(2), plus the zero 0.25 + 0.5i inside it."""
    return fc.ZeroWindow.from_points([fc.ZPoint(0.25, 0.5), fc.ZPoint(0.0, distance)],
                                     radius=distance + 1, mode=_FLOAT)


_CUT = 4 * math.sqrt(2)
_SPLIT_BOXES = [
    pytest.param(_pm_window(1000), [(k - 0.5, k - 0.5 + width, -0.5, 0.5)
                                    for k in (2, 37, 250, 399, 998, -612) for width in (1, 3)]
                 + [(10.25, 12.75, 0.5, 3.0), (-1.5, 1.5, -0.75, 0.75)], {}, id="plus-minus-1000"),
    pytest.param(fc.generate(fc.GeneratorSpec("all-integers"), 12, _FLOAT),
                 [(-0.5, 0.5, -0.5, 0.5), (-1.5, 0.5, -0.25, 0.75)], {"e0": 3}, id="origin-e0-3"),
    pytest.param(fc.generate(fc.GeneratorSpec("integers-plus-minus-i"), 30),
                 [(-2.25, 3.75, -0.6, 1.3), (19.5, 22.5, -1.5, 1.5), (-0.5, 0.5, -0.5, 0.5)],
                 {}, id="pm-i-exact"),
    pytest.param(fc.generate(fc.GeneratorSpec("gaussian-lattice"), 12, _FLOAT),
                 [(-0.5, 0.5, -0.5, 0.5), (2.5, 4.5, -1.5, 0.5), (-6.5, 6.5, -6.5, 6.5),
                  (7.3, 9.1, 2.6, 4.4)], {"degrees": "auto"}, id="lattice-float"),
    pytest.param(fc.generate(fc.GeneratorSpec("positive-integers"), 44, _FLOAT),
                 [(21.5, 24.5, -0.5, 0.5), (1.5, 2.5, -0.5, 0.5)], {}, id="positive-default"),
    pytest.param(_one_zero_at(_CUT * (1 - 1e-9)), [(-1, 1, -1, 1)], {}, id="just-inside"),
    pytest.param(_one_zero_at(_CUT * (1 + 1e-9)), [(-1, 1, -1, 1)], {}, id="just-outside"),
    # two zeros 1e-3 apart: NoConvergence within 1024 samples, 2 within 2**16
    pytest.param(_close_pair(), [(0, 1, -1e-3, 1)], {"degrees": 0, "e0": 0}, id="close-pair"),
    pytest.param(_close_pair(), [(0, 1, 0, 1), (0, 1, -1e-3, 1)],
                 {"degrees": 0, "e0": 0, "max_samples": 1024}, id="close-pair-budget"),
]


def _count_with_rows(monkeypatch, w, box, kw, core):
    """``count_zeros``' answer (the winding, or the error type) and the row
    counts of its ``_log_eval`` calls; ``core`` sums every zero factor by
    factor."""
    rows = []
    log_eval = weierstrass._log_eval

    def counting(zs, *args):
        rows.append(len(zs))
        return log_eval(zs, *args)

    with monkeypatch.context() as patch:
        patch.setattr(weierstrass, "_log_eval", counting)
        if core:
            patch.setattr(weierstrass, "_far_split", lambda edges, pts: (pts, None))
        try:
            out = fc.count_zeros(w, box, **kw)
        except (fc.NoConvergence, fc.ContourThroughZero) as err:
            out = type(err)
    return out, rows


@pytest.mark.parametrize("w, boxes, kw", _SPLIT_BOXES)
def test_far_series_makes_the_core_decisions(monkeypatch, w, boxes, kw):
    for box in boxes:
        got = _count_with_rows(monkeypatch, w, box, kw, core=False)
        assert got == _count_with_rows(monkeypatch, w, box, kw, core=True), box
        if "max_samples" in kw:
            assert got[0] is fc.NoConvergence
            continue
        # e0 = 3 counts the origin three times
        extra = 2 * (box[0] < 0 < box[1] and box[2] < 0 < box[3]) if kw.get("e0") == 3 else 0
        assert got[0] == _points_in_box(w, box) + extra, box


def test_split_boxes_cover_far_sets_and_the_cut():
    def n_far(w, box):
        pts = weierstrass._product_points(w)[0]
        near, far = weierstrass._far_split(weierstrass._box_edges(box), pts)
        return len(pts) - len(near) if far else 0

    counts = [n_far(w, box) for w, boxes, _ in (p.values for p in _SPLIT_BOXES) for box in boxes]
    assert 0 in counts and max(counts) >= 1990
    assert n_far(_one_zero_at(_CUT * (1 - 1e-9)), (-1, 1, -1, 1)) == 0
    assert n_far(_one_zero_at(_CUT * (1 + 1e-9)), (-1, 1, -1, 1)) == 1
    assert n_far(_close_pair(), (0, 1, 0, 1)) == 2


def _wrapped_steps(im):
    return np.remainder(np.diff(np.append(im, im[0])) + math.pi, 2 * math.pi) - math.pi


@pytest.mark.parametrize("w, box", [
    (_pm_window(1000), (36.5, 39.5, -0.5, 0.5)),
    (_pm_window(1000), (-1.5, 1.5, -0.75, 0.75)),
    (fc.generate(fc.GeneratorSpec("gaussian-lattice"), 12, _FLOAT), (2.5, 4.5, -1.5, 0.5)),
    (fc.generate(fc.GeneratorSpec("integers-plus-minus-i"), 30), (19.5, 22.5, -1.5, 1.5)),
])
def test_far_series_keeps_the_core_phase_steps(w, box):
    pts, origin, _ = weierstrass._resolve_degrees(w, 0)
    e0 = weierstrass._resolve_e0(origin, None)
    edges = weierstrass._box_edges(box)
    near, far = weierstrass._far_split(edges, pts)
    assert far is not None
    for per_edge in (16, 64, 256):
        split = weierstrass._contour_phases(edges, per_edge, near, e0, far=far)
        core = weierstrass._contour_phases(edges, per_edge, pts, e0)
        diff = _wrapped_steps(split) - _wrapped_steps(core)
        assert np.abs(np.remainder(diff + math.pi, 2 * math.pi) - math.pi).max() <= 1e-9


def test_rowwise_far_series_does_not_depend_on_the_rows_sharing_the_call():
    # a BLAS matrix-vector product may round one row differently with other
    # rows, or alone; count_zeros' reused phases rely on rowwise never doing so
    rng = np.random.default_rng(11)
    x = rng.uniform(-0.7, 0.7, 300) + 1j * rng.uniform(-0.7, 0.7, 300)
    far = rng.uniform(5, 9, 40) * np.exp(1j * rng.uniform(0, 2 * math.pi, 40))
    coef = weierstrass._far_coefficients(far, np.zeros(40, dtype=np.int64), 1.0)
    whole = weierstrass._far_series(x, coef, rowwise=True)
    assert np.allclose(whole, weierstrass._far_series(x, coef), rtol=1e-14, atol=0)
    for part in (slice(1, None, 2), slice(7, 8), slice(0, 1), slice(31, 96)):
        assert weierstrass._far_series(x[part], coef, rowwise=True).tobytes() == whole[part].tobytes()


def test_count_zeros_winds_only_near_zeros(monkeypatch):
    sizes = []
    log_eval = weierstrass._log_eval

    def counting(zs, pts, *args):
        sizes.append(len(pts))
        return log_eval(zs, pts, *args)

    monkeypatch.setattr(weierstrass, "_log_eval", counting)
    w = _pm_window(10_000)
    # centre 4, half-diagonal sqrt(10) / 2: the zeros -2 .. 10 lie within 4 * r
    assert fc.count_zeros(w, (2.5, 5.5, -0.5, 0.5), degrees=1, e0=1) == 3
    assert sizes and set(sizes) == {12}


def test_products_never_build_window_points():
    w = fc.generate(fc.GeneratorSpec("positive-integers"), 30)
    fc.eval_f(np.array([0.5, 2.5 + 1j]), w, degrees="auto")
    fc.eval_f(0.25, w)
    fc.count_zeros(w, (0.5, 2.5, -0.5, 0.5))
    fc.refine_zero(w, 2.0003 + 0.0002j, degrees=1)
    fc.choose_degrees(w, "auto")
    assert "points" not in w.__dict__
    with pytest.raises(fc.ContourThroughZero):
        fc.count_zeros(w, (1, 2, -0.5, 0.5))
    assert "points" not in w.__dict__


def test_clearance_names_the_first_point_on_the_contour():
    # (1, 0) and (2, 0) both touch the box; (1, 0) comes first in window order
    w = _window([zp(2), zp(1), zp(0, 1)], 3)
    with pytest.raises(fc.ContourThroughZero, match=r"window point 1\.0\+0\.0j lies"):
        fc.count_zeros(w, (1, 2, -0.5, 0.5), degrees=0, e0=0)


def test_count_zeros_still_validates_degrees():
    w = _window([zp(1), zp(2)], 3)
    box = (0.5, 2.5, -0.5, 0.5)
    with pytest.raises(ValueError):
        fc.count_zeros(w, box, degrees=[1])
    with pytest.raises(ValueError):
        fc.count_zeros(w, box, degrees=[1, -1])
    with pytest.raises(ValueError):
        fc.count_zeros(w, box, degrees="nope")


# ---------------------------------------------------------------------------
# refinement


def test_refine_zero_converges():
    w = _window([zp(1), zp(2), zp(3)], 4)
    chk = fc.refine_zero(w, 2.0003 + 0.0002j, degrees=0, e0=0)
    assert chk.refined
    assert chk.zero == pytest.approx(2.0, abs=1e-8)
    assert chk.winding == 1
    assert abs(chk.residual) < 1e-9


def test_zero_check_is_an_immutable_value():
    w = _window([zp(1), zp(2), zp(3)], 4)
    chk = fc.refine_zero(w, 2.0003 + 0.0002j, degrees=0, e0=0)
    twin = fc.refine_zero(w, 2.0003 + 0.0002j, degrees=0, e0=0)
    assert repr(fc.ZeroCheck(2j, 1, True, 0.5)) == \
        "ZeroCheck(zero=2j, winding=1, refined=True, residual=0.5)"
    assert repr(chk) == f"ZeroCheck(zero={chk.zero!r}, winding=1, refined=True, " \
                        f"residual={chk.residual!r})"
    assert chk._fields == ("zero", "winding", "refined", "residual")
    assert chk == twin and hash(chk) == hash(twin)
    with pytest.raises(AttributeError):
        chk.winding = 2


def test_refine_zero_complex_location():
    w = _window([zp(1, 1), zp(2)], 4)
    chk = fc.refine_zero(w, 1.001 + 0.999j, degrees=0, e0=0)
    assert chk.zero == pytest.approx(1 + 1j, abs=1e-8)
    assert chk.winding == 1
