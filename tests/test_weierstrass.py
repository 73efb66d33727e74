import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

import flatcurve as fc
from flatcurve import weierstrass

from conftest import zp


def _window(points, radius):
    return fc.ZeroWindow.from_points(points, radius)


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


_FLOAT = fc.float_mode(1e-9)
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


def test_refine_zero_complex_location():
    w = _window([zp(1, 1), zp(2)], 4)
    chk = fc.refine_zero(w, 1.001 + 0.999j, degrees=0, e0=0)
    assert chk.zero == pytest.approx(1 + 1j, abs=1e-8)
    assert chk.winding == 1
