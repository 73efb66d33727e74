import random
import warnings
from fractions import Fraction

import pytest

import flatcurve as fc
from flatcurve import equiv
from flatcurve.veech import Mat2, StabilizerSearchConfig
from flatcurve.zseq import zreciprocal

from conftest import zp


# ---------------------------------------------------------------------------
# translation equivalence


def test_shifted_integer_runs_match():
    w1 = fc.ZeroWindow.from_points([zp(k) for k in range(1, 11)], radius=11)
    w2 = fc.ZeroWindow.from_points([zp(k) for k in range(0, 10)], radius=11)
    res = fc.translation_equiv(w1, w2)
    assert res.equivalent
    assert res.translation == zp(-1)
    assert res.matched_fraction == 1.0
    assert res.overlap_radius == pytest.approx(10.0)


def test_planted_translation_recovered_on_aperiodic_cloud():
    rng = random.Random(202)
    for _ in range(50):
        pts = {zp(0)}
        while len(pts) < 40:
            p = zp(Fraction(rng.randint(-80, 80), 11),
                   Fraction(rng.randint(-80, 80), 13))
            if float(p.norm2()) <= 49:
                pts.add(p)
        w = fc.ZeroWindow.from_points(
            sorted(pts, key=lambda p: (float(p.re), float(p.im))), radius=7)
        b = zp(Fraction(rng.randint(-12, 12), 5), Fraction(rng.randint(-12, 12), 7))
        res = fc.translation_equiv(w, w.translate(b))
        assert res.equivalent
        assert res.translation == b
        assert res.matched_fraction == 1.0


def test_planted_translation_on_self_similar_trace():
    # the integer trace is invariant under integer shifts, so the offset is
    # only determined up to one; the imaginary part has no such freedom
    rng = random.Random(31)
    for _ in range(40):
        w = fc.generate(fc.GeneratorSpec("all-integers"), 12)
        b = zp(Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
               Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
        res = fc.translation_equiv(w, w.translate(b))
        assert res.equivalent and res.matched_fraction == 1.0
        d = res.translation - b
        assert d.im == 0 and Fraction(d.re).denominator == 1


def test_inequivalent_windows_report_partial_match():
    evens = fc.ZeroWindow.from_points([zp(2 * k) for k in range(-5, 6)], radius=10.5)
    ints = fc.ZeroWindow.from_points([zp(k) for k in range(-10, 11)], radius=10.5)
    res = fc.translation_equiv(ints, evens)
    assert not res.equivalent
    assert 0.0 < res.matched_fraction < 1.0
    assert res.translation is not None  # best diagnostic offset is reported


def test_float_translation_past_a_1e154_radius():
    # the float loop squares w2's radius: by a product, which overflows to
    # inf where ``** 2`` raises OverflowError
    pts = [fc.ZPoint(0.0, 0.0), fc.ZPoint(1.0, 0.0), fc.ZPoint(0.0, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = fc.ZeroWindow.from_points(pts, radius=1e155, mode=fc.float_mode())
        res = fc.translation_equiv(w, w.translate(fc.ZPoint(0.5, 0.25)))
    assert res.equivalent and res.translation == fc.ZPoint(0.5, 0.25)


def test_mode_mismatch_rejected():
    w1 = fc.generate(fc.GeneratorSpec("all-integers"), 5)
    w2 = fc.generate(fc.GeneratorSpec("all-integers"), 5, mode=fc.float_mode(1e-9))
    with pytest.raises(fc.ModeMismatch):
        fc.translation_equiv(w1, w2)


def _cloud(rng, n=40, radius=7, dens=(11, 13)):
    pts = {zp(0)}
    while len(pts) < n:
        p = zp(Fraction(rng.randint(-12 * radius, 12 * radius), dens[0]),
               Fraction(rng.randint(-14 * radius, 14 * radius), dens[1]))
        if p.norm2() <= radius * radius:
            pts.add(p)
    return fc.ZeroWindow.from_points(sorted(pts), radius=radius)


def _as_loop(w1, w2):
    """translation_equiv of exact windows, checked against the point loop
    bit for bit: the translation, matched_fraction and overlap_radius."""
    got = fc.translation_equiv(w1, w2)
    assert repr(got) == repr(equiv._translation_loop(w1, w2))
    return got


def test_exact_translation_matches_loop_on_planted_shifts():
    rng = random.Random(5)
    for _ in range(20):
        w = _cloud(rng)
        b = zp(Fraction(rng.randint(-12, 12), rng.choice((1, 5, 9))),
               Fraction(rng.randint(-12, 12), rng.choice((1, 3, 7))))
        assert _as_loop(w, w.translate(b)).translation == b
        _as_loop(w.translate(b), w)


def test_exact_translation_matches_loop_on_inequivalent_pairs():
    rng = random.Random(6)
    partial = 0
    for _ in range(10):
        w = _cloud(rng)
        pts = list(w.points)
        del pts[rng.randrange(1, len(pts))]
        cut = fc.ZeroWindow(pts, w.radius, center=w.center)
        other = _cloud(rng, dens=(7, 9))
        for a, b in ((w, cut), (cut, w), (w, other), (other, w.translate(zp(1, -2)))):
            res = _as_loop(a, b)
            assert not res.equivalent
            partial += 0 < res.matched_fraction < 1
    assert partial > 20  # most pairs report a best partial offset


def test_exact_translation_matches_loop_on_integer_runs():
    # integer points on integer radii put candidates on the half-radius
    # circle: here the winner q = -3 sits at exactly 6 / 2 from w2's centre
    w1 = fc.ZeroWindow.from_points([zp(k) for k in (-2, 0, 3, 5)], radius=6)
    w2 = fc.ZeroWindow.from_points([zp(k) for k in (-6, -4, -3, 0, 2, 3, 4, 6)], radius=6)
    assert _as_loop(w1, w2).translation == zp(-3)
    rng = random.Random(10)
    for _ in range(200):
        r = rng.choice((4, 6, 8))
        runs = [{rng.randint(-r, r) for _ in range(rng.randint(3, 2 * r))} for _ in range(2)]
        _as_loop(*(fc.ZeroWindow.from_points([zp(k) for k in sorted(ks)], radius=r)
                   for ks in runs))


def test_exact_translation_matches_loop_across_scales_and_radii():
    rng = random.Random(7)
    for _ in range(10):
        w = _cloud(rng, dens=(5, 3))
        inner = fc.ZeroWindow.from_points([p for p in w.points if p.norm2() <= 16], radius=4)
        moved = w.translate(zp(Fraction(3, 22), Fraction(-5, 26)))
        assert moved.grid[2] != w.grid[2]
        for a, b in ((inner, moved), (moved, inner), (w, moved), (inner, _cloud(rng, 30, 5))):
            _as_loop(a, b)
    lattice = fc.generate(fc.GeneratorSpec("gaussian-lattice"), 6)
    wider = fc.generate(fc.GeneratorSpec("gaussian-lattice"), 9)
    assert _as_loop(lattice, wider).equivalent
    assert _as_loop(wider, lattice.translate(zp(Fraction(1, 3)))).translation is not None


def test_exact_translation_matches_loop_with_centres_off_both_grids():
    rng = random.Random(8)
    for _ in range(10):
        w = _cloud(rng)
        a = w.translate(zp(Fraction(rng.randint(1, 30), 17), Fraction(rng.randint(1, 30), 19)))
        b = zp(Fraction(rng.randint(-30, 30), 23), Fraction(rng.randint(-30, 30), 29))
        assert _as_loop(a, a.translate(b)).translation == b
        _as_loop(a.translate(b), _cloud(rng))


def test_exact_translation_matches_loop_on_python_int_grids():
    rng = random.Random(9)
    for big in (2 ** 29, 2 ** 40, 3 ** 30):
        w = _cloud(rng, 30, 6)
        b = zp(Fraction(-big, 3), big)
        assert w.translate(b).grid[0].dtype == object
        assert _as_loop(w, w.translate(b)).translation == b
        far = w.translate(zp(big, Fraction(1, 7)))
        _as_loop(far, far.translate(b))
        _as_loop(w, _cloud(rng, 30, 6).translate(zp(Fraction(1, big), Fraction(3, big + 1))))


def test_exact_translation_without_a_live_candidate_is_none():
    # every candidate moves w1's centre 50 away from w2's: rho <= band
    pts = [zp(k) for k in range(-3, 4)]
    far = fc.ZeroWindow(sorted(pts, key=lambda p: (p.norm2(), p.re < 0)), 4, center=zp(50))
    near = fc.ZeroWindow.from_points(pts, radius=4)
    for a, b in ((far, near), (near, far)):
        res = _as_loop(a, b)
        assert res == fc.EquivResult(False, None, 0.0)


# ---------------------------------------------------------------------------
# affine automorphisms


def test_integer_window_automorphisms():
    w = fc.generate(fc.GeneratorSpec("all-integers"), 6)
    autos = fc.affine_automorphisms(w)
    # {id, -id} x horizontal shifts that keep the probe ball inside
    assert len(autos) == 18
    keys = {(a.entries(), (t.re, t.im)) for a, t in autos}
    ident = Mat2.identity().entries()
    assert (ident, (Fraction(0), Fraction(0))) in keys
    assert ((-Mat2.identity()).entries(), (Fraction(0), Fraction(0))) in keys
    for a, t in autos:
        assert t.im == 0
        assert a.entries() in (ident, (-Mat2.identity()).entries())


def test_lattice_window_automorphisms_include_quarter_turn():
    w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), 6)
    autos = fc.affine_automorphisms(w, StabilizerSearchConfig(inner_radius=2.5))
    assert len(autos) == 452
    rot = Mat2.of(0, -1, 1, 0).entries()
    assert any(a.entries() == rot and t.is_zero() for a, t in autos)
    assert any(a.entries() == Mat2.identity().entries() and t.is_zero()
               for a, t in autos)


def test_perturbed_lattice_is_rigid():
    pts = [zp(a, b) for a in range(-6, 7) for b in range(-6, 7)
           if a * a + b * b <= Fraction(31, 5) ** 2]
    pts[pts.index(zp(1, 0))] = zp(Fraction(8, 7), Fraction(1, 11))
    w = fc.ZeroWindow.from_points(pts, radius=Fraction(31, 5))
    autos = fc.affine_automorphisms(w, StabilizerSearchConfig(inner_radius=2.5))
    assert len(autos) == 1
    a, t = autos[0]
    assert a.entries() == Mat2.identity().entries()
    assert t.is_zero()


def test_automorphisms_need_three_points():
    w = fc.ZeroWindow.from_points([zp(0), zp(1)], radius=2)
    with pytest.raises(fc.TooFewPoints):
        fc.affine_automorphisms(w)


# ---------------------------------------------------------------------------
# moduli coordinates


def test_moduli_canonical_integer_run():
    w = fc.ZeroWindow.from_points([zp(k) for k in (1, 2, 3, 4)], radius=5)
    m = fc.moduli_canonical(w)
    assert m.canonical_points[0].is_zero()
    assert m.c0_coords == (zp(1), zp(Fraction(1, 2)), zp(Fraction(1, 3)))
    assert m.sup_norm == 1.0
    assert m.origin_excluded
    assert not m.c0_empty


def test_moduli_canonical_vertical_run():
    w = fc.ZeroWindow.from_points([zp(0), zp(0, 1), zp(0, 2)], radius=3)
    m = fc.moduli_canonical(w)
    assert m.c0_coords == (zp(0, -1), zp(0, Fraction(-1, 2)))


def test_moduli_singleton_is_empty():
    m = fc.moduli_canonical(fc.ZeroWindow.from_points([zp(7)], radius=8))
    assert m.c0_empty
    assert m.sup_norm == 0.0
    assert m.canonical_points == (zp(0),)


def test_moduli_to_dict_round_trips_strings():
    w = fc.ZeroWindow.from_points([zp(k) for k in (1, 2, 3)], radius=4)
    d = fc.moduli_canonical(w).to_dict()
    assert d["c0_coords"] == [["1", "0"], ["1/2", "0"]]
    assert d["origin_excluded"] is True


def test_moduli_action_matches_reciprocal_of_shift():
    rng = random.Random(5)
    checked = 0
    while checked < 200:
        zs = [zp(Fraction(rng.randint(-30, 30), rng.randint(1, 7)),
                 Fraction(rng.randint(-30, 30), rng.randint(1, 7)))
              for _ in range(6)]
        zs = [z for z in zs if not z.is_zero()]
        b = zp(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        if any((z + b).is_zero() for z in zs):
            continue
        got = fc.moduli_action([zreciprocal(z) for z in zs], b)
        assert got == [zreciprocal(z + b) for z in zs]
        checked += 1


def test_moduli_action_composes():
    rng = random.Random(77)
    checked = 0
    while checked < 200:
        us = [zp(Fraction(rng.randint(-20, 20), rng.randint(1, 6)),
                 Fraction(rng.randint(-20, 20), rng.randint(1, 6)))
              for _ in range(5)]
        b1 = zp(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        b2 = zp(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        try:
            two_steps = fc.moduli_action(fc.moduli_action(us, b1), b2)
            one_step = fc.moduli_action(us, b1 + b2)
        except fc.PoleInAction:
            continue
        assert two_steps == one_step
        checked += 1


def test_moduli_action_pole_reports_index():
    with pytest.raises(fc.PoleInAction) as exc:
        fc.moduli_action([zp(Fraction(1, 2)), zp(1)], zp(-1))
    assert exc.value.index == 1
    assert exc.value.code == "PoleInAction"
