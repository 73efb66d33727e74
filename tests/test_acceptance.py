"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single [PASS] line once its assertions hold, so a
verbose run reads as a checklist.  Budgets are wall-clock seconds on a
stock container; they are asserted, not aspirational.
"""

import math
import random
import time
from fractions import Fraction

import pytest

import flatcurve as fc
from flatcurve.veech import Mat2, StabilizerSearchConfig

from conftest import pair_list, zp


def _cloud(rng, n, radius, den=6, span=24):
    pts = {zp(0)}
    while len(pts) < n:
        p = zp(Fraction(rng.randint(-span, span), den),
               Fraction(rng.randint(-span, span), den))
        if float(p.norm2()) <= radius * radius:
            pts.add(p)
    return fc.ZeroWindow.from_points(
        sorted(pts, key=lambda q: (float(q.re), float(q.im))), radius=radius)


def _hol_key_set(h):
    return {(v.re, v.im) for v in h.vectors}


# ---------------------------------------------------------------------------
# 1. golden classifications at R = 30, r = 10


def test_criterion_1_golden_classifications():
    cfg = StabilizerSearchConfig(inner_radius=10)
    expected = [
        ("positive-integers", "P"),
        ("all-integers", "Pprime"),
        ("odd4n13-positive", "P"),
        ("odd4n13-all", "Pprime"),
        ("gaussian-lattice", "Countable"),
    ]
    reports = {}
    for kind, want in expected:
        w = fc.generate(fc.GeneratorSpec(kind), 30)
        t0 = time.perf_counter()
        rep = fc.classify(w, cfg)
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"{kind} took {elapsed:.1f}s"
        assert rep.kind == want, f"{kind}: got {rep.kind}"
        reports[kind] = rep

    assert reports["positive-integers"].theta == 0.0

    lat = reports["gaussian-lattice"]
    lower = {m.entries() for m in lat.lower}
    for a, b, c, d in [(1, 1, 0, 1), (1, 0, 1, 1), (0, -1, 1, 0)]:
        assert Mat2.of(a, b, c, d).entries() in lower
    for m in lat.lower:
        assert m.det == 1
        assert all(Fraction(e).denominator == 1 for e in m.entries())
    assert lat.containment_ok is True
    print(f"\n[PASS] criterion 1: five window families classified "
          f"(lattice lower set has {len(lat.lower)} candidates)")


# ---------------------------------------------------------------------------
# 2. holonomy goldens


def test_criterion_2_holonomy_goldens():
    w = fc.generate(fc.GeneratorSpec("positive-integers"), 30)
    h = fc.holonomy(w)
    assert _hol_key_set(h) == {(Fraction(1), Fraction(0)),
                               (Fraction(-1), Fraction(0))}

    w = fc.generate(fc.GeneratorSpec("integers-plus-minus-i"), 30)
    h = fc.holonomy(w)
    got = _hol_key_set(h)

    oracle = set()
    for i, j in fc.visible_pairs_bruteforce(w):
        v = w.points[j] - w.points[i]
        oracle.add((v.re, v.im))
        oracle.add((-v.re, -v.im))
    assert got == oracle

    for l in range(-25, 26):
        assert (Fraction(l), Fraction(1)) in got
        assert (Fraction(-l), Fraction(-1)) in got

    # The unit horizontal pair is present on purpose: adjacent collinear
    # zeros are mutually visible, so +/-1 genuinely belongs to this set
    # even though abridged listings of it sometimes stop at the l+i rows.
    assert (Fraction(1), Fraction(0)) in got
    assert (Fraction(-1), Fraction(0)) in got

    profile = fc.direction_profile(h)
    assert sorted(profile.accumulation) == [
        pytest.approx(0.0), pytest.approx(math.pi)]
    print(f"\n[PASS] criterion 2: holonomy goldens ({len(got)} vectors, "
          f"accumulation at 0 and pi)")


# ---------------------------------------------------------------------------
# 3. enumeration equals brute force


def test_criterion_3_enumeration_matches_bruteforce():
    rng = random.Random(40)
    windows = 0
    for _ in range(30):
        n = rng.randint(40, 200)
        w = _cloud(rng, n, 10, den=4, span=40)
        assert pair_list(fc.visible_pairs(w)) == fc.visible_pairs_bruteforce(w)
        windows += 1
    fm = fc.float_mode(1e-9)
    for _ in range(20):
        n = rng.randint(40, 200)
        pts = {(0.0, 0.0)}
        while len(pts) < n:
            x, y = rng.uniform(-10, 10), rng.uniform(-10, 10)
            if x * x + y * y <= 100.0:
                pts.add((x, y))
        w = fc.ZeroWindow.from_points(
            [fc.ZPoint(x, y) for x, y in sorted(pts)], radius=10, mode=fm)
        assert pair_list(fc.visible_pairs(w)) == fc.visible_pairs_bruteforce(w)
        windows += 1
    assert windows == 50
    print("\n[PASS] criterion 3: optimized enumeration = brute force "
          "on 50 random windows")


# ---------------------------------------------------------------------------
# 4. product evaluation against a classical limit


def test_criterion_4_product_numeric_check():
    t0 = time.perf_counter()
    fm = fc.float_mode(1e-9)

    def window(N):
        pts = []
        for k in range(1, N + 1):
            pts.append(fc.ZPoint(float(k), 0.0))
            pts.append(fc.ZPoint(float(-k), 0.0))
        return fc.ZeroWindow.from_points(pts, radius=float(N), mode=fm)

    errors = []
    for N in (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5):
        val = fc.eval_f(0.5, window(N), degrees=1, e0=1)
        errors.append(abs(val - 1 / math.pi))
    assert errors[-1] <= 1e-4
    assert all(a > b for a, b in zip(errors, errors[1:]))

    w = window(10 ** 3)
    for k in (1, 2, 3):
        box = (k - 0.5, k + 0.5, -0.5, 0.5)
        assert fc.count_zeros(w, box, degrees=1, e0=1) == 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 4: |f(1/2) - 1/pi| = {errors[-1]:.2e} at "
          f"N=1e5, error monotone, windings 1/1/1, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 5. cyclic cover behavior


def test_criterion_5_cover_properties():
    w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), 4)
    zeros = {p.to_complex() for p in w.points}
    rng = random.Random(15)

    for m in (2, 3, 5):
        bases = 0
        while bases < 100:
            base = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if base in zeros:
                continue
            pts = fc.fiber(base, w, m)
            assert len(pts) == m
            assert sorted(p.sheet for p in pts) == list(range(m))
            bases += 1

        ca = fc.cone_angle(0, w, m)
        assert ca.turns == m
        assert ca.loop_delta == 1
        assert ca.angle == pytest.approx(2 * math.pi * m)

        cuts = fc.build_cuts(w, m)
        seg = next(s for s in fc.saddle_connections(w, m) if not s.provisional)
        lifts = fc.lift_saddle(seg, w, cuts)
        assert len(lifts) == m
        assert sorted(ls.start_sheet for ls in lifts) == list(range(m))
        assert len({ls.delta for ls in lifts}) == 1
        for ls in lifts:
            assert isinstance(ls.start_sheet, int) and isinstance(ls.delta, int)
            assert ls.end_sheet == (ls.start_sheet + ls.delta) % m

    def vertex():
        while True:
            a = rng.randint(-339, 339)
            b = rng.randint(-339, 339)
            if a % 97 and b % 97:
                return zp(Fraction(a, 97), Fraction(b, 97))

    pairs = 0
    while pairs < 200:
        m = rng.choice((2, 3, 5))
        cuts = fc.build_cuts(w, m)
        v0, v1, v2, v3 = vertex(), vertex(), vertex(), vertex()
        start = fc.CoverPoint(v0.to_complex(), rng.randrange(m))
        mid = fc.lift_path([v0, v1, v2], start, cuts)
        via_mid = fc.lift_path([v2, v3], mid, cuts)
        direct = fc.lift_path([v0, v1, v2, v3], start, cuts)
        assert via_mid == direct
        pairs += 1
    print("\n[PASS] criterion 5: fibers, cone angles, saddle lifts and "
          "200 concatenations for m in {2, 3, 5}")


# ---------------------------------------------------------------------------
# 6. property suites


def test_criterion_6_invariant_suites():
    rng = random.Random(60)

    # holonomy sets are closed under negation
    cases = 0
    for _ in range(25):
        h = fc.holonomy(_cloud(rng, 14, 7, den=5, span=30))
        keys = _hol_key_set(h)
        for v in h.vectors:
            assert (-v.re, -v.im) in keys
            cases += 1
    assert cases >= 1000
    neg_cases = cases

    # translation / rotation / scaling equivariance
    u = zp(Fraction(3, 5), Fraction(4, 5))  # exact unit: |3/5 + 4i/5| = 1
    t_cases = r_cases = s_cases = 0
    for _ in range(12):
        w = _cloud(rng, 14, 7, den=5, span=30)
        base = _hol_key_set(fc.holonomy(w))

        b = zp(Fraction(rng.randint(-20, 20), 7), Fraction(rng.randint(-20, 20), 7))
        moved = _hol_key_set(fc.holonomy(w.translate(b)))
        assert moved == base
        t_cases += len(base)

        rot = fc.ZeroWindow.from_points(
            [fc.zseq.zmul(u, p) for p in w.points], radius=w.radius)
        got = _hol_key_set(fc.holonomy(rot))
        want = {((a * u.re - b2 * u.im), (a * u.im + b2 * u.re))
                for a, b2 in base}
        assert got == want
        r_cases += len(base)

        c = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        scaled = fc.ZeroWindow.from_points(
            [fc.ZPoint(c * p.re, c * p.im) for p in w.points],
            radius=Fraction(c) * Fraction(w.radius))
        got = _hol_key_set(fc.holonomy(scaled))
        assert got == {(c * a, c * b2) for a, b2 in base}
        s_cases += len(base)
    assert min(t_cases, r_cases, s_cases) >= 1000

    # is_contracting agrees with a sampled-direction oracle
    checked = 0
    while checked < 1000:
        m = Mat2.of(*(Fraction(rng.randint(-20, 20), 8) for _ in range(4)))
        try:
            got = fc.is_contracting(m)
        except fc.SingularMatrix:
            continue
        worst = 0.0
        fm = fc.float_mode(1e-9)
        mf = Mat2.of(*(float(e) for e in m.entries()), mode=fm)
        for k in range(720):
            t = math.pi * k / 720
            img = mf.apply(fc.ZPoint(math.cos(t), math.sin(t)))
            worst = max(worst, math.hypot(float(img.re), float(img.im)))
        if abs(worst - 1.0) < 1e-3:
            continue
        assert got == (worst < 1.0)
        checked += 1

    # every stabilizer candidate has det > 0 and does not contract
    searched = 0
    candidates = 0
    while searched < 1000:
        w = _cloud(rng, 10, 5)
        try:
            cands = fc.stabilizer_candidates(w, StabilizerSearchConfig(inner_radius=2.5))
        except fc.DegenerateWindow:
            continue
        for a in cands:
            assert a.det > 0
            assert not fc.is_contracting(a)
        candidates += len(cands)
        searched += 1
    lat8 = fc.generate(fc.GeneratorSpec("gaussian-lattice"), 8)
    for a in fc.stabilizer_candidates(lat8, StabilizerSearchConfig(inner_radius=3)):
        assert a.det > 0 and not fc.is_contracting(a)
        candidates += 1

    # the lattice candidate set closes under multiplication
    lat12 = fc.generate(fc.GeneratorSpec("gaussian-lattice"), 12)
    cfg = StabilizerSearchConfig(inner_radius=4, entry_bound=3)
    cands = fc.stabilizer_candidates(lat12, cfg)
    rep = fc.group_closure_check(cands, lat12, cfg)
    assert rep.violations == []
    assert rep.checked + rep.skipped == len(cands) ** 2

    # classification is translation invariant
    cls_cases = 0
    for _ in range(1000):
        n = rng.randint(5, 14)
        start = rng.randint(-4, 4)
        w = fc.ZeroWindow.from_points([zp(start + k) for k in range(n)], radius=20)
        b = zp(Fraction(rng.randint(-30, 30), 7), Fraction(rng.randint(-30, 30), 7))
        assert fc.classify(w).kind == fc.classify(w.translate(b)).kind
        cls_cases += 1
    small_cfg = StabilizerSearchConfig(inner_radius=2)
    lat5 = fc.generate(fc.GeneratorSpec("gaussian-lattice"), 5)
    b = zp(Fraction(5, 3), Fraction(-2, 7))
    assert fc.classify(lat5, small_cfg).kind == "Countable"
    assert fc.classify(lat5.translate(b), small_cfg).kind == "Countable"

    # a window is collinear exactly when all its holonomy is parallel
    par_cases = 0
    for i in range(1000):
        if i % 2 == 0:
            while True:
                a, b2 = rng.randint(-3, 3), rng.randint(-3, 3)
                if a or b2:
                    break
            n = rng.randint(3, 6)
            w = fc.ZeroWindow.from_points(
                [zp(k * a, k * b2) for k in range(n)], radius=30)
        else:
            w = _cloud(rng, 10, 5)
        h = fc.holonomy(w)
        assert fc.window_collinear(w) == fc.flatgeom.vectors_parallel(h.grid, w.mode)
        par_cases += 1

    print(f"\n[PASS] criterion 6: invariant suites "
          f"(negation {neg_cases}, equivariance {t_cases}/{r_cases}/{s_cases}, "
          f"contraction 1000, searches {searched} with {candidates} candidates, "
          f"closure clean, classify {cls_cases}, parallel {par_cases})")


# ---------------------------------------------------------------------------
# 7. equivalence and moduli


def test_criterion_7_equivalence():
    rng = random.Random(70)
    for _ in range(100):
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
        assert res.equivalent and res.translation == b

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
            two = fc.moduli_action(fc.moduli_action(us, b1), b2)
            one = fc.moduli_action(us, b1 + b2)
        except fc.PoleInAction:
            continue
        assert two == one
        checked += 1

    pts = [zp(a, b) for a in range(-6, 7) for b in range(-6, 7)
           if a * a + b * b <= Fraction(31, 5) ** 2]
    pts[pts.index(zp(1, 0))] = zp(Fraction(8, 7), Fraction(1, 11))
    w = fc.ZeroWindow.from_points(pts, radius=Fraction(31, 5))
    autos = fc.affine_automorphisms(w, StabilizerSearchConfig(inner_radius=2.5))
    assert len(autos) == 1
    a, t = autos[0]
    assert a.entries() == Mat2.identity().entries() and t.is_zero()
    print("\n[PASS] criterion 7: 100 planted translations recovered, "
          "moduli action composes exactly, perturbed lattice is rigid")
