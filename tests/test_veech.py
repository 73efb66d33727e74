import math
import random
from fractions import Fraction

import numpy as np
import pytest

import flatcurve as fc
from flatcurve import equiv, flatgeom, gridsearch, veech, zseq
from flatcurve.veech import Mat2, StabilizerSearchConfig

from conftest import zp
from test_flatgeom import (_BIG_DENS, _MEMBER_WINDOWS, _ORBIT_SPEC, _bitmap_points, _cap_box,
                           _keys_of, _perfbench_cloud, _points_about, _rational_cloud)


# ---------------------------------------------------------------------------
# matrices


def test_mat2_algebra():
    a = Mat2.of(1, 1, 0, 1)
    b = Mat2.of(0, -1, 1, 0)
    assert (a @ b).entries() == (1, -1, 1, 0)
    assert a.det == 1
    assert a.inverse().entries() == (1, -1, 0, 1)
    assert (a @ a.inverse()).entries() == Mat2.identity().entries()
    assert a.apply(zp(2, 3)) == zp(5, 3)
    assert (-a).entries() == (-1, -1, 0, -1)


def test_mat2_singular_inverse():
    with pytest.raises(fc.SingularMatrix):
        Mat2.of(1, 2, 2, 4).inverse()


def test_is_contracting_basic():
    assert fc.is_contracting(Mat2.of(Fraction(1, 2), 0, 0, Fraction(1, 2)))
    assert not fc.is_contracting(Mat2.identity())
    assert not fc.is_contracting(Mat2.of(1, 1, 0, 1))  # shear preserves norm 1
    assert not fc.is_contracting(Mat2.of(0, -1, 1, 0))  # rotation
    assert not fc.is_contracting(Mat2.of(2, 0, 0, Fraction(1, 3)))
    with pytest.raises(fc.SingularMatrix):
        fc.is_contracting(Mat2.of(0, 0, 0, 0))


def test_is_contracting_matches_direction_sweep():
    # oracle: max |Mv| over many unit directions, for matrices whose
    # singular values sit safely away from 1
    rng = random.Random(97)
    checked = 0
    while checked < 1000:
        m = Mat2.of(*(Fraction(rng.randint(-20, 20), 8) for _ in range(4)))
        try:
            got = fc.is_contracting(m)
        except fc.SingularMatrix:
            continue
        worst = 0.0
        for k in range(720):
            t = math.pi * k / 720
            v = fc.ZPoint(math.cos(t), math.sin(t))
            img = Mat2.of(*(float(e) for e in m.entries()),
                          mode=fc.float_mode(1e-9)).apply(v)
            worst = max(worst, math.hypot(float(img.re), float(img.im)))
        if abs(worst - 1) < 1e-3:
            continue  # too close to the boundary for the sampled oracle
        assert got == (worst < 1)
        checked += 1


# ---------------------------------------------------------------------------
# stabilizer search


def _toy_hol():
    # holonomy set {+-1, +-i} with no window behind it
    vecs = [zp(1), zp(-1), zp(0, 1), zp(0, -1)]
    return fc.HolonomySet(vecs, window_radius=1.5, mode=fc.EXACT)


def test_hol_stabilizer_toy_square():
    cands = fc.hol_stabilizer(_toy_hol(), StabilizerSearchConfig(
        inner_radius=1.2, entry_bound=2))
    ints = {tuple(int(e) for e in m.entries()) for m in cands}
    assert ints == {(1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0)}


def test_stabilizer_candidates_lattice_shears(lattice5):
    cands = fc.stabilizer_candidates(lattice5, StabilizerSearchConfig(
        inner_radius=2, entry_bound=2))
    ints = {tuple(int(e) for e in m.entries()) for m in cands}
    assert (1, 1, 0, 1) in ints
    assert (1, 0, 1, 1) in ints
    assert (0, -1, 1, 0) in ints
    for m in cands:
        assert m.det > 0
        assert not fc.is_contracting(m)


def test_stabilizer_candidates_identity_always_present(integers10, lattice5):
    cands = fc.stabilizer_candidates(lattice5, StabilizerSearchConfig(
        inner_radius=2, entry_bound=1))
    assert any(m.entries() == (1, 0, 0, 1) for m in cands)


def test_hol_stabilizer_rejects_parallel_vectors():
    h = fc.HolonomySet([zp(1), zp(-1), zp(2), zp(-2)],
                       window_radius=3, mode=fc.EXACT)
    with pytest.raises(fc.DegenerateWindow):
        fc.hol_stabilizer(h, StabilizerSearchConfig(inner_radius=1.5))


def test_search_config_validation(lattice5):
    with pytest.raises(ValueError):
        fc.stabilizer_candidates(lattice5, StabilizerSearchConfig(inner_radius=9))


# ---------------------------------------------------------------------------
# classification


def test_classify_positive_integers_P():
    vc = fc.classify(fc.generate(fc.GeneratorSpec("positive-integers"), 12))
    assert vc.kind == "P"
    assert vc.theta == pytest.approx(0.0)
    assert vc.symmetry_center is None
    assert vc.window_consistent


def test_classify_all_integers_Pprime():
    vc = fc.classify(fc.generate(fc.GeneratorSpec("all-integers"), 12))
    assert vc.kind == "Pprime"
    assert vc.symmetry_center == zp(0)


def test_classify_odd_families():
    assert fc.classify(fc.generate(
        fc.GeneratorSpec("odd4n13-positive"), 14)).kind == "P"
    vc = fc.classify(fc.generate(fc.GeneratorSpec("odd4n13-all"), 14))
    assert vc.kind == "Pprime"
    # stored coordinates put the symmetry center one step left of 0
    assert vc.symmetry_center == zp(-1)


def test_classify_vertical_line_theta():
    pts = [zp(0, k) for k in range(-4, 5)]
    vc = fc.classify(fc.ZeroWindow.from_points(pts, 5))
    assert vc.kind == "Pprime"
    assert vc.theta == pytest.approx(math.pi / 2)


def test_classify_lattice_sandwich(lattice5):
    vc = fc.classify(lattice5, StabilizerSearchConfig(inner_radius=2))
    assert vc.kind == "Countable"
    assert vc.containment_ok
    assert len(vc.lower) >= 4
    lower = {tuple(int(e) for e in m.entries()) for m in vc.lower}
    upper = {tuple(int(e) for e in m.entries()) for m in vc.upper}
    assert lower <= upper


def test_classify_needs_two_points():
    with pytest.raises(fc.TooFewPoints):
        fc.classify(fc.ZeroWindow.from_points([zp(1)], 2))


def test_classify_translation_invariant_kind():
    rng = random.Random(41)
    w = fc.generate(fc.GeneratorSpec("all-integers"), 9)
    base = fc.classify(w).kind
    for _ in range(10):
        b = zp(rng.randint(-3, 3))
        moved = w.translate(b)  # still collinear, same family
        assert fc.classify(moved).kind == base


def test_half_line_never_reports_symmetry():
    # a one-sided window always carries a huge margin on the empty side
    for r in (6, 9, 13.5):
        w = fc.generate(fc.GeneratorSpec("positive-integers"), r)
        assert fc.pprime_symmetry(w) is None


def test_pprime_symmetry_requires_collinear(lattice5):
    with pytest.raises(ValueError):
        fc.pprime_symmetry(lattice5)


def test_pprime_symmetry_half_gap_center():
    # {-2,-1,0,1,2,3} sampled off-center: symmetric about 1/2
    pts = [zp(k) for k in range(-2, 4)]
    w = fc.ZeroWindow.from_points(pts, Fraction(7, 2))
    c = fc.pprime_symmetry(w)
    assert c == zp(Fraction(1, 2))


# ---------------------------------------------------------------------------
# sandwich and closure


def test_sandwich_report_containment(lattice5):
    lower, upper, ok = fc.sandwich_report(lattice5, StabilizerSearchConfig(
        inner_radius=2))
    assert ok
    assert len(lower) <= len(upper)


def test_group_closure_no_violations(lattice5):
    cands = fc.stabilizer_candidates(lattice5, StabilizerSearchConfig(
        inner_radius=2, entry_bound=2))
    rep = fc.group_closure_check(cands, lattice5, StabilizerSearchConfig(
        inner_radius=2, entry_bound=2))
    assert rep.ok
    assert rep.checked > 0
    assert rep.violations == []


def test_closure_report_serializable(lattice5):
    cands = fc.stabilizer_candidates(lattice5, StabilizerSearchConfig(
        inner_radius=2, entry_bound=2))
    rep = fc.group_closure_check(cands, lattice5, StabilizerSearchConfig(
        inner_radius=2, entry_bound=2))
    d = rep.to_dict()
    assert d["ok"] is True
    assert d["checked"] + d["skipped"] == len(cands) ** 2


# ---------------------------------------------------------------------------
# integer kernel against the Mat2/Fraction reference loop


def _ref_candidates(w, cfg):
    r, e, req = veech._resolve(cfg, w.radius)
    idx = w.index()
    return veech._search(w.points, veech._probes(w.grid, r, w.mode), list(w.points),
                         lambda v: v in idx, e, req, w.mode)


def _ref_hol_stabilizer(h, cfg):
    r, e, req = veech._resolve(cfg, h.window_radius)
    probes = veech._probes(h.grid, r, h.mode)
    pool = veech._hol_pool(h, probes[1], e)
    return veech._search(h.vectors, probes, list(pool.vectors), h.contains, e, req, h.mode)


def _same_closure(cands, w, cfg):
    got = fc.group_closure_check(cands, w, cfg)
    want = veech._closure_loop(cands, w, *veech._resolve(cfg, w.radius))
    assert (got.checked, got.skipped, got.violations) == \
        (want.checked, want.skipped, want.violations)


def _kernel_matches_reference(w, cfg):
    """Every exact search equals its reference loop on ``w``; returns the
    lower candidates."""
    lower = fc.stabilizer_candidates(w, cfg)
    assert lower == _ref_candidates(w, cfg)
    _same_closure(lower, w, cfg)
    # a candidate list that is not closed sends products through the action test
    _same_closure(lower[::2], w, cfg)
    r = veech._resolve(cfg, w.radius)[0]
    h_kernel, h_ref = fc.holonomy(w, max_length=r), fc.holonomy(w, max_length=r)
    assert fc.hol_stabilizer(h_kernel, cfg) == _ref_hol_stabilizer(h_ref, cfg)
    found = equiv._automorphisms_loop(w, lower, r)
    assert gridsearch.automorphisms(w, lower, r) == [found[k] for k in sorted(found)]
    return lower


def _grid_window(step_x, step_y, radius, center=zp(0)):
    """The points center + (a * step_x, b * step_y) within ``radius`` of
    ``center``, sampled in that ball."""
    kx, ky = int(radius / step_x) + 1, int(radius / step_y) + 1
    pts = [zp(a * step_x, b * step_y) + center for a in range(-kx, kx + 1)
           for b in range(-ky, ky + 1)
           if (a * step_x) ** 2 + (b * step_y) ** 2 <= Fraction(radius) ** 2]
    return fc.ZeroWindow(fc.canonical_order(pts), radius, center=center)


def test_kernel_matches_reference_on_rational_clouds():
    rng = random.Random(404)
    # 32749: int64 coordinates whose products leave int64, so the kernel
    # promotes to Python ints; the _BIG_DENS windows hold Python ints already
    for den in (*range(2, 8), 32749, *_BIG_DENS):
        w = _rational_cloud(rng, 24, den)
        for cfg in (StabilizerSearchConfig(inner_radius=7),
                    StabilizerSearchConfig(inner_radius=6, entry_bound=2,
                                           require_non_contracting=False)):
            try:
                _kernel_matches_reference(w, cfg)
            except fc.DegenerateWindow:
                with pytest.raises(fc.DegenerateWindow):
                    _ref_candidates(w, cfg)


def _spy(monkeypatch, name: str) -> list:
    """Record each call of ``gridsearch.<name>`` as (args, result)."""
    calls = []
    real = getattr(gridsearch, name)

    def spy(*args):
        got = real(*args)
        calls.append((args, got))
        return got

    monkeypatch.setattr(gridsearch, name, spy)
    return calls


@pytest.mark.parametrize("den", [1, _BIG_DENS[1]])
def test_kernel_matches_reference_on_lattices(den, monkeypatch):
    step = Fraction(1, den)
    w = _grid_window(step, step, 5 * step)
    lower = _kernel_matches_reference(w, StabilizerSearchConfig(inner_radius=2 * step))
    assert len(lower) > 4
    h = fc.holonomy(w, max_length=2 * step)
    decided = _spy(monkeypatch, "_has_grid_vectors")
    fc.hol_stabilizer(h, StabilizerSearchConfig(inner_radius=2 * step))
    # images past the restriction went to the window
    assert any(len(vx) for (_, vx, _), _ in decided)


def test_kernel_decides_each_open_image_once(monkeypatch):
    w = _grid_window(1, 1, 12)
    h = fc.holonomy(w, max_length=4)
    accepts = _spy(monkeypatch, "_accept")
    decided = _spy(monkeypatch, "_has_grid_vectors")
    upper = fc.hol_stabilizer(h, StabilizerSearchConfig(inner_radius=4))
    assert len(accepts) == 1 and len(upper) > 4
    # v and -v are one image
    images = [max((x, y), (-x, -y)) for (_, vx, vy), _ in decided
              for x, y in zip(vx.tolist(), vy.tolist())]
    assert len(images) > 1 and len(set(images)) == len(images)


@pytest.mark.parametrize("name", list(_MEMBER_WINDOWS))
def test_bitmap_and_key_targets_give_equal_hits_and_open_images(name):
    """The kernel's targets, the window's points and the vectors of its
    restricted holonomy sets, give the same hits and open images whether
    looked up in their bitmap or among sorted keys of the same points."""
    w = _MEMBER_WINDOWS[name]()
    rng = np.random.default_rng(len(w))
    targets = [gridsearch._window_targets(w)]
    for length in (1.5, 3.5):
        h = fc.holonomy(w, max_length=length)
        if len(h):
            targets.append(gridsearch._hol_targets(h))
    opened = 0
    for t in targets:
        assert isinstance(t.members, flatgeom._Bitmap)
        keys = t._replace(members=_keys_of(t.members))
        reach = max(t.limit, int(np.abs(w.grid[0]).max()), int(np.abs(w.grid[1]).max()))
        x, y = _points_about(-reach, reach, *_bitmap_points(t.members), rng)
        on_grid = rng.random(len(x)) < 0.9
        got, want = t.lookup(x, y, on_grid), keys.lookup(x, y, on_grid)
        assert np.array_equal(got[0], want[0]) and got[0].any()
        assert (got[1] is None) == (want[1] is None) == (t.window is None)
        if t.window is not None:
            assert np.array_equal(got[1], want[1])
            opened += int(got[1].sum())
    assert opened or len(targets) == 1


def test_kernel_takes_bitmaps_up_to_their_cap_and_sorted_keys_past_it(monkeypatch):
    """Every exact lookup site, the kernel's targets, window vectors,
    visibility's first steps and translation equivalence, looks lattices,
    clouds, the orbit window and a box at the cap up in bitmaps, and
    Python-int grids and boxes past the cap among sorted keys."""
    used = []
    for cls in (flatgeom._Bitmap, flatgeom._SortedKeys):
        monkeypatch.setattr(cls, "contains", lambda self, x, y, real=cls.contains:
                            used.append(type(self).__name__) or real(self, x, y))
    python_ints = _grid_window(1, 1, 5, center=zp(Fraction(1, 1 << 40)))
    wide = _grid_window(1, 1, 5, center=zp(Fraction(1, 32749)))
    assert python_ints.grid[0].dtype == object and wide.grid[0].dtype == np.int64
    # reduced for visibility, this box still spans more than 2**28
    python_box = fc.ZeroWindow.from_points([zp(0), zp(1), zp(1 << 29, 1 << 29)], 1 << 30)
    assert python_box.grid[0].dtype == object
    lattices = [fc.generate(fc.GeneratorSpec("gaussian-lattice"), r) for r in (5, 9, 12)]
    clouds = [_perfbench_cloud(seed, 45, 5, 10) for seed in (1, 3, 11)]
    orbit = fc.generate(_ORBIT_SPEC, 6)
    at_cap, over = _cap_box(1 << 22), _cap_box((1 << 22) + 1)

    def sandwich_ok(w):
        lower, upper, ok = fc.sandwich_report(w)
        return ok and len(upper) > 1

    def box_candidates(w):
        cfg = StabilizerSearchConfig(inner_radius=float(w.radius) * (1 - 1e-6))
        return len(fc.stabilizer_candidates(w, cfg)) >= 1

    sites = {
        "kernel": (sandwich_ok, [*lattices, orbit], [python_ints, wide]),
        "kernel on boxes": (box_candidates, [at_cap], [over, python_box]),
        "window vectors": (lambda w: fc.has_holonomy_vector(w, zp(1)), [at_cap],
                           [over, python_box]),
        "visibility": (lambda w: len(fc.visible_pairs(w)) > 0, [*clouds, orbit, at_cap],
                       [over, python_box]),
        "translation": (lambda w: fc.translation_equiv(w, w).equivalent,
                        [*lattices, *clouds, orbit, at_cap],
                        [over, python_ints, wide, python_box]),
    }
    for site, (call, bitmaps, keys) in sites.items():
        for ws, want in ((bitmaps, "_Bitmap"), (keys, "_SortedKeys")):
            for k, w in enumerate(ws):
                used.clear()
                assert call(w), (site, k)
                assert set(used) == {want}, (site, k)


@pytest.mark.parametrize("r", [math.sqrt(5), math.sqrt(5) * (1 + 1e-13)])
def test_kernel_matches_reference_on_finer_restricted_holonomy_set(r, monkeypatch):
    # every point of the half-integer grid shorter than sqrt(5) is listed,
    # so the set's grid is twice as fine as its window's and some open
    # images are off the window grid; the restriction lies at the length of
    # the unlisted (1, 2), or just above it, so some open images have a
    # norm in (r (1 - 1e-12), r]
    w = _grid_window(1, 1, 6)
    vecs = [zp(Fraction(a, 2), Fraction(b, 2)) for a in range(-4, 5) for b in range(-4, 5)
            if 0 < a * a + b * b < 20]
    opened = _spy(monkeypatch, "_unpacked")
    for cfg in (StabilizerSearchConfig(inner_radius=1.2, entry_bound=3),
                StabilizerSearchConfig(inner_radius=1.6, entry_bound=2,
                                       require_non_contracting=False)):
        h_kernel, h_ref = (fc.HolonomySet(vecs, 6, fc.EXACT, restricted_to=r, window=w)
                           for _ in range(2))
        assert h_kernel.grid[2] == 2 * w.grid[2]
        assert fc.hol_stabilizer(h_kernel, cfg) == _ref_hol_stabilizer(h_ref, cfg)
    images = [(x, y) for _, (xs, ys) in opened for x, y in zip(xs.tolist(), ys.tolist())]
    assert any(x % 2 or y % 2 for x, y in images)
    assert any(r * (1 - 1e-12) < math.sqrt((x * x + y * y) / 4) <= r for x, y in images)


@pytest.mark.parametrize("exact", [True, False])
def test_hol_stabilizer_keeps_listed_images_past_the_anchors_reach(exact):
    # from entry bound 3.5 on, the anchors reach past the restriction and
    # the pool is re-enumerated from the window, which lacks the listed
    # half-integer vectors; joined with them, no matrix is lost
    mode = fc.EXACT if exact else fc.float_mode(1e-9)
    w = fc.ZeroWindow.from_points([fc.ZPoint.of(p.re, p.im, mode) for p in _grid_window(1, 1, 6)],
                                  6, mode)
    vecs = [fc.ZPoint.of(Fraction(a, 2), Fraction(b, 2), mode)
            for a in range(-4, 5) for b in range(-4, 5) if 0 < a * a + b * b < 20]

    def upper(e):
        cfg = StabilizerSearchConfig(inner_radius=1.2, entry_bound=e)
        h, h_ref = (fc.HolonomySet(vecs, 6, mode, restricted_to=math.sqrt(5), window=w)
                    for _ in range(2))
        got = fc.hol_stabilizer(h, cfg)
        assert got == _ref_hol_stabilizer(h_ref, cfg)
        return got

    want = upper(3)
    assert len(want) == 20
    for e in (3.5, 4, 5):
        assert upper(e) == want


def _checkerboard(radius, mode):
    """The points x + iy with x + y even in the closed ball of ``radius``."""
    pts = [fc.ZPoint.of(x, y, mode) for x in range(-radius, radius + 1)
           for y in range(-radius, radius + 1) if (x + y) % 2 == 0 and x * x + y * y <= radius ** 2]
    return fc.ZeroWindow.from_points(pts, radius, mode)


@pytest.mark.parametrize("radius", [10, 14])
@pytest.mark.parametrize("exact", [True, False])
def test_restricted_upper_equals_the_unrestricted_upper(radius, exact):
    """The pool filter admits images of the anchor (x, y) out to E sqrt(2)
    (|x| + |y|), and the re-enumeration of a restricted set reaches as far:
    its upper bound equals that of the full holonomy set, and holds the
    lower.  With (r, E) = (2, 4), [[-4, -3], [3, 2]] sends the anchor
    (1, 1) to (-7, 5), at 8.60, past the 8 of E sqrt(2) |(1, 1)|."""
    mode = fc.EXACT if exact else fc.float_mode(1e-9)
    w = _checkerboard(radius, mode)
    full = fc.holonomy(w)
    for r, e in ((2, 4), (2.5, 5.5), (1.5, 6)) if exact else ((2, 4),):
        cfg = StabilizerSearchConfig(r, e)
        lower, upper, ok = fc.sandwich_report(w, cfg)
        assert ok and upper == fc.hol_stabilizer(full, cfg), (r, e)
        assert {veech._matrix_key(m, mode) for m in lower} <= \
            {veech._matrix_key(m, mode) for m in upper}
    got = fc.classify(w, StabilizerSearchConfig(2, 4))
    assert got.containment_ok
    assert Mat2.of(-4, -3, 3, 2, mode) in got.upper


@pytest.mark.parametrize("exact", [True, False])
def test_hol_pool_of_an_enumerated_set_is_the_re_enumeration(exact):
    # a set built by holonomy() lists no vector its window's longer
    # enumeration lacks, so joining it changes no value of the pool
    mode = fc.EXACT if exact else fc.float_mode(1e-9)
    joined = 0
    for w in (fc.generate(fc.GeneratorSpec("gaussian-lattice"), 8, mode),
              fc.generate(fc.GeneratorSpec("integers-plus-minus-i"), 10, mode)):
        for length in (1.5, 2, 3):
            h = fc.holonomy(w, max_length=length)
            pair = veech._probes(h.grid, 2.5, mode)[1]
            for e in (2, 3, 4, 5):
                pool = veech._hol_pool(h, pair, e)
                if pool is h:
                    continue
                joined += 1
                want = fc.holonomy(w, max_length=pool.restricted_to)
                assert [a.dtype for a in pool.grid[:2]] == [a.dtype for a in want.grid[:2]]
                assert [a.tobytes() for a in pool.grid[:2]] == [a.tobytes() for a in want.grid[:2]]
                assert pool.grid[2] == want.grid[2] and pool.vectors == want.vectors
    assert joined > 10


def test_kernel_matches_reference_on_rectangular_grid():
    # base determinant 3 and rational entries
    cfg = StabilizerSearchConfig(inner_radius=1)
    lower = _kernel_matches_reference(_grid_window(Fraction(1, 3), 1, 3), cfg)
    assert any(m.b.denominator == 3 for m in lower)
    # the same grid moved off the origin: automorphisms with translations,
    # about a centre off the grid
    w = _grid_window(Fraction(1, 3), 1, 4, center=zp(Fraction(1, 3), Fraction(-2, 7)))
    _kernel_matches_reference(w, StabilizerSearchConfig(inner_radius=1.5))
    assert len(fc.affine_automorphisms(w, StabilizerSearchConfig(inner_radius=1.5))) > 1


def test_kernel_matches_reference_on_public_holonomy_set():
    vecs = [zp(1), zp(0, 1), zp(1, 1), zp(Fraction(1, 2), 3), zp(2, 1), zp(-1, 2)]
    for e in (1, 2, 3, 7 / 3):
        cfg = StabilizerSearchConfig(inner_radius=2.5, entry_bound=e)
        h = fc.HolonomySet(vecs, window_radius=5, mode=fc.EXACT)
        assert fc.hol_stabilizer(h, cfg) == _ref_hol_stabilizer(h, cfg)


def test_kernel_promotes_to_python_ints_past_int64(monkeypatch):
    assert gridsearch._ints((1 << 62) - 1, np.array([1]))[0].dtype == np.int64
    assert gridsearch._ints(1 << 62, np.array([1]))[0].dtype == object
    seen = []
    ints = gridsearch._ints

    def spy(bound, *arrays):
        out = ints(bound, *arrays)
        seen.append(out[0].dtype)
        return out

    monkeypatch.setattr(gridsearch, "_ints", spy)
    # scaled by 32749, the coordinates fit int64 but their products do not
    w = _grid_window(1, 1, 4, center=zp(Fraction(1, 32749)))
    cfg = StabilizerSearchConfig(inner_radius=1.5)
    assert fc.stabilizer_candidates(w, cfg) == _ref_candidates(w, cfg)
    assert w.grid[0].dtype == np.int64
    assert object in seen


def test_float_norm2_squares_past_int64():
    # pool coordinates between 2**31 and 2**61 fit int64, their squares do not
    rng = random.Random(61)
    xs = np.array([(1 << 31) + 7, -(1 << 40) - 3, (1 << 61) - 1, 5,
                   *(rng.randint(-(1 << 61), 1 << 61) for _ in range(40))], dtype=np.int64)
    ys = np.array([-(1 << 31), (1 << 45) + 1, -(1 << 61) + 9, 1 << 33,
                   *(rng.randint(-(1 << 61), 1 << 61) for _ in range(40))], dtype=np.int64)
    for scale in (1, 3, 32749, (1 << 40) + 1):
        got = gridsearch._float_norm2(xs, ys, scale)
        assert got.dtype == np.float64
        assert got.tolist() == [float(Fraction(x * x + y * y, scale * scale))
                                for x, y in zip(xs.tolist(), ys.tolist())]


# ---------------------------------------------------------------------------
# result order: integer rows against the Fraction-sorted reference loops


def _sorted_reference_automorphisms(w, cfg):
    r, e, req = veech._resolve(cfg, w.radius)
    if fc.window_collinear(w):
        linears = [Mat2.identity(), -Mat2.identity()]
    else:
        linears = _ref_candidates(w, cfg)
    found = equiv._automorphisms_loop(w, linears, r)
    return [found[k] for k in sorted(found)]


def _assert_ordered_as_reference(w, cfg):
    """The exact searches return the reference loops' lists, in their order;
    returns the lower candidates."""
    lower = fc.stabilizer_candidates(w, cfg)
    assert lower == _ref_candidates(w, cfg)
    r = veech._resolve(cfg, w.radius)[0]
    h_kernel, h_ref = fc.holonomy(w, max_length=r), fc.holonomy(w, max_length=r)
    assert fc.hol_stabilizer(h_kernel, cfg) == _ref_hol_stabilizer(h_ref, cfg)
    assert fc.affine_automorphisms(w, cfg) == _sorted_reference_automorphisms(w, cfg)
    return lower


def _first_pair_det(w, r):
    i, j = veech._probes(w.grid, r, w.mode)[1]
    return zseq.cross(w.points[i], w.points[j])


def _half_step(den):
    """1/2, or 1/2 + 1/den: on the grid of the latter, coordinates of about
    den, so int64 arrays for 32749 and Python ints for ``_BIG_DENS``."""
    return Fraction(1, 2) + (Fraction(1, den) if den > 1 else 0)


@pytest.mark.parametrize("den", [1, 32749, *_BIG_DENS])
def test_negative_base_determinant_orders_as_reference(den):
    # rows h < 1 apart, columns 1: (0, h) comes first, then (1, 0), so the
    # base determinant is negative and the integer rows are negated
    w = _grid_window(1, _half_step(den), 3)
    assert w.grid[0].dtype == (object if den in _BIG_DENS else np.int64)
    cfg = StabilizerSearchConfig(inner_radius=1.2)
    assert _first_pair_det(w, cfg.inner_radius) < 0
    lower = _assert_ordered_as_reference(w, cfg)
    assert len(lower) > 1
    assert lower == sorted(lower, key=Mat2.entries)


@pytest.mark.parametrize("den", [1, 32749, *_BIG_DENS])
def test_identity_added_below_unit_entry_bound_orders_as_reference(den):
    w = _grid_window(_half_step(den), 1, 4)
    cfg = StabilizerSearchConfig(inner_radius=1.5, entry_bound=0.5)
    assert _first_pair_det(w, cfg.inner_radius) > 0
    # no matrix with entries up to 1/2 permutes a lattice: the identity is
    # there by rule, not found by the kernel
    assert _assert_ordered_as_reference(w, cfg) == [Mat2.identity()]


@pytest.mark.parametrize("den", [1, 32749, *_BIG_DENS])
def test_collinear_automorphisms_order_as_reference(den):
    step = Fraction(1, den)
    pts = [zp(k * step + step / 7, 2 * k * step) for k in range(-4, 5)]
    w = fc.ZeroWindow(fc.canonical_order(pts), 9 * step, center=zp(step / 7))
    assert fc.window_collinear(w)
    cfg = StabilizerSearchConfig(inner_radius=float(3 * step))
    got = fc.affine_automorphisms(w, cfg)
    assert got == _sorted_reference_automorphisms(w, cfg)
    assert {a for a, _ in got} == {Mat2.identity(), -Mat2.identity()}


# ---------------------------------------------------------------------------
# integer filters at their boundaries


def test_entry_equal_to_bound_is_kept(lattice5):
    shear = Mat2.of(1, 2, 0, 1)
    for e, kept in ((2, True), (math.nextafter(2, 0), False)):
        cfg = StabilizerSearchConfig(inner_radius=2, entry_bound=e)
        got = fc.stabilizer_candidates(lattice5, cfg)
        assert got == _ref_candidates(lattice5, cfg)
        assert (shear in got) is kept


def test_non_dyadic_entry_bound_compares_exactly():
    # base determinant 3: the shear's entry 7/3 is 7 / 3 on the grid, and
    # float(7/3) lies just above 7/3
    w = _grid_window(Fraction(1, 3), 1, 4)
    shear = Mat2.of(1, Fraction(7, 3), 0, 1)
    for e, kept in ((7 / 3, True), (math.nextafter(7 / 3, 0), False)):
        cfg = StabilizerSearchConfig(inner_radius=1, entry_bound=e)
        got = fc.stabilizer_candidates(w, cfg)
        assert got == _ref_candidates(w, cfg)
        assert (shear in got) is kept
        _same_closure(got, w, cfg)


def _inner_on_grid(w, r, center=zp(0)):
    """The window points within ``r`` of ``center``, as the exact searches
    pick them on the grid (``veech._probes``), in grid order."""
    return [w.points[i] for i in sorted(veech._probes(w.grid, r, fc.EXACT, center)[0].tolist())]


def _inner_fractions(w, r, center=zp(0)):
    """The same points, by Fraction arithmetic on the ZPoints."""
    return [p for p in w.points if (p - center).norm2() <= Fraction(r) ** 2]


def test_inner_radius_equal_to_point_norm():
    w = fc.generate(fc.GeneratorSpec("gaussian-lattice"), 8)
    for r, kept in ((5, True), (math.nextafter(5, 0), False)):
        got = _inner_on_grid(w, r)
        assert got == _inner_fractions(w, r)
        assert (zp(3, 4) in got) is kept
    center = zp(Fraction(1, 3), Fraction(-2, 7))
    for r in (5, 2.5, Fraction(13, 3)):
        got = _inner_on_grid(w, r, center)
        assert got == _inner_fractions(w, r, center)


def test_inner_radius_past_int64_squares():
    # an int64 grid (scale 15, coordinates up to 2**28) seen from a centre
    # 2**31 away: (r * scale)**2 passes 2**63, and r sits on one point
    pts = [zp(Fraction((1 << 28) - 1 - 1000 * k, 15), Fraction(k, 5)) for k in range(6)]
    w = fc.ZeroWindow.from_points(pts, 1 << 25)
    assert w.grid[0].dtype == np.int64
    center = zp(-(1 << 31), Fraction(2, 5))
    edge = pts[2].re + (1 << 31)
    for r in (edge, edge - Fraction(1, 10**12), 1 << 33, (1 << 40) + 0.5):
        assert (r * 15) ** 2 > 1 << 63
        got = _inner_on_grid(w, r, center)
        assert got == _inner_fractions(w, r, center)
        assert (pts[2] in got) is (r != edge - Fraction(1, 10**12))


# ---------------------------------------------------------------------------
# the probe set every search shares


def _probes_reference(w, r, center):
    """``veech._probes`` by Fraction arithmetic on the window's ZPoints."""
    pts = w.points
    d2 = [(p - center).norm2() for p in pts]
    inner = [i for i in range(len(pts)) if d2[i] <= Fraction(r) ** 2]
    order = sorted(inner, key=lambda i: -d2[i])  # stable: ties stay in canonical order
    pair = next(((i, j) for k, i in enumerate(inner) for j in inner[k + 1:]
                 if zseq.cross(pts[i], pts[j]) != 0), None)
    return order, pair


@pytest.mark.parametrize("den", [1, 32749, *_BIG_DENS])
def test_probes_match_fraction_arithmetic(den):
    rng = random.Random(97)
    off = zp(Fraction(1, 3), Fraction(-2, 7))
    # (2, 0) lies exactly 2 from the origin and 1 from (7/5, -4/5)
    on_point = ((zp(0), 2), (zp(Fraction(7, 5), Fraction(-4, 5)), 1))
    windows = (_grid_window(1, _half_step(den), 4), _grid_window(1, _half_step(den), 4, off),
               _grid_window(_half_step(den), 1, 3), _rational_cloud(rng, 30, den))
    assert windows[0].grid[0].dtype == (object if den in _BIG_DENS else np.int64)
    for w in windows:
        cases = [(c, r) for c in (zp(0), off, w.center) for r in (0.7, 1.2, 2.5, 10)]
        cases += [(c, s) for c, r in on_point for s in (r, math.nextafter(r, 0))]
        for center, r in cases:
            order, pair = veech._probes(w.grid, r, fc.EXACT, center)
            assert (order.tolist(), pair) == _probes_reference(w, r, center), (center, r)
        order, pair = veech._probes(w.grid, 2.5, fc.EXACT)  # about the origin
        assert (order.tolist(), pair) == _probes_reference(w, 2.5, zp(0))
    w = windows[0]
    k = w.points.index(zp(2))
    for center, r in on_point:
        assert k in veech._probes(w.grid, r, fc.EXACT, center)[0]
        assert k not in veech._probes(w.grid, math.nextafter(r, 0), fc.EXACT, center)[0]


def test_float_probes_match_the_exact_ones_off_the_band():
    # on a float copy of an exact grid, every norm and cross product below is
    # exact in float64 and no point lies near the ball's edge
    w = _grid_window(1, Fraction(1, 2), 4, zp(Fraction(1, 4), Fraction(-3, 4)))
    f = fc.ZeroWindow.from_points([fc.ZPoint(float(p.re), float(p.im)) for p in w.points],
                                  5, fc.float_mode(1e-9))
    for center in (zp(0), w.center):
        fc_center = fc.ZPoint(float(center.re), float(center.im))
        for r in (0.3, 1.2, 2.6, 10):
            got_order, got_pair = veech._probes(f.grid, r, f.mode, fc_center)
            want_order, want_pair = veech._probes(w.grid, r, fc.EXACT, center)
            assert (got_order.tolist(), got_pair) == (want_order.tolist(), want_pair)


@pytest.mark.parametrize("kind, radius", [("gaussian-lattice", 8), ("integers-plus-minus-i", 10)])
def test_exact_classify_and_sandwich_build_no_holonomy_vectors(kind, radius, monkeypatch):
    # the searches read holonomy sets off their grids, so no ZPoint of a
    # vector is made, not even for the anchors or the parallel test
    built = []
    real = flatgeom.holonomy

    def spy(*args, **kwargs):
        h = real(*args, **kwargs)
        built.append(h)
        return h

    for ns in (flatgeom, veech):
        monkeypatch.setattr(ns, "holonomy", spy)
    w = fc.generate(fc.GeneratorSpec(kind), radius)
    for cfg in (None, StabilizerSearchConfig(inner_radius=2.5, entry_bound=4)):
        assert fc.classify(w, cfg).kind == "Countable"
        fc.sandwich_report(w, cfg)
    assert len(built) > 4  # some anchors reached past the restriction
    assert all("vectors" not in h.__dict__ for h in built)


# ---------------------------------------------------------------------------
# point symmetry on the integer grid


@pytest.mark.parametrize("kind, center", [("all-integers", 0), ("odd4n13-all", -1)])
def test_pprime_symmetry_moves_with_the_window(kind, center):
    w = fc.generate(fc.GeneratorSpec(kind), 40)
    for b in (zp(Fraction(1, 3), Fraction(2, 7)), zp(Fraction(-5, 2)), zp(0, 7)):
        moved = fc.ZeroWindow(w.translate(b).points, w.radius, center=w.center + b)
        assert fc.pprime_symmetry(moved) == zp(center) + b


def test_pprime_symmetry_big_denominator():
    # the offset 1/den puts the scaled coordinates past int64
    off = Fraction(1, 3) + Fraction(1, _BIG_DENS[1])
    center = zp(Fraction(1, 2) + off, 1)
    pts = [zp(k + off, 2 * k) for k in range(-6, 8)]
    w = fc.ZeroWindow(fc.canonical_order(pts), 7 * math.sqrt(5), center=center)
    assert w.grid[0].dtype == object
    assert fc.pprime_symmetry(w) == center
    moved = fc.ZeroWindow(w.points, w.radius, center=center + zp(Fraction(1, 2), 1))
    assert fc.pprime_symmetry(moved) == center + zp(Fraction(1, 2), 1)
