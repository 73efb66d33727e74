"""Point-at-a-time references for the symmetry searches.

Each search of the package runs one array kernel (``gridsearch``) in both
arithmetic modes.  The loops here are the earlier implementations it
replaced, one ``Mat2`` action or one ``ZPoint`` at a time, with membership
decided by a dict-of-cells ``PointIndex``.  Tests compare the kernel with
them by ``repr``: in float mode every printed bit must agree.  The
point-symmetry search of collinear windows is here as it was before it
took its centers in bands: every pair sum built and sorted at once.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from flatcurve.errors import DegenerateWindow
from flatcurve.equiv import EquivResult
from flatcurve.flatgeom import (_distinct, _past_restriction, has_holonomy_vector as _has_holonomy_vector,
                                window_collinear)
from flatcurve.veech import (_BLOCK, _MARGIN_FACTOR, ClosureReport, Mat2, VeechClass, _matrix_key,
                             _pool_limit, _probes, is_contracting)
from flatcurve.zseq import Mode, ZPoint, _outside_ball, _ratio, coordinate_grid, dot, same_point


# --------------------------------------------------------------------------
# point index (mode-aware membership)


class PointIndex:
    """Exact dict lookup, or an eps-grid with neighbor probing for floats
    with eps > 0."""

    def __init__(self, points, mode: Mode):
        self.mode = mode
        self._exact = mode.is_exact or mode.eps == 0
        self._by_key = {}
        self._far = {}  # points beyond the eps-cells, by exact coordinates
        self._cell = mode.eps
        for i, p in enumerate(points):
            self.add(p, i)

    def add(self, p: ZPoint, i: int) -> None:
        """Record ``p`` under index ``i``."""
        if self._exact:
            self._by_key[(p.re, p.im)] = i
            return
        key = self._grid_key(p)
        if key is None:
            self._far[(p.re, p.im)] = i
        else:
            self._by_key.setdefault(key, []).append((p, i))

    def _grid_key(self, p: ZPoint):
        """The eps-cell of ``p``; None where a coordinate over eps is not
        finite, as eps then lies below that coordinate's ulp and ``p``
        compares exactly, as at eps = 0."""
        kx, ky = p.re / self._cell, p.im / self._cell
        if math.isinf(kx) or math.isinf(ky):
            return None
        return math.floor(kx), math.floor(ky)

    def find(self, p: ZPoint):
        """Index of the window point equal to ``p`` (mode-aware), or None."""
        if self._exact:
            return self._by_key.get((p.re, p.im))
        key = self._grid_key(p)
        if key is None:
            return self._far.get((p.re, p.im))
        kx, ky = key
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for q, i in self._by_key.get((kx + dx, ky + dy), ()):
                    if same_point(p, q, self.mode):
                        return i
        return None

    def __contains__(self, p: ZPoint) -> bool:
        return self.find(p) is not None


def index(w) -> PointIndex:
    """The ``PointIndex`` of a window's points, built once per window."""
    idx = w._cache.get("reference_index")
    if idx is None:
        idx = w._cache["reference_index"] = PointIndex(w.points, w.mode)
    return idx


# --------------------------------------------------------------------------
# holonomy membership


def has_holonomy_vector(w, v: ZPoint) -> bool:
    """Is ``v`` the difference of some visible window pair?  Float windows
    test each witness's eps-tube; exact ones go to the package."""
    if v.is_zero():
        return False
    if w.mode.is_exact:
        return _has_holonomy_vector(w, v)
    idx = index(w)
    xs, ys = w.grid[:2]
    eps = w.mode.eps
    vx, vy = float(v.re), float(v.im)
    ln = math.hypot(vx, vy)
    len2 = ln * ln
    for p in w.points:
        if (p + v) not in idx:
            continue
        cx = xs - float(p.re)
        cy = ys - float(p.im)
        crs = vx * cy - vy * cx
        s = vx * cx + vy * cy
        blocked = (np.abs(crs) <= eps * ln) & (s > eps / 2 * len2) & (s < (1 - eps / 2) * len2)
        if not blocked.any():
            return True
    return False


def contains(h):
    """``HolonomySet.contains`` of ``h`` through a ``PointIndex``: a listed
    vector, or past a length restriction a difference of a visible pair of
    the source window, decided once for v and -v."""
    idx = PointIndex(h.vectors, h.mode)
    cache = {}

    def test(v: ZPoint) -> bool:
        if v.is_zero():
            return False
        if v in idx:
            return True
        if h.window is None or h.restricted_to is None \
                or not _past_restriction(v.norm(), h.restricted_to):
            return False
        got = cache.get((v.re, v.im))
        if got is None:
            got = has_holonomy_vector(h.window, v)
            cache[(v.re, v.im)] = cache[(-v.re, -v.im)] = got
        return got

    return test


# --------------------------------------------------------------------------
# stabilizer searches


def _image_pool(pool, anchor: ZPoint, entry_bound: float) -> list:
    lim2 = _pool_limit(float(anchor.re), float(anchor.im), entry_bound)
    return [v for v in pool if float(v.norm2()) <= lim2]


def _action_ok(a: Mat2, a_inv: Mat2, probes, contains) -> bool:
    for p in probes:
        if not contains(a.apply(p)):
            return False
    for p in probes:
        if not contains(a_inv.apply(p)):
            return False
    return True


def _search(points, probes: tuple, pool, contains, entry_bound, require_nc, mode: Mode) -> list:
    """Matrices that, with their inverses, send every probe point into
    ``contains``: ``probes`` is ``_probes`` on the grid of ``points``, and
    the images of its anchor pair are drawn from ``pool``."""
    order, pair = probes
    if pair is None:
        raise DegenerateWindow(
            "no two independent points inside the inner radius")
    p, q = (points[i] for i in pair)
    base_inv = Mat2(p.re, q.re, p.im, q.im).inverse()  # columns p, q
    cand_p = _image_pool(pool, p, entry_bound)
    cand_q = _image_pool(pool, q, entry_bound)
    probes = [points[i] for i in order]
    found = {}
    for ip in cand_p:
        for iq in cand_q:
            a = Mat2(ip.re, iq.re, ip.im, iq.im).mul(base_inv)
            if a.det <= 0:
                continue
            if a.max_abs_entry() > entry_bound:
                continue
            if require_nc and is_contracting(a):
                continue
            key = _matrix_key(a, mode)
            if key in found:
                continue
            if _action_ok(a, a.inverse(), probes, contains):
                found[key] = a
    ident = Mat2.identity(mode)
    found.setdefault(_matrix_key(ident, mode), ident)
    return sorted(found.values(), key=lambda m: _matrix_key(m, mode))


def _closure_loop(cands: list, w, r: float, e: float, req: bool) -> ClosureReport:
    """``group_closure_check`` one ``Mat2`` product at a time."""
    probes = [w.points[i] for i in _probes(w.grid, r, w.mode)[0]]
    idx = index(w)
    contains = lambda v: v in idx
    keys = {_matrix_key(m, w.mode) for m in cands}
    rep = ClosureReport()
    for a in cands:
        for b in cands:
            c = a.mul(b)
            if _matrix_key(c, w.mode) in keys:
                rep.checked += 1
                continue
            if c.max_abs_entry() > e:
                rep.skipped += 1
                continue
            if req and is_contracting(c):
                rep.skipped += 1
                continue
            if _action_ok(c, c.inverse(), probes, contains):
                rep.violations.append((a, b, c))
            else:
                rep.skipped += 1
    return rep


# --------------------------------------------------------------------------
# automorphisms and translation equivalence


def _offset_key(t: ZPoint, mode):
    if mode.is_exact:
        return (t.re, t.im)
    return (round(float(t.re), 12), round(float(t.im), 12))


def _automorphisms_loop(w, linears: list, r: float) -> dict:
    """{key: (A, t)} of the pairs that permute the window, one ``Mat2``
    action at a time; ``affine_automorphisms`` lists them in the order of
    the sorted keys."""
    probes = [w.points[i] for i in _probes(w.grid, r, w.mode, w.center)[0]]
    idx = index(w)
    p0 = w.points[0]
    found = {}
    for a in linears:
        a_inv = a.inverse()
        for q in w.points:
            t = q - a.apply(p0)
            ok = True
            for p in probes:
                if (a.apply(p) + t) not in idx:
                    ok = False
                    break
            if ok:
                for p in probes:
                    if a_inv.apply(p - t) not in idx:
                        ok = False
                        break
            if ok:
                key = (_matrix_key(a, w.mode), _offset_key(t, w.mode))
                found.setdefault(key, (a, t))
    return found


def _translation_loop(w1, w2) -> EquivResult:
    """``translation_equiv`` one ``ZPoint`` at a time."""
    mode = w1.mode
    idx1, idx2 = index(w1), index(w2)
    half2 = Fraction(w2.radius) ** 2 / 4 if mode.is_exact else w2.radius * w2.radius / 4
    band = 1e-9 * (1 + float(max(w1.radius, w2.radius)))
    p0 = w1.points[0]
    best = EquivResult(False, None, 0.0)
    for q in w2.points:
        d2 = (q - w2.center).norm2()
        if mode.is_exact:
            if d2 > half2:
                continue
        elif float(d2) > half2 * (1 + 1e-12):
            continue
        b = q - p0
        delta = ((w1.center + b) - w2.center).norm()
        rho = float(min(w1.radius, w2.radius)) - delta
        if rho <= band:
            continue
        lim = rho - band
        lim2 = lim * lim
        checked = matched = 0
        for p in w1.points:
            if float(((p + b) - w2.center).norm2()) > lim2:
                continue
            checked += 1
            if (p + b) in idx2:
                matched += 1
        for p in w2.points:
            if float((p - w2.center).norm2()) > lim2:
                continue
            checked += 1
            if (p - b) in idx1:
                matched += 1
        if checked and matched == checked:
            return EquivResult(True, b, 1.0, overlap_radius=rho)
        frac = matched / checked if checked else 0.0
        if frac > best.matched_fraction:
            best = EquivResult(False, b, frac, overlap_radius=rho)
    return best


# --------------------------------------------------------------------------
# orbits


def _orbit_loop(alphabet, seeds, max_len: int, radius, mode: Mode) -> list:
    """The orbit's points, one ``ZPoint`` at a time, in the order they are
    first met: the seeds, then each depth's images, point by point and
    letter by letter; in float mode two rounded copies of one image are
    one point, the first to arrive."""
    seen = PointIndex((), mode)
    found, origin = [], ZPoint.zero(mode)

    def admit(batch: list) -> list:
        xs, ys, scale = coordinate_grid(batch, mode)
        new = []
        for q, out in zip(batch, _outside_ball(xs, ys, scale, radius, mode, origin).tolist()):
            if not out and q not in seen:
                seen.add(q, len(found))
                found.append(q)
                new.append(q)
        return new

    frontier = admit(seeds)
    depth = 0
    while frontier and depth < max_len:
        depth += 1
        frontier = admit([ZPoint(a * p.re + b * p.im, c * p.re + d * p.im)
                          for p in frontier for a, b, c, d in alphabet])
    return found


# --------------------------------------------------------------------------
# point symmetry of collinear windows


def pprime_symmetry(w):
    """``veech.pprime_symmetry`` over every doubled center s_i + s_j at once,
    sorted by its distance from the region's middle."""
    pts = w.points
    if len(pts) < 2:
        return None
    if not window_collinear(w):
        raise ValueError("symmetry center search expects a collinear window")
    base = pts[0]
    u = None
    for p in pts[1:]:
        d = p - base
        if not d.is_zero():
            u = d
            break
    if u is None:
        return None
    ulen = u.norm()
    xs, ys, scale = w.grid
    if w.mode.is_exact:
        # on the integer grid sv = scale^2 * dot(p - base, u)
        # (int64 coordinates stay within 2**28, so sums of two stay within
        # int64)
        ux, uy = int(u.re * scale), int(u.im * scale)
        s2, tol = scale * scale, 0
    else:
        ux, uy = float(u.re), float(u.im)
        s2, tol = None, w.mode.eps * ulen
    sv = (xs - xs[0]) * ux + (ys - ys[0]) * uy
    ls = _ratio(sv, s2) / ulen  # float(dot(p - base, u)) / |u|
    ell = np.sort(ls)
    gap = float(np.max(ell[1:] - ell[:-1])) if len(ell) > 1 else 0.0
    qv = base - w.center
    alpha = (float(qv.re) * float(u.re) + float(qv.im) * float(u.im)) / ulen
    perp2 = max(float(qv.norm2()) - alpha * alpha, 0.0)
    half = math.sqrt(max(float(w.radius) * float(w.radius) - perp2, 0.0))
    lo_chord, hi_chord = -alpha - half, -alpha + half
    slack = 1e-9 * (1 + float(w.radius))
    if ell[0] - lo_chord > _MARGIN_FACTOR * gap + slack:
        return None
    if hi_chord - ell[-1] > _MARGIN_FACTOR * gap + slack:
        return None
    ssorted = np.sort(sv)
    # every doubled center s_i + s_j once, summed in blocks of rows
    rows = max(1, _BLOCK // len(sv))
    doubled = _distinct(np.sort(np.concatenate(
        [_distinct(np.sort(np.add.outer(sv[i:i + rows], sv), axis=None))
         for i in range(0, len(sv), rows)])))
    c2f = _ratio(doubled, s2).tolist()
    doubled = doubled.tolist()
    band = slack
    for k in sorted(range(len(doubled)),
                    key=lambda k: (abs(c2f[k] / (2 * ulen) + alpha), c2f[k])):
        c_ell = c2f[k] / (2 * ulen)
        lo = max(lo_chord, 2 * c_ell - hi_chord)
        hi = min(hi_chord, 2 * c_ell - lo_chord)
        if hi - lo <= 0:
            continue
        inside = (ls >= lo + band) & (ls <= hi - band)
        if not inside.any():
            continue
        # each reflected partner doubled - s must be present (within tol)
        need = doubled[k] - sv[inside]
        pos = np.searchsorted(ssorted, need - tol)
        if (pos < len(ssorted)).all() and (ssorted[pos] <= need + tol).all():
            c2 = Fraction(doubled[k], s2) if w.mode.is_exact else doubled[k]
            t = c2 / (2 * dot(u, u))
            return ZPoint(base.re + u.re * t, base.im + u.im * t)
    return None


def classify(w):
    """``veech.classify`` of a collinear window, its line read off its points."""
    wc = w if w.is_canonical else w.canonicalize()
    u = None
    for p in wc.points[1:]:
        if not p.is_zero():
            u = p
            break
    theta = math.atan2(float(u.im), float(u.re)) % math.pi
    center = pprime_symmetry(wc)
    if center is not None:
        return VeechClass("Pprime", theta=theta, symmetry_center=center)
    return VeechClass("P", theta=theta)


# --------------------------------------------------------------------------
# whole searches, as the package's entry points call them


def stabilizer_candidates(w, r: float, e: float, req: bool) -> list:
    """``veech.stabilizer_candidates`` by ``_search``."""
    idx = index(w)
    return _search(w.points, _probes(w.grid, r, w.mode), list(w.points), lambda v: v in idx,
                   e, req, w.mode)


def hol_stabilizer(h, r: float, e: float, req: bool) -> list:
    """``veech.hol_stabilizer`` by ``_search``."""
    from flatcurve.veech import _hol_pool

    probes = _probes(h.grid, r, h.mode)
    pool = _hol_pool(h, probes[1], e)
    return _search(h.vectors, probes, list(pool.vectors), contains(h), e, req, h.mode)


def affine_automorphisms(w, linears: list, r: float) -> list:
    """``equiv.affine_automorphisms`` of the given linear parts."""
    found = _automorphisms_loop(w, linears, r)
    return [found[k] for k in sorted(found)]
