"""Veech-group classification of a zero window.

Collinear windows fall in the uncountable branch: the group is the
upper-triangular family fixing the line direction, extended by the point
reflection exactly when the window is (window-consistently) symmetric about
some center on the line.  Non-collinear windows fall in the countable
branch, reported as a sandwich: candidate matrices that permute the window
points (lower bound) and candidates that permute the holonomy vectors
(upper bound).

Everything here is window-consistent by construction: a candidate is only
required to act correctly on the part of the data that stays inside the
sampled region, with an inner/outer two-radius scheme controlling boundary
effects.

Every search, exact or float, reads one probe set off the grid of its
window or holonomy set (``_probes``): the points within the inner radius
of a centre, farthest first, and their first independent pair p, q as
anchors.  Exact windows test candidates on their integer grid
(``ZeroWindow.grid``, built by ``zseq``), in ``gridsearch``, which the
exact paths import on first use.
With base B = [p q], D = det B and an image pair as the columns of M,
every candidate is N / D with N = M adj(B), so the det > 0, entry-bound
and non-contraction filters are integer comparisons on N, D and det M.
One numpy kernel then sends every probe X through all candidates at once,
as N X / D and the inverse as B adj(M) X / det M: an inexact division is a
miss, and an exact one is looked up among the window points (lower bound)
or holonomy vectors (upper bound), in the structure ``flatgeom._members``
builds for them.  An image past a holonomy set's length restriction that
is not listed is decided once, on the window's grid, for all candidates.
Closure products and affine automorphisms go through the same kernel,
which orders its results as integer rows and builds a ``Mat2`` of
Fractions once per matrix returned.  Grid integers become floats through
``zseq._ratio``.  Float windows keep the ``Mat2`` loops (``_search``,
``_closure_loop``, ``equiv._automorphisms_loop``) on the same probe set;
they are also the references the exact kernel is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateWindow, SingularMatrix, TooFewPoints
from .flatgeom import (HolonomySet, _distinct, _joined, holonomy, vectors_parallel,
                       window_collinear)
from .zseq import (EXACT, Mode, ZPoint, ZeroWindow, _contracting, _moved, _outside_ball,
                   _ratio, as_scalar, dot, scalar_repr)

# --------------------------------------------------------------------------
# 2x2 matrices


@dataclass(frozen=True)
class Mat2:
    """Row-major [[a, b], [c, d]] acting on the plane as column vectors."""

    a: object
    b: object
    c: object
    d: object

    @staticmethod
    def of(a, b, c, d, mode: Mode = EXACT) -> "Mat2":
        return Mat2(as_scalar(a, mode), as_scalar(b, mode),
                    as_scalar(c, mode), as_scalar(d, mode))

    @staticmethod
    def identity(mode: Mode = EXACT) -> "Mat2":
        return Mat2.of(1, 0, 0, 1, mode)

    def rows(self):
        return ((self.a, self.b), (self.c, self.d))

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    def mul(self, o: "Mat2") -> "Mat2":
        return Mat2(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    __matmul__ = mul

    def inverse(self) -> "Mat2":
        det = self.det
        if det == 0:
            raise SingularMatrix(f"matrix {self.rows()} is singular")
        return Mat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def apply(self, p: ZPoint) -> ZPoint:
        return ZPoint(self.a * p.re + self.b * p.im,
                      self.c * p.re + self.d * p.im)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def max_abs_entry(self):
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def to_rows_repr(self) -> list:
        return [[scalar_repr(self.a), scalar_repr(self.b)],
                [scalar_repr(self.c), scalar_repr(self.d)]]


def is_contracting(m: Mat2) -> bool:
    """Largest singular value < 1, decided exactly (``zseq._contracting``)."""
    return _contracting(*m.entries())


def _matrix_key(m: Mat2, mode: Mode):
    if mode.is_exact:
        return m.entries()
    return tuple(round(float(v), 12) for v in m.entries())


# --------------------------------------------------------------------------
# search configuration


@dataclass(frozen=True)
class StabilizerSearchConfig:
    """Two-radius search parameters.

    ``inner_radius`` defaults to a third of the window radius and
    ``entry_bound`` to outer/inner: a candidate with a larger entry would
    move some inner point outside the sampled ball, so nothing is lost.
    """

    inner_radius: float | None = None
    entry_bound: float | None = None
    require_non_contracting: bool = True


def _resolve(cfg: StabilizerSearchConfig | None, outer_radius):
    outer_radius = float(outer_radius)
    if cfg is None:
        cfg = StabilizerSearchConfig()
    r = cfg.inner_radius if cfg.inner_radius is not None else outer_radius / 3
    if not 0 < r < outer_radius:
        raise ValueError(f"need 0 < inner radius < {outer_radius}, got {r}")
    e = cfg.entry_bound if cfg.entry_bound is not None else outer_radius / r
    if e <= 0:
        raise ValueError("entry bound must be positive")
    return float(r), float(e), cfg.require_non_contracting


# --------------------------------------------------------------------------
# pair-image stabilizer search, float path and reference


def _probes(grid, r, mode: Mode, center: ZPoint | None = None) -> tuple:
    """``(order, pair)``, the probe set of every symmetry search, as indices
    into ``grid`` (a window's or a holonomy set's).  ``order``: the points
    within ``r`` of ``center`` (the origin when None) by ``zseq._outside_ball``,
    farthest from ``center`` first, ties in grid order.  ``pair``: the first
    independent pair of them in grid order, the search's anchors, or None."""
    xs, ys, scale = grid
    center = ZPoint.zero(mode) if center is None else center
    inner = np.flatnonzero(~_outside_ball(xs, ys, scale, r, mode, center))
    ix, iy = xs[inner], ys[inner]
    mx, my, _ = _moved(ix, iy, scale, -center)
    order = inner[np.argsort(-(mx * mx + my * my), kind="stable")]
    for k in range(len(inner) - 1):
        later = np.flatnonzero(ix[k] * iy[k + 1:] - iy[k] * ix[k + 1:] != 0)
        if len(later):
            return order, (int(inner[k]), int(inner[k + 1 + later[0]]))
    return order, None


def _pool_limit(x: float, y: float, entry_bound: float) -> float:
    """Squared-norm bound on the image of the anchor (x, y)."""
    # |A| entrywise <= E forces |(A p)_x|, |(A p)_y| <= E(|px| + |py|)
    reach = entry_bound * (abs(x) + abs(y))
    return 2 * reach * reach * (1 + 1e-9)


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


# --------------------------------------------------------------------------
# stabilizer bounds


def stabilizer_candidates(w: ZeroWindow, cfg: StabilizerSearchConfig | None = None) -> list:
    """Matrices that window-consistently permute the point set.

    Anchored at the first independent pair of inner points; each candidate
    and its inverse must map every inner point onto a window point.
    """
    r, e, req = _resolve(cfg, w.radius)
    if w.mode.is_exact:
        from . import gridsearch
        return gridsearch.window_stabilizer(w, r, e, req)
    idx = w.index()
    return _search(w.points, _probes(w.grid, r, w.mode), list(w.points), lambda v: v in idx,
                   e, req, w.mode)


def hol_stabilizer(h: HolonomySet, cfg: StabilizerSearchConfig | None = None) -> list:
    """Matrices that window-consistently permute the holonomy vectors.

    The inner test set is the certified part of the enumeration; membership
    of images beyond it falls back to the on-demand witness oracle.  The
    images of the anchors are drawn from a pool; when the pool filter
    (``_pool_limit``) admits images past a length-restricted enumeration,
    the pool is re-enumerated out to the filter's reach, so no candidate
    with admissible entries is missed merely because the pool stopped early.
    """
    r, e, req = _resolve(cfg, h.window_radius)
    if vectors_parallel(h.grid, h.mode):
        raise DegenerateWindow(
            "all holonomy vectors are parallel; this is the uncountable branch")
    if h.mode.is_exact:
        from . import gridsearch
        return gridsearch.holonomy_stabilizer(h, r, e, req)
    probes = _probes(h.grid, r, h.mode)
    pool = _hol_pool(h, probes[1], e)
    return _search(h.vectors, probes, list(pool.vectors), h.contains, e, req, h.mode)


def _hol_pool(h: HolonomySet, pair, e: float) -> HolonomySet:
    """Where ``hol_stabilizer`` draws images from: ``h``, or, when the reach
    of the anchors ``pair`` (``_probes``) passes the restriction, ``h`` joined
    with its window re-enumerated out to that reach.  The reach is the
    length the pool filter, ``_pool_limit``, admits for either anchor, with a
    margin for the rounding of the filter's floats.  The join keeps every
    listed vector, so a larger entry bound never loses an image."""
    if pair is not None and h.window is not None and h.restricted_to is not None:
        xs, ys, scale = h.grid
        at = list(pair)
        ax, ay = _ratio(xs[at], scale).tolist(), _ratio(ys[at], scale).tolist()
        reach = math.sqrt(max(map(_pool_limit, ax, ay, (e, e)))) * (1 + 1e-9)
        if reach > h.restricted_to:
            return _joined(h, holonomy(h.window, max_length=reach))
    return h


# --------------------------------------------------------------------------
# collinear branch: point-symmetry search

_MARGIN_FACTOR = 1.5
_BLOCK = 1 << 15  # array elements computed at once


def pprime_symmetry(w: ZeroWindow):
    """Center c with z -> 2c - z permuting the window, or None.

    Candidate centers are the points and all pair midpoints, tried nearest
    the sampled region's middle first.  Before any candidate is considered,
    the occupied extent must reach both ends of the region-line chord up to
    1.5x the largest internal gap: a divergent sequence symmetric about a
    center fills its line in both directions, so a skewed truncation (e.g. a
    half-line) is rejected outright.
    """
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


# --------------------------------------------------------------------------
# sandwich and closure reports


def sandwich_report(w: ZeroWindow, cfg: StabilizerSearchConfig | None = None):
    """(lower, upper, containment_ok) stabilizer bounds for the countable branch."""
    r, e, req = _resolve(cfg, w.radius)
    resolved = StabilizerSearchConfig(r, e, req)
    lower = stabilizer_candidates(w, resolved)
    h = holonomy(w, max_length=r)
    upper = hol_stabilizer(h, resolved)
    upper_keys = {_matrix_key(m, w.mode) for m in upper}
    ok = all(_matrix_key(m, w.mode) in upper_keys for m in lower)
    return lower, upper, ok


@dataclass
class ClosureReport:
    checked: int = 0
    skipped: int = 0
    violations: list = None

    def __post_init__(self):
        if self.violations is None:
            self.violations = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "checked": self.checked,
            "skipped": self.skipped,
            "ok": self.ok,
            "violations": [
                [a.to_rows_repr(), b.to_rows_repr(), c.to_rows_repr()]
                for a, b, c in self.violations
            ],
        }


def group_closure_check(cands: list, w: ZeroWindow,
                        cfg: StabilizerSearchConfig | None = None) -> ClosureReport:
    """Do pairwise products of candidates stay candidates?

    Products whose entries leave the certified bound, or whose action walks
    inner points out of the window, are boundary effects and only counted as
    skipped.  A product that passes the full action test yet is missing from
    the candidate list is a genuine violation.
    """
    if not cands:
        raise ValueError("closure check needs at least one candidate")
    r, e, req = _resolve(cfg, w.radius)
    if w.mode.is_exact:
        from . import gridsearch
        return gridsearch.closure_check(cands, w, r, e, req)
    return _closure_loop(cands, w, r, e, req)


def _closure_loop(cands: list, w: ZeroWindow, r: float, e: float, req: bool) -> ClosureReport:
    """``group_closure_check`` one ``Mat2`` product at a time: the float
    path, and the reference for the exact one."""
    probes = [w.points[i] for i in _probes(w.grid, r, w.mode)[0]]
    idx = w.index()
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
# classification


@dataclass(frozen=True)
class VeechClass:
    """Classification outcome, always window-consistent.

    kind "P": collinear without a point symmetry; "Pprime": collinear with
    one (center recorded); "Countable": independent directions present, with
    lower/upper stabilizer bounds.
    """

    kind: str
    theta: float | None = None
    lower: tuple = ()
    upper: tuple = ()
    containment_ok: bool | None = None
    symmetry_center: ZPoint | None = None
    window_consistent: bool = True

    def to_dict(self) -> dict:
        center = None
        if self.symmetry_center is not None:
            center = [scalar_repr(self.symmetry_center.re),
                      scalar_repr(self.symmetry_center.im)]
        return {
            "kind": self.kind,
            "theta": self.theta,
            "lower": [m.to_rows_repr() for m in self.lower],
            "upper": [m.to_rows_repr() for m in self.upper],
            "containment_ok": self.containment_ok,
            "symmetry_center": center,
            "window_consistent": self.window_consistent,
        }


def classify(w: ZeroWindow, cfg: StabilizerSearchConfig | None = None) -> VeechClass:
    """Trichotomy of the window's symmetry group.

    Collinear windows report the line angle theta in [0, pi); the countable
    branch carries the sandwich bounds instead.
    """
    if len(w) < 2:
        raise TooFewPoints("classification needs at least two points")
    wc = w if w.is_canonical else w.canonicalize()
    if window_collinear(wc):
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
    lower, upper, ok = sandwich_report(wc, cfg)
    return VeechClass("Countable", lower=tuple(lower), upper=tuple(upper),
                      containment_ok=ok)
