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

Every search reads one probe set off the grid of its window or holonomy
set (``_probes``): the points within the inner radius of a centre,
farthest first, and their first independent pair p, q as anchors.  Every
candidate is a matrix A sending p, q to a pair of images from a pool, and
the searches run in ``gridsearch``, one array kernel for both modes, which
the entry points import on first use.  The kernel sends every probe
through all candidates and their inverses at once and looks each image up
among the window points (lower bound) or holonomy vectors (upper bound),
in the structure ``flatgeom._members`` builds for them.  An image past a
holonomy set's length restriction that is not listed is decided once, on
the source window, for all candidates.  Exact windows run it on their
integer grid (``ZeroWindow.grid``, built by ``zseq``): with base
B = [p q], D = det B and an image pair as the columns of M, every
candidate is N / D with N = M adj(B), so the det > 0, entry-bound and
non-contraction filters are integer comparisons, and a ``Mat2`` of
Fractions is built once per matrix returned.  Float windows compute each
entry with the ``Mat2`` operations, in their order, and compare those
floats as ``Mat2`` does.  Closure products and affine automorphisms go
through the same kernel.  Grid integers become floats through
``zseq._ratio``.

The point-symmetry search of collinear windows (``pprime_symmetry``) reads
the line off two grid points and projects every point on it, on the
integer grid in exact mode.  Its candidate centers are the pair sums of the
projections, nearest the region's middle first.  It takes them in bands
about the middle, each four times as wide as the last, and sums only the
pairs a band adds, found by a binary search of the sorted projections.
The key that orders the centers is monotone in the sum on each side of the
middle, and each band's range of sums is wider than the key's rounding, so
the centers are tried in the order of a sort of all n^2 sums, and the first
one accepted is the same.  Where a center lies near the middle, the search
sums about n pairs instead of n^2.  A window with no center runs through
every band and sums every pair once, as the full sort would.  The line
angle ``classify`` reports comes off the grid too, and no collinear window
builds its ``points``.
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
                   _ratio, _spans, as_scalar, dot, grid_points, scalar_repr)

# --------------------------------------------------------------------------
# 2x2 matrices


@dataclass(frozen=True)
class Mat2:
    """Row-major [[a, b], [c, d]] acting on the plane as column vectors.
    The entries may be arrays of one shape, for one matrix per entry."""

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
        if np.any(det == 0):
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


def _float_key(values) -> tuple:
    """The values rounded to 12 decimals by Python's ``round`` (which
    ``np.round`` does not match), as floats are told apart and ordered."""
    return tuple(round(float(v), 12) for v in values)


def _matrix_key(m: Mat2, mode: Mode):
    return m.entries() if mode.is_exact else _float_key(m.entries())


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
# probes and image pools


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


# --------------------------------------------------------------------------
# stabilizer bounds


def stabilizer_candidates(w: ZeroWindow, cfg: StabilizerSearchConfig | None = None) -> list:
    """Matrices that window-consistently permute the point set.

    Anchored at the first independent pair of inner points; each candidate
    and its inverse must map every inner point onto a window point.
    """
    from . import gridsearch

    return gridsearch.window_stabilizer(w, *_resolve(cfg, w.radius))


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
    from . import gridsearch

    return gridsearch.holonomy_stabilizer(h, r, e, req)


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
_GROWTH = 4  # how much each band of doubled centers widens the last


def _pair_sums(ss, rows, a, b):
    """The distinct sums ss[i] + ss[j], i in ``rows``, j in [a, b) of that
    row, sorted; rows go in blocks of about ``_BLOCK`` pairs."""
    counts = b - a
    ends = np.cumsum(counts)
    parts, i = [ss[:0]], 0
    while i < len(rows):
        k = max(i + 1, int(np.searchsorted(ends, ends[i] - counts[i] + _BLOCK, "right")))
        c = counts[i:k]
        parts.append(_distinct(np.sort(ss[np.repeat(rows[i:k], c)] + ss[_spans(a[i:k], c)])))
        i = k
    return _distinct(np.sort(np.concatenate(parts)))


def pprime_symmetry(w: ZeroWindow):
    """Center c with z -> 2c - z permuting the window, or None.

    Candidate centers are the points and all pair midpoints, tried nearest
    the sampled region's middle first.  Before any candidate is considered,
    the occupied extent must reach both ends of the region-line chord up to
    1.5x the largest internal gap: a divergent sequence symmetric about a
    center fills its line in both directions, so a skewed truncation (e.g. a
    half-line) is rejected outright.

    With s_i the projections of the points on the line (integers on the
    grid of an exact window), a candidate is a doubled center d = s_i + s_j,
    and the order is by the key (|c + alpha|, c), with c the center's
    position on the line and -alpha the region's middle.

    Band enumeration: the centers are taken in bands about the middle,
    those of key at most delta, with delta growing ``_GROWTH``-fold from
    the line's extent over n.  For each band, a binary search of the sorted
    s_i for d - s_i finds, per i, the pairs whose sums lie in the band's
    range of d (integer in exact mode), and only the pairs new to this band
    are summed.  The band's distinct new sums, with those the last band held
    back, are tested in key order if their key is at most delta and held
    back otherwise.  Once the range holds every sum, all that are left are
    tested.

    Why the order is that of one sort of all sums: the key is monotone in d
    on each side of the middle, and each range is widened by 1e-9 of the
    line's extent, more than the key's rounding.  So a range holds every d
    of key at most its delta, every d outside it has a larger key, and each
    band tests exactly the keys in (last delta, delta], sorted.  The first
    center accepted is the same.

    Worst case: a window that passes the chord test and has no center
    passes through every band, at most a few dozen.  It sums each pair once
    and tests each distinct sum once, as one sort of all sums would, and
    adds a binary search of the s_i per band.

    Two grid points give the line; of the other points, no ``ZPoint`` is
    built, and only the accepted center is made of Fractions.
    """
    xs, ys, scale = w.grid
    if len(xs) < 2:
        return None
    if not window_collinear(w):
        raise ValueError("symmetry center search expects a collinear window")
    at = np.flatnonzero((xs != xs[0]) | (ys != ys[0]))[:1]
    if not len(at):
        return None
    # u = p - base, p the first point off base, as grid differences
    (ux,), (uy,) = (xs[at] - xs[0]).tolist(), (ys[at] - ys[0]).tolist()
    if w.mode.is_exact:
        # on the integer grid sv = scale^2 * dot(p - base, u)
        # (int64 coordinates stay within 2**28, so sums of two stay within
        # int64); Python's int division rounds as float(Fraction) does
        s2 = scale * scale
        ulen = math.sqrt((ux * ux + uy * uy) / s2)
        fux, fuy, tol = ux / scale, uy / scale, 0
    else:
        s2 = None
        ulen = math.sqrt(ux * ux + uy * uy)
        fux, fuy, tol = ux, uy, w.mode.eps * ulen
    sv = (xs - xs[0]) * ux + (ys - ys[0]) * uy
    ls = _ratio(sv, s2) / ulen  # float(dot(p - base, u)) / |u|
    ell = np.sort(ls)
    gap = float(np.max(ell[1:] - ell[:-1])) if len(ell) > 1 else 0.0
    base = grid_points(xs[:1], ys[:1], scale)[0]
    qv = base - w.center
    alpha = (float(qv.re) * fux + float(qv.im) * fuy) / ulen
    perp2 = max(float(qv.norm2()) - alpha * alpha, 0.0)
    radius = float(w.radius)
    half = math.sqrt(max(radius * radius - perp2, 0.0))
    lo_chord, hi_chord = -alpha - half, -alpha + half
    slack = 1e-9 * (1 + radius)
    if ell[0] - lo_chord > _MARGIN_FACTOR * gap + slack:
        return None
    if hi_chord - ell[-1] > _MARGIN_FACTOR * gap + slack:
        return None
    ssorted = np.sort(sv)
    n = len(ssorted)
    rows = np.concatenate([np.arange(n)] * 2)  # the rows of both pieces of a band, below
    least, most = (2 * s for s in ssorted[[0, -1]].tolist())

    def edge(t, up):
        """The sum d of float value t (d / scale^2 in exact mode, rounded
        onto the grid up or down), clamped to the range of the sums."""
        if not math.isfinite(t):
            return least if t < 0 else most
        if s2 is not None:
            num, den = t.as_integer_ratio()
            t = -(-num * s2 // den) if up else num * s2 // den
        return min(max(t, least), most)

    spread = abs(alpha) + max(abs(ell[0]), abs(ell[-1]))
    delta = float(ell[-1] - ell[0]) / n or math.inf
    start = stop = None
    held = ssorted[:0]  # sums past the last band's delta, sorted
    while True:
        reach = delta + 1e-9 * (spread + delta)  # past the key's rounding
        dlo = edge((-alpha - reach) * (2 * ulen), False)
        dhi = edge((-alpha + reach) * (2 * ulen), True)
        whole = dlo == least and dhi == most
        lo_j = np.searchsorted(ssorted, dlo - ssorted, "left")
        hi_j = np.searchsorted(ssorted, dhi - ssorted, "right")
        if start is None:
            start = stop = lo_j
        # the pairs i <= j new to this band: j in [lo_j, start) or [stop, hi_j)
        fresh = _pair_sums(ssorted, rows, np.maximum(np.concatenate([lo_j, stop]), rows),
                           np.maximum(np.concatenate([start, hi_j]), rows))
        doubled = _distinct(np.sort(np.concatenate([held, fresh])))
        c2f = _ratio(doubled, s2)
        key = np.abs(c2f / (2 * ulen) + alpha)
        order = np.lexsort((c2f, key))
        if not whole:
            cut = np.searchsorted(key[order], delta, "right")
            held, order = doubled[np.sort(order[cut:])], order[:cut]
        c2f, doubled = c2f.tolist(), doubled.tolist()
        for k in order.tolist():
            c_ell = c2f[k] / (2 * ulen)
            lo = max(lo_chord, 2 * c_ell - hi_chord)
            hi = min(hi_chord, 2 * c_ell - lo_chord)
            if hi - lo <= 0:
                continue
            inside = (ls >= lo + slack) & (ls <= hi - slack)
            if not inside.any():
                continue
            # each reflected partner doubled - s must be present (within tol)
            need = doubled[k] - sv[inside]
            pos = np.searchsorted(ssorted, need - tol)
            if (pos < len(ssorted)).all() and (ssorted[pos] <= need + tol).all():
                if w.mode.is_exact:
                    c2, u = Fraction(doubled[k], s2), ZPoint(Fraction(ux, scale), Fraction(uy, scale))
                else:
                    c2, u = doubled[k], ZPoint(ux, uy)
                t = c2 / (2 * dot(u, u))
                return ZPoint(base.re + u.re * t, base.im + u.im * t)
        if whole:
            return None
        start, stop = lo_j, hi_j
        delta *= _GROWTH


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
    from . import gridsearch

    return gridsearch.closure_check(cands, w, *_resolve(cfg, w.radius))


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
        xs, ys, scale = wc.grid
        k = np.flatnonzero((xs != 0) | (ys != 0))[:1]
        theta = math.atan2(*_ratio(ys[k], scale), *_ratio(xs[k], scale)) % math.pi
        center = pprime_symmetry(wc)
        if center is not None:
            return VeechClass("Pprime", theta=theta, symmetry_center=center)
        return VeechClass("P", theta=theta)
    lower, upper, ok = sandwich_report(wc, cfg)
    return VeechClass("Countable", lower=tuple(lower), upper=tuple(upper),
                      containment_ok=ok)
