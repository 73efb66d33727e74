"""Symmetry searches of windows and holonomy sets, one kernel for both modes.

The stabilizer, closure and automorphism searches of ``veech`` and
``equiv`` come here.  Each takes its probes, and ``_search`` its anchors,
from ``veech._probes``.  ``_accept`` sends every probe through all
candidates at once and looks each image up among the window's points or
the holonomy vectors (``_Targets``), as ``flatgeom._members`` holds them;
past a holonomy set's length restriction an unlisted image stays open,
and the source window decides the distinct ones, up to sign, in one pass.

Exact candidates are integer matrices over a common denominator,
possibly with a translation: ``_search`` builds them as N = M adj(B) over
D = det B from the image pairs M of the anchor base B, closure products
as N_a N_b over L^2, automorphisms as (A, q) over L, and an image whose
division is inexact is a miss.  Arrays are int64 while every value
computed from them stays below 2**62, and Python ints past that.  Results
are ordered on the integer rows, over one positive denominator, which is
the order of their Fraction entries, built only for the results returned.

Float candidates are ``Mat2`` arithmetic on arrays of entries, so every
entry has the bits of the scalar operations: A = M.mul(B.inverse()), its
``inverse``, closure products a.mul(b), and for automorphisms
t = q - A p0 with the inverse applied as A^-1 (p - t).  The det > 0,
entry-bound and contraction tests compare those floats; of candidates
with one ``veech._matrix_key`` the first accepted in candidate order is
kept, and results are ordered by that key.

Like every module of the package, it loads on first use: ``veech`` and
``equiv`` import it on their first search, so neither importing
``flatcurve`` nor loading ``veech`` compiles it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import veech
from .errors import DegenerateWindow, SingularMatrix
from .flatgeom import (HolonomySet, _Bitmap, _distinct, _has_float_vectors, _has_grid_vectors,
                       _past_restriction, _SortedKeys, _window_members)
from .veech import _BLOCK, ClosureReport, Mat2, _float_key, _matrix_key, _pool_limit, _probes
from .zseq import (ZPoint, ZeroWindow, _contracting, _FloatMembers, _ints, _lengths, _packed,
                   _ratio, _span, _starts, _unpacked, grid_points)


# --------------------------------------------------------------------------
# arrays


def _float_norm2(xs, ys, scale) -> np.ndarray:
    """float(|p|^2) of the points p = (x, y) / scale, rounded as
    ``float(Fraction)`` rounds, or x * x + y * y of float points (``scale``
    None)."""
    if scale is None:
        return xs * xs + ys * ys
    xs, ys = _ints(2 * _span(xs, ys) ** 2, xs, ys)
    return _ratio(xs * xs + ys * ys, scale * scale)


# --------------------------------------------------------------------------
# the kernel


def _entry_limit(entry_bound: float, den: int, cap: int) -> int:
    """Largest integer n <= cap with n / den <= entry_bound, compared exactly
    as ``Fraction > float`` compares.  ``cap`` bounds the numerators tested,
    so a larger limit would exclude nothing."""
    if not math.isfinite(entry_bound):
        return cap
    lim = Fraction(entry_bound) * den
    return min(lim.numerator // lim.denominator, cap)


class _Targets(NamedTuple):
    """A point set on a grid (``scale`` None for floats), as the kernel
    looks images up in it: ``members`` from ``flatgeom._members``.  With
    ``window`` set, they are the vectors of a holonomy set restricted to
    ``restricted_to``: an unlisted image past the restriction
    (``flatgeom._past_restriction``, on its length), and on an exact grid
    with no coordinate beyond ``limit``, stays open for ``window`` to
    decide.  A float holonomy set (``vectors``) may list a vector within eps
    of 0, which ``HolonomySet.contains`` does not match to the image 0.
    """

    members: _Bitmap | _SortedKeys | _FloatMembers
    scale: int | None
    window: ZeroWindow | None = None
    restricted_to: float | None = None
    limit: int = 0
    vectors: bool = False

    def lookup(self, x, y, on_grid):
        """(hit, open) of the images (x, y), of which ``on_grid`` marks
        those whose division was exact; ``open`` is None without
        ``window``."""
        hit = on_grid & self.members.contains(x, y)
        if self.vectors:
            hit &= (x != 0) | (y != 0)
        if self.window is None:
            return hit, None
        if self.scale is None:
            return hit, ~hit & _past_restriction(_lengths(x, y, None), self.restricted_to)
        opened = on_grid & ~hit & (abs(x) <= self.limit) & (abs(y) <= self.limit)
        at = opened.nonzero()
        x, y = _ints(2 * self.limit ** 2, x[at], y[at])
        opened[at] = _past_restriction(_lengths(x, y, self.scale), self.restricted_to)
        return hit, opened

    def held(self, x, y):
        """Mask of the open images (x, y) that ``window`` holds, each distinct
        one decided once, up to sign."""
        if self.scale is None:
            sign = np.where((y > 0) | ((y == 0) & (x > 0)), 1.0, -1.0)
            x, y = x * sign, y * sign
            order = np.lexsort((y, x))
            first = _starts(x[order], y[order])
            held = np.empty(len(x), dtype=bool)
            at = order[first]
            held[order] = _has_float_vectors(self.window, x[at], y[at])[np.cumsum(first) - 1]
            return held
        keys, shift = _packed(x, y, self.limit)
        keys = abs(keys)  # the key of -v is minus that of v
        images = _distinct(np.sort(keys))
        vx, vy = _unpacked(images, shift)
        # a grid finer than the window's holds vectors no window pair differs by
        k = self.scale // self.window.grid[2]
        on = np.flatnonzero((vx % k == 0) & (vy % k == 0))
        held = np.zeros(len(images), dtype=bool)
        held[on] = _has_grid_vectors(self.window, vx[on] // k, vy[on] // k)
        return held[np.searchsorted(images, keys)]


def _window_targets(w: ZeroWindow) -> _Targets:
    """The points of a window."""
    return _Targets(_window_members(w), w.grid[2])


def _hol_targets(h: HolonomySet) -> _Targets:
    """The vectors of a holonomy set; past its length restriction the
    source window decides."""
    xs, ys, scale = h.grid
    window = h.window if h.restricted_to is not None else None
    if scale is None:
        return _Targets(h._lookup, None, window, h.restricted_to, vectors=True)
    limit = _span(xs, ys)
    if window is not None:
        # _has_grid_vectors refutes what is longer than any window difference
        limit = max(limit, 2 * _span(*window.grid[:2]) * (scale // window.grid[2]))
    return _Targets(h._lookup, scale, window, h.restricted_to, limit)


def _images(cols, rows, x, y, targets: _Targets):
    """(x, y, hit, open) of the images of the probes (x, y) under
    candidates ``rows``."""
    cols = [v[rows][:, None] if np.ndim(v) else v for v in cols]
    if targets.scale is None:
        a, b, c, d, e, f, g, h = cols
        if np.ndim(g):
            x, y = x - g, y - h
        ix, iy = a * x + b * y, c * x + d * y
        if np.ndim(e):
            ix, iy = ix + e, iy + f
        return (ix, iy, *targets.lookup(ix, iy, True))
    a, b, c, d, e, f, den = cols
    nx, ny = a * x + b * y + e, c * x + d * y + f
    ix, iy = nx // den, ny // den
    return (ix, iy, *targets.lookup(ix, iy, (ix * den == nx) & (iy * den == ny)))


def _accept(maps, px, py, targets: _Targets):
    """Indices of the candidates that send every probe into ``targets``
    under each map in ``maps``.

    A map is a tuple of columns, arrays over candidates or scalars.  On an
    exact grid, (a, b, c, d, e, f, den) sends probe (x, y) to
    ((a x + b y + e) / den, (c x + d y + f) / den), a miss unless both
    divisions are exact; a float map (a, b, c, d, e, f, g, h) sends it to
    (a (x - g) + b (y - h) + e, c (x - g) + d (y - h) + f), with scalar zero
    shifts left out, as ``Mat2.apply`` computes a x + b y.  The probes,
    longest first, go in blocks of about _BLOCK images, and a candidate is
    dropped at its first failing block.  Images left open are decided last,
    all at once (``_Targets.held``).
    """
    if targets.scale is not None:
        big = max(_span(v) for cols in maps for v in cols)
        bound = big * (2 * _span(px, py) + 1)
        maps = [_ints(bound, *cols) for cols in maps]
        px, py = _ints(bound, px, py)
    alive = np.arange(len(maps[0][0]))
    start = 0
    while start < len(px) and len(alive):
        stop = start + max(1, _BLOCK // (2 * len(alive)))
        ok = np.ones(len(alive), dtype=bool)
        for cols in maps:
            _, _, hit, opened = _images(cols, alive, px[start:stop], py[start:stop], targets)
            ok &= (hit if opened is None else hit | opened).all(axis=1)
        alive = alive[ok]
        start = stop
    if targets.window is None or not len(alive):
        return alive
    # the open images of the candidates at positions ``at`` of alive
    at, xs, ys = [], [], []
    step = max(1, _BLOCK // (2 * len(px)))
    for lo in range(0, len(alive), step):
        for cols in maps:
            ix, iy, _, opened = _images(cols, alive[lo:lo + step], px, py, targets)
            rows, cells = opened.nonzero()
            at.append(rows + lo)
            xs.append(ix[rows, cells])
            ys.append(iy[rows, cells])
    held = targets.held(np.concatenate(xs), np.concatenate(ys))
    return np.delete(alive, np.concatenate(at)[~held])


def _rows(m: Mat2, keep) -> Mat2:
    """The matrices ``keep`` of the arrays of matrices ``m``."""
    return Mat2(*(v[keep] for v in m.entries()))


# --------------------------------------------------------------------------
# the searches


def _search(xs, ys, probes: tuple, px, py, targets: _Targets, entry_bound: float,
            require_nc: bool) -> list:
    """Matrices A that, with their inverses, send every probe into
    ``targets``: ``probes`` (``veech._probes``) index the points (xs, ys),
    and A takes the anchors p, q to a pair of the image pool (px, py).

    With base B = [p q] (columns) and an image pair as the columns of M,
    the candidate is A = M B^-1.  On an exact grid, with D = det B, that is
    N / D with N = M adj(B), and its inverse is B adj(M) / det M; distinct
    image pairs give distinct N, so there is nothing to deduplicate.
    """
    order, pair = probes
    if pair is None:
        raise DegenerateWindow(
            "no two independent points inside the inner radius")
    (x0, x1), (y0, y1) = xs[list(pair)].tolist(), ys[list(pair)].tolist()
    scale = targets.scale
    pool_norm = _float_norm2(px, py, scale)
    s = 1 if scale is None else scale
    cp = np.flatnonzero(pool_norm <= _pool_limit(x0 / s, y0 / s, entry_bound))
    cq = np.flatnonzero(pool_norm <= _pool_limit(x1 / s, y1 / s, entry_bound))
    images = (np.repeat(px[cp], len(cq)), np.repeat(py[cp], len(cq)),
              np.tile(px[cq], len(cp)), np.tile(py[cq], len(cp)))
    if scale is None:
        ax, ay, bx, by = images
        a = Mat2(ax, bx, ay, by).mul(Mat2(x0, x1, y0, y1).inverse())
        a = _rows(a, (a.det > 0) & (np.max(np.abs(np.stack(a.entries())), axis=0) <= entry_bound))
        if require_nc:
            a = _rows(a, ~_contracting(*a.entries()))
        acc = _accept([(*a.entries(), 0, 0, 0, 0), (*a.inverse().entries(), 0, 0, 0, 0)],
                      xs[order], ys[order], targets)
        # of one key, the first candidate accepted stays, and the identity
        # joins when none is at its key
        found = {}
        for row in [*zip(*(v[acc].tolist() for v in a.entries())), (1.0, 0.0, 0.0, 1.0)]:
            found.setdefault(_float_key(row), row)
        return [Mat2(*found[k]) for k in sorted(found)]
    d = x0 * y1 - x1 * y0
    si, sp = max(map(abs, (x0, x1, y0, y1))), _span(px[cp], py[cp], px[cq], py[cq])
    ax, ay, bx, by = _ints(max(16 * sp * sp * si * si, 8 * si ** 4, 4 * sp ** 4), *images)
    n = (ax * y1 - bx * y0, bx * x0 - ax * x1, ay * y1 - by * y0, by * x0 - ay * x1)
    det_m = ax * by - bx * ay
    keep = det_m > 0 if d > 0 else det_m < 0
    top = _entry_limit(entry_bound, abs(d), 2 * sp * si)
    keep &= np.max(np.abs(np.stack(n)), axis=0) <= top
    if require_nc:
        # A = N / D contracts when F_N < 2 D^2 and F_N - D^2 < (det M)^2
        f = sum(v * v for v in n)
        keep &= ~((f < 2 * d * d) & (f - d * d < det_m * det_m))
    n = [v[keep] for v in n]
    ax, ay, bx, by, det_m = ax[keep], ay[keep], bx[keep], by[keep], det_m[keep]
    inverse = (x0 * by - x1 * ay, x1 * ax - x0 * bx, y0 * by - y1 * ay, y1 * ax - y0 * bx)
    acc = _accept([(*n, 0, 0, d), (*inverse, 0, 0, det_m)], xs[order], ys[order], targets)
    # every candidate is a row of N sign(D) over |D|, so integer rows order
    # them as their Fraction entries would
    sign, ad = (1, d) if d > 0 else (-1, -d)
    rows = sorted(zip(*((sign * v[acc]).tolist() for v in n)))
    ident = (ad, 0, 0, ad)
    if ident not in rows:
        # only an entry bound below 1 drops the identity, and then every
        # entry is below |D|, so it sorts last
        rows.append(ident)
    frac = {v: Fraction(v, ad) for v in {v for row in rows for v in row}}
    return [Mat2(*map(frac.__getitem__, row)) for row in rows]


def window_stabilizer(w: ZeroWindow, r: float, e: float, req: bool) -> list:
    """``veech.stabilizer_candidates``."""
    xs, ys, _ = w.grid
    return _search(xs, ys, _probes(w.grid, r, w.mode), xs, ys, _window_targets(w), e, req)


def holonomy_stabilizer(h: HolonomySet, r: float, e: float, req: bool) -> list:
    """``veech.hol_stabilizer``."""
    xs, ys, scale = h.grid
    probes = _probes(h.grid, r, h.mode)
    px, py, pscale = veech._hol_pool(h, probes[1], e).grid
    if scale is not None:
        k = scale // pscale  # 1 unless h lists vectors off its window's grid
        px, py = _ints(_span(px, py) * k, px, py)
        px, py = px * k, py * k
    return _search(xs, ys, probes, px, py, _hol_targets(h), e, req)


def _integer_rows(mats: list):
    """(L, rows, largest |entry|) with each matrix's entries times L, the lcm
    of all their denominators."""
    den = 1
    for m in mats:
        for v in m.entries():
            den = math.lcm(den, v.denominator)
    rows = [[v.numerator * (den // v.denominator) for v in m.entries()] for m in mats]
    return den, rows, max(abs(v) for row in rows for v in row)


def closure_check(cands: list, w: ZeroWindow, r: float, e: float, req: bool) -> ClosureReport:
    """``veech.group_closure_check``: every product a.mul(b), in (a, b)
    order, acting through the kernel; exact candidates N / L give products
    N_a N_b / L^2, float ones have d = 1 below."""
    xs, ys, scale = w.grid
    order = _probes(w.grid, r, w.mode)[0]
    k = len(cands)
    if scale is None:
        a, d, key = np.array([m.entries() for m in cands], dtype=np.float64), 1, _float_key
        keys, limit = {_matrix_key(m, w.mode) for m in cands}, e
    else:
        den, rows, top = _integer_rows(cands)
        d, key = den * den, tuple
        # product entries stay within c, and so do their F, det and the
        # contraction test built from them
        c = 2 * top * top
        a = np.array(rows, dtype=object)
        a = _ints(max(4 * c ** 4, (4 * c * c + d * d) * d * d, c * d), a)[0]
        keys, limit = {tuple(den * v for v in row) for row in rows}, _entry_limit(e, d, c)
    prod = Mat2(*np.repeat(a, k, axis=0).T).mul(Mat2(*np.tile(a, (k, 1)).T))
    listed = np.array([key(t) in keys for t in zip(*(v.tolist() for v in prod.entries()))],
                      dtype=bool)
    test = ~listed & (np.max(np.abs(np.stack(prod.entries())), axis=0) <= limit)
    det = prod.det
    bad = np.flatnonzero(test & (det == 0))
    if len(bad):
        if scale is None:  # raise as the Mat2 methods raise
            p = cands[bad[0] // k].mul(cands[bad[0] % k])
            _contracting(*p.entries()) if req else p.inverse()
        raise SingularMatrix("closure check met a singular product")
    if req:
        f = sum(v * v for v in prod.entries())
        test &= ~((f < 2 * d * d) & ((f - d * d) * d * d < det * det))
    at = np.flatnonzero(test)
    p = _rows(prod, at)
    if scale is None:
        maps = [(*p.entries(), 0, 0, 0, 0), (*p.inverse().entries(), 0, 0, 0, 0)]
    else:
        maps = [(*p.entries(), 0, 0, d), (d * p.d, -d * p.b, -d * p.c, d * p.a, 0, 0, det[at])]
    hits = at[_accept(maps, xs[order], ys[order], _window_targets(w))]
    rep = ClosureReport(checked=int(listed.sum()))
    for i in hits.tolist():
        a, b = cands[i // k], cands[i % k]
        rep.violations.append((a, b, a.mul(b)))
    rep.skipped = k * k - rep.checked - len(rep.violations)
    return rep


def automorphisms(w: ZeroWindow, linears: list, r: float) -> list:
    """The pairs (A, t) of ``equiv.affine_automorphisms``, as one kernel
    pass, ordered by A's entries and then by t (``equiv._offset_key``).

    The pair (A, q) has t = q - A p0, p0 the first point.  Exact, with
    A = N / L, it sends p to (N p + L q - N p0) / L, and its inverse sends p
    to (L adj(N) p - L adj(N) q + det(N) p0) / det(N); as L > 0 and t is
    (tx, ty) / (L scale), the rows of N and then (tx, ty) give the order.
    """
    xs, ys, scale = w.grid
    order = _probes(w.grid, r, w.mode, w.center)[0]
    n = len(xs)
    if scale is None:
        m = Mat2(*np.repeat(np.array([a.entries() for a in linears]), n, axis=0).T)
        q = ZPoint(np.tile(xs, len(linears)), np.tile(ys, len(linears)))
        t = q - m.apply(ZPoint(xs[0], ys[0]))
        acc = _accept([(*m.entries(), *t, 0, 0), (*m.inverse().entries(), 0, 0, *t)],
                      xs[order], ys[order], _window_targets(w))
        # of one key, the first pair accepted stays
        found = {}
        for j, tj in zip(acc.tolist(), map(ZPoint, t.re[acc].tolist(), t.im[acc].tolist())):
            a = linears[j // n]
            found.setdefault((_matrix_key(a, w.mode), _float_key(tj)), (a, tj))
        return [found[key] for key in sorted(found)]
    den, rows, top = _integer_rows(linears)
    x0, y0 = int(xs[0]), int(ys[0])
    qx, qy, a = _ints(4 * (den + top) ** 2 * (_span(xs, ys) + 1), np.tile(xs, len(rows)),
                      np.tile(ys, len(rows)), np.repeat(np.array(rows, dtype=object), n, axis=0))
    n00, n01, n10, n11 = a.T
    det = n00 * n11 - n01 * n10
    tx, ty = den * qx - (n00 * x0 + n01 * y0), den * qy - (n10 * x0 + n11 * y0)
    forward = (n00, n01, n10, n11, tx, ty, den)
    inverse = (den * n11, -den * n01, -den * n10, den * n00,
               det * x0 - den * (n11 * qx - n01 * qy), det * y0 - den * (n00 * qy - n10 * qx), det)
    acc = _accept([forward, inverse], xs[order], ys[order], _window_targets(w))
    lin = (acc // n).tolist()
    keys = list(zip([rows[k] for k in lin], tx[acc].tolist(), ty[acc].tolist()))
    ts = grid_points(tx[acc], ty[acc], den * scale)
    return [(linears[lin[j]], ts[j]) for j in sorted(range(len(keys)), key=keys.__getitem__)]
