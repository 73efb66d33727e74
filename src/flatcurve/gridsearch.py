"""Stabilizer searches of exact windows on their integer grid.

The searches of ``veech`` and ``equiv`` come here for exact windows and
holonomy sets.  Each takes its probes, and ``_search`` its anchors, from
``veech._probes``, as the float loops do.  Every candidate is an integer
matrix over a common denominator, possibly with a translation: ``_search``
builds them as N = M adj(B) over D = det B from the image pairs M of the
anchor base B, closure products as N_a N_b over L^2, automorphisms as
(A, q) over L.  ``_accept`` then sends each probe through every candidate
at once: an image whose division is inexact is a miss, an exact one is
looked up among the window's points or the holonomy vectors
(``_Targets``), as ``flatgeom._members`` holds them.  Past a holonomy set's
length restriction an unlisted image stays open, and the source window
decides the distinct ones, told apart by their ``zseq._packed`` keys up to
sign, in one pass on its grid (``flatgeom._has_grid_vectors``).  Arrays
are int64 while every value computed from them stays below 2**62, and
Python ints past that.  Results are ordered on the integer rows the kernel
holds, over one positive denominator, which is the order of their Fraction
entries: the kernel builds a ``Mat2`` or ``ZPoint`` of Fractions only for
a result it returns.

Like every module of the package, it loads on first use: ``veech`` and
``equiv`` import it on the first exact search, so neither importing
``flatcurve`` nor loading ``veech`` compiles it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import veech
from .errors import DegenerateWindow, SingularMatrix
from .flatgeom import (HolonomySet, _Bitmap, _distinct, _has_grid_vectors, _members,
                       _past_restriction, _SortedKeys, _window_members)
from .veech import _BLOCK, ClosureReport, Mat2, _pool_limit, _probes
from .zseq import EXACT, ZeroWindow, _ints, _lengths, _packed, _ratio, _span, _unpacked, grid_points


# --------------------------------------------------------------------------
# integer arrays


def _float_norm2(xs, ys, scale: int) -> np.ndarray:
    """float(|p|^2) of the points p = (x, y) / scale, rounded as
    ``float(Fraction)`` rounds."""
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
    """A point set on an integer grid, as the kernel looks images up in it.

    ``members`` are the points as ``flatgeom._members`` builds them.  With
    ``window`` set, they are the vectors of a holonomy set restricted to
    ``restricted_to``: an unlisted image with no coordinate beyond ``limit``
    and past the restriction (``flatgeom._past_restriction``, on the image's
    length over ``scale``) stays open for ``window`` to decide, and the
    open phase packs such images with ``limit`` as their bound.
    """

    members: _Bitmap | _SortedKeys
    scale: int
    window: ZeroWindow | None = None
    restricted_to: float | None = None
    limit: int = 0

    def lookup(self, x, y, on_grid):
        """(hit, open) of the images (x, y), of which ``on_grid`` marks
        those whose division was exact; ``open`` is None without
        ``window``."""
        hit = on_grid & self.members.contains(x, y)
        if self.window is None:
            return hit, None
        opened = on_grid & ~hit & (abs(x) <= self.limit) & (abs(y) <= self.limit)
        at = opened.nonzero()
        x, y = _ints(2 * self.limit ** 2, x[at], y[at])
        opened[at] = _past_restriction(_lengths(x, y, self.scale), self.restricted_to)
        return hit, opened


def _window_targets(w: ZeroWindow) -> _Targets:
    """The points of an exact window."""
    return _Targets(_window_members(w), w.grid[2])


def _hol_targets(h: HolonomySet) -> _Targets:
    """The vectors of an exact holonomy set; past its length restriction the
    source window decides."""
    xs, ys, scale = h.grid
    limit = _span(xs, ys)
    window = h.window if h.restricted_to is not None else None
    if window is not None:
        # _has_grid_vectors refutes what is longer than any window difference
        limit = max(limit, 2 * _span(*window.grid[:2]) * (scale // window.grid[2]))
    return _Targets(_members(xs, ys), scale, window, h.restricted_to, limit)


def _images(cols, rows, x, y, targets: _Targets):
    """(x, y, hit, open) of the images of the probes (x, y) under
    candidates ``rows``."""
    a, b, c, d, e, f, den = (v[rows][:, None] if np.ndim(v) else v for v in cols)
    nx, ny = a * x + b * y + e, c * x + d * y + f
    ix, iy = nx // den, ny // den
    return (ix, iy, *targets.lookup(ix, iy, (ix * den == nx) & (iy * den == ny)))


def _accept(maps, px, py, targets: _Targets):
    """Indices of the candidates that send every probe into ``targets``
    under each map in ``maps``.

    A map is the columns (a, b, c, d, e, f, den), arrays over candidates or
    scalars: candidate k sends probe (x, y) to ((a x + b y + e) / den,
    (c x + d y + f) / den), a miss unless both divisions are exact.  The
    probes (px, py), longest first, go in blocks of about _BLOCK images, and
    a candidate is dropped at its first failing block, as ``_action_ok``
    returns at its first miss.  Images left open (``_Targets``) are decided
    last, by the source window: those of every live candidate under each
    map, taken up to sign, each distinct one once, and a candidate with a
    refused image is dropped.
    """
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
    # the open images, packed, of the candidates at positions ``at`` of alive
    at, keys = [], []
    step = max(1, _BLOCK // (2 * len(px)))
    for lo in range(0, len(alive), step):
        for cols in maps:
            ix, iy, _, opened = _images(cols, alive[lo:lo + step], px, py, targets)
            rows, cells = opened.nonzero()
            at.append(rows + lo)
            packed, shift = _packed(ix[rows, cells], iy[rows, cells], targets.limit)
            keys.append(abs(packed))  # the key of -v is minus that of v
    at, keys = np.concatenate(at), np.concatenate(keys)
    images = _distinct(np.sort(keys))
    vx, vy = _unpacked(images, shift)
    # a grid finer than the window's holds vectors no window pair differs by
    k = targets.scale // targets.window.grid[2]
    on = np.flatnonzero((vx % k == 0) & (vy % k == 0))
    held = np.zeros(len(images), dtype=bool)
    held[on] = _has_grid_vectors(targets.window, vx[on] // k, vy[on] // k)
    return np.delete(alive, at[~held[np.searchsorted(images, keys)]])


# --------------------------------------------------------------------------
# the searches


def _search(xs, ys, probes: tuple, px, py, targets: _Targets, entry_bound: float,
            require_nc: bool) -> list:
    """``veech._search`` on the integer grid of ``targets``: ``probes``
    (``veech._probes``) index the points (xs, ys), and the image pool sits
    at (px, py).

    With base B = [p q] (columns), D = det B and an image pair as the
    columns of M, the candidate is A = N / D with N = M adj(B), and its
    inverse is B adj(M) / det M.  Distinct image pairs give distinct N, so
    there is nothing to deduplicate.
    """
    order, pair = probes
    if pair is None:
        raise DegenerateWindow(
            "no two independent points inside the inner radius")
    (x0, x1), (y0, y1) = xs[list(pair)].tolist(), ys[list(pair)].tolist()
    scale = targets.scale
    pool_norm = _float_norm2(px, py, scale)
    cp = np.flatnonzero(pool_norm <= _pool_limit(x0 / scale, y0 / scale, entry_bound))
    cq = np.flatnonzero(pool_norm <= _pool_limit(x1 / scale, y1 / scale, entry_bound))
    d = x0 * y1 - x1 * y0
    si, sp = max(map(abs, (x0, x1, y0, y1))), _span(px[cp], py[cp], px[cq], py[cq])
    ax, ay, bx, by = _ints(max(16 * sp * sp * si * si, 8 * si ** 4, 4 * sp ** 4),
                           np.repeat(px[cp], len(cq)), np.repeat(py[cp], len(cq)),
                           np.tile(px[cq], len(cp)), np.tile(py[cq], len(cp)))
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
    """``veech.stabilizer_candidates`` of an exact window."""
    xs, ys, _ = w.grid
    return _search(xs, ys, _probes(w.grid, r, EXACT), xs, ys, _window_targets(w), e, req)


def holonomy_stabilizer(h: HolonomySet, r: float, e: float, req: bool) -> list:
    """``veech.hol_stabilizer`` of an exact holonomy set."""
    xs, ys, scale = h.grid
    probes = _probes(h.grid, r, EXACT)
    px, py, pscale = veech._hol_pool(h, probes[1], e).grid
    k = scale // pscale  # 1 unless h lists vectors off its window's grid
    px, py = _ints(_span(px, py) * k, px, py)
    return _search(xs, ys, probes, px * k, py * k, _hol_targets(h), e, req)


def _integer_rows(mats: list):
    """(L, rows, largest |entry|) with each matrix's entries times L, the lcm
    of all their denominators."""
    den = 1
    for m in mats:
        for v in m.entries():
            den = math.lcm(den, v.denominator)
    rows = [[int(v * den) for v in m.entries()] for m in mats]
    return den, rows, max(abs(v) for row in rows for v in row)


def closure_check(cands: list, w: ZeroWindow, r: float, e: float, req: bool) -> ClosureReport:
    """``veech.group_closure_check`` of an exact window: with candidates
    N / L, a product is N_a N_b / L^2, acting through the kernel."""
    xs, ys, _ = w.grid
    order = _probes(w.grid, r, EXACT)[0]
    den, rows, top = _integer_rows(cands)
    k, d = len(cands), den * den
    # product entries stay within c, and so do their F, det and the
    # contraction test built from them
    c = 2 * top * top
    a = _ints(max(4 * c ** 4, (4 * c * c + d * d) * d * d, c * d), np.array(rows, dtype=object))[0]
    a00, a01, a10, a11 = np.repeat(a, k, axis=0).T
    b00, b01, b10, b11 = np.tile(a, (k, 1)).T
    prod = (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)
    keys = {tuple(den * v for v in row) for row in rows}
    listed = np.array([t in keys for t in zip(*(v.tolist() for v in prod))], dtype=bool)
    test = ~listed & (np.max(np.abs(np.stack(prod)), axis=0) <= _entry_limit(e, d, c))
    det = prod[0] * prod[3] - prod[1] * prod[2]
    if (test & (det == 0)).any():
        raise SingularMatrix("closure check met a singular product")
    if req:
        f = sum(v * v for v in prod)
        test &= ~((f < 2 * d * d) & ((f - d * d) * d * d < det * det))
    at = np.flatnonzero(test)
    p00, p01, p10, p11 = (v[at] for v in prod)
    inverse = (d * p11, -d * p01, -d * p10, d * p00, 0, 0, det[at])
    hits = at[_accept([(p00, p01, p10, p11, 0, 0, d), inverse], xs[order], ys[order],
                      _window_targets(w))]
    rep = ClosureReport(checked=int(listed.sum()))
    for i in hits.tolist():
        a, b = cands[i // k], cands[i % k]
        rep.violations.append((a, b, a.mul(b)))
    rep.skipped = k * k - rep.checked - len(rep.violations)
    return rep


def automorphisms(w: ZeroWindow, linears: list, r: float) -> list:
    """The pairs (A, t) of ``equiv.affine_automorphisms`` on an exact
    window, as one kernel pass, ordered by A's entries and then by t.

    With A = N / L and p0 the first point, the pair (A, q) has t = q - A p0
    and sends p to (N p + L q - N p0) / L; its inverse sends p to
    (L adj(N) p - L adj(N) q + det(N) p0) / det(N).  As L > 0 and t is
    (tx, ty) / (L scale), the rows of N and then (tx, ty) give that order.
    """
    xs, ys, scale = w.grid
    order = _probes(w.grid, r, EXACT, w.center)[0]
    den, rows, top = _integer_rows(linears)
    n = len(xs)
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
