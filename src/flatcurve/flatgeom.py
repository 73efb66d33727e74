"""Saddle connections and holonomy vectors of a zero window.

Two window points see each other when no third window point lies on the
open segment between them.  Each visible (unordered) pair contributes one
saddle connection; its holonomy vector, taken with both signs, populates
the window's holonomy set.

Exact windows, whatever their denominators, work on their integer grid
(``ZeroWindow.grid``, see ``zseq``), moved to put the first point at 0 and
divided by the gcd of all coordinates.  Let (dx, dy) be a pair's offset
and g = gcd(dx, dy).  A blocker lies on the grid and on the open segment,
so it is anchor + k (dx/g, dy/g) for some 0 < k < g, which gives two rules:

- a pair with g = 1 has no grid point between its ends: it is visible;
- a pair with g > 1 is blocked when its first step, anchor + (dx/g, dy/g),
  is a window point.

Both rules read off a *difference table* when it is no larger than the
pairs.  With the reduced points' bounding box W x H, corner (x0, y0), and
(2W - 1)(2H - 1) <= n(n - 1)/2, each point gets the index lin = (x - x0) S
+ y - y0, S = 2H - 1, so lin[j] - lin[i] = dx S + dy fixes (dx, dy), and
one ``np.gcd`` over the (2W - 1)(2H - 1) differences gives tables of the
flag g = 1, of the first step's index offset (dx/g) S + dy/g and, under a
bound, of dx^2 + dy^2.  A bitmap of W S cells marks the window points.  A
pair's first step lies on the segment between two points of the box, so
inside the box: lin[i] plus its offset is the first step's own index, with
no bounds test and no alias.  A Python-int grid whose reduced coordinates
stay within 2**28, as a lattice moved by 2**40, is typed int64 first.
Other windows, such as rational clouds, orbit windows and wide Python-int
grids, pay one gcd per pair and look the first step up among the points
with ``_members``.  That function is where every exact point-set lookup
of the package, here and in ``gridsearch`` and ``equiv``, chooses between
a bitmap over the box and sorted ``zseq._packed`` keys.

On a window that holds every grid point of a convex region, such as a
lattice ball, the first step lies between two window points, so these
rules settle every pair.  A pair still open, g > 1 with its first step
missing, is visible exactly when its far end is the nearest window point
along the primitive direction (dx/g, dy/g), the rule that holds on every
window; one lexsort over the open anchors' rows finds those points.  No
step counts up to g, which can be near 2**28.  Fractions are built once
per distinct output coordinate.

Under a bound limit2 the table also lists the candidate pairs.  Take the
k differences d = (dx, dy) of the tables with 0 < dx^2 + dy^2 <= limit2
in the open upper half plane, dx > 0 or dx = 0 < dy.  Each point i meets
the point j at index lin[i] + dx S + dy, when there is one, as the pair
(min(i, j), max(i, j)).  Of d and -d exactly one lies in that half plane,
so every pair within the bound is met exactly once, and these n k entries
replace the n(n - 1)/2 of the upper triangle when they are fewer, the
same count of entries that chooses the table over the keys.  Without a
bound k is half the table less its centre, at least (n - 1)/2 on every
window, so the triangle stays.  As |dy| < H, a y that leaves [0, H) lands
in one of the padding rows that S = 2H - 1 leaves, as for a first step;
and as the half plane puts lin[i] + dx S + dy above lin[i], only an x past
the box needs a test, of one upper bound.  The candidates' keys i n + j
are sorted once, and the tables and the nearest-point rule decide them.

A holonomy query asks whether a vector v is the difference of a visible
pair.  ``_has_grid_vectors`` answers it for a block of grid vectors of an
exact window.  A witness is a window point p with p + v in the window,
looked up with ``_members``; a v with no witness is no holonomy vector.
With U the gcd of the window's differences, every window point lies in
its first point plus U Z^2, so a witnessed v with gcd(v) = U steps over
no point of that lattice and is held.  Any other witnessed v is held when,
with the points sorted by (p x v, p.v), that is line by line along v, some
witness p has p + v right after it: no window point lies between them.

Float mode uses an eps-tube: with b and c the offsets of two points from
the anchor, c blocks b when |b x c| <= eps |b| and eps/2 |b|^2 < b.c <
(1 - eps/2) |b|^2.  ``_blocked`` holds this test, and the exact one (c on
the open segment from 0 to b), for every brute-force check.
``visible_pairs`` decides it by angular runs, in O(n^2 log n).  Per
anchor, the other points are sorted by argument and cut into runs
wherever two neighbours lie more than delta = asin(min(1, eps / r_min))
(1 + 1e-6) + 2**-46 apart, r_min the anchor's nearest-point distance.  A
point alone in its run is visible.  In a *tight* run (spread
times max(largest norm, 1) <= eps/4, nearest norm |q| below (1 - eps) times
the second-nearest and above eps times the largest) the nearest point is
visible and every other one blocked.  Every other run, and an anchor's first
and last runs when they meet across +-pi, fall back to the eps-tube test
among their own members.  The proof obligations, in exact arithmetic:

- points in different runs cannot block each other: a blocker c of b has
  b.c > 0 and sin(angle) <= eps / |c| <= eps / r_min, so no gap between
  their arguments exceeds delta, unless the angle crosses +-pi, and then
  they lie in the first and last runs, which are joined;
- a tight run puts each nearer member inside each farther member's tube,
  with the dot condition met: with spread phi, |b x q| <= |b| |q| phi <=
  eps |b| / 4, b.q <= |q| |b| < (1 - eps) |b|^2 and b.q >= |b| |q| cos(phi)
  > eps |b|^2 / 2; and no member c blocks q, since q.c >= |q|^2 cos(phi) /
  (1 - eps) > (1 - eps/2) |q|^2;
- the fallback catches norm ties closer than eps |b|: there q.c may fall
  below (1 - eps/2) |q|^2, and the run is not tight.

The margins in delta cover the rounding of atan2, asin and the cross
product.  A run is tight only where eps >= max(2**-40, largest norm *
2**-46), so the rule's slack, a factor 4 in the tube and about eps |b|^2
in the dot bounds, exceeds the rounding of the float test it replaces.

A float window on a *coarse grid* skips the runs.  Its coordinates are all
integer multiples X u, Y u of one unit u = 2**-k, k >= 0 the least such,
with |X|, |Y| <= 2**24 and the largest coordinate at least 2**-475 (so k <
500 and u^2 is a normal float).  With D the diagonal of the points' bounding
box in units of u, at least their largest distance, the grid is coarse when
eps D < u/2 and eps D^2 / 2 < 1/2, each a margin of 2 over what the proof
needs, for the rounding of eps |b| and of the dot bounds.  Every cross and
dot product of two offsets is then an exact multiple of u^2 below 2**53
u^2, and the eps-tube test is exact collinearity; the proof obligations:

- a point c off the line of b has |b x c| >= u^2 > eps |b|, as |b| <= D u;
- a point on the line strictly between the ends has u^2 <= b.c <= |b|^2 -
  u^2, inside the dot band, since eps/2 |b|^2 <= eps D^2 u^2 / 2 < u^2.

So ``visible_pairs`` runs the exact algorithm on the int64 grid (X, Y),
with a length bound limit2 (in the window's units) becoming floor(limit2
4**k), and ``holonomy`` builds its set with eps = 0, which drops exact
repeats only: distinct grid vectors lie at least u > eps apart, so no
near-duplicates exist.  ``_on_coarse_grid`` finds the grid and tests it in
one pass, with no loop over k; a window keeps the result in its cache.

A float holonomy set (``_signed_distinct_float``) is built from the half
plane of arguments [0, pi), upper for short, where every pair's vector v
or its negative lies.  Both v and -v first occur at the first pair that
holds either, so one pass over the pairs finds each upper value's first
pair, whose bits give the value and its negative.  That pass is one sort
of int64 keys: a hash of the bits of x and y (0.0 and -0.0 made equal)
above the pair's index, so each value's pairs meet, first pair first; the
rare distinct values that share a hash are told apart among themselves.
The canonical key is (norm2, 0, -x) in the upper half and (norm2, 1, x)
in the lower, ties in order of first occurrence.  A negative -u has the
norm2 of u, bit for bit, and the key x = -x_u, so in each run of equal
norm2 the lower vectors are the negatives of the upper ones in the same
order.  Sorting the distinct upper values by (norm2, -x), ties by first
pair, and writing out each run of equal norm2 twice, the second time
negated, gives the canonical order with no sort of the full set.

Near-duplicates then go in canonical order: a vector is dropped when
``same_point`` matches it to one kept earlier in one of the 3 x 3
eps-cells about it (``zseq._first_copies``).  A cell is (floor(x /
eps), floor(y / eps)), a pair of floats that may pass 2**53, so columns
and rows are replaced by their dense ranks: one int64 key col * height +
row orders the cells as the floats order them, and the rows ky - 1 and ky
+ 1 (rounded as floats round them) by the ranks of the rows they reach.
Sorted by that key, each vector takes, by searches made in the same
order, the later members of its column up to row ky + 1 and rows ky - 1
.. ky + 1 of the column kx + 1, when there is one: every pair of
neighbouring cells once, and no other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import EmptyWindow
from .zseq import (_INT_COORD_LIMIT, Mode, ZPoint, ZeroWindow, _first_copies, _float_members,
                   _ints, _lengths, _moved, _packed, _ranks, _ratio, _span, _spans, _starts,
                   _typed_grid, _unpacked, canonical_permutation, coordinate_grid, grid_points,
                   rescale_grid)


# --------------------------------------------------------------------------
# single-pair predicates


def _blocked(ux, uy, vx, vy, eps):
    """Mask of the offsets v from an anchor that block the offset u, Python
    scalars or broadcast arrays: v on the open segment from 0 to u on the
    integer grid when ``eps`` is None, else in u's eps-tube (see the module
    docstring)."""
    crs = ux * vy - uy * vx
    s = ux * vx + uy * vy
    len2 = ux * ux + uy * uy
    if eps is None:
        return (crs == 0) & (s > 0) & (s < len2)
    return (abs(crs) <= eps * np.sqrt(len2)) & (s > eps / 2 * len2) & (s < (1 - eps / 2) * len2)


def point_blocks(a: ZPoint, b: ZPoint, c: ZPoint, mode: Mode) -> bool:
    """Does ``c`` lie on the open segment from ``a`` to ``b``?"""
    u, v = b - a, c - a
    if mode.is_exact:
        return bool(_blocked(u.re, u.im, v.re, v.im, None))
    return bool(_blocked(float(u.re), float(u.im), float(v.re), float(v.im), mode.eps))


def is_visible(w: ZeroWindow, r: int, l: int) -> bool:
    """No third window point lies strictly inside segment (r, l)."""
    xs, ys, _ = w.grid
    ux, uy = xs[l] - xs[r], ys[l] - ys[r]
    if r == l:
        raise ValueError("a point does not see itself")
    eps = None if w.mode.is_exact else w.mode.eps
    return not _blocked(ux, uy, xs - xs[r], ys - ys[r], eps).any()


# --------------------------------------------------------------------------
# batched enumeration


def _length_bound(w: ZeroWindow, max_length) -> int | float | None:
    """The squared-length bound on w's grid that ``max_length`` sets: an
    integer in exact mode, a float with a relative band of 1e-12 in float
    mode, None without a bound."""
    if max_length is None:
        return None
    if not 0 <= max_length < math.inf:  # NaN fails both comparisons
        raise ValueError(f"max_length must be finite and >= 0, got {max_length!r}")
    scale = w.grid[2]
    if scale is None:
        # a product, unlike ** 2, overflows to inf past 1.3e154
        bound = _float_length(max_length)
        return bound * bound * (1 + 1e-12)
    bound2 = (Fraction(max_length) * scale) ** 2
    # squared distances are integers after scaling, so flooring the
    # rational bound loses nothing
    return bound2.numerator // bound2.denominator


_FLOAT_MAX = 1.7976931348623157e308  # the largest finite float


def _float_length(length) -> float:
    """float(length) of a length >= 0, inf past the float range, where
    float() of a Python int or Fraction raises."""
    return float(length) if length <= _FLOAT_MAX else math.inf


def visible_pairs(w: ZeroWindow, max_length: float | None = None) -> np.ndarray:
    """All visible index pairs (i, j), i < j, as the rows of an (m, 2)
    int64 array in ascending order, of shape (0, 2) when there are none.

    ``max_length`` restricts enumeration to pairs at distance <= max_length;
    any blocker of such a pair lies closer to the anchor than the other
    endpoint, so the restriction loses nothing.  A negative or non-finite
    ``max_length`` raises ``ValueError``.

    Exact pairs cost O(n^2) entries, one per pair, but on a window that
    reads them off the difference table (see the module docstring) a bound
    costs n k entries, k the number of grid vectors within it in a half
    plane, when that is fewer, plus one pass over the table.
    """
    limit2 = _length_bound(w, max_length)
    xs, ys, scale = w.grid
    if len(xs) < 2:
        return np.zeros((0, 2), dtype=np.int64)
    if scale is None:
        coarse = _coarse_grid(w)
        if coarse is None:
            return np.stack(_float_visible_pairs(xs, ys, w.mode.eps, limit2), axis=1)
        xs, ys, k = coarse
        if limit2 is not None:
            # squared lengths in units of 2**-k are integers below 2**52
            limit2 = int(min(limit2 * 4.0 ** k, 2.0 ** 62))
    return np.stack(_exact_visible_pairs(xs, ys, limit2), axis=1)


_COARSE_SPAN = 1 << 24  # largest |X|, |Y| on a coarse grid: products of offsets stay below 2**53


def _coarse_grid(w: ZeroWindow):
    """``_on_coarse_grid`` of a float window, computed once per window."""
    if "coarse_grid" not in w._cache:
        w._cache["coarse_grid"] = _on_coarse_grid(*w.grid[:2], w.mode.eps)
    return w._cache["coarse_grid"]


def _on_coarse_grid(xs, ys, eps: float):
    """(X, Y, k) with (xs, ys) = (X, Y) 2**-k, X and Y int64 and k >= 0 the
    least such, when that grid is coarse for ``eps`` (see the module
    docstring); None otherwise."""
    top = max(np.abs(xs).max(initial=0.0), np.abs(ys).max(initial=0.0))
    # the lower bound keeps k < 500, so u**2 and every product are normal
    # floats; with u <= 1 no coordinate past the upper one is on the grid
    if not 2.0 ** -475 <= top <= _COARSE_SPAN:
        return None
    big = 25 - math.frexp(top)[1]  # top * 2**big lies in [2**24, 2**25)
    gx, gy = xs * 2.0 ** big, ys * 2.0 ** big
    if not ((gx == np.floor(gx)).all() and (gy == np.floor(gy)).all()):
        return None
    gx, gy = gx.astype(np.int64), gy.astype(np.int64)
    bits = int(np.bitwise_or.reduce(gx | gy))
    k = max(0, big - ((bits & -bits).bit_length() - 1))
    if top * 2.0 ** k > _COARSE_SPAN:
        return None
    gx, gy = gx >> (big - k), gy >> (big - k)
    span2 = int(gx.max() - gx.min()) ** 2 + int(gy.max() - gy.min()) ** 2
    if not (eps * math.sqrt(span2) < 2.0 ** -(k + 1) and eps * span2 < 1):
        return None
    return gx, gy, k


_EXACT_BLOCK_ENTRIES = 1 << 14  # (anchor, point) entries per block of anchors, exact windows


def _exact_visible_pairs(xs, ys, limit2) -> tuple:
    """Arrays (i, j) of the visible pairs i < j of an exact window, ascending,
    by gcd and first-step probe (see the module docstring): read off the
    difference table when it is no larger than the pairs, else by sorted
    keys."""
    n = len(xs)
    xs, ys, limit2 = _reduced(xs, ys, limit2)
    width, height = _box(xs, ys)
    if xs.dtype != object and (2 * width - 1) * (2 * height - 1) <= n * (n - 1) // 2:
        lookup = _table_lookup(xs, ys, limit2)
        pairs = lookup.pairs
    else:
        lookup, pairs = _key_lookup(xs, ys, limit2), None
    return _visible_by_lookup(xs, ys, limit2, lookup, pairs)


def _reduced(xs, ys, limit2) -> tuple:
    """(xs, ys, limit2) of an exact grid moved to put its first point at 0
    and divided by the gcd of all coordinates, typed as ``zseq`` types
    grids; a bound past the diagonal of the points' box becomes None."""
    # visibility survives translation and scaling: so reduced, a translated
    # lattice is a lattice again, and a small box fits int64 whatever the
    # grid it came from
    xs, ys = xs - xs[0], ys - ys[0]
    unit = math.gcd(int(np.gcd.reduce(xs)), int(np.gcd.reduce(ys)))
    xs, ys = xs // unit, ys // unit
    if xs.dtype == object:
        xs, ys, _ = _typed_grid(xs, ys, 1)
    if limit2 is not None:
        width, height = _box(xs, ys)
        limit2 //= unit * unit
        if limit2 >= (width - 1) ** 2 + (height - 1) ** 2:
            limit2 = None
    return xs, ys, limit2


def _box(xs, ys) -> tuple:
    """The width W and height H of the bounding box of the grid points
    (xs, ys), counted in grid points."""
    return int(xs.max() - xs.min()) + 1, int(ys.max() - ys.min()) + 1


def _visible_by_lookup(xs, ys, limit2, lookup, pairs=None) -> tuple:
    """Arrays (i, j) of the visible pairs i < j of a reduced grid, ascending,
    among the candidate ``pairs``, ascending arrays (i, j), or by default
    the upper triangle, a block at a time.  ``lookup(row, col)`` keeps the
    pairs within the bound and returns (row, col, visible, open), visible
    the mask of the pairs with g = 1 and open the positions of those with
    g > 1 whose first step is no window point."""
    n = len(xs)
    # seeded, since the candidates can be none
    none = np.zeros(0, dtype=np.int64)
    out_i, out_j = [none], [none]
    if pairs is None:
        blocks = _upper_triangle(n)
    else:
        blocks = ((pairs[0][lo:lo + _EXACT_BLOCK_ENTRIES], pairs[1][lo:lo + _EXACT_BLOCK_ENTRIES])
                  for lo in range(0, len(pairs[0]), _EXACT_BLOCK_ENTRIES))
    for row, col in blocks:
        row, col, visible, open_ = lookup(row, col)
        if len(open_):
            fi, fj = _nearest_beyond_first_step(xs, ys, limit2, _distinct(row[open_]))
            visible[open_] = np.isin(row[open_] * n + col[open_], fi * n + fj)
        out_i.append(row[visible])
        out_j.append(col[visible])
    return np.concatenate(out_i), np.concatenate(out_j)


def _upper_triangle(n: int):
    """The pairs (i, j > i) of n points as arrays (row, col), a block of
    anchors i at a time."""
    counts = np.arange(n - 1, 0, -1)  # entries (i, j > i) of anchor i
    before = np.cumsum(counts) - counts
    # a block starts where the entries before it pass a multiple of the block size
    starts = np.flatnonzero(np.r_[True, np.diff(before // _EXACT_BLOCK_ENTRIES) > 0]).tolist()
    for lo, hi in zip(starts, starts[1:] + [n - 1]):
        row = np.repeat(np.arange(lo, hi), counts[lo:hi])
        col = np.arange(len(row)) + row + 1 - np.repeat(before[lo:hi] - before[lo], counts[lo:hi])
        yield row, col


def _table_lookup(xs, ys, limit2):
    """The ``_visible_by_lookup`` lookup of an int64 grid read off tables over
    the differences of its W x H bounding box (see the module docstring).
    Its ``pairs`` are the candidate pairs read off the table's differences
    within the bound, or None when the upper triangle has fewer entries."""
    n = len(xs)
    width, height = _box(xs, ys)
    stride = 2 * height - 1
    # a point's index in the box, and a difference's in the tables, which
    # cover dx in (-W, W) and dy in (-H, H) in the order of dx S + dy
    lin = (xs - xs.min()) * stride + ys - ys.min()
    centre = (width - 1) * stride + height - 1  # the index of (0, 0)
    ahead = lin + centre
    dx = np.repeat(np.arange(1 - width, width), stride)
    dy = np.tile(np.arange(1 - height, height), 2 * width - 1)
    g = np.gcd(dx, dy)
    primitive = g == 1
    g[g == 0] = 1  # at the difference (0, 0), which no pair has
    first = dx // g * stride + dy // g
    norm2 = None if limit2 is None else dx * dx + dy * dy
    member = np.zeros(width * stride, dtype=bool)
    member[lin] = True

    def lookup(row, col):
        d = ahead[col] - lin[row]
        if norm2 is not None:
            near = norm2[d] <= limit2
            row, col, d = row[near], col[near], d[near]
        visible = primitive[d]
        step = np.flatnonzero(~visible)
        return row, col, visible, step[~member[lin[row[step]] + first[d[step]]]]

    # the differences past (0, 0) are those of the open upper half plane
    offsets = np.arange(1, centre + 1) if norm2 is None \
        else np.flatnonzero(norm2[centre + 1:] <= limit2) + 1
    lookup.pairs = _short_pairs(lin, offsets, width * stride) \
        if n * len(offsets) < n * (n - 1) // 2 else None
    return lookup


def _short_pairs(lin, offsets, cells: int) -> tuple:
    """Arrays (i, j), ascending, of the pairs i < j of the points at the box
    indices ``lin``, each below ``cells``, that lie ``offsets`` apart: each
    point meets the point at each offset past it (see the module
    docstring)."""
    n = len(lin)
    # the point at each index, and -1 at one index past the box, where every
    # step out of the box in x is sent
    at = np.full(cells + 1, -1)
    at[lin] = np.arange(n)
    j = at[np.minimum(lin[:, None] + offsets, cells)]
    hit = j >= 0
    i, j = np.nonzero(hit)[0], j[hit]
    return np.divmod(np.sort(np.minimum(i, j) * n + np.maximum(i, j)), n)


def _key_lookup(xs, ys, limit2):
    """The ``_visible_by_lookup`` lookup of a grid by one gcd per pair and one
    lookup of its first step among the points (``_members``)."""
    members = _members(xs, ys)

    def lookup(row, col):
        dx, dy = xs[col] - xs[row], ys[col] - ys[row]
        if limit2 is not None:
            near = dx * dx + dy * dy <= limit2
            row, col, dx, dy = row[near], col[near], dx[near], dy[near]
        g = np.gcd(dx, dy)
        visible = g == 1
        step = np.flatnonzero(~visible)
        gs, rs = g[step], row[step]
        return row, col, visible, step[~members.contains(xs[rs] + dx[step] // gs,
                                                         ys[rs] + dy[step] // gs)]

    return lookup


def _distinct(a):
    """The sorted array ``a`` without repeats.  (A plain ``np.unique``, in
    NumPy 2.4, imports ``numpy.ma`` on first use: about 16 ms and 1 MB that
    every command-line run would pay.)"""
    return a[_starts(a)]


def _nearest_beyond_first_step(xs, ys, limit2, anchors) -> tuple:
    """Arrays (i, j) of the pairs i < j, i among ``anchors``, where j is the
    window point nearest i along its primitive direction among those two or
    more steps away, within the bound ``limit2``; a block of anchors at a
    time.  On an open pair's direction no window point lies one step away,
    so there this is the nearest window point, and the pair is visible
    exactly when it is listed."""
    n = len(xs)
    # a reduced int64 grid lies within 2 * 2**28, as its directions of g > 1 steps do
    bound = 2 * (_INT_COORD_LIMIT if xs.dtype != object else _span(xs, ys))
    step = max(1, _EXACT_BLOCK_ENTRIES // n)
    out_i, out_j = [], []
    for lo in range(0, len(anchors), step):
        a = anchors[lo:lo + step]
        dx = xs[None, :] - xs[a, None]
        dy = ys[None, :] - ys[a, None]
        live = np.arange(n)[None, :] != a[:, None]
        if limit2 is not None:
            live &= dx * dx + dy * dy <= limit2
        row, col = np.nonzero(live)
        dx, dy = dx[row, col], dy[row, col]
        g = np.gcd(dx, dy)
        far = g > 1
        row, col, dx, dy, g = row[far], col[far], dx[far], dy[far], g[far]
        direction = _packed(dx // g, dy // g, bound)[0]
        order = np.lexsort((g, direction, row))
        row, col, direction = row[order], col[order], direction[order]
        first = np.r_[True, (row[1:] != row[:-1]) | (direction[1:] != direction[:-1])]
        i, j = a[row[first]], col[first]
        out_i.append(i[j > i])
        out_j.append(j[j > i])
    return np.concatenate(out_i), np.concatenate(out_j)


_BLOCK_ENTRIES = 1 << 16  # (anchor, point) entries per block of anchors
_ANGLE_SLACK = 2.0 ** -46  # covers the rounding of atan2 and of the cross product


def _float_visible_pairs(xs, ys, eps: float, limit2) -> tuple:
    """Arrays (i, j) of the visible pairs i < j of a float window, ascending,
    by angular runs (see the module docstring), a block of anchors at a
    time."""
    n = len(xs)
    step = max(1, _BLOCK_ENTRIES // n)
    # seeded, since a bound can leave no block with a live row
    none = np.zeros(0, dtype=np.int64)
    out_i, out_j = [none], [none]
    for lo in range(0, n - 1, step):
        anchors = np.arange(lo, min(lo + step, n - 1))
        dx = xs[None, :] - xs[anchors, None]
        dy = ys[None, :] - ys[anchors, None]
        d2 = dx * dx + dy * dy
        live = np.arange(n)[None, :] != anchors[:, None]
        if limit2 is not None:
            live &= d2 <= limit2
        theta = np.where(live, np.arctan2(dy, dx), np.inf)
        order = np.argsort(theta, axis=1)
        # the live entries, row by row in angular order
        row, col = np.nonzero(np.take_along_axis(live, order, axis=1))
        if not len(row):
            continue
        k = order[row, col]
        t, nrm = theta[row, k], np.sqrt(d2[row, k])
        r_min = np.sqrt(np.where(live, d2, np.inf).min(axis=1))
        # r_min underflows to 0 below about 1e-162, where eps = 0 must not
        # divide 0 by 0
        delta = np.arcsin(np.minimum(1.0, eps / np.maximum(r_min, eps or 1.0))) * (1 + 1e-6) \
            + _ANGLE_SLACK
        row_start = np.r_[True, row[1:] != row[:-1]]
        start = row_start | np.r_[True, t[1:] - t[:-1] > delta[row[1:]]]
        run = np.cumsum(start) - 1
        first = np.flatnonzero(start)
        last = np.r_[first[1:], len(t)] - 1
        size = last - first + 1
        near = np.minimum.reduceat(nrm, first)
        far = np.maximum.reduceat(nrm, first)
        is_near = nrm == near[run]
        second = np.minimum.reduceat(np.where(is_near, np.inf, nrm), first)
        tight = (size > 1) & (np.add.reduceat(is_near, first, dtype=np.intp) == 1) \
            & (near < (1 - eps) * second) & (near > eps * far) \
            & ((t[last] - t[first]) * np.maximum(far, 1.0) <= eps / 4) \
            & (np.maximum(2.0 ** -40, far * 2.0 ** -46) <= eps)
        # a row's first and last runs meet across +-pi
        row_first = np.flatnonzero(row_start)
        row_last = np.r_[row_first[1:], len(t)] - 1
        opening, closing = run[row_first], run[row_last]
        wrap = (opening != closing) \
            & (t[row_first] + 2 * np.pi - t[row_last] <= delta[row[row_first]])
        opening, closing = opening[wrap], closing[wrap]
        joined = np.zeros(len(first), dtype=bool)
        joined[opening] = joined[closing] = True
        single, tight = (size == 1) & ~joined, tight & ~joined
        visible = single[run] | (tight[run] & is_near)
        bx, by = dx[row, k], dy[row, k]
        groups = [np.arange(first[r], last[r] + 1)
                  for r in np.flatnonzero(~(single | tight | joined)).tolist()]
        groups += [np.r_[first[i]:last[i] + 1, first[j]:last[j] + 1]
                   for i, j in zip(opening.tolist(), closing.tolist())]
        for g in groups:
            gx, gy = bx[g], by[g]
            visible[g] = ~_blocked(gx[:, None], gy[:, None], gx, gy, eps).any(axis=1)
        seen = np.zeros(dx.shape, dtype=bool)
        seen[row[visible], k[visible]] = True
        ii, jj = np.nonzero(seen & (np.arange(n)[None, :] > anchors[:, None]))
        out_i.append(ii + lo)
        out_j.append(jj)
    return np.concatenate(out_i), np.concatenate(out_j)


def visible_pairs_bruteforce(w: ZeroWindow) -> list:
    """Oracle: every pair against every potential blocker, no shortcuts."""
    n = len(w)
    return [(i, j) for i in range(n - 1) for j in range(i + 1, n) if is_visible(w, i, j)]


# --------------------------------------------------------------------------
# saddle connections


class SaddleSegment(NamedTuple):
    """A visible pair with canonical orientation (holonomy argument in
    [0, pi)) and the covering multiplicity it lifts with."""

    from_idx: int
    to_idx: int
    holonomy: ZPoint
    length: float
    direction: float
    multiplicity: int
    provisional: bool


def saddle_connections(w: ZeroWindow, m: int, max_length: float | None = None) -> list:
    """One canonical segment per visible pair; multiplicity m on the cover.

    A segment is provisional when an endpoint's distance from the window
    center plus its length exceeds the sampling radius.  Lengths and
    distances are rounded as ``ZPoint.norm`` rounds them.
    """
    if m < 2:
        raise ValueError("covering degree m must be >= 2")
    if len(w) == 0:
        raise EmptyWindow("no points")
    ii, jj = visible_pairs(w, max_length).T
    xs, ys, scale = w.grid
    dx, dy = xs[jj] - xs[ii], ys[jj] - ys[ii]
    # canonical orientation puts the argument in [0, pi)
    flip = (dy < 0) | ((dy == 0) & (dx < 0))
    ii, jj = np.where(flip, jj, ii), np.where(flip, ii, jj)
    dx, dy = np.where(flip, -dx, dx), np.where(flip, -dy, dy)
    length = _lengths(dx, dy, scale)
    cx, cy, cscale = _moved(xs, ys, scale, -w.center)
    reach = _lengths(cx, cy, cscale)
    provisional = np.maximum(reach[ii], reach[jj]) + length > float(w.radius) * (1 + 1e-12)
    direction = map(math.atan2, _ratio(dy, scale).tolist(), _ratio(dx, scale).tolist())
    return list(map(partial(tuple.__new__, SaddleSegment),
                    zip(ii.tolist(), jj.tolist(), grid_points(dx, dy, scale), length.tolist(),
                        direction, repeat(m), provisional.tolist())))


# --------------------------------------------------------------------------
# holonomy


class HolonomySet:
    """Holonomy vectors of a window, closed under negation, 0 excluded.

    ``vectors`` are in canonical order: by the key ``(norm2, half, -re)``
    in the half plane of arguments [0, pi) and ``(norm2, half, re)`` in
    [pi, 2*pi), that is by norm, then argument.  In float mode the vectors
    and their negatives, interleaved as (v, -v), lose exact repeats first
    (the first occurrence stays, which settles 0.0 against -0.0); then,
    in canonical order, a vector is dropped when it is ``same_point`` as
    one already kept and lies in a neighbouring eps-cell, the cells
    ``zseq._float_members`` searches.  So vectors that differ only by
    rounding count once, and of a chain a, b, c with only neighbours within
    eps, a and c stay.  The set is built from the half plane of arguments
    [0, pi): each value there takes its bits, and its negative's, from the
    first pair that holds either, and as -u has the norm2 of u and the key
    x = -x_u, each run of equal norm2 lists its vectors of that half plane,
    then their negatives in the same order (see the module docstring).

    ``complete_radius`` is the heuristic certification radius
    ``max(0, window_radius - L)`` where L is the longest length the
    enumeration tested.  When the set was enumerated with a length
    restriction, ``contains`` decides longer vectors (``_past_restriction``)
    on demand against the source window, and caches them.  ``contains``
    looks vectors up on ``grid`` through ``_members``, built on its first
    call, and ``vectors``, as ``ZeroWindow.points``, are built on their
    first read.

    ``grid`` = ``(xs, ys, scale)`` holds the vectors as ``zseq`` holds
    points: exact sets on an integer grid of int64 or Python ints, which
    shares the source window's scale when there is one, float sets as
    float64 arrays with ``scale`` None.
    """

    def __init__(self, vectors, window_radius: float, mode: Mode,
                 restricted_to: float | None = None, window: ZeroWindow | None = None,
                 complete_radius: float | None = None):
        vectors = list(vectors)
        if mode.is_exact:
            base = 1 if window is None else window.grid[2]
            grid = _signed_distinct(*coordinate_grid(vectors, mode, base))
        else:
            grid = _signed_distinct_float(*coordinate_grid(vectors, mode)[:2], mode.eps)
        self._fill(grid, window_radius, mode, restricted_to, window, complete_radius)

    @classmethod
    def _from_grid(cls, grid: tuple, window_radius: float, mode: Mode,
                   restricted_to: float | None, window: ZeroWindow,
                   complete_radius: float | None = None) -> "HolonomySet":
        """The set of the vectors on ``grid``, which are already distinct,
        closed under negation and in canonical order."""
        h = cls.__new__(cls)
        h._fill(grid, window_radius, mode, restricted_to, window, complete_radius)
        return h

    def _fill(self, grid, window_radius, mode, restricted_to, window, complete_radius):
        if ((grid[0] == 0) & (grid[1] == 0)).any():
            raise ValueError("holonomy set cannot contain 0")
        self.grid = grid
        self.window_radius = float(window_radius)
        self.mode = mode
        self.restricted_to = restricted_to
        self.window = window
        if complete_radius is None:
            lmax = restricted_to
            if lmax is None:
                # the canonical order ends with a longest vector
                lmax = _lengths(grid[0][-1:], grid[1][-1:], grid[2]).max(initial=0.0)
            complete_radius = max(0.0, float(window_radius) - _float_length(lmax))
        self.complete_radius = complete_radius
        self._query_cache = {}

    @cached_property
    def _lookup(self):
        return _members(*self.grid[:2], self.mode)

    @cached_property
    def vectors(self) -> tuple:
        return tuple(grid_points(*self.grid))

    def __len__(self):
        return len(self.grid[0])

    def __iter__(self):
        return iter(self.vectors)

    def contains(self, v: ZPoint) -> bool:
        """Is ``v`` listed, or, past a length restriction, a difference of a
        visible pair of the source window?"""
        if v.is_zero():
            return False
        at = _grid_point(self.grid, v)
        if at is not None and self._lookup.contains(*at)[0]:
            return True
        if self.window is None or self.restricted_to is None \
                or not _past_restriction(v.norm(), self.restricted_to):
            return False  # enumeration was complete up to the restriction
        got = self._query_cache.get((v.re, v.im))
        if got is None:
            got = has_holonomy_vector(self.window, v)
            self._query_cache[(v.re, v.im)] = self._query_cache[(-v.re, -v.im)] = got
        return got


def _past_restriction(norm, restricted_to):
    """Is a vector of length ``norm`` (floats rounded as ``ZPoint.norm``
    rounds) past what an enumeration restricted to ``restricted_to`` decided?
    A relative band of 1e-12 below the restriction counts as past it."""
    return norm > _float_length(restricted_to) * (1 - 1e-12)


def _signed_distinct(xs, ys, scale: int) -> tuple:
    """The exact grid of the vectors (xs, ys) and their negatives, each
    once, in canonical order: marked in a bitmap over their box when it has
    at most two cells per vector, else sorted by packed key."""
    reach = int(np.abs(xs).max(initial=0)), int(np.abs(ys).max(initial=0))
    if xs.dtype != object and (2 * reach[0] + 1) * (2 * reach[1] + 1) <= 2 * len(xs):
        xs, ys = _signed_by_bitmap(xs, ys, *reach)
    else:
        xs, ys = _signed_by_keys(xs, ys, max(reach))
    order = canonical_permutation(xs, ys)
    return xs[order], ys[order], scale


def _signed_by_keys(xs, ys, bound: int) -> tuple:
    """The vectors (xs, ys), none past ``bound``, and their negatives, each
    once, ordered by (x, y), through one sort of their ``_packed`` keys."""
    keys, shift = _packed(xs, ys, bound)
    return _unpacked(_distinct(np.sort(np.concatenate((keys, -keys)))), shift)


def _signed_by_bitmap(xs, ys, reach_x: int, reach_y: int) -> tuple:
    """``_signed_by_keys`` of int64 vectors with |x| <= reach_x and |y| <=
    reach_y, read back from a bitmap over that box in (x, y) order."""
    stride = 2 * reach_y + 1
    mark = np.zeros((2 * reach_x + 1) * stride, dtype=bool)
    mark[(xs + reach_x) * stride + ys + reach_y] = True
    # -v sits at the mirror image of v's cell
    mark |= mark[::-1]
    at = np.flatnonzero(mark)
    return at // stride - reach_x, at % stride - reach_y


def _signed_distinct_float(xs, ys, eps: float) -> tuple:
    """The float grid of the vectors (xs, ys) and their negatives in
    canonical order, with exact repeats and then near-duplicates dropped
    (see ``HolonomySet``), built from the half plane of arguments [0, pi)
    (see the module docstring)."""
    sign = np.where((ys > 0) | ((ys == 0) & (xs > 0)), 1.0, -1.0)
    hx, hy = xs * sign, ys * sign
    # the first pair of each value: one sort of int64 keys groups the pairs
    # by a hash of the bits of x and y (adding 0.0 turns -0.0 into 0.0) in
    # the high bits, each group by pair, whose index fills the low bits;
    # the rare distinct values that share a group are told apart after
    low = max(len(xs), 1).bit_length()
    mix = (hx + 0.0).view(np.int64) * _MIX[0] + (hy + 0.0).view(np.int64) * _MIX[1]
    key = np.sort(mix >> low << low | np.arange(len(xs)))
    order, start = key & ((1 << low) - 1), _starts(key >> low)
    gx, gy = hx[order], hy[order]
    head = np.flatnonzero(start)[np.cumsum(start) - 1]
    odd = order[(gx != gx[head]) | (gy != gy[head])]
    odd = odd[np.lexsort((odd, hy[odd], hx[odd]))]
    pair = np.concatenate((order[start], odd[_starts(hx[odd], hy[odd])]))
    # canonical order in the half plane: by norm2, then by -x, then by pair
    # where distinct y's round to one norm2
    hx, hy = hx[pair], hy[pair]
    norm2 = hx * hx + hy * hy
    key = _ranks(norm2)[0] * len(pair) + _ranks(-hx)[0]
    order = np.argsort(key)
    tied = ~_starts(key[order])
    tied[:-1] |= tied[1:]
    tied = np.flatnonzero(tied)
    order[tied] = order[tied][np.lexsort((pair[order[tied]], key[order[tied]]))]
    hx, hy, norm2 = hx[order], hy[order], norm2[order]
    # the mirror: each run of equal norm2 lists its vectors, then their
    # negatives in the same order
    start = np.flatnonzero(_starts(norm2))
    size = np.diff(start, append=len(norm2))
    up = np.arange(len(norm2)) + np.repeat(start, size)
    down = up + np.repeat(size, size)
    cx, cy = np.empty((2, 2 * len(norm2)))
    cx[up], cx[down], cy[up], cy[down] = hx, -hx, hy, -hy
    keep = _first_copies(np.ones(len(cx), dtype=bool), *_near_pairs(cx, cy, eps))
    return cx[keep], cy[keep], None


# two odd multipliers, 0x9E3779B97F4A7C15 and 0xC2B2AE3D27D4EB4F as int64:
# an odd product moves no bit of x or y below its own place
_MIX = (-0x61C8864680B583EB, -0x3D4D51C2D82B14B1)


def _near_pairs(xs, ys, eps: float) -> tuple:
    """Arrays (i, j), ordered by j, of the pairs i < j of the vectors in
    canonical order that ``same_point`` matches in neighbouring eps-cells
    (see the module docstring).  At eps = 0 only exact repeats match, and
    there are none."""
    none = np.zeros(0, dtype=np.int64)
    if eps == 0:
        return none, none
    with np.errstate(over="ignore"):
        kx, ky = np.floor(xs / eps), np.floor(ys / eps)
    # an infinite quotient puts eps below the coordinate's ulp: that vector
    # compares exactly, as ``zseq._float_members`` compares it, and matches
    # none of these distinct vectors
    cells = np.flatnonzero(np.isfinite(kx) & np.isfinite(ky))
    kx, ky = kx[cells], ky[cells]
    # the column and row of each cell by rank, and the ranks of the rows
    # ky - 1 and ky + 1 reach, rounded as ky +- 1 rounds
    col, cols = _ranks(kx)
    row, rows = _ranks(ky)
    top = np.searchsorted(rows, rows + 1, side="right") - 1
    bottom = np.searchsorted(rows, rows - 1)
    # one int64 key per cell, the vectors sorted by it and every search
    # made in that order: each vector meets the later members of its column
    # up to row ky + 1, and rows ky - 1 .. ky + 1 of the next column, where
    # kx + 1, rounded as kx + 1 rounds, is one
    height = len(rows)
    key = col * height + row
    by_cell = np.argsort(key)
    key, col, row = key[by_cell], col[by_cell], row[by_cell]
    at = np.arange(1, len(key) + 1)
    follows = np.flatnonzero(np.append(cols[1:] == cols[:-1] + 1, False)[col])
    nxt = (col[follows] + 1) * height
    lo = np.searchsorted(key, nxt + bottom[row[follows]])
    count = np.concatenate((np.searchsorted(key, col * height + top[row], side="right") - at,
                            np.searchsorted(key, nxt + top[row[follows]], side="right") - lo))
    a = np.repeat(np.concatenate((at - 1, follows)), count)
    b = _spans(np.concatenate((at, lo)), count)
    a, b = cells[by_cell[a]], cells[by_cell[b]]
    dx, dy = xs[a] - xs[b], ys[a] - ys[b]
    near = dx * dx + dy * dy <= eps * eps
    a, b = a[near], b[near]
    i, j = np.minimum(a, b), np.maximum(a, b)
    at = np.argsort(j, kind="stable")
    return i[at], j[at]


def _joined(h: HolonomySet, g: HolonomySet) -> HolonomySet:
    """The vectors of ``g`` and of ``h``, each once, in canonical order,
    with ``g``'s radius and restriction; ``g`` is enumerated from ``h``'s
    window, so an exact ``h``'s scale is a multiple of ``g``'s, and the
    union lies on ``h``'s grid.  When ``g`` lists every vector of ``h``,
    the union is ``g``, value for value."""
    (hx, hy, scale), (gx, gy, gscale) = h.grid, g.grid
    if scale is None:
        grid = _signed_distinct_float(np.r_[gx, hx], np.r_[gy, hy], h.mode.eps)
    else:
        gx, gy = rescale_grid(gx, gy, scale // gscale, 0)
        grid = _signed_distinct(*_typed_grid(np.r_[gx, hx], np.r_[gy, hy], scale))
    return HolonomySet._from_grid(grid, g.window_radius, g.mode, g.restricted_to, g.window,
                                  g.complete_radius)


def holonomy(w: ZeroWindow, max_length: float | None = None) -> HolonomySet:
    """Signed difference vectors of all visible pairs."""
    ii, jj = visible_pairs(w, max_length).T
    xs, ys, scale = w.grid
    dx, dy = xs[jj] - xs[ii], ys[jj] - ys[ii]
    if scale is not None:
        return HolonomySet._from_grid(_signed_distinct(dx, dy, scale), w.radius, w.mode,
                                      max_length, w)
    # the longest length tested is that of the longest pair, near-duplicates
    # included
    lmax = float(np.sqrt(dx * dx + dy * dy).max(initial=0.0)) if max_length is None \
        else _float_length(max_length)
    # on a coarse grid distinct vectors lie at least u > eps apart: no
    # near-duplicates, so eps = 0 drops only exact repeats
    grid = _signed_distinct_float(dx, dy, w.mode.eps if _coarse_grid(w) is None else 0.0)
    return HolonomySet._from_grid(grid, w.radius, w.mode, max_length, w, max(0.0, w.radius - lmax))


_BITMAP_CELLS = 1 << 22  # largest box a membership bitmap covers: 4 MiB of bools


class _Bitmap(NamedTuple):
    """Points of an int64 grid marked over their W x H bounding box with
    corner (x0, y0): the point (x, y) sits at cell (x - x0) H + y - y0."""

    member: np.ndarray
    x0: int
    y0: int
    width: int
    height: int

    def contains(self, x, y):
        """Mask of the points (x, y), arrays of int64 or Python ints, that
        are members: a bounds test and one gather."""
        dx, dy = x - self.x0, y - self.y0
        if dx.dtype == object:
            inside = (dx >= 0) & (dx < self.width) & (dy >= 0) & (dy < self.height)
            dx, dy = (np.where(inside, v, 0).astype(np.int64) for v in (dx, dy))
        else:
            # a negative offset reads as a huge unsigned one
            inside = (dx.view(np.uint64) < self.width) & (dy.view(np.uint64) < self.height)
        # a cell outside the box is clipped into it, then masked
        return inside & self.member.take(dx * self.height + dy, mode="clip")


class _SortedKeys(NamedTuple):
    """The sorted ``_packed`` keys of points with no coordinate beyond
    ``limit``, the bound they are packed with."""

    keys: np.ndarray
    limit: int

    def contains(self, x, y):
        """Mask of the points (x, y) that are members: a ``searchsorted``."""
        if not len(self.keys):
            return np.zeros(np.broadcast(x, y).shape, dtype=bool)
        ok = (abs(x) <= self.limit) & (abs(y) <= self.limit)
        packed = _packed(np.where(ok, x, 0), np.where(ok, y, 0), self.limit)[0]
        pos = np.searchsorted(self.keys, packed)
        pos[pos == len(self.keys)] = 0
        return ok & (self.keys[pos] == packed)


def _members(xs, ys, mode: Mode | None = None):
    """The grid points (xs, ys) as the structure every membership test looks
    them up in: float points in ``mode`` as ``zseq._float_members`` finds
    them, exact ones in a ``_Bitmap`` when they are int64 and their box has
    at most _BITMAP_CELLS cells, else in ``_SortedKeys``."""
    if xs.dtype == np.float64:
        return _float_members(xs, ys, mode)
    if xs.dtype != object and len(xs):
        x0, y0 = int(xs.min()), int(ys.min())
        width, height = int(xs.max()) - x0 + 1, int(ys.max()) - y0 + 1
        if width * height <= _BITMAP_CELLS:
            member = np.zeros(width * height, dtype=bool)
            member[(xs - x0) * height + ys - y0] = True
            return _Bitmap(member, x0, y0, width, height)
    span = _span(xs, ys)
    return _SortedKeys(np.sort(_packed(xs, ys, span)[0]), span)


def _window_members(w: ZeroWindow):
    """``_members`` of a window's points, built once per window."""
    got = w._cache.get("members")
    if got is None:
        got = w._cache["members"] = _members(*w.grid[:2], w.mode)
    return got


def _grid_point(grid, v: ZPoint):
    """(x, y), arrays of one entry, of the point ``v`` on ``grid``, or None
    when ``v`` is off an exact grid."""
    scale = grid[2]
    if scale is None:
        return np.array([float(v.re)]), np.array([float(v.im)])
    sx, sy = Fraction(v.re) * scale, Fraction(v.im) * scale
    if sx.denominator != 1 or sy.denominator != 1:
        return None
    x, y = int(sx), int(sy)
    return _ints(max(abs(x), abs(y)), [x], [y])


def _window_box(w: ZeroWindow) -> tuple:
    """(W, H, U) of an exact window of two or more points: the width and
    height of its grid's bounding box and the gcd U of its differences,
    computed once per window."""
    got = w._cache.get("box")
    if got is None:
        xs, ys = w.grid[:2]
        unit = math.gcd(int(np.gcd.reduce(xs - xs[0])), int(np.gcd.reduce(ys - ys[0])))
        got = w._cache["box"] = (*_box(xs, ys), unit)
    return got


def _has_grid_vectors(w: ZeroWindow, vx, vy) -> np.ndarray:
    """Mask of the vectors (vx, vy), arrays on an exact window's integer grid
    (int64 or Python ints), that are differences of visible window pairs:
    v is held when some window point p has p + v in the window and no window
    point strictly between (see the module docstring)."""
    xs, ys, _ = w.grid
    held = np.zeros(len(vx), dtype=bool)
    if len(xs) < 2:
        return held
    width, height, unit = _window_box(w)
    # no window difference is 0 or leaves the box, and vectors inside it
    # take the grid's dtype with no wrap
    near = np.flatnonzero((abs(vx) < width) & (abs(vy) < height) & ((vx != 0) | (vy != 0)))
    vx, vy = vx[near].astype(xs.dtype), vy[near].astype(xs.dtype)
    members = _window_members(w)
    rows = max(1, _BLOCK_ENTRIES // len(xs))
    for lo in range(0, len(vx), rows):
        at = slice(lo, lo + rows)
        held[near[at]] = members.contains(xs + vx[at, None], ys + vy[at, None]).any(axis=1)
    open_ = np.flatnonzero(held[near] & (np.gcd(vx, vy) != unit))
    for i, x, y in zip(near[open_].tolist(), vx[open_].tolist(), vy[open_].tolist()):
        line_order = np.lexsort((xs * x + ys * y, xs * y - ys * x))
        held[i] = ((np.diff(xs[line_order]) == x) & (np.diff(ys[line_order]) == y)).any()
    return held


def _has_float_vectors(w: ZeroWindow, vx, vy) -> np.ndarray:
    """The twin of ``_has_grid_vectors`` for a float window: v is held when
    some window point p, a witness, has p + v in the window and no window
    point in the eps-tube of the segment from p along v (``_blocked``'s,
    about a length by ``math.hypot``, which does not overflow).  The
    witnesses of a block of vectors are sought among the first 8 points,
    the next 16, 32 and so on, and tried in window order, while the vector
    is undecided."""
    xs, ys, _ = w.grid
    eps = w.mode.eps
    held = np.zeros(len(vx), dtype=bool)
    ln = np.array(list(map(math.hypot, vx.tolist(), vy.tolist())), dtype=np.float64)
    members = _window_members(w)
    rows = max(1, _BLOCK_ENTRIES // max(len(xs), 1))
    with np.errstate(over="ignore", invalid="ignore"):
        len2 = ln * ln
        for lo in range(0, len(vx), rows):
            live = np.arange(lo, min(lo + rows, len(vx)))
            start, step = 0, 8
            while len(live) and start < len(xs):
                stop = start + step
                witness = members.contains(xs[start:stop] + vx[live, None],
                                           ys[start:stop] + vy[live, None])
                tried = np.flatnonzero(witness.any(axis=1))
                while len(tried):
                    p = witness[tried].argmax(axis=1)
                    witness[tried, p] = False
                    k, p = live[tried][:, None], p + start
                    cx, cy = xs - xs[p][:, None], ys - ys[p][:, None]
                    crs = vx[k] * cy - vy[k] * cx
                    s = vx[k] * cx + vy[k] * cy
                    blocked = (np.abs(crs) <= eps * ln[k]) & (s > eps / 2 * len2[k]) \
                        & (s < (1 - eps / 2) * len2[k])
                    free = ~blocked.any(axis=1)
                    held[k[free, 0]] = True
                    tried = tried[~free]
                    tried = tried[witness[tried].any(axis=1)]
                live = live[~held[live]]
                start, step = stop, 2 * step
    return held


def has_holonomy_vector(w: ZeroWindow, v: ZPoint) -> bool:
    """Is ``v`` (or ``-v``) the difference of some visible window pair?  Exact
    windows decide it on their grid (``_has_grid_vectors``), where a v off
    the grid is none, float windows by its witnesses (``_has_float_vectors``)."""
    if v.is_zero():
        return False
    at = _grid_point(w.grid, v)
    if at is None:
        return False
    if w.mode.is_exact:
        return bool(_has_grid_vectors(w, *at)[0])
    return bool(_has_float_vectors(w, *at)[0])


# --------------------------------------------------------------------------
# direction statistics

_MIN_RUN_POINTS = 5
_RUN_GAP_RATIO = 4.0


@dataclass
class DirectionProfile:
    directions: list = field(default_factory=list)
    max_gap: float = 0.0
    min_gap: float = 0.0
    mean_gap: float = 0.0
    accumulation: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "directions": self.directions,
            "max_gap": self.max_gap,
            "min_gap": self.min_gap,
            "mean_gap": self.mean_gap,
            "accumulation": self.accumulation,
        }


def _direction_key(v: ZPoint, mode: Mode):
    if mode.is_exact:
        den = math.lcm(v.re.denominator, v.im.denominator)
        a, b = int(v.re * den), int(v.im * den)
        g = math.gcd(abs(a), abs(b))
        return (a // g, b // g)
    theta = math.atan2(float(v.im), float(v.re)) % (2 * math.pi)
    return round(theta, 12)


def direction_profile(h: HolonomySet) -> DirectionProfile:
    """Sorted directions, circular gap statistics, and accumulation
    candidates: ends of monotone runs (>= 5 directions) whose gaps shrink
    by at least a factor of 4, extrapolated to the neighbouring direction
    when it lies within the run's own span."""
    keys = {}
    for v in h.vectors:
        keys.setdefault(_direction_key(v, h.mode), v)
    dirs = sorted(math.atan2(float(v.im), float(v.re)) % (2 * math.pi)
                  for v in keys.values())
    prof = DirectionProfile(directions=dirs)
    k = len(dirs)
    if k >= 2:
        gaps = [dirs[i + 1] - dirs[i] for i in range(k - 1)]
        gaps.append(dirs[0] + 2 * math.pi - dirs[-1])
        prof.max_gap = max(gaps)
        prof.min_gap = min(gaps)
        prof.mean_gap = 2 * math.pi / k
        prof.accumulation = _accumulation_candidates(dirs, gaps)
    elif k == 1:
        prof.max_gap = prof.min_gap = prof.mean_gap = 2 * math.pi
    return prof


def _run_candidate(dirs, gaps, s, e, descending):
    k = len(dirs)
    run = gaps[s:e + 1]
    if min(run) <= 0 or max(run) / min(run) < _RUN_GAP_RATIO:
        return None
    span = sum(run)
    if descending:
        # gaps shrink with increasing index: accumulates at dirs[e + 1]
        nxt = gaps[(e + 1) % k]
        if nxt <= span:
            val = dirs[(e + 2) % k]
        else:
            val = dirs[e + 1]
    else:
        # gaps grow with increasing index: accumulates at dirs[s]
        prv = gaps[(s - 1) % k]
        if prv <= span:
            val = dirs[(s - 1) % k]
        else:
            val = dirs[s]
    return val % (2 * math.pi)


def _accumulation_candidates(dirs, gaps) -> list:
    k = len(dirs)
    need = _MIN_RUN_POINTS - 1  # gaps per qualifying run
    out = []
    for descending in (True, False):
        i = 0
        while i < k - 1:
            j = i
            while j + 1 <= k - 2 and (
                gaps[j + 1] < gaps[j] if descending else gaps[j + 1] > gaps[j]
            ):
                j += 1
            if j - i + 1 >= need:
                val = _run_candidate(dirs, gaps, i, j, descending)
                if val is not None:
                    out.append(val)
            i = max(j, i + 1)
    uniq = []
    for val in sorted(out):
        if not uniq or val - uniq[-1] > 1e-9:
            uniq.append(val)
    if len(uniq) >= 2 and uniq[0] + 2 * math.pi - uniq[-1] <= 1e-9:
        uniq.pop()  # wraparound duplicate of the first candidate
    return uniq


# --------------------------------------------------------------------------
# collinearity helpers


def window_collinear(w: ZeroWindow) -> bool:
    xs, ys, _ = w.grid
    if len(xs) < 3:
        return True
    dx, dy = xs[1:] - xs[0], ys[1:] - ys[0]
    moved = np.flatnonzero((dx != 0) | (dy != 0))
    if not len(moved):
        return True
    ux, uy = dx[moved[0]], dy[moved[0]]
    c = ux * dy - uy * dx  # cross(u, p - pts[0])
    if w.mode.is_exact:
        return not (c != 0).any()
    bound = w.mode.eps * math.sqrt(ux * ux + uy * uy) * np.maximum(np.sqrt(dx * dx + dy * dy), 1.0)
    return not (np.abs(c) > bound).any()


def vectors_parallel(grid, mode: Mode) -> bool:
    """Do the nonzero vectors on ``grid`` (``HolonomySet.grid``) lie on one line?"""
    xs, ys, scale = grid
    nonzero = (xs != 0) | (ys != 0)
    xs, ys = xs[nonzero], ys[nonzero]
    if len(xs) < 2:
        return True
    c = xs[0] * ys[1:] - ys[0] * xs[1:]  # cross(u, v), u the first vector
    if mode.is_exact:
        return not (c != 0).any()
    lengths = _lengths(xs, ys, scale)
    return not (np.abs(c) > mode.eps * lengths[0] * lengths[1:]).any()
