"""Independent oracles for the benchmark's jobs.

Every check here recomputes the expected answer from the mathematics of
the job, never from a stored byte golden and never through the code path
the job itself exercises.  Each returns ``None`` when the answer agrees and
a short mismatch description otherwise.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

import numpy as np


class Defect:
    """A failed job that returned no wrong answer: the oracle found the
    answer right but flawed in a way the program documents as unwanted."""

    def __init__(self, detail: str):
        self.detail = detail

    def __str__(self):
        return self.detail


# --------------------------------------------------------------------------
# integer coordinates


def scaled_ints(points):
    """(scale, xs, ys): exact rational points times their common denominator."""
    scale = 1
    for re, im in points:
        for c in (Fraction(re), Fraction(im)):
            scale = scale // math.gcd(scale, c.denominator) * c.denominator
    xs = np.array([int(Fraction(re) * scale) for re, _ in points], dtype=np.int64)
    ys = np.array([int(Fraction(im) * scale) for _, im in points], dtype=np.int64)
    return scale, xs, ys


def lattice_points(radius: int) -> list:
    """Gaussian integers of norm <= radius."""
    return [(a, b) for a in range(-radius, radius + 1)
            for b in range(-radius, radius + 1) if a * a + b * b <= radius * radius]


# --------------------------------------------------------------------------
# visibility and holonomy


def visible_pairs_by_direction(xs, ys) -> set:
    """Visible index pairs (i < j) of an integer point set.

    Point j is visible from anchor i exactly when it is the nearest point
    along its primitive direction (dx/g, dy/g), g = gcd(dx, dy): any blocker
    on the open segment differs from i by a smaller multiple of that
    direction.
    """
    pairs = set()
    n = len(xs)
    for i in range(n):
        dx = xs - xs[i]
        dy = ys - ys[i]
        g = np.gcd(dx, dy)
        js = np.nonzero(g > 0)[0]
        g = g[js]
        kx, ky = dx[js] // g, dy[js] // g
        order = np.lexsort((g, ky, kx))
        kx, ky, js = kx[order], ky[order], js[order]
        first = np.ones(len(js), dtype=bool)
        first[1:] = (kx[1:] != kx[:-1]) | (ky[1:] != ky[:-1])
        pairs.update((i, int(j)) for j in js[first] if j > i)
    return pairs


def holonomy_keys(points) -> tuple:
    """(scale, {(x, y)}, pairs): signed visible differences times ``scale``,
    and the number of visible pairs they come from."""
    scale, xs, ys = scaled_ints(points)
    keys = set()
    pairs = visible_pairs_by_direction(xs, ys)
    for i, j in pairs:
        dx, dy = int(xs[j] - xs[i]), int(ys[j] - ys[i])
        keys.add((dx, dy))
        keys.add((-dx, -dy))
    return scale, keys, len(pairs)


@functools.lru_cache(maxsize=None)
def lattice_holonomy(radius: int) -> tuple:
    """Closed form on the Gaussian-lattice disk: (primitive differences, pairs).

    The disk is convex and holds every lattice point inside it, so a pair is
    blocked exactly when its difference has gcd > 1.  Returns the frozen set
    of signed difference vectors and the number of unordered visible pairs.
    """
    pts = np.array(lattice_points(radius), dtype=np.int64)
    dx = pts[None, :, 0] - pts[:, None, 0]
    dy = pts[None, :, 1] - pts[:, None, 1]
    keep = np.gcd(dx, dy) == 1
    return frozenset(zip(dx[keep].tolist(), dy[keep].tolist())), int(keep.sum()) // 2


def check_holonomy(h, scale: int, expected: set):
    """Library holonomy set against expected integer keys at ``scale``.

    Float-mode vectors equal within the mode's tolerance are one vector; a
    set that keeps such near-duplicates is right but flawed (a Defect).
    """
    got = set()
    for v in h.vectors:
        x, y = float(v.re) * scale, float(v.im) * scale
        kx, ky = round(x), round(y)
        if abs(x - kx) > 1e-6 or abs(y - ky) > 1e-6:
            return f"vector {v} is off the 1/{scale} grid"
        got.add((kx, ky))
    if got != expected:
        return (f"holonomy has {len(got)} vectors, oracle {len(expected)}; "
                f"{len(got - expected)} extra, {len(expected - got)} missing")
    if len(got) != len(h.vectors):
        if h.mode.is_exact:
            return "exact holonomy set repeats a vector"
        return Defect(f"{len(h.vectors) - len(got)} near-duplicate vectors kept "
                      f"beside {len(got)} distinct ones")
    return None


def check_short_saddles(segs, scale: int, xs, ys, max_length, m: int):
    """Saddle segments of length <= max_length against direction visibility."""
    lim2 = (Fraction(max_length) * scale) ** 2
    want = {(i, j) for i, j in visible_pairs_by_direction(xs, ys)
            if int((xs[j] - xs[i]) ** 2 + (ys[j] - ys[i]) ** 2) <= lim2}
    got = {tuple(sorted((s.from_idx, s.to_idx))) for s in segs}
    if any(s.multiplicity != m for s in segs):
        return "saddle multiplicity differs from m"
    if got != want:
        return f"{len(got)} short saddles, oracle {len(want)}"
    return None


# --------------------------------------------------------------------------
# symmetry groups


def sl2z(bound: int) -> set:
    """SL2(Z) matrices with every |entry| <= bound; none of them contracts."""
    rng = range(-bound, bound + 1)
    return {(a, b, c, d) for a in rng for b in rng for c in rng for d in rng
            if a * d - b * c == 1}


def _int_entries(entries):
    ents = tuple(Fraction(e) for e in entries)
    if any(e.denominator != 1 for e in ents):
        return None
    return tuple(int(e) for e in ents)


def check_lattice_sandwich(lower, upper, containment_ok, entry_bound: float):
    """lower <= SL2(Z) with entries <= E <= upper, and containment reported.

    ``lower`` and ``upper`` hold matrices as row-major entry 4-tuples.
    """
    truth = sl2z(math.floor(entry_bound + 1e-9))
    low = {_int_entries(m) for m in lower}
    if None in low or not low <= truth:
        return "lower set holds a matrix outside SL2(Z) within the entry bound"
    up = {_int_entries(m) for m in upper}
    if not truth <= up:
        return f"upper set misses {len(truth - up)} lattice symmetries"
    if containment_ok is not True:
        return "containment_ok is not True"
    return None


FAMILY_KIND = {
    "integers-plus-minus-i": "Countable",
    "all-integers": "Pprime",
    "odd4n13-all": "Pprime",
    "positive-integers": "P",
}


def check_closure(rep, n_cands: int):
    if rep.violations:
        return f"{len(rep.violations)} closure violations"
    if rep.checked + rep.skipped != n_cands * n_cands:
        return "closure check did not cover every product"
    return None


def lattice_translations(radius: int, inner: float) -> set:
    """Integer t with p + t and p - t in the disk for every inner point p."""
    pts = lattice_points(radius)
    inner_pts = [(a, b) for a, b in pts if a * a + b * b <= inner * inner]
    r2 = radius * radius
    return {(tx, ty) for tx, ty in pts
            if all((a + tx) ** 2 + (b + ty) ** 2 <= r2
                   and (a - tx) ** 2 + (b - ty) ** 2 <= r2 for a, b in inner_pts)}


def check_lattice_automorphisms(autos, radius: int, inner: float):
    """Every (A, t) is an integer symmetry; the pure translations are exact."""
    pure = set()
    for a, t in autos:
        ents = _int_entries(a.entries())
        tt = (Fraction(t.re), Fraction(t.im))
        if ents is None or ents[0] * ents[3] - ents[1] * ents[2] != 1:
            return f"linear part {a.rows()} is not in SL2(Z)"
        if any(c.denominator != 1 for c in tt):
            return f"translation {t} is not a lattice vector"
        if ents == (1, 0, 0, 1):
            pure.add((int(tt[0]), int(tt[1])))
    want = lattice_translations(radius, inner)
    if pure != want:
        return f"{len(pure)} pure translations, oracle {len(want)}"
    return None


# --------------------------------------------------------------------------
# products and winding


def direct_log_product(z: complex, zeros, degrees, e0: int) -> complex:
    """log f(z) summed factor by factor from the product's definition."""
    total = e0 * cmath.log(z) if e0 else 0j
    for zn, d in zip(zeros, degrees):
        w = z / zn
        total += cmath.log(1 - w)
        wk = 1.0 + 0j
        for k in range(1, d + 1):
            wk *= w
            total += wk / k
    return total


def check_product(values, zs, zeros, degrees, e0: int, rtol: float = 1e-8):
    for z, v in zip(zs, values):
        want = cmath.exp(direct_log_product(complex(z), zeros, degrees, e0))
        if abs(v - want) > rtol * abs(want) + 1e-300:
            return f"f({z}) = {v}, direct product {want}"
    return None


def check_sine(values, zs, n_pairs: int):
    """z * prod_{k<=N} (1 - z^2/k^2) against sin(pi z)/pi.

    The dropped tail prod_{k>N}(1 - z^2/k^2) is exp(-z^2/N) to first order,
    so the relative error stays below 2|z|^2/N.
    """
    for z, v in zip(zs, values):
        z = complex(z)
        want = cmath.sin(math.pi * z) / math.pi
        tol = 2 * abs(z) ** 2 / n_pairs * abs(want) + 1e-12
        if abs(v - want) > tol:
            return f"f({z}) = {v}, sin(pi z)/pi = {want}"
    return None


def zeros_in_box(points, box) -> int:
    x0, x1, y0, y1 = box
    return sum(1 for x, y in points if x0 < x < x1 and y0 < y < y1)


def winding_sum(poly, zeros) -> int:
    """Sum over zeros of the closed polygon's winding number around each.

    Counts signed crossings of the upward vertical ray from every zero, in
    exact integer arithmetic; vertices must avoid the zeros' vertical lines.
    """
    scale, xs, ys = scaled_ints(list(poly) + list(zeros))
    k = len(poly)
    px, py, zx, zy = xs[:k], ys[:k], xs[k:], ys[k:]
    total = 0
    for i in range(k - 1):
        ax, ay, bx, by = px[i], py[i], px[i + 1], py[i + 1]
        if ax == bx:
            continue
        lo, hi = min(ax, bx), max(ax, bx)
        hit = (zx > lo) & (zx < hi)
        # z lies below the edge iff the edge passes above it
        side = (bx - ax) * (zy[hit] - ay) - (by - ay) * (zx[hit] - ax)
        below = side < 0 if bx > ax else side > 0
        total += int(below.sum()) * (1 if bx < ax else -1)
    return total


def segment_shift(xs, ys, i: int, j: int) -> int:
    """Sheet shift along the segment from zero i to zero j.

    Applies the documented cut rule directly: each zero hangs a downward
    vertical cut, x >= cut-x counts as the right side, crossing left to right
    adds one.  The segment's own endpoints sit on their cuts' tips and are
    not crossings.
    """
    ax, ay, bx, by = xs[i], ys[i], xs[j], ys[j]
    right_a, right_b = ax >= xs, bx >= xs
    hit = right_a != right_b
    # sign of (crossing height - zero height), times sign(bx - ax)
    num = (ay - ys[hit]) * (bx - ax) + (by - ay) * (xs[hit] - ax)
    below = num * np.sign(bx - ax) < 0
    return int((below & right_b[hit]).sum()) - int((below & ~right_b[hit]).sum())


def hits_zero(ax, ay, bx, by, zx, zy) -> bool:
    """Does the closed segment a-b pass through a zero?  Integer coordinates."""
    on_line = (bx - ax) * (zy - ay) - (by - ay) * (zx - ax) == 0
    between = ((zx - ax) * (zx - bx) <= 0) & ((zy - ay) * (zy - by) <= 0)
    return bool((on_line & between).any())
