"""Translation equivalence, affine automorphisms, moduli coordinates.

Two windows describe the same infinite trace when one translates onto the
other; with finite samples this can only be checked on the overlap of the
two sampled regions, so equivalence here always means agreement on that
overlap ball.  Moduli coordinates invert the nonzero points, compactifying
the tail of the sequence near 0.

Exact windows are compared on their integer grids: translation equivalence
puts both windows on one scale and tests every candidate offset with numpy
masks and membership gathers, and the automorphism search runs the
``gridsearch`` kernel.  Fractions are built only for the offsets and
matrices returned.  Float windows take the point loops, which stay as the
references the exact paths are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ModeMismatch, PoleInAction, TooFewPoints
from .veech import (_BLOCK, Mat2, StabilizerSearchConfig, _matrix_key, _probes, _resolve,
                    stabilizer_candidates)
from .zseq import ZPoint, ZeroWindow, _ratio, _span, rescale_grid, zdiv, zmul, zreciprocal
from .flatgeom import _members, window_collinear


def _offset_key(t: ZPoint, mode):
    if mode.is_exact:
        return (t.re, t.im)
    return (round(float(t.re), 12), round(float(t.im), 12))


@dataclass(frozen=True)
class EquivResult:
    equivalent: bool
    translation: ZPoint | None
    matched_fraction: float
    overlap_radius: float = 0.0

    def to_dict(self) -> dict:
        from .zseq import scalar_repr

        t = None
        if self.translation is not None:
            t = [scalar_repr(self.translation.re), scalar_repr(self.translation.im)]
        return {
            "equivalent": self.equivalent,
            "translation": t,
            "matched_fraction": self.matched_fraction,
            "overlap_radius": self.overlap_radius,
        }


def translation_equiv(w1: ZeroWindow, w2: ZeroWindow) -> EquivResult:
    """Find b with w1 + b = w2 on the overlap of the sampled regions.

    Candidate offsets send w1's first point to each w2 point within half of
    w2's radius, in w2's order; a candidate wins when the two point sets
    agree exactly on the ball where both regions certify completeness, and
    the first to win is returned, or else the best partial match.  Exact
    windows decide every candidate on one integer grid
    (``_translation_grid``), float windows point by point
    (``_translation_loop``).
    """
    if w1.mode != w2.mode:
        raise ModeMismatch(f"cannot compare {w1.mode} with {w2.mode}")
    # an empty w1 has no first point: the loop raises as it always has
    if not w1.mode.is_exact or not len(w1):
        return _translation_loop(w1, w2)
    return _translation_grid(w1, w2)


def _translation_loop(w1: ZeroWindow, w2: ZeroWindow) -> EquivResult:
    """``translation_equiv`` one ``ZPoint`` at a time: the float path, and
    the reference for the exact one."""
    mode = w1.mode
    idx1, idx2 = w1.index(), w2.index()
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


def _translation_grid(w1: ZeroWindow, w2: ZeroWindow) -> EquivResult:
    """``_translation_loop`` of two nonempty exact windows, on one grid.

    Both windows and both centres go on the scale S, the lcm of the grid
    scales and the centres' denominators: w1 about its first point p0, and
    w2 about its centre c2, where a candidate q sits at u and the offset
    b = q - p0 moves a w1 point v to v + u.  Squared distances are integers
    over S^2, rounded by ``_ratio`` as ``float(Fraction)`` rounds them, so
    every test compares the loop's floats.  The candidates go in blocks of
    about ``veech._BLOCK`` entries, each a numpy pass: its ball masks and
    its membership gathers (``flatgeom._members``) over the moved grids.
    """
    xs1, ys1, s1 = w1.grid
    xs2, ys2, s2 = w2.grid
    centres = [Fraction(v) for v in (*w1.center, *w2.center)]
    s = math.lcm(s1, s2, *(v.denominator for v in centres))
    c1x, c1y, c2x, c2y = (v.numerator * (s // v.denominator) for v in centres)
    k1, k2 = s // s1, s // s2
    span = max(abs(c1x), abs(c1y), abs(c2x), abs(c2y), _span(xs1, ys1) * k1,
               _span(xs2, ys2) * k2)
    xs1, ys1 = rescale_grid(xs1, ys1, k1, span)
    xs2, ys2 = rescale_grid(xs2, ys2, k2, span)
    x0, y0 = int(xs1[0]), int(ys1[0])
    vx, vy = xs1 - x0, ys1 - y0  # w1 about p0
    ux, uy = xs2 - c2x, ys2 - c2y  # w2 about c2
    n2 = ux * ux + uy * uy
    r2 = Fraction(w2.radius)
    # |q - c2|^2 = n2 / S^2 <= r2^2 / 4, compared on integers
    cand = np.flatnonzero(n2 <= (r2.numerator * s) ** 2 // (4 * r2.denominator ** 2))
    s2 = s * s
    bx, by = ux[cand], uy[cand]
    ex, ey = bx + (c1x - x0), by + (c1y - y0)  # c1 + b - c2
    rho = float(min(w1.radius, w2.radius)) - np.sqrt(_ratio(ex * ex + ey * ey, s2))
    band = 1e-9 * (1 + float(max(w1.radius, w2.radius)))
    live = np.flatnonzero(rho > band)
    bx, by, rho = bx[live], by[live], rho[live]
    lim = rho - band
    lim2 = (lim * lim)[:, None]
    members1, members2 = _members(vx, vy), _members(ux, uy)
    norm2 = _ratio(n2, s2)

    def result(j: int, frac: float) -> EquivResult:
        b = ZPoint(Fraction(int(bx[j]) + c2x - x0, s), Fraction(int(by[j]) + c2y - y0, s))
        return EquivResult(frac == 1.0, b, frac, overlap_radius=float(rho[j]))

    best = EquivResult(False, None, 0.0)
    rows = max(1, _BLOCK // (len(vx) + len(ux)))
    for lo in range(0, len(bx), rows):
        at = slice(lo, lo + rows)
        mx, my = vx + bx[at, None], vy + by[at, None]
        near1 = _ratio((mx * mx + my * my).ravel(), s2).reshape(mx.shape) <= lim2[at]
        near2 = norm2 <= lim2[at]
        checked = near1.sum(axis=1) + near2.sum(axis=1)
        matched = ((near1 & members2.contains(mx, my)).sum(axis=1)
                   + (near2 & members1.contains(ux - bx[at, None], uy - by[at, None])).sum(axis=1))
        # a candidate that checks nothing matches a fraction 0
        frac = matched / np.maximum(checked, 1)
        full = np.flatnonzero((checked > 0) & (matched == checked))
        if len(full):
            return result(lo + int(full[0]), 1.0)
        j = int(np.argmax(frac))
        if frac[j] > best.matched_fraction:
            best = result(lo + j, float(frac[j]))
    return best


def affine_automorphisms(w: ZeroWindow, cfg: StabilizerSearchConfig | None = None) -> list:
    """(A, t) maps z -> Az + t permuting the window, window-consistently.

    The linear parts come from the stabilizer search (just +/-identity on a
    collinear window, where no independent anchor pair exists); translations
    are read off from where the first point can land.
    """
    if len(w) < 3:
        raise TooFewPoints("automorphism search needs at least three points")
    r, e, req = _resolve(cfg, w.radius)
    if window_collinear(w):
        linears = [Mat2.identity(w.mode), -Mat2.identity(w.mode)]
    else:
        linears = stabilizer_candidates(w, StabilizerSearchConfig(r, e, req))
    if w.mode.is_exact:
        from . import gridsearch
        return gridsearch.automorphisms(w, linears, r)
    found = _automorphisms_loop(w, linears, r)
    return [found[k] for k in sorted(found)]


def _automorphisms_loop(w: ZeroWindow, linears: list, r: float) -> dict:
    """{key: (A, t)} of the pairs that permute the window, one ``Mat2``
    action at a time: the float path, and the reference for the exact one,
    whose order is that of the sorted keys."""
    probes = [w.points[i] for i in _probes(w.grid, r, w.mode, w.center)[0]]
    idx = w.index()
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


# --------------------------------------------------------------------------
# moduli coordinates


@dataclass(frozen=True)
class ModuliForm:
    """Canonical window plus inverted coordinates of its nonzero points."""

    canonical_points: tuple
    c0_coords: tuple
    sup_norm: float
    origin_excluded: bool
    c0_empty: bool

    def to_dict(self) -> dict:
        from .zseq import scalar_repr

        return {
            "canonical_points": [[scalar_repr(p.re), scalar_repr(p.im)]
                                 for p in self.canonical_points],
            "c0_coords": [[scalar_repr(p.re), scalar_repr(p.im)]
                          for p in self.c0_coords],
            "sup_norm": self.sup_norm,
            "origin_excluded": self.origin_excluded,
            "c0_empty": self.c0_empty,
        }


def moduli_canonical(w: ZeroWindow) -> ModuliForm:
    """Canonicalize, drop the origin, invert what remains."""
    wc = w if w.is_canonical else w.canonicalize()
    c0 = tuple(zreciprocal(p) for p in wc.points if not p.is_zero())
    sup = max((float(p.norm()) for p in c0), default=0.0)
    return ModuliForm(
        canonical_points=tuple(wc.points),
        c0_coords=c0,
        sup_norm=sup,
        origin_excluded=any(p.is_zero() for p in wc.points),
        c0_empty=not c0,
    )


def moduli_action(c0_coords, b: ZPoint) -> list:
    """Push a z-plane translation by ``b`` through the inverted coordinates.

    1/z -> 1/(z + b) reads as u -> u / (1 + b*u); a coordinate with
    1 + b*u = 0 sits exactly on the pole and is reported, with its index,
    rather than mapped.
    """
    out = []
    for k, u in enumerate(c0_coords):
        bu = zmul(b, u)
        den = ZPoint(1 + bu.re, bu.im)
        if den.is_zero():
            raise PoleInAction(f"coordinate {k} maps to the pole", index=k)
        out.append(zdiv(u, den))
    return out
