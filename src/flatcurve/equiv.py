"""Translation equivalence, affine automorphisms, moduli coordinates.

Two windows describe the same infinite trace when one translates onto the
other; with finite samples this can only be checked on the overlap of the
two sampled regions, so equivalence here always means agreement on that
overlap ball.  Moduli coordinates invert the nonzero points, compactifying
the tail of the sequence near 0.

Both searches test every candidate at once, in both modes: translation
equivalence with numpy masks and membership lookups over the two windows,
exact ones put on one integer scale, and the automorphism search in the
``gridsearch`` kernel.  Fractions are built only for the offsets and
matrices returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EmptyWindow, ModeMismatch, PoleInAction, TooFewPoints
from .veech import _BLOCK, Mat2, StabilizerSearchConfig, _resolve, stabilizer_candidates
from .zseq import (ZPoint, ZeroWindow, _ratio, _span, grid_points, rescale_grid, zdiv, zmul,
                   zreciprocal)
from .flatgeom import _members, window_collinear


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

    Candidate offsets send w1's first point p0 to each w2 point q within
    half of w2's radius, in w2's order; a candidate wins when the two point
    sets agree exactly on the ball where both regions certify completeness,
    and the first to win is returned, or else the best partial match.  An
    empty w2 matches nothing; an empty w1 has no first point and raises
    ``EmptyWindow``.

    The candidates go in blocks of about ``veech._BLOCK`` entries, each a
    numpy pass: its ball masks and its membership lookups
    (``flatgeom._members``) of w1 + b among w2 and of w2 - b among w1.
    Each test runs the float operations of its ``ZPoint`` expression, in
    its order: b = q - p0, |c1 + b - c2| for the overlap, |(p + b) - c2|
    and |p - c2| for the ball, c1 and c2 the centres.  Exact windows and
    centres go on the scale S, the lcm of the grid scales and the centres'
    denominators, where these are integers over S and squared distances
    are rounded by ``_ratio`` as ``float(Fraction)`` rounds them.
    """
    if w1.mode != w2.mode:
        raise ModeMismatch(f"cannot compare {w1.mode} with {w2.mode}")
    if not len(w1):
        raise EmptyWindow("the first window has no point to move")
    (xs1, ys1, scale1), (xs2, ys2, scale2) = w1.grid, w2.grid
    if scale1 is None:
        s = None
        c1x, c1y, c2x, c2y = (*w1.center, *w2.center)
        half2 = w2.radius * w2.radius / 4 * (1 + 1e-12)
    else:
        centres = [Fraction(v) for v in (*w1.center, *w2.center)]
        s = math.lcm(scale1, scale2, *(v.denominator for v in centres))
        c1x, c1y, c2x, c2y = (v.numerator * (s // v.denominator) for v in centres)
        k1, k2 = s // scale1, s // scale2
        span = max(abs(c1x), abs(c1y), abs(c2x), abs(c2y), _span(xs1, ys1) * k1,
                   _span(xs2, ys2) * k2)
        xs1, ys1 = rescale_grid(xs1, ys1, k1, span)
        xs2, ys2 = rescale_grid(xs2, ys2, k2, span)
        r2 = Fraction(w2.radius)
        # |q - c2|^2 = n2 / S^2 <= r2^2 / 4, compared on integers
        half2 = (r2.numerator * s) ** 2 // (4 * r2.denominator ** 2)
    members1, members2 = _members(xs1, ys1, w1.mode), _members(xs2, ys2, w2.mode)
    ux, uy = xs2 - c2x, ys2 - c2y
    n2 = ux * ux + uy * uy
    cand = np.flatnonzero(n2 <= half2)
    sq = None if s is None else s * s
    bx, by = xs2[cand] - xs1[0], ys2[cand] - ys1[0]  # b = q - p0
    ex, ey = (c1x + bx) - c2x, (c1y + by) - c2y
    band = 1e-9 * (1 + float(max(w1.radius, w2.radius)))
    with np.errstate(over="ignore"):
        rho = float(min(w1.radius, w2.radius)) - np.sqrt(_ratio(ex * ex + ey * ey, sq))
        live = np.flatnonzero(rho > band)
        bx, by, rho = bx[live], by[live], rho[live]
        lim = rho - band
        lim2 = (lim * lim)[:, None]
    norm2 = _ratio(n2, sq)

    def result(j: int, frac: float) -> EquivResult:
        b = grid_points(bx[j:j + 1], by[j:j + 1], s)[0]
        return EquivResult(frac == 1.0, b, frac, overlap_radius=float(rho[j]))

    best = EquivResult(False, None, 0.0)
    rows = max(1, _BLOCK // (len(xs1) + len(xs2)))
    for lo in range(0, len(bx), rows):
        at = slice(lo, lo + rows)
        mx, my = xs1 + bx[at, None], ys1 + by[at, None]  # p + b
        dx, dy = mx - c2x, my - c2y
        with np.errstate(over="ignore"):
            near1 = _ratio((dx * dx + dy * dy).ravel(), sq).reshape(mx.shape) <= lim2[at]
        near2 = norm2 <= lim2[at]
        checked = near1.sum(axis=1) + near2.sum(axis=1)
        moved = members1.contains(xs2 - bx[at, None], ys2 - by[at, None])  # p - b
        matched = (near1 & members2.contains(mx, my)).sum(axis=1) + (near2 & moved).sum(axis=1)
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
    from . import gridsearch

    return gridsearch.automorphisms(w, linears, r)


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
