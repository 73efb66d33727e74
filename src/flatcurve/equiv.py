"""Translation equivalence, affine automorphisms, moduli coordinates.

Two windows describe the same infinite trace when one translates onto the
other; with finite samples this can only be checked on the overlap of the
two sampled regions, so equivalence here always means agreement on that
overlap ball.  Moduli coordinates invert the nonzero points, compactifying
the tail of the sequence near 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ModeMismatch, PoleInAction, TooFewPoints
from .veech import (Mat2, StabilizerSearchConfig, _matrix_key, _probes, _resolve,
                    stabilizer_candidates)
from .zseq import ZPoint, ZeroWindow, zdiv, zmul, zreciprocal
from .flatgeom import window_collinear


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
    w2's radius; a candidate wins when the two point sets agree exactly on
    the ball where both regions certify completeness.
    """
    if w1.mode != w2.mode:
        raise ModeMismatch(f"cannot compare {w1.mode} with {w2.mode}")
    mode = w1.mode
    idx1, idx2 = w1.index(), w2.index()
    half2 = Fraction(w2.radius) ** 2 / 4 if mode.is_exact else w2.radius ** 2 / 4
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
