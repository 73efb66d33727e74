"""Canonical products over a zero window.

The entire function attached to a window is

    f(z) = z**e0 * prod_n E(z / z_n, d_n)

over the nonzero window points z_n, where E(w, d) is the elementary factor
(1 - w) * exp(sum_{k<=d} w**k / k).  Everything is evaluated in log space so
magnitude and winding information survive far beyond float overflow; the
exponential is only applied at the very end, and boundary winding numbers
never apply it at all.

Winding numbers never sample the polynomial parts P_n(w) = sum_{k<=d_n}
w**k / k either.  exp(P_n) is entire and zero-free, so it winds 0 around
every closed contour, while Im P_n turns far faster along the contour than
the phases of the vanishing factors (1 - w) and z**e0.  ``count_zeros``
therefore sums only those phases, and the degrees do not change its count.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContourThroughZero, NoConvergence, NonFinite, ZeroDivisor
from .zseq import ZeroWindow

_EXP_OVERFLOW = 709.0  # log threshold where exp() leaves float64
_MAX_DEGREE = 50
_CHUNK_ELEMS = 1 << 22


def elementary_factor(z, z_n, d: int) -> complex:
    """Convergence factor exp(w + w^2/2 + ... + w^d/d) at w = z/z_n.

    Degree 0 is the empty sum, hence exactly 1.  The vanishing (1 - w) part
    lives in eval_f, not here.
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    zn = complex(z_n)
    if zn == 0:
        raise ZeroDivisor("elementary factor needs a nonzero zero location")
    w = complex(z) / zn
    s = 0j
    wk = 1.0 + 0j
    for k in range(1, d + 1):
        wk *= w
        s += wk / k
    return cmath.exp(s)


# --------------------------------------------------------------------------
# degree selection


def choose_degrees(w: ZeroWindow, strategy="index") -> list:
    """Per-point convergence degrees.

    ``"index"`` assigns the n-th nonzero point degree n (always sufficient,
    cost grows quadratically).  ``"auto"`` fits the norm growth of the
    window: geometric growth needs degree 0, power growth |z_n| ~ n**b needs
    the smallest d with b*(d+1) comfortably above 1; the fitted uniform
    degree is applied everywhere.  An integer gives that uniform degree.
    """
    n = len(w.points)
    if isinstance(strategy, int):
        if strategy < 0:
            raise ValueError("degree must be >= 0")
        return [strategy] * n
    if strategy == "index":
        out = []
        k = 0
        for p in w.points:
            if p.is_zero():
                out.append(0)  # origin carries the z**e0 factor instead
            else:
                k += 1
                out.append(k)
        return out
    if strategy != "auto":
        raise ValueError(f"unknown degree strategy: {strategy!r}")
    norms = sorted(p.norm() for p in w.points if not p.is_zero())
    if len(norms) < 8:
        return [0] * n
    tail = norms[len(norms) // 2:]
    ratios = [b / a for a, b in zip(tail, tail[1:]) if a > 0]
    if ratios and sorted(ratios)[len(ratios) // 2] >= 1.05:
        return [0] * n  # geometric growth: bare products already converge
    lo = len(norms) // 2
    xs = [math.log(i + 1) for i in range(lo, len(norms)) if norms[i] > 0]
    ys = [math.log(norms[i]) for i in range(lo, len(norms)) if norms[i] > 0]
    if len(xs) < 2 or xs[-1] == xs[0]:
        return [1] * n
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx if sxx > 0 else 0.0
    if slope <= 1e-6:
        return [_MAX_DEGREE] * n
    d = max(0, math.ceil(1.5 / slope - 1))
    return [min(d, _MAX_DEGREE)] * n


# --------------------------------------------------------------------------
# log-space evaluation core


def _product_points(w: ZeroWindow):
    got = w._cache.get("wp_points")
    if got is None:
        pts = []
        origin = False
        for p in w.points:
            if p.is_zero():
                origin = True
            else:
                pts.append(complex(float(p.re), float(p.im)))
        got = (np.array(pts, dtype=np.complex128), origin)
        w._cache["wp_points"] = got
    return got


def _resolve_degrees(w: ZeroWindow, degrees):
    pts, origin = _product_points(w)
    if degrees is None:
        degrees = "index"
    if isinstance(degrees, (int, str)):
        degs = choose_degrees(w, degrees)
    else:
        degs = list(degrees)
        if len(degs) != len(w.points):
            raise ValueError("need one degree per window point")
    out = []
    for p, d in zip(w.points, degs):
        if p.is_zero():
            continue
        if d < 0:
            raise ValueError("degree must be >= 0")
        out.append(int(d))
    return pts, origin, np.array(out, dtype=np.int64)


def _resolve_e0(origin_present: bool, e0) -> int:
    if e0 is None:
        return 1 if origin_present else 0
    e0 = int(e0)
    if e0 < 0:
        raise ValueError("e0 must be >= 0")
    if origin_present and e0 == 0:
        raise ZeroDivisor(
            "window contains the origin; evaluation needs e0 >= 1 to carry it")
    return e0


def _log_eval(zs: np.ndarray, pts: np.ndarray, degs: np.ndarray, e0: int):
    """Per-sample (Re log f, summed Im log f, hit-a-zero flag).

    The imaginary part is one specific branch of log f, continuous in no
    particular sense; callers must wrap differences themselves.
    """
    m = len(zs)
    re = np.zeros(m)
    im = np.zeros(m)
    hit = np.zeros(m, dtype=bool)
    if e0:
        zero_at_origin = zs == 0
        hit |= zero_at_origin
        safe = np.where(zero_at_origin, 1.0, zs)
        lg = np.log(safe.astype(np.complex128))
        re += e0 * lg.real
        im += e0 * lg.imag
    n = len(pts)
    if n == 0:
        return re, im, hit
    order = np.argsort(degs, kind="stable")
    pts = pts[order]
    degs = degs[order]
    max_d = int(degs[-1]) if n else 0
    chunk = max(1, _CHUNK_ELEMS // max(n, 1))
    for lo in range(0, m, chunk):
        zc = zs[lo:lo + chunk]
        ratio = zc[:, None] / pts[None, :]
        on_zero = ratio == 1
        hit[lo:lo + chunk] |= on_zero.any(axis=1)
        ratio = np.where(on_zero, 0.0, ratio)  # keep the row finite; flagged above
        lg = np.log1p(-ratio)
        re[lo:lo + chunk] += lg.real.sum(axis=1)
        im[lo:lo + chunk] += lg.imag.sum(axis=1)
        if max_d > 0:
            start = int(np.searchsorted(degs, 1))
            wpow = np.ones_like(ratio[:, start:])
            active = ratio[:, start:]
            offs = start
            acc = np.zeros_like(active)
            for k in range(1, max_d + 1):
                new_start = int(np.searchsorted(degs, k))
                if new_start > offs:
                    cut = new_start - offs
                    re[lo:lo + chunk] += acc[:, :cut].real.sum(axis=1)
                    im[lo:lo + chunk] += acc[:, :cut].imag.sum(axis=1)
                    wpow = wpow[:, cut:]
                    active = active[:, cut:]
                    acc = acc[:, cut:]
                    offs = new_start
                if active.shape[1] == 0:
                    break
                wpow = wpow * active
                acc = acc + wpow / k
            if active.shape[1]:
                re[lo:lo + chunk] += acc.real.sum(axis=1)
                im[lo:lo + chunk] += acc.imag.sum(axis=1)
    return re, im, hit


def eval_f(z, w: ZeroWindow, degrees=None, e0=None):
    """Value of the canonical product at ``z`` (complex or array of them).

    Points of the window evaluate to exactly 0.  Raises NonFinite when the
    magnitude leaves float64; the offending log10 magnitude and its argument
    (summed Im log f, reduced to [-pi, pi]) ride along on the error.
    """
    pts, origin, degs = _resolve_degrees(w, degrees)
    k0 = _resolve_e0(origin, e0)
    zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    scalar = np.ndim(z) == 0
    if not np.isfinite(zs).all():
        raise NonFinite("evaluation point is not finite")
    re, im, hit = _log_eval(zs.ravel(), pts, degs, k0)
    if (re[~hit] > _EXP_OVERFLOW).any():
        worst = int(np.argmax(np.where(hit, -np.inf, re)))
        raise NonFinite("product magnitude overflows float64",
                        log10mag=float(re[worst]) / math.log(10),
                        arg=math.remainder(float(im[worst]), 2 * math.pi))
    out = np.where(hit, 0j, np.exp(re + 1j * im))
    out = out.reshape(zs.shape)
    return complex(out[0]) if scalar else out.reshape(np.shape(z))


# --------------------------------------------------------------------------
# argument-principle zero counting


def _box_edges(box):
    x0, x1, y0, y1 = (float(v) for v in box)
    if not (x0 < x1 and y0 < y1):
        raise ValueError("box must satisfy x0 < x1 and y0 < y1")
    return x0, x1, y0, y1


def _boundary_samples(box, per_edge: int) -> np.ndarray:
    x0, x1, y0, y1 = box
    t = np.linspace(0.0, 1.0, per_edge, endpoint=False)
    bottom = x0 + (x1 - x0) * t + 1j * y0
    right = x1 + 1j * (y0 + (y1 - y0) * t)
    top = x1 - (x1 - x0) * t + 1j * y1
    left = x0 + 1j * (y1 - (y1 - y0) * t)
    return np.concatenate([bottom, right, top, left])


def _check_clearance(w: ZeroWindow, box) -> None:
    x0, x1, y0, y1 = box
    tol = 1e-9 * max(x1 - x0, y1 - y0, 1.0)
    for p in w.points:
        x, y = float(p.re), float(p.im)
        d_out = max(x0 - x, x - x1, y0 - y, y - y1)
        if abs(d_out) <= tol:
            raise ContourThroughZero(
                f"window point {x}+{y}j lies on the counting contour")


def count_zeros(w: ZeroWindow, box, degrees=None, e0=None,
                samples: int = 64, max_samples: int = 1 << 16) -> int:
    """Zeros of the product inside an axis-aligned box, by boundary winding.

    ``box`` is (x0, x1, y0, y1).  Only the phases of the factors (1 - z/z_n)
    and z**e0 are sampled: each exp(P_n) factor winds 0 around the box (see
    the module docstring), so ``degrees`` is validated as in ``eval_f`` but
    does not change the count.  Sampling density doubles until adjacent
    phase steps are all below 0.25 rad, so the unwrapped total is
    unambiguous.
    """
    edges = _box_edges(box)
    _check_clearance(w, edges)
    pts, origin, degs = _resolve_degrees(w, degrees)
    k0 = _resolve_e0(origin, e0)
    per_edge = max(8, int(samples) // 4)
    while True:
        zs = _boundary_samples(edges, per_edge)
        _, im, hit = _log_eval(zs, pts, np.zeros_like(degs), k0)
        if hit.any():
            raise ContourThroughZero("counting contour passes through a zero")
        args = np.mod(im, 2 * math.pi)
        steps = np.diff(np.concatenate([args, args[:1]]))
        steps = (steps + math.pi) % (2 * math.pi) - math.pi
        if np.abs(steps).max() < 0.25:
            total = float(steps.sum())
            winding = round(total / (2 * math.pi))
            if abs(total - winding * 2 * math.pi) > 0.25:
                raise NoConvergence("phase total is not close to a full turn count")
            return int(winding)
        if 4 * per_edge >= max_samples:
            raise NoConvergence(
                f"phase steps still too coarse at {4 * per_edge} boundary samples")
        per_edge *= 2


# --------------------------------------------------------------------------
# zero refinement


@dataclass(frozen=True)
class ZeroCheck:
    zero: complex
    winding: int
    refined: bool
    residual: float


def refine_zero(w: ZeroWindow, guess, degrees=None, e0=None,
                tol: float = 1e-10, max_iter: int = 60) -> ZeroCheck:
    """Newton refinement from ``guess`` with a confirming winding count.

    The derivative is a central difference, so only product values are
    needed.  The returned winding is computed on a small box around the
    refined point.
    """
    z = complex(guess)
    scale = 1.0 + abs(z)
    converged = False
    for _ in range(max_iter):
        h = 1e-7 * scale
        fz = eval_f(z, w, degrees, e0)
        if fz == 0:
            converged = True
            break
        d = (eval_f(z + h, w, degrees, e0) - eval_f(z - h, w, degrees, e0)) / (2 * h)
        if d == 0:
            raise NoConvergence("flat derivative during refinement")
        step = fz / d
        z -= step
        if not cmath.isfinite(z):
            raise NoConvergence("refinement escaped to infinity")
        if abs(step) <= tol * scale:
            converged = True
            break
    if not converged:
        raise NoConvergence(f"no fixed point within {max_iter} iterations")
    r = max(1e-5 * scale, 4 * tol * scale)
    box = (z.real - r, z.real + r, z.imag - r, z.imag + r)
    try:
        wind = count_zeros(w, box, degrees=degrees, e0=e0, samples=128)
    except ContourThroughZero:
        r *= 3.7  # nudge the contour off the lattice of window points
        box = (z.real - r, z.real + r, z.imag - r, z.imag + r)
        wind = count_zeros(w, box, degrees=degrees, e0=e0, samples=128)
    residual = abs(eval_f(z, w, degrees, e0))
    return ZeroCheck(zero=z, winding=wind, refined=True, residual=residual)
