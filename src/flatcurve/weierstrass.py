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

The polynomial parts of ``eval_f`` are summed by power, not by factor:

    sum_n P_n(z / z_n) = sum_{k=1}^{D} (z**k / k) * S_k,
    S_k = sum_{d_n >= k} z_n**(-k),

so the work is O((m + n) * D) for m samples, n zeros and top degree D
instead of O(m * n * D); these power sums are the quantities the
argument-principle literature builds on (Delves and Lyness, Math. Comp. 21
(1967); Kravanja and Van Barel, LNM 1727 (2000)).  Unscaled, z**k
overflows and S_k underflows long before their product leaves float64:
|z| = 50.5 against the zeros 1..399 with "index" degrees gives NaN.  Each
power is therefore scaled by rho_k, the smallest |z_n| among the zeros with
d_n >= k: (z / rho_k)**k overflows only where the nearest such zero's own
term (z / z_n)**k does, and every (rho_k / z_n)**k has modulus at most 1.

``eval_f`` pays factor by factor only for the zeros near its samples.  With
M the largest sample modulus, the zeros with |z_n| <= c * 2**ceil(log2 M)
(c = 4) are near and go through the per-factor core above; every other zero
has |u| = |z / z_n| < 1/c, where log E(u, d) = -sum_{k>d} u**k / k.  The
far zeros together therefore give the far-field series (Greengard and
Rokhlin, J. Comput. Phys. 73 (1987)) in their power sums:

    -sum_{k=1}^{K} ((z / rho)**k / k) * sum_{far, d_n < k} (rho / z_n)**k,

rho the smallest far |z_n|, K = ceil(17 / log10 c) + 1 = 30.  Every term
has modulus at most 1, so the far part cannot overflow, and a far zero with
d_n >= K adds nothing at all.

``count_zeros`` splits its zeros the same way about the centre of its box
instead of the origin: with c the centre and r the half-diagonal, every
sample has |z - c| <= r, the zeros with |z_n - c| <= 4 * r are near, and the
phases of the others enter through the same K-term series in (z - c) / r.
Each far zero's truncation error is again below 1e-20.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import ContourThroughZero, NoConvergence, NonFinite, ZeroDivisor
from .zseq import ZeroWindow, _ratio

_EXP_OVERFLOW = 709.0  # log threshold where exp() leaves float64
_MAX_DEGREE = 50
_CHUNK_ELEMS = 1 << 22
_FAR_C = 4  # far zeros lie beyond c * 2**ceil(log2 max|z|)
_FAR_TERMS = math.ceil(17 / math.log10(_FAR_C)) + 1  # K = 30


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
    return _degree_array(w, strategy).tolist()


def _degree_array(w: ZeroWindow, strategy) -> np.ndarray:
    """``choose_degrees`` as an int64 array over every window point."""
    n = len(w)
    if isinstance(strategy, int):
        if strategy < 0:
            raise ValueError("degree must be >= 0")
        return np.full(n, strategy, dtype=np.int64)
    _, nonzero = _product_points(w)
    if strategy == "index":
        out = np.zeros(n, dtype=np.int64)
        out[nonzero] = np.arange(1, int(nonzero.sum()) + 1)  # origin carries z**e0
        return out
    if strategy != "auto":
        raise ValueError(f"unknown degree strategy: {strategy!r}")
    xs, ys, scale = w.grid
    norm2 = _ratio(xs * xs + ys * ys, scale and scale * scale)
    return np.full(n, _fitted_degree(np.sort(np.sqrt(norm2[nonzero])).tolist()),
                   dtype=np.int64)


def _fitted_degree(norms: list) -> int:
    """The uniform ``"auto"`` degree for the sorted nonzero norms."""
    if len(norms) < 8:
        return 0
    tail = norms[len(norms) // 2:]
    ratios = [b / a for a, b in zip(tail, tail[1:]) if a > 0]
    if ratios and sorted(ratios)[len(ratios) // 2] >= 1.05:
        return 0  # geometric growth: bare products already converge
    lo = len(norms) // 2
    xs = [math.log(i + 1) for i in range(lo, len(norms)) if norms[i] > 0]
    ys = [math.log(norms[i]) for i in range(lo, len(norms)) if norms[i] > 0]
    if len(xs) < 2 or xs[-1] == xs[0]:
        return 1
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx if sxx > 0 else 0.0
    if slope <= 1e-6:
        return _MAX_DEGREE
    d = max(0, math.ceil(1.5 / slope - 1))
    return min(d, _MAX_DEGREE)


# --------------------------------------------------------------------------
# log-space evaluation core


def _float_grid(w: ZeroWindow) -> tuple:
    """Float coordinates ``(fx, fy)`` of every window point, equal to
    ``float(p.re)`` and ``float(p.im)``."""
    got = w._cache.get("float_grid")
    if got is None:
        xs, ys, scale = w.grid
        got = (_ratio(xs, scale), _ratio(ys, scale))
        w._cache["float_grid"] = got
    return got


def _product_points(w: ZeroWindow) -> tuple:
    """``(pts, nonzero)``: the complex nonzero window points in window
    order, and the mask of the window points they are."""
    got = w._cache.get("product_points")
    if got is None:
        xs, ys = w.grid[:2]
        fx, fy = _float_grid(w)
        nonzero = (xs != 0) | (ys != 0)
        pts = np.empty(int(nonzero.sum()), dtype=np.complex128)
        pts.real, pts.imag = fx[nonzero], fy[nonzero]
        got = (pts, nonzero)
        w._cache["product_points"] = got
    return got


def _resolve_degrees(w: ZeroWindow, degrees):
    """``(pts, origin, degs)``: the product points, whether the window holds
    the origin, and the int64 degree of each product point."""
    pts, nonzero = _product_points(w)
    if degrees is None:
        degrees = "index"
    if isinstance(degrees, (int, str)):
        degs = _degree_array(w, degrees)[nonzero]
    else:
        raw = list(degrees)
        if len(raw) != len(w):
            raise ValueError("need one degree per window point")
        kept = [d for d, keep in zip(raw, nonzero.tolist()) if keep]
        if any(d < 0 for d in kept):
            raise ValueError("degree must be >= 0")
        degs = np.array([int(d) for d in kept], dtype=np.int64)
    return pts, len(pts) < len(w), degs


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

    The vanishing factors are summed factor by factor, log1p(-z/z_n) in
    chunks of about ``_CHUNK_ELEMS`` complex values.  The polynomial parts
    are the scaled power sums of the module docstring:

        sum_{k=1}^{D} ((z / rho_k)**k / k) * sum_{d_n >= k} (rho_k / z_n)**k.

    The imaginary part is one specific branch of log f, continuous in no
    particular sense; callers must wrap differences themselves.  Rows that
    hit a zero carry no meaningful value.
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
    chunk = max(1, _CHUNK_ELEMS // n)
    for lo in range(0, m, chunk):
        rows = slice(lo, lo + chunk)
        ratio = zs[rows, None] / pts[None, :]
        on_zero = ratio == 1
        zero_rows = on_zero.any(axis=1)
        if zero_rows.any():
            hit[rows] |= zero_rows
            ratio[on_zero] = 0.0  # keep the row finite; flagged above
        lg = np.log1p(np.negative(ratio, out=ratio), out=ratio)
        re[rows] += lg.real.sum(axis=1)
        im[rows] += lg.imag.sum(axis=1)
    max_d = int(degs.max())
    if max_d > 0:
        order = np.argsort(degs, kind="stable")
        pts, degs = pts[order], degs[order]
        rho = np.minimum.accumulate(np.abs(pts)[::-1])[::-1]  # min |z_n| of each suffix
        poly = np.zeros(m, dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):  # eval_f reports overflow
            for k in range(1, max_d + 1):
                start = int(np.searchsorted(degs, k))
                r = rho[start]
                s_k = np.sum((r / pts[start:]) ** k)
                poly += (zs / r) ** k * (s_k / k)
        re += poly.real
        im += poly.imag
    return re, im, hit


def _norm_order(w: ZeroWindow) -> tuple:
    """``(order, norms)``: the product points sorted by |z_n| (stable), and
    those moduli in that order."""
    got = w._cache.get("norm_order")
    if got is None:
        norms = np.abs(_product_points(w)[0])
        order = np.argsort(norms, kind="stable")
        got = (order, norms[order])
        w._cache["norm_order"] = got
    return got


def _far_coefficients(pts: np.ndarray, degs: np.ndarray, rho: float):
    """``[a_1, ..., a_K]``, a_k = sum_{d_n < k} (rho / z_n)**k / k over the
    far zeros ``pts``, or None when every a_k is 0."""
    low = degs < _FAR_TERMS
    if not low.any():
        return None
    by_degree = np.argsort(degs[low], kind="stable")
    ends = np.searchsorted(degs[low][by_degree], np.arange(1, _FAR_TERMS + 1))
    q = rho / pts[low][by_degree]
    qk = q.copy()
    coef = np.zeros(_FAR_TERMS, dtype=np.complex128)
    for k, end in enumerate(ends.tolist(), 1):
        if end:  # the zeros with d_n < k lead
            coef[k - 1] = qk[:end].sum() / k
        qk *= q
    return coef


def _far_series(x: np.ndarray, coef: np.ndarray, rowwise: bool = False) -> np.ndarray:
    """sum_{k=1}^{K} coef[k-1] * x**k at each x, from the powers x**1 .. x**K
    built in chunks of about ``_CHUNK_ELEMS`` values.

    Each chunk's power table is contracted with one BLAS matrix-vector
    product, whose rounding of a row can depend on how many rows share the
    call.  ``rowwise`` sums every row on its own instead, so a sample gets
    the same value in every call.
    """
    out = np.empty(len(x), dtype=np.complex128)
    step = _CHUNK_ELEMS // _FAR_TERMS
    for lo in range(0, len(x), step):
        rows = slice(lo, lo + step)
        xs = x[rows, None]
        powers = np.cumprod(np.broadcast_to(xs, (len(xs), _FAR_TERMS)), axis=1)
        out[rows] = (powers * coef).sum(axis=1) if rowwise else powers @ coef
    return out


def _split_log_eval(w: ZeroWindow, zs: np.ndarray, pts: np.ndarray, degs: np.ndarray,
                    e0: int, degrees):
    """``_log_eval`` with the far zeros summed by their power sums.

    The near zeros, |z_n| <= c * 2**ceil(log2 max|z|), go through
    ``_log_eval`` as they are; the far ones add the far-field series of the
    module docstring, from the powers of z / rho.  Each far zero's
    dropped terms, sum_{k > max(K, d_n)} u**k / k with |u| < 1/c, have
    modulus below c**-(K+1) / ((K + 1) * (1 - 1/c)) < 1e-20.  With no far
    zero this is ``_log_eval`` itself, bit for bit.  The far coefficients
    are cached on the window per shell for int and string ``degrees``.
    """
    big = float(np.abs(zs).max(initial=0.0))
    mant, shell = math.frexp(big)
    if mant == 0.5:
        shell -= 1  # big is exactly 2**shell
    # at z = 0 every factor is 1; past 2**1021 the cut itself overflows
    cut = math.ldexp(_FAR_C, shell) if 0 < big and shell <= 1021 else math.inf
    order, norms = _norm_order(w)
    n_near = int(np.searchsorted(norms, cut, side="right"))
    if n_near == len(pts):
        return _log_eval(zs, pts, degs, e0)
    near = order[:n_near]
    re, im, hit = _log_eval(zs, pts[near], degs[near], e0)
    rho = float(norms[n_near])
    key = ("far_coefficients", shell, "index" if degrees is None else degrees)
    cacheable = isinstance(key[2], (int, str))
    if cacheable and key in w._cache:
        coef = w._cache[key]
    else:
        far = order[n_near:]
        coef = _far_coefficients(pts[far], degs[far], rho)
        if cacheable:
            w._cache[key] = coef
    if coef is not None:
        series = _far_series(zs / rho, coef)
        re -= series.real
        im -= series.imag
    return re, im, hit


def eval_f(z, w: ZeroWindow, degrees=None, e0=None):
    """Value of the canonical product at ``z`` (complex or array of them).

    Points of the window evaluate to exactly 0.  Raises NonFinite when the
    magnitude leaves float64, or when a power of the polynomial parts does
    (NaN); the offending log10 magnitude and its argument (summed Im log f,
    reduced to [-pi, pi], NaN where not finite) ride along on the error.

    Only the zeros with |z_n| <= 4 * 2**ceil(log2 max|z|) are evaluated
    factor by factor.  The rest enter through the far-field identity

        sum_far log E(z / z_n, d_n)
            = -sum_{k=1}^{K} ((z / rho)**k / k) * sum_{far, d_n < k} (rho / z_n)**k,

    K = 30 and rho the smallest far |z_n|, truncated with an error below
    1e-20 per far zero (module docstring).  ``count_zeros`` expands the same
    series about the centre of its box.
    """
    pts, origin, degs = _resolve_degrees(w, degrees)
    k0 = _resolve_e0(origin, e0)
    zs = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    scalar = np.ndim(z) == 0
    if not np.isfinite(zs).all():
        raise NonFinite("evaluation point is not finite")
    re, im, hit = _split_log_eval(w, zs.ravel(), pts, degs, k0, degrees)
    if not (re[~hit] <= _EXP_OVERFLOW).all():
        worst = int(np.argmax(np.where(hit, -np.inf, re)))  # the first NaN, if any
        arg = float(im[worst])
        arg = math.remainder(arg, 2 * math.pi) if math.isfinite(arg) else math.nan
        raise NonFinite("product magnitude overflows float64",
                        log10mag=float(re[worst]) / math.log(10), arg=arg)
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
    fx, fy = _float_grid(w)
    d_out = np.maximum(np.maximum(x0 - fx, fx - x1), np.maximum(y0 - fy, fy - y1))
    on = np.flatnonzero(np.abs(d_out) <= tol)
    if len(on):
        x, y = float(fx[on[0]]), float(fy[on[0]])
        raise ContourThroughZero(
            f"window point {x}+{y}j lies on the counting contour")


def _far_split(edges, pts: np.ndarray) -> tuple:
    """``(near, far)`` for the box ``edges``: the product points within
    4 * r of the box centre, r the half-diagonal, and the far-field series
    ``(centre, r, b)`` of the rest (``count_zeros``), or None when no zero
    is far."""
    x0, x1, y0, y1 = edges
    centre = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
    r = 0.5 * math.hypot(x1 - x0, y1 - y0)
    far = np.abs(pts - centre) > _FAR_C * r
    if not far.any():
        return pts, None
    away = pts[far] - centre
    return pts[~far], (centre, r, _far_coefficients(away, np.zeros(len(away), np.int64), r))


def _contour_phases(edges, per_edge: int, pts, e0: int, coarse=None, far=None):
    """Summed Im log of the vanishing factors and z**e0 at the
    ``4 * per_edge`` boundary samples, or None if a sample hits a zero.

    ``coarse``, the phases at ``per_edge // 2`` samples an edge, are the
    even-indexed samples here (``linspace`` puts them at the same points),
    so only the odd-indexed ones are evaluated.

    ``far`` is ``_far_split``'s series for the zeros not in ``pts``.  It
    adds -Im sum_k ((z - c) / r)**k * b_k, the phase of their factors
    1 - (z - c) / (z_n - c), and drops the constant sum_far arg(1 - c / z_n):
    that shifts every sample by the same amount and changes no phase step.
    """
    zs = _boundary_samples(edges, per_edge)
    new = zs if coarse is None else zs[1::2]
    _, im, hit = _log_eval(new, pts, np.zeros(len(pts), dtype=np.int64), e0)
    if hit.any():
        return None
    if far is not None:
        centre, r, coef = far
        im -= _far_series((new - centre) / r, coef, rowwise=True).imag
    if coarse is None:
        return im
    out = np.empty(len(zs))
    out[0::2], out[1::2] = coarse, im
    return out


def count_zeros(w: ZeroWindow, box, degrees=None, e0=None,
                samples: int = 64, max_samples: int = 1 << 16) -> int:
    """Zeros of the product inside an axis-aligned box, by boundary winding.

    ``box`` is (x0, x1, y0, y1).  Only the phases of the factors (1 - z/z_n)
    and z**e0 are sampled: each exp(P_n) factor winds 0 around the box (see
    the module docstring), so ``degrees`` is validated as in ``eval_f`` but
    does not change the count.  Sampling density doubles until adjacent
    phase steps are all below 0.25 rad, so the unwrapped total is
    unambiguous; each doubling evaluates only the new midpoints.

    With c the box centre and r its half-diagonal, every sample has
    |z - c| <= r.  Only the zeros with |z_n - c| <= 4 * r are summed factor
    by factor; the rest enter through one far-field series about c,

        sum_far log(1 - (z - c) / (z_n - c))
            = -sum_{k=1}^{K} ((z - c) / r)**k * sum_far (r / (z_n - c))**k / k,

    K = 30, computed once per call and truncated with an error below 1e-20
    per far zero, as in ``eval_f``.
    """
    edges = _box_edges(box)
    _check_clearance(w, edges)
    pts, origin, _ = _resolve_degrees(w, degrees)
    k0 = _resolve_e0(origin, e0)
    near, far = _far_split(edges, pts)
    per_edge = max(8, int(samples) // 4)
    im = None
    while True:
        im = _contour_phases(edges, per_edge, near, k0, im, far)
        if im is None:
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


class ZeroCheck(NamedTuple):
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
