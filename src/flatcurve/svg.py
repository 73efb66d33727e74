"""Deterministic SVG rendering of a window and its saddle data.

Certified segments become <line> elements; provisional ones (those that
could be displaced by unseen zeros outside the sampled ball) become dashed
<path> elements, so counting <line> tags counts certified segments.  Every
segment carries a data-slope attribute with its direction angle, fixed to
six decimals.  Output is built purely from formatted strings: identical
input gives identical bytes.
"""

from __future__ import annotations

import math

_CANVAS = 640
_MARGIN = 40


def _mapper(w):
    cx, cy = float(w.center.re), float(w.center.im)
    r = float(w.radius)
    span = _CANVAS - 2 * _MARGIN

    def to_px(x: float, y: float):
        px = _MARGIN + (x - (cx - r)) / (2 * r) * span
        py = _MARGIN + ((cy + r) - y) / (2 * r) * span
        return px, py

    return to_px


def build_svg(w, segments=(), hol_vectors=(), title="") -> str:
    """Window plot: region boundary, zeros, segments, holonomy fan, legend."""
    to_px = _mapper(w)
    cx, cy = to_px(float(w.center.re), float(w.center.im))
    scale = (_CANVAS - 2 * _MARGIN) / (2 * float(w.radius))
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS}" '
        f'height="{_CANVAS}" viewBox="0 0 {_CANVAS} {_CANVAS}">',
        f'<rect width="{_CANVAS}" height="{_CANVAS}" fill="#ffffff"/>',
        f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="{float(w.radius) * scale:.3f}" '
        f'fill="none" stroke="#bbbbbb" stroke-width="1"/>',
    ]
    certified = provisional = 0
    for seg in segments:
        a = w.points[seg.from_idx]
        b = w.points[seg.to_idx]
        x1, y1 = to_px(float(a.re), float(a.im))
        x2, y2 = to_px(float(b.re), float(b.im))
        slope = f"{seg.direction:.6f}"
        if seg.provisional:
            provisional += 1
            out.append(
                f'<path d="M {x1:.3f} {y1:.3f} L {x2:.3f} {y2:.3f}" '
                f'class="segment provisional" data-slope="{slope}" '
                f'stroke="#d97706" stroke-width="1" stroke-dasharray="4 3" fill="none"/>')
        else:
            certified += 1
            out.append(
                f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
                f'class="segment" data-slope="{slope}" '
                f'stroke="#1f6feb" stroke-width="1"/>')
    seen = set()
    tick = 0.08 * (_CANVAS - 2 * _MARGIN)
    for v in hol_vectors:
        theta = math.atan2(float(v.im), float(v.re))
        key = f"{theta:.6f}"
        if key in seen:
            continue
        seen.add(key)
        out.append(
            f'<line x1="{cx:.3f}" y1="{cy:.3f}" '
            f'x2="{cx + tick * math.cos(theta):.3f}" '
            f'y2="{cy - tick * math.sin(theta):.3f}" '
            f'class="fan" data-slope="{key}" stroke="#16a34a" stroke-width="0.8"/>')
    for p in w.points:
        px, py = to_px(float(p.re), float(p.im))
        out.append(f'<circle cx="{px:.3f}" cy="{py:.3f}" r="2.5" '
                   f'class="zero" fill="#111111"/>')
    legend = [f"radius {float(w.radius):g}"]
    if title:
        legend.insert(0, title)
    if certified or provisional:
        legend.append(f"segments: {certified} certified, {provisional} provisional")
    else:
        legend.append("no saddle connections")
    for k, line in enumerate(legend):
        out.append(f'<text x="{_MARGIN}" y="{18 + 16 * k}" class="legend" '
                   f'font-family="monospace" font-size="12">{line}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
