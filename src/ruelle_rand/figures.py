"""Hand-rolled SVG emission for the three figure kinds.

No plotting library: the SVG must be byte-identical for identical input,
so every coordinate is formatted through one fixed path and nothing
date-, id- or backend-dependent enters the file.
"""

from __future__ import annotations

import math
import sys

W, H = 800, 420
ML, MR, MT, MB = 60, 20, 20, 40
PW, PH = W - ML - MR, H - MT - MB
HIST_BINS = 40
# the largest histogram axis end whose pixel arithmetic stays in float64
X_MAX = sys.float_info.max / (2 * PW)


def _f(x: float) -> str:
    s = format(x, ".6g")
    return "0" if s == "-0" else s


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {W} {H}" '
        f'font-family="sans-serif" font-size="12">',
        f"<desc>{title}</desc>",
        f'<rect x="0" y="0" width="{W}" height="{H}" fill="white"/>',
    ]


def _axes(x_lo, x_hi, y_lo, y_hi) -> list[str]:
    out = [
        f'<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{MT + PH}" stroke="black"/>',
        f'<line x1="{ML}" y1="{MT + PH}" x2="{ML + PW}" y2="{MT + PH}" stroke="black"/>',
        f'<text x="{ML - 6}" y="{MT + 4}" text-anchor="end">{_f(y_hi)}</text>',
        f'<text x="{ML - 6}" y="{MT + PH + 4}" text-anchor="end">{_f(y_lo)}</text>',
        f'<text x="{ML}" y="{MT + PH + 16}" text-anchor="middle">{_f(x_lo)}</text>',
        f'<text x="{ML + PW}" y="{MT + PH + 16}" text-anchor="middle">{_f(x_hi)}</text>',
    ]
    return out


def _scale(lo, hi):
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0
    return lo, hi


def _xpix(t, lo, hi):
    return ML + PW * (t - lo) / (hi - lo)


def _ypix(v, lo, hi):
    return MT + PH * (hi - v) / (hi - lo)


def _polyline(points, color) -> str:
    coords = " ".join(f"{_f(x)},{_f(y)}" for x, y in points)
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{coords}"/>'


def path_svg(t: list[float], v: list[float]) -> str:
    """Sample-path polyline over [0, 1]."""
    y_lo, y_hi = _scale(min(v), max(v))
    x_lo, x_hi = 0.0, 1.0
    out = _header("brownian path on the m-adic grid")
    out += _axes(x_lo, x_hi, y_lo, y_hi)
    if y_lo < 0.0 < y_hi:
        zy = _ypix(0.0, y_lo, y_hi)
        out.append(f'<line x1="{ML}" y1="{_f(zy)}" x2="{ML + PW}" y2="{_f(zy)}" '
                   f'stroke="gray" stroke-dasharray="4 3"/>')
    pts = [(_xpix(ti, x_lo, x_hi), _ypix(vi, y_lo, y_hi)) for ti, vi in zip(t, v)]
    out.append(_polyline(pts, "steelblue"))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def histogram_svg(lams: list[float], m1s: list[float]) -> str:
    """Histogram of eigenvalues; axis floor 1 and ceiling at least twice
    the largest e^M1 so the pathwise upper bound is visible in frame. The
    ceiling stops at X_MAX, and eigenvalues past it fall in the last bin."""
    x_lo = 1.0
    m1 = max(m1s)
    # math.exp raises past 709.78
    ceiling = 2.0 * math.exp(m1) if m1 < 709.0 else X_MAX
    x_hi = min(max(ceiling, max(lams)), X_MAX)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    counts = [0] * HIST_BINS
    width = (x_hi - x_lo) / HIST_BINS
    for lam in lams:
        b = min(int((lam - x_lo) / width), HIST_BINS - 1)
        if b >= 0:
            counts[b] += 1
    y_hi = float(max(counts)) if max(counts) > 0 else 1.0
    out = _header("eigenvalue histogram")
    out += _axes(x_lo, x_hi, 0.0, y_hi)
    for b, c in enumerate(counts):
        if c == 0:
            continue
        x0 = _xpix(x_lo + b * width, x_lo, x_hi)
        x1 = _xpix(x_lo + (b + 1) * width, x_lo, x_hi)
        y0 = _ypix(float(c), 0.0, y_hi)
        out.append(f'<rect x="{_f(x0)}" y="{_f(y0)}" width="{_f(x1 - x0)}" '
                   f'height="{_f(MT + PH - y0)}" fill="steelblue" stroke="white" '
                   f'stroke-width="0.5"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def birkhoff_svg(k: list[float], v: list[float]) -> str:
    """Iterate sequence with a reference line at the final entry."""
    y_lo, y_hi = _scale(min(v), max(v))
    x_lo, x_hi = min(k), max(k)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    out = _header("birkhoff-type pressure iterates")
    out += _axes(x_lo, x_hi, y_lo, y_hi)
    ry = _ypix(v[-1], y_lo, y_hi)
    out.append(f'<line x1="{ML}" y1="{_f(ry)}" x2="{ML + PW}" y2="{_f(ry)}" '
               f'stroke="firebrick" stroke-dasharray="4 3"/>')
    pts = [(_xpix(ki, x_lo, x_hi), _ypix(vi, y_lo, y_hi)) for ki, vi in zip(k, v)]
    out.append(_polyline(pts, "steelblue"))
    out.append("</svg>")
    return "\n".join(out) + "\n"
