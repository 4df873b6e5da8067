"""Minimal self-contained SVG line charts; no plotting dependency."""
from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import NumericalError

WIDTH = 720
HEIGHT = 440
MARGIN_LEFT = 80
MARGIN_RIGHT = 20
MARGIN_TOP = 36
MARGIN_BOTTOM = 56
N_TICKS = 5


# The 12-significant-digit rule of every output file, kept as a % format so
# that a whole table is formatted by one % call
NUMBER_FORMAT = "%.12g"


def _fmt(x: float) -> str:
    return NUMBER_FORMAT % x


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span == 0.0:
        span = 1.0
    return out_lo + (np.asarray(values) - lo) * (out_hi - out_lo) / span


def line_chart(xs, ys, *, title="", x_label="", y_label="") -> str:
    """One polyline with axes and tick labels, returned as an SVG document.
    Data that is not finite, or that overflows when scaled to the plot, is
    refused with NumericalError."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    plot_w0, plot_w1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    plot_h0, plot_h1 = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP
    with np.errstate(all="ignore"):  # a non-finite point is refused below
        px = _scale(xs, x_lo, x_hi, plot_w0, plot_w1)
        py = _scale(ys, y_lo, y_hi, plot_h0, plot_h1)
    if not (np.isfinite(px).all() and np.isfinite(py).all()):
        raise NumericalError(f"chart '{title}' would plot a non-finite point")
    px, py = px.tolist(), py.tolist()
    points = ("%.2f,%.2f " * len(px) % tuple(chain.from_iterable(zip(px, py))))[:-1]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    # axes
    parts.append(
        f'<line x1="{plot_w0}" y1="{plot_h0}" x2="{plot_w1}" y2="{plot_h0}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{plot_w0}" y1="{plot_h0}" x2="{plot_w0}" y2="{plot_h1}" '
        'stroke="black" stroke-width="1"/>'
    )
    for i in range(N_TICKS):
        frac = i / (N_TICKS - 1)
        xv = x_lo + frac * (x_hi - x_lo)
        xp = plot_w0 + frac * (plot_w1 - plot_w0)
        parts.append(
            f'<line x1="{xp:.2f}" y1="{plot_h0}" x2="{xp:.2f}" y2="{plot_h0 + 5}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{xp:.2f}" y="{plot_h0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(xv)}</text>'
        )
        yv = y_lo + frac * (y_hi - y_lo)
        yp = plot_h0 + frac * (plot_h1 - plot_h0)
        parts.append(
            f'<line x1="{plot_w0 - 5}" y1="{yp:.2f}" x2="{plot_w0}" y2="{yp:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{plot_w0 - 8}" y="{yp + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(yv)}</text>'
        )
    parts.append(
        f'<text x="{(plot_w0 + plot_w1) / 2:.0f}" y="{HEIGHT - 12}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{(plot_h0 + plot_h1) / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {(plot_h0 + plot_h1) / 2:.0f})">{y_label}</text>'
    )
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#1f4e9c" stroke-width="1.5"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
