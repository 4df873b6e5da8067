"""Minimal self-contained SVG line charts, drawing what a pixel column can
show, and the number text every output file shares; no plotting dependency."""
from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

WIDTH = 720
HEIGHT = 440
MARGIN_LEFT = 80
MARGIN_RIGHT = 20
MARGIN_TOP = 36
MARGIN_BOTTOM = 56
N_TICKS = 5


# The 12-significant-digit rule of every output file, and the two decimals of
# a polyline coordinate.  Python's % defines the text; _number_layout writes
# the same bytes for a whole float64 CSV column at once.
NUMBER_FORMAT = "%.12g"
POINT_FORMAT = "%.2f"
# rows formatted at a time: a 100001 x 2 table peaked at 24 MB of traced
# memory formatted whole, 5.5 MB in blocks of this size (14 MB with per-value
# %), and blocks of 4096 took 40% longer
BLOCK_ROWS = 16384

# 10**k for every k the number rule can scale by, each a correctly rounded literal
_POW10_LO, _POW10_HI = -297, 308
_POW10 = np.array([float(f"1e{k}") for k in range(_POW10_LO, _POW10_HI + 1)])
_PLACES6 = 10 ** np.arange(5, -1, -1, dtype=np.int32)[:, None]
_DIGIT = np.arange(12, dtype=np.int32)[:, None]
_ZERO, _DOT, _MINUS, _PLUS, _E = b"0.-+e"


def _fmt(x: float) -> str:
    return NUMBER_FORMAT % x


def _fall_back(layout, x, certified):
    """The layout with NUMBER_FORMAT % v in the column of each value v the
    kernel did not certify; such a text fills at most 19 of the 35 slots."""
    missed = np.flatnonzero(~certified)
    if missed.size == 0:
        return layout
    text = np.array([NUMBER_FORMAT % v for v in x[missed].tolist()], dtype=bytes)
    layout[:, missed] = 0
    layout[: text.itemsize, missed] = text.view(np.uint8).reshape(missed.size, -1).T
    return layout


def _number_layout(x):
    """NUMBER_FORMAT % v for each v of the finite float64 array x, as a
    (35, x.size) uint8 array with one column per value and NUL in unused
    slots: sign, "0." and up to three zeros, 12 digits each followed by a
    possible dot, then "e", the exponent sign and up to three digits.

    The 12-digit mantissa is rint(s) for s = |v| 10**(11 - e), e the decimal
    exponent.  s carries at most ~2e-4 of rounding error, so a value is
    certified only when 1e11 <= s < 1e12 and frac(s) is more than 1e-3 from
    one half; zeros, near-ties, subnormals and misestimated exponents go
    through % itself."""
    a = np.abs(x)
    e = np.floor(np.log10(np.maximum(a, np.finfo(float).smallest_subnormal))).astype(np.int32)
    s = a * _POW10[np.clip(11 - e, _POW10_LO, _POW10_HI) - _POW10_LO]
    certified = (s >= 1e11) & (s < 1e12) & (np.abs(s - np.floor(s) - 0.5) > 1e-3)
    mantissa = np.rint(s)  # below 1e13 even where not certified
    carry = mantissa == 1e12
    mantissa[carry] = 1e11
    e += carry
    high, low = np.divmod(mantissa.astype(np.int64), 1000000)
    digits = np.concatenate([half.astype(np.int32) // _PLACES6 % 10 for half in (high, low)])
    last = ((digits != 0) * _DIGIT).max(axis=0)  # the digits after it are dropped zeros
    fixed = (e >= -4) & (e < 12)
    below_one = fixed & (e < 0)
    point = np.where(fixed & (e >= 0), e, 0)  # the digit the dot follows

    layout = np.zeros((35, x.size), np.uint8)
    layout[0] = (x < 0) * _MINUS
    layout[1] = below_one * _ZERO
    layout[2] = below_one * _DOT
    for i in range(3):
        layout[3 + i] = (below_one & (e <= -2 - i)) * _ZERO
    layout[6:30:2] = (_DIGIT <= np.maximum(last, point)) * (digits + _ZERO)
    dotted = np.flatnonzero((last > point) & ~below_one)
    layout[7 + 2 * point[dotted], dotted] = _DOT
    scientific = ~fixed
    power = np.abs(e)
    layout[30] = scientific * _E
    layout[31] = scientific * np.where(e < 0, _MINUS, _PLUS)
    layout[32] = (scientific & (power >= 100)) * (power // 100 + _ZERO)
    layout[33] = scientific * (power // 10 % 10 + _ZERO)
    layout[34] = scientific * (power % 10 + _ZERO)
    return _fall_back(layout, x, certified)


def _text_layout(cells) -> np.ndarray:
    """The text cells as a NUL-padded (width, len(cells)) uint8 layout."""
    data = [cell.encode() for cell in cells]
    if any(b"\0" in d for d in data):
        raise ValueError("a text cell holds a NUL character")
    array = np.array(data, dtype=bytes)
    return array.view(np.uint8).reshape(len(data), array.itemsize).T


def _rows(columns, separators: bytes):
    """Yield the text of the rows of columns, BLOCK_ROWS rows at a time.  A
    float64 column is laid out by _number_layout, any other column is a uint8
    layout already (_text_layout); separators[i] follows the cell of column
    i, and rows past the shortest column are dropped."""
    rows = min((column.shape[-1] for column in columns), default=0)
    for start in range(0, rows, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, rows)
        parts = []
        for column, separator in zip(columns, separators):
            parts.append(_number_layout(column[start:stop]) if column.ndim == 1
                         else column[:, start:stop])
            parts.append(np.full((1, stop - start), separator, np.uint8))
        block = np.concatenate(parts)
        # slots no row uses are dropped before the transpose, other NULs after it
        yield block[block.any(axis=1)].T.tobytes().translate(None, b"\0")


def _unit(lo, hi) -> float:
    """A power of two near 1/max(|lo|, |hi|), or 1 below 1: differences and
    tick values taken in these units are exact, so they keep the bytes of the
    plain formulas, and they cannot overflow for a span near the largest
    float."""
    return math.ldexp(1.0, -max(math.frexp(max(abs(lo), abs(hi)))[1], 0))


def _scale(values, lo, hi, out_lo, out_hi):
    unit = _unit(lo, hi)
    span = hi * unit - lo * unit
    if span == 0.0:
        span = 1.0
    return out_lo + (np.asarray(values) * unit - lo * unit) * (out_hi - out_lo) / span


def _tick(lo, hi, frac) -> float:
    unit = _unit(lo, hi)
    return (lo * unit + frac * (hi * unit - lo * unit)) / unit


def _m4(px, py):
    """Indices, ascending, of the first, last, earliest least-py and latest
    greatest-py point of each run of consecutive points in one integer pixel
    column: they light the run's pixels (M4; Jugel et al., PVLDB 7(10), 2014)."""
    column = np.floor(px)
    starts = np.flatnonzero(np.r_[True, column[1:] != column[:-1]])
    ends = np.r_[starts[1:], px.size] - 1
    run = np.repeat(np.arange(starts.size), ends - starts + 1)
    order = np.lexsort((py, run))  # stable: each run in place, ascending py
    keep = np.zeros(px.size, bool)
    keep[np.r_[starts, ends, order[starts], order[ends]]] = True
    return np.flatnonzero(keep)


def line_chart(xs, ys, *, title="", x_label="", y_label="") -> str:
    """One polyline with axes and tick labels, returned as an SVG document.
    The polyline draws the points _m4 keeps.  Data that is not finite, or
    that overflows when scaled to the plot, is refused with NumericalError."""
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
    kept = np.column_stack([px, py])[_m4(px, py)].ravel().tolist()
    points = " ".join([f"{POINT_FORMAT},{POINT_FORMAT}"] * (len(kept) // 2)) % tuple(kept)

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
        xv = _tick(x_lo, x_hi, frac)
        xp = plot_w0 + frac * (plot_w1 - plot_w0)
        parts.append(
            f'<line x1="{xp:.2f}" y1="{plot_h0}" x2="{xp:.2f}" y2="{plot_h0 + 5}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{xp:.2f}" y="{plot_h0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(xv)}</text>'
        )
        yv = _tick(y_lo, y_hi, frac)
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
