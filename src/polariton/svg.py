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
# cells formatted at a time, BLOCK_CELLS // columns rows a block, so a block
# takes the same memory whatever the table's width: traced, a 100001 x 2
# float table peaks at 2.35 MB and a 20000 x 6 one at 2.25 MB (the number
# kernel alone 1.7 MB), where blocks of 16384 rows took 5.6 and 12.5 MB, at
# the same speed
BLOCK_CELLS = 16384

# The tables of the number kernel.  A mantissa's 12 digits are three 4-digit
# groups; a group's entry, at its value, is its ASCII digits in memory order
# as one uint32, and the place (0-3) of its last nonzero digit, or -9 for a
# zero group, so that it never holds a mantissa's last nonzero digit.
_ZERO, _DOT, _MINUS, _PLUS, _E = b"0.-+e"
_GROUP_DIGITS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
_GROUP_TEXT = np.ascontiguousarray((_GROUP_DIGITS + _ZERO).T).view(np.uint32).ravel()
_GROUP_LAST = np.where(_GROUP_DIGITS > 0, np.arange(4, dtype=np.int8)[:, None], np.int8(-9)).max(axis=0)
# Per decimal exponent e, from floor(log10) of the least subnormal to the
# largest double's exponent after a carry, each table's entry in row
# e - _E_LO: the correctly rounded 10**(11 - e) the mantissa is scaled by,
# the digit the dot follows (-1 when a "0." prefix holds it), the slots of
# that prefix and its zeros, and the slots of the exponent text.
_E_LO, _E_HI = -324, 309
_EXPONENT = np.arange(_E_LO, _E_HI + 1)
_SCALE = np.array([float(f"1e{k}") for k in np.clip(11 - _EXPONENT, -297, 308).tolist()])
_FIXED = (_EXPONENT >= -4) & (_EXPONENT < 12)
_POINT = np.where(_FIXED, np.maximum(_EXPONENT, -1), 0).astype(np.int8)
_PREFIX = ((_FIXED & (np.array([0, 0, -1, -2, -3])[:, None] > _EXPONENT))
           * np.array([_ZERO, _DOT, _ZERO, _ZERO, _ZERO], np.uint8)[:, None])
_POWER = np.abs(_EXPONENT)
_SUFFIX = (~_FIXED * np.array([
    np.full(_EXPONENT.size, _E), np.where(_EXPONENT < 0, _MINUS, _PLUS),
    (_POWER >= 100) * (_POWER // 100 + _ZERO), _POWER // 10 % 10 + _ZERO, _POWER % 10 + _ZERO,
])).astype(np.uint8)
_DIGIT = np.arange(12, dtype=np.int8)[:, None]


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
    through % itself.  Apart from the sign, every slot of a certified value
    is looked up: its digits and last nonzero digit by 4-digit group, the
    rest by e."""
    a = np.abs(x)
    e = np.floor(np.log10(np.maximum(a, np.finfo(float).smallest_subnormal))).astype(np.int32)
    e -= _E_LO  # from here on, the row of e in the per-exponent tables
    s = a * _SCALE.take(e, mode="clip")
    certified = (s >= 1e11) & (s < 1e12) & (np.abs(s - np.floor(s) - 0.5) > 1e-3)
    mantissa = np.rint(s, out=s)  # below 1e13 even where not certified
    carry = mantissa == 1e12
    mantissa[carry] = 1e11
    e += carry
    whole = mantissa.astype(np.int64)
    high = whole // 100000000
    rest = (whole - high * 100000000).astype(np.int32)
    middle = rest // 10000
    groups = high.astype(np.int32), middle, rest - middle * 10000
    point = _POINT.take(e, mode="clip")

    layout = np.empty((35, x.size), np.uint8)
    np.less(x, 0, out=layout[0])
    layout[0] *= _MINUS
    np.take(_PREFIX, e, axis=1, out=layout[1:6], mode="clip")
    digits = layout[6:30:2]
    last = np.full(x.size, -9, np.int8)  # the last nonzero digit
    for i, group in enumerate(groups):
        digits[4 * i:4 * i + 4] = _GROUP_TEXT.take(group, mode="clip").view(np.uint8).reshape(-1, 4).T
        np.maximum(last, _GROUP_LAST.take(group, mode="clip") + 4 * i, out=last)
    digits *= _DIGIT <= np.maximum(last, point)
    dots = layout[7:30:2]
    np.equal(_DIGIT, point, out=dots)
    dots &= last > point
    dots *= _DOT
    np.take(_SUFFIX, e, axis=1, out=layout[30:35], mode="clip")
    return _fall_back(layout, x, certified)


def _text_layout(cells) -> np.ndarray:
    """The text cells as a NUL-padded (width, len(cells)) uint8 layout."""
    data = [cell.encode() for cell in cells]
    if any(b"\0" in d for d in data):
        raise ValueError("a text cell holds a NUL character")
    array = np.array(data, dtype=bytes)
    return array.view(np.uint8).reshape(len(data), array.itemsize).T


def _rows(columns, separators: bytes):
    """Yield the text of the rows of columns, about BLOCK_CELLS cells at a
    time.  A float64 column is laid out by _number_layout, any other column
    is a uint8 layout already (_text_layout); separators[i] follows the cell
    of column i, and rows past the shortest column are dropped."""
    rows = min((column.shape[-1] for column in columns), default=0)
    step = max(BLOCK_CELLS // max(len(columns), 1), 1)
    for start in range(0, rows, step):
        stop = min(start + step, rows)
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
    del column  # at most one more array of the points' size is alive below
    ends = np.r_[starts[1:], px.size] - 1
    lengths = ends - starts + 1
    # every run holds its least and greatest py, so the first least at or
    # after a run's start and the last greatest at or before its end are its own
    least = np.flatnonzero(py == np.repeat(np.minimum.reduceat(py, starts), lengths))
    greatest = np.flatnonzero(py == np.repeat(np.maximum.reduceat(py, starts), lengths))
    return np.unique(np.r_[starts, ends, least[np.searchsorted(least, starts)],
                           greatest[np.searchsorted(greatest, ends, "right") - 1]])


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
    kept = _m4(px, py)
    coords = np.column_stack([px[kept], py[kept]]).ravel().tolist()
    points = " ".join([f"{POINT_FORMAT},{POINT_FORMAT}"] * kept.size) % tuple(coords)

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
