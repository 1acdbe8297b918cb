"""Deterministic SVG line charts.

Byte-identical output for identical input: fixed canvas, fixed palette,
fixed number formatting, no timestamps and no randomness.  A series keeps
its points as read-only float64 arrays; the axis limits and the polyline
coordinates are computed on those arrays.

Each polyline's coordinates are written as ``%.2f`` writes them, by an
integer kernel over the whole array.  Every pixel coordinate lies in
[34, 624]: the axis limits enclose every series, and IEEE subtraction and
division are monotone, so each (v - lo) / (hi - lo) lies in [0, 1].  The
kernel takes the window 1 <= v < 1000: with v = m 2^(e-53) from frexp,
100 v = 25 m / 2^(51-e) and 25 m < 2^58, so one int64 product and shift
give the hundredths, rounded half-even as %.2f rounds them.  Each
coordinate fills one little-endian word of ASCII bytes: csvio's digits of
the whole part with its leading zeros cleared to NUL, the point, two
digits and a separator.  One ``bytes.translate`` drops the NULs.
"""

from __future__ import annotations

import html
import math
from dataclasses import dataclass

import numpy as np

from .csvio import _QUAD, _QUAD_LEAD, _U64
from .errors import ContractError

WIDTH, HEIGHT = 640, 440
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 62, 16, 34, 46

TICK_TARGET = 6  # about this many ticks per axis

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


@dataclass(frozen=True, eq=False)
class Series:
    """One named polyline; x and y are kept as read-only float64 copies."""

    name: str
    x: np.ndarray
    y: np.ndarray
    step: bool = False  # render as a staircase (histograms)

    def __post_init__(self):
        xs = np.array(self.x, dtype=float)
        ys = np.array(self.y, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or not xs.size:
            raise ContractError(f"series {self.name!r} needs matching non-empty x and y")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ContractError(f"series {self.name!r} contains non-finite values")
        for name, arr in (("x", xs), ("y", ys)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class PlotSpec:
    """Everything needed to render one chart."""

    title: str
    x_label: str
    y_label: str
    series: tuple

    def __post_init__(self):
        if not self.series:
            raise ContractError("a plot needs at least one series")


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions via the 1-2-5 ladder over lo < hi."""
    # On an axis a few subnormals wide, the raw step or its power of ten
    # underflows to 0; the smallest positive float is then the only step left.
    raw = max((hi - lo) / TICK_TARGET, math.ulp(0.0))
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    else:
        step = raw
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        if t + step == t:
            break  # an axis a few ulps wide: step is below half an ulp of t
        t += step
    return ticks


def _escape(text: str) -> str:
    """text with &, < and > escaped for SVG character data; quotes stay."""
    return html.escape(text, quote=False)


def _fmt(v: float) -> str:
    return format(v, ".6g")


#: The byte after an x coordinate and after a y coordinate, in the top byte.
_SEP = np.array([ord(","), ord(" ")], dtype=_U64) << np.uint64(56)
_POINT = np.uint64(ord(".")) << np.uint64(32)


def _points(xy) -> str:
    """'x,y x,y ...' of the (n, 2) coordinates xy, each as %.2f writes it.
    Every coordinate must lie in [1, 1000)."""
    assert 1.0 <= xy.min() and xy.max() < 1000.0
    mant, e = np.frexp(xy)
    k = (51 - e).astype(np.int64)
    n = (mant * 2.0**53).astype(np.int64) * 25
    q = n >> k
    rem = n - (q << k)
    half = 1 << (k - 1)
    q += (rem > half) | ((rem == half) & (q & 1 == 1))
    whole, cents = np.divmod(q.astype(np.int32), 100)
    lead = (_QUAD_LEAD.take(whole) * 8).astype(_U64)
    words = _QUAD.take(whole) >> lead << lead | _POINT | _QUAD.take(cents) >> 16 << 40 | _SEP
    return words.tobytes().translate(None, b"\0")[:-1].decode("ascii")


def render_svg(spec: PlotSpec) -> str:
    """Render a plot description as a complete SVG 1.1 document."""
    x_lo = min(float(s.x.min()) for s in spec.series)
    x_hi = max(float(s.x.max()) for s in spec.series)
    y_lo = min(float(s.y.min()) for s in spec.series)
    y_hi = max(float(s.y.max()) for s in spec.series)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_x = 0.04 * (x_hi - x_lo)
    pad_y = 0.06 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
    for axis, lo, hi in (("x", x_lo, x_hi), ("y", y_lo, y_hi)):
        if not math.isfinite(hi - lo):
            raise ContractError(f"the {axis} axis span of {spec.title!r} overflows a float")
        if hi == lo:  # a constant series too large for +-0.5 to move it
            raise ContractError(f"the {axis} axis of {spec.title!r} has zero width at {lo!r}")

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    # px and py take scalars or arrays; elementwise IEEE arithmetic gives
    # the same bits either way.
    def px(x):
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH / 2:.1f}" y="20" font-family="sans-serif" font-size="14" '
        f'text-anchor="middle">{_escape(spec.title)}</text>',
    ]

    # frame
    parts.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    )

    for t in _nice_ticks(x_lo, x_hi):
        if not x_lo <= t <= x_hi:
            continue
        x = px(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{MARGIN_TOP + plot_h}" x2="{x:.2f}" '
            f'y2="{MARGIN_TOP + plot_h + 5}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{MARGIN_TOP + plot_h + 18}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{_escape(_fmt(t))}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        if not y_lo <= t <= y_hi:
            continue
        y = py(t)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{y:.2f}" x2="{MARGIN_LEFT}" y2="{y:.2f}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{y + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{_escape(_fmt(t))}</text>'
        )

    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 10}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle">{_escape(spec.x_label)}</text>'
    )
    parts.append(
        f'<text x="16" y="{MARGIN_TOP + plot_h / 2:.1f}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {MARGIN_TOP + plot_h / 2:.1f})">{_escape(spec.y_label)}</text>'
    )

    for i, s in enumerate(spec.series):
        color = PALETTE[i % len(PALETTE)]
        x, y = s.x, s.y
        if s.step:  # staircase: (x0, y0), (x1, y0), (x1, y1), (x2, y1), ...
            x, y = np.repeat(x, 2)[1:], np.repeat(y, 2)[:-1]
        coords = _points(np.column_stack((px(x), py(y))))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )

    # legend, top-right inside the frame
    legend_x = MARGIN_LEFT + plot_w - 160
    legend_y = MARGIN_TOP + 10
    for i, s in enumerate(spec.series):
        color = PALETTE[i % len(PALETTE)]
        y = legend_y + 16 * i
        parts.append(
            f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 22}" y2="{y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 28}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="11">{_escape(s.name)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
