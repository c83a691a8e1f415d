"""Standalone SVG renderings of measure step functions.

Hand-built SVG keeps the output byte-deterministic (no timestamps, no
library metadata). Both axes are log scale because the step values
decay exponentially while the breakpoints spread out the same way.
"""

from __future__ import annotations

from math import ceil, floor, log10

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")

_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 36.0
_MARGIN_BOTTOM = 44.0
_WIDTH = 840
_HEIGHT = 520


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_step_svg(series, focus: int, markers, *, t_max: int,
                    title: str = "") -> str:
    """One SVG with every member's step polyline overlaid, on log-log axes.

    series: list of (name, [(q, value), ...]) with float values; the
    entry at index `focus` is emphasized. markers are vertical lines at
    shared jump times.
    """
    if not series:
        raise ValueError("nothing to plot")
    xs = [1, max(2, t_max)]
    ys = []
    for _, points in series:
        ys.extend(v for _, v in points)
    if not ys:
        raise ValueError("series contain no breakpoints")

    x_lo, x_hi = log10(xs[0]), log10(xs[1])
    y_lo, y_hi = min(map(log10, ys)), max(map(log10, ys))
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(t: float) -> float:
        return _MARGIN_LEFT + (log10(t) - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return _MARGIN_TOP + (y_hi - log10(v)) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<text x="{_fmt(_WIDTH / 2)}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    # frame
    parts.append(
        f'<rect x="{_fmt(_MARGIN_LEFT)}" y="{_fmt(_MARGIN_TOP)}" '
        f'width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" fill="none" '
        f'stroke="#333333" stroke-width="1"/>')
    # x ticks at powers of ten
    for e in range(int(floor(x_lo)), int(ceil(x_hi)) + 1):
        if not xs[0] <= 10 ** e <= xs[1]:
            continue
        x = px(10 ** e)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(_MARGIN_TOP + plot_h)}" '
                     f'x2="{_fmt(x)}" y2="{_fmt(_MARGIN_TOP + plot_h + 5)}" '
                     f'stroke="#333333"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{_fmt(_HEIGHT - 22)}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">1e{e}</text>')
    # y ticks
    for e in range(int(floor(y_lo)), int(ceil(y_hi)) + 1):
        v = 10.0 ** e
        if not y_lo <= log10(v) <= y_hi:
            continue
        y = py(v)
        parts.append(f'<line x1="{_fmt(_MARGIN_LEFT - 5)}" y1="{_fmt(y)}" '
                     f'x2="{_fmt(_MARGIN_LEFT)}" y2="{_fmt(y)}" '
                     f'stroke="#333333"/>')
        parts.append(f'<text x="{_fmt(_MARGIN_LEFT - 8)}" y="{_fmt(y + 4)}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">1e{e}</text>')
    # shared-jump markers
    for t in markers:
        if t < xs[0] or t > xs[1]:
            continue
        x = px(t)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(_MARGIN_TOP)}" '
                     f'x2="{_fmt(x)}" y2="{_fmt(_MARGIN_TOP + plot_h)}" '
                     f'stroke="#999999" stroke-width="1" '
                     f'stroke-dasharray="4,3"/>')
    # step polylines; draw the focused member last so it sits on top
    order = [i for i in range(len(series)) if i != focus] + [focus]
    for idx in order:
        name, points = series[idx]
        if not points:
            continue
        color = PALETTE[idx % len(PALETTE)]
        emphasized = idx == focus
        path = [f"M {_fmt(px(points[0][0]))} {_fmt(py(points[0][1]))}"]
        for (q, v), (q_next, v_next) in zip(points, points[1:]):
            path.append(f"H {_fmt(px(q_next))}")
            path.append(f"V {_fmt(py(v_next))}")
        path.append(f"H {_fmt(px(t_max))}")
        parts.append(
            f'<path d="{" ".join(path)}" fill="none" stroke="{color}" '
            f'stroke-width="{2.2 if emphasized else 1.0}" '
            f'stroke-opacity="{1.0 if emphasized else 0.45}"/>')
        # legend entry
        ly = _MARGIN_TOP + 16 + 16 * idx
        parts.append(f'<line x1="{_fmt(_MARGIN_LEFT + 8)}" y1="{_fmt(ly - 4)}" '
                     f'x2="{_fmt(_MARGIN_LEFT + 28)}" y2="{_fmt(ly - 4)}" '
                     f'stroke="{color}" '
                     f'stroke-width="{2.2 if emphasized else 1.0}"/>')
        parts.append(f'<text x="{_fmt(_MARGIN_LEFT + 33)}" y="{_fmt(ly)}" '
                     f'font-family="sans-serif" font-size="11">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
