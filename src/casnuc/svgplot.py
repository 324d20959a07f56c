"""Minimal deterministic SVG line charts.

No timestamps, no randomness, fixed palette and float formatting: identical
input must yield byte-identical output.  The x pixels of each xs list are
formatted once, into a template of the polyline that takes the y pixels, and
every series that shares the list fills it: each vertex formats only its y.
The affine pixel maps are inlined in their own operation order, so a
vertex's bytes are those of _fmt(px(x)) and _fmt(py(y)).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .errors import DomainError, NumericalError

Series = tuple[str, Sequence[float], Sequence[float]]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# canvas size [px] and the margins around the plot area
_WIDTH = 640
_HEIGHT = 440
_MARGIN_LEFT = 72.0
_MARGIN_RIGHT = 24.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 54.0


def _fmt(v: float) -> str:
    # fixed 2-decimal pixel coordinates keep the output byte-stable
    return f"{v:.2f}"


def _escape(body: str) -> str:
    # the three characters XML text may not hold literally
    return body.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _tick_positions(lo: float, hi: float) -> list[float]:
    span = hi - lo
    raw = span / 5  # about five ticks an axis
    mag = 10.0 ** math.floor(math.log10(raw))
    norm = raw / mag
    if norm <= 1.0:
        step = mag
    elif norm <= 2.0:
        step = 2.0 * mag
    elif norm <= 5.0:
        step = 5.0 * mag
    else:
        step = 10.0 * mag
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * span:
        if v >= lo - 1e-9 * span:  # on a sub-ulp span, first can round below lo
            ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        if v + step == v:
            break  # step below half an ulp of v (sub-ulp span): v would never advance
        v += step
    return ticks


def render_line_chart(
    series: Sequence[Series],
    x_label: str,
    y_label: str,
    title: str | None = None,
) -> str:
    """Render labelled (xs, ys) series as an SVG document string.

    Every series needs at least two points and all-finite values; violations
    raise (NumericalError for non-finite data, DomainError otherwise).
    """
    if len(series) == 0:
        raise DomainError("at least one series is required")
    for label, xs, ys in series:
        if len(xs) != len(ys):
            raise DomainError(f"series {label!r}: x/y length mismatch")
        if len(xs) < 2:
            raise DomainError(f"series {label!r}: at least 2 points required")
        if not (all(map(math.isfinite, xs)) and all(map(math.isfinite, ys))):
            for v in list(xs) + list(ys):  # name the first non-finite value
                if not math.isfinite(v):
                    raise NumericalError(f"series {label!r}: non-finite value {v}")

    xmin = min(min(xs) for _, xs, _ in series)
    xmax = max(max(xs) for _, xs, _ in series)
    ymin = min(min(ys) for _, _, ys in series)
    ymax = max(max(ys) for _, _, ys in series)
    if xmin == xmax:
        xmin, xmax = xmin - 1.0, xmax + 1.0
    if ymin == ymax:
        ymin, ymax = ymin - 1.0, ymax + 1.0

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    x_span, y_span = xmax - xmin, ymax - ymin

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - xmin) / x_span * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + (1.0 - (y - ymin) / y_span) * plot_h

    out: list[str] = []

    def line(x1: str, y1: str, x2: str, y2: str, stroke: str, width: str = "1") -> None:
        out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                   f'stroke="{stroke}" stroke-width="{width}"/>')

    def text(x: str, y: str, size: str, anchor: str | None, fill: str, body: str,
             transform: str | None = None) -> None:
        anchor_attr = f' text-anchor="{anchor}"' if anchor else ""
        transform_attr = f' transform="{transform}"' if transform else ""
        out.append(f'<text x="{x}" y="{y}" font-family="sans-serif" font-size="{size}"'
                   f'{anchor_attr} fill="{fill}"{transform_attr}>'
                   f'{_escape(body)}</text>')

    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')

    x0, x1 = _fmt(_MARGIN_LEFT), _fmt(_MARGIN_LEFT + plot_w)
    y0, y1 = _fmt(_MARGIN_TOP), _fmt(_MARGIN_TOP + plot_h)

    for tx in _tick_positions(xmin, xmax):
        p = _fmt(px(tx))
        line(p, y0, p, y1, "#dddddd")
        line(p, y1, p, _fmt(_MARGIN_TOP + plot_h + 5), "#333333")
        text(p, _fmt(_MARGIN_TOP + plot_h + 18), "11", "middle", "#333333", f"{tx:g}")
    for ty in _tick_positions(ymin, ymax):
        p = _fmt(py(ty))
        line(x0, p, x1, p, "#dddddd")
        line(_fmt(_MARGIN_LEFT - 5), p, x0, p, "#333333")
        text(_fmt(_MARGIN_LEFT - 8), _fmt(py(ty) + 4), "11", "end", "#333333", f"{ty:g}")

    out.append(
        f'<rect x="{x0}" y="{y0}" width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )

    # each xs list, shared by any number of series, becomes one template of
    # its x pixels that takes the y pixels; px and py are inlined in their own
    # operation order, so each vertex formats only its y
    templates: dict[int, str] = {}
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        template = templates.get(id(xs))
        if template is None:
            template = templates[id(xs)] = " ".join(
                ["%.2f" % (_MARGIN_LEFT + (x - xmin) / x_span * plot_w) + ",%.2f" for x in xs])
        pts = template % tuple([_MARGIN_TOP + (1.0 - (y - ymin) / y_span) * plot_h for y in ys])
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )

    # legend, top-right corner of the plot area
    for i, (label, _, _) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        ly = _MARGIN_TOP + 14.0 + 16.0 * i
        lx = _MARGIN_LEFT + plot_w - 150.0
        line(_fmt(lx), _fmt(ly - 4), _fmt(lx + 22), _fmt(ly - 4), color, "1.5")
        text(_fmt(lx + 27), _fmt(ly), "11", None, "#333333", label)

    if title:
        text(_fmt(_WIDTH / 2), "20", "13", "middle", "#000000", title)
    text(_fmt(_MARGIN_LEFT + plot_w / 2), _fmt(_HEIGHT - 14), "12", "middle", "#000000",
         x_label)
    y_mid = _fmt(_MARGIN_TOP + plot_h / 2)
    text("16", y_mid, "12", "middle", "#000000", y_label, f"rotate(-90 16 {y_mid})")
    out.append("</svg>")
    return "\n".join(out) + "\n"
