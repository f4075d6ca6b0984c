"""Standalone SVG rendering of trajectory series; no plotting library.

Fixed 800x500 viewport: one polyline per color tracking its probability
over t, a legend, and a dashed vertical marker at each finite
phase-transition index.
"""

from __future__ import annotations

import math

from .tables import Series, fmt

WIDTH, HEIGHT = 800, 500
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 60, 160, 20, 50

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _x_tick_step(tmax: float) -> float:
    for step in (1, 2, 5, 10, 20, 50, 100):
        if tmax / step <= 12:
            return float(step)
    # The power of ten above tmax, kept below float's 1.8e308 ceiling.
    return float(10 ** min(int(math.log10(tmax)) + 1, 308))


def render_trajectory_svg(
    series: list[Series], tau: tuple[float, ...] | None = None
) -> str:
    """The SVG of parse_trajectory_csv's series: each drawn in the given
    order, its points joined in theirs."""
    if not series:
        raise ValueError("empty trajectory table")
    tmax = max(float(t.max()) for _, _, t, _ in series)
    span = tmax if tmax > 0 else 1.0
    pw = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    ph = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def x(t: float) -> float:
        return MARGIN_LEFT + (t / span) * pw

    def y(p: float) -> float:
        return MARGIN_TOP + (1.0 - p) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]

    for i in range(6):
        p = i / 5
        yy = fmt(y(p))
        out.append(
            f'<line x1="{MARGIN_LEFT}" y1="{yy}" x2="{MARGIN_LEFT + pw}" y2="{yy}" stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{yy}" text-anchor="end" dominant-baseline="middle">{fmt(p)}</text>'
        )
    step = _x_tick_step(span)
    t = 0.0
    while t <= span + 1e-9:
        xx = fmt(x(t))
        out.append(
            f'<line x1="{xx}" y1="{MARGIN_TOP + ph}" x2="{xx}" y2="{MARGIN_TOP + ph + 5}" stroke="#333333"/>'
        )
        out.append(
            f'<text x="{xx}" y="{MARGIN_TOP + ph + 18}" text-anchor="middle">{fmt(t)}</text>'
        )
        t += step
    out.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{pw}" height="{ph}" fill="none" stroke="#333333"/>'
    )
    out.append(
        f'<text x="{MARGIN_LEFT + pw / 2}" y="{HEIGHT - 12}" text-anchor="middle">t</text>'
    )
    out.append(
        f'<text x="16" y="{MARGIN_TOP + ph / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {MARGIN_TOP + ph / 2})">probability</text>'
    )

    if tau is not None:
        for v in tau:
            if math.isinf(v) or v > span:
                continue
            xx = fmt(x(v))
            out.append(
                f'<line x1="{xx}" y1="{MARGIN_TOP}" x2="{xx}" y2="{MARGIN_TOP + ph}" '
                f'stroke="#555555" stroke-dasharray="4 3"/>'
            )

    single_point = all(len(t) == 1 for _, _, t, _ in series)
    for k, _, t, p in series:
        color = PALETTE[(k - 1) % len(PALETTE)]
        if single_point:
            out.append(
                f'<circle cx="{fmt(x(t[0]))}" cy="{fmt(y(p[0]))}" r="3" fill="{color}"/>'
            )
        else:
            coords = " ".join(f"{fmt(a)},{fmt(b)}" for a, b in zip(x(t).tolist(), y(p).tolist()))
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )

    lx = MARGIN_LEFT + pw + 16
    for i, (k, label, _, _) in enumerate(series):
        color = PALETTE[(k - 1) % len(PALETTE)]
        ly = MARGIN_TOP + 10 + i * 18
        out.append(f'<rect x="{lx}" y="{ly - 9}" width="12" height="12" fill="{color}"/>')
        # A label is CSV text. html.escape would import html.entities into every command.
        text = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(f'<text x="{lx + 18}" y="{ly + 1}">{text}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
