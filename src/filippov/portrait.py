"""Static phase portraits: SVG rendering plus a CSV of the polylines.

The switching line is drawn horizontally with sliding segments as solid
strokes and crossing segments dashed; contact points get dots; a handful of
integrated arcs sketch the flow; any cycles found are drawn as closed
curves built from their two half-arcs.
"""

from __future__ import annotations

import numpy as np

from .errors import FilippovError
from .field import PiecewiseField, sigma_regions
from .flow import IntegratorConfig, half_arc

_W, _H = 840, 520
_MARGIN = 40


def _collect_arcs(Z: PiecewiseField, center: float, radius: float,
                  cfg: IntegratorConfig):
    """A few representative one-sided arcs through the window."""
    arcs = []
    fractions = (0.35, 0.6, 0.85)
    for side in ("upper", "lower"):
        for frac in fractions:
            try:
                _, path = half_arc(Z, side, center + frac * radius, cfg)
            except FilippovError:
                continue
            arcs.append((f"{side}-arc-x{frac:.2f}", path))
    return arcs


def _cycle_curves(Z: PiecewiseField, cycles, cfg: IntegratorConfig):
    curves = []
    for n, cyc in enumerate(cycles):
        pieces = []
        for side in ("upper", "lower"):
            try:
                _, path = half_arc(Z, side, cyc.x_star, cfg)
            except FilippovError:
                continue
            pieces.append(path)
        if len(pieces) == 2:
            closed = np.concatenate([pieces[0], pieces[1][::-1]])
            curves.append((f"cycle-{n}", closed))
    return curves


def render_portrait(Z: PiecewiseField, center: float, radius: float,
                    cfg: IntegratorConfig, cycles=(), svg_path=None,
                    csv_path=None) -> dict:
    """Render the window ``center +- radius`` and return summary counts."""
    lo, hi = center - radius, center + radius
    segments = sigma_regions(Z, (lo, hi))
    folds = [seg.interval[1] for seg in segments[:-1]]
    cfg = cfg.with_window(center - 3.0 * radius, center + 3.0 * radius)
    arcs = _collect_arcs(Z, center, radius, cfg)
    closed = _cycle_curves(Z, cycles, cfg)

    ys = [0.0]
    for _, path in arcs + closed:
        ys.extend(path[:, 1].tolist())
    y_lo, y_hi = min(ys), max(ys)
    pad = 0.1 * max(y_hi - y_lo, 1e-6)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return _MARGIN + (x - lo) / (hi - lo) * (_W - 2 * _MARGIN)

    def sy(y):
        return _H - _MARGIN - (y - y_lo) / (y_hi - y_lo) * (_H - 2 * _MARGIN)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    for seg in segments:
        x0, x1 = seg.interval
        solid = seg.kind != "crossing"
        dash = "" if solid else ' stroke-dasharray="7,6"'
        width = 3.0 if solid else 1.4
        lines.append(
            f'<line class="sigma-{seg.kind}" x1="{sx(x0):.2f}" '
            f'y1="{sy(0):.2f}" x2="{sx(x1):.2f}" y2="{sy(0):.2f}" '
            f'stroke="black" stroke-width="{width}"{dash}/>')
    for _, path in arcs:
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}"
                       for x, y in path[::max(1, len(path) // 400)])
        lines.append(
            f'<polyline fill="none" stroke="steelblue" stroke-width="1.1" '
            f'points="{pts}"/>')
    for name, path in closed:
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}"
                       for x, y in path[::max(1, len(path) // 600)])
        lines.append(
            f'<polyline class="{name}" fill="none" stroke="firebrick" '
            f'stroke-width="1.8" points="{pts}"/>')
    for x in folds:
        lines.append(
            f'<circle class="fold" cx="{sx(x):.2f}" cy="{sy(0):.2f}" r="3.5" '
            f'fill="black"/>')
    lines.append("</svg>")

    if svg_path is not None:
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("curve,x,y\n")
            for name, path in arcs + closed:
                for x, y in path:
                    fh.write(f"{name},{x:.17g},{y:.17g}\n")

    return {
        "segments": [seg.to_json_dict() for seg in segments],
        "folds": [float(x) for x in folds],
        "n_arcs": len(arcs),
        "n_cycles_drawn": len(closed),
        "n_solid_segments": sum(1 for s in segments if s.kind != "crossing"),
    }
