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
from .flow import IntegratorConfig, half_arcs

_W, _H = 840, 520
_MARGIN = 40


def _curves(Z: PiecewiseField, center: float, radius: float, cycles,
            cfg: IntegratorConfig):
    """A few representative one-sided arcs through the window, and each
    cycle as the closed curve of its two half-arcs, all in one batch."""
    fractions = (0.35, 0.6, 0.85)
    lanes = ([(f"{name}-arc-x{frac:.2f}", field, sigma, center + frac * radius)
              for name, sigma, field in Z.sides() for frac in fractions]
             + [(None, field, sigma, cyc.x_star)
                for cyc in cycles for _, sigma, field in Z.sides()])
    paths = [None if isinstance(r, FilippovError) else r[1] for r in half_arcs(
        [(field, sigma, x, cfg.window) for _, field, sigma, x in lanes], cfg)]
    n = 2 * len(fractions)
    arcs = [(label, path) for (label, *_), path in zip(lanes, paths[:n])
            if path is not None]
    closed = [(f"cycle-{m}", np.concatenate([upper, lower[::-1]]))
              for m, (upper, lower) in enumerate(zip(paths[n::2], paths[n + 1::2]))
              if upper is not None and lower is not None]
    return arcs, closed


def render_portrait(Z: PiecewiseField, center: float, radius: float,
                    cfg: IntegratorConfig, svg_path, csv_path,
                    cycles=()) -> dict:
    """Render the window ``center +- radius`` and return summary counts."""
    lo, hi = center - radius, center + radius
    segments = sigma_regions(Z, (lo, hi))
    folds = [seg.interval[1] for seg in segments[:-1]]
    cfg = cfg.with_window(center - 3.0 * radius, center + 3.0 * radius)
    arcs, closed = _curves(Z, center, radius, cycles, cfg)

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

    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
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
