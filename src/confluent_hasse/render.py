"""Rotation to upward orientation and SVG / JSON emission.

The grid diagram lives in dominance orientation (up and to the right);
mapping (x, y) to (x - y, x + y) (``GridPoint.rot``) turns dominance
into plain "higher v" so every track runs upward. Both writers read the
``Diagram`` itself; ``rotate45`` gives its points' rotated coordinates
by id for the SVG canvas. Tracks are cubic Bezier curves; at a
junction endpoint the control point sits a fixed small distance
directly above or below the junction so that all tracks through it
share a vertical tangent, and at vertex endpoints the control point
degenerates onto the endpoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .diagram import Diagram
from .grid import GridPoint, INVISIBLE, JUNCTION, VERTEX


# radii in rotated grid units; CANVAS_SCALE is SVG pixels per unit
NODE_RADIUS = 0.32
JUNCTION_RADIUS = 0.11
CANVAS_SCALE = 28.0


@dataclass(frozen=True)
class RenderOptions:
    bezier_offset: float = 0.5  # rotated grid units; must stay in (0, 1)
    show_invisible: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.bezier_offset < 1:
            raise ValueError("bezier offset must lie strictly between 0 and 1")


def rotate45(d: Diagram) -> list[tuple[int, int]]:
    """Each point's rotated (u, v), by id: dominance points straight up."""
    return [p.rot for p in d.scene.points]


def bezier_controls(lo: GridPoint, hi: GridPoint, delta):
    """Rotated control points (p0, c1, c2, p3) for the track from lo up
    to hi.

    ``delta`` may be a float for drawing or a Fraction for exact
    checks; junction endpoints push their control straight up/down by
    delta, vertex and invisible endpoints keep degenerate controls.
    """
    p0 = lo.rot
    p3 = hi.rot
    c1 = (p0[0], p0[1] + delta) if lo.kind == JUNCTION else p0
    c2 = (p3[0], p3[1] - delta) if hi.kind == JUNCTION else p3
    return p0, c1, c2, p3


def to_svg(d: Diagram, opts: RenderOptions = RenderOptions()) -> str:
    """Deterministic standalone SVG of the diagram, turned upward."""
    points = d.scene.points
    rot = rotate45(d)
    if opts.show_invisible:
        vis_ids = range(len(points))
        vis_segs = d.segments
    else:
        vis_ids = [i for i, p in enumerate(points) if p.kind != INVISIBLE]
        vis_segs = d.drawn_segments()

    s = CANVAS_SCALE
    margin = 1.2 * s
    if vis_ids:
        umin = min(rot[i][0] for i in vis_ids)
        umax = max(rot[i][0] for i in vis_ids)
        vmin = min(rot[i][1] for i in vis_ids)
        vmax = max(rot[i][1] for i in vis_ids)
    else:
        umin = umax = vmin = vmax = 0
    width = (umax - umin) * s + 2 * margin
    height = (vmax - vmin) * s + 2 * margin

    def fx(u: float) -> str:
        return f"{(u - umin) * s + margin:.2f}"

    def fy(v: float) -> str:
        return f"{(vmax - v) * s + margin:.2f}"

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.2f}" '
        f'height="{height:.2f}" viewBox="0 0 {width:.2f} {height:.2f}">',
    ]

    def seg_key(seg: tuple[int, int]):
        (lu, lv), (hu, hv) = rot[seg[0]], rot[seg[1]]
        return (lv, lu, seg[0], hv, hu, seg[1])

    for lo, hi in sorted(vis_segs, key=seg_key):
        p0, c1, c2, p3 = bezier_controls(points[lo], points[hi], opts.bezier_offset)
        out.append(
            f'  <path d="M {fx(p0[0])} {fy(p0[1])} '
            f"C {fx(c1[0])} {fy(c1[1])}, {fx(c2[0])} {fy(c2[1])}, "
            f'{fx(p3[0])} {fy(p3[1])}" fill="none" stroke="#222222" stroke-width="1.6"/>'
        )

    for i in sorted(vis_ids, key=lambda q: (rot[q][1], rot[q][0], q)):
        p = points[i]
        cx, cy = fx(rot[i][0]), fy(rot[i][1])
        if p.kind == VERTEX:
            out.append(
                f'  <circle cx="{cx}" cy="{cy}" r="{NODE_RADIUS * s:.2f}" '
                'fill="#ffffff" stroke="#222222" stroke-width="1.6"/>'
            )
            out.append(
                f'  <text x="{cx}" y="{cy}" dy="0.34em" text-anchor="middle" '
                f'font-family="Helvetica,sans-serif" font-size="{0.3 * s:.2f}">{_esc(p.label or "")}</text>'
            )
        elif p.kind == JUNCTION:
            out.append(
                f'  <circle cx="{cx}" cy="{cy}" r="{JUNCTION_RADIUS * s:.2f}" fill="#222222"/>'
            )
        else:
            out.append(
                f'  <circle cx="{cx}" cy="{cy}" r="{JUNCTION_RADIUS * s:.2f}" '
                'fill="none" stroke="#999999" stroke-width="1.0" stroke-dasharray="2,2"/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def to_json(d: Diagram) -> str:
    """Machine-readable layout with both grid and rotated coordinates."""
    nodes = []
    for pid, p in enumerate(d.scene.points):
        node = {
            "id": pid,
            "kind": p.kind,
            "grid": [p.x, p.y],
            "rot": list(p.rot),
        }
        if p.label is not None:
            node["label"] = p.label
        nodes.append(node)
    doc = {
        "n": d.scene.n,
        "nodes": nodes,
        "segments": [{"from": lo, "to": hi} for lo, hi in sorted(d.segments)],
        "stats": {
            "junctions": d.junction_count(),
            "segments": len(d.segments),
            "gridSide": d.scene.side,
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
