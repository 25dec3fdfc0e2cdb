"""Rotation to upward orientation and SVG / JSON emission.

The grid diagram lives in dominance orientation (up and to the right);
mapping (x, y) to (x - y, x + y) turns dominance into plain "higher v"
so every track runs upward. Tracks are cubic Bezier curves; at a
junction endpoint the control point sits a fixed small distance
directly above or below the junction so that all tracks through it
share a vertical tangent, and at vertex endpoints the control point
degenerates onto the endpoint.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .diagram import Diagram
from .grid import INVISIBLE, JUNCTION, VERTEX


@dataclass(slots=True)
class RotatedPoint:
    id: int
    kind: str
    u: int
    v: int
    label: str | None = None


@dataclass(slots=True)
class RotatedDiagram:
    n: int
    points: tuple[RotatedPoint, ...]
    segments: list[tuple[int, int]]


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


def rotate45(d: Diagram) -> RotatedDiagram:
    """Rotate the diagram so dominance points straight up."""
    pts = tuple(RotatedPoint(p.id, p.kind, *p.rot, p.label) for p in d.scene.points)
    return RotatedDiagram(d.scene.n, pts, list(d.segments))


def bezier_controls(lo: RotatedPoint, hi: RotatedPoint, delta):
    """Control points (p0, c1, c2, p3) for the track from lo up to hi.

    ``delta`` may be a float for drawing or a Fraction for exact
    checks; junction endpoints push their control straight up/down by
    delta, vertex and invisible endpoints keep degenerate controls.
    """
    p0 = (lo.u, lo.v)
    p3 = (hi.u, hi.v)
    c1 = (lo.u, lo.v + delta) if lo.kind == JUNCTION else p0
    c2 = (hi.u, hi.v - delta) if hi.kind == JUNCTION else p3
    return p0, c1, c2, p3


def _visible(rd: RotatedDiagram, opts: RenderOptions):
    points = rd.points
    if opts.show_invisible:
        vis_pts = list(points)
        vis_segs = list(rd.segments)
    else:
        vis_pts = [p for p in points if p.kind != INVISIBLE]
        keep = {p.id for p in vis_pts}
        vis_segs = [s for s in rd.segments if s[0] in keep and s[1] in keep]
    return vis_pts, vis_segs


def to_svg(rd: RotatedDiagram, opts: RenderOptions = RenderOptions()) -> str:
    """Deterministic standalone SVG of the rotated diagram."""
    points = {p.id: p for p in rd.points}
    vis_pts, vis_segs = _visible(rd, opts)

    s = CANVAS_SCALE
    margin = 1.2 * s
    if vis_pts:
        umin = min(p.u for p in vis_pts)
        umax = max(p.u for p in vis_pts)
        vmin = min(p.v for p in vis_pts)
        vmax = max(p.v for p in vis_pts)
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
        lo, hi = points[seg[0]], points[seg[1]]
        return (lo.v, lo.u, lo.id, hi.v, hi.u, hi.id)

    for seg in sorted(vis_segs, key=seg_key):
        lo, hi = points[seg[0]], points[seg[1]]
        p0, c1, c2, p3 = bezier_controls(lo, hi, opts.bezier_offset)
        out.append(
            f'  <path d="M {fx(p0[0])} {fy(p0[1])} '
            f"C {fx(c1[0])} {fy(c1[1])}, {fx(c2[0])} {fy(c2[1])}, "
            f'{fx(p3[0])} {fy(p3[1])}" fill="none" stroke="#222222" stroke-width="1.6"/>'
        )

    for p in sorted(vis_pts, key=lambda q: (q.v, q.u, q.id)):
        cx, cy = fx(p.u), fy(p.v)
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
    for p in d.scene.points:
        node = {
            "id": p.id,
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
