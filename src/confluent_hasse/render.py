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

Both writers fill fixed text templates and do little work per track.
``to_svg`` formats each visible point's coordinates once, and a
junction's two control heights once, then sorts tracks by the ranks of
their ends. ``to_json`` writes one ``%``-template per node and per
segment in place of ``json.dumps(indent=2)``, whose indenting encoder
runs in pure Python. Their bytes are pinned by the reference writers in
``tests/suites.py`` and by the output digests in
``perfbench/digests.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

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


def _control_shift(kind: str, delta):
    """How far a track's control point sits from its endpoint of this
    kind: straight above the lower end, straight below the upper end.
    A junction pushes it by delta, so that all tracks through the
    junction share a vertical tangent; at a vertex or an invisible
    point the control degenerates onto the endpoint (0)."""
    return delta if kind == JUNCTION else 0


def bezier_controls(lo: GridPoint, hi: GridPoint, delta):
    """Rotated control points (p0, c1, c2, p3) for the track from lo up
    to hi.

    ``delta`` may be a float for drawing or a Fraction for exact
    checks; ``to_svg`` draws every track by the same rule.
    """
    (u0, v0), (u3, v3) = lo.rot, hi.rot
    c1 = (u0, v0 + _control_shift(lo.kind, delta))
    c2 = (u3, v3 - _control_shift(hi.kind, delta))
    return (u0, v0), c1, c2, (u3, v3)


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

    # Points in drawing order, bottom to top; the lists below are
    # indexed by this rank. Each point's coordinates are formatted once,
    # and so are the control-point y values above and below it (those of
    # the tracks leaving it upward and arriving from below). A control y
    # keeps the expression (vmax - (v +- shift)) * s + margin: any other
    # grouping of the arithmetic can change a .2f rounding.
    order = sorted(vis_ids, key=lambda q: (rot[q][1], rot[q][0], q))
    shifts = {
        kind: _control_shift(kind, opts.bezier_offset) for kind in (VERTEX, JUNCTION, INVISIBLE)
    }
    xs: list[str] = []
    ys: list[str] = []
    above: list[str] = []
    below: list[str] = []
    for i in order:
        u, v = rot[i]
        xs.append(f"{(u - umin) * s + margin:.2f}")
        ys.append(y := f"{(vmax - v) * s + margin:.2f}")
        shift = shifts[points[i].kind]
        if shift:
            above.append(f"{(vmax - (v + shift)) * s + margin:.2f}")
            below.append(f"{(vmax - (v - shift)) * s + margin:.2f}")
        else:
            above.append(y)
            below.append(y)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.2f}" '
        f'height="{height:.2f}" viewBox="0 0 {width:.2f} {height:.2f}">',
    ]

    # tracks in order of (rank of the lower end, rank of the upper end)
    rank = [0] * len(points)
    for r, i in enumerate(order):
        rank[i] = r
    m = len(order)
    for key in sorted([rank[lo] * m + rank[hi] for lo, hi in vis_segs]):
        a, b = divmod(key, m)
        out.append(
            f'  <path d="M {xs[a]} {ys[a]} C {xs[a]} {above[a]}, {xs[b]} {below[b]}, '
            f'{xs[b]} {ys[b]}" fill="none" stroke="#222222" stroke-width="1.6"/>'
        )

    node_r = f"{NODE_RADIUS * s:.2f}"
    junction_r = f"{JUNCTION_RADIUS * s:.2f}"
    font_size = f"{0.3 * s:.2f}"
    for i, cx, cy in zip(order, xs, ys):
        p = points[i]
        if p.kind == VERTEX:
            out.append(
                f'  <circle cx="{cx}" cy="{cy}" r="{node_r}" '
                'fill="#ffffff" stroke="#222222" stroke-width="1.6"/>'
            )
            out.append(
                f'  <text x="{cx}" y="{cy}" dy="0.34em" text-anchor="middle" '
                f'font-family="Helvetica,sans-serif" font-size="{font_size}">{_esc(p.label or "")}</text>'
            )
        elif p.kind == JUNCTION:
            out.append(f'  <circle cx="{cx}" cy="{cy}" r="{junction_r}" fill="#222222"/>')
        else:
            out.append(
                f'  <circle cx="{cx}" cy="{cy}" r="{junction_r}" '
                'fill="none" stroke="#999999" stroke-width="1.0" stroke-dasharray="2,2"/>'
            )
    out.append("</svg>\n")
    return "\n".join(out)


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# The text json.dumps(doc, sort_keys=True, indent=2) gives, one
# template per piece: keys in sorted order, one list element per line,
# an empty list as [], and strings escaped as json.dumps escapes them
# (encode_basestring_ascii).
_NODE = """    {
      "grid": [
        %d,
        %d
      ],
      "id": %d,
      "kind": %s,
%s      "rot": [
        %d,
        %d
      ]
    }"""
_LABEL = '      "label": %s,\n'
_SEGMENT = """    {
      "from": %d,
      "to": %d
    }"""
_DOCUMENT = """{
  "n": %d,
  "nodes": %s,
  "segments": %s,
  "stats": {
    "gridSide": %d,
    "junctions": %d,
    "segments": %d
  }
}
"""


def _json_list(body: str) -> str:
    return "[\n%s\n  ]" % body if body else "[]"


def to_json(d: Diagram) -> str:
    """Machine-readable layout with both grid and rotated coordinates."""
    nodes = []
    for pid, p in enumerate(d.scene.points):
        label = "" if p.label is None else _LABEL % encode_basestring_ascii(p.label)
        u, v = p.rot
        nodes.append(_NODE % (p.x, p.y, pid, encode_basestring_ascii(p.kind), label, u, v))
    # the segment template repeated once per segment, filled by one call
    segments = sorted(d.segments)
    segment_text = ",\n".join([_SEGMENT] * len(segments)) % tuple(chain.from_iterable(segments))
    return _DOCUMENT % (
        d.scene.n,
        _json_list(",\n".join(nodes)),
        _json_list(segment_text),
        d.scene.side,
        d.junction_count(),
        len(d.segments),
    )
