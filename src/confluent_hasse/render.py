"""Rotation to upward orientation and SVG / JSON emission.

The grid diagram lives in dominance orientation (up and to the right);
``diagram.rotate45`` maps (x, y) to (u, v), which turns dominance into
plain "higher v" so every track runs upward. Both writers read the
``Diagram`` itself and take the columns u and v of its scene from one
``rotate45`` call over the x and y columns; ``bezier_controls`` rotates
the two ends of one track the same way. Tracks are cubic Bezier
curves; at a junction endpoint the control point sits a fixed small
distance directly above or below the junction so that all tracks
through it share a vertical tangent, and at vertex endpoints the
control point degenerates onto the endpoint.

Both writers fill fixed text templates and do little work per track.
``to_svg`` works on numpy columns. One ``lexsort`` puts the visible
points in drawing order (by v, u, id). Their coordinates, and the two
control heights of each junction, are computed in float64 in the
operation order of the scalar expressions, so they give the same
``.2f`` text, and each is formatted once. The segments become one int
array, a mask drops those with an invisible end, and a second
``lexsort`` orders the tracks by the ranks of their ends; a loop then
writes the text of each track. ``to_json`` writes the text of
``json.dumps(indent=2)`` without its indenting encoder, which runs in
pure Python. It splits the points into runs of one kind and one label
presence (vertices, then junctions, then bounds, as the scene lists
them), bakes the kind into a node template and fills the template,
repeated over the run, by one ``%`` call from slices of the columns x,
y, id, label, u and v.
The segments fill one repeated template the same way, and the document
is joined once. Their bytes are pinned by the reference writers in
``tests/suites.py`` and by the output digests in
``perfbench/digests.json``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, groupby, repeat
from json.encoder import encode_basestring_ascii
from operator import is_not

import numpy as np

from .diagram import Diagram, rotate45
from .grid import INVISIBLE, JUNCTION, VERTEX, GridScene


# radii in rotated grid units; CANVAS_SCALE is SVG pixels per unit
NODE_RADIUS = 0.32
JUNCTION_RADIUS = 0.11
CANVAS_SCALE = 28.0

# kinds as small ints, for the masks to_svg takes over the scene
_VERTEX, _JUNCTION, _INVISIBLE = range(3)
_KIND_CODE = {VERTEX: _VERTEX, JUNCTION: _JUNCTION, INVISIBLE: _INVISIBLE}


@dataclass(frozen=True)
class RenderOptions:
    bezier_offset: float = 0.5  # rotated grid units; must stay in (0, 1)
    show_invisible: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.bezier_offset < 1:
            raise ValueError("bezier offset must lie strictly between 0 and 1")


def _rotated(s: GridScene) -> tuple[np.ndarray, np.ndarray]:
    """The columns u and v of the scene's points, by id."""
    return rotate45(np.array(s.xs, np.int64), np.array(s.ys, np.int64))


def _control_shift(kind: str, delta):
    """How far a track's control point sits from its endpoint of this
    kind: straight above the lower end, straight below the upper end.
    A junction pushes it by delta, so that all tracks through the
    junction share a vertical tangent; at a vertex or an invisible
    point the control degenerates onto the endpoint (0)."""
    return delta if kind == JUNCTION else 0


def bezier_controls(s: GridScene, lo: int, hi: int, delta):
    """Rotated control points (p0, c1, c2, p3) for the track from point
    lo up to point hi of the scene.

    ``delta`` may be a float for drawing or a Fraction for exact
    checks; ``to_svg`` draws every track by the same rule.
    """
    u0, v0 = rotate45(s.xs[lo], s.ys[lo])
    u3, v3 = rotate45(s.xs[hi], s.ys[hi])
    c1 = (u0, v0 + _control_shift(s.kinds[lo], delta))
    c2 = (u3, v3 - _control_shift(s.kinds[hi], delta))
    return (u0, v0), c1, c2, (u3, v3)


def to_svg(d: Diagram, opts: RenderOptions = RenderOptions()) -> str:
    """Deterministic standalone SVG of the diagram, turned upward."""
    kinds, labels = d.scene.kinds, d.scene.labels
    us, vs = _rotated(d.scene)
    codes = np.fromiter(map(_KIND_CODE.__getitem__, kinds), np.int8, len(kinds))
    # the points in drawing order, bottom to top; the columns below are
    # indexed by this rank
    vis = np.arange(len(kinds)) if opts.show_invisible else np.flatnonzero(codes != _INVISIBLE)
    order = vis[np.lexsort((vis, us[vis], vs[vis]))]
    u, v = us[order], vs[order]

    s = CANVAS_SCALE
    margin = 1.2 * s
    if len(order):
        # v ascends in drawing order
        umin, umax, vmin, vmax = int(u.min()), int(u.max()), int(v[0]), int(v[-1])
    else:
        umin = umax = vmin = vmax = 0
    width = (umax - umin) * s + 2 * margin
    height = (vmax - vmin) * s + 2 * margin

    # Each point's coordinates are formatted once, and so are the
    # control-point y values above and below a junction (those of the
    # tracks leaving it upward and arriving from below); elsewhere the
    # control degenerates onto the point. The float64 arithmetic keeps
    # the operation order of (vmax - (v +- shift)) * s + margin: any
    # other grouping can change a .2f rounding.
    fmt = "{:.2f}".format
    xs = list(map(fmt, ((u - umin) * s + margin).tolist()))
    ys = list(map(fmt, ((vmax - v) * s + margin).tolist()))
    above, below = ys.copy(), ys.copy()
    junctions = np.flatnonzero(codes[order] == _JUNCTION)
    vj, shift = v[junctions], _control_shift(JUNCTION, opts.bezier_offset)
    for r, a, b in zip(
        junctions.tolist(),
        map(fmt, ((vmax - (vj + shift)) * s + margin).tolist()),
        map(fmt, ((vmax - (vj - shift)) * s + margin).tolist()),
    ):
        above[r], below[r] = a, b

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.2f}" '
        f'height="{height:.2f}" viewBox="0 0 {width:.2f} {height:.2f}">',
    ]

    # tracks in order of (rank of the lower end, rank of the upper end),
    # without those that have an invisible end unless these are shown
    segs = np.fromiter(chain.from_iterable(d.segments), np.int64, 2 * len(d.segments))
    lo, hi = segs[0::2], segs[1::2]
    if not opts.show_invisible:
        invisible = codes == _INVISIBLE
        drawn = ~(invisible[lo] | invisible[hi])
        lo, hi = lo[drawn], hi[drawn]
    rank = np.empty(len(kinds), np.int64)
    rank[order] = np.arange(len(order))
    rank_lo, rank_hi = rank[lo], rank[hi]
    tracks = np.lexsort((rank_hi, rank_lo))
    for a, b in zip(rank_lo[tracks].tolist(), rank_hi[tracks].tolist()):
        out.append(
            f'  <path d="M {xs[a]} {ys[a]} C {xs[a]} {above[a]}, {xs[b]} {below[b]}, '
            f'{xs[b]} {ys[b]}" fill="none" stroke="#222222" stroke-width="1.6"/>'
        )

    node_r = f"{NODE_RADIUS * s:.2f}"
    junction_r = f"{JUNCTION_RADIUS * s:.2f}"
    font_size = f"{0.3 * s:.2f}"
    for i, cx, cy in zip(order.tolist(), xs, ys):
        kind = kinds[i]
        if kind == VERTEX:
            out.append(
                f'  <circle cx="{cx}" cy="{cy}" r="{node_r}" '
                'fill="#ffffff" stroke="#222222" stroke-width="1.6"/>'
            )
            out.append(
                f'  <text x="{cx}" y="{cy}" dy="0.34em" text-anchor="middle" '
                f'font-family="Helvetica,sans-serif" font-size="{font_size}">{_esc(labels[i] or "")}</text>'
            )
        elif kind == JUNCTION:
            out.append(f'  <circle cx="{cx}" cy="{cy}" r="{junction_r}" fill="#222222"/>')
        else:
            out.append(
                f'  <circle cx="{cx}" cy="{cy}" r="{junction_r}" '
                'fill="none" stroke="#999999" stroke-width="1.0" stroke-dasharray="2,2"/>'
            )
    out.append("</svg>\n")
    return "\n".join(out)


def _esc(text: str) -> str:
    """Markup escaped, and each character XML 1.0 cannot carry (controls
    other than tab, newline and carriage return, U+FFFE, U+FFFF)
    replaced by U+FFFD, so the SVG stays well-formed."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    if text.isprintable():
        return text
    return re.sub("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]", "\ufffd", text)


# The text json.dumps(doc, sort_keys=True, indent=2) gives, one
# template per piece: keys in sorted order, one list element per line,
# an empty list as [], and strings escaped as json.dumps escapes them
# (encode_basestring_ascii). A node's kind is baked into its template
# (the first %s); the second %s is the label line or nothing.
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
_HEAD = '{\n  "n": %d,\n  "nodes": '
_MIDDLE = ',\n  "segments": '
_TAIL = """,
  "stats": {
    "gridSide": %d,
    "junctions": %d,
    "segments": %d
  }
}
"""


def _node_template(kind: str, labelled: bool) -> str:
    """_NODE for one kind, with a label field or none."""
    return _NODE.replace("%s", encode_basestring_ascii(kind), 1).replace(
        "%s", _LABEL if labelled else "", 1
    )


def _json_list(items: list[str]) -> list[str]:
    """The pieces of a JSON list of the given element texts."""
    if not items:
        return ["[]"]
    pieces = ["[\n"]
    for item in items:
        pieces += (item, ",\n")
    pieces[-1] = "\n  ]"
    return pieces


def to_json(d: Diagram) -> str:
    """Machine-readable layout with both grid and rotated coordinates."""
    s = d.scene
    xs, ys, labels = s.xs, s.ys, s.labels
    us, vs = (column.tolist() for column in _rotated(s))
    # one template per run of points with the same kind and label
    # presence, filled by one call from columns zipped point by point
    runs = []
    stop = 0
    present = map(is_not, labels, repeat(None))
    for (kind, labelled), run in groupby(zip(s.kinds, present)):
        start = stop
        stop += len(list(run))
        columns = [xs[start:stop], ys[start:stop], range(start, stop), us[start:stop], vs[start:stop]]
        if labelled:
            columns.insert(3, map(encode_basestring_ascii, labels[start:stop]))
        template = ",\n".join([_node_template(kind, labelled)] * (stop - start))
        runs.append(template % tuple(chain.from_iterable(zip(*columns))))
    # the segment template repeated once per segment, filled by one call
    segments = sorted(d.segments)
    segment_text = ",\n".join([_SEGMENT] * len(segments)) % tuple(chain.from_iterable(segments))
    return "".join(
        [
            _HEAD % d.scene.n,
            *_json_list(runs),
            _MIDDLE,
            *_json_list([segment_text] if segments else []),
            _TAIL % (s.side, d.junction_count(), len(d.segments)),
        ]
    )
