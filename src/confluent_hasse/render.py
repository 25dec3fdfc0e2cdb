"""Rotation to upward orientation and SVG / JSON emission.

The grid diagram lives in dominance orientation (up and to the right);
``diagram.rotate45`` maps (x, y) to (u, v), which turns dominance into
plain "higher v" so every track runs upward. Both writers read the
``Diagram`` itself and take the columns u and v of its scene from one
``rotate45`` call over the scene's x and y arrays; ``bezier_controls``
rotates the two ends of one track the same way. Tracks are cubic Bezier
curves; at a junction endpoint the control point sits a fixed small
distance directly above or below the junction so that all tracks
through it share a vertical tangent, and at vertex endpoints the
control point degenerates onto the endpoint.

Both writers return the document as a list of chunks, each of at most
``CHUNK`` lines, whose concatenation is the text; the CLI writes (and,
for stdout, encodes) them one at a time, so the whole document is never
held a second time as one joined or encoded piece. Both fill fixed text
templates and do little work per track. ``to_svg`` works on numpy
columns. One ``lexsort`` puts the visible points in drawing order (by
v, u, id). Their coordinates, and the two control heights of each
junction, are computed in float64 in the operation order of the scalar
expressions, so they give the same ``.2f`` text; each distinct u, v and
control height is computed and formatted once (``np.unique`` with its
inverse), and each point gets its texts by one object-array gather.
``Diagram.drawn_segments`` drops the segments with an invisible end by
one mask, and a second ``lexsort`` orders the tracks by the ranks of
their ends; the tracks, then the points, are written ``CHUNK`` lines at
a time. ``to_json`` writes the text of ``json.dumps(indent=2)`` without
its indenting encoder, which runs in pure Python, and builds it in
numpy. One table holds the decimal text of every integer the document
needs (from the least rotated u to the largest of the point count and
the rotated v), one NUL-padded row of ASCII bytes per integer, and it
is gathered once per field: x, y, id, u, v, and the two ends of the
segments, which are sorted by (lower id, upper id). The points split
into runs of one kind and one label presence (vertices, then
junctions, then bounds, as the scene lists them), found where the kind
code or the label presence changes. Each block of a run's rows, and of
the segments, that fills at most ``CHUNK`` lines becomes one uint8
array of rows, the template's constant bytes between the gathered
digits; one mask drops the NUL padding and the bytes are decoded as
ASCII. A labelled block's labels are filled in after, by one ``%``
call. Their bytes are pinned by the reference writers in
``tests/suites.py`` and by the output digests in
``perfbench/digests.json``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import is_not

import numpy as np

from .diagram import Diagram, rotate45
from .grid import INVISIBLE_CODE, JUNCTION_CODE, KINDS, VERTEX_CODE, GridScene


# radii in rotated grid units; CANVAS_SCALE is SVG pixels per unit
NODE_RADIUS = 0.32
JUNCTION_RADIUS = 0.11
CANVAS_SCALE = 28.0

# the most lines one chunk of a writer's output holds
CHUNK = 1 << 12


@dataclass(frozen=True)
class RenderOptions:
    bezier_offset: float = 0.5  # rotated grid units; must stay in (0, 1)
    show_invisible: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.bezier_offset < 1:
            raise ValueError("bezier offset must lie strictly between 0 and 1")


def _control_shift(code: int, delta):
    """How far a track's control point sits from its endpoint of this
    kind code: straight above the lower end, straight below the upper
    end. A junction pushes it by delta, so that all tracks through the
    junction share a vertical tangent; at a vertex or an invisible
    point the control degenerates onto the endpoint (0)."""
    return delta if code == JUNCTION_CODE else 0


def bezier_controls(s: GridScene, lo: int, hi: int, delta):
    """Rotated control points (p0, c1, c2, p3) for the track from point
    lo up to point hi of the scene.

    ``delta`` may be a float for drawing or a Fraction for exact
    checks; ``to_svg`` draws every track by the same rule.
    """
    u0, v0 = rotate45(int(s.xs[lo]), int(s.ys[lo]))
    u3, v3 = rotate45(int(s.xs[hi]), int(s.ys[hi]))
    c1 = (u0, v0 + _control_shift(s.codes[lo], delta))
    c2 = (u3, v3 - _control_shift(s.codes[hi], delta))
    return (u0, v0), c1, c2, (u3, v3)


def _formatted(values: np.ndarray, place) -> np.ndarray:
    """The ``.2f`` text of place(value) for each value, as an object
    array; each distinct value is placed and formatted once."""
    distinct, at = np.unique(values, return_inverse=True)
    texts = np.empty(len(distinct), object)
    texts[:] = list(map("{:.2f}".format, place(distinct).tolist()))
    return texts[at]


def to_svg(d: Diagram, opts: RenderOptions = RenderOptions()) -> list[str]:
    """Deterministic standalone SVG of the diagram, turned upward, as
    chunks of at most CHUNK lines; their concatenation is the document."""
    codes, labels = d.scene.codes, d.scene.labels
    us, vs = rotate45(d.scene.xs, d.scene.ys)
    # the points in drawing order, bottom to top; the columns below are
    # indexed by this rank
    vis = np.arange(len(codes)) if opts.show_invisible else np.flatnonzero(codes != INVISIBLE_CODE)
    order = vis[np.lexsort((vis, us[vis], vs[vis]))]
    u, v, order_codes = us[order], vs[order], codes[order]

    s = CANVAS_SCALE
    margin = 1.2 * s
    if len(order):
        # v ascends in drawing order
        umin, umax, vmin, vmax = int(u.min()), int(u.max()), int(v[0]), int(v[-1])
    else:
        umin = umax = vmin = vmax = 0
    width = (umax - umin) * s + 2 * margin
    height = (vmax - vmin) * s + 2 * margin

    # Each point's coordinates are formatted once per distinct value,
    # and so are the control-point y values above and below a junction
    # (those of the tracks leaving it upward and arriving from below);
    # elsewhere the control degenerates onto the point. The float64
    # arithmetic keeps the operation order of (vmax - (v +- shift)) * s
    # + margin: any other grouping can change a .2f rounding.
    def y_at(w):
        return (vmax - w) * s + margin

    xs = _formatted(u, lambda w: (w - umin) * s + margin)
    ys = _formatted(v, y_at)
    above, below = ys.copy(), ys.copy()
    junctions = np.flatnonzero(order_codes == JUNCTION_CODE)
    vj, shift = v[junctions], _control_shift(JUNCTION_CODE, opts.bezier_offset)
    above[junctions] = _formatted(vj + shift, y_at)
    below[junctions] = _formatted(vj - shift, y_at)

    chunks = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.2f}" '
        f'height="{height:.2f}" viewBox="0 0 {width:.2f} {height:.2f}">\n'
    ]

    # tracks in order of (rank of the lower end, rank of the upper end),
    # without those that have an invisible end unless these are shown
    segs = d.segments if opts.show_invisible else d.drawn_segments()
    rank = np.empty(len(codes), np.int64)
    rank[order] = np.arange(len(order))
    rank_lo, rank_hi = rank[segs[:, 0]], rank[segs[:, 1]]
    tracks = np.lexsort((rank_hi, rank_lo))
    rank_lo, rank_hi = rank_lo[tracks], rank_hi[tracks]
    for top in range(0, len(tracks), CHUNK):
        a, b = rank_lo[top : top + CHUNK], rank_hi[top : top + CHUNK]
        chunks.append(
            "".join(
                [
                    f'  <path d="M {xa} {ya} C {xa} {ca}, {xb} {cb}, {xb} {yb}" '
                    'fill="none" stroke="#222222" stroke-width="1.6"/>\n'
                    for xa, ya, ca, xb, cb, yb in zip(
                        xs[a].tolist(),
                        ys[a].tolist(),
                        above[a].tolist(),
                        xs[b].tolist(),
                        below[b].tolist(),
                        ys[b].tolist(),
                    )
                ]
            )
        )

    node_r = f"{NODE_RADIUS * s:.2f}"
    junction_r = f"{JUNCTION_RADIUS * s:.2f}"
    font_size = f"{0.3 * s:.2f}"
    # the vertex labels in drawing order, escaped only if one needs it
    texts = [labels[i] or "" for i in order[order_codes == VERTEX_CODE].tolist()]
    joined = "".join(texts)
    if "&" in joined or "<" in joined or ">" in joined or not joined.isprintable():
        texts = list(map(_esc, texts))
    text = iter(texts)
    step = CHUNK // 2  # a vertex takes two lines
    for top in range(0, len(order), step):
        block = slice(top, top + step)
        lines = []
        cxs, cys = xs[block].tolist(), ys[block].tolist()
        for code, cx, cy in zip(order_codes[block].tolist(), cxs, cys):
            if code == VERTEX_CODE:
                lines.append(
                    f'  <circle cx="{cx}" cy="{cy}" r="{node_r}" '
                    'fill="#ffffff" stroke="#222222" stroke-width="1.6"/>\n'
                    f'  <text x="{cx}" y="{cy}" dy="0.34em" text-anchor="middle" '
                    'font-family="Helvetica,sans-serif" '
                    f'font-size="{font_size}">{next(text)}</text>\n'
                )
            elif code == JUNCTION_CODE:
                lines.append(f'  <circle cx="{cx}" cy="{cy}" r="{junction_r}" fill="#222222"/>\n')
            else:
                lines.append(
                    f'  <circle cx="{cx}" cy="{cy}" r="{junction_r}" '
                    'fill="none" stroke="#999999" stroke-width="1.0" stroke-dasharray="2,2"/>\n'
                )
        chunks.append("".join(lines))
    chunks.append("</svg>\n")
    return chunks


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
# (the first %s); the second %s is the label line or nothing. Each %d
# is one integer field.
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


def _node_template(code: int, labelled: bool) -> str:
    """_NODE for one kind code, with a label field (its %s left to fill) or none."""
    return _NODE.replace("%s", encode_basestring_ascii(KINDS[code]), 1).replace(
        "%s", _LABEL if labelled else "", 1
    )


def _json_list(blocks: list[str]) -> list[str]:
    """The chunks of a JSON list whose element texts come in blocks,
    each element followed by ",\n"."""
    if not blocks:
        return ["[]"]
    blocks[-1] = blocks[-1][:-2]  # no separator after the last element
    return ["[\n", *blocks, "\n  ]"]


def _rows_per_chunk(template: str) -> int:
    """How many rows of the template, each followed by ",\n", fill at
    most CHUNK lines."""
    return max(1, CHUNK // (template.count("\n") + 1))


def _digit_table(lo: int, hi: int) -> np.ndarray:
    """Row i holds the decimal text of lo + i, as str gives it, in ASCII
    bytes, left-aligned and padded with NUL bytes to the longest text."""
    table = np.zeros((hi - lo + 1, max(len(str(lo)), len(str(hi)))), np.uint8)
    for k in range(1, len(str(max(-lo, hi))) + 1):
        least = 10 ** (k - 1) if k > 1 else 0
        # the values whose magnitude has k digits: one block of rows per
        # sign, the negative one shifted right by its "-"
        for first, last, sign in ((least, 10**k - 1, 0), (1 - 10**k, -max(least, 1), 1)):
            first, last = max(first, lo), min(last, hi)
            if first <= last:
                block = table[first - lo : last - lo + 1]
                magnitude = np.abs(np.arange(first, last + 1))
                for j in range(k):
                    # a scalar divisor: numpy divides by it without a
                    # hardware division per element
                    block[:, sign + j] = magnitude // 10 ** (k - 1 - j) % 10 + ord("0")
                block[:, :sign] = ord("-")
    return table


def _joined_rows(template: str, fields: list[np.ndarray]) -> str:
    """The template once per row, its k-th %d replaced by that row of
    fields[k] (NUL-padded ASCII digits), each row followed by ",\n".

    The rows are laid out side by side in one uint8 array, the template's
    constant bytes between the fields, and one ``bytes.replace`` of its
    buffer then drops every NUL. That is sound only because the text
    holds no NUL byte of its own: the template's constants contain none,
    and the labels filled in afterwards are escaped by
    encode_basestring_ascii, which writes NUL as \u0000.
    """
    constants = template.split("%d")
    widths = [field.shape[1] for field in fields]
    row = "".join(c + "\0" * w for c, w in zip(constants, [*widths, 0])) + ",\n"
    rows = np.tile(np.frombuffer(row.encode("ascii"), np.uint8), (len(fields[0]), 1))
    at = 0
    for constant, field, width in zip(constants, fields, widths):
        at += len(constant)
        rows[:, at : at + width] = field
        at += width
    return str(rows.tobytes().replace(b"\0", b""), "ascii")


def to_json(d: Diagram) -> list[str]:
    """Machine-readable layout with both grid and rotated coordinates,
    as chunks of at most CHUNK lines; their concatenation is the
    document."""
    s = d.scene
    us, vs = rotate45(s.xs, s.ys)
    ids = np.arange(len(s.xs))
    # the segments sorted by (lower id, upper id), the ids being < len(s.xs)
    segs = d.segments[np.argsort(d.segments[:, 0] * len(s.xs) + d.segments[:, 1])]
    node_blocks = []
    segment_blocks = []
    if len(s.xs):
        # every integer of the document is one row of this table
        lo = min(0, int(s.xs.min()), int(s.ys.min()), int(us.min()))
        hi = max(len(s.xs) - 1, int(s.xs.max()), int(s.ys.max()), int(vs.max()))
        table = _digit_table(lo, hi)

        def digits(column: np.ndarray) -> np.ndarray:
            """The column's texts, as wide as the widest of them."""
            width = max(len(str(column.min())), len(str(column.max())))
            return np.take(table, column - lo, axis=0)[:, :width]

        nodes = [digits(column) for column in (s.xs, s.ys, ids, us, vs)]
        # one template per run of points with the same kind and label
        # presence, filled a bounded block of rows at a time; the labels
        # are filled in by one % call per block, whose only % are the
        # label fields: the digits and the other template bytes hold none
        labelled = np.fromiter(map(is_not, s.labels, repeat(None)), bool, len(s.xs))
        key = s.codes * 2 + labelled
        bounds = [0, *(np.flatnonzero(np.diff(key)) + 1).tolist(), len(s.xs)]
        for start, stop in zip(bounds, bounds[1:]):
            has_label = bool(labelled[start])
            template = _node_template(s.codes[start], has_label)
            step = _rows_per_chunk(template)
            for top in range(start, stop, step):
                block = slice(top, min(top + step, stop))
                text = _joined_rows(template, [field[block] for field in nodes])
                if has_label:
                    text %= tuple(map(encode_basestring_ascii, s.labels[block]))
                node_blocks.append(text)
        if len(segs):
            ends = [digits(segs[:, 0]), digits(segs[:, 1])]
            step = _rows_per_chunk(_SEGMENT)
            for top in range(0, len(segs), step):
                block = [end[top : top + step] for end in ends]
                segment_blocks.append(_joined_rows(_SEGMENT, block))
    return [
        _HEAD % s.n,
        *_json_list(node_blocks),
        _MIDDLE,
        *_json_list(segment_blocks),
        _TAIL % (s.side, d.junction_count(), len(d.segments)),
    ]
