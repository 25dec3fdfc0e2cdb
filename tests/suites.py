"""Deterministic instance suites shared between module and acceptance tests."""

from __future__ import annotations

import json
import random
from collections import deque

import numpy as np

from confluent_hasse import (
    Diagram,
    GridPoint,
    GridScene,
    Poset,
    RenderOptions,
    SpLeaf,
    SpParallel,
    SpSeries,
    dm_completion,
    gen_random,
    rotate45,
    transitive_reduction,
)
from confluent_hasse.grid import INVISIBLE, JUNCTION, VERTEX
from confluent_hasse.render import CANVAS_SCALE, JUNCTION_RADIUS, NODE_RADIUS
from confluent_hasse.sp import SpTree


def random_realizer_suite(count: int = 200, max_n: int = 9):
    """``count`` seeded random realizers with n cycling over 0..max_n."""
    return [gen_random(i % (max_n + 1), i) for i in range(count)]


def all_sp_trees(max_leaves: int = 6) -> list[SpTree]:
    """Every series-parallel tree shape/labelling with up to ``max_leaves``
    leaves, labelled a, b, c, ... left to right."""
    alphabet = "abcdefghij"

    def shapes(k: int) -> list:
        # shape: None for a leaf, (kind, left, right) otherwise
        if k == 1:
            return [None]
        out = []
        for split in range(1, k):
            for left in shapes(split):
                for right in shapes(k - split):
                    out.append(("s", left, right))
                    out.append(("p", left, right))
        return out

    def realize(shape, counter: list[int]) -> SpTree:
        if shape is None:
            label = alphabet[counter[0]]
            counter[0] += 1
            return SpLeaf(label)
        kind, left, right = shape
        l = realize(left, counter)
        r = realize(right, counter)
        return SpSeries(l, r) if kind == "s" else SpParallel(l, r)

    trees = []
    for k in range(1, max_leaves + 1):
        for shape in shapes(k):
            trees.append(realize(shape, [0]))
    return trees


def of_kind(s: GridScene, kind: str) -> list[GridPoint]:
    """The scene's points of one kind, in id order."""
    return [p for p in s.points if p.kind == kind]


def vertex_dominance_poset(s: GridScene) -> Poset:
    """Dominance order restricted to the scene's vertices (a <= b iff
    both coordinates of a are <= those of b)."""
    verts = of_kind(s, VERTEX)
    xs = np.array([v.x for v in verts])
    ys = np.array([v.y for v in verts])
    leq = (xs[:, None] <= xs[None, :]) & (ys[:, None] <= ys[None, :])
    return Poset([v.label for v in verts], leq)


def random_poset(n: int, seed: int, density: float = 0.3) -> Poset:
    """Random poset: sample pairs consistent with the index order, close."""
    rng = random.Random(seed)
    labels = [f"x{i}" for i in range(n)]
    mat = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                mat[i, j] = True
    # transitive closure
    for k in range(n):
        mat |= np.outer(mat[:, k], mat[k, :])
    return Poset(labels, mat)


def forced_smooth_pairs(p: Poset) -> frozenset[tuple[str, str]]:
    """Element pairs that are smooth in every valid confluent drawing of p.

    Built from the completion oracle alone: the cuts, ordered by
    containment of their lower sets, form the smallest complete lattice
    containing p. From each principal cut (the down-set of one element)
    follow cover pairs upward, passing only through non-principal
    (added) cuts; every principal cut reached that way gives a pair.
    The README ("Known semantic limit") shows why each such pair is
    smooth in every planar drawing with visible extremes.
    """
    completion = dm_completion(p)
    lattice = completion.poset
    element_at = {completion.element_cut_index(label): label for label in p.labels}
    above: dict[int, list[int]] = {}
    for lo, hi in transitive_reduction(lattice):
        above.setdefault(lattice.index(lo), []).append(lattice.index(hi))
    forced: set[tuple[str, str]] = set()
    for start, label in element_at.items():
        stack = list(above.get(start, ()))
        seen: set[int] = set()
        while stack:
            cut = stack.pop()
            if cut in seen:
                continue
            seen.add(cut)
            if cut in element_at:
                forced.add((label, element_at[cut]))
            else:
                stack.extend(above.get(cut, ()))
    return frozenset(forced)


def reference_orientation(p: Poset) -> list[int] | None:
    """The per-bit forcing loop that ``realizer._forced_orientation``
    must match exactly: successor bitmasks of the orientation, or None.

    Every pop walks every bit of ``shared_tail`` and ``shared_head``,
    which is slow but plainly the textbook procedure. Test-only; the
    package never imports it.
    """
    n = p.n
    rem = []  # adjacency of the not-yet-oriented incomparability graph
    for i in range(n):
        mask = 0
        for j in range(n):
            if i != j and not p.leq[i, j] and not p.leq[j, i]:
                mask |= 1 << j
        rem.append(mask)

    succ = [0] * n  # chosen orientation, as successor bitmasks

    for a in range(n):
        for b in range(n):
            if not (rem[a] >> b) & 1:
                continue
            # start a new implication class at a -> b
            cls: list[tuple[int, int]] = []
            succ[a] |= 1 << b
            cls.append((a, b))
            queue = deque([(a, b)])
            while queue:
                u, v = queue.popleft()
                shared_tail = rem[u] & ~rem[v] & ~(1 << v)
                for w in _bits(shared_tail):
                    # orienting u->v forces u->w (w incomparable to u,
                    # comparable to v)
                    if (succ[w] >> u) & 1:
                        return None
                    if not (succ[u] >> w) & 1:
                        succ[u] |= 1 << w
                        cls.append((u, w))
                        queue.append((u, w))
                shared_head = rem[v] & ~rem[u] & ~(1 << u)
                for w in _bits(shared_head):
                    # orienting u->v forces w->v (w incomparable to v,
                    # comparable to u)
                    if (succ[v] >> w) & 1:
                        return None
                    if not (succ[w] >> v) & 1:
                        succ[w] |= 1 << v
                        cls.append((w, v))
                        queue.append((w, v))
            # the class is fully oriented; retire its edges
            for u, v in cls:
                rem[u] &= ~(1 << v)
                rem[v] &= ~(1 << u)
    return succ


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reference_to_json(d: Diagram) -> str:
    """The dict document plus ``json.dumps(sort_keys=True, indent=2)``
    that ``render.to_json`` must match byte for byte. Test-only; the
    package never imports it."""
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


def _reference_bezier_controls(lo: GridPoint, hi: GridPoint, delta):
    p0 = lo.rot
    p3 = hi.rot
    c1 = (p0[0], p0[1] + delta) if lo.kind == JUNCTION else p0
    c2 = (p3[0], p3[1] - delta) if hi.kind == JUNCTION else p3
    return p0, c1, c2, p3


def reference_to_svg(d: Diagram, opts: RenderOptions = RenderOptions()) -> str:
    """The per-segment writer that ``render.to_svg`` must match byte for
    byte: it formats all eight coordinates of every track and sorts
    tracks by a 6-tuple key. Test-only; the package never imports it."""
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
        p0, c1, c2, p3 = _reference_bezier_controls(points[lo], points[hi], opts.bezier_offset)
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
                f'font-family="Helvetica,sans-serif" font-size="{0.3 * s:.2f}">{_reference_esc(p.label or "")}</text>'
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


def _reference_esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
