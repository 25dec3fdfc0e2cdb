"""Deterministic instance suites shared between module and acceptance tests."""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

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
    gen_random,
    scene_matches_completion,
    transitive_reduction,
    validate_diagram,
)
from confluent_hasse.diagram import CheckResult, Segment, ValidationReport
from confluent_hasse.grid import INVISIBLE, JUNCTION, KINDS, VERTEX, bound_points
from confluent_hasse.oracle import DuplicatePointError
from confluent_hasse.poset import Extremes, _masks_of_rows, bits, masks_to_rows
from confluent_hasse.render import CANVAS_SCALE, JUNCTION_RADIUS, NODE_RADIUS
from confluent_hasse.sp import (
    PARALLEL,
    SERIES,
    DuplicateLeafError,
    SpSyntaxError,
    SpTree,
    _tree,
)


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


def sp_text(t: SpTree, sep: str = " ", all_parens: bool = False) -> str:
    """An expression for the tree: with the fewest parentheses the
    grammar allows (';' binds less tightly than '|', both associate to
    the left), or with every composition in parentheses. ``sep`` goes
    around each operator. Iterative, so deep trees are fine."""
    # context of a child: 0 where a series may stand bare, 1 where only
    # a parallel may, 2 where neither may
    out: list[str] = []
    stack: list[tuple[object, int]] = [(t, 0)]
    while stack:
        node, ctx = stack.pop()
        if isinstance(node, str):
            out.append(node)
            continue
        if isinstance(node, SpLeaf):
            out.append(node.label)
            continue
        series = isinstance(node, SpSeries)
        wrap = all_parens or (ctx >= 1 if series else ctx == 2)
        if wrap:
            stack.append((")", 0))
        stack.append((node.right, 1 if series else 2))
        stack.append((sep + (";" if series else "|") + sep, 0))
        stack.append((node.left, 0 if series else 1))
        if wrap:
            stack.append(("(", 0))
    return "".join(out)


def sp_preorder(t: SpTree) -> list[tuple[str, str | None]]:
    """(node type, leaf label) in preorder: equal exactly for equal
    trees, and iterative where ``==`` on deep trees recurses."""
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, SpLeaf):
            out.append(("leaf", node.label))
        else:
            out.append((type(node).__name__, None))
            stack.append(node.right)
            stack.append(node.left)
    return out


def scene_of(n: int, points) -> GridScene:
    """The scene on the (2n+1)-sided grid of explicit points (kind, x,
    y) or (kind, x, y, label), in id order."""
    points = [(*p, None) if len(p) == 3 else p for p in points]
    kinds, xs, ys, labels = zip(*points) if points else ((), (), (), ())
    return GridScene(n, xs, ys, [KINDS.index(kind) for kind in kinds], labels)


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
    return poset_of_matrix([v.label for v in verts], leq)


def poset_of_matrix(labels: Sequence[str], leq: np.ndarray) -> Poset:
    """The poset of an n x n bool matrix, ``leq[i, j]`` when element i
    <= element j: the rows packed as its up-set masks and the columns
    as its down-set masks. The matrix must be transitive; the
    constructor rejects a wrong shape, a missing diagonal entry and a
    cycle."""
    mat = np.asarray(leq, dtype=bool)
    return Poset(labels, _masks_of_rows(mat), _masks_of_rows(mat.T))


def leq_of(p: Poset) -> np.ndarray:
    """The order as an n x n bool matrix: ``leq[i, j]`` holds exactly
    when element i <= element j."""
    return masks_to_rows(p.up, p.n)


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
    return poset_of_matrix(labels, mat)


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
    element_at = {element_cut_index(completion, label): label for label in p.labels}
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


def reference_transitive_closure(mat: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of a boolean relation, in place."""
    n = mat.shape[0]
    np.fill_diagonal(mat, True)
    for k in range(n):
        mat |= np.outer(mat[:, k], mat[k, :])
    return mat


def reference_orientation(p: Poset) -> list[int] | None:
    """The per-bit forcing loop that ``realizer._forced_orientation``
    must match exactly: successor bitmasks of the orientation, or None.

    Every pop walks every bit of ``shared_tail`` and ``shared_head``,
    which is slow but plainly the textbook procedure. Test-only; the
    package never imports it.
    """
    n = p.n
    leq = leq_of(p)
    rem = []  # adjacency of the not-yet-oriented incomparability graph
    for i in range(n):
        mask = 0
        for j in range(n):
            if i != j and not leq[i, j] and not leq[j, i]:
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
                for w in bits(shared_tail):
                    # orienting u->v forces u->w (w incomparable to u,
                    # comparable to v)
                    if (succ[w] >> u) & 1:
                        return None
                    if not (succ[u] >> w) & 1:
                        succ[u] |= 1 << w
                        cls.append((u, w))
                        queue.append((u, w))
                shared_head = rem[v] & ~rem[u] & ~(1 << u)
                for w in bits(shared_head):
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
            "rot": [p.x - p.y, p.x + p.y],
        }
        if p.label is not None:
            node["label"] = p.label
        nodes.append(node)
    doc = {
        "n": d.scene.n,
        "nodes": nodes,
        "segments": [{"from": lo, "to": hi} for lo, hi in sorted(d.segments.tolist())],
        "stats": {
            "junctions": d.junction_count(),
            "segments": len(d.segments),
            "gridSide": d.scene.side,
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _reference_bezier_controls(lo: GridPoint, hi: GridPoint, delta):
    p0 = (lo.x - lo.y, lo.x + lo.y)
    p3 = (hi.x - hi.y, hi.x + hi.y)
    c1 = (p0[0], p0[1] + delta) if lo.kind == JUNCTION else p0
    c2 = (p3[0], p3[1] - delta) if hi.kind == JUNCTION else p3
    return p0, c1, c2, p3


def reference_to_svg(d: Diagram, opts: RenderOptions = RenderOptions()) -> str:
    """The per-segment writer that ``render.to_svg`` must match byte for
    byte: it formats all eight coordinates of every track and sorts
    tracks by a 6-tuple key. Test-only; the package never imports it."""
    points = d.scene.points
    rot = [(p.x - p.y, p.x + p.y) for p in points]
    if opts.show_invisible:
        vis_ids = range(len(points))
        vis_segs = d.segments.tolist()
    else:
        vis_ids = [i for i, p in enumerate(points) if p.kind != INVISIBLE]
        vis_segs = d.drawn_segments().tolist()

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


def reference_insert_junctions(s: GridScene) -> GridScene:
    """The double loop over every odd cell that ``grid.insert_junctions``
    replaced, verbatim: its scene, points in order, must be the same.
    Test-only."""
    n = s.n
    side = 2 * n + 1
    ycol = [0] * (side + 1)
    xrow = [0] * (side + 1)
    for p in s.points:
        if p.kind == VERTEX:
            ycol[p.x] = p.y
            xrow[p.y] = p.x

    points = [(p.kind, p.x, p.y, p.label) for p in s.points]
    for i in range(3, side - 1, 2):
        below = ycol[i - 1]
        above = ycol[i + 1]
        i_lo = i - 1
        i_hi = i + 1
        for j in range(3, side - 1, 2):
            if (
                below < j - 1
                and above > j + 1
                and xrow[j - 1] < i_lo
                and xrow[j + 1] > i_hi
            ):
                points.append((JUNCTION, i, j))

    has_least = n >= 1 and ycol[2] == 2
    has_greatest = n >= 1 and ycol[2 * n] == 2 * n
    cells, _, _ = bound_points(n, len(points), has_least, has_greatest)
    return scene_of(n, points + [(INVISIBLE, c, c) for c in cells])


def reference_sweep_cover_edges(s: GridScene) -> Diagram:
    """Generate all direct dominance pairs among the scene's points.

    Sweeps rows 1..2n+1 upward; within a row, walks columns left to
    right keeping (a) per column, the topmost point seen so far, and
    (b) a stack of those tops with strictly decreasing rows, i.e. the
    staircase of dominance-maximal points below-left of the cursor.
    Runs in O(grid cells + segments). The grid-cell sweep that
    ``diagram.sweep_cover_edges`` replaced, verbatim: its segments, in
    order, must be the same. Test-only.
    """
    side = 2 * s.n + 1
    t_row = [0] * (side + 1)
    t_id = [-1] * (side + 1)
    rows: list[list[tuple[int, int]]] = [[] for _ in range(side + 1)]
    for pid, p in enumerate(s.points):
        rows[p.y].append((p.x, pid))
    segments: list[Segment] = []
    emit = segments.append

    for r in range(1, side + 1):
        events = rows[r]
        if not events:
            continue
        events.sort()
        stack_rows: list[int] = []
        stack_ids: list[int] = []
        prev = 0
        for c, pid in events:
            # fold columns (prev, c] into the staircase: their tops,
            # keeping only suffix maxima by row
            best = 0
            add_rows: list[int] = []
            add_ids: list[int] = []
            cc = c
            while cc > prev:
                tr = t_row[cc]
                if tr > best:
                    best = tr
                    add_rows.append(tr)
                    add_ids.append(t_id[cc])
                cc -= 1
            while stack_rows and stack_rows[-1] <= best:
                stack_rows.pop()
                stack_ids.pop()
            stack_rows.extend(reversed(add_rows))
            stack_ids.extend(reversed(add_ids))
            for q in stack_ids:
                emit((q, pid))
            # the new point dominates the whole staircase; restart from it
            t_row[c] = r
            t_id[c] = pid
            stack_rows = [r]
            stack_ids = [pid]
            prev = c
    return Diagram(s, segments)


def reference_smooth_adjacency(d: Diagram) -> frozenset[tuple[str, str]]:
    """One DFS per vertex: the smooth pairs ``diagram.smooth_adjacency``
    must match exactly, on any segment list. Test-only; the package
    never imports it."""
    out: dict[int, list[int]] = {}
    for lo, hi in d.segments.tolist():
        out.setdefault(lo, []).append(hi)
    points = d.scene.points
    result: set[tuple[str, str]] = set()
    for sid, start in enumerate(points):
        if start.kind != VERTEX:
            continue
        stack = list(out.get(sid, ()))
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            target = points[node]
            if target.kind == VERTEX:
                result.add((start.label, target.label))
            elif target.kind == JUNCTION:
                stack.extend(out.get(node, ()))
            # invisibles: dead end
    return frozenset(result)


def reference_planar_conflicts(d: Diagram) -> int:
    """The box loop over every pair of drawn segments whose boxes
    overlap, in (x0, y0, x1, y1, lo, hi) order, asking
    ``segments_conflict`` of each. Test-only."""
    points = d.scene.points
    coords_of = [(q.x, q.y) for q in points]
    conflicts = 0
    boxes = []
    for lo, hi in d.drawn_segments().tolist():
        (x1, y1), (x2, y2) = coords_of[lo], coords_of[hi]
        boxes.append((min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2), lo, hi))
    boxes.sort()
    for i, (x0, y0, x1, y1, a1, b1) in enumerate(boxes):
        for j in range(i + 1, len(boxes)):
            # sorted by left edge: once a box starts past x1, the rest do too
            u0, v0, u1, v1, a2, b2 = boxes[j]
            if u0 > x1:
                break
            if v1 < y0 or y1 < v0:
                continue
            # pairs sharing an endpoint are fine unless they overlap
            # beyond it, which segments_conflict still flags
            if segments_conflict(coords_of[a1], coords_of[b1], coords_of[a2], coords_of[b2]):
                conflicts += 1
    return conflicts


def reference_transitive_reduction(p: Poset) -> frozenset[tuple[str, str]]:
    """Cover pairs (lower, upper): the strict pairs that no path of
    length two joins, from one float32 matrix product over the strict
    order. The cubic product that ``poset.transitive_reduction``
    replaced with a walk over its bitsets; test-only."""
    strict = leq_of(p) & ~np.eye(p.n, dtype=bool)
    # counts paths of length two through the strict order; the counts
    # are at most n, and float32 holds every integer below 2**24 exactly
    assert p.n < 1 << 24
    two_step = strict.astype(np.float32) @ strict.astype(np.float32)
    covers = np.argwhere(strict & (two_step == 0)).tolist()
    return frozenset((p.labels[a], p.labels[b]) for a, b in covers)


def reference_extremes(p: Poset) -> Extremes:
    """One loop over the elements per query: the minimal, maximal,
    least and greatest elements ``poset.extremes`` must match.
    Test-only."""
    leq = leq_of(p)
    strict = leq & ~np.eye(p.n, dtype=bool)
    minimal = frozenset(p.labels[i] for i in range(p.n) if not strict[:, i].any())
    maximal = frozenset(p.labels[i] for i in range(p.n) if not strict[i, :].any())
    least = greatest = None
    for i in range(p.n):
        if leq[i, :].all():
            least = p.labels[i]
        if leq[:, i].all():
            greatest = p.labels[i]
    return Extremes(minimal, maximal, least, greatest)


def reference_blocked_rays(d: Diagram, p: Poset) -> list[tuple[str, str]]:
    """Every extreme vertex against every drawn segment, in segment
    order, "below" tested before "above". Test-only."""
    rot = [(q.x - q.y, q.x + q.y) for q in d.scene.points]
    ext = reference_extremes(p)
    verts = {q.label: pid for pid, q in enumerate(d.scene.points) if q.kind == VERTEX}
    rendered_rot = [(rot[lo], rot[hi]) for lo, hi in d.drawn_segments().tolist()]
    blocked = []
    for label in sorted(ext.minimal | ext.maximal):
        u0, v0 = rot[verts[label]]
        down = label in ext.minimal
        up = label in ext.maximal
        for a, b in rendered_rot:
            if down and vertical_ray_hits_segment(u0, v0, True, a, b):
                blocked.append((label, "below"))
                break
            if up and vertical_ray_hits_segment(u0, v0, False, a, b):
                blocked.append((label, "above"))
                break
    return blocked


def reference_dominance_covers(
    points: Sequence[tuple[int, int]]
) -> frozenset[tuple[tuple[int, int], tuple[int, int]]]:
    """Cover pairs of the dominance order on grid points.

    p dominates q iff both coordinates of p are >= those of q and
    p != q. Returns (q, p) pairs with nothing strictly between, found
    by checking every candidate intermediate point.

    The cubic float32 product that ``oracle.dominance_covers`` replaced
    with a row-wise staircase; test-only.
    """
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise DuplicatePointError("points must occupy distinct grid cells")
    if not pts:
        return frozenset()
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    dom = (xs[:, None] <= xs[None, :]) & (ys[:, None] <= ys[None, :])
    strict = dom & ~np.eye(len(pts), dtype=bool)
    # the count of points strictly between is exact in float32 while it
    # stays below 2**24
    assert len(pts) < 1 << 24
    two_step = strict.astype(np.float32) @ strict.astype(np.float32)
    covers = strict & (two_step == 0)
    return frozenset((pts[a], pts[b]) for a, b in np.argwhere(covers).tolist())


def reference_segment_faults(
    points: Sequence[tuple[int, int]], rows: Sequence[tuple[int, int]]
) -> tuple[int, int, int]:
    """``oracle.segment_faults`` by brute force: the rows (q, p) that do
    not rise or name no point; then, over the rows that rise, the points
    p with two lower ends q that are comparable, equal or share a column
    or a row, checked pair by pair; and the other points p with a point
    r <= p, besides p itself, below none of p's lower ends, counted by
    one numpy pass per point over all the points. Test-only."""
    n = len(points)
    not_rising = 0
    lower_ends: dict[int, list[tuple[int, int]]] = {}
    for q, p in rows:
        if not (0 <= q < n and 0 <= p < n):
            not_rising += 1
            continue
        (a, b), (c, e) = points[q], points[p]
        if a <= c and b <= e and (a, b) != (c, e):
            lower_ends.setdefault(p, []).append((a, b))
        else:
            not_rising += 1
    xs = np.array([x for x, _ in points], np.int64)
    ys = np.array([y for _, y in points], np.int64)
    not_staircase = not_alone = 0
    for p in range(n):
        ends = lower_ends.get(p, [])
        if any(
            not (a < c and b > e or a > c and b < e)
            for i, (a, b) in enumerate(ends)
            for c, e in ends[i + 1 :]
        ):
            not_staircase += 1
            continue
        x, y = points[p]
        alone = (xs <= x) & (ys <= y)
        for a, b in ends:
            alone &= ~((xs <= a) & (ys <= b))
        not_alone += int(alone.sum()) != 1
    return not_rising, not_staircase, not_alone


def reference_validate_diagram(d: Diagram, p: Poset) -> ValidationReport:
    """``diagram.validate_diagram`` built from the reference loops above:
    its report must be the same, byte for byte. Test-only."""
    report = ValidationReport()
    points = d.scene.points

    faults = reference_segment_faults([(q.x, q.y) for q in points], d.segments.tolist())
    detail = []
    if faults[0]:
        detail.append(f"{faults[0]} rows not rising")
    if faults[1]:
        detail.append(f"{faults[1]} points whose lower ends are not a staircase")
    if faults[2]:
        detail.append(f"{faults[2]} points not alone")
    report.add("segments", not any(faults), ", ".join(detail))

    # the vertex labels must be p's, each once, or smooth fails naming
    # the difference and visibility is skipped
    vertex_labels = [q.label for q in points if q.kind == VERTEX]
    scene_only = list(vertex_labels)
    for label in p.labels:
        if label in scene_only:
            scene_only.remove(label)
    order_only = [label for label in p.labels if label not in vertex_labels]
    mismatch = bool(scene_only or order_only)
    if mismatch:
        report.add(
            "smooth",
            False,
            "vertex labels differ from the order's: "
            f"scene only {sorted(scene_only, key=str)}, order only {sorted(order_only)}",
        )
    else:
        smooth = reference_smooth_adjacency(d)
        covers = reference_transitive_reduction(p)
        report.add(
            "smooth",
            smooth == covers,
            "" if smooth == covers else f"smooth {len(smooth)} pairs vs covers {len(covers)}",
        )

    conflicts = reference_planar_conflicts(d)
    report.add("planar", conflicts == 0, f"{conflicts} crossing pairs" if conflicts else "")

    indeg: dict[int, int] = {}
    outdeg: dict[int, int] = {}
    for lo, hi in d.segments.tolist():
        outdeg[lo] = outdeg.get(lo, 0) + 1
        indeg[hi] = indeg.get(hi, 0) + 1
    bad_junctions = [
        qid
        for qid, q in enumerate(points)
        if q.kind == JUNCTION and (indeg.get(qid, 0) < 2 or outdeg.get(qid, 0) < 2)
    ]
    report.add(
        "degrees",
        not bad_junctions,
        f"junctions with degree < 2: {bad_junctions}" if bad_junctions else "",
    )

    if mismatch:
        report.skip("visibility", "vertex labels differ from the order's")
        return report
    blocked = reference_blocked_rays(d, p)
    report.add(
        "visibility",
        not blocked,
        f"obstructed rays: {blocked}" if blocked else "",
    )
    return report


# --- test-only geometry on integer coordinates, no floating point: the
# exact segment predicate of the reference planarity loop, the hull
# oracle of criterion 11 and the ray test of the reference visibility loop

Point = tuple[int, int]


def _cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def point_on_segment(p: Point, a: Point, b: Point) -> bool:
    """True iff p lies on the closed segment ab."""
    if _cross(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def segments_conflict(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff closed segments ab and cd intersect anywhere except at
    an endpoint they share.

    Crossing interiors, touching an interior point with an endpoint,
    and collinear overlap beyond a shared endpoint all count as
    conflicts; meeting exactly at a common endpoint does not.
    """
    shared = {a, b} & {c, d}

    o1 = _cross(a, b, c)
    o2 = _cross(a, b, d)
    o3 = _cross(c, d, a)
    o4 = _cross(c, d, b)

    if o1 == o2 == o3 == o4 == 0:
        # collinear: project on the dominant axis and intersect intervals
        axis = 0 if max(a[0], b[0], c[0], d[0]) != min(a[0], b[0], c[0], d[0]) else 1
        lo1, hi1 = sorted((a[axis], b[axis]))
        lo2, hi2 = sorted((c[axis], d[axis]))
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return False
        if lo == hi:
            # single touching point; fine only if it is a shared endpoint
            touch = a if a[axis] == lo else b
            return touch not in shared
        return True

    if o1 * o2 < 0 and o3 * o4 < 0:
        return True  # proper crossing

    # endpoint-on-segment touches
    for p, (u, v) in ((c, (a, b)), (d, (a, b)), (a, (c, d)), (b, (c, d))):
        if point_on_segment(p, u, v) and p not in shared:
            return True
    return False


def convex_hull(points: list[Point]) -> list[Point]:
    """Andrew's monotone chain; returns hull vertices counterclockwise.
    Degenerate inputs give a point or a segment."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _point_in_hull(p: Point, hull: list[Point]) -> bool:
    """Closed containment: boundary counts as inside."""
    if len(hull) == 1:
        return p == hull[0]
    if len(hull) == 2:
        return point_on_segment(p, hull[0], hull[1])
    for i in range(len(hull)):
        if _cross(hull[i], hull[(i + 1) % len(hull)], p) < 0:
            return False
    return True


def _hull_edges(hull: list[Point]) -> list[tuple[Point, Point]]:
    if len(hull) == 1:
        return []
    if len(hull) == 2:
        return [(hull[0], hull[1])]
    return [(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))]


def hulls_intersect(pts_a: list[Point], pts_b: list[Point]) -> bool:
    """True iff the convex hulls of the two point sets share any point
    (touching counts)."""
    ha = convex_hull(pts_a)
    hb = convex_hull(pts_b)
    if any(_point_in_hull(p, hb) for p in ha):
        return True
    if any(_point_in_hull(p, ha) for p in hb):
        return True
    # two closed edges touch iff they conflict or share an endpoint
    for ea in _hull_edges(ha):
        for eb in _hull_edges(hb):
            if segments_conflict(*ea, *eb) or set(ea) & set(eb):
                return True
    return False


def vertical_ray_hits_segment(
    u0: int, v0: int, downward: bool, a: Point, b: Point
) -> bool:
    """Does the open vertical ray from (u0, v0) hit closed segment ab?

    The ray excludes its apex: downward means all points (u0, v) with
    v < v0, upward all points with v > v0.
    """
    (u1, v1), (u2, v2) = a, b
    if max(u1, u2) < u0 or min(u1, u2) > u0:
        return False
    if u1 == u2:
        if u1 != u0:
            return False
        return min(v1, v2) < v0 if downward else max(v1, v2) > v0
    # single crossing of the vertical line u = u0
    den = u2 - u1
    num = v1 * den + (v2 - v1) * (u0 - u1)  # = v_at_u0 * den
    if downward:
        return num < v0 * den if den > 0 else num > v0 * den
    return num > v0 * den if den > 0 else num < v0 * den


# --- the series-parallel front end before the one-pass rewrite, verbatim
# but for names: parse_sp, _tokenize, sp_layout and _Chain, with the
# _postorder walk and sp_leaves they use. The rewrite must give the same trees,
# errors, points and segments. The parser joins its operands unchecked,
# because the tree constructors now reject a repeated leaf, which this
# parser reports only after the whole text.

_REFERENCE_PUNCT = {";", "|", "(", ")"}


def _reference_tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _REFERENCE_PUNCT:
            tokens.append((ch, i))
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in _REFERENCE_PUNCT:
                j += 1
            tokens.append((text[i:j], i))
            i = j
    return tokens


_REFERENCE_PRECEDENCE = {";": 1, "|": 2}


def reference_parse_sp(text: str) -> SpTree:
    tokens = _reference_tokenize(text)
    if not tokens:
        raise SpSyntaxError("empty expression", 0)
    operands: list[SpTree] = []
    ops: list[str] = []  # pending ';' and '|', and '(' for each open group

    def reduce() -> None:
        right_labels, right_ops = operands.pop().postorder()
        left_labels, left_ops = operands.pop().postorder()
        op = SERIES if ops.pop() == ";" else PARALLEL
        operands.append(_tree(left_labels + right_labels, left_ops + right_ops + bytes((op,))))

    want_operand = True
    for tok, at in tokens + [("", len(text))]:
        if want_operand:
            if tok == "(":
                ops.append(tok)
            elif tok and tok not in _REFERENCE_PUNCT:
                operands.append(SpLeaf(tok))
                want_operand = False
            else:
                found = f", found {tok!r}" if tok else ""
                raise SpSyntaxError(f"expected element name or '('{found}", at)
        elif tok in _REFERENCE_PRECEDENCE:
            while (
                ops
                and ops[-1] != "("
                and _REFERENCE_PRECEDENCE[ops[-1]] >= _REFERENCE_PRECEDENCE[tok]
            ):
                reduce()
            ops.append(tok)
            want_operand = True
        else:
            # an operand ends here: the innermost open group must close,
            # or the whole expression must end
            while ops and ops[-1] != "(":
                reduce()
            if tok == ")" and ops:
                ops.pop()
            elif ops:
                found = f", found {tok!r}" if tok else ""
                raise SpSyntaxError(f"expected ')'{found}", at)
            elif tok:
                raise SpSyntaxError(f"unexpected {tok!r} after complete expression", at)
    tree = operands[0]
    seen: set[str] = set()
    for lab in _reference_sp_leaves(tree):
        if lab in seen:
            raise DuplicateLeafError(f"leaf {lab!r} occurs twice")
        seen.add(lab)
    return tree


def _reference_postorder(t: SpTree):
    stack: list[tuple[SpTree, bool]] = [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, SpLeaf) or expanded:
            yield node
        else:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))


def _reference_sp_leaves(t: SpTree) -> list[str]:
    """Leaf labels in left-to-right order."""
    return [node.label for node in _reference_postorder(t) if isinstance(node, SpLeaf)]


# --- the completion by brute force: the cuts enumerated from subsets
# or down-sets, the walk down the cut lattice, and the scene check
# built on it, the references that oracle.scene_matches_completion is
# compared with


class TooLargeForOracle(ValueError):
    """Instance exceeds the exponential-enumeration guard."""


# the largest order the completion references take
COMPLETION_MAX_N = 20


@dataclass(frozen=True)
class Cut:
    """A pair (lower, upper) with upper = bounds-above(lower) and
    lower = bounds-below(upper)."""

    lower: frozenset[str]
    upper: frozenset[str]


@dataclass(frozen=True)
class Completion:
    """Smallest complete lattice containing a poset, as explicit cuts.

    ``poset`` is the lattice viewed as a Poset; its element labels are
    the sorted lower sets, e.g. "{a,b}". ``cuts[i]`` corresponds to
    ``poset.labels[i]``.
    """

    cuts: tuple[Cut, ...]
    poset: Poset


def _down_sets(down: list[int], n: int) -> Iterator[int]:
    """All down-sets of the order, as bitmasks (grown one minimal
    element of the complement at a time)."""
    seen = {0}
    stack = [0]
    while stack:
        d = stack.pop()
        yield d
        for x in range(n):
            bit = 1 << x
            if d & bit:
                continue
            if down[x] & ~(d | bit):
                continue  # some strict predecessor of x is missing
            grown = d | bit
            if grown not in seen:
                seen.add(grown)
                stack.append(grown)


def dm_completion(p: Poset, *, max_n: int = COMPLETION_MAX_N) -> Completion:
    """All cuts of p, ordered by containment of the lower sets.

    Enumerates closures (bounds-below of bounds-above) of candidate
    subsets: every subset for n <= 12, down-sets only beyond that
    (a cut's lower set is always a down-set). Guarded at ``max_n``.
    """
    n = p.n
    if n > max_n:
        raise TooLargeForOracle(f"completion oracle limited to n <= {max_n}")
    up, down = p.up, p.down
    full = (1 << n) - 1

    def bounds_above(mask: int) -> int:
        b = full
        for i in bits(mask):
            b &= up[i]
        return b

    def bounds_below(mask: int) -> int:
        b = full
        for i in bits(mask):
            b &= down[i]
        return b

    candidates = range(1 << n) if n <= 12 else _down_sets(down, n)
    cuts_by_lower: dict[int, int] = {}
    for x in candidates:
        b = bounds_above(x)
        a = bounds_below(b)
        cuts_by_lower.setdefault(a, b)

    lowers = sorted(cuts_by_lower)
    m = len(lowers)
    leq = np.zeros((m, m), dtype=bool)
    for i, a in enumerate(lowers):
        for j, c in enumerate(lowers):
            leq[i, j] = (a & ~c) == 0  # lower-set containment
    cuts = []
    labels = []
    for a in lowers:
        lower = frozenset(p.labels[i] for i in bits(a))
        upper = frozenset(p.labels[i] for i in bits(cuts_by_lower[a]))
        cuts.append(Cut(lower, upper))
        labels.append("{" + ",".join(sorted(lower)) + "}")
    return Completion(tuple(cuts), poset_of_matrix(labels, leq))


def cut_lowers(p: Poset) -> set[int]:
    """The lower sets of all cuts of p, as bitmasks over p's elements,
    read only from ``p.up`` and ``p.down``.

    A cut is a pair (A, B) with B the upper bounds of A and A the lower
    bounds of B. The walk starts from the top cut, whose A is every
    element, and goes down the lattice cover by cover. The lower covers
    of a cut (A, B) are the inclusion-maximal sets among A & down[u],
    for u maximal among the elements outside B. Each such set is the
    lower set of a cut (the meet of (A, B) with u's principal cut), and
    it is strictly inside A, since u, outside B, is not above all of A.
    Every cut D below (A, B) lies in one of them: D has an upper bound
    outside B, which lies below a maximal u outside B, so D's lower set
    is inside A & down[u]. So every cut is reached, and each is
    expanded once. The candidates are taken by decreasing size, so a
    candidate is a cover exactly when no cover kept before it contains
    it.
    """
    up, down = p.up, p.down
    full = (1 << p.n) - 1
    lowers = {full}
    stack = [full]
    while stack:
        lower = stack.pop()
        bounds = full
        for i in bits(lower):
            bounds &= up[i]
        outside = full & ~bounds
        candidates = {lower & down[u] for u in bits(outside) if up[u] & outside == 1 << u}
        covers: list[int] = []
        for c in sorted(candidates, key=int.bit_count, reverse=True):
            if all(c & ~kept for kept in covers):
                covers.append(c)
                if c not in lowers:
                    lowers.add(c)
                    stack.append(c)
    return lowers


def reference_scene_matches_completion(scene: GridScene, p: Poset) -> bool:
    """Whether the dominance order on a grid scene's points is
    order-isomorphic to the completion of p, with vertices mapped to
    their element cuts; segments are not read.

    Each point is keyed by the set of poset elements it dominates; the
    scene matches iff those keys are exactly the completion's lower
    sets, from the walk down the cut lattice (``cut_lowers``), and
    point dominance coincides with key containment, in O(points²).
    Raises ``TooLargeForOracle`` above COMPLETION_MAX_N elements.
    """
    if p.n > COMPLETION_MAX_N:
        raise TooLargeForOracle(f"completion oracle limited to n <= {COMPLETION_MAX_N}")
    lowers = cut_lowers(p)
    xs, ys, kinds, labels = scene.xs.tolist(), scene.ys.tolist(), scene.kinds, scene.labels
    ids = range(len(kinds))
    if len(ids) != len(lowers):
        return False
    label_bit = {lab: 1 << i for i, lab in enumerate(p.labels)}
    verts = [v for v in ids if kinds[v] == VERTEX]
    keys = []
    for q in ids:
        key = 0
        for v in verts:
            if xs[v] <= xs[q] and ys[v] <= ys[q]:
                key |= label_bit[labels[v]]
        keys.append(key)
    if set(keys) != lowers or len(set(keys)) != len(keys):
        return False
    for i in ids:
        for j in ids:
            dominated = xs[i] <= xs[j] and ys[i] <= ys[j]
            if dominated != ((keys[i] & ~keys[j]) == 0):
                return False
    # vertices must key to their own element cut
    for v, key in zip(ids, keys):
        if kinds[v] == VERTEX:
            if key != p.down[p.index(labels[v])]:
                return False
    return True


def completion_check(d: Diagram, p: Poset) -> CheckResult:
    """The ``completion`` line that --verify reports for the diagram."""
    return scene_matches_completion(d, p, validate_diagram(d, p))


# --- brute-force order oracles that only the tests call: the lattice
# test, linear extensions and the exhaustive dimension-two test, and the
# element cut of a completion


def element_cut_index(completion: Completion, label: str) -> int:
    """Index of the cut representing an original element."""
    for i, cut in enumerate(completion.cuts):
        if label in cut.lower and label in cut.upper:
            return i
    raise KeyError(label)


def linear_extensions(p: Poset) -> Iterator[tuple[int, ...]]:
    """All linear extensions, as tuples of element indices."""
    n = p.n
    leq = leq_of(p)
    pred = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and leq[j, i]:
                pred[i] |= 1 << j

    def rec(remaining: int, acc: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if not remaining:
            yield acc
            return
        for x in bits(remaining):
            if pred[x] & remaining == 0:
                yield from rec(remaining & ~(1 << x), acc + (x,))

    yield from rec((1 << n) - 1, ())


def order_dimension_le2(p: Poset, *, max_n: int = 7) -> bool:
    """Exhaustively decide whether two linear extensions realize p.

    For a fixed first extension the second is forced: comparable pairs
    keep their order, incomparable pairs must flip. It therefore
    suffices to test, for every linear extension, whether that forced
    companion relation is transitive (equivalently, a linear order).
    """
    n = p.n
    if n > max_n:
        raise TooLargeForOracle(f"dimension oracle limited to n <= {max_n}")
    if n <= 2:
        return True
    leq = leq_of(p)
    succ = [0] * n
    inc = [0] * n
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if leq[i, j]:
                succ[i] |= 1 << j
            elif not leq[j, i]:
                inc[i] |= 1 << j

    for ext in linear_extensions(p):
        forced = list(succ)
        before = 0
        for x in ext:
            forced[x] |= inc[x] & before  # incomparable predecessors flip above x
            before |= 1 << x
        ok = True
        for x in range(n):
            fx = forced[x]
            for y in bits(fx):
                if forced[y] & ~fx:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def is_lattice(p: Poset) -> bool:
    """Every pair of elements has a meet and a join."""
    n = p.n
    if n == 0:
        return False
    leq = leq_of(p)
    up = [0] * n
    down = [0] * n
    for i in range(n):
        for j in range(n):
            if leq[i, j]:
                up[i] |= 1 << j
                down[j] |= 1 << i

    def has_extreme(common: int, bounds: list[int]) -> bool:
        # true iff some member of `common` bounds all the others
        for x in bits(common):
            if common & ~bounds[x] == 0:
                return True
        return False

    for i in range(n):
        for j in range(i, n):
            uppers = up[i] & up[j]
            lowers = down[i] & down[j]
            # join: the common upper bounds need a least member
            if not uppers or not has_extreme(uppers, up):
                return False
            # meet: the common lower bounds need a greatest member
            if not lowers or not has_extreme(lowers, down):
                return False
    return True
