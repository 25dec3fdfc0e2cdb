"""Track segments of the confluent diagram and its validity checks.

Segments are the cover pairs of the dominance order on the scene's
points, found by one bottom-to-top sweep over the points. A Cartesian
tree over the occupied columns, keyed by the row of each column's
topmost point so far, holds the staircase of maximal points below and
left of the cursor. Each point walks one search path, splits the tree
there and becomes the new root of the part it split, so the sweep
visits points and segments, not grid cells. A point covers only a
column's topmost point below it: one hidden behind an earlier point
of the same column is not a cover. The quadratic integer oracle and
the grid-cell sweep kept in the tests pin the segments and their order.
All of it reads the scene's columns, and ``rotate45`` is the one
function that computes the rotated frame.

The segments are one (m, 2) int64 array, a row (lower id, upper id)
each. A point's segments all end at it and come out together, so the
sweep appends only their lower ids, and ``np.repeat`` of the points in
sweep order over their segment counts gives the upper column.

The checks of ``validate_diagram`` run in array passes, so that
``--verify`` scales with the drawing. They read the segment array and
the scene's columns (``GridScene.xs``, ``ys`` and ``codes``) as they are:

- segments are certified as the dominance covers by
  ``oracle.segment_faults``, from prefix counts of the points in
  points + segments lookups, at every size; a failure is reported as
  the certificate's own counts;
- smooth adjacency propagates one int bitset of reachable vertices per
  junction, the junctions by decreasing x + y, and gives each vertex
  the OR of its out-segments' bitsets: one pass over the segments when
  every junction-to-junction segment rises, as in a drawing. Those rows
  are compared with the order's cover rows as they are, so no label
  pair is built;
- planarity pairs the segments whose boxes overlap, by a sort and
  ``searchsorted`` within strips of rows, and decides every pair from
  four integer orientations: a proper crossing, an endpoint resting on
  the other segment away from its ends, or a collinear overlap of
  positive length;
- visibility sorts the extreme vertices by rotated u, lists with two
  ``searchsorted`` calls the vertices within each segment's u-span, and
  decides all those (vertex, segment) pairs with one integer side test.

A ``Diagram`` rejects a segment row that names no point, so every
check can index the scene's columns by the segment ids.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .grid import INVISIBLE_CODE, JUNCTION_CODE, VERTEX_CODE, GridScene
from .poset import Poset, bits, cover_rows, extremes, renumbered
from .poset import transitive_reduction  # noqa: F401  perfbench/tracer.py wraps it here

# one segment as a pair (lower id, upper id), a row of Diagram.segments
Segment = tuple[int, int]


@dataclass(slots=True, eq=False)
class Diagram:
    """A grid scene plus its track segments: an (m, 2) int64 array with
    one row (lower id, upper id) per segment. A list of such pairs is
    taken as well and stored as that array. Two diagrams are equal when
    their scenes are and their segments are the same rows in the same
    order. A row that names an id outside the scene's points raises
    ``ValueError``."""

    scene: GridScene
    segments: np.ndarray

    __hash__ = None  # mutable, and equal by value

    def __post_init__(self) -> None:
        self.segments = segs = np.asarray(self.segments, np.int64).reshape(-1, 2)
        count = len(self.scene.xs)
        if len(segs) and (segs.min() < 0 or segs.max() >= count):
            row = int(np.flatnonzero(((segs < 0) | (segs >= count)).any(axis=1))[0])
            raise ValueError(
                f"segment row {row} {tuple(segs[row].tolist())} names no point: "
                f"ids run 0 .. {count - 1}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.scene == other.scene and np.array_equal(self.segments, other.segments)

    def junction_count(self) -> int:
        return int(np.count_nonzero(self.scene.codes == JUNCTION_CODE))

    def drawn_segments(self) -> np.ndarray:
        """The rows of the segments a drawing shows: those with no
        invisible end."""
        invisible = self.scene.codes == INVISIBLE_CODE
        return self.segments[~invisible[self.segments].any(axis=1)]


def rotate45(x, y):
    """(u, v) for ints or int arrays alike: dominance becomes "higher v"."""
    return x - y, x + y


def sweep_cover_edges(s: GridScene) -> Diagram:
    """Generate all direct dominance pairs among the scene's points.

    Takes the points in (row, column) order and keeps a Cartesian tree
    over the occupied columns: node c is column c, and its key is the
    row of the column's topmost point seen so far, ties going to the
    smaller column, largest key at the root. The points a new point p
    covers are the previous point of its row, then, left to right, the
    tops of the columns between that point and p (all columns left of p
    for the first point of a row) that lie strictly higher than every
    top to their right, p's own column included. Those tops are the
    left-side nodes on the search path from the start subtree down to
    p's column, the last node of each run of equal rows, followed by
    that column's old top. The start subtree is the whole tree for the
    first point of a row, and the right child of the row's previous
    point otherwise. The search splits that subtree at p's column, and
    the column becomes the subtree's new root with the two halves as
    children.

    Each point costs one search path. No bound on the paths is proved;
    measured, they visit 1.17 tree nodes per point plus segment on the
    worst-case family at index 128 and 256, and 1.5 on random
    realizers at n = 256, 1024 and 2048.

    Node 0 is null and row 0 starts the sweep, so every point must lie
    in columns and rows 1 .. side; one that does not raises
    ``ValueError``.
    """
    side = s.side
    if len(s.xs) and (min(s.xs.min(), s.ys.min()) < 1 or max(s.xs.max(), s.ys.max()) > side):
        pid = int(np.flatnonzero((s.xs < 1) | (s.xs > side) | (s.ys < 1) | (s.ys > side))[0])
        raise ValueError(
            f"point {pid} at {(int(s.xs[pid]), int(s.ys[pid]))} lies off the grid: "
            f"columns and rows run 1 .. {side}"
        )
    width = side + 1
    # the points in (row, column) order, as lists made in that order:
    # read front to back, they touch memory in order too
    order = np.argsort(s.ys * width + s.xs, kind="stable")
    # node c for column c in 1..width - 1; node 0 is null, and its two
    # child slots collect the halves of a split; node `head` holds the
    # root as its right child, so that a row starts from rch[head]
    head = width
    lch = [0] * (width + 1)
    rch = [0] * (width + 1)
    top = [0] * (width + 1)  # the column's topmost point so far
    trow = [0] * (width + 1)  # and its row
    # each segment's lower id, and per point the count emitted so far:
    # a point's segments all end at it, so its id fills their upper ends
    lows: list[int] = []
    emit = lows.append
    ends = [0]
    end = ends.append
    row = 0
    prev = head
    for pid, c, r in zip(order.tolist(), s.xs[order].tolist(), s.ys[order].tolist()):
        if r != row:
            row = r
            prev = head
        else:
            emit(top[prev])
        # walk down from the start subtree to column c; `left` and
        # `right` are the last nodes put in each half of the split, and
        # the next node of a half goes in their inner child slot
        t = rch[prev]
        left = right = 0
        run_row = 0  # row of the pending left-side node; 0 for none
        run_id = 0
        while t and t != c:
            if t < c:
                rch[left] = left = t
                if trow[t] != run_row:
                    if run_row:
                        emit(run_id)
                    run_row = trow[t]
                run_id = top[t]
                t = rch[t]
            else:
                lch[right] = right = t
                t = lch[t]
        if t:
            rch[left] = lch[c]
            lch[right] = rch[c]
            if run_row and run_row != trow[c]:
                emit(run_id)
            emit(top[c])
        else:
            rch[left] = lch[right] = 0
            if run_row:
                emit(run_id)
        end(len(lows))
        # column c, now topped by this point, roots the two halves
        lch[c] = rch[0]
        rch[c] = lch[0]
        top[c] = pid
        trow[c] = row
        rch[prev] = c
        prev = c
    segments = np.empty((len(lows), 2), np.int64)
    segments[:, 0] = lows
    segments[:, 1] = np.repeat(order, np.diff(ends))
    return Diagram(s, segments)


def smooth_adjacency(d: Diagram) -> list[int]:
    """Upward smooth tracks between vertices, as one int bitset per
    vertex, the vertices in scene-id order: bit k of a vertex's entry
    holds iff the segment DAG has a path from it to the k-th vertex
    whose internal nodes are all junctions; invisible bound points
    terminate a track and never appear inside one.

    Each point carries an int bitset over the vertices: a vertex its
    own bit, an invisible point none, and a junction, starting from
    none, the OR of what its out-segments carry. The junctions are
    taken by decreasing x + y. When every junction-to-junction segment
    ends at a strictly larger x + y, as every segment of a drawing
    does, each junction's targets are final before it is read, and one
    pass is the answer. On any other segment list (spliced downward
    segments, junction cycles, self-loops) the pass is repeated until
    it changes nothing: a monotone iteration from zero, so it stops at
    the least fixed point, exactly the junction-only paths. A vertex's
    entry is then the OR over its out-segments. ``smooth_pairs`` lists
    the same relation as label pairs.
    """
    s = d.scene
    codes = s.codes
    out: list[list[int]] = [[] for _ in range(len(codes))]
    for lo, hi in zip(*d.segments.T.tolist()):
        out[lo].append(hi)
    reach = [0] * len(codes)
    vertices = np.flatnonzero(codes == VERTEX_CODE).tolist()
    for bit, pid in enumerate(vertices):
        reach[pid] = 1 << bit
    junctions = np.flatnonzero(codes == JUNCTION_CODE)
    height = s.xs + s.ys
    top_down = junctions[np.argsort(-height[junctions], kind="stable")].tolist()
    lo, hi = d.segments.T
    inner = (codes[lo] == JUNCTION_CODE) & (codes[hi] == JUNCTION_CODE)
    rising = bool((height[hi[inner]] > height[lo[inner]]).all())
    changed = True
    while changed:
        changed = False
        for j in top_down:
            acc = 0
            for t in out[j]:
                acc |= reach[t]
            if acc != reach[j]:
                reach[j] = acc
                changed = True
        if rising:
            break

    rows = []
    for pid in vertices:
        acc = 0
        for t in out[pid]:
            acc |= reach[t]
        rows.append(acc)
    return rows


def smooth_pairs(d: Diagram) -> frozenset[tuple[str, str]]:
    """The label view of ``smooth_adjacency``: (a, b) for each vertex a
    and each vertex b reached from it by an upward smooth track."""
    labels = _vertex_labels(d.scene)
    return frozenset(
        (lab, labels[k]) for lab, row in zip(labels, smooth_adjacency(d)) for k in bits(row)
    )


def _vertex_labels(s: GridScene) -> list[str]:
    """The vertices' labels, in scene-id order."""
    return [s.labels[pid] for pid in np.flatnonzero(s.codes == VERTEX_CODE).tolist()]


@dataclass(slots=True)
class CheckResult:
    name: str
    status: str  # "PASS", "FAIL" or "SKIP"
    detail: str = ""

    @property
    def ok(self) -> bool:
        """A check that did not run fails nothing."""
        return self.status != "FAIL"


@dataclass(slots=True)
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, "PASS" if ok else "FAIL", detail))

    def skip(self, name: str, reason: str) -> None:
        self.checks.append(CheckResult(name, "SKIP", reason))

    def summary(self) -> str:
        return "\n".join(
            f"{c.status} {c.name}" + (f": {c.detail}" if c.detail else "") for c in self.checks
        )


def validate_diagram(d: Diagram, p: Poset) -> ValidationReport:
    """Check the diagram against its defining properties.

    Reported, never raised, in this order:

    - segments: the segment set equals the cover pairs of the dominance
      order, each once. ``oracle.segment_faults`` certifies it from
      prefix counts of the points, in points + segments lookups, at
      every size. A failure names each of its counts that is not zero:
      rows that do not rise, points whose lower ends are not a
      staircase, and points not alone: points p with another point at
      or below p that lies below none of p's lower ends.
    - smooth: smooth adjacency equals the cover pairs of p. Both are
      int bitset rows, one per vertex in scene-id order, compared
      directly: ``smooth_adjacency``'s, and ``cover_rows`` of p's
      up-sets, renumbered into the vertex order first (``renumbered``)
      when p numbers its elements otherwise, as an edge list does. A
      failure gives both pair counts, by popcount. When the vertex
      labels are not p's labels, each once, the check fails naming the
      labels that differ, and visibility, which looks up p's extremes
      among the vertices, is skipped.
    - planar: drawn segments only meet at shared endpoints. Candidate
      pairs are those with overlapping boxes, and each is decided in
      integer arrays (``_conflicting_pairs``).
    - degrees: every junction has at least two incoming and two
      outgoing segments, from one ``bincount`` per direction.
    - visibility: the open vertical rays below minimal and above
      maximal vertices, in the rotated frame, meet no drawn segment. The
      candidates are the (vertex, segment) pairs whose u-spans meet,
      found by ``searchsorted`` over the vertices sorted by u, and the
      first blocking segment in drawn order is reported per vertex
      (``_blocked_rays``).
    """
    from .oracle import segment_faults

    report = ValidationReport()
    s = d.scene

    faults = segment_faults(s.xs, s.ys, d.segments)
    names = ("rows not rising", "points whose lower ends are not a staircase", "points not alone")
    detail = ", ".join(f"{k} {name}" for k, name in zip(faults, names) if k)
    report.add("segments", not any(faults), detail)

    labels = _vertex_labels(s)
    mismatch = _label_mismatch(labels, p)
    if mismatch:
        report.add("smooth", False, mismatch)
    else:
        smooth = smooth_adjacency(d)
        up = p.up if tuple(labels) == p.labels else renumbered(p.up, list(map(p.index, labels)))
        covers = cover_rows(up)
        same = smooth == covers
        detail = "" if same else f"smooth {_popcount(smooth)} pairs vs covers {_popcount(covers)}"
        report.add("smooth", same, detail)

    rendered = d.drawn_segments()
    conflicts = _conflicting_pairs(s.xs, s.ys, rendered)
    report.add("planar", conflicts == 0, f"{conflicts} crossing pairs" if conflicts else "")

    outdeg, indeg = (np.bincount(d.segments[:, k], minlength=len(s.xs)) for k in (0, 1))
    junction = s.codes == JUNCTION_CODE
    bad_junctions = np.flatnonzero(junction & ((indeg < 2) | (outdeg < 2))).tolist()
    report.add(
        "degrees",
        not bad_junctions,
        f"junctions with degree < 2: {bad_junctions}" if bad_junctions else "",
    )

    if mismatch:
        report.skip("visibility", "vertex labels differ from the order's")
        return report
    blocked = _blocked_rays(s, p, *rotate45(s.xs, s.ys), rendered)
    report.add(
        "visibility",
        not blocked,
        f"obstructed rays: {blocked}" if blocked else "",
    )
    return report


def _popcount(rows: list[int]) -> int:
    return sum(row.bit_count() for row in rows)


def _label_mismatch(labels: list[str], p: Poset) -> str:
    """Empty when the vertex labels are p's labels, each once; else a
    detail naming the labels that differ: the vertex labels p lacks or
    has fewer of, and p's labels that no vertex carries."""
    if len(labels) == p.n and set(labels) == set(p.labels):
        return ""
    extra = sorted((Counter(labels) - Counter(p.labels)).elements(), key=str)
    missing = sorted(set(p.labels) - set(labels))
    return f"vertex labels differ from the order's: scene only {extra}, order only {missing}"


# candidate segment pairs examined at once by the planar check
PAIR_CHUNK = 1 << 16


def _conflicting_pairs(xs: np.ndarray, ys: np.ndarray, segs: np.ndarray) -> int:
    """How many pairs of the segments (rows of point ids) meet anywhere
    but at an endpoint they share.

    Candidates are the pairs whose boxes overlap. Each box is entered
    in every strip of rows it meets; strips are at least as tall as the
    mean box, so a box meets few. Within a strip, sorted by x0
    (``argsort``), a box's partners are the later boxes that start at
    or before its right edge (``searchsorted``), generated about
    PAIR_CHUNK pairs at a time. A pair is kept when the y ranges
    overlap, in the strip where their overlap starts, so it is counted
    once. With four integer orientations, a pair conflicts when

    - the orientations show a proper crossing;
    - an endpoint of one segment lies on the other (orientation 0,
      inside its box) and is not one of the other's endpoints; or
    - the pair is collinear and overlaps by a positive length, that is,
      its x ranges or its y ranges overlap by a positive length.
    """
    if len(segs) < 2:
        return 0
    ax, ay, bx, by = xs[segs[:, 0]], ys[segs[:, 0]], xs[segs[:, 1]], ys[segs[:, 1]]
    x0, x1 = np.minimum(ax, bx), np.maximum(ax, bx)
    y0, y1 = np.minimum(ay, by), np.maximum(ay, by)
    tall = int((y1 - y0).mean()) + 1
    first = y0 // tall
    span = y1 // tall - first + 1
    box = np.repeat(np.arange(len(x0)), span)
    strip = first[box] + _positions(span)
    # one sort key for (strip, x): a box's partners lie between its own
    # key and the key of its right edge
    wide = int(x1.max() - x0.min()) + 1
    key = strip * wide + (x0[box] - x0.min())
    by_key = np.argsort(key, kind="stable")
    box, strip, key = box[by_key], strip[by_key], key[by_key]
    ends = np.searchsorted(key, key + (x1 - x0)[box], side="right")
    conflicts = 0
    for s, k in _pair_chunks(ends - np.arange(1, len(key) + 1)):
        i, j = box[s], box[s + 1 + k]
        keep = (y0[j] <= y1[i]) & (y0[i] <= y1[j]) & (np.maximum(y0[i], y0[j]) // tall == strip[s])
        i, j = i[keep], j[keep]
        a, b, c, e = (ax[i], ay[i]), (bx[i], by[i]), (ax[j], ay[j]), (bx[j], by[j])
        box_i, box_j = (x0[i], y0[i], x1[i], y1[i]), (x0[j], y0[j], x1[j], y1[j])
        o1, o2 = _orient(a, b, c), _orient(a, b, e)
        o3, o4 = _orient(c, e, a), _orient(c, e, b)
        collinear = (o1 == 0) & (o2 == 0) & (o3 == 0) & (o4 == 0)
        overlap = (np.maximum(x0[i], x0[j]) < np.minimum(x1[i], x1[j])) | (
            np.maximum(y0[i], y0[j]) < np.minimum(y1[i], y1[j])
        )
        conflict = (
            (o1 * o2 < 0) & (o3 * o4 < 0)
            | _inside(o1, c, a, b, box_i)
            | _inside(o2, e, a, b, box_i)
            | _inside(o3, a, c, e, box_j)
            | _inside(o4, b, c, e, box_j)
            | collinear & overlap
        )
        conflicts += int(np.count_nonzero(conflict))
    return conflicts


def _pair_chunks(counts: np.ndarray):
    """(row, k) arrays, for k in 0 .. counts[row] - 1 of each row in
    turn, about PAIR_CHUNK pairs at a time."""
    cum = np.cumsum(counts)
    start = 0
    while start < len(counts):
        base = cum[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(cum, base + PAIR_CHUNK, side="right")))
        run = counts[start:stop]
        yield np.repeat(np.arange(start, stop), run), _positions(run)
        start = stop


def _positions(runs: np.ndarray) -> np.ndarray:
    """0, 1, .., run - 1 for each run in turn."""
    return np.arange(int(runs.sum())) - np.repeat(np.cumsum(runs) - runs, runs)


def _orient(o, a, b) -> np.ndarray:
    """The sign says on which side of the line o -> a each b lies."""
    return np.sign((a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]))


def _inside(o, p, u, v, box) -> np.ndarray:
    """p lies on the segment uv (its orientation o is 0 and it is
    inside the box of uv) and is neither u nor v."""
    x0, y0, x1, y1 = box
    on = (o == 0) & (x0 <= p[0]) & (p[0] <= x1) & (y0 <= p[1]) & (p[1] <= y1)
    return on & ~_same(p, u) & ~_same(p, v)


def _same(p, q) -> np.ndarray:
    return (p[0] == q[0]) & (p[1] == q[1])


def _blocked_rays(
    s: GridScene, p: Poset, us: np.ndarray, vs: np.ndarray, segs: np.ndarray
) -> list[tuple[str, str]]:
    """(label, "below" or "above") for each minimal or maximal vertex,
    in label order, whose open vertical ray in the rotated frame meets
    a drawn segment.

    With the extreme vertices sorted by u, two ``searchsorted`` calls
    give each segment the run of vertices within its u-span, and the
    (vertex, segment) candidates are decided about PAIR_CHUNK at a time.
    The ray test of a sloped segment compares
    ``v1 * den + (v2 - v1) * (u0 - u1)`` with ``v0 * den``, den = u2 - u1,
    and a segment on the ray's own line compares its lower or upper end
    with v0. One ``lexsort`` of the hits finds each vertex's first
    blocking segment in ``drawn_segments()`` order, reported "below"
    when the vertex is minimal and it blocks below, else "above".
    """
    ext = extremes(p)
    names = sorted(ext.minimal | ext.maximal)
    ids = np.flatnonzero(s.codes == VERTEX_CODE).tolist()
    vertex = dict(zip(map(s.labels.__getitem__, ids), ids))
    pid = np.array([vertex[label] for label in names], np.int64)
    by_u = np.argsort(us[pid], kind="stable")
    u_sorted, v_sorted = us[pid][by_u], vs[pid][by_u]
    down = np.array([label in ext.minimal for label in names], bool)[by_u]
    up = np.array([label in ext.maximal for label in names], bool)[by_u]
    u1, v1, u2, v2 = us[segs[:, 0]], vs[segs[:, 0]], us[segs[:, 1]], vs[segs[:, 1]]
    first = np.searchsorted(u_sorted, np.minimum(u1, u2), side="left")
    count = np.searchsorted(u_sorted, np.maximum(u1, u2), side="right") - first
    hit_vertex, hit_segment, hit_below = [], [], []
    for k, i in _pair_chunks(count):
        x = first[k] + i
        u0, v0, den = u_sorted[x], v_sorted[x], u2[k] - u1[k]
        # sign of (v where the segment meets u = u0) - v0
        side = np.sign(v1[k] * den + (v2[k] - v1[k]) * (u0 - u1[k]) - v0 * den) * np.sign(den)
        vertical = den == 0
        below = np.where(vertical, np.minimum(v1[k], v2[k]) < v0, side < 0) & down[x]
        above = np.where(vertical, np.maximum(v1[k], v2[k]) > v0, side > 0) & up[x]
        hit = below | above
        hit_vertex.append(by_u[x[hit]])
        hit_segment.append(k[hit])
        hit_below.append(below[hit])
    if not hit_vertex:
        return []
    x, k, below = (np.concatenate(a) for a in (hit_vertex, hit_segment, hit_below))
    order = np.lexsort((k, x))
    x, below = x[order], below[order]
    firsts = np.flatnonzero(np.diff(x, prepend=-1))
    return [
        (names[v], "below" if b else "above")
        for v, b in zip(x[firsts].tolist(), below[firsts].tolist())
    ]
