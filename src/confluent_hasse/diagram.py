"""Track segments of the confluent diagram and its validity checks.

Segments are the cover pairs of the dominance order on the scene's
points, found by a single bottom-to-top row sweep. Per row, a stack
holds the staircase of maximal points seen so far to the left; a
column's remembered top point is pushed (popping everything it
dominates) before edges are emitted, so the stack holds exactly the
points the current point covers. Emitting before that pop would also
report points hidden behind an earlier point in the same column, which
are not covers; the cubic-time oracle pins the contract either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import geometry
from .grid import GridScene, INVISIBLE, JUNCTION, VERTEX
from .poset import Poset, extremes, transitive_reduction

Segment = tuple[int, int]


@dataclass(slots=True)
class Diagram:
    """A grid scene plus its track segments (lower id, upper id)."""

    scene: GridScene
    segments: list[Segment]

    def junction_count(self) -> int:
        return sum(1 for p in self.scene.points if p.kind == JUNCTION)


def sweep_cover_edges(s: GridScene) -> Diagram:
    """Generate all direct dominance pairs among the scene's points.

    Sweeps rows 1..2n+1 upward; within a row, walks columns left to
    right keeping (a) per column, the topmost point seen so far, and
    (b) a stack of those tops with strictly decreasing rows, i.e. the
    staircase of dominance-maximal points below-left of the cursor.
    Runs in O(grid cells + segments).
    """
    side = 2 * s.n + 1
    t_row = [0] * (side + 1)
    t_id = [-1] * (side + 1)
    rows: list[list[tuple[int, int]]] = [[] for _ in range(side + 1)]
    for p in s.points:
        rows[p.y].append((p.x, p.id))
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


def smooth_adjacency(d: Diagram) -> frozenset[tuple[str, str]]:
    """Vertex pairs joined by an upward smooth track.

    (a, b) is reported iff the segment DAG has a path from vertex a to
    vertex b whose internal nodes are all junctions; invisible bound
    points terminate a track and never appear inside one.
    """
    out: dict[int, list[int]] = {}
    for lo, hi in d.segments:
        out.setdefault(lo, []).append(hi)
    points = d.scene.points
    result: set[tuple[str, str]] = set()
    for start in points:
        if start.kind != VERTEX:
            continue
        stack = list(out.get(start.id, ()))
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


# the cubic-time cover oracle behind the segments check runs up to here
COVERS_CHECK_LIMIT = 1500


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

    Reported, never raised: (segments) segment set equals the cover
    pairs of the dominance order, skipped above COVERS_CHECK_LIMIT
    points; (smooth) smooth adjacency equals the cover pairs of p;
    (planar) rendered segments only intersect at shared endpoints;
    (degrees) every junction has at least two incoming and two
    outgoing segments; (visibility) vertical rays below minimal and
    above maximal vertices are unobstructed.
    """
    from .oracle import dominance_covers

    report = ValidationReport()
    points = d.scene.points

    if len(points) <= COVERS_CHECK_LIMIT:
        coords = [(q.x, q.y) for q in points]
        expected = dominance_covers(coords)
        actual = {((points[a].x, points[a].y), (points[b].x, points[b].y)) for a, b in d.segments}
        extra = actual - expected
        missing = expected - actual
        report.add(
            "segments",
            not extra and not missing and len(actual) == len(d.segments),
            f"{len(extra)} non-cover, {len(missing)} missing" if extra or missing else "",
        )
    else:
        report.skip("segments", "too many points for the cover oracle")

    smooth = smooth_adjacency(d)
    covers = transitive_reduction(p)
    report.add(
        "smooth",
        smooth == covers,
        "" if smooth == covers else f"smooth {len(smooth)} pairs vs covers {len(covers)}",
    )

    rendered = [
        seg
        for seg in d.segments
        if points[seg[0]].kind != INVISIBLE and points[seg[1]].kind != INVISIBLE
    ]
    coords_of = [(q.x, q.y) for q in points]
    conflicts = 0
    boxes = []
    for lo, hi in rendered:
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
            if geometry.segments_conflict(
                coords_of[a1], coords_of[b1], coords_of[a2], coords_of[b2]
            ):
                conflicts += 1
    report.add("planar", conflicts == 0, f"{conflicts} crossing pairs" if conflicts else "")

    indeg: dict[int, int] = {}
    outdeg: dict[int, int] = {}
    for lo, hi in d.segments:
        outdeg[lo] = outdeg.get(lo, 0) + 1
        indeg[hi] = indeg.get(hi, 0) + 1
    bad_junctions = [
        q.id
        for q in points
        if q.kind == JUNCTION and (indeg.get(q.id, 0) < 2 or outdeg.get(q.id, 0) < 2)
    ]
    report.add(
        "degrees",
        not bad_junctions,
        f"junctions with degree < 2: {bad_junctions}" if bad_junctions else "",
    )

    ext = extremes(p)
    verts = d.scene.vertex_by_label()
    rendered_rot = [(points[lo].rot, points[hi].rot) for lo, hi in rendered]
    blocked = []
    for label in sorted(ext.minimal | ext.maximal):
        v = verts[label]
        u0, v0 = v.rot
        down = label in ext.minimal
        up = label in ext.maximal
        for a, b in rendered_rot:
            if down and geometry.vertical_ray_hits_segment(u0, v0, True, a, b):
                blocked.append((label, "below"))
                break
            if up and geometry.vertical_ray_hits_segment(u0, v0, False, a, b):
                blocked.append((label, "above"))
                break
    report.add(
        "visibility",
        not blocked,
        f"obstructed rays: {blocked}" if blocked else "",
    )
    return report
