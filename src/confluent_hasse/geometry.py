"""Exact geometric predicates on integer coordinates.

All tests the validator and the rendering invariants rely on are done
in integer (or scaled-integer) arithmetic: segment crossing, point on
segment, and convex-hull disjointness. No floating point, no epsilons.
"""

from __future__ import annotations

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
