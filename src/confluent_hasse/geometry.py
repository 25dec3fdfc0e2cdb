"""Exact geometric predicates on integer coordinates.

The validator's planarity check relies on these tests, done in integer
arithmetic: segment conflict and point on segment. No floating point,
no epsilons.
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
