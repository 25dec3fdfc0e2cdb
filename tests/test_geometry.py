from suites import (
    convex_hull,
    hulls_intersect,
    point_on_segment,
    segments_conflict,
    vertical_ray_hits_segment,
)


def test_proper_crossing_conflicts():
    assert segments_conflict((0, 0), (4, 4), (0, 4), (4, 0))


def test_shared_endpoint_is_fine():
    assert not segments_conflict((0, 0), (4, 4), (4, 4), (8, 2))


def test_t_touch_conflicts():
    assert segments_conflict((0, 0), (4, 4), (2, 2), (5, 0))


def test_endpoint_resting_on_interior_conflicts():
    assert segments_conflict((0, 0), (4, 0), (2, 0), (2, 3))


def test_collinear_overlap_beyond_shared_endpoint_conflicts():
    assert segments_conflict((0, 0), (4, 0), (0, 0), (2, 0))


def test_collinear_disjoint_ok():
    assert not segments_conflict((0, 0), (1, 0), (3, 0), (5, 0))


def test_collinear_touching_at_shared_endpoint_ok():
    assert not segments_conflict((0, 0), (2, 0), (2, 0), (5, 0))


def test_collinear_touch_at_non_shared_point_conflicts():
    # vertical segments stacked end to end but declared via different
    # endpoints cannot share the cell
    assert segments_conflict((0, 0), (0, 4), (0, 4), (0, 2))


def test_point_on_segment():
    assert point_on_segment((2, 2), (0, 0), (4, 4))
    assert not point_on_segment((5, 5), (0, 0), (4, 4))
    assert not point_on_segment((1, 2), (0, 0), (4, 4))


def test_convex_hull_degenerate():
    assert convex_hull([(1, 1), (1, 1)]) == [(1, 1)]
    assert convex_hull([(0, 0), (2, 2), (1, 1)]) == [(0, 0), (2, 2)]


def test_hulls_disjoint():
    a = [(0, 0), (0, 2), (2, 0)]
    b = [(5, 5), (6, 5), (5, 6)]
    assert not hulls_intersect(a, b)
    # bounding boxes overlap, hulls miss
    assert not hulls_intersect([(0, 0), (4, 0), (0, 4)], [(3, 3), (5, 3), (5, 5)])


def test_hulls_touching_counts():
    a = [(0, 0), (0, 2), (2, 0)]
    b = [(1, 1), (3, 3), (3, 1)]
    assert hulls_intersect(a, b)
    # meeting only at a shared corner
    assert hulls_intersect([(0, 0), (2, 0), (0, 2)], [(2, 0), (4, 0), (4, 2)])
    assert hulls_intersect([(0, 0), (2, 0)], [(2, 0), (5, 0)])


def test_hull_inside_other():
    outer = [(0, 0), (10, 0), (0, 10), (10, 10)]
    inner = [(4, 4), (5, 5), (4, 5)]
    assert hulls_intersect(outer, inner)


def test_segment_hulls_crossing():
    assert hulls_intersect([(0, 0), (4, 4)], [(0, 4), (4, 0)])
    assert not hulls_intersect([(0, 0), (1, 1)], [(3, 0), (4, 1)])


def test_hulls_crossing_with_no_corner_inside_the_other():
    # two triangles in a star: only their edges cross
    assert hulls_intersect([(3, 0), (0, 5), (6, 5)], [(3, 7), (0, 2), (6, 2)])


def test_downward_ray():
    # ray below (0, 10)
    assert vertical_ray_hits_segment(0, 10, True, (-2, 4), (2, 6))
    assert not vertical_ray_hits_segment(0, 10, True, (-2, 12), (2, 14))
    assert not vertical_ray_hits_segment(0, 10, True, (1, 0), (2, 0))
    # segment ending exactly at the apex does not block
    assert not vertical_ray_hits_segment(0, 10, True, (0, 10), (2, 14))


def test_upward_ray():
    assert vertical_ray_hits_segment(0, 0, False, (-2, 4), (2, 6))
    assert not vertical_ray_hits_segment(0, 0, False, (-2, -4), (2, -6))


def test_vertical_segment_on_ray_line():
    assert vertical_ray_hits_segment(0, 10, True, (0, 2), (0, 6))
    assert not vertical_ray_hits_segment(0, 10, True, (0, 10), (0, 14))
