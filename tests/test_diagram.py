import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confluent_hasse import (
    Realizer,
    build_diagram,
    dominance_covers,
    gen_random,
    gen_worstcase,
    insert_junctions,
    parse_edge_list,
    place_on_grid,
    poset_from_realizer,
    poset_from_relations,
    realizer_of,
    smooth_adjacency,
    smooth_pairs,
    sp_layout,
    sp_realizer,
    sp_to_poset,
    sweep_cover_edges,
    transitive_reduction,
    validate_diagram,
)
from confluent_hasse import oracle
from confluent_hasse.diagram import (
    Diagram,
    ValidationReport,
    _blocked_rays,
    _conflicting_pairs,
    rotate45,
)
from confluent_hasse.grid import INVISIBLE, JUNCTION, VERTEX
from suites import (
    all_sp_trees,
    forced_smooth_pairs,
    random_realizer_suite,
    reference_blocked_rays,
    reference_planar_conflicts,
    reference_smooth_adjacency,
    reference_sweep_cover_edges,
    reference_validate_diagram,
    scene_of,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def coord_segments(d):
    pts = d.scene.points
    return {((pts[a].x, pts[a].y), (pts[b].x, pts[b].y)) for a, b in d.segments.tolist()}


def k22_diagram():
    return build_diagram(Realizer(("a", "b", "c", "d"), ("b", "a", "d", "c")))


def test_k22_segments():
    d = k22_diagram()
    assert coord_segments(d) == {
        ((1, 1), (2, 4)),
        ((1, 1), (4, 2)),
        ((2, 4), (5, 5)),
        ((4, 2), (5, 5)),
        ((5, 5), (6, 8)),
        ((5, 5), (8, 6)),
        ((6, 8), (9, 9)),
        ((8, 6), (9, 9)),
    }
    assert len(d.segments) == len(np.unique(d.segments, axis=0))


def test_diagram_equality_compares_scene_and_segment_rows_in_order():
    d, same = k22_diagram(), k22_diagram()
    assert d == same and not d != same
    assert Diagram(d.scene, d.segments.tolist()) == d
    reordered = Diagram(d.scene, d.segments[::-1])
    assert reordered != d and d != reordered
    changed = d.segments.copy()
    changed[3, 0] += 1
    assert Diagram(d.scene, changed) != d
    assert Diagram(d.scene, d.segments[:-1]) != d
    # the same points, with d relabelled: another scene the rows fit
    other_scene = build_diagram(Realizer(("a", "b", "c", "e"), ("b", "a", "e", "c"))).scene
    assert Diagram(other_scene, d.segments) != d
    assert d != (d.scene, d.segments) and d != "k22"
    with pytest.raises(TypeError):
        hash(d)


@pytest.mark.parametrize("row", [(0, 99), (-1, 0), (6, 7)])
def test_diagram_rejects_a_segment_row_that_names_no_point(row):
    d = k22_diagram()
    assert len(d.scene.xs) == 7
    rows = np.vstack((d.segments, [row], [(99, -1)]))
    named = rf"^segment row {len(d.segments)} \({row[0]}, {row[1]}\) names no point"
    with pytest.raises(ValueError, match=named):
        Diagram(d.scene, rows)
    # the certificate, called directly, still counts such rows
    assert oracle.segment_faults(d.scene.xs, d.scene.ys, rows)[0] == 2


def test_chain_segments():
    d = build_diagram(Realizer(("x", "y", "z"), ("x", "y", "z")))
    assert coord_segments(d) == {((2, 2), (4, 4)), ((4, 4), (6, 6))}


def test_single_vertex_no_segments():
    d = build_diagram(Realizer(("x",), ("x",)))
    assert d.segments.shape == (0, 2)


def test_k22_smooth_adjacency():
    d = k22_diagram()
    assert smooth_pairs(d) == {("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")}
    # one row per vertex, a b c d in scene-id order: bit k is the k-th vertex
    assert [q.label for q in d.scene.points if q.kind == VERTEX] == ["a", "b", "c", "d"]
    assert smooth_adjacency(d) == [0b1100, 0b1100, 0, 0]


def test_chain_smooth_adjacency():
    d = build_diagram(Realizer(("x", "y", "z"), ("x", "y", "z")))
    assert smooth_pairs(d) == {("x", "y"), ("y", "z")}


def test_antichain_smooth_adjacency_empty():
    d = build_diagram(Realizer(("a", "b"), ("b", "a")))
    assert smooth_pairs(d) == frozenset()
    # all segments touch only the invisible bounds
    kinds = [q.kind for q in d.scene.points]
    assert all(
        kinds[a] == "invisible" or kinds[b] == "invisible" for a, b in d.segments.tolist()
    )


def test_same_column_junctions_still_match_cover_oracle():
    # two junctions share column 7 here; the naive per-column emission
    # order would add the non-cover edge (6,2) -> (7,9)
    d = build_diagram(Realizer(("A", "B", "C", "D", "E", "F"), ("C", "A", "E", "B", "F", "D")))
    junction_cols = sorted((p.x, p.y) for p in d.scene.points if p.kind == JUNCTION)
    assert junction_cols == [(7, 5), (7, 9)]
    assert coord_segments(d) == dominance_covers([(q.x, q.y) for q in d.scene.points])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 9), st.integers(0, 10**6))
def test_sweep_equals_cover_oracle(n, seed):
    s = insert_junctions(place_on_grid(gen_random(n, seed)))
    d = sweep_cover_edges(s)
    assert coord_segments(d) == dominance_covers([(q.x, q.y) for q in s.points])
    assert len(d.segments) == len(np.unique(d.segments, axis=0))


def test_sweep_spot_check_larger():
    for n, seed in ((25, 0), (40, 1), (50, 2)):
        s = insert_junctions(place_on_grid(gen_random(n, seed)))
        d = sweep_cover_edges(s)
        assert coord_segments(d) == dominance_covers([(q.x, q.y) for q in s.points])


def point_soup(seed):
    """Distinct random cells of a (2n+1) x (2n+1) grid, n <= 6, in
    random order and of random kinds: any number of points from none
    to the full grid."""
    rng = random.Random(seed)
    n = rng.randint(0, 6)
    side = 2 * n + 1
    cells = [(x, y) for x in range(1, side + 1) for y in range(1, side + 1)]
    kinds = (VERTEX, JUNCTION, INVISIBLE)
    chosen = rng.sample(cells, rng.randint(0, len(cells)))
    return scene_of(n, [(rng.choice(kinds), x, y) for x, y in chosen])


def full_grid(n):
    side = 2 * n + 1
    cells = [(x, y) for y in range(1, side + 1) for x in range(1, side + 1)]
    return scene_of(n, [(JUNCTION, x, y) for x, y in cells])


def sweep_cases():
    for i, r in enumerate(random_realizer_suite(200, 9)):
        yield f"suite{i}", insert_junctions(place_on_grid(r))
    for i, t in enumerate(all_sp_trees(6)):
        yield f"sp{i}", insert_junctions(place_on_grid(sp_realizer(t)))
    for k in [*range(1, 21), 128]:
        yield f"worst{k}", insert_junctions(place_on_grid(gen_worstcase(k)))
    for n in (256, 1024):
        for seed in (0, 1):
            yield f"random{n}/{seed}", insert_junctions(place_on_grid(gen_random(n, seed)))
    for n in range(7):
        yield f"empty{n}", scene_of(n, [])
        yield f"full{n}", full_grid(n)
    for seed in range(3000):
        yield f"soup{seed}", point_soup(seed)


def test_sweep_equals_the_reference_sweep_in_order():
    for name, s in sweep_cases():
        got, ref = sweep_cover_edges(s).segments, reference_sweep_cover_edges(s).segments
        assert got.dtype == np.int64 and got.shape == (len(ref), 2), name
        assert np.array_equal(got, ref), name


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 9), st.integers(0, 10**6))
def test_junction_degrees(n, seed):
    d = build_diagram(gen_random(n, seed))
    indeg: dict[int, int] = {}
    outdeg: dict[int, int] = {}
    for lo, hi in d.segments.tolist():
        outdeg[lo] = outdeg.get(lo, 0) + 1
        indeg[hi] = indeg.get(hi, 0) + 1
    for qid, q in enumerate(d.scene.points):
        if q.kind == JUNCTION:
            assert indeg.get(qid, 0) >= 2 and outdeg.get(qid, 0) >= 2


def test_validate_k22_all_pass():
    d = k22_diagram()
    p = poset_from_realizer(Realizer(("a", "b", "c", "d"), ("b", "a", "d", "c")))
    report = validate_diagram(d, p)
    assert report.ok, report.summary()


def test_validate_chain_all_pass():
    r = Realizer(("x", "y", "z"), ("x", "y", "z"))
    report = validate_diagram(build_diagram(r), poset_from_realizer(r))
    assert report.ok, report.summary()


def test_validate_checks_segments_at_every_size():
    # a chain of 3 and one of 1,501 elements: segments has no size limit
    for size in (3, 1501):
        labels = tuple(f"e{i}" for i in range(size))
        r = Realizer(labels, labels)
        report = validate_diagram(build_diagram(r), poset_from_realizer(r))
        assert report.ok
        assert report.summary().splitlines()[0] == "PASS segments"


def spliced_benchmark_items():
    """Every --verify benchmark item with 0 to 15 seeded random segments
    spliced in, as (realizer, drawing, spliced drawing)."""
    keys = sorted(workloads.WORKLOADS["verify-mixed"].universe)
    for i, key in enumerate(keys):
        r = Realizer(*workloads.build(key).realizer)
        d = build_diagram(r)
        rng = random.Random(key)
        ids = range(len(d.scene.xs))
        extra = np.reshape([rng.sample(ids, 2) for _ in range(i % 16)], (-1, 2))
        yield r, d, Diagram(d.scene, np.vstack((d.segments, extra)))


def test_validate_passes_segments_without_the_cover_oracle(monkeypatch):
    # the certificate alone decides segments and words a failure, on
    # every verify-mixed item as drawn and spliced
    def no_oracle(points):
        raise AssertionError("dominance_covers called")

    monkeypatch.setattr(oracle, "dominance_covers", no_oracle)
    failed = 0
    for r, d, spliced in spliced_benchmark_items():
        p = poset_from_realizer(r)
        assert validate_diagram(d, p).summary().splitlines()[0] == "PASS segments"
        first = validate_diagram(spliced, p).checks[0]
        assert first.status == ("PASS" if len(spliced.segments) == len(d.segments) else "FAIL")
        failed += first.status == "FAIL"
    assert failed


def test_validate_fails_points_that_share_a_cell():
    # the cover oracle raises on them; the certificate counts a fault
    shared = [(VERTEX, 2, 2, "a"), (VERTEX, 2, 2, "b"), (VERTEX, 4, 4, "c")]
    for segments, detail in (
        ([], "3 points not alone"),
        ([(0, 2), (1, 2)], "1 points whose lower ends are not a staircase, 2 points not alone"),
        ([(0, 1)], "1 rows not rising, 3 points not alone"),
    ):
        d, p = custom(shared, segments, [])
        assert checks_of(d, p)["segments"] == f"FAIL: {detail}"
        assert_matches_reference(d, p)


def test_validate_memory_on_a_chain_at_the_cover_limit():
    # all x and all y distinct: the most ranks the segments check meets
    # for its points. The whole prefix-count table would take 1,497^2
    # int64 entries at 1,496 points, about 18 MB, and 6,001^2 at 6,000,
    # about 288 MB. At 6,000 the smooth check's vertex bitsets alone are
    # about 2.3 MB, so there the segments check is taken alone (the
    # smooth check has its own bound below)
    for size, check in ((1496, validate_diagram), (6000, segments_check)):
        labels = tuple(f"e{i}" for i in range(size))
        r = Realizer(labels, labels)
        d, p = build_diagram(r), poset_from_realizer(r)
        assert len(d.scene.xs) == len(set(d.scene.xs.tolist())) == len(set(d.scene.ys.tolist())) == size
        tracemalloc.start()
        try:
            report = check(d, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok, report.summary()
        assert report.summary().splitlines()[0] == "PASS segments"
        assert peak < 5_000_000, size


def test_smooth_memory_on_a_chain_of_6000():
    # 6,000 vertex bits and 5,999 pairs: the pairs are read off the
    # bitsets, with no bool block of the vertices unpacked
    labels = tuple(f"e{i}" for i in range(6000))
    d = build_diagram(Realizer(labels, labels))
    tracemalloc.start()
    try:
        smooth = smooth_pairs(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert smooth == {(a, b) for a, b in zip(labels, labels[1:])}
    assert peak < 8_000_000


def test_validate_memory_on_random_1024():
    # 263,022 smooth pairs against 5,791 covers, compared and counted as
    # bitset rows: the check peaked at 51.5 MB when it listed the pairs
    r = gen_random(1024, 0)
    d, p = build_diagram(r), poset_from_realizer(r)
    tracemalloc.start()
    try:
        report = validate_diagram(d, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.summary().splitlines()[1] == "FAIL smooth: smooth 263022 pairs vs covers 5791"
    assert peak < 36_000_000


def segments_check(d, p):
    """The segments line of ``validate_diagram``, on its own."""
    report = ValidationReport()
    faults = oracle.segment_faults(d.scene.xs, d.scene.ys, d.segments)
    report.add("segments", not any(faults))
    return report


def test_validate_flags_spurious_segment():
    d = k22_diagram()
    ids = {q.label: i for i, q in enumerate(d.scene.points)}
    spiked = Diagram(d.scene, np.vstack((d.segments, [(ids["a"], ids["c"])])))
    p = poset_from_realizer(Realizer(("a", "b", "c", "d"), ("b", "a", "d", "c")))
    report = validate_diagram(spiked, p)
    assert not report.ok
    by_name = {c.name: c.ok for c in report.checks}
    assert not by_name["segments"]  # a->c is not a dominance cover
    assert by_name["smooth"]  # a duplicate smooth route to (a, c) is fine


def test_smooth_can_exceed_covers_through_junction_chains():
    # A junction whose lower cut has another maximal element can also
    # carry an implied (non-cover) relation: here a < c < b yet the
    # track a -> junction -> b is smooth, so (a, b) appears. The
    # diagram stays honest (every smooth pair is a true relation and
    # every cover pair is smooth), and the pair is forced in every
    # valid drawing: the junction is the join of a and a2, and the
    # completion has nothing strictly between a, it and b.
    p = poset_from_relations(
        ["a", "a2", "c", "b", "b2"],
        [("a", "b"), ("a", "b2"), ("a2", "b"), ("a2", "b2"), ("a", "c"), ("c", "b")],
    )
    d = build_diagram(realizer_of(p))
    smooth = smooth_pairs(d)
    covers = transitive_reduction(p)
    forced = forced_smooth_pairs(p)
    assert covers < smooth
    assert smooth - covers == {("a", "b")}
    assert forced - covers == {("a", "b")}
    assert smooth == forced
    assert all(p.holds(x, y) and x != y for x, y in smooth)
    report = validate_diagram(d, p)
    by_name = {c.name: c.ok for c in report.checks}
    assert not by_name["smooth"]
    assert by_name["segments"] and by_name["planar"] and by_name["degrees"]


def test_forced_pairs_are_the_covers_without_added_chains():
    chain = poset_from_realizer(Realizer(("x", "y", "z"), ("x", "y", "z")))
    assert forced_smooth_pairs(chain) == transitive_reduction(chain)
    # K2,2: one added cut joins both minima to both maxima, all covers
    k22 = poset_from_realizer(Realizer(("a", "b", "c", "d"), ("b", "a", "d", "c")))
    assert forced_smooth_pairs(k22) == transitive_reduction(k22)


def test_forced_comparison_rejects_an_unforced_smooth_pair():
    # x < a, a2 < b, b2: the junction is the join of a and a2. A spliced
    # segment x -> junction makes (x, b) and (x, b2) smooth; both are
    # true relations, but neither is a cover nor forced
    p = poset_from_relations(
        ["x", "a", "a2", "b", "b2"],
        [("x", "a"), ("x", "a2"), ("a", "b"), ("a", "b2"), ("a2", "b"), ("a2", "b2")],
    )
    d = build_diagram(realizer_of(p))
    forced = forced_smooth_pairs(p)
    assert forced == transitive_reduction(p)
    assert smooth_pairs(d) == forced
    (junction,) = [i for i, q in enumerate(d.scene.points) if q.kind == JUNCTION]
    x = {q.label: i for i, q in enumerate(d.scene.points)}["x"]
    spliced = Diagram(d.scene, np.vstack((d.segments, [(x, junction)])))
    assert smooth_pairs(spliced) - forced == {("x", "b"), ("x", "b2")}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 9), st.integers(0, 10**6))
def test_smooth_is_sandwiched_between_covers_and_order(n, seed):
    r = gen_random(n, seed)
    p = poset_from_realizer(r)
    smooth = smooth_pairs(build_diagram(r))
    assert transitive_reduction(p) <= smooth
    assert all(p.holds(x, y) and x != y for x, y in smooth)


def test_planarity_and_visibility_spot_checks():
    for n, seed in ((20, 4), (35, 5), (50, 6)):
        r = gen_random(n, seed)
        report = validate_diagram(build_diagram(r), poset_from_realizer(r))
        by_name = {c.name: c.ok for c in report.checks}
        assert by_name["planar"], report.summary()
        assert by_name["degrees"], report.summary()
        assert by_name["visibility"], report.summary()


def assert_matches_reference(d, p):
    assert validate_diagram(d, p).summary() == reference_validate_diagram(d, p).summary()
    assert smooth_pairs(d) == reference_smooth_adjacency(d)


def checks_of(d, p):
    return {c.name: c.status + (f": {c.detail}" if c.detail else "") for c in validate_diagram(d, p).checks}


def test_smooth_equals_the_reference_on_realizer_and_worst_case_drawings():
    for r in random_realizer_suite(40) + [gen_worstcase(3), gen_random(40, 3)]:
        d = build_diagram(r)
        assert smooth_pairs(d) == reference_smooth_adjacency(d)


def edge_list_orders():
    """(diagram, order) for seeded realizers written as shuffled cover
    lines, plus a ``node`` line for each element in no cover: the order
    numbers its elements by first appearance, not along the drawing's
    vertex order."""
    rng = random.Random(31)
    suite = random_realizer_suite(60, 9) + [gen_worstcase(5)]
    for r in suite + [gen_random(n, n) for n in (12, 20, 30, 60)]:
        covers = sorted(transitive_reduction(poset_from_realizer(r)))
        lines = [f"{a} {b}" for a, b in covers]
        lines += [f"node {x}" for x in sorted(set(r.l1) - {x for pair in covers for x in pair})]
        rng.shuffle(lines)
        p = parse_edge_list("\n".join(lines))
        yield build_diagram(realizer_of(p)), p


def test_validate_equals_the_reference_loops_on_the_suites():
    for r in random_realizer_suite(200, 9):
        assert_matches_reference(build_diagram(r), poset_from_realizer(r))
    for tree in all_sp_trees(6):
        assert_matches_reference(sp_layout(tree), sp_to_poset(tree))
    for r in [gen_worstcase(k) for k in (1, 5, 20)] + [gen_random(n, n) for n in (30, 60, 120)]:
        assert_matches_reference(build_diagram(r), poset_from_realizer(r))
    renumbered = smooth_fails = 0
    for d, p in edge_list_orders():
        assert_matches_reference(d, p)
        renumbered += tuple(q.label for q in d.scene.points if q.kind == VERTEX) != p.labels
        smooth_fails += checks_of(d, p)["smooth"].startswith("FAIL: smooth ")
    assert renumbered >= 30 and smooth_fails >= 3, (renumbered, smooth_fails)


def test_validate_reports_vertex_labels_that_differ_from_the_order():
    # the scene draws a, b, c and the order has a, b, z: reported, not raised
    d = build_diagram(Realizer(("a", "b", "c"), ("b", "a", "c")))
    p = poset_from_relations(["a", "b", "z"], [("a", "z")])
    checks = checks_of(d, p)
    assert checks["smooth"] == (
        "FAIL: vertex labels differ from the order's: scene only ['c'], order only ['z']"
    )
    assert checks["visibility"] == "SKIP: vertex labels differ from the order's"
    assert checks["segments"] == checks["planar"] == checks["degrees"] == "PASS"
    assert not validate_diagram(d, p).ok
    assert_matches_reference(d, p)
    # an order with an element fewer
    p = poset_from_relations(["a", "b"], [])
    assert checks_of(d, p)["smooth"].endswith("scene only ['c'], order only []")
    assert_matches_reference(d, p)
    # a label drawn twice
    twice = Diagram(scene_of(0, [(VERTEX, 2, 2, "a"), (VERTEX, 4, 4, "a")]), [(0, 1)])
    p = poset_from_relations(["a", "b"], [("a", "b")])
    assert checks_of(twice, p)["smooth"].endswith("scene only ['a'], order only ['b']")
    assert_matches_reference(twice, p)


def custom(points, segments, relations):
    """A diagram over explicit points (kind, x, y, label) and segments
    between their indices, with the order the relations generate."""
    scene = scene_of(0, points)
    labels = [q[3] for q in points if q[0] == VERTEX]
    return Diagram(scene, list(segments)), poset_from_relations(labels, relations)


def test_validate_equals_the_reference_on_planarity_faults():
    # a -> d and b -> c cross at (4, 4)
    d, p = custom(
        [(VERTEX, 2, 2, "a"), (VERTEX, 4, 2, "b"), (VERTEX, 4, 6, "c"), (VERTEX, 6, 6, "d")],
        [(0, 3), (1, 2)],
        [("a", "d"), ("b", "c")],
    )
    assert checks_of(d, p)["planar"] == "FAIL: 1 crossing pairs"
    assert_matches_reference(d, p)
    # e0 -> e4 spliced into a drawing crosses one of its tracks
    r = gen_random(5, 0)
    d = build_diagram(r)
    ids = {q.label: i for i, q in enumerate(d.scene.points)}
    spliced = Diagram(d.scene, np.vstack((d.segments, [(ids["e0"], ids["e4"])])))
    assert checks_of(spliced, poset_from_realizer(r))["planar"] == "FAIL: 1 crossing pairs"
    assert_matches_reference(spliced, poset_from_realizer(r))
    # a chain plus a -> c: collinear overlap beyond the shared a and c
    chain = [(VERTEX, 2, 2, "a"), (VERTEX, 4, 4, "b"), (VERTEX, 6, 6, "c")]
    d, p = custom(chain, [(0, 1), (1, 2), (0, 2)], [("a", "b"), ("b", "c")])
    assert checks_of(d, p)["planar"] == "FAIL: 2 crossing pairs"
    assert_matches_reference(d, p)
    # b -> e starts inside a -> c without being collinear with it
    d, p = custom(
        [(VERTEX, 2, 2, "a"), (VERTEX, 4, 4, "b"), (VERTEX, 6, 6, "c"), (VERTEX, 5, 8, "e")],
        [(0, 2), (1, 3)],
        [("a", "c"), ("b", "e")],
    )
    assert checks_of(d, p)["planar"] == "FAIL: 1 crossing pairs"
    assert_matches_reference(d, p)
    # the same segment twice
    d = k22_diagram()
    p = poset_from_realizer(Realizer(("a", "b", "c", "d"), ("b", "a", "d", "c")))
    twice = Diagram(d.scene, np.vstack((d.segments, d.drawn_segments()[:1])))
    assert checks_of(twice, p)["planar"] == "FAIL: 1 crossing pairs"
    assert_matches_reference(twice, p)


def segment_soup(seed):
    """2-12 distinct points, vertices or junctions, on a 3x3 to 10x10
    grid, and 2-14 random segments between them: crossings, T-touches,
    collinear overlaps, duplicates and single-point segments."""
    rng = random.Random(seed)
    w, h = rng.randint(3, 10), rng.randint(3, 10)
    grid = [(x, y) for x in range(1, w + 1) for y in range(1, h + 1)]
    cells = rng.sample(grid, rng.randint(2, min(12, w * h)))
    points = [
        (VERTEX, x, y, f"v{k}") if rng.random() < 0.5 else (JUNCTION, x, y, None)
        for k, (x, y) in enumerate(cells)
    ]
    segments = [tuple(rng.choices(range(len(points)), k=2)) for _ in range(rng.randint(2, 14))]
    return custom(points, segments, [])


def test_planarity_equals_the_reference_on_segment_soups():
    for seed in range(3000):
        d, p = segment_soup(seed)
        xs = np.array([q.x for q in d.scene.points])
        ys = np.array([q.y for q in d.scene.points])
        segs = d.drawn_segments()
        assert _conflicting_pairs(xs, ys, segs) == reference_planar_conflicts(d), seed
        if seed % 10 == 0:
            assert validate_diagram(d, p).summary() == reference_validate_diagram(d, p).summary()


def test_degrees_equal_the_reference_on_a_junction_of_in_degree_one():
    d = k22_diagram()
    p = poset_from_realizer(Realizer(("a", "b", "c", "d"), ("b", "a", "d", "c")))
    (junction,) = [i for i, q in enumerate(d.scene.points) if q.kind == JUNCTION]
    segments = d.segments.tolist()
    into = next(seg for seg in segments if seg[1] == junction)
    cut = Diagram(d.scene, [seg for seg in segments if seg != into])
    assert checks_of(cut, p)["degrees"] == f"FAIL: junctions with degree < 2: [{junction}]"
    assert_matches_reference(cut, p)


def test_smooth_equals_the_reference_on_spliced_segments():
    # a downward segment c -> junction: c reaches itself and d smoothly
    d = k22_diagram()
    p = poset_from_realizer(Realizer(("a", "b", "c", "d"), ("b", "a", "d", "c")))
    ids = {q.label: i for i, q in enumerate(d.scene.points)}
    (junction,) = [i for i, q in enumerate(d.scene.points) if q.kind == JUNCTION]
    down = Diagram(d.scene, np.vstack((d.segments, [(ids["c"], junction)])))
    assert smooth_pairs(down) - smooth_pairs(d) == {("c", "c"), ("c", "d")}
    assert_matches_reference(down, p)
    # a junction -> junction segment reversed: a cycle through junctions
    r = gen_worstcase(3)
    d = build_diagram(r)
    kinds = [q.kind for q in d.scene.points]
    lo, hi = next((a, b) for a, b in d.segments.tolist() if kinds[a] == kinds[b] == JUNCTION)
    cycle = Diagram(d.scene, np.vstack((d.segments, [(hi, lo)])))
    assert smooth_pairs(cycle) > smooth_pairs(d)
    assert_matches_reference(cycle, poset_from_realizer(r))


def test_smooth_repeats_the_pass_on_a_junction_cycle():
    # a -> j -> i -> b, with i -> j closing a cycle and j above i in
    # x + y: one pass reads i's bitset at j before i has one, so (a, b)
    # shows only from the second pass on
    d, p = custom(
        [(VERTEX, 1, 1, "a"), (JUNCTION, 5, 5, None), (JUNCTION, 3, 3, None), (VERTEX, 8, 8, "b")],
        [(0, 1), (1, 2), (2, 1), (2, 3)],
        [("a", "b")],
    )
    assert smooth_pairs(d) == reference_smooth_adjacency(d) == {("a", "b")}


@st.composite
def segment_lists(draw):
    """1-12 points of random kinds, junctions twice as likely, on random
    cells of a 9 x 9 grid (shared cells too), and 0-30 random rows
    between them: downward rows, junction cycles, self-loops, repeated
    rows and rows into invisible points all occur."""
    size = draw(st.integers(1, 12))
    kinds = st.sampled_from((VERTEX, JUNCTION, JUNCTION, INVISIBLE))
    cells = st.tuples(kinds, st.integers(1, 9), st.integers(1, 9))
    points = [
        (kind, x, y, f"v{k}" if kind == VERTEX else None)
        for k, (kind, x, y) in enumerate(draw(st.lists(cells, min_size=size, max_size=size)))
    ]
    ids = st.integers(0, size - 1)
    rows = draw(st.lists(st.tuples(ids, ids), max_size=30))
    return Diagram(scene_of(4, points), rows)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(segment_lists())
def test_smooth_equals_the_reference_on_arbitrary_segment_lists(d):
    assert smooth_pairs(d) == reference_smooth_adjacency(d)


def test_visibility_equals_the_reference_on_blocked_rays():
    # rotated, m sits at (0, 8) and t at (-1, 11); a junction track
    # passes under m at v = 5 and another over t at v = 17
    d, p = custom(
        [
            (VERTEX, 4, 4, "m"), (VERTEX, 5, 6, "t"),
            (JUNCTION, 1, 2, None), (JUNCTION, 4, 3, None),
            (JUNCTION, 7, 9, None), (JUNCTION, 9, 9, None),
        ],
        [(0, 1), (2, 3), (4, 5)],
        [("m", "t")],
    )
    assert checks_of(d, p)["visibility"] == "FAIL: obstructed rays: [('m', 'below'), ('t', 'above')]"
    assert_matches_reference(d, p)
    # the isolated z at (0, 8), with a track under it at v = 5 and one
    # over it at v = 14: the first blocking segment in drawn order is
    # reported, whichever side it blocks
    points = [
        (VERTEX, 4, 4, "z"),
        (JUNCTION, 1, 2, None), (JUNCTION, 4, 3, None),
        (JUNCTION, 6, 7, None), (JUNCTION, 8, 7, None),
    ]
    for segs, side in (([(3, 4), (1, 2)], "above"), ([(1, 2), (3, 4)], "below")):
        d, p = custom(points, segs, [])
        assert checks_of(d, p)["visibility"] == f"FAIL: obstructed rays: [('z', '{side}')]"
        assert_matches_reference(d, p)
    # one track through z blocks both sides: "below" is tested first
    d, p = custom(
        [(VERTEX, 4, 4, "z"), (JUNCTION, 2, 2, None), (JUNCTION, 6, 6, None)],
        [(1, 2)],
        [],
    )
    assert checks_of(d, p)["visibility"] == "FAIL: obstructed rays: [('z', 'below')]"
    assert_matches_reference(d, p)


def blocked_rays(d, p):
    us, vs = rotate45(np.array(d.scene.xs, np.int64), np.array(d.scene.ys, np.int64))
    return _blocked_rays(d.scene, p, us, vs, d.drawn_segments())


def test_visibility_hand_cases_equal_the_reference():
    z = [(VERTEX, 4, 4, "z")]  # rotated (0, 8), minimal and maximal
    cases = [
        # vertical in the rotated frame, on z's own line, below z...
        (z + [(JUNCTION, 1, 1, None), (JUNCTION, 2, 2, None)], [(1, 2)], [], [("z", "below")]),
        # ...above z...
        (z + [(JUNCTION, 6, 6, None), (JUNCTION, 7, 7, None)], [(1, 2)], [], [("z", "above")]),
        # ...and ending at z from below
        (z + [(JUNCTION, 2, 2, None)], [(1, 0)], [], [("z", "below")]),
        # sloped, ending at z: it meets the line at z only
        (z + [(JUNCTION, 2, 4, None)], [(1, 0)], [], []),
        (z + [(JUNCTION, 6, 4, None)], [(0, 1)], [], []),
        # one segment through the maximal b of a < b blocks both of its
        # sides: "above", as b is not minimal
        (
            [(VERTEX, 2, 2, "a"), (VERTEX, 4, 4, "b"), (JUNCTION, 3, 3, None), (JUNCTION, 6, 6, None)],
            [(2, 3)],
            [("a", "b")],
            [("b", "above")],
        ),
        # no segments at all
        (z + [(VERTEX, 6, 2, "y")], [], [], []),
    ]
    for points, segs, relations, expected in cases:
        d, p = custom(points, segs, relations)
        assert blocked_rays(d, p) == reference_blocked_rays(d, p) == expected, (points, segs)
        assert_matches_reference(d, p)


def test_visibility_equals_the_reference_on_spliced_benchmark_items():
    # under each item's own order and under the antichain on its labels,
    # where every vertex casts both rays and most rays are blocked
    blocked = 0
    for r, _, spliced in spliced_benchmark_items():
        for p in (poset_from_realizer(r), poset_from_relations(r.l1, [])):
            found = blocked_rays(spliced, p)
            assert found == reference_blocked_rays(spliced, p), r
            blocked += len(found)
        assert_matches_reference(spliced, poset_from_realizer(r))
    assert blocked


def test_validate_scales_to_the_worst_case_at_index_128():
    r = gen_worstcase(128)
    report = validate_diagram(build_diagram(r), poset_from_realizer(r))
    assert report.summary().splitlines() == [
        "PASS segments",
        "PASS smooth",
        "PASS planar",
        "PASS degrees",
        "PASS visibility",
    ]
