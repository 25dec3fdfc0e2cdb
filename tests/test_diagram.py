from hypothesis import given, settings
from hypothesis import strategies as st

from confluent_hasse import (
    Realizer,
    build_diagram,
    dominance_covers,
    gen_random,
    insert_junctions,
    place_on_grid,
    poset_from_realizer,
    poset_from_relations,
    realizer_of,
    smooth_adjacency,
    sweep_cover_edges,
    transitive_reduction,
    validate_diagram,
)
from confluent_hasse.diagram import Diagram
from confluent_hasse.grid import JUNCTION
from suites import forced_smooth_pairs


def coord_segments(d):
    pts = d.scene.points
    return {((pts[a].x, pts[a].y), (pts[b].x, pts[b].y)) for a, b in d.segments}


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
    assert len(d.segments) == len(set(d.segments))


def test_chain_segments():
    d = build_diagram(Realizer(("x", "y", "z"), ("x", "y", "z")))
    assert coord_segments(d) == {((2, 2), (4, 4)), ((4, 4), (6, 6))}


def test_single_vertex_no_segments():
    d = build_diagram(Realizer(("x",), ("x",)))
    assert d.segments == []


def test_k22_smooth_adjacency():
    d = k22_diagram()
    assert smooth_adjacency(d) == {("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")}


def test_chain_smooth_adjacency():
    d = build_diagram(Realizer(("x", "y", "z"), ("x", "y", "z")))
    assert smooth_adjacency(d) == {("x", "y"), ("y", "z")}


def test_antichain_smooth_adjacency_empty():
    d = build_diagram(Realizer(("a", "b"), ("b", "a")))
    assert smooth_adjacency(d) == frozenset()
    # all segments touch only the invisible bounds
    kinds = {q.id: q.kind for q in d.scene.points}
    assert all(
        kinds[a] == "invisible" or kinds[b] == "invisible" for a, b in d.segments
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
    assert len(d.segments) == len(set(d.segments))


def test_sweep_spot_check_larger():
    for n, seed in ((25, 0), (40, 1), (50, 2)):
        s = insert_junctions(place_on_grid(gen_random(n, seed)))
        d = sweep_cover_edges(s)
        assert coord_segments(d) == dominance_covers([(q.x, q.y) for q in s.points])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 9), st.integers(0, 10**6))
def test_junction_degrees(n, seed):
    d = build_diagram(gen_random(n, seed))
    indeg: dict[int, int] = {}
    outdeg: dict[int, int] = {}
    for lo, hi in d.segments:
        outdeg[lo] = outdeg.get(lo, 0) + 1
        indeg[hi] = indeg.get(hi, 0) + 1
    for q in d.scene.points:
        if q.kind == JUNCTION:
            assert indeg.get(q.id, 0) >= 2 and outdeg.get(q.id, 0) >= 2


def test_validate_k22_all_pass():
    d = k22_diagram()
    p = poset_from_realizer(Realizer(("a", "b", "c", "d"), ("b", "a", "d", "c")))
    report = validate_diagram(d, p)
    assert report.ok, report.summary()


def test_validate_chain_all_pass():
    r = Realizer(("x", "y", "z"), ("x", "y", "z"))
    report = validate_diagram(build_diagram(r), poset_from_realizer(r))
    assert report.ok, report.summary()


def test_validate_skips_segments_beyond_the_cover_oracle(monkeypatch):
    import confluent_hasse.diagram as diagram_module

    monkeypatch.setattr(diagram_module, "COVERS_CHECK_LIMIT", 2)
    r = Realizer(("x", "y", "z"), ("x", "y", "z"))
    report = validate_diagram(build_diagram(r), poset_from_realizer(r))
    assert report.ok
    assert report.summary().splitlines()[0] == "SKIP segments: too many points for the cover oracle"


def test_validate_flags_spurious_segment():
    d = k22_diagram()
    verts = d.scene.vertex_by_label()
    spiked = Diagram(d.scene, d.segments + [(verts["a"].id, verts["c"].id)])
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
    smooth = smooth_adjacency(d)
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
    assert smooth_adjacency(d) == forced
    (junction,) = [q.id for q in d.scene.points if q.kind == JUNCTION]
    x = d.scene.vertex_by_label()["x"].id
    spliced = Diagram(d.scene, d.segments + [(x, junction)])
    assert smooth_adjacency(spliced) - forced == {("x", "b"), ("x", "b2")}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 9), st.integers(0, 10**6))
def test_smooth_is_sandwiched_between_covers_and_order(n, seed):
    r = gen_random(n, seed)
    p = poset_from_realizer(r)
    smooth = smooth_adjacency(build_diagram(r))
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
