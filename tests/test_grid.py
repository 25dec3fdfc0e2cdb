from hypothesis import given, settings
from hypothesis import strategies as st

from confluent_hasse import (
    Realizer,
    dm_completion,
    gen_random,
    insert_junctions,
    place_on_grid,
    poset_from_realizer,
    scene_matches_completion,
)
from confluent_hasse.grid import INVISIBLE, JUNCTION, VERTEX
from suites import of_kind, vertex_dominance_poset


def scene_for(l1, l2):
    return insert_junctions(place_on_grid(Realizer(tuple(l1), tuple(l2))))


def test_placement_coordinates():
    s = place_on_grid(Realizer(("a", "b", "c", "d"), ("b", "a", "d", "c")))
    coords = {p.label: (p.x, p.y) for p in s.points}
    assert coords == {"a": (2, 4), "b": (4, 2), "c": (6, 8), "d": (8, 6)}


def test_placement_single_element():
    s = place_on_grid(Realizer(("x",), ("x",)))
    assert [(p.x, p.y) for p in s.points] == [(2, 2)]


def test_placement_two_element_antichain():
    s = place_on_grid(Realizer(("a", "b"), ("b", "a")))
    coords = {p.label: (p.x, p.y) for p in s.points}
    assert coords == {"a": (2, 4), "b": (4, 2)}


def test_k22_junction_and_invisibles():
    s = scene_for(("a", "b", "c", "d"), ("b", "a", "d", "c"))
    junctions = [(p.x, p.y) for p in of_kind(s, JUNCTION)]
    invisibles = sorted((p.x, p.y) for p in of_kind(s, INVISIBLE))
    assert junctions == [(5, 5)]
    assert invisibles == [(1, 1), (9, 9)]


def test_chain_scene_has_no_extra_points():
    s = scene_for(("x", "y", "z"), ("x", "y", "z"))
    assert len(s.points) == 3
    assert of_kind(s, JUNCTION) == [] and of_kind(s, INVISIBLE) == []


def test_antichain_scene_only_invisible_bounds():
    s = scene_for(("a", "b"), ("b", "a"))
    assert of_kind(s, JUNCTION) == []
    assert sorted((p.x, p.y) for p in of_kind(s, INVISIBLE)) == [(1, 1), (5, 5)]


def test_empty_realizer_collapses_bounds_to_one_point():
    s = scene_for((), ())
    assert [(p.kind, p.x, p.y) for p in s.points] == [(INVISIBLE, 1, 1)]


def test_junction_conditions_reevaluated_independently():
    # scan the full odd grid and re-check the four clearance conditions
    for seed in (1, 5, 11, 17):
        s = scene_for(*_random_orders(8, seed))
        side = s.side
        ycol = {p.x: p.y for p in of_kind(s, VERTEX)}
        xrow = {p.y: p.x for p in of_kind(s, VERTEX)}
        junctions = {(p.x, p.y) for p in of_kind(s, JUNCTION)}
        for i in range(3, side - 1, 2):
            for j in range(3, side - 1, 2):
                expected = (
                    ycol[i - 1] < j - 1
                    and ycol[i + 1] > j + 1
                    and xrow[j - 1] < i - 1
                    and xrow[j + 1] > i + 1
                )
                assert ((i, j) in junctions) == expected


def _random_orders(n, seed):
    r = gen_random(n, seed)
    return r.l1, r.l2


def test_vertex_dominance_matches_input_poset():
    r = gen_random(7, 3)
    s = insert_junctions(place_on_grid(r))
    assert vertex_dominance_poset(s) == poset_from_realizer(r)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 9), st.integers(0, 10**6))
def test_scene_is_completion_of_the_order(n, seed):
    r = gen_random(n, seed)
    s = insert_junctions(place_on_grid(r))
    p = poset_from_realizer(r)
    assert scene_matches_completion(s, p)
    comp = dm_completion(p)
    invis = len(of_kind(s, INVISIBLE))
    assert len(of_kind(s, JUNCTION)) == len(comp.cuts) - n - invis


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 10**6))
def test_coordinate_ranges(n, seed):
    s = insert_junctions(place_on_grid(gen_random(n, seed)))
    side = s.side
    for p in s.points:
        assert 1 <= p.x <= side and 1 <= p.y <= side
        if p.kind == VERTEX:
            assert p.x % 2 == 0 and p.y % 2 == 0
        elif p.kind == JUNCTION:
            assert p.x % 2 == 1 and p.y % 2 == 1
            assert 3 <= p.x <= side - 2 and 3 <= p.y <= side - 2
        else:
            assert (p.x, p.y) in {(1, 1), (side, side)}
    cells = [(p.x, p.y) for p in s.points]
    assert len(cells) == len(set(cells))
