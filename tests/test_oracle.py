import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confluent_hasse import (
    GridScene,
    Poset,
    Realizer,
    TooLargeForOracle,
    build_diagram,
    dm_completion,
    dominance_covers,
    gen_random,
    gen_worstcase,
    poset_from_realizer,
    poset_from_relations,
    scene_matches_completion,
    sp_layout,
    sp_to_poset,
    transitive_reduction,
)
from confluent_hasse.grid import JUNCTION_CODE
from confluent_hasse.oracle import (
    COMPLETION_MAX_N,
    ROW_BLOCK,
    DuplicatePointError,
    _cut_lowers,
    segment_faults,
)
from suites import (
    all_sp_trees,
    element_cut_index,
    is_lattice,
    linear_extensions,
    order_dimension_le2,
    random_poset,
    random_realizer_suite,
    reference_dominance_covers,
    reference_segment_faults,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def k22():
    return poset_from_relations(
        ["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    )


def s3():
    labels = ["a1", "a2", "a3", "b1", "b2", "b3"]
    pairs = [(f"a{i}", f"b{j}") for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
    return poset_from_relations(labels, pairs)


def test_chain_completion_is_the_chain():
    p = poset_from_relations(["a", "b", "c"], [("a", "b"), ("b", "c")])
    comp = dm_completion(p)
    assert len(comp.cuts) == 3
    assert comp.poset == poset_from_relations(
        ["{a}", "{a,b}", "{a,b,c}"], [("{a}", "{a,b}"), ("{a,b}", "{a,b,c}")]
    )


def test_k22_completion_has_seven_cuts():
    comp = dm_completion(k22())
    assert len(comp.cuts) == 7
    lowers = {tuple(sorted(c.lower)) for c in comp.cuts}
    assert ("a", "b") in lowers  # the single added middle cut
    assert () in lowers and ("a", "b", "c", "d") in lowers


def test_antichain_completion_adds_bottom_and_top():
    comp = dm_completion(poset_from_relations(["a", "b"], []))
    assert len(comp.cuts) == 4


def test_completion_guard():
    with pytest.raises(TooLargeForOracle):
        dm_completion(random_poset(21, 0))


def test_downset_enumeration_matches_full_enumeration():
    # the n > 12 code path (down-sets only) must agree with a plain scan
    # of all 2^n subsets
    p = random_poset(13, 7, density=0.25)
    via_downsets = {tuple(sorted(c.lower)) for c in dm_completion(p).cuts}

    n = p.n
    up = [sum(1 << j for j in range(n) if p.leq[i, j]) for i in range(n)]
    down = [sum(1 << i for i in range(n) if p.leq[i, j]) for j in range(n)]
    full = (1 << n) - 1

    def fold(mask, table):
        out = full
        while mask:
            low = mask & -mask
            out &= table[low.bit_length() - 1]
            mask ^= low
        return out

    lowers = set()
    for sub in range(1 << n):
        lowers.add(fold(fold(sub, up), down))
    via_subsets = {
        tuple(sorted(p.labels[i] for i in range(n) if (mask >> i) & 1))
        for mask in lowers
    }
    assert via_downsets == via_subsets


def test_completion_contains_element_cuts_and_is_lattice():
    for seed in range(8):
        p = random_poset(5, seed)
        comp = dm_completion(p)
        assert is_lattice(comp.poset)
        for lab in p.labels:
            element_cut_index(comp, lab)


def test_completion_has_no_proper_lattice_subset_containing_elements():
    from itertools import combinations

    import numpy as np

    for seed in range(6):
        p = random_poset(4, seed)
        comp = dm_completion(p)
        element_idx = {element_cut_index(comp, lab) for lab in p.labels}
        extra = [i for i in range(len(comp.cuts)) if i not in element_idx]
        full = comp.poset
        for k in range(len(extra)):
            for keep in combinations(extra, k):
                chosen = sorted(element_idx | set(keep))
                sub = Poset(
                    [full.labels[i] for i in chosen],
                    full.leq[np.ix_(chosen, chosen)],
                )
                assert not is_lattice(sub) or len(chosen) == len(comp.cuts)


def completion_lowers(p):
    """dm_completion's lower sets as bitmasks over p's elements."""
    return {sum(1 << p.index(lab) for lab in cut.lower) for cut in dm_completion(p).cuts}


def verify_random_orders():
    """The orders of the 16 small verify-random benchmark items."""
    for n in (12, 20):
        for seed in range(8):
            item = workloads.build(f"verify-random/n{n}/s{seed}")
            yield poset_from_realizer(Realizer(*item.realizer))


def test_cut_walk_equals_the_enumeration_on_the_suites():
    orders = [poset_from_realizer(r) for r in random_realizer_suite(200, 9)]
    orders += [sp_to_poset(t) for t in all_sp_trees(6)]
    orders += [poset_from_realizer(gen_worstcase(k)) for k in range(1, 5)]
    orders += list(verify_random_orders())
    assert max(p.n for p in orders) == COMPLETION_MAX_N
    for p in orders:
        assert _cut_lowers(p) == completion_lowers(p), p.labels


def test_cut_walk_equals_the_enumeration_on_random_orders():
    # dimension 3 and more included: the walk reads only the order
    orders = [s3()]
    for n in range(15):
        for density in (0.05, 0.2, 0.4, 0.6, 0.8):
            orders += [random_poset(n, seed, density) for seed in range(3)]
    assert sum(not order_dimension_le2(p) for p in orders if p.n <= 7) >= 2
    for p in orders:
        assert _cut_lowers(p) == completion_lowers(p), (p.labels, p.up)


def test_cut_walk_on_chains_antichains_and_the_empty_order():
    empty = poset_from_relations([], [])
    assert _cut_lowers(empty) == completion_lowers(empty) == {0}
    for n in range(1, COMPLETION_MAX_N + 1):
        labels = [f"e{i:02d}" for i in range(n)]
        chain = poset_from_relations(labels, list(zip(labels, labels[1:])))
        assert _cut_lowers(chain) == completion_lowers(chain)
        assert len(_cut_lowers(chain)) == n
        antichain = poset_from_relations(labels, [])
        # the empty set, each element and all of them; one cut for n = 1
        expected = {(1 << n) - 1} | {1 << i for i in range(n)} | ({0} if n > 1 else set())
        assert _cut_lowers(antichain) == expected
        if n <= 14:
            assert completion_lowers(antichain) == expected


def dominance(s):
    return (s.xs[:, None] <= s.xs[None, :]) & (s.ys[:, None] <= s.ys[None, :])


def test_completion_fails_a_scene_with_a_junction_dropped_or_moved():
    # a move passes exactly when it leaves the dominance order on the
    # points as it was: the keys, and so the cuts, are read off it
    for r in (gen_worstcase(2), gen_random(8, 5), gen_random(9, 3)):
        s, p = build_diagram(r).scene, poset_from_realizer(r)
        assert scene_matches_completion(s, p)
        junctions = np.flatnonzero(s.codes == JUNCTION_CODE).tolist()
        assert junctions
        taken = set(zip(s.xs.tolist(), s.ys.tolist()))
        for j in junctions:
            dropped = GridScene(
                s.n,
                np.delete(s.xs, j),
                np.delete(s.ys, j),
                np.delete(s.codes, j),
                s.labels[:j] + s.labels[j + 1 :],
            )
            assert not scene_matches_completion(dropped, p)
            failed = 0
            for x in range(s.side + 1):
                for y in range(s.side + 1):
                    if (x, y) in taken:
                        continue
                    xs, ys = s.xs.copy(), s.ys.copy()
                    xs[j], ys[j] = x, y
                    moved = GridScene(s.n, xs, ys, s.codes, s.labels)
                    same = np.array_equal(dominance(moved), dominance(s))
                    assert scene_matches_completion(moved, p) == same, (j, x, y)
                    failed += not same
            assert failed


def test_completion_limit():
    r = gen_random(COMPLETION_MAX_N, 0)
    assert scene_matches_completion(build_diagram(r).scene, poset_from_realizer(r))
    r = gen_random(COMPLETION_MAX_N + 1, 0)
    with pytest.raises(TooLargeForOracle):
        scene_matches_completion(build_diagram(r).scene, poset_from_realizer(r))


def test_dominance_covers_chain_and_incomparable():
    assert dominance_covers([(0, 0), (1, 1), (2, 2)]) == {
        ((0, 0), (1, 1)),
        ((1, 1), (2, 2)),
    }
    assert dominance_covers([(0, 1), (1, 0)]) == frozenset()


def test_dominance_covers_rejects_duplicates():
    with pytest.raises(DuplicatePointError):
        dominance_covers([(0, 0), (0, 0)])


def test_dominance_covers_shared_row_is_comparable():
    # equal coordinates still dominate: (0,0) <= (2,0), and (1,1) does
    # not sit between them
    got = dominance_covers([(0, 0), (2, 0), (1, 1)])
    assert got == {((0, 0), (1, 1)), ((0, 0), (2, 0))}


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)),
        min_size=0,
        max_size=12,
        unique=True,
    )
)
def test_dominance_covers_agree_with_poset_reduction(points):
    import numpy as np

    got = dominance_covers(points)
    labels = [f"p{i}" for i in range(len(points))]
    xs = np.array([x for x, _ in points]).reshape(-1, 1)
    ys = np.array([y for _, y in points]).reshape(-1, 1)
    leq = (xs <= xs.T) & (ys <= ys.T)
    p = Poset(labels, leq)
    via_reduction = {
        (points[p.index(a)], points[p.index(b)])
        for a, b in transitive_reduction(p)
    }
    assert got == via_reduction


def point_soups(count: int = 3000):
    """Seeded point sets on grids from 1x1 to 12x12, shuffled; on such
    small grids most points share a row or a column with another."""
    for seed in range(count):
        rng = random.Random(seed)
        w, h = rng.randint(1, 12), rng.randint(1, 12)
        cells = [(x, y) for x in range(w) for y in range(h)]
        pts = rng.sample(cells, rng.randint(0, len(cells)))
        rng.shuffle(pts)
        yield pts


def test_dominance_covers_equals_the_reference():
    cases = list(point_soups())
    cases += [[], [(5, -3)]]
    realizers = random_realizer_suite()
    realizers += [gen_worstcase(k) for k in range(1, 41)]
    realizers += [gen_random(128, seed) for seed in range(4)]
    for r in realizers:
        s = build_diagram(r).scene
        cases.append(list(zip(s.xs, s.ys)))
    for pts in cases:
        assert dominance_covers(pts) == reference_dominance_covers(pts), pts


@pytest.mark.parametrize("count", [0, 1, 2, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1])
def test_dominance_covers_equals_the_reference_at_the_block_edges(count):
    # the rows go ROW_BLOCK at a time, the last row in no block
    rng = random.Random(count)
    for side in (count, 2 * count + 1):
        cells = [(x, y) for x in range(side) for y in range(side)]
        pts = rng.sample(cells, count)
        assert dominance_covers(pts) == reference_dominance_covers(pts), pts
    chain = [(i, i) for i in range(count)]
    rng.shuffle(chain)
    assert dominance_covers(chain) == reference_dominance_covers(chain)


@pytest.mark.parametrize("dx, dy", [(2**40, 0), (0, -(2**40)), (-(2**40), 2**40), (-7, -3)])
def test_dominance_covers_is_translation_invariant(dx, dy):
    for pts in point_soups(200):
        moved = [(x + dx, y + dy) for x, y in pts]
        shifted = {
            ((a + dx, b + dy), (c + dx, d + dy))
            for (a, b), (c, d) in dominance_covers(pts)
        }
        assert dominance_covers(moved) == shifted


def test_dominance_covers_full_row_and_column_are_chains():
    row = [(x, 4) for x in range(9)]
    column = [(-2, y) for y in range(-4, 5)]
    for line in (row, column):
        shuffled = list(line)
        random.Random(1).shuffle(shuffled)
        assert dominance_covers(shuffled) == set(zip(line, line[1:]))


def test_dominance_covers_rejects_duplicates_among_large_coordinates():
    big = 2**40
    with pytest.raises(DuplicatePointError):
        dominance_covers([(big, -big), (0, 0), (1, 2), (big, -big)])


def oracle_verdict(points, rows) -> bool:
    """The segments check as the oracles make it: the rows, as
    coordinate pairs, equal the dominance covers, and no row repeats.
    On points that share a cell both oracles raise, and it is False."""
    if len(set(points)) != len(points):
        with pytest.raises(DuplicatePointError):
            dominance_covers(points)
        return False
    actual = frozenset((points[a], points[b]) for a, b in rows.tolist())
    verdict = dominance_covers(points) == actual and len(actual) == len(rows)
    assert verdict == (reference_dominance_covers(points) == actual and len(actual) == len(rows))
    return verdict


def certified(points, rows) -> bool:
    """The certificate's verdict, once its counts are those the brute
    force finds."""
    xs = np.array([x for x, _ in points], np.int64)
    ys = np.array([y for _, y in points], np.int64)
    rows = np.asarray(rows, np.int64).reshape(-1, 2)
    faults = segment_faults(xs, ys, rows)
    assert faults == reference_segment_faults(points, rows.tolist())
    return not any(faults)


def cover_rows(points) -> np.ndarray:
    """The dominance covers of distinct points as id rows (lower, upper)."""
    ids = {pt: i for i, pt in enumerate(points)}
    rows = sorted((ids[a], ids[b]) for a, b in dominance_covers(points))
    return np.array(rows, np.int64).reshape(-1, 2)


def mutations(rows, n, rng):
    """The rows shuffled, and with one row dropped, added, duplicated,
    reversed, replaced by a random pair, or bent to a two-step pair
    (r, p) for rows (r, q), (q, p)."""
    m = len(rows)
    yield rows[rng.sample(range(m), m)]
    if n:
        yield np.vstack((rows, [(rng.randrange(n), rng.randrange(n))]))
    if not m:
        return
    k = rng.randrange(m)
    yield np.delete(rows, k, axis=0)
    replaced = rows.copy()
    replaced[k] = (rng.randrange(n), rng.randrange(n))
    yield replaced
    yield np.vstack((rows, rows[k]))
    reversed_row = rows.copy()
    reversed_row[k] = rows[k, ::-1]
    yield reversed_row
    # the rows j ending where row i starts, in increasing j, from the
    # rows sorted by upper end
    by_upper = np.argsort(rows[:, 1], kind="stable")
    ends = rows[by_upper, 1]
    starts = np.searchsorted(ends, rows[:, 0]), np.searchsorted(ends, rows[:, 0], "right")
    two_steps = [
        (i, j) for i, (a, b) in enumerate(zip(*starts)) for j in by_upper[a:b].tolist()
    ]
    if two_steps:
        i, j = rng.choice(two_steps)
        bent = rows.copy()
        bent[i, 0] = rows[j, 0]
        yield bent


def assert_certificate_agrees(points, rows, rng):
    """On the rows and on each of their mutations, the certificate's
    verdict is the oracles'."""
    assert certified(points, rows) == oracle_verdict(points, rows), (points, rows)
    for mutated in mutations(rows, len(points), rng):
        assert certified(points, mutated) == oracle_verdict(points, mutated), (points, mutated)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-3, 8), st.integers(-3, 8)), max_size=14),
    st.integers(0, 2**32),
)
def test_certificate_agrees_with_the_oracles_on_point_sets(points, seed):
    rng = random.Random(seed)
    if len(set(points)) == len(points):
        rows = cover_rows(points)
    else:
        # points sharing a cell: no segment set passes
        rows = np.array([(rng.randrange(len(points)), rng.randrange(len(points))) for _ in range(3)])
    assert_certificate_agrees(points, rows, rng)


def suite_diagrams():
    for r in random_realizer_suite():
        yield build_diagram(r)
    for k in range(1, 21):
        yield build_diagram(gen_worstcase(k))
    for t in all_sp_trees(6):
        yield sp_layout(t)


def test_certificate_agrees_with_the_oracles_on_the_suite_scenes():
    rng = random.Random(0)
    for d in suite_diagrams():
        points = list(zip(d.scene.xs.tolist(), d.scene.ys.tolist()))
        assert certified(points, d.segments)
        assert_certificate_agrees(points, d.segments, rng)


@pytest.mark.parametrize("d", [build_diagram(gen_worstcase(32)), build_diagram(gen_random(128, 0))])
def test_certificate_agrees_with_the_oracles_on_benchmark_sized_scenes(d):
    points = list(zip(d.scene.xs.tolist(), d.scene.ys.tolist()))
    assert len(np.unique(d.scene.xs)) > ROW_BLOCK  # more than one block of x ranks
    for seed in range(3):
        assert_certificate_agrees(points, d.segments, random.Random(seed))


@pytest.mark.parametrize("family, size", [("random", 1024), ("worst", 128)])
def test_certificate_rejects_every_mutation_above_the_old_size_limit(family, size):
    # 29,182 and 17,155 points: each mutation but the shuffle fails,
    # and the counts name what it broke
    r = gen_random(size, 0) if family == "random" else gen_worstcase(size)
    d = build_diagram(r)
    xs, ys = d.scene.xs, d.scene.ys
    assert segment_faults(xs, ys, d.segments) == (0, 0, 0)
    shuffled, *mutated = mutations(d.segments, len(xs), random.Random(size))
    assert segment_faults(xs, ys, shuffled) == (0, 0, 0)
    found = [segment_faults(xs, ys, rows) for rows in mutated]
    assert len(found) == 6 and all(any(faults) for faults in found), found
    # a dropped row leaves its upper end with a point below no lower end
    assert found[1] == (0, 0, 1)


def test_certificate_on_an_empty_and_a_one_point_scene():
    assert certified([], [])
    assert not certified([], [(0, 0)])
    assert certified([(5, -3)], [])
    assert not certified([(5, -3)], [(0, 0)])
    assert not certified([(5, -3)], [(0, 1)])


def test_certificate_takes_the_rows_in_any_order():
    points = [(0, 0), (1, 1), (2, 2), (0, 3), (3, 0), (3, 3)]
    rows = cover_rows(points)
    assert len(rows) == 7
    for seed in range(10):
        shuffled = rows[random.Random(seed).sample(range(7), 7)]
        assert certified(points, shuffled) and oracle_verdict(points, shuffled)


def test_certificate_rejects_two_lower_ends_in_one_column():
    # (0, 0) < (0, 1) < (1, 2): the lower of the two is no cover of the top
    points = [(0, 0), (0, 1), (1, 2)]
    assert certified(points, [(0, 1), (1, 2)])
    for rows in ([(0, 2), (1, 2)], [(0, 1), (1, 2), (0, 2)], [(1, 2), (0, 2)]):
        rows = np.array(rows)
        assert not certified(points, rows)
        assert not oracle_verdict(points, rows)


def test_certificate_rejects_a_row_that_falls():
    # (0, 2) -> (1, 1) falls in y; in place of the cover (1, 0) -> (1, 1)
    # its signed rectangle counts at (1, 1) still sum to 1, -1 + 2, so
    # only the check that rows rise rejects it
    points = [(1, 0), (0, 2), (1, 1)]
    assert certified(points, [(0, 2)])
    assert not certified(points, [(1, 2)])
    assert not oracle_verdict(points, np.array([(1, 2)]))


@pytest.mark.parametrize("dx, dy", [(2**40, 0), (0, -(2**40)), (-7, -3)])
def test_certificate_is_translation_invariant(dx, dy):
    for pts in point_soups(200):
        rows = cover_rows(pts)
        moved = [(x + dx, y + dy) for x, y in pts]
        assert certified(moved, rows)


def test_dimension_oracle_accepts_chains_and_k22():
    chain = poset_from_relations(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert order_dimension_le2(chain)
    assert order_dimension_le2(k22())


def test_dimension_oracle_rejects_standard_example():
    assert not order_dimension_le2(s3())


def test_dimension_oracle_guard():
    with pytest.raises(TooLargeForOracle):
        order_dimension_le2(random_poset(8, 0))


def test_linear_extensions_of_antichain_count():
    p = poset_from_relations(["a", "b", "c"], [])
    assert sum(1 for _ in linear_extensions(p)) == 6


def test_linear_extensions_respect_order():
    p = poset_from_relations(["a", "b", "c"], [("a", "b")])
    for ext in linear_extensions(p):
        assert ext.index(p.index("a")) < ext.index(p.index("b"))
