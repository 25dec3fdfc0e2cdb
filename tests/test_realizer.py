import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confluent_hasse import (
    DimensionExceedsTwo,
    MismatchedElementsError,
    Poset,
    Realizer,
    build_diagram,
    gen_random,
    gen_random_sp,
    gen_worstcase,
    parse_edge_list,
    parse_realizer,
    poset_from_realizer,
    poset_from_relations,
    realizer_of,
    transitive_reduction,
    verify_realizer,
)
from confluent_hasse.realizer import _forced_orientation
from confluent_hasse.sp import sp_realizer, sp_to_poset
from suites import (
    all_sp_trees,
    leq_of,
    order_dimension_le2,
    poset_of_matrix,
    random_poset,
    reference_orientation,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


@st.composite
def realizers(draw, max_n=9):
    n = draw(st.integers(0, max_n))
    labels = [f"e{i}" for i in range(n)]
    l1 = draw(st.permutations(labels))
    l2 = draw(st.permutations(labels))
    return Realizer(tuple(l1), tuple(l2))


def test_agreeing_orders_give_chain():
    p = poset_from_realizer(Realizer(("a", "b"), ("a", "b")))
    assert p.holds("a", "b") and not p.holds("b", "a")


def test_disagreeing_orders_give_antichain():
    p = poset_from_realizer(Realizer(("a", "b"), ("b", "a")))
    assert not p.holds("a", "b") and not p.holds("b", "a")


def test_k22_from_realizer():
    p = poset_from_realizer(Realizer(("a", "b", "c", "d"), ("b", "a", "d", "c")))
    expected = poset_from_relations(
        ["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    )
    assert p == expected


def test_realizer_rejects_mismatched_labels():
    with pytest.raises(MismatchedElementsError):
        Realizer(("a", "b"), ("a", "c"))
    with pytest.raises(MismatchedElementsError):
        Realizer(("a", "a"), ("a", "a"))


def test_chain_realizer_is_two_copies():
    p = poset_from_relations(["a", "b", "c"], [("a", "b"), ("b", "c")])
    r = realizer_of(p)
    assert r.l1 == r.l2 == ("a", "b", "c")


def test_k22_realizer_round_trips():
    p = poset_from_relations(
        ["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    )
    r = realizer_of(p)
    assert verify_realizer(p, r)


def _disjoint_union(first: Poset, second: Poset) -> Poset:
    n1, n2 = first.n, second.n
    leq = np.zeros((n1 + n2, n1 + n2), dtype=bool)
    leq[:n1, :n1] = leq_of(first)
    leq[n1:, n1:] = leq_of(second)
    return poset_of_matrix(first.labels + second.labels, leq)


def test_standard_example_is_rejected():
    labels = ["a1", "a2", "a3", "b1", "b2", "b3"]
    pairs = [(f"a{i}", f"b{j}") for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
    p = poset_from_relations(labels, pairs)
    with pytest.raises(DimensionExceedsTwo):
        realizer_of(p)
    # the same conflict inside a 156-element order, so that the forcing
    # masks are wider than one machine word, with S3 first and last
    big = poset_from_realizer(gen_random(150, 11))
    assert verify_realizer(big, realizer_of(big))
    for q in (_disjoint_union(big, p), _disjoint_union(p, big)):
        with pytest.raises(DimensionExceedsTwo):
            realizer_of(q)


def _successors(p: Poset) -> list[int] | None:
    """The successor masks of _forced_orientation, or None, after
    checking that its predecessor masks are their transpose."""
    got = _forced_orientation(p)
    if got is None:
        return None
    succ, pred = got
    transposed = [0] * p.n
    for u, mask in enumerate(succ):
        for w in range(p.n):
            if mask >> w & 1:
                transposed[w] |= 1 << u
    assert pred == transposed
    return succ


def _relabelled(p: Poset, seed: int) -> Poset:
    """The same order with its elements in a seeded shuffled index order."""
    perm = list(range(p.n))
    random.Random(seed).shuffle(perm)
    return poset_of_matrix([p.labels[i] for i in perm], leq_of(p)[np.ix_(perm, perm)])


def test_orientation_matches_reference_loop():
    # seeded orders of up to 40 elements at several densities, both of
    # dimension two and above, then 2,000 more of up to 30 elements
    outcomes = set()
    densities = (0.05, 0.15, 0.3, 0.5, 0.8)
    for density in densities:
        for n in range(0, 41, 4):
            for seed in range(3):
                p = random_poset(n, 1000 * seed + n, density)
                got = _successors(p)
                assert got == reference_orientation(p), (density, n, seed)
                outcomes.add(got is None)
    assert outcomes == {True, False}
    rejected = 0
    for i in range(2000):
        p = random_poset(i % 31, 50_000 + i, densities[i % 5])
        got = _successors(p)
        assert got == reference_orientation(p), i
        rejected += got is None
    assert 100 < rejected < 1900


def test_orientation_matches_reference_loop_on_antichains_and_chains():
    for n in range(65):
        labels = [f"e{i}" for i in range(n)]
        antichain = poset_from_relations(labels, [])
        chain = poset_from_relations(labels, list(zip(labels, labels[1:])))
        for p in (antichain, chain, _relabelled(chain, n)):
            got = _successors(p)
            assert got is not None and got == reference_orientation(p), n


def test_orientation_matches_reference_loop_on_shuffled_sp_trees():
    for i, tree in enumerate(all_sp_trees(6)):
        p = _relabelled(sp_to_poset(tree), i)
        got = _successors(p)
        assert got is not None and got == reference_orientation(p), i


@pytest.mark.parametrize("seed", range(16))
def test_orientation_matches_reference_loop_on_benchmark_edge_lists(seed):
    p = parse_edge_list(workloads.build(f"edges/n256/s{seed}").text)
    got = _successors(p)
    assert got is not None and got == reference_orientation(p)


@pytest.mark.parametrize("k", [1, 5, 20, 128])
def test_orientation_matches_reference_loop_on_worst_case(k):
    # k = 20 has 82 elements: masks wider than one machine word
    p = poset_from_realizer(gen_worstcase(k))
    got = _successors(p)
    assert got is not None and got == reference_orientation(p)


def _counts(r: Realizer) -> tuple[int, int]:
    d = build_diagram(r)
    return d.junction_count(), len(d.scene.xs)


def _read_back(r: Realizer, rng: random.Random) -> tuple[Realizer, Realizer]:
    """r with its labels renamed, and the realizer recognised from its
    order written as a shuffled edge list of covers and node lines."""
    rename = dict(zip(r.l1, (f"v{k}" for k in rng.sample(range(r.n), r.n))))
    covers = sorted(transitive_reduction(poset_from_realizer(r)))
    lines = [f"{rename[a]} {rename[b]}" for a, b in covers] + [f"node {rename[a]}" for a in r.l1]
    rng.shuffle(lines)
    renamed = Realizer([rename[a] for a in r.l1], [rename[a] for a in r.l2])
    return renamed, realizer_of(parse_edge_list("\n".join(lines)))


def test_every_realizer_of_one_order_gives_the_same_junction_and_point_counts():
    # the fewest junctions depend on the order alone, so two realizers
    # of one order must draw as many junctions and points: a check of
    # the paper's optimality claim past the sizes dm_completion reaches
    rng = random.Random(29)
    pairs = [_read_back(gen_random(rng.randint(2, 200), seed), rng) for seed in range(40)]
    for seed in range(40):
        t = gen_random_sp(rng.randint(2, 300), seed)
        pairs += [(sp_realizer(t), realizer_of(sp_to_poset(t))), _read_back(sp_realizer(t), rng)]
    different = 0
    for given, read in pairs:
        assert verify_realizer(poset_from_realizer(given), read)
        assert _counts(given) == _counts(read), given.n
        # (l2, l1) is the same realizer, mirrored
        different += {given.l1, given.l2} != {read.l1, read.l2}
    assert different >= len(pairs) // 4, different


def test_verify_realizer_examples():
    chain = poset_from_relations(["a", "b"], [("a", "b")])
    assert verify_realizer(chain, Realizer(("a", "b"), ("a", "b")))
    anti = poset_from_relations(["a", "b"], [])
    assert not verify_realizer(anti, Realizer(("a", "b"), ("a", "b")))
    with pytest.raises(MismatchedElementsError):
        verify_realizer(chain, Realizer(("a", "c"), ("a", "c")))


def test_a_long_chain_is_closed_and_recognised_in_linear_memory():
    # the order is held as two bitmasks per element, about 2 MB at this
    # size; an n x n bool matrix and its int64 or float copies would not fit
    n = 4000
    text = "".join(f"v{i} v{i + 1}\n" for i in range(n - 1))
    tracemalloc.start()
    try:
        p = parse_edge_list(text)
        r = realizer_of(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.l1 == r.l2 == tuple(f"v{i}" for i in range(n))
    assert peak < 8 * 2**20, peak


def test_empty_poset():
    p = poset_from_relations([], [])
    r = realizer_of(p)
    assert r.l1 == r.l2 == ()
    assert verify_realizer(p, r)


@settings(max_examples=100, deadline=None)
@given(realizers())
def test_round_trip_any_realizer(r):
    assert verify_realizer(poset_from_realizer(r), r)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 7), st.integers(0, 10**6), st.sampled_from([0.15, 0.3, 0.5]))
def test_recognition_agrees_with_exhaustive_oracle(n, seed, density):
    p = random_poset(n, seed, density)
    two_dim = order_dimension_le2(p)
    try:
        r = realizer_of(p)
    except DimensionExceedsTwo:
        assert not two_dim
    else:
        assert two_dim
        assert verify_realizer(p, r)


def test_recognition_is_deterministic():
    p = random_poset(7, 123)
    try:
        first = realizer_of(p)
        again = realizer_of(p)
        assert first == again
    except DimensionExceedsTwo:
        pass


def test_parse_realizer():
    r = parse_realizer("a b c\nc a b\n")
    assert r.l1 == ("a", "b", "c") and r.l2 == ("c", "a", "b")
    with pytest.raises(ValueError):
        parse_realizer("a b c\n")
