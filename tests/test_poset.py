import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confluent_hasse import (
    CycleError,
    DuplicateLabelError,
    Poset,
    UnknownLabelError,
    extremes,
    gen_random,
    gen_worstcase,
    parse_edge_list,
    poset_from_realizer,
    poset_from_relations,
    sp_to_poset,
    transitive_reduction,
)
from confluent_hasse import poset
from confluent_hasse.poset import _closure, masks_to_rows
from suites import (
    all_sp_trees,
    leq_of,
    poset_of_matrix,
    random_poset,
    random_realizer_suite,
    reference_extremes,
    reference_transitive_closure,
    reference_transitive_reduction,
)


def k22():
    return poset_from_relations(
        ["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    )


def test_equality_across_label_orders_unpacks_no_matrix():
    # a chain of 5,000 given in two label orders: the masks are
    # renumbered a block of rows at a time, and no n x n matrix (25 MB)
    # is unpacked
    import tracemalloc

    labels = [f"e{i:04d}" for i in range(5000)]
    chain = list(zip(labels, labels[1:]))
    p = poset_from_relations(labels, chain)
    q = poset_from_relations(labels[::-1], chain)
    other = poset_from_relations(labels[::-1], chain[1:])
    tracemalloc.start()
    try:
        same, differ = p == q, p == other
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same and not differ
    assert peak < 25_000_000


def test_antichain_relation_is_diagonal():
    p = poset_from_relations(["a", "b", "c"], [])
    assert (leq_of(p) == np.eye(3, dtype=bool)).all()


def test_chain_closure_infers_transitivity():
    p = poset_from_relations(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.holds("a", "c")
    assert not p.holds("c", "a")


def test_two_cycle_is_rejected():
    with pytest.raises(CycleError):
        poset_from_relations(["a", "b"], [("a", "b"), ("b", "a")])


def test_longer_cycle_is_rejected():
    with pytest.raises(CycleError):
        poset_from_relations(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])


@pytest.mark.parametrize(
    "text, message",
    [
        ("a b\nb a\n", "antisymmetry violated: 'a' and 'b'"),
        ("a b\nb c\nc a\n", "antisymmetry violated: 'a' and 'b'"),
        # the cycle w -> v -> u -> w is among labels declared after x, y
        # and z, and its first line is not its first pair in label order
        ("x y\nnode z\ny w\nw v\nv u\nu w\n", "antisymmetry violated: 'w' and 'v'"),
    ],
)
def test_cycle_error_names_the_first_pair_in_label_order(text, message):
    with pytest.raises(CycleError) as caught:
        parse_edge_list(text)
    assert str(caught.value) == message


def test_closure_matches_the_reference_closure():
    # seeded relations on up to 30 elements, with n = 0 first: random
    # pairs give cycles and isolated elements, and some pairs are
    # self-loops or repeated
    rng = random.Random(7)
    cases = [(0, [])]
    for i in range(600):
        n = 1 + i % 30
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(2 * n))]
        pairs += pairs[: len(pairs) // 4]
        cases.append((n, pairs))
    seen = {"cyclic": 0, "self-loop": 0, "duplicate": 0, "isolated": 0}
    for n, pairs in cases:
        mat = np.zeros((n, n), dtype=bool)
        for a, b in pairs:
            mat[a, b] = True
        expected = reference_transitive_closure(mat)
        up, down = _closure(n, pairs)
        assert len(up) == len(down) == n
        assert (masks_to_rows(up, n) == expected).all(), (n, pairs)
        assert (masks_to_rows(down, n) == expected.T).all(), (n, pairs)

        # the same relation as an edge list whose "node" lines declare
        # the elements in index order
        labels = [f"v{i}" for i in range(n)]
        lines = [f"node {lab}" for lab in labels]
        lines += [f"{labels[a]} {labels[b]}" for a, b in pairs]
        sym = expected & expected.T & ~np.eye(n, dtype=bool)
        if sym.any():
            a, b = np.argwhere(sym)[0]
            with pytest.raises(CycleError, match=f"^antisymmetry violated: 'v{a}' and 'v{b}'$"):
                parse_edge_list("\n".join(lines))
        else:
            assert (leq_of(parse_edge_list("\n".join(lines))) == expected).all()

        seen["cyclic"] += bool(sym.any())
        seen["self-loop"] += any(a == b for a, b in pairs)
        seen["duplicate"] += len(set(pairs)) < len(pairs)
        seen["isolated"] += len({x for pair in pairs for x in pair}) < n
    assert min(seen.values()) >= 50, seen


def relabelled(p: Poset, rng: random.Random) -> Poset:
    """The same order with its elements numbered in a shuffled order."""
    perm = list(range(p.n))
    rng.shuffle(perm)
    return poset_of_matrix([p.labels[i] for i in perm], leq_of(p)[np.ix_(perm, perm)])


def shuffled_edge_list(p: Poset, rng: random.Random) -> str:
    """Every strict pair of p, and a "node" line per element, as
    edge-list lines in shuffled order: the first appearance of the
    labels, which numbers them, is then no linear extension."""
    lines = [f"{a} {b}" for a in p.labels for b in p.labels if a != b and p.holds(a, b)]
    lines += [f"node {lab}" for lab in p.labels]
    rng.shuffle(lines)
    return "\n".join(lines)


def is_linear_extension(p: Poset) -> bool:
    return all(u >> i << i == u for i, u in enumerate(p.up))


def test_masks_are_reflexive_and_down_is_the_transpose_of_up():
    rng = random.Random(3)
    orders = [poset_from_realizer(r) for r in random_realizer_suite(40)]
    orders += [sp_to_poset(t) for t in all_sp_trees(4)]
    orders += [random_poset(n, seed) for n in range(10) for seed in range(3)]
    orders += [parse_edge_list(shuffled_edge_list(p, rng)) for p in orders[::3]]
    orders += [poset_from_relations(["a", "b", "c"], [("a", "b"), ("b", "c")])]
    orders += [poset_from_relations([], []), poset_of_matrix([], np.zeros((0, 0), bool))]
    for p in orders:
        assert len(p.up) == len(p.down) == p.n
        assert all(u >> i & 1 for i, u in enumerate(p.up)), p
        assert (masks_to_rows(p.down, p.n) == masks_to_rows(p.up, p.n).T).all(), p
        # the matrix view agrees with holds, the matrix packs back to
        # the same masks, and the constructor takes every factory's masks
        leq = leq_of(p)
        assert all(leq[i, j] == p.holds(a, b) for i, a in enumerate(p.labels)
                   for j, b in enumerate(p.labels)), p
        q = poset_of_matrix(p.labels, leq)
        assert q.up == p.up and q.down == p.down, p
        assert Poset(p.labels, p.up, p.down) == p, p


def test_constructor_rejects_malformed_masks():
    labels = ["a", "b", "c"]
    up, down = [0b111, 0b110, 0b100], [0b001, 0b011, 0b111]  # a < b < c
    assert Poset(labels, up, down) == poset_from_relations(labels, [("a", "b"), ("b", "c")])
    malformed = [
        ("need 3 up-set and 3 down-set masks, got 2 and 3", up[:2], down),
        ("need 3 up-set and 3 down-set masks, got 3 and 2", up, down[:2]),
        ("need 3 up-set and 3 down-set masks, got 4 and 4", up + [0b1000], down + [0b1000]),
        ("masks of 'b' must hold its own bit", [0b111, 0b100, 0b100], down),
        ("masks of 'a' must hold its own bit", up, [0b000, 0b011, 0b111]),
        ("masks of 'c' must hold its own bit and none from 3 on", [0b111, 0b110, 0b1100], down),
        ("masks of 'a' must hold its own bit and none from 3 on", up, [0b1001, 0b011, 0b111]),
        ("masks of 'a' must hold its own bit and none from 3 on", [-1, 0b110, 0b100], down),
    ]
    for message, bad_up, bad_down in malformed:
        with pytest.raises(ValueError, match=message) as info:
            Poset(labels, bad_up, bad_down)
        assert info.type is ValueError
    # b <= c and c <= b: the first pair in label order is named
    with pytest.raises(CycleError, match="^antisymmetry violated: 'b' and 'c'$"):
        Poset(labels, [0b111, 0b110, 0b110], [0b001, 0b111, 0b111])
    with pytest.raises(CycleError, match="^antisymmetry violated: 'a' and 'b'$"):
        Poset(["a", "b"], [0b11, 0b11], [0b11, 0b11])
    with pytest.raises(DuplicateLabelError):
        Poset(["a", "a"], [0b01, 0b10], [0b01, 0b10])


def test_duplicate_and_unknown_labels():
    with pytest.raises(DuplicateLabelError):
        poset_from_relations(["a", "a"], [])
    with pytest.raises(UnknownLabelError):
        poset_from_relations(["a"], [("a", "z")])


def test_chain_reduction_drops_implied_pair():
    p = poset_from_relations(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert transitive_reduction(p) == {("a", "b"), ("b", "c")}


def test_antichain_reduction_empty():
    assert transitive_reduction(poset_from_relations(["a", "b"], [])) == frozenset()


def test_k22_reduction_keeps_all_four():
    # brute-force cover check over triples gives the same four pairs
    p = k22()
    covers = set()
    for a in p.labels:
        for b in p.labels:
            if a != b and p.holds(a, b):
                if not any(
                    x not in (a, b) and p.holds(a, x) and p.holds(x, b)
                    for x in p.labels
                ):
                    covers.add((a, b))
    assert transitive_reduction(p) == covers == {
        ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
    }


def test_extremes_on_chain():
    p = poset_from_relations(["a", "b", "c"], [("a", "b"), ("b", "c")])
    ext = extremes(p)
    assert ext == (frozenset({"a"}), frozenset({"c"}), "a", "c")


def test_extremes_on_k22():
    ext = extremes(k22())
    assert ext.minimal == {"a", "b"}
    assert ext.maximal == {"c", "d"}
    assert ext.least is None and ext.greatest is None


def test_extremes_single_element():
    ext = extremes(poset_from_relations(["x"], []))
    assert ext == (frozenset({"x"}), frozenset({"x"}), "x", "x")


def test_extremes_equal_the_reference_loops():
    orders = [poset_from_realizer(r) for r in random_realizer_suite()]
    orders += [sp_to_poset(t) for t in all_sp_trees(6)]
    orders += [poset_from_relations([], []), poset_from_relations(["x"], [])]
    for n in (2, 3, 7):
        labels = [f"e{i}" for i in range(n)]
        orders.append(poset_from_relations(labels, zip(labels, labels[1:])))
        orders.append(poset_from_relations(list(reversed(labels)), zip(labels, labels[1:])))
        orders.append(poset_from_relations(labels, []))
    for p in orders:
        assert extremes(p) == reference_extremes(p), p


@pytest.mark.parametrize("block", [poset.MASK_ROW_BLOCK, 3])
def test_reduction_equals_the_reference_product(block, monkeypatch):
    # with blocks of 3 rows, the renumbering unpacks most orders in several
    monkeypatch.setattr(poset, "MASK_ROW_BLOCK", block)
    orders = [poset_from_realizer(r) for r in random_realizer_suite(200)]
    orders += [sp_to_poset(t) for t in all_sp_trees(6)]
    orders += [poset_from_realizer(gen_worstcase(k)) for k in range(1, 21)]
    orders += [poset_from_realizer(gen_random(n, n)) for n in range(0, 301, 20)]
    # numbered in label order, each of these is a linear extension
    assert all(is_linear_extension(p) for p in orders)
    rng = random.Random(5)
    shuffled = [relabelled(random_poset(n, seed), rng) for n in range(12) for seed in range(8)]
    shuffled += [relabelled(random_poset(60, seed, 0.05), rng) for seed in range(4)]
    shuffled += [parse_edge_list(shuffled_edge_list(p, rng)) for p in orders[::7]]
    # chains numbered bottom last, top first, and top to bottom
    chain = [f"c{i} c{i + 1}" for i in range(49)]
    shuffled += [
        parse_edge_list("\n".join([f"node c{i}" for i in range(1, 50)] + chain)),
        parse_edge_list("\n".join(["node c49"] + chain)),
        parse_edge_list("\n".join(reversed(chain))),
    ]
    # these are not, so the reduction renumbers them first
    assert sum(not is_linear_extension(p) for p in shuffled) >= 100
    for p in orders + shuffled:
        assert transitive_reduction(p) == reference_transitive_reduction(p), p


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 10**6))
def test_reduction_closure_round_trip(n, seed):
    p = random_poset(n, seed)
    covers = transitive_reduction(p)
    assert poset_from_relations(p.labels, covers) == p


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(0, 10**6))
def test_reduction_is_minimal(n, seed):
    p = random_poset(n, seed)
    covers = transitive_reduction(p)
    for dropped in covers:
        rest = covers - {dropped}
        assert poset_from_relations(p.labels, rest) != p


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8), st.integers(0, 10**6))
def test_least_implies_unique_minimal(n, seed):
    ext = extremes(random_poset(n, seed))
    if ext.least is not None:
        assert ext.minimal == {ext.least}


def test_parse_edge_list_with_comments_and_nodes():
    p = parse_edge_list("# chain\na b\nb c  # implied a<=c\nnode z\n")
    assert set(p.labels) == {"a", "b", "c", "z"}
    assert p.holds("a", "c")
    assert not p.holds("z", "a") and not p.holds("a", "z")


def test_parse_edge_list_rejects_bad_lines():
    with pytest.raises(ValueError, match="line 2"):
        parse_edge_list("a b\na b c\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_edge_list("node\n")


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("a node\nnode b\n", 1),  # read before as "node <= b" dropped and b declared
        ("a b\nnode a\nnode node\n", 3),
        ("a b\n  node  c # fine\nc node\n", 3),
        ("node x\na node b\n", 2),
    ],
)
def test_parse_edge_list_rejects_node_as_a_label(text, lineno):
    with pytest.raises(ValueError, match=f"^line {lineno}: 'node' is a keyword, not a label"):
        parse_edge_list(text)


def test_node_inside_a_label_or_a_comment_is_no_keyword():
    p = parse_edge_list("nodes node1 # a node\nnode Node\n")
    assert p.labels == ("nodes", "node1", "Node") and p.holds("nodes", "node1")
