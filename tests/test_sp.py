import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confluent_hasse import (
    DuplicateLeafError,
    SpLeaf,
    SpParallel,
    SpSeries,
    SpSyntaxError,
    SpTree,
    build_diagram,
    dominance_covers,
    extremes,
    gen_random_sp,
    parse_sp,
    poset_from_relations,
    realizer_of,
    smooth_pairs,
    sp_layout,
    sp_leaves,
    sp_realizer,
    sp_to_poset,
    to_svg,
    transitive_reduction,
    verify_realizer,
)
from confluent_hasse.cli import run
from confluent_hasse.grid import INVISIBLE, JUNCTION, VERTEX
from confluent_hasse.sp import LEAF, PARALLEL, SERIES
from suites import (
    all_sp_trees,
    reference_parse_sp,
    sp_preorder,
    sp_text,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def sp_trees(max_leaves=8):
    # shapes: None for a leaf, (series?, left, right) otherwise; a tree
    # cannot repeat a leaf, so the leaves are labelled once the shape
    # is drawn
    def build(children):
        return st.tuples(st.booleans(), children, children)

    shapes = st.recursive(st.none(), build, max_leaves=max_leaves)

    def relabel(shape):
        counter = [0]

        def walk(node):
            if node is None:
                counter[0] += 1
                return SpLeaf(f"n{counter[0]}")
            series, left, right = node
            cls = SpSeries if series else SpParallel
            return cls(walk(left), walk(right))

        return walk(shape)

    return shapes.map(relabel)


def test_parse_series_left_assoc():
    assert parse_sp("a;b;c") == SpSeries(SpSeries(SpLeaf("a"), SpLeaf("b")), SpLeaf("c"))


def test_parse_parens_and_parallel():
    assert parse_sp("(a|b);(c|d)") == SpSeries(
        SpParallel(SpLeaf("a"), SpLeaf("b")), SpParallel(SpLeaf("c"), SpLeaf("d"))
    )


def test_parse_precedence_parallel_binds_tighter():
    assert parse_sp("a;b|c") == SpSeries(SpLeaf("a"), SpParallel(SpLeaf("b"), SpLeaf("c")))


def test_parse_whitespace_ignored():
    assert parse_sp(" a ;\n b ") == SpSeries(SpLeaf("a"), SpLeaf("b"))


def test_parse_error_double_series():
    with pytest.raises(SpSyntaxError) as err:
        parse_sp("a;;b")
    assert err.value.position == 2


def test_parse_error_reports_expected():
    with pytest.raises(SpSyntaxError, match="expected element name"):
        parse_sp("a|")
    with pytest.raises(SpSyntaxError, match=r"expected '\)'"):
        parse_sp("(a;b")
    with pytest.raises(SpSyntaxError, match="unexpected"):
        parse_sp("a)b")
    with pytest.raises(SpSyntaxError, match="empty"):
        parse_sp("   ")


def test_parse_duplicate_leaf():
    with pytest.raises(DuplicateLeafError):
        parse_sp("a;(b|a)")


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("a;(b|a", "expected ')'", 6),
        ("a;a)", "unexpected ')'", 3),
        ("a|a;;b", "expected element name", 4),
    ],
)
def test_parse_syntax_error_beats_duplicate_leaf(text, message, position):
    with pytest.raises(SpSyntaxError) as err:
        parse_sp(text)
    assert message in str(err.value)
    assert err.value.position == position


def test_parse_whitespace_is_what_str_isspace_says():
    # \x1c (file separator) is whitespace to str.isspace, so x and y are
    # two leaves with no operator between them
    assert "\x1c".isspace() and "\xa0".isspace()
    with pytest.raises(SpSyntaxError, match="unexpected 'y'") as err:
        parse_sp("x\x1cy")
    assert err.value.position == 2
    assert parse_sp("x\xa0;y") == SpSeries(SpLeaf("x"), SpLeaf("y"))
    # neither is whitespace, so both stay inside the label
    assert not "\u200b".isspace() and not "\x00".isspace()
    assert parse_sp("a\u200bb;c\x00d") == SpSeries(SpLeaf("a\u200bb"), SpLeaf("c\x00d"))


def _same_as_reference(text):
    """parse_sp gives what the reference parser gives, the same tree or
    the same error at the same position, and sp_layout draws exactly
    the general pipeline's diagram of that tree's realizer: the same
    points and segments, ids and order included."""
    try:
        want = reference_parse_sp(text)
    except ValueError as exc:
        with pytest.raises(type(exc)) as err:
            parse_sp(text)
        assert type(err.value) is type(exc), text
        assert str(err.value) == str(exc), text
        assert getattr(err.value, "position", None) == getattr(exc, "position", None), text
        return
    tree = parse_sp(text)
    assert sp_preorder(tree) == sp_preorder(want), text
    got = sp_layout(tree)
    assert got.segments.dtype == np.int64
    assert got == build_diagram(sp_realizer(want)), text


def test_parse_and_layout_equal_the_reference_on_every_small_tree():
    trees = all_sp_trees()
    assert len(trees) == 1619
    for t in trees:
        _same_as_reference(sp_text(t))
        _same_as_reference(sp_text(t, sep="", all_parens=True))


def test_parse_and_layout_equal_the_reference_on_random_trees():
    for seed in range(50):
        t = gen_random_sp(1 + seed * 7 % 200, seed)
        _same_as_reference(sp_text(t, sep="\n " if seed % 2 else ""))


@pytest.mark.parametrize("key", ["sp/n10000/s0", "sp/n10000/s7"])
def test_parse_and_layout_equal_the_reference_on_benchmark_items(key):
    _same_as_reference(workloads.build(key).text)


def test_parse_and_layout_equal_the_reference_on_a_large_tree():
    _same_as_reference(sp_text(gen_random_sp(10**5, 3)))


def test_parse_errors_equal_the_reference_on_malformed_input():
    texts = ["", " ", "(", ")", "()", "a b", "a;", ";a", "|", "a|(", "(a", "a)", "((a)", "(a))", "a(b)"]
    texts += ["a;(b|a", "a;a)", "a|a;;b", "a;a", "(a|b);(a|c)", "x\x1cy", "a ; (b | ) ; c"]
    # seeded corruptions of small expressions: a character deleted, or
    # punctuation, whitespace or a repeated name inserted
    rng = random.Random(9)
    inserts = [";", "|", "(", ")", " ", "\t", "a", "b c"]
    for t in all_sp_trees(4):
        for text in (sp_text(t), sp_text(t, sep="", all_parens=True)):
            for _ in range(3):
                at = rng.randrange(len(text) + 1)
                texts.append(text[:at] + text[at + 1 :])
                texts.append(text[:at] + rng.choice(inserts) + text[at:])
    for text in texts:
        _same_as_reference(text)


# characters on both sides of str.isspace: \x1c-\x1f, \x85, \xa0, the
# space and U+3000 are whitespace; U+200B and U+FEFF are not
FUZZ_SPACE_LIKE = ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", " ", "\u3000"]
FUZZ_SPACE_LIKE += ["\u200b", "\ufeff"]
FUZZ_ALPHABET = [";", "|", "(", ")", "a", "b", "c", "a1", *FUZZ_SPACE_LIKE]


def test_parse_and_layout_equal_the_reference_on_fuzzed_text():
    rng = random.Random(17)
    for _ in range(3000):
        _same_as_reference("".join(rng.choices(FUZZ_ALPHABET, k=rng.randrange(12))))
    # well-formed expressions, each also with a character of the
    # alphabet put in and with one character taken out
    for seed in range(300):
        text = sp_text(gen_random_sp(1 + seed % 9, seed), sep=rng.choice(FUZZ_SPACE_LIKE))
        at = rng.randrange(len(text) + 1)
        _same_as_reference(text)
        _same_as_reference(text[:at] + rng.choice(FUZZ_ALPHABET) + text[at:])
        _same_as_reference(text[:at] + text[at + 1 :])


def test_layout_rejects_a_tree_that_repeats_a_leaf():
    with pytest.raises(ValueError):
        sp_layout(SpSeries(SpLeaf("a"), SpParallel(SpLeaf("b"), SpLeaf("a"))))


@pytest.mark.parametrize("cls", [SpSeries, SpParallel])
def test_constructors_reject_a_repeated_leaf(cls):
    with pytest.raises(DuplicateLeafError):
        cls(SpLeaf("a"), SpLeaf("a"))
    with pytest.raises(DuplicateLeafError):
        cls(SpParallel(SpLeaf("a"), SpLeaf("b")), SpSeries(SpLeaf("c"), SpLeaf("b")))


def test_from_postorder_rejects_a_repeated_leaf():
    with pytest.raises(DuplicateLeafError):
        SpTree.from_postorder(["a", "b", "a"], bytes((LEAF, LEAF, SERIES, LEAF, PARALLEL)))
    labels, ops = gen_random_sp(40, 2).postorder()
    with pytest.raises(DuplicateLeafError):
        SpTree.from_postorder(labels[:-1] + labels[:1], ops)


def test_every_repeated_leaf_error_names_the_first_repeated_leaf():
    labels, ops = gen_random_sp(40, 2).postorder()
    a, b, c = SpLeaf("a"), SpLeaf("b"), SpLeaf("c")
    three = bytes((LEAF, LEAF, SERIES, LEAF, PARALLEL))
    cases = [
        (lambda: parse_sp("a;(b|a);b"), "a"),
        (lambda: parse_sp("c;(b|a);b;a"), "b"),
        (lambda: SpSeries(SpParallel(a, b), SpSeries(c, b)), "b"),
        (lambda: SpParallel(SpLeaf("x"), SpLeaf("x")), "x"),
        (lambda: SpTree.from_postorder(["a", "b", "a"], three), "a"),
        (lambda: SpTree.from_postorder(labels[:-1] + labels[:1], ops), labels[0]),
    ]
    for make, leaf in cases:
        with pytest.raises(DuplicateLeafError) as err:
            make()
        assert str(err.value) == f"leaf {leaf!r} occurs twice"


def test_sp_to_poset_k22():
    p = sp_to_poset(parse_sp("(a|b);(c|d)"))
    expected = poset_from_relations(
        ["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    )
    assert p == expected


def test_sp_to_poset_chain_and_antichain():
    chain = sp_to_poset(parse_sp("a;b"))
    assert chain.holds("a", "b") and not chain.holds("b", "a")
    anti = sp_to_poset(parse_sp("a|b|c"))
    assert transitive_reduction(anti) == frozenset()


def test_layout_k22_junction_and_segments():
    d = sp_layout(parse_sp("(a|b);(c|d)"))
    assert d.junction_count() == 1
    assert len(d.segments) == 8  # the 4 tracks, and both minima and maxima to their bounds
    pts = d.scene.points
    visible = [
        (lo, hi) for lo, hi in d.segments.tolist() if INVISIBLE not in (pts[lo].kind, pts[hi].kind)
    ]
    assert sorted(visible) == [(0, 4), (1, 4), (4, 2), (4, 3)]
    assert smooth_pairs(d) == {("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")}


def test_layout_k22_matches_golden_svg():
    d = sp_layout(parse_sp("(a|b);(c|d)"))
    assert "".join(to_svg(d)) == (Path(__file__).parent / "data" / "k22.svg").read_text()


def test_layout_chain_has_no_junction():
    d = sp_layout(parse_sp("a;b;c"))
    assert d.junction_count() == 0
    assert smooth_pairs(d) == {("a", "b"), ("b", "c")}


def test_layout_nested_parallel_keeps_inner_junction():
    d = sp_layout(parse_sp("((a|b);(c|d))|e"))
    assert d.junction_count() == 1


def test_layout_unique_extreme_connects_directly():
    # one maximal element below: direct fan, no junction
    d = sp_layout(parse_sp("a;(b|c)"))
    assert d.junction_count() == 0
    assert smooth_pairs(d) == {("a", "b"), ("a", "c")}


@settings(max_examples=80, deadline=None)
@given(sp_trees())
def test_layout_segments_are_dominance_covers(t):
    d = sp_layout(t)
    pts = d.scene.points
    got = {((pts[a].x, pts[a].y), (pts[b].x, pts[b].y)) for a, b in d.segments.tolist()}
    assert got == dominance_covers([(q.x, q.y) for q in pts])


@settings(max_examples=80, deadline=None)
@given(sp_trees())
def test_layout_smooth_equals_covers(t):
    d = sp_layout(t)
    assert smooth_pairs(d) == transitive_reduction(sp_to_poset(t))


@settings(max_examples=50, deadline=None)
@given(sp_trees())
def test_sp_orders_have_dimension_at_most_two(t):
    p = sp_to_poset(t)
    r = realizer_of(p)
    assert verify_realizer(p, r)


@settings(max_examples=50, deadline=None)
@given(sp_trees())
def test_junction_count_matches_general_pipeline(t):
    p = sp_to_poset(t)
    general = build_diagram(realizer_of(p))
    assert sp_layout(t).junction_count() == general.junction_count()


@settings(max_examples=60, deadline=None)
@given(sp_trees())
def test_layout_grid_bounds_and_kinds(t):
    d = sp_layout(t)
    side = d.scene.side
    for p in d.scene.points:
        assert 1 <= p.x <= side and 1 <= p.y <= side
        if p.kind == VERTEX:
            assert p.x % 2 == 0 and p.y % 2 == 0
        else:
            assert p.kind in (JUNCTION, INVISIBLE)
            assert p.x % 2 == 1 and p.y % 2 == 1
    cells = [(p.x, p.y) for p in d.scene.points]
    assert len(cells) == len(set(cells))
    # one invisible bound per missing least or greatest element
    ext = extremes(sp_to_poset(t))
    expected = ([] if ext.least else [(1, 1)]) + ([] if ext.greatest else [(side, side)])
    assert [(p.x, p.y) for p in d.scene.points if p.kind == INVISIBLE] == expected


@settings(max_examples=40, deadline=None)
@given(sp_trees())
def test_layout_passes_full_validation(t):
    from confluent_hasse import validate_diagram

    report = validate_diagram(sp_layout(t), sp_to_poset(t))
    assert report.ok, report.summary()


def test_layout_equals_general_pipeline_on_the_tree_realizer():
    # the linear-time layout draws exactly what place, complete and
    # sweep draw for the same realizer, point ids and segment order
    # included; this also holds the layout's second order (next2) and
    # sp_realizer's (_swapped_leaves) to one rule
    trees = all_sp_trees(5) + [gen_random_sp(1 + s % 40, s) for s in range(300)]
    trees += [gen_random_sp(n, seed) for n, seed in ((300, 1), (10**4, 0), (10**4, 3), (10**5, 0))]
    for t in trees:
        assert sp_layout(t) == build_diagram(sp_realizer(t)), sp_text(t)[:200]


def _cli_bytes(tmp_path, capsys, fmt, text, flags):
    src = tmp_path / f"in.{fmt}"
    out = tmp_path / f"out.{fmt}"
    src.write_text(text)
    assert run([str(src), "--input-format", fmt, "--out", str(out), *flags]) == 0
    return out.read_bytes(), capsys.readouterr()


@pytest.mark.parametrize(
    "flags",
    [["--emit", "json"], ["--emit", "svg"], ["--show-invisible"], ["--verify", "--emit", "json"]],
)
def test_sp_and_realizer_input_give_the_same_bytes(tmp_path, capsys, flags):
    # a series-parallel expression and its tree's realizer, typed as two
    # lines, are one order with one drawing: the same file and report
    trees = all_sp_trees(4)
    trees += [gen_random_sp(n, seed) for n, seed in ((300, 1), (10**4, 0), (10**4, 7))]
    assert len(trees) == 54
    for t in trees:
        r = sp_realizer(t)
        realizer_text = " ".join(r.l1) + "\n" + " ".join(r.l2) + "\n"
        got = _cli_bytes(tmp_path, capsys, "sp", sp_text(t) + "\n", flags)
        assert got == _cli_bytes(tmp_path, capsys, "realizer", realizer_text, flags), sp_text(t)[:200]


def test_sp_realizer_swaps_parallel_parts_in_the_second_order():
    r = sp_realizer(parse_sp("(a|b);((c;d)|e)"))
    assert r.l1 == ("a", "b", "c", "d", "e")
    assert r.l2 == ("b", "a", "e", "c", "d")


def test_gen_random_sp_is_deterministic():
    assert gen_random_sp(12, 5) == gen_random_sp(12, 5)
    assert gen_random_sp(12, 5) != gen_random_sp(12, 6)
    assert sorted(sp_leaves(gen_random_sp(12, 5))) == sorted(f"e{i}" for i in range(12))


def test_deep_chain_layout_is_iterative():
    # a 5000-leaf left comb would overflow a recursive traversal
    expr = ";".join(f"v{i}" for i in range(5000))
    d = sp_layout(parse_sp(expr))
    assert d.junction_count() == 0
    assert len(d.segments) == 4999


def test_deep_trees_compare_hash_and_print_without_recursion():
    # a 10^5-leaf left comb: ==, hash and repr read the flat sequences
    n = 10**5
    expr = ";".join(f"v{i}" for i in range(n))
    comb = parse_sp(expr)
    assert comb == parse_sp(expr)
    assert hash(comb) == hash(parse_sp(expr))
    text = repr(comb)
    assert text.startswith("SpSeries(" * (n - 1) + "SpLeaf('v0'), SpLeaf('v1')), SpLeaf('v2'))")
    assert text.endswith("SpLeaf('v99999'))")
    # the same leaves as a right comb, and with the last step parallel
    right = parse_sp(";".join(f"(v{i}" for i in range(n - 1)) + f";v{n - 1}" + ")" * (n - 1))
    assert sp_leaves(right) == sp_leaves(comb)
    assert right != comb
    assert parse_sp(expr[: expr.rindex(";")] + "|" + f"v{n - 1}") != comb


def test_tree_views_and_constructors_agree():
    t = parse_sp("(a|b);((c;d)|e)")
    assert isinstance(t, SpSeries) and isinstance(t.left, SpParallel)
    assert t.left == SpParallel(SpLeaf("a"), SpLeaf("b"))
    assert t.right.left.right == SpLeaf("d") and t.right.right.label == "e"
    assert SpSeries(t.left, t.right) == t and hash(SpSeries(t.left, t.right)) == hash(t)
    assert repr(t) == (
        "SpSeries(SpParallel(SpLeaf('a'), SpLeaf('b')), "
        "SpParallel(SpSeries(SpLeaf('c'), SpLeaf('d')), SpLeaf('e')))"
    )
    assert eval(repr(t)) == t
    assert SpLeaf("a") != "a" and SpSeries(SpLeaf("a"), SpLeaf("b")) != SpParallel(
        SpLeaf("a"), SpLeaf("b")
    )
    with pytest.raises(AttributeError):
        t.left = SpLeaf("z")


@pytest.mark.parametrize(
    "labels, ops",
    [([], b""), (["a"], b""), (["a", "b"], b"\x00\x00"), (["a"], b"\x00\x01"), (["a"], b"\x03")],
)
def test_from_postorder_rejects_what_is_not_one_tree(labels, ops):
    with pytest.raises(ValueError):
        SpTree.from_postorder(labels, ops)


def test_from_postorder_round_trips():
    t = gen_random_sp(40, 2)
    assert SpTree.from_postorder(*t.postorder()) == t
    assert SpTree.from_postorder(*t.right.postorder()) == t.right
