"""Tests of the benchmark's own input writers and output checks.

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from confluent_hasse import bench, cli  # noqa: E402
from confluent_hasse.poset import parse_edge_list  # noqa: E402
from confluent_hasse.realizer import Realizer, poset_from_realizer  # noqa: E402
from confluent_hasse.sp import SpLeaf, SpSeries, parse_sp, sp_leaves  # noqa: E402


def as_tuples(tree):
    """A parsed SpTree in the benchmark's tuple form."""
    out = []
    stack = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, SpLeaf):
            out.append(node.label)
        elif expanded:
            right = out.pop()
            left = out.pop()
            out.append((";" if isinstance(node, SpSeries) else "|", left, right))
        else:
            stack += [(node, True), (node.right, False), (node.left, False)]
    return out[0]


def postorder(tree):
    """Leaves and operators in postorder, which fixes a binary tree;
    compared in place of the nested tuples, whose == recurses."""
    out = []
    stack = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, str) or expanded:
            out.append(node if isinstance(node, str) else node[0])
        else:
            stack += [(node, True), (node[2], False), (node[1], False)]
    return out


@pytest.mark.parametrize("n,seed", [(1, 0), (7, 3), (64, 11), (500, 5)])
def test_generators_match_the_package(n, seed):
    r = bench.gen_random(n, seed)
    assert workloads.random_realizer(n, seed) == (r.l1, r.l2)
    w = bench.gen_worstcase(n)
    assert workloads.worstcase_realizer(n) == (w.l1, w.l2)
    assert postorder(workloads.random_sp(n, seed)) == postorder(as_tuples(bench.gen_random_sp(n, seed)))


def _chain(op, n, right):
    tree = "x0"
    for i in range(1, n):
        tree = (op, f"x{i}", tree) if right else (op, tree, f"x{i}")
    return tree


@pytest.mark.parametrize(
    "tree",
    [
        "a",
        (";", "a", "b"),
        ("|", (";", "a", "b"), "c"),
        (";", "a", (";", "b", "c")),
        ("|", "a", ("|", "b", "c")),
        ("|", "a", (";", "b", "c")),
        (";", ("|", "a", "b"), ("|", "c", "d")),
        _chain(";", 3000, right=False),
        _chain("|", 3000, right=False),
        _chain(";", 200, right=True),
        _chain("|", 200, right=True),
    ]
    + [workloads.random_sp(n, seed) for n, seed in [(2, 1), (9, 2), (40, 3), (2000, 4)]],
)
def test_sp_text_round_trips_through_parse_sp(tree):
    parsed = parse_sp(workloads.sp_text(tree))
    assert sp_leaves(parsed) == workloads.sp_leaf_labels(tree)
    assert postorder(as_tuples(parsed)) == postorder(tree)


def test_sp_text_uses_no_needless_parentheses():
    assert workloads.sp_text(_chain(";", 4, right=False)) == "x0 ; x1 ; x2 ; x3\n"
    assert workloads.sp_text(("|", (";", "a", "b"), "c")) == "(a ; b) | c\n"
    assert workloads.sp_text((";", "a", ("|", "b", "c"))) == "a ; b | c\n"


@pytest.mark.parametrize("n,seed", [(1, 0), (12, 1), (40, 2)])
def test_edge_list_denotes_the_realizer_order(n, seed):
    l1, l2 = workloads.random_realizer(n, seed)
    text = workloads.edge_list_text(l1, l2, random.Random(seed))
    assert parse_edge_list(text) == poset_from_realizer(Realizer(l1, l2))


def test_verify_lines_counts_skips_whatever_their_wording():
    stderr = (
        "PASS segments: skipped: too many points for the cover oracle\n"
        "FAIL smooth: smooth 17 pairs vs covers 15\n"
        "PASS planar\n"
        "SKIP degrees: not run\n"
        "WARN completion check skipped: instance exceeds oracle size limit\n"
        "error: something else\n"
    )
    assert checks.verify_lines(stderr) == [
        ("SKIP", "segments"),
        ("FAIL", "smooth"),
        ("PASS", "planar"),
        ("SKIP", "degrees"),
        ("SKIP", "completion"),
    ]


def _draw(tmp_path, item):
    src = tmp_path / "in.txt"
    src.write_text(item.text)
    out = tmp_path / f"out.{item.emit}"
    assert cli.run(item.argv(str(src), str(out))) == 0
    return out.read_bytes()


def test_json_check_accepts_the_drawing_and_rejects_a_wrong_order(tmp_path):
    item = workloads.build("worst/k3")
    data = _draw(tmp_path, item)
    problem, junctions = checks.check_output(item, data)
    assert problem is None and junctions == json.loads(data)["stats"]["junctions"] > 0
    doc = json.loads(data)
    verts = [node for node in doc["nodes"] if node["kind"] == "vertex"]
    verts[0]["grid"], verts[1]["grid"] = verts[1]["grid"], verts[0]["grid"]
    assert checks.check_output(item, json.dumps(doc).encode())[0] is not None


def test_json_check_rejects_a_downward_segment(tmp_path):
    item = workloads.build("worst/k3")
    doc = json.loads(_draw(tmp_path, item))
    seg = doc["segments"][0]
    seg["from"], seg["to"] = seg["to"], seg["from"]
    assert "does not go up" in checks.check_output(item, json.dumps(doc).encode())[0]


def test_svg_check_counts_labels_and_junctions(tmp_path):
    item = workloads.build("edges/n256/s0")
    data = _draw(tmp_path, item)
    problem, junctions = checks.check_output(item, data)
    l1, l2 = workloads.random_realizer(256, 0)
    diagram = bench.timed_pipeline(Realizer(l1, l2))[0]
    assert problem is None and junctions == diagram.junction_count()
    lines = data.decode().splitlines(keepends=True)
    drop = next(i for i, line in enumerate(lines) if "<text" in line)
    dropped = "".join(lines[:drop] + lines[drop + 1 :]).encode()
    assert "labelled vertices" in checks.check_output(item, dropped)[0]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    import run

    assert run.tail([float(v) for v in range(1, 101)]) == (90.0, 90)
    assert run.tail([float(v) for v in range(1, 31)]) == (20.0, 66)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100)


def test_self_time_subtracts_direct_children_only():
    from tracer import layer_totals

    spans = [
        ["cli.run", 0.0, 1.0, -1, 0],
        ["diagram.validate_diagram", 0.1, 0.6, 0, 0],
        ["diagram.smooth_adjacency", 0.2, 0.3, 1, 0],
        ["render.to_json", 0.7, 0.9, 0, 0],
    ]
    rows = layer_totals(spans)
    assert rows["cli.run"]["self_ms"] == pytest.approx(300.0)
    assert rows["diagram.validate_diagram"]["self_ms"] == pytest.approx(400.0)
    assert rows["diagram.smooth_adjacency"]["ms"] == pytest.approx(100.0)
    assert rows["realizer.realizer_of"]["calls"] == 0


def test_tracer_records_the_cli_path_and_restores_it(tmp_path, capsys):
    from confluent_hasse import bench, diagram, oracle, render
    from tracer import Tracer

    modules = {"cli": cli, "bench": bench, "diagram": diagram, "oracle": oracle, "render": render}
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    item = workloads.build("verify-worst/k2")
    src = tmp_path / "in.txt"
    src.write_text(item.text)
    tracer = Tracer(modules)
    tracer.install(0)
    rc = cli.run(item.argv(str(src), str(tmp_path / "out.json")))
    tracer.uninstall()
    assert rc == 0
    assert {name: dict(vars(mod)) for name, mod in modules.items()} == before
    parents = {span[0]: tracer.spans[span[3]][0] for span in tracer.spans if span[3] >= 0}
    assert parents["diagram.validate_diagram"] == "cli.run"
    assert parents["diagram.smooth_adjacency"] == "diagram.validate_diagram"
    assert parents["grid.insert_junctions"] == "cli.run"
    assert tracer.counts["grid.points"] > tracer.counts["grid.junctions"] > 0
    assert "render.to_json" in parents and "realizer.realizer_of" not in parents
