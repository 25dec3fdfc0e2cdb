import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from confluent_hasse import (
    Realizer,
    RenderOptions,
    bezier_controls,
    build_diagram,
    gen_random,
    gen_random_sp,
    gen_worstcase,
    parse_edge_list,
    parse_sp,
    realizer_of,
    rotate45,
    sp_layout,
    sweep_cover_edges,
    to_json,
    to_svg,
)
from confluent_hasse import render
from confluent_hasse.cli import EXIT_OK, run
from confluent_hasse.grid import INVISIBLE, JUNCTION, VERTEX
from confluent_hasse.render import _digit_table
from suites import reference_to_json, reference_to_svg, scene_of

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

DATA = Path(__file__).parent / "data"


def k22_diagram():
    return build_diagram(Realizer(("a", "b", "c", "d"), ("b", "a", "d", "c")))


def rotated(d):
    """Each point's rotated (u, v), by id."""
    return [rotate45(p.x, p.y) for p in d.scene.points]


def test_rotation_coordinates():
    d = k22_diagram()
    rot = rotated(d)
    by_label = {p.label: rot[i] for i, p in enumerate(d.scene.points) if p.label}
    assert by_label["a"] == (-2, 6)
    assert by_label["c"] == (-2, 14)
    (junction,) = [i for i, p in enumerate(d.scene.points) if p.kind == JUNCTION]
    assert rot[junction] == (0, 10)
    bottom = min(v for _u, v in rot)
    assert bottom == 2  # the (1,1) bound lands at (0, 2)


def test_rotation_makes_every_segment_ascend():
    d = k22_diagram()
    rot = rotated(d)
    assert len(d.segments) == 8
    for lo, hi in d.segments.tolist():
        assert rot[hi][1] > rot[lo][1]


def test_single_vertex_svg():
    svg = "".join(to_svg(build_diagram(Realizer(("x",), ("x",)))))
    assert svg.count("<path") == 0
    assert svg.count("<circle") == 1
    assert ">x</text>" in svg


def test_chain_svg_paths_are_degenerate_lines():
    svg = "".join(to_svg(build_diagram(Realizer(("x", "y"), ("x", "y")))))
    (path_line,) = [ln for ln in svg.splitlines() if "<path" in ln]
    # with no junction endpoints both controls coincide with endpoints
    d = path_line.split('d="')[1].split('"')[0]
    move, curve = d.split(" C ")
    x0, y0 = move.split()[1:]
    c1, c2, end = curve.split(", ")
    assert c1 == f"{x0} {y0}"
    assert c2 == end


def test_k22_svg_matches_frozen_snapshot():
    svg = "".join(to_svg(k22_diagram()))
    assert svg == (DATA / "k22.svg").read_text()


@pytest.mark.parametrize("flags", [[], ["--show-invisible"]])
def test_gallery_script_writes_its_five_examples(tmp_path, flags):
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    cmd = [sys.executable, str(root / "scripts" / "render_gallery.py"), "--out-dir", str(tmp_path)]
    proc = subprocess.run(cmd + flags, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "chain5.svg", "k22.svg", "random30.svg", "sp_nested.svg", "worstcase3.svg"
    ]
    if not flags:
        assert (tmp_path / "k22.svg").read_bytes() == (DATA / "k22.svg").read_bytes()


def test_k22_svg_visible_content():
    svg = "".join(to_svg(k22_diagram()))
    assert svg.count("<path") == 4  # invisible-incident tracks are hidden
    assert svg.count("<circle") == 5  # four labelled vertices plus the junction dot


def test_show_invisible_adds_their_tracks():
    svg = "".join(to_svg(k22_diagram(), RenderOptions(show_invisible=True)))
    assert svg.count("<path") == 8
    assert svg.count("<circle") == 7


def test_svg_determinism():
    a = "".join(to_svg(k22_diagram()))
    b = "".join(to_svg(k22_diagram()))
    assert a == b


def test_junction_controls_share_vertical_tangent():
    d = k22_diagram()
    (junction,) = [i for i, p in enumerate(d.scene.points) if p.kind == JUNCTION]
    ju, jv = rotated(d)[junction]
    delta = Fraction(1, 2)
    for lo, hi in d.segments.tolist():
        p0, c1, c2, p3 = bezier_controls(d.scene, lo, hi, delta)
        if lo == junction:
            assert c1 == (ju, jv + delta)
        if hi == junction:
            assert c2 == (ju, jv - delta)


def test_controls_are_v_monotone():
    for n, seed in ((9, 0), (20, 1)):
        d = build_diagram(gen_random(n, seed))
        delta = Fraction(1, 2)
        for lo, hi in d.segments.tolist():
            p0, c1, c2, p3 = bezier_controls(d.scene, lo, hi, delta)
            assert p0[1] <= c1[1] <= c2[1] <= p3[1]
            assert p0[1] < p3[1]


def test_bezier_offset_validation():
    with pytest.raises(ValueError):
        RenderOptions(bezier_offset=0.0)
    with pytest.raises(ValueError):
        RenderOptions(bezier_offset=1.0)


def test_json_single_vertex():
    doc = json.loads("".join(to_json(build_diagram(Realizer(("x",), ("x",))))))
    assert doc["n"] == 1
    assert len(doc["nodes"]) == 1
    assert doc["segments"] == []
    assert doc["stats"] == {"junctions": 0, "segments": 0, "gridSide": 3}


def test_json_k22_stats():
    doc = json.loads("".join(to_json(k22_diagram())))
    assert doc["stats"] == {"junctions": 1, "segments": 8, "gridSide": 9}
    kinds = [node["kind"] for node in doc["nodes"]]
    assert kinds.count("vertex") == 4
    assert kinds.count("junction") == 1
    assert kinds.count("invisible") == 2
    a = next(node for node in doc["nodes"] if node.get("label") == "a")
    assert a["grid"] == [2, 4] and a["rot"] == [-2, 6]


def test_json_antichain_serializes_invisible_tracks():
    doc = json.loads("".join(to_json(build_diagram(Realizer(("a", "b"), ("b", "a"))))))
    assert doc["stats"]["junctions"] == 0
    assert doc["stats"]["segments"] == 4


def test_json_determinism_and_sorted_keys():
    d = k22_diagram()
    assert "".join(to_json(d)) == "".join(to_json(d))
    doc = json.loads("".join(to_json(d)))
    assert list(doc) == sorted(doc)


def _writer_cases():
    yield "empty", build_diagram(Realizer((), ()))
    yield "single", build_diagram(Realizer(("x",), ("x",)))
    yield "chain", build_diagram(Realizer(("x", "y", "z"), ("x", "y", "z")))
    yield "k22", k22_diagram()
    odd = ('q"uote', "back\\slash", "&<>", "ctl\x01", "é→漢")
    yield "labels", build_diagram(Realizer(odd, odd[::-1]))
    yield "labels-k22", build_diagram(Realizer(odd[:4], (odd[1], odd[0], odd[3], odd[2])))
    not_xml = ("&amp;<", "a\x00>", "b\x01&", "c\x1b", "d\ufffe", "e\uffff", "\x0b\x0c\t")
    yield "labels-not-xml", build_diagram(Realizer(not_xml, not_xml[::-1]))
    # one run of labels whose escaped texts differ in width: \u00e9, a
    # surrogate pair, \" and a % that stays text
    widths = ("é", "😀", '"', "%s")
    yield "label-widths", build_diagram(Realizer(widths, widths[::-1]))
    # one label among many clean ones needs escaping: markup, a character
    # XML cannot carry, or a tab, which is not printable but stays
    for odd_one in ("a&b", "c\x01", "d\te"):
        labels = [f"v{i}" for i in range(30)]
        labels[17] = odd_one
        shuffled = random.Random(7).sample(labels, len(labels))
        yield f"one-odd-label-{odd_one!r}", build_diagram(Realizer(tuple(labels), tuple(shuffled)))
    for k in (1, 5, 20):
        yield f"worst{k}", build_diagram(gen_worstcase(k))
    for seed in range(50):
        yield f"random{seed}", build_diagram(gen_random(seed % 13, seed))
    for seed in range(50):
        yield f"sp{seed}", sp_layout(gen_random_sp(1 + seed % 17, seed))
    # larger sp_layout scenes: a run of vertices, of junctions, then
    # the bounds after the junctions
    for seed in range(3):
        yield f"sp-large{seed}", sp_layout(gen_random_sp(60, seed))
    # kinds and label presence that change from one id to the next: each
    # point its own run, or runs of two
    yield "interleaved", hand_built(
        (INVISIBLE, 1, 1, None), (VERTEX, 2, 2, "a"), (JUNCTION, 3, 5, None),
        (VERTEX, 4, 2, "b"), (JUNCTION, 5, 3, None), (INVISIBLE, 9, 9, None),
        (VERTEX, 2, 6, "c"), (VERTEX, 6, 4, "d"), (JUNCTION, 7, 7, None), (VERTEX, 8, 8, "e"),
    )
    yield "labelled-junction", hand_built(
        (VERTEX, 2, 2, "a"), (JUNCTION, 3, 3, 'j"1'), (JUNCTION, 5, 5, None), (VERTEX, 6, 6, "b"),
    )
    yield "unlabelled-vertex", hand_built(
        (VERTEX, 2, 2, "a"), (VERTEX, 4, 4, None), (VERTEX, 6, 6, None), (VERTEX, 8, 8, "d%s"),
    )
    # one input each of the sp-large and edges-random benchmark workloads
    yield "sp/n10000/s0", sp_layout(parse_sp(workloads.build("sp/n10000/s0").text))
    yield "edges/n256/s0", build_diagram(
        realizer_of(parse_edge_list(workloads.build("edges/n256/s0").text))
    )


def test_digit_table_is_the_text_of_each_integer():
    # every width from 1 to 6 digits, both signs, and 0
    lo, hi = -(10**4), 10**5
    table = _digit_table(lo, hi)
    width = len(str(hi))
    assert table.shape == (hi - lo + 1, width)
    expected = np.array([str(i).encode() for i in range(lo, hi + 1)], f"S{width}")
    assert table.tobytes() == expected.tobytes()


def hand_built(*points):
    """The diagram of explicit points (kind, x, y, label) on a 9 x 9 grid."""
    return sweep_cover_edges(scene_of(4, points))


WRITER_CASES = list(_writer_cases())

SVG_OPTIONS = [
    RenderOptions(),
    RenderOptions(show_invisible=True),
    RenderOptions(bezier_offset=0.25),
    # control y values at this offset fall on .2f rounding ties, so any
    # regrouping of the control-point arithmetic changes the text
    RenderOptions(bezier_offset=0.34625),
    RenderOptions(bezier_offset=0.01),
    RenderOptions(bezier_offset=0.37),
    RenderOptions(bezier_offset=0.99),
    # junction control heights that share no text with any point's y
    RenderOptions(bezier_offset=0.123456),
    RenderOptions(bezier_offset=0.123456, show_invisible=True),
    RenderOptions(bezier_offset=0.999),
    RenderOptions(bezier_offset=0.999, show_invisible=True),
]

# what to_svg puts for the characters XML 1.0 cannot carry, which the
# reference writes as they are
NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


def test_writer_cases_include_documents_of_several_chunks():
    d = dict(WRITER_CASES)["sp/n10000/s0"]
    for opts in (RenderOptions(), RenderOptions(bezier_offset=0.999, show_invisible=True)):
        assert len(to_svg(d, opts)) > 5
    assert len(to_json(d)) > 5


@pytest.mark.parametrize("name, d", WRITER_CASES, ids=[name for name, _d in WRITER_CASES])
def test_writers_match_the_reference_writers(name, d, monkeypatch):
    expected_json = reference_to_json(d)
    expected_svg = [NOT_XML_CHAR.sub("\ufffd", reference_to_svg(d, opts)) for opts in SVG_OPTIONS]
    # and with chunks so small that labelled runs, junction rows and
    # each kind of point fall across chunk boundaries
    for chunk in (render.CHUNK, 29):
        monkeypatch.setattr(render, "CHUNK", chunk)
        written = [to_json(d)] + [to_svg(d, opts) for opts in SVG_OPTIONS]
        assert ["".join(chunks) for chunks in written] == [expected_json, *expected_svg]
        assert max(c.count("\n") for chunks in written for c in chunks) <= chunk


# a document's length, and the tracemalloc peak of writing it, in
# characters and bytes; these writers give ASCII text
@pytest.mark.parametrize(
    "write, make",
    [
        (to_svg, lambda: sp_layout(gen_random_sp(10000, 3))),
        (to_json, lambda: build_diagram(gen_worstcase(128))),
    ],
    ids=["svg-sp10000", "json-worst128"],
)
def test_writers_peak_at_most_twice_the_document(write, make):
    d = make()
    tracemalloc.start()
    try:
        chunks = write(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    length = sum(map(len, chunks))
    assert length > 4_000_000
    assert peak <= 2 * length, (peak, length)
    assert max(chunk.count("\n") for chunk in chunks) <= render.CHUNK


# characters outside XML 1.0's Char production, each in a label
NOT_XML = ("a\x00", "b\x01", "c\x1b", "d\ufffe", "e\uffff")


def test_svg_with_labels_xml_cannot_carry_is_well_formed(tmp_path, capsys):
    texts = ["".join(to_svg(build_diagram(Realizer(NOT_XML, NOT_XML[::-1]))))]
    src = tmp_path / "in.edges"
    src.write_text(f"{NOT_XML[0]} {NOT_XML[1]}\n{NOT_XML[2]} {NOT_XML[3]}\nnode {NOT_XML[4]}\n", "utf-8")
    assert run([str(src)]) == EXIT_OK
    texts.append(capsys.readouterr().out)
    for text in texts:
        root = ElementTree.fromstring(text.encode("utf-8"))
        labels = sorted(t.text for t in root.iter("{http://www.w3.org/2000/svg}text"))
        assert labels == [label[0] + "\ufffd" for label in NOT_XML]
