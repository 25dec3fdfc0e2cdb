import json
from fractions import Fraction
from pathlib import Path

import pytest

from confluent_hasse import (
    Realizer,
    RenderOptions,
    bezier_controls,
    build_diagram,
    gen_random,
    gen_random_sp,
    gen_worstcase,
    rotate45,
    sp_layout,
    to_json,
    to_svg,
)
from confluent_hasse.grid import JUNCTION
from suites import reference_to_json, reference_to_svg

DATA = Path(__file__).parent / "data"


def k22_diagram():
    return build_diagram(Realizer(("a", "b", "c", "d"), ("b", "a", "d", "c")))


def test_rotation_coordinates():
    d = k22_diagram()
    rot = rotate45(d)
    by_label = {p.label: rot[i] for i, p in enumerate(d.scene.points) if p.label}
    assert by_label["a"] == (-2, 6)
    assert by_label["c"] == (-2, 14)
    (junction,) = [i for i, p in enumerate(d.scene.points) if p.kind == JUNCTION]
    assert rot[junction] == (0, 10)
    bottom = min(v for _u, v in rot)
    assert bottom == 2  # the (1,1) bound lands at (0, 2)


def test_rotation_makes_every_segment_ascend():
    d = k22_diagram()
    rot = rotate45(d)
    assert len(d.segments) == 8
    for lo, hi in d.segments:
        assert rot[hi][1] > rot[lo][1]


def test_single_vertex_svg():
    svg = to_svg(build_diagram(Realizer(("x",), ("x",))))
    assert svg.count("<path") == 0
    assert svg.count("<circle") == 1
    assert ">x</text>" in svg


def test_chain_svg_paths_are_degenerate_lines():
    svg = to_svg(build_diagram(Realizer(("x", "y"), ("x", "y"))))
    (path_line,) = [ln for ln in svg.splitlines() if "<path" in ln]
    # with no junction endpoints both controls coincide with endpoints
    d = path_line.split('d="')[1].split('"')[0]
    move, curve = d.split(" C ")
    x0, y0 = move.split()[1:]
    c1, c2, end = curve.split(", ")
    assert c1 == f"{x0} {y0}"
    assert c2 == end


def test_k22_svg_matches_frozen_snapshot():
    svg = to_svg(k22_diagram())
    assert svg == (DATA / "k22.svg").read_text()


def test_k22_svg_visible_content():
    svg = to_svg(k22_diagram())
    assert svg.count("<path") == 4  # invisible-incident tracks are hidden
    assert svg.count("<circle") == 5  # four labelled vertices plus the junction dot


def test_show_invisible_adds_their_tracks():
    svg = to_svg(k22_diagram(), RenderOptions(show_invisible=True))
    assert svg.count("<path") == 8
    assert svg.count("<circle") == 7


def test_svg_determinism():
    a = to_svg(k22_diagram())
    b = to_svg(k22_diagram())
    assert a == b


def test_junction_controls_share_vertical_tangent():
    d = k22_diagram()
    pts = d.scene.points
    (junction,) = [i for i, p in enumerate(pts) if p.kind == JUNCTION]
    ju, jv = rotate45(d)[junction]
    delta = Fraction(1, 2)
    for lo, hi in d.segments:
        p0, c1, c2, p3 = bezier_controls(pts[lo], pts[hi], delta)
        if lo == junction:
            assert c1 == (ju, jv + delta)
        if hi == junction:
            assert c2 == (ju, jv - delta)


def test_controls_are_v_monotone():
    for n, seed in ((9, 0), (20, 1)):
        d = build_diagram(gen_random(n, seed))
        pts = d.scene.points
        delta = Fraction(1, 2)
        for lo, hi in d.segments:
            p0, c1, c2, p3 = bezier_controls(pts[lo], pts[hi], delta)
            assert p0[1] <= c1[1] <= c2[1] <= p3[1]
            assert p0[1] < p3[1]


def test_bezier_offset_validation():
    with pytest.raises(ValueError):
        RenderOptions(bezier_offset=0.0)
    with pytest.raises(ValueError):
        RenderOptions(bezier_offset=1.0)


def test_json_single_vertex():
    doc = json.loads(to_json(build_diagram(Realizer(("x",), ("x",)))))
    assert doc["n"] == 1
    assert len(doc["nodes"]) == 1
    assert doc["segments"] == []
    assert doc["stats"] == {"junctions": 0, "segments": 0, "gridSide": 3}


def test_json_k22_stats():
    doc = json.loads(to_json(k22_diagram()))
    assert doc["stats"] == {"junctions": 1, "segments": 8, "gridSide": 9}
    kinds = [node["kind"] for node in doc["nodes"]]
    assert kinds.count("vertex") == 4
    assert kinds.count("junction") == 1
    assert kinds.count("invisible") == 2
    a = next(node for node in doc["nodes"] if node.get("label") == "a")
    assert a["grid"] == [2, 4] and a["rot"] == [-2, 6]


def test_json_antichain_serializes_invisible_tracks():
    doc = json.loads(to_json(build_diagram(Realizer(("a", "b"), ("b", "a")))))
    assert doc["stats"]["junctions"] == 0
    assert doc["stats"]["segments"] == 4


def test_json_determinism_and_sorted_keys():
    d = k22_diagram()
    assert to_json(d) == to_json(d)
    doc = json.loads(to_json(d))
    assert list(doc) == sorted(doc)


def _writer_cases():
    yield "empty", build_diagram(Realizer((), ()))
    yield "single", build_diagram(Realizer(("x",), ("x",)))
    yield "chain", build_diagram(Realizer(("x", "y", "z"), ("x", "y", "z")))
    yield "k22", k22_diagram()
    odd = ('q"uote', "back\\slash", "&<>", "ctl\x01", "é→漢")
    yield "labels", build_diagram(Realizer(odd, odd[::-1]))
    yield "labels-k22", build_diagram(Realizer(odd[:4], (odd[1], odd[0], odd[3], odd[2])))
    for k in (1, 5, 20):
        yield f"worst{k}", build_diagram(gen_worstcase(k))
    for seed in range(50):
        yield f"random{seed}", build_diagram(gen_random(seed % 13, seed))
    for seed in range(50):
        yield f"sp{seed}", sp_layout(gen_random_sp(1 + seed % 17, seed))


WRITER_CASES = list(_writer_cases())

SVG_OPTIONS = [
    RenderOptions(),
    RenderOptions(show_invisible=True),
    RenderOptions(bezier_offset=0.25),
    # control y values at this offset fall on .2f rounding ties, so any
    # regrouping of the control-point arithmetic changes the text
    RenderOptions(bezier_offset=0.34625),
]


@pytest.mark.parametrize("name, d", WRITER_CASES, ids=[name for name, _d in WRITER_CASES])
def test_writers_match_the_reference_writers(name, d):
    assert to_json(d) == reference_to_json(d)
    for opts in SVG_OPTIONS:
        assert to_svg(d, opts) == reference_to_svg(d, opts), opts
