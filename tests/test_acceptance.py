"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import statistics
import time
from fractions import Fraction

import pytest

from confluent_hasse import (
    DimensionExceedsTwo,
    bezier_controls,
    build_diagram,
    dm_completion,
    dominance_covers,
    gen_random,
    gen_random_sp,
    gen_worstcase,
    parse_sp,
    poset_from_realizer,
    realizer_of,
    scene_matches_completion,
    smooth_pairs,
    sp_layout,
    sp_to_poset,
    sweep_cover_edges,
    timed_pipeline,
    transitive_reduction,
    validate_diagram,
    verify_realizer,
)
from confluent_hasse.cli import EXIT_DIMENSION, EXIT_OK, run
from confluent_hasse.grid import INVISIBLE, JUNCTION, insert_junctions, place_on_grid
from suites import (
    all_sp_trees,
    forced_smooth_pairs,
    hulls_intersect,
    order_dimension_le2,
    random_poset,
    random_realizer_suite,
    sp_text,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number:2d} ({name}): {status}"
    if detail:
        line += f" [{detail}]"
    print(line)


@pytest.fixture(scope="module")
def realizer_suite():
    suite = []
    for r in random_realizer_suite(200, 9):
        scene = insert_junctions(place_on_grid(r))
        suite.append((r, poset_from_realizer(r), sweep_cover_edges(scene)))
    return suite


@pytest.fixture(scope="module")
def sp_suite():
    suite = []
    for tree in all_sp_trees(6):
        p = sp_to_poset(tree)
        general = build_diagram(realizer_of(p))
        suite.append((tree, p, sp_layout(tree), general))
    return suite


@pytest.fixture(scope="module")
def medium_suite():
    # random instances up to n = 50 for the geometric criteria
    cases = []
    for n, seed in [(10, 0), (20, 1), (30, 2), (40, 3), (50, 4), (50, 5)]:
        r = gen_random(n, seed)
        cases.append((r, poset_from_realizer(r), build_diagram(r)))
    cases.append((None, None, build_diagram(gen_worstcase(8))))
    return cases


def test_criterion_1_completion_equivalence(realizer_suite, sp_suite):
    t0 = time.time()
    bad = 0
    for r, p, diagram in realizer_suite:
        if not scene_matches_completion(diagram.scene, p):
            bad += 1
    for tree, p, sp_diag, general in sp_suite:
        for diagram in (sp_diag, general):
            if not scene_matches_completion(diagram.scene, p):
                bad += 1
    total = len(realizer_suite) + len(sp_suite)
    ok = bad == 0
    report(1, "completion equivalence", ok, f"{total} instances, {time.time()-t0:.1f}s")
    assert ok, f"{bad} scenes are not isomorphic to the completion"


def test_criterion_2_sweep_vs_oracle(realizer_suite, sp_suite):
    t0 = time.time()
    bad = 0
    for r, _p, diagram in realizer_suite:
        pts = diagram.scene.points
        got = {((pts[a].x, pts[a].y), (pts[b].x, pts[b].y)) for a, b in diagram.segments.tolist()}
        if got != dominance_covers([(q.x, q.y) for q in pts]) or len(got) != len(diagram.segments):
            bad += 1
    for _tree, _p, sp_diag, general in sp_suite:
        for diagram in (sp_diag, general):
            pts = diagram.scene.points
            got = {
                ((pts[a].x, pts[a].y), (pts[b].x, pts[b].y))
                for a, b in diagram.segments.tolist()
            }
            if got != dominance_covers([(q.x, q.y) for q in pts]):
                bad += 1
    ok = bad == 0
    report(2, "sweep equals cover oracle", ok, f"{time.time()-t0:.1f}s")
    assert ok, f"{bad} diagrams disagree with the cover oracle"


def test_criterion_3_confluent_semantics(realizer_suite, sp_suite):
    # smooth adjacency must equal the forced relation on every suite
    # instance: the covers plus the pairs joined by a cover chain of the
    # completion through added cuts, which every drawing passing the
    # planar, degrees and visibility checks also shows as smooth (README,
    # "Known semantic limit"). Series-parallel orders force no extra
    # pair, so both of their layouts must show exactly the covers.
    t0 = time.time()
    bad = []
    carriers = 0
    extra_pairs = 0
    for r, p, diagram in realizer_suite:
        forced = forced_smooth_pairs(p)
        if smooth_pairs(diagram) != forced:
            bad.append(r)
        extra = forced - transitive_reduction(p)
        if extra:
            carriers += 1
            extra_pairs += len(extra)
    for tree, p, sp_diag, general in sp_suite:
        covers = transitive_reduction(p)
        if forced_smooth_pairs(p) != covers:
            bad.append(tree)
        if smooth_pairs(sp_diag) != covers:
            bad.append(tree)
        if smooth_pairs(general) != covers:
            bad.append(tree)
    ok = not bad
    report(
        3,
        "confluent semantics",
        ok,
        f"{len(bad)} mismatching instances; {carriers} instances carry "
        f"{extra_pairs} forced non-cover pairs, {time.time()-t0:.1f}s",
    )
    assert ok, (
        f"smooth adjacency differs from the forced relation on {len(bad)} "
        "suite instances (from the covers, for series-parallel orders)"
    )


def test_criterion_4_junction_minimality(realizer_suite):
    t0 = time.time()
    bad = 0
    for r, p, diagram in realizer_suite:
        comp = dm_completion(p)
        junctions = diagram.junction_count()
        invisibles = sum(1 for q in diagram.scene.points if q.kind == INVISIBLE)
        if junctions != len(comp.cuts) - r.n - invisibles:
            bad += 1
    ok = bad == 0
    report(4, "junction minimality", ok, f"{time.time()-t0:.1f}s")
    assert ok, f"{bad} instances have a non-minimal junction count"


def test_criterion_5_planarity_and_degrees(medium_suite, realizer_suite):
    t0 = time.time()
    bad = []
    small = [(p, d) for _r, p, d in realizer_suite[:60]]
    candidates = small + [(p, d) for _r, p, d in medium_suite if p is not None]
    for p, diagram in candidates:
        rep = validate_diagram(diagram, p)
        by_name = {c.name: c for c in rep.checks}
        if not by_name["planar"].ok or not by_name["degrees"].ok:
            bad.append(by_name)
    # the worst-case instance has no poset handy; check degrees directly
    wc = medium_suite[-1][2]
    indeg, outdeg = {}, {}
    for lo, hi in wc.segments.tolist():
        outdeg[lo] = outdeg.get(lo, 0) + 1
        indeg[hi] = indeg.get(hi, 0) + 1
    for qid, q in enumerate(wc.scene.points):
        if q.kind == JUNCTION and (indeg.get(qid, 0) < 2 or outdeg.get(qid, 0) < 2):
            bad.append(q)
    ok = not bad
    report(5, "planarity and junction degrees", ok, f"{time.time()-t0:.1f}s")
    assert ok, bad


def test_criterion_6_grid_bound(realizer_suite, sp_suite, medium_suite):
    t0 = time.time()
    bad = 0
    diagrams = (
        [d for _r, _p, d in realizer_suite]
        + [d for _t, _p, d, _g in sp_suite]
        + [d for _r, _p, d in medium_suite]
    )
    for diagram in diagrams:
        side = 2 * diagram.scene.n + 1
        if any(not (1 <= q.x <= side and 1 <= q.y <= side) for q in diagram.scene.points):
            bad += 1
    ok = bad == 0
    report(6, "grid bound", ok, f"{len(diagrams)} diagrams, {time.time()-t0:.1f}s")
    assert ok


def test_criterion_7_worstcase_family_growth():
    t0 = time.time()
    counts = {n: build_diagram(gen_worstcase(n)).junction_count() for n in (4, 8, 16, 32)}
    ratios = [counts[8] / counts[4], counts[16] / counts[8], counts[32] / counts[16]]
    ok = all(3.0 <= ratio <= 5.0 for ratio in ratios)
    report(
        7,
        "worst-case junction growth",
        ok,
        f"ratios {['%.2f' % r for r in ratios]}, {time.time()-t0:.1f}s",
    )
    assert ok, (counts, ratios)


def test_criterion_8_quadratic_scaling():
    # the sizes alternate so that machine-speed drift during the test
    # moves both halves of a pair alike instead of one block of sizes
    t0 = time.time()
    t256s, t512s, ratios = [], [], []
    for _ in range(5):
        _d, t = timed_pipeline(gen_worstcase(256))
        t256s.append(t["total"])
        _d, t = timed_pipeline(gen_worstcase(512))
        t512s.append(t["total"])
        ratios.append(t512s[-1] / t256s[-1])
    ratio = statistics.median(ratios)
    ok = ratio <= 5.0
    report(
        8,
        "quadratic pipeline scaling",
        ok,
        f"256: {statistics.median(t256s):.0f}ms, 512: {statistics.median(t512s):.0f}ms, "
        f"median pair ratio {ratio:.2f}, {time.time()-t0:.1f}s",
    )
    assert ok, f"median doubling ratio {ratio:.2f} exceeds 5 (pairs: {ratios})"


def test_sp_parse_and_layout_scale_linearly():
    # series-parallel text to diagram at 2x10^4 and 4x10^4 leaves,
    # alternating as in criterion 8: linear time doubles, quadratic
    # quadruples
    t0 = time.time()
    texts = {n: sp_text(gen_random_sp(n, 5)) for n in (20_000, 40_000)}

    def parse_and_layout_ms(n: int) -> float:
        start = time.perf_counter()
        sp_layout(parse_sp(texts[n]))
        return (time.perf_counter() - start) * 1000

    small, large, ratios = [], [], []
    for _ in range(5):
        small.append(parse_and_layout_ms(20_000))
        large.append(parse_and_layout_ms(40_000))
        ratios.append(large[-1] / small[-1])
    ratio = statistics.median(ratios)
    print(
        f"sp parse + layout: 2e4: {statistics.median(small):.0f}ms, "
        f"4e4: {statistics.median(large):.0f}ms, median pair ratio {ratio:.2f}, "
        f"{time.time()-t0:.1f}s"
    )
    assert ratio <= 3.0, f"median doubling ratio {ratio:.2f} exceeds 3 (pairs: {ratios})"


def test_criterion_9_sp_agreement_and_linearity():
    t0 = time.time()
    bad = 0
    for seed in range(100):
        tree = gen_random_sp(1 + seed % 30, seed)
        p = sp_to_poset(tree)
        sp_diag = sp_layout(tree)
        general = build_diagram(realizer_of(p))
        if sp_diag.junction_count() != general.junction_count():
            bad += 1
            continue
        if smooth_pairs(sp_diag) != smooth_pairs(general):
            bad += 1

    def median_layout_ms(n: int) -> float:
        tree = gen_random_sp(n, 99)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            sp_layout(tree)
            times.append((time.perf_counter() - start) * 1000)
        times.sort()
        return times[1]

    t3 = median_layout_ms(10**3)
    t4 = median_layout_ms(10**4)
    t5 = median_layout_ms(10**5)
    growth_ok = t4 / t3 <= 30.0 and t5 / t4 <= 30.0
    ok = bad == 0 and growth_ok
    report(
        9,
        "series-parallel agreement and linearity",
        ok,
        f"{bad} mismatches; layout ms {t3:.1f}/{t4:.1f}/{t5:.1f}, {time.time()-t0:.1f}s",
    )
    assert ok, (bad, t3, t4, t5)


def test_criterion_10_dimension_gate(tmp_path):
    t0 = time.time()
    rejected = []
    accepted_bad = 0
    dim3 = []
    seed = 0
    while len(dim3) < 20 and seed < 5000:
        p = random_poset(7, seed, density=0.55)
        if order_dimension_le2(p):
            try:
                r = realizer_of(p)
                if not verify_realizer(p, r):
                    accepted_bad += 1
            except DimensionExceedsTwo:
                accepted_bad += 1
        else:
            dim3.append(p)
        seed += 1

    def edges_file(p, name):
        lines = [f"node {lab}" for lab in p.labels]
        lines += [f"{a} {b}" for a, b in transitive_reduction(p)]
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    labels = ["a1", "a2", "a3", "b1", "b2", "b3"]
    pairs = [(f"a{i}", f"b{j}") for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
    s3 = tmp_path / "s3.edges"
    s3.write_text("\n".join(f"{a} {b}" for a, b in pairs) + "\n")
    if run([str(s3)]) != EXIT_DIMENSION:
        rejected.append("s3")
    for i, p in enumerate(dim3):
        if run([edges_file(p, f"d3_{i}.edges"), "--emit", "json", "--out", str(tmp_path / "o.json")]) != EXIT_DIMENSION:
            rejected.append(i)
    # a sample of the accepted side must also clear the CLI
    cli_ok = all(
        run([edges_file(random_poset(6, s, 0.3), f"d2_{s}.edges"), "--emit", "json", "--out", str(tmp_path / "o.json")]) == EXIT_OK
        for s in range(10)
        if order_dimension_le2(random_poset(6, s, 0.3))
    )
    ok = len(dim3) == 20 and not rejected and accepted_bad == 0 and cli_ok
    report(
        10,
        "dimension gate",
        ok,
        f"20 rejections, {accepted_bad} wrong acceptances, {time.time()-t0:.1f}s",
    )
    assert ok, (len(dim3), rejected, accepted_bad, cli_ok)


def test_criterion_11_rendering_invariants(medium_suite, realizer_suite):
    t0 = time.time()
    delta = Fraction(1, 2)
    violations = 0
    diagrams = [d for _r, _p, d in realizer_suite[:40]] + [d for _r, _p, d in medium_suite]
    for diagram in diagrams:
        hulls = []
        for lo, hi in diagram.drawn_segments().tolist():
            p0, c1, c2, p3 = bezier_controls(diagram.scene, lo, hi, delta)
            if not (p0[1] <= c1[1] <= c2[1] <= p3[1] and p0[1] < p3[1]):
                violations += 1
            scaled = [(int(2 * u), int(2 * v)) for u, v in (p0, c1, c2, p3)]
            xs = [q[0] for q in scaled]
            ys = [q[1] for q in scaled]
            hulls.append((min(xs), min(ys), max(xs), max(ys), scaled, (lo, hi)))
        for i in range(len(hulls)):
            bx0, by0, bx1, by1, pa, ea = hulls[i]
            for j in range(i + 1, len(hulls)):
                cx0, cy0, cx1, cy1, pb, eb = hulls[j]
                if set(ea) & set(eb):
                    continue
                if bx1 < cx0 or cx1 < bx0 or by1 < cy0 or cy1 < by0:
                    continue
                if hulls_intersect(pa, pb):
                    violations += 1
    ok = violations == 0
    report(
        11,
        "rendering invariants",
        ok,
        f"{len(diagrams)} diagrams, {time.time()-t0:.1f}s",
    )
    assert ok, f"{violations} control-hull or monotonicity violations"
