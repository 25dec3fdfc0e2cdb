import pytest

from confluent_hasse import (
    build_diagram,
    gen_random,
    gen_worstcase,
    poset_from_realizer,
    scaling_report,
    verify_realizer,
)
from confluent_hasse.bench import CSV_HEADER
from suites import dm_completion


def test_gen_random_empty():
    r = gen_random(0, 1)
    assert r.l1 == () and r.l2 == ()


def test_gen_random_round_trips():
    r = gen_random(3, 17)
    assert verify_realizer(poset_from_realizer(r), r)


def test_gen_random_determinism():
    assert gen_random(8, 5) == gen_random(8, 5)
    assert gen_random(8, 5) != gen_random(8, 6)


def test_worstcase_n1_sequence():
    r = gen_worstcase(1)
    assert r.n == 6
    assert list(r.l2) == ["3", "1", "5", "0", "4", "2"]
    # the completion properly exceeds the element count
    assert len(dm_completion(poset_from_realizer(r)).cuts) > 6


def test_worstcase_n2_sequence():
    r = gen_worstcase(2)
    assert r.n == 10
    assert list(r.l2) == ["6", "4", "2", "9", "1", "8", "0", "7", "5", "3"]
    assert len(dm_completion(poset_from_realizer(r)).cuts) > 10


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_worstcase_is_permutation(n):
    r = gen_worstcase(n)
    assert sorted(r.l2, key=int) == [str(i) for i in range(4 * n + 2)]
    assert verify_realizer(poset_from_realizer(r), r)


def test_worstcase_rejects_zero():
    with pytest.raises(ValueError):
        gen_worstcase(0)


def test_junction_growth_is_quadratic():
    counts = {n: build_diagram(gen_worstcase(n)).junction_count() for n in (2, 4, 8, 16)}
    for n in (2, 4, 8):
        ratio = counts[2 * n] / counts[n]
        assert 3.0 <= ratio <= 5.0, counts


def test_segment_growth_is_at_most_quadratic():
    counts = {n: len(build_diagram(gen_worstcase(n)).segments) for n in (4, 8, 16, 32)}
    for n in (4, 8, 16):
        assert counts[2 * n] / counts[n] <= 5.0, counts


def test_scaling_report_shape():
    report = scaling_report([1], seed=0)
    lines = report.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    n, junctions, segments, *_ = lines[1].split(",")
    assert n == "6"
    assert junctions == str(build_diagram(gen_worstcase(1)).junction_count())


def test_scaling_report_empty_sizes():
    assert scaling_report([], seed=0) == CSV_HEADER + "\n"


def test_scaling_report_both_families():
    report = scaling_report([6], seed=3)
    lines = report.strip().splitlines()
    assert len(lines) == 3  # header + worstcase row + random row
    assert lines[1].split(",")[0] == "26"  # 4*6+2 elements
    assert lines[2].split(",")[0] == "6"
