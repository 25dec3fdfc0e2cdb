"""Byte-identical output on fixed benchmark items.

Each item of ``perfbench/workloads.py`` goes through ``cli.run`` as the
benchmark runs it, and its exit code and the sha256 of the file it
writes must equal the record in ``perfbench/digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from confluent_hasse import cli  # noqa: E402

DIGESTS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "key",
    [
        # edge list, recognition, SVG: every input edges-random draws
        *(f"edges/n256/s{i}" for i in range(16)),
        # worst-case realizer, JSON: every input realizer-worst draws
        *(f"worst/k{k}" for k in range(124, 133)),
        # series-parallel layout, SVG: every input sp-large draws
        *(f"sp/n10000/s{i}" for i in range(16)),
        "verify-worst/k2",  # --verify passes, JSON
        "verify-random/n12/s0",  # --verify fails: exit 3, no output
        # the --verify items with the most segments for the planar check
        "verify-worst/k32",
        "verify-worst/k48",
        "verify-random/n128/s0",
        "verify-random/n128/s1",
    ],
)
def test_output_matches_the_stored_digest(tmp_path, capsys, key):
    item = workloads.build(key)
    src = tmp_path / "in.txt"
    src.write_text(item.text, encoding="utf-8")
    out = tmp_path / f"out.{item.emit}"
    rc = cli.run(item.argv(str(src), str(out)))
    sha = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    assert {"exit": rc, "sha256": sha} == DIGESTS[key]


def _report(smooth="PASS smooth"):
    """The full stderr of one --verify run: segments, planar, degrees,
    visibility and completion pass on every item."""
    lines = (smooth, "PASS planar", "PASS degrees", "PASS visibility", "PASS completion")
    return "PASS segments\n" + "\n".join(lines) + "\n"


# (smooth pairs, covers) of the items whose smooth check fails
SMOOTH_FAILS = {
    "verify-random/n12/s0": (21, 18),
    "verify-random/n12/s1": (17, 16),
    "verify-random/n12/s3": (18, 17),
    "verify-random/n12/s4": (20, 15),
    "verify-random/n12/s5": (17, 16),
    "verify-random/n12/s6": (16, 15),
    "verify-random/n12/s7": (17, 15),
    "verify-random/n20/s0": (57, 38),
    "verify-random/n20/s1": (50, 34),
    "verify-random/n20/s2": (29, 28),
    "verify-random/n20/s3": (60, 42),
    "verify-random/n20/s4": (45, 32),
    "verify-random/n20/s5": (57, 35),
    "verify-random/n20/s6": (39, 32),
    "verify-random/n20/s7": (66, 39),
    "verify-random/n128/s0": (3703, 441),
    "verify-random/n128/s1": (3748, 440),
    "verify-random/n128/s2": (3581, 423),
    "verify-random/n128/s3": (3928, 454),
    "verify-random/n128/s4": (3412, 468),
    "verify-random/n128/s5": (3834, 475),
    "verify-random/n128/s6": (3151, 425),
    "verify-random/n128/s7": (3469, 437),
    "verify-random/n128/s8": (3318, 471),
    "verify-random/n128/s9": (3288, 432),
    "verify-random/n128/s10": (3318, 432),
    "verify-random/n128/s11": (3987, 455),
    "verify-random/n128/s12": (3167, 428),
    "verify-random/n128/s13": (3886, 434),
    "verify-random/n128/s14": (3309, 463),
    "verify-random/n128/s15": (3390, 434),
}

# exit code and stderr of every verify-mixed item, recorded before the
# checks became whole-array passes; completion, once skipped above 20
# elements, passes on all of them
VERIFY_REPORTS = {
    **{f"verify-worst/k{k}": (0, _report()) for k in (1, 2, 3, 4)},
    "verify-random/n12/s2": (0, _report()),
    **{
        key: (3, _report(f"FAIL smooth: smooth {smooth} pairs vs covers {covers}"))
        for key, (smooth, covers) in SMOOTH_FAILS.items()
    },
    # segments runs at 1,219 points and at 2,595, where it once skipped
    "verify-worst/k32": (0, _report()),
    "verify-worst/k48": (0, _report()),
}


def test_every_verify_mixed_item_is_pinned():
    assert set(VERIFY_REPORTS) == set(workloads.WORKLOADS["verify-mixed"].universe)


@pytest.mark.parametrize("key", sorted(VERIFY_REPORTS))
def test_verify_report_matches_the_pinned_lines(tmp_path, capsys, key):
    item = workloads.build(key)
    src = tmp_path / "in.txt"
    src.write_text(item.text, encoding="utf-8")
    capsys.readouterr()
    rc = cli.run(item.argv(str(src), str(tmp_path / f"out.{item.emit}")))
    assert (rc, capsys.readouterr().err) == VERIFY_REPORTS[key]
