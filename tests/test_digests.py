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


VERIFY_REPORTS = {
    # the segments oracle runs at 1,219 points...
    "verify-worst/k32": (
        0,
        "PASS segments\nPASS smooth\nPASS planar\nPASS degrees\nPASS visibility\n"
        "SKIP completion: instance exceeds oracle size limit\n",
    ),
    # ...and skips at 2,595, above COVERS_CHECK_LIMIT
    "verify-worst/k48": (
        0,
        "SKIP segments: too many points for the cover oracle\nPASS smooth\nPASS planar\n"
        "PASS degrees\nPASS visibility\nSKIP completion: instance exceeds oracle size limit\n",
    ),
    "verify-random/n128/s0": (
        3,
        "PASS segments\nFAIL smooth: smooth 3703 pairs vs covers 441\nPASS planar\n"
        "PASS degrees\nPASS visibility\nSKIP completion: instance exceeds oracle size limit\n",
    ),
    "verify-random/n12/s0": (
        3,
        "PASS segments\nFAIL smooth: smooth 21 pairs vs covers 18\nPASS planar\n"
        "PASS degrees\nPASS visibility\nPASS completion\n",
    ),
}


@pytest.mark.parametrize("key", sorted(VERIFY_REPORTS))
def test_verify_report_matches_the_pinned_lines(tmp_path, capsys, key):
    item = workloads.build(key)
    src = tmp_path / "in.txt"
    src.write_text(item.text, encoding="utf-8")
    capsys.readouterr()
    rc = cli.run(item.argv(str(src), str(tmp_path / f"out.{item.emit}")))
    assert (rc, capsys.readouterr().err) == VERIFY_REPORTS[key]
