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
        # series-parallel layout, SVG
        *(f"sp/n10000/s{i}" for i in range(4)),
        "verify-worst/k2",  # --verify passes, JSON
        "verify-random/n12/s0",  # --verify fails: exit 3, no output
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
