"""Rewrite ``digests.json``: the exit code and output sha256 of every
item in every workload's universe.

    PYTHONPATH=src python3 perfbench/make_digests.py

Run it only when the program's output is meant to change; the benchmark
fails every op whose output differs from the stored digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import workloads
from confluent_hasse import cli

HERE = Path(__file__).resolve().parent


def main() -> None:
    keys = sorted({key for w in workloads.WORKLOADS.values() for key in w.universe})
    digests = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        in_path = os.path.join(tmp, "in.txt")
        for key in keys:
            item = workloads.build(key)
            out_path = os.path.join(tmp, f"out.{item.emit}")
            with contextlib.suppress(FileNotFoundError):
                os.remove(out_path)
            with open(in_path, "w", encoding="utf-8") as fh:
                fh.write(item.text)
            with contextlib.redirect_stderr(io.StringIO()):
                rc = cli.run(item.argv(in_path, out_path))
            sha = None
            if os.path.exists(out_path):
                with open(out_path, "rb") as fh:
                    sha = hashlib.sha256(fh.read()).hexdigest()
            digests[key] = {"exit": rc, "sha256": sha}
            print(key, rc, sha, flush=True)
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
