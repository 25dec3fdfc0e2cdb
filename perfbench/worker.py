"""Runs one workload's ops in a fresh interpreter: ``worker.py PLAN.json``.

A closed loop with one client: each op is one in-process call of the
public CLI entry ``confluent_hasse.cli.run`` on an input file, and the
next op starts when it returns, as for a user who waits for each
drawing. The loop keeps going until ``seconds`` have passed and every
item has run at least once. The output file is deleted before each op,
so an op that writes nothing cannot pass on the previous op's file.

With tracing on, ops come in pairs over the same item, one traced and
one not, alternating which goes first, so the traced and untraced op
times can be compared. Results go to the plan's ``result`` path as JSON;
the checks happen in the parent process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

# stop starting ops here even if some item has not run, so the whole
# benchmark run stays well inside its time limit
HARD_LIMIT_S = 120.0


def main(plan_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    from confluent_hasse import bench, cli, diagram, oracle, render

    tracer = None
    if plan["trace"]:
        from tracer import Tracer, layer_totals

        tracer = Tracer(
            {"cli": cli, "bench": bench, "diagram": diagram, "oracle": oracle, "render": render}
        )

    items = plan["items"]
    keep_dir = plan["keep_dir"]
    per_pass = len(items) * (2 if tracer else 1)
    ops = []
    kept: set[str] = set()
    t_start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - t_start
        if elapsed >= HARD_LIMIT_S or (i >= per_pass and elapsed >= plan["seconds"]):
            break
        if tracer:
            pair = i // 2
            idx = pair % len(items)
            traced = (i % 2 == 0) == (pair % 2 == 0)
        else:
            idx = i % len(items)
            traced = False
        item = items[idx]
        out_path = item["out"]
        with contextlib.suppress(FileNotFoundError):
            os.remove(out_path)
        err = io.StringIO()
        rc = None
        error = None
        if traced:
            tracer.install(i)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = cli.run(item["argv"])
        except Exception:
            error = traceback.format_exc(limit=4)
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
        sha = None
        size = 0
        if os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                data = fh.read()
            size = len(data)
            sha = hashlib.sha256(data).hexdigest()
            if sha not in kept:
                kept.add(sha)
                with open(os.path.join(keep_dir, sha), "wb") as fh:
                    fh.write(data)
            del data
        ops.append(
            {
                "item": idx,
                "ms": (t1 - t0) * 1000.0,
                "rc": rc,
                "error": error,
                "sha256": sha,
                "out_bytes": size,
                "stderr": err.getvalue(),
                "traced": traced,
            }
        )
        i += 1

    result = {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "all_items_ran": i >= per_pass,
    }
    if tracer:
        result["layers"] = layer_totals(tracer.spans)
        result["counts"] = dict(tracer.counts)
        with open(plan["spans"], "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "op"],
                    "spans": tracer.spans,
                },
                fh,
            )
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
