"""The benchmark: from input text to written drawing, through the public CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has ``src/confluent_hasse``.
It generates the workload's inputs from the seed, then starts one fresh
interpreter (``worker.py``) that calls ``confluent_hasse.cli.run`` on
them in a closed loop with one client for S seconds. Every output is
checked here: exit code and sha256 against ``digests.json``, the
independent checks in ``checks.py``, and the ``--verify`` report.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a traced run (see ``tracer.py``), whose spans
are also written to ``.perfbench-out/``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The lines before it say, per metric, how many samples it
rests on, and record the machine's core count and thread settings.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads
from tracer import COUNTS, SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER_TIMEOUT_S = 150
SETUP_PROBES = 8

# One BLAS/OpenMP thread in every process the benchmark starts: under
# --verify, transitive_reduction and dominance_covers do float matmuls
# that OpenBLAS would otherwise spread over every core.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def setup_seconds(env: dict[str, str], probes: int) -> list[float]:
    """Wall time of fresh interpreters that import the CLI module, the
    cost a user pays on every call."""
    cmd = [sys.executable, "-c", "import confluent_hasse.cli"]
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
        # a blocking wait: waiting with a timeout polls, in steps of up
        # to 50 ms, which would round every probe up
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
        if rc != 0:
            raise subprocess.CalledProcessError(rc, cmd)
        times.append(time.perf_counter() - t0)
    return times


def tail(values: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples beyond
    it (nearest rank), and that percentile; the maximum, as p100, when
    there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct / 100 * n))
    return ordered[rank - 1], pct


def evaluate(items, digests, ops, keep_dir: Path):
    """Problems per op, verify tallies per op, and junctions per item."""
    checked: dict[str, tuple[str | None, int]] = {}
    problems: list[str | None] = []
    tallies: list[dict[str, int]] = []
    junctions: dict[int, int] = {}
    for op in ops:
        item = items[op["item"]]
        expected = digests[item.key]
        tally = {"pass": 0, "fail": 0, "skip": 0, "smooth_fail": 0}
        problem = None
        if op["error"]:
            problem = "raised: " + op["error"].strip().splitlines()[-1]
        elif op["rc"] != expected["exit"]:
            problem = f"exit {op['rc']}, expected {expected['exit']}"
        elif op["sha256"] != expected["sha256"]:
            problem = f"output sha256 {op['sha256']}, expected {expected['sha256']}"
        if op["sha256"] is not None:
            if op["sha256"] not in checked:
                data = (keep_dir / op["sha256"]).read_bytes()
                checked[op["sha256"]] = checks.check_output(item, data)
            bad, drawn = checked[op["sha256"]]
            problem = problem or bad
            junctions.setdefault(op["item"], drawn)
        if item.verify:
            for status, name in checks.verify_lines(op["stderr"]):
                if status == "FAIL" and name == "smooth":
                    tally["smooth_fail"] += 1
                else:
                    tally[status.lower()] += 1
            if tally["fail"]:
                problem = problem or "a --verify check other than smooth failed"
            elif op["rc"] == 3 and not tally["smooth_fail"]:
                problem = problem or "exit 3 without a failed check"
        problems.append(problem)
        tallies.append(tally)
    return problems, tallies, junctions


def end_to_end(items, ops, problems, junctions, setup, rss):
    ms = [op["ms"] for op in ops]
    tail_ms, tail_pct = tail(ms)
    done_elements = sum(items[op["item"]].elements for op, bad in zip(ops, problems) if not bad)
    failed = sum(1 for bad in problems if bad)
    first = {}
    for op in ops:
        first.setdefault(op["item"], op)
    metrics = {
        "op_ms.p50": (statistics.median(ms), "ms"),
        "op_ms.tail": (tail_ms, "ms"),
        "throughput_elem_s": (done_elements / (sum(ms) / 1000.0), "elements/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
        "ok_rate": ((len(ops) - failed) / len(ops), "ratio"),
        "output_bytes": (sum(op["out_bytes"] for op in first.values()), "bytes"),
        "junctions": (sum(junctions.values()), "count"),
    }
    notes = {
        "op_ms.p50": f"{len(ms)} ops",
        "op_ms.tail": f"p{tail_pct} of {len(ms)} ops",
        "throughput_elem_s": f"elements of completed ops / {sum(ms) / 1000.0:.2f} s inside cli.run",
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "peak_rss_mb": "one fresh process ran every op",
        "ok_rate": f"error_rate {failed / len(ops):.4f} = {failed} failed / {len(ops)} attempted",
        "output_bytes": f"one op per item, {len(first)} items",
        "junctions": f"one op per item, {len(first)} items",
    }
    return metrics, notes


def per_layer(items, ops, tallies, result):
    traced = [i for i, op in enumerate(ops) if op["traced"]]
    per_op = 1.0 / len(traced)
    metrics = {}
    for name in SPAN_NAMES:
        row = result["layers"][name]
        metrics[f"{name}.calls"] = (row["calls"] * per_op, "calls/op")
        metrics[f"{name}.ms"] = (row["ms"] * per_op, "ms/op")
        metrics[f"{name}.self_ms"] = (row["self_ms"] * per_op, "ms/op")
    counts = result["counts"]
    metrics["cli.in_bytes"] = (
        sum(len(items[ops[i]["item"]].text.encode()) for i in traced) * per_op,
        "bytes/op",
    )
    metrics["cli.out_bytes"] = (sum(ops[i]["out_bytes"] for i in traced) * per_op, "bytes/op")
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0.0) * per_op, "count/op")
    cells = counts.get("grid.odd_cells", 0.0)
    metrics["grid.junction_hit_ratio"] = (
        counts.get("grid.junctions", 0.0) / cells if cells else 0.0,
        "ratio",
    )
    for key in ("pass", "fail", "skip", "smooth_fail"):
        metrics[f"verify.{key}"] = (sum(tallies[i][key] for i in traced) * per_op, "count/op")
    traced_ms = statistics.median(ops[i]["ms"] for i in traced)
    plain_ms = statistics.median(op["ms"] for op in ops if not op["traced"])
    metrics["trace.overhead_pct"] = (100.0 * (traced_ms - plain_ms) / plain_ms, "%")
    metrics["trace.ops"] = (float(len(traced)), "count")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "confluent_hasse" / "cli.py").is_file():
        sys.stderr.write(f"error: no package sources at {SRC}; run inside a checkout\n")
        return 2
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    items = [workloads.build(key) for key in workloads.pick(args.workload, args.seed)]
    missing = [item.key for item in items if item.key not in digests]
    if missing:
        sys.stderr.write(f"error: no stored digest for {missing}\n")
        return 2

    work = ROOT / ".perfbench-work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".perfbench-out"
    keep_dir = work / "outputs"
    keep_dir.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    try:
        plan_items = []
        for i, item in enumerate(items):
            in_path = work / f"in{i}.txt"
            in_path.write_text(item.text, encoding="utf-8")
            out_path = str(work / f"out{i}.{item.emit}")
            plan_items.append({"argv": item.argv(str(in_path), out_path), "out": out_path})
        plan = {
            "items": plan_items,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "keep_dir": str(keep_dir),
            "result": str(work / "result.json"),
            "spans": str(out_dir / f"spans-{args.workload}-s{args.seed}.json"),
        }
        (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")

        env = child_env()
        setup = []
        if not args.trace:
            setup_seconds(env, 1)  # writes the bytecode cache; not counted
            # half the probes before the ops and half after, so that they
            # sample the machine at both ends of the run
            setup = setup_seconds(env, SETUP_PROBES // 2)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "plan.json")],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.stderr.write(f"error: worker exited with {proc.returncode}\n")
            return 2
        if not args.trace:
            setup += setup_seconds(env, SETUP_PROBES // 2)
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        ops = result["ops"]
        problems, tallies, junctions = evaluate(items, digests, ops, keep_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for bad in problems if bad)
    print(f"workload {args.workload}: {workloads.WORKLOADS[args.workload].why}")
    print(f"seed {args.seed}, {len(items)} items, {len(ops)} ops, closed loop, 1 client")
    print(
        f"nproc {os.cpu_count()}, affinity {len(os.sched_getaffinity(0))}, "
        + ", ".join(f"{k}={v}" for k, v in THREAD_ENV.items())
    )
    if not result["all_items_ran"]:
        print(f"warning: the loop stopped after {len(ops)} ops, before every item ran")
    for op, bad in zip(ops, problems):
        if bad:
            print(f"FAILED {items[op['item']].key}: {bad}")
    if args.trace:
        metrics = per_layer(items, ops, tallies, result)
        notes = {}
        print(f"per traced op, over {int(metrics['trace.ops'][0])} traced ops; by self time:")
        ranked = sorted(SPAN_NAMES, key=lambda n: -metrics[f"{n}.self_ms"][0])
        for name in ranked:
            print(
                f"  {name:36s} calls {metrics[name + '.calls'][0]:6.2f}"
                f"  busy {metrics[name + '.ms'][0]:10.3f} ms  self {metrics[name + '.self_ms'][0]:10.3f} ms"
            )
    else:
        metrics, notes = end_to_end(
            items, ops, problems, junctions, setup, result["peak_rss_mb"]
        )
    for name, (value, unit) in metrics.items():
        if args.trace and name.endswith(("calls", "ms")):
            continue
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:34s} {value:16.6f} {unit}{note}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(ops),
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
