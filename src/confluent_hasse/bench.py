"""Instance generators and the scaling harness.

The adversarial family pairs the identity with a three-block
permutation that forces a quadratic number of junctions, which is what
makes the quadratic pipeline bound tight; the random family intersects
the identity with a seeded uniform shuffle. Seeding uses the stdlib
Mersenne Twister (random.Random), whose streams are documented to be
reproducible across Python versions.
"""

from __future__ import annotations

import random
import time
from statistics import median

from .diagram import Diagram, sweep_cover_edges
from .grid import insert_junctions, place_on_grid
from .realizer import Realizer
from .sp import SpLeaf, SpParallel, SpSeries, SpTree

CSV_HEADER = "n,junctions,segments,ms_phase1,ms_phase2,ms_phase3,ms_total"
_CSV_TIMES = ("phase1", "phase2", "phase3", "total")


def gen_random(n: int, seed: int) -> Realizer:
    """First order e0..e(n-1) in index order, second a seeded uniform
    permutation; identical (n, seed) always gives identical output."""
    labels = [f"e{i}" for i in range(n)]
    shuffled = list(labels)
    random.Random(seed).shuffle(shuffled)
    return Realizer(tuple(labels), tuple(shuffled))


def gen_worstcase(n: int) -> Realizer:
    """Family index n >= 1 gives 4n+2 elements whose completion grows
    quadratically. The second order runs three blocks: every other
    element from 3n down to n, then 4n+1..3n+2 interleaved with
    n-1..0, then every other element from 3n+1 down to n+1."""
    if n < 1:
        raise ValueError("family index must be >= 1")
    block1 = list(range(3 * n, n - 1, -2))
    block2: list[int] = []
    for k in range(n):
        block2.append(4 * n + 1 - k)
        block2.append(n - 1 - k)
    block3 = list(range(3 * n + 1, n, -2))
    order = block1 + block2 + block3
    labels = tuple(str(i) for i in range(4 * n + 2))
    return Realizer(labels, tuple(str(i) for i in order))


def gen_random_sp(n: int, seed: int) -> SpTree:
    """Random series-parallel tree with n leaves e0..e(n-1),
    deterministic per (n, seed)."""
    if n < 1:
        raise ValueError("need at least one leaf")
    rng = random.Random(seed)
    next_label = iter(range(n))
    out: list[SpTree] = []
    tasks: list[tuple[str, int]] = [("build", n)]
    while tasks:
        op, arg = tasks.pop()
        if op == "build":
            if arg == 1:
                out.append(SpLeaf(f"e{next(next_label)}"))
            else:
                left_size = rng.randint(1, arg - 1)
                series = rng.random() < 0.5
                tasks.append(("join", int(series)))
                tasks.append(("build", arg - left_size))
                tasks.append(("build", left_size))
        else:
            right = out.pop()
            left = out.pop()
            out.append(SpSeries(left, right) if arg else SpParallel(left, right))
    return out[0]


def timed_pipeline(r: Realizer) -> tuple[Diagram, dict[str, float]]:
    """Run placement, junction insertion and the sweep, reporting
    per-phase wall time in milliseconds."""
    t0 = time.perf_counter()
    scene = place_on_grid(r)
    t1 = time.perf_counter()
    scene = insert_junctions(scene)
    t2 = time.perf_counter()
    diagram = sweep_cover_edges(scene)
    t3 = time.perf_counter()
    times = {
        "phase1": (t1 - t0) * 1000.0,
        "phase2": (t2 - t1) * 1000.0,
        "phase3": (t3 - t2) * 1000.0,
        "total": (t3 - t0) * 1000.0,
    }
    return diagram, times


def csv_row(d: Diagram, times: dict[str, float]) -> str:
    """One row under CSV_HEADER; a phase missing from ``times`` (the
    series-parallel layout has one phase) reads 0."""
    ms = ",".join(f"{times.get(key, 0.0):.3f}" for key in _CSV_TIMES)
    return f"{d.scene.n},{d.junction_count()},{len(d.segments)},{ms}"


def scaling_report(
    sizes: list[int],
    trials: int = 3,
    families: tuple[str, ...] = ("worstcase", "random"),
    seed: int = 0,
) -> str:
    """CSV scaling table; one row per size per family, median over
    ``trials`` runs of the same input. Sizes are family indices for the
    worst-case family and element counts for the random one; the n
    column always reports the element count."""
    lines = [CSV_HEADER]
    for size in sizes:
        for family in families:
            if family == "worstcase":
                r = gen_worstcase(size)
            elif family == "random":
                r = gen_random(size, seed)
            else:
                raise ValueError(f"unknown family {family!r}")
            runs = [timed_pipeline(r) for _ in range(max(1, trials))]
            med = {key: median(t[key] for _, t in runs) for key in _CSV_TIMES}
            lines.append(csv_row(runs[0][0], med))
    return "\n".join(lines) + "\n"
