"""Seeded benchmark inputs and the writers that turn them into CLI input text.

Every workload draws its inputs from a fixed universe of items. An item
key such as ``edges/n256/s5`` names the generator and its arguments, so
the same key always gives the same input text. ``digests.json`` stores,
for every key of every universe, the exit code and the sha256 of the
output file, which is how the benchmark checks byte-identical output
whatever seed it runs with. The benchmark seed only picks which items of
a universe a run uses, and in which order.

The generators repeat the definitions of ``confluent_hasse.bench``
(``gen_random``, ``gen_worstcase``, ``gen_random_sp``) rather than
calling them, so a change to the package cannot change the inputs; the
tests in this directory check that both still agree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

# An SP tree: a leaf label, or (op, left, right) with op ";" for series
# and "|" for parallel.
SpTree = Union[str, tuple]


# --- generators -----------------------------------------------------------


def random_realizer(n: int, seed: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """First order e0..e(n-1), second a seeded uniform shuffle of it."""
    labels = [f"e{i}" for i in range(n)]
    shuffled = list(labels)
    random.Random(seed).shuffle(shuffled)
    return tuple(labels), tuple(shuffled)


def worstcase_realizer(k: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Family index k gives 4k+2 elements with a quadratic completion."""
    if k < 1:
        raise ValueError("family index must be >= 1")
    block1 = list(range(3 * k, k - 1, -2))
    block2: list[int] = []
    for i in range(k):
        block2.append(4 * k + 1 - i)
        block2.append(k - 1 - i)
    block3 = list(range(3 * k + 1, k, -2))
    labels = tuple(str(i) for i in range(4 * k + 2))
    return labels, tuple(str(i) for i in block1 + block2 + block3)


def random_sp(n: int, seed: int) -> SpTree:
    """Random series-parallel tree with leaves e0..e(n-1)."""
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
                out.append(f"e{next(next_label)}")
            else:
                left_size = rng.randint(1, arg - 1)
                series = rng.random() < 0.5
                tasks.append(("join", int(series)))
                tasks.append(("build", arg - left_size))
                tasks.append(("build", left_size))
        else:
            right = out.pop()
            left = out.pop()
            out.append((";" if arg else "|", left, right))
    return out[0]


def sp_leaf_labels(tree: SpTree) -> list[str]:
    """Leaf labels left to right."""
    labels = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            labels.append(node)
        else:
            stack.append(node[2])
            stack.append(node[1])
    return labels


# --- writers --------------------------------------------------------------


def realizer_text(l1: tuple[str, ...], l2: tuple[str, ...]) -> str:
    """The two-line realizer format."""
    return " ".join(l1) + "\n" + " ".join(l2) + "\n"


def order_matrix(l1: tuple[str, ...], l2: tuple[str, ...]) -> np.ndarray:
    """leq[i, j] iff l1[i] precedes-or-equals l1[j] in both orders."""
    pos2 = {lab: i for i, lab in enumerate(l2)}
    r1 = np.arange(len(l1))
    r2 = np.array([pos2[lab] for lab in l1], dtype=np.int64)
    return (r1[:, None] <= r1[None, :]) & (r2[:, None] <= r2[None, :])


def edge_list_text(l1: tuple[str, ...], l2: tuple[str, ...], rng: random.Random) -> str:
    """Cover pairs of the order as "u v" lines, plus "node u" for each
    element in no cover, in shuffled line order."""
    n = len(l1)
    strict = order_matrix(l1, l2) & ~np.eye(n, dtype=bool)
    through = strict.astype(np.float64) @ strict.astype(np.float64)
    covers = strict & (through == 0)
    lines = [f"{l1[a]} {l1[b]}" for a, b in np.argwhere(covers)]
    touched = covers.any(axis=0) | covers.any(axis=1)
    lines += [f"node {l1[i]}" for i in np.flatnonzero(~touched)]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def sp_text(tree: SpTree) -> str:
    """Series-parallel expression for the tree, with the fewest
    parentheses the grammar allows: ';' binds less tightly than '|' and
    both associate to the left. Iterative, so deep trees are fine."""
    # context of a child: 0 anywhere a series may stand bare (top, left
    # of ';'), 1 where only a parallel may (right of ';', left of '|'),
    # 2 where neither may (right of '|')
    out: list[str] = []
    stack: list[tuple[bool, object, int]] = [(False, tree, 0)]
    while stack:
        literal, node, ctx = stack.pop()
        if literal:
            out.append(node)  # type: ignore[arg-type]
            continue
        if isinstance(node, str):
            out.append(node)
            continue
        op, left, right = node
        wrap = ctx >= 1 if op == ";" else ctx == 2
        left_ctx, right_ctx = (0, 1) if op == ";" else (1, 2)
        if wrap:
            stack.append((True, ")", 0))
        stack.append((False, right, right_ctx))
        stack.append((True, f" {op} ", 0))
        stack.append((False, left, left_ctx))
        if wrap:
            stack.append((True, "(", 0))
    return "".join(out) + "\n"


# --- items and workloads --------------------------------------------------


@dataclass(frozen=True)
class Item:
    """One benchmark input and how the CLI is asked to draw it."""

    key: str
    fmt: str
    emit: str
    verify: bool
    text: str
    labels: tuple[str, ...]
    # the two orders whose intersection is the input order, for checking
    # JSON output; None where the output is SVG
    realizer: tuple[tuple[str, ...], tuple[str, ...]] | None

    @property
    def elements(self) -> int:
        return len(self.labels)

    def argv(self, in_path: str, out_path: str) -> list[str]:
        args = [in_path, "--input-format", self.fmt, "--emit", self.emit, "--out", out_path]
        return args + ["--verify"] if self.verify else args


def _fields(key: str) -> dict[str, int]:
    return {part[0]: int(part[1:]) for part in key.split("/")[1:]}


def build(key: str) -> Item:
    """The item a key names."""
    kind = key.split("/", 1)[0]
    f = _fields(key)
    if kind == "edges":
        l1, l2 = random_realizer(f["n"], f["s"])
        text = edge_list_text(l1, l2, random.Random(key))
        return Item(key, "edges", "svg", False, text, l1, None)
    if kind == "sp":
        tree = random_sp(f["n"], f["s"])
        return Item(key, "sp", "svg", False, sp_text(tree), tuple(sp_leaf_labels(tree)), None)
    if kind in ("worst", "verify-worst"):
        l1, l2 = worstcase_realizer(f["k"])
    elif kind == "verify-random":
        l1, l2 = random_realizer(f["n"], f["s"])
    else:
        raise ValueError(f"unknown item kind in {key!r}")
    verify = kind.startswith("verify")
    return Item(key, "realizer", "json", verify, realizer_text(l1, l2), l1, (l1, l2))


@dataclass(frozen=True)
class Workload:
    universe: tuple[str, ...]
    why: str
    # picks the run's items, in op order, from a seeded generator
    pick: Callable[[random.Random], list[str]]


def _sample(keys: list[str], k: int) -> Callable[[random.Random], list[str]]:
    return lambda rng: rng.sample(keys, k)


_EDGES = [f"edges/n256/s{i}" for i in range(16)]
_WORST = [f"worst/k{k}" for k in range(124, 133)]
_SP = [f"sp/n10000/s{i}" for i in range(16)]

# verify-mixed: each small order (the completion oracle runs on it) comes
# with two runs of worst-case index 32 (1,219 points, inside the
# segment-cover oracle's 1,500) and one of index 48 (2,595 points, beyond
# it). So half the ops are index 32 and a quarter index 48, however far a
# run gets: op_ms.p50 falls mid-way into the index-32 block and, at this
# benchmark's run length, op_ms.tail near the middle of the index-48
# block, instead of jumping between unrelated items from run to run.
_V_SMALL = [f"verify-worst/k{k}" for k in (1, 2, 3, 4)]
_V_RANDOM_SMALL = {n: [f"verify-random/n{n}/s{i}" for i in range(8)] for n in (12, 20)}
_V_N128 = [f"verify-random/n128/s{i}" for i in range(16)]
_V_INSIDE = "verify-worst/k32"
_V_BEYOND = "verify-worst/k48"


def _pick_verify(rng: random.Random) -> list[str]:
    small = _V_SMALL + [rng.choice(keys) for keys in _V_RANDOM_SMALL.values()]
    small += rng.sample(_V_N128, 2)
    rng.shuffle(small)
    return [key for first in small for key in (first, _V_INSIDE, _V_BEYOND, _V_INSIDE)]


WORKLOADS: dict[str, Workload] = {
    "edges-random": Workload(
        tuple(_EDGES),
        "the common path: random n=256 orders as shuffled edge lists to SVG; recognition is ~90% of an op, so it shows here only",
        _sample(_EDGES, 12),
    ),
    "realizer-worst": Workload(
        tuple(_WORST),
        "worst-case family near index 128 as realizers to JSON; no parse or recognition, so grid, sweep and to_json do the work",
        _sample(_WORST, len(_WORST)),
    ),
    "sp-large": Workload(
        tuple(_SP),
        "series-parallel expressions with 10^4 leaves to SVG; the dense n x n poset build dominates time and peak memory",
        _sample(_SP, 10),
    ),
    "verify-mixed": Workload(
        tuple(
            _V_SMALL
            + [k for keys in _V_RANDOM_SMALL.values() for k in keys]
            + _V_N128
            + [_V_INSIDE, _V_BEYOND]
        ),
        "realizers from 6 to 2.6k points under --verify; the diagram is checked: validate_diagram, smooth_adjacency, oracles",
        _pick_verify,
    ),
}


def pick(workload: str, seed: int) -> list[str]:
    """Item keys for one run, in op order."""
    return WORKLOADS[workload].pick(random.Random(seed))
