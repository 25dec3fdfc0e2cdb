"""Finite partial orders stored as a dense boolean comparability matrix.

Elements are identified by unique string labels; the matrix entry
``leq[i, j]`` holds exactly when element i is less than or equal to
element j. The dense representation keeps every query O(1) and the
reduction one matrix product. Closure works on one int bitmask per
element instead, ORed along the input pairs in reverse topological
order, and unpacks into the matrix once.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class DuplicateLabelError(ValueError):
    """Two elements were declared with the same label."""


class UnknownLabelError(ValueError):
    """A relation pair references a label that was never declared."""


class CycleError(ValueError):
    """The input relations imply x <= y and y <= x for distinct x, y."""


class Extremes(NamedTuple):
    minimal: frozenset[str]
    maximal: frozenset[str]
    least: str | None
    greatest: str | None


class Poset:
    """Immutable finite poset over labelled elements.

    The constructor trusts ``leq`` to be transitive (the factory
    functions below always close their input) but verifies shape,
    reflexivity and antisymmetry, which are cheap.
    """

    __slots__ = ("labels", "leq", "_index")

    def __init__(self, labels: Iterable[str], leq: np.ndarray):
        self.labels = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise DuplicateLabelError("duplicate element labels")
        mat = np.array(leq, dtype=bool)
        n = len(self.labels)
        if mat.shape != (n, n):
            raise ValueError(f"relation matrix must be {n}x{n}, got {mat.shape}")
        if n and not mat.diagonal().all():
            raise ValueError("relation must be reflexive")
        sym = mat & mat.T
        np.fill_diagonal(sym, False)
        if sym.any():
            a, b = map(int, np.argwhere(sym)[0])
            raise CycleError(
                f"antisymmetry violated: {self.labels[a]!r} and {self.labels[b]!r}"
            )
        mat.setflags(write=False)
        self.leq = mat

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(f"unknown element {label!r}") from None

    def holds(self, a: str, b: str) -> bool:
        """True iff a <= b."""
        return bool(self.leq[self.index(a), self.index(b)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        if set(self.labels) != set(other.labels):
            return False
        perm = [other.index(lab) for lab in self.labels]
        return bool((self.leq == other.leq[np.ix_(perm, perm)]).all())

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, labels={self.labels!r})"


def masks_to_rows(masks: list[int], n: int) -> np.ndarray:
    """int bitmasks (bit j = column j), one per row, as a bool matrix
    with n columns."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), np.uint8)
    rows = packed.reshape(len(masks), width)
    return np.unpackbits(rows, axis=1, count=n, bitorder="little").astype(bool)


def pairs_of(names: Sequence, a: np.ndarray, b: np.ndarray) -> frozenset:
    """(names[i], names[j]) for each i, j of the index arrays a, b."""
    return frozenset(zip(map(names.__getitem__, a.tolist()), map(names.__getitem__, b.tolist())))


def _closure(n: int, pairs: Iterable[tuple[int, int]]) -> np.ndarray:
    """Reflexive-transitive closure of a relation on range(n), given as
    index pairs, as an n x n bool matrix.

    Every member of a strongly connected component reaches the
    component and whatever its successors reach. Tarjan's algorithm
    (SIAM J. Comput. 1(2), 1972) finishes the components in reverse
    topological order, so each successor's bitmask is complete when a
    component ORs it in. A cyclic relation is closed the same way; the
    Poset constructor then rejects it.
    """
    out: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        out[a].append(b)
    order = [-1] * n  # discovery number, -1 until visited
    low = [0] * n
    reach = [0] * n  # nonzero exactly when the vertex's component is finished
    stack: list[int] = []  # visited vertices whose component is not finished
    count = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(out[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if order[w] < 0:
                    order[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, iter(out[w])))
                    break
                if not reach[w] and order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == order[v]:
                    # v roots a component: itself and the vertices
                    # above it on the stack
                    members = [stack.pop()]
                    while members[-1] != v:
                        members.append(stack.pop())
                    mask = 0
                    for x in members:
                        mask |= 1 << x
                    for x in members:
                        for y in out[x]:
                            mask |= reach[y]
                    for x in members:
                        reach[x] = mask
    return masks_to_rows(reach, n)


def poset_from_relations(
    labels: Sequence[str], pairs: Iterable[tuple[str, str]]
) -> Poset:
    """Build a poset from "a <= b" assertions.

    Pairs are arbitrary comparabilities, not necessarily covers or a
    closed relation; the reflexive-transitive closure is always taken.
    Raises CycleError when the pairs contain a directed cycle.
    """
    index: dict[str, int] = {}
    for lab in labels:
        if lab in index:
            raise DuplicateLabelError(f"duplicate label {lab!r}")
        index[lab] = len(index)
    edges = []
    for a, b in pairs:
        if a not in index:
            raise UnknownLabelError(f"unknown element {a!r}")
        if b not in index:
            raise UnknownLabelError(f"unknown element {b!r}")
        edges.append((index[a], index[b]))
    return Poset(labels, _closure(len(index), edges))


def transitive_reduction(p: Poset) -> frozenset[tuple[str, str]]:
    """Cover pairs (lower, upper) of the poset.

    (a, b) is kept iff a < b and no x satisfies a < x < b; the closure
    of the result equals the original relation.
    """
    strict = p.leq & ~np.eye(p.n, dtype=bool)
    # counts paths of length two through the strict order; the counts
    # are at most n, and float32 holds every integer below 2**24 exactly
    assert p.n < 1 << 24
    two_step = strict.astype(np.float32) @ strict.astype(np.float32)
    return pairs_of(p.labels, *np.nonzero(strict & (two_step == 0)))


def extremes(p: Poset) -> Extremes:
    """Minimal and maximal elements plus least/greatest when they exist.

    One reduction per axis over the strict order finds the minimal and
    maximal elements, and one per axis over the order the least and
    greatest; by antisymmetry at most one element is either.
    """
    strict = p.leq.copy()
    np.fill_diagonal(strict, False)
    least = np.flatnonzero(p.leq.all(axis=1)).tolist()
    greatest = np.flatnonzero(p.leq.all(axis=0)).tolist()
    return Extremes(
        frozenset(compress(p.labels, (~strict.any(axis=0)).tolist())),
        frozenset(compress(p.labels, (~strict.any(axis=1)).tolist())),
        p.labels[least[0]] if least else None,
        p.labels[greatest[0]] if greatest else None,
    )


def parse_edge_list(text: str) -> Poset:
    """Parse the edge-list text format.

    One pair per line, "u v", meaning u <= v. A '#' starts a comment.
    Isolated elements are declared on their own line as "node u".
    Labels are whitespace-free tokens; first appearance fixes the
    index, and the pairs are numbered in the same pass.
    """
    index: dict[str, int] = {}
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "node":
            if len(tokens) != 2:
                raise ValueError(f"line {lineno}: expected 'node <label>'")
            index.setdefault(tokens[1], len(index))
        elif len(tokens) == 2:
            a, b = tokens
            pairs.append((index.setdefault(a, len(index)), index.setdefault(b, len(index))))
        else:
            raise ValueError(
                f"line {lineno}: expected 'u v' or 'node u', got {line!r}"
            )
    return Poset(index, _closure(len(index), pairs))
