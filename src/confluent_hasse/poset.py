"""Finite partial orders stored as int bitmasks: per element, its
up-set and its down-set.

Elements are identified by unique string labels and numbered in label
order; bit j of ``up[i]`` holds exactly when element i is less than or
equal to element j, and bit j of ``down[i]`` when j <= i. Each factory
makes the masks directly: closure ORs them along the input pairs, by
strongly connected components in reverse topological order for the
up-sets and in topological order for the down-sets, and the
intersection of two linear orders takes suffix ORs along each. The
extremes are compares of one mask per element, and the reduction walks
each up-set from its lowest bit, one cover at a time. This module is
the only one that converts the masks to and from a bool matrix: the
``Poset(labels, leq)`` constructor packs one, ``leq`` unpacks one for
reference code, and ``mask_blocks`` unpacks masks a block of rows at a
time.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, NamedTuple, Sequence

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

    ``up`` and ``down`` hold the order as one int bitmask per element.
    The constructor takes it as an n x n bool matrix instead,
    ``leq[i, j]`` when element i <= element j: it trusts the matrix to
    be transitive (the factory functions below always close their
    input) but verifies shape, reflexivity and antisymmetry, which are
    cheap. ``leq`` is a read-only matrix view of the masks, built on
    first read.
    """

    __slots__ = ("labels", "up", "down", "_index", "_leq")

    def __init__(self, labels: Iterable[str], leq: np.ndarray):
        self._set_labels(labels)
        mat = np.array(leq, dtype=bool)
        n = len(self.labels)
        if mat.shape != (n, n):
            raise ValueError(f"relation matrix must be {n}x{n}, got {mat.shape}")
        if n and not mat.diagonal().all():
            raise ValueError("relation must be reflexive")
        self.up = _masks_of_rows(mat)
        self.down = _masks_of_rows(mat.T)
        self._check_antisymmetric()
        mat.setflags(write=False)
        self._leq = mat

    @classmethod
    def _of_masks(cls, labels: Iterable[str], up: list[int], down: list[int]) -> Poset:
        """The poset of reflexive, transitive up-set and down-set masks,
        down the transpose of up; antisymmetry is checked."""
        p = object.__new__(cls)
        p._set_labels(labels)
        p.up, p.down, p._leq = up, down, None
        p._check_antisymmetric()
        return p

    def _set_labels(self, labels: Iterable[str]) -> None:
        self.labels = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise DuplicateLabelError("duplicate element labels")

    def _check_antisymmetric(self) -> None:
        """Raise CycleError naming the first pair (a, b), a != b, in
        label order with a <= b and b <= a. Bit i is in both masks of
        element i, so another is there exactly when the AND has more."""
        for a, (u, d) in enumerate(zip(self.up, self.down)):
            if (u & d).bit_count() > 1:
                both = u & d & ~(1 << a)
                b = (both & -both).bit_length() - 1
                raise CycleError(
                    f"antisymmetry violated: {self.labels[a]!r} and {self.labels[b]!r}"
                )

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def leq(self) -> np.ndarray:
        """The order as a read-only n x n bool matrix: ``leq[i, j]``
        holds exactly when element i <= element j."""
        if self._leq is None:
            mat = masks_to_rows(self.up, self.n)
            mat.setflags(write=False)
            self._leq = mat
        return self._leq

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(f"unknown element {label!r}") from None

    def holds(self, a: str, b: str) -> bool:
        """True iff a <= b."""
        return bool(self.up[self.index(a)] >> self.index(b) & 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        if self.labels == other.labels:
            return self.up == other.up
        if set(self.labels) != set(other.labels):
            return False
        perm = [other.index(lab) for lab in self.labels]
        return bool((self.leq == other.leq[np.ix_(perm, perm)]).all())

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, labels={self.labels!r})"


def _masks_of_rows(mat: np.ndarray) -> list[int]:
    """Each row of a bool matrix as an int bitmask (bit j = column j)."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def masks_to_rows(masks: list[int], n: int) -> np.ndarray:
    """int bitmasks (bit j = column j), one per row, as a bool matrix
    with n columns."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), np.uint8)
    rows = packed.reshape(len(masks), width)
    return np.unpackbits(rows, axis=1, count=n, bitorder="little").astype(bool)


# rows of masks that mask_blocks unpacks at once
MASK_ROW_BLOCK = 1024


def mask_blocks(masks: list[int], n: int) -> Iterator[tuple[int, np.ndarray]]:
    """The masks as a bool matrix with n columns, MASK_ROW_BLOCK rows at
    a time: (index of the block's first row, its rows)."""
    for top in range(0, len(masks), MASK_ROW_BLOCK):
        yield top, masks_to_rows(masks[top : top + MASK_ROW_BLOCK], n)


def _closure(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """Reflexive-transitive closure of a relation on range(n), given as
    index pairs, as up-set and down-set masks.

    Every member of a strongly connected component reaches the
    component and whatever its successors reach. Tarjan's algorithm
    (SIAM J. Comput. 1(2), 1972) finishes the components in reverse
    topological order, so each successor's up-set is complete when a
    component ORs it in; the down-sets are ORed along the in-edges with
    the components taken the other way round. A cyclic relation is
    closed the same way; the Poset check then rejects it.
    """
    out: list[list[int]] = [[] for _ in range(n)]
    into: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        out[a].append(b)
        into[b].append(a)
    order = [-1] * n  # discovery number, -1 until visited
    low = [0] * n
    reach = [0] * n  # nonzero exactly when the vertex's component is finished
    stack: list[int] = []  # visited vertices whose component is not finished
    finished: list[list[int]] = []  # the components, in reverse topological order
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
                    finished.append(members)
    down = [0] * n  # nonzero exactly when the vertex's component is done
    for members in reversed(finished):
        mask = 0
        for x in members:
            mask |= 1 << x
            for y in into[x]:
                mask |= down[y]
        for x in members:
            down[x] = mask
    return reach, down


def up_sets(first: Sequence[int], second: Sequence[int]) -> list[int]:
    """Up-set masks of the intersection of two linear orders on
    range(n), each listed from bottom to top: bit j of entry i holds
    exactly when j comes at or after i in both. One suffix OR along
    each order, so O(n) int operations and no n x n array."""
    up = [0] * len(first)
    acc = 0
    for i in reversed(first):
        acc |= 1 << i
        up[i] = acc
    acc = 0
    for i in reversed(second):
        acc |= 1 << i
        up[i] &= acc
    return up


def intersection_order(labels: Sequence[str], second: Sequence[int]) -> Poset:
    """The intersection of the label order with a second linear order,
    given as indices into labels from bottom to top. The label order is
    then a linear extension. The down-sets are the up-sets of the two
    orders reversed."""
    first = range(len(labels))
    return Poset._of_masks(labels, up_sets(first, second), up_sets(first[::-1], second[::-1]))


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
    return Poset._of_masks(labels, *_closure(len(index), edges))


def renumbered(masks: list[int], order: Sequence[int]) -> list[int]:
    """The masks of a relation with element order[i] renamed i: entry i
    is ``masks[order[i]]`` with bit order[j] moved to bit j. The masks
    are unpacked MASK_ROW_BLOCK rows at a time (``mask_blocks``)."""
    blocks = mask_blocks([masks[i] for i in order], len(order))
    return [m for _, rows in blocks for m in _masks_of_rows(rows[:, order])]


def bits(mask: int) -> Iterator[int]:
    """The set bits of an int bitmask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def cover_rows(up: list[int]) -> list[int]:
    """The cover relation of the order with the given up-set masks, as
    one int bitset per element in the same numbering: bit j of entry i
    holds exactly when j covers i.

    (i, j) is a cover iff i < j and no x satisfies i < x < j (Aho,
    Garey & Ullman, SIAM J. Comput. 1(2), 1972). Per element, its upper
    covers are the minimal elements of its strict up-set. With the
    elements numbered along a linear extension, the lowest bit left
    there is one of them; it is taken, its own up-set is cleared from
    the rest, and so on. That is a few int operations per cover.
    Posets made from realizers, and the vertices of their drawings, are
    numbered along a linear extension already; other numberings are
    renumbered by up-set size, which a strictly larger element always
    has less of, and the rows are renumbered back.
    """
    if any((u & -u).bit_length() != i + 1 for i, u in enumerate(up)):
        order = sorted(range(len(up)), key=lambda i: -up[i].bit_count())
        back = sorted(range(len(up)), key=order.__getitem__)
        return renumbered(cover_rows(renumbered(up, order)), back)
    rows = []
    for i, rest in enumerate(up):
        rest ^= 1 << i
        row = 0
        while rest:
            low = rest & -rest
            row |= low
            rest ^= rest & up[low.bit_length() - 1]
        rows.append(row)
    return rows


def transitive_reduction(p: Poset) -> frozenset[tuple[str, str]]:
    """Cover pairs (lower, upper) of the poset: the label view of
    ``cover_rows``. The closure of the result equals the original
    relation."""
    labels = p.labels
    return frozenset(
        (lab, labels[j]) for lab, row in zip(labels, cover_rows(p.up)) for j in bits(row)
    )


def extremes(p: Poset) -> Extremes:
    """Minimal and maximal elements plus least/greatest when they exist.

    An element is minimal when its down-set holds itself alone, and
    least when its up-set holds every element; by antisymmetry at most
    one element is least, and likewise greatest.
    """
    n = p.n
    least = [i for i, u in enumerate(p.up) if u.bit_count() == n]
    greatest = [i for i, d in enumerate(p.down) if d.bit_count() == n]
    return Extremes(
        frozenset(compress(p.labels, [d.bit_count() == 1 for d in p.down])),
        frozenset(compress(p.labels, [u.bit_count() == 1 for u in p.up])),
        p.labels[least[0]] if least else None,
        p.labels[greatest[0]] if greatest else None,
    )


def parse_edge_list(text: str) -> Poset:
    """Parse the edge-list text format.

    One pair per line, "u v", meaning u <= v. A '#' starts a comment.
    Isolated elements are declared on their own line as "node u".
    Labels are whitespace-free tokens other than the keyword "node",
    which a line may use only to declare; first appearance fixes the
    index, and the pairs are numbered in the same pass.
    """
    index: dict[str, int] = {}
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if "node" in tokens[1:]:
            raise ValueError(f"line {lineno}: 'node' is a keyword, not a label: {line!r}")
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
    return Poset._of_masks(index, *_closure(len(index), pairs))
