"""Finite partial orders stored as int bitmasks: per element, its
up-set and its down-set.

Elements are identified by unique string labels and numbered in label
order; bit j of ``up[i]`` holds exactly when element i is less than or
equal to element j, and bit j of ``down[i]`` when j <= i. The one
constructor, ``Poset(labels, up, down)``, takes these masks, and each
factory makes them directly: closure ORs them along the input pairs,
by strongly connected components in reverse topological order for the
up-sets and in topological order for the down-sets, and the
intersection of two linear orders takes suffix ORs along each. The
extremes are compares of one mask per element, and the reduction walks
each up-set from its lowest bit, one cover at a time. A bool matrix
appears only inside ``renumbered``, which unpacks the masks a block of
rows at a time to permute their bits.
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

    ``up`` and ``down`` hold the order as one int bitmask per element,
    in label order: bit j of ``up[i]`` when element i <= element j, and
    bit j of ``down[i]`` when j <= i. The constructor trusts the masks
    to be transitive, and ``down`` to be the transpose of ``up`` (the
    factory functions below always close their input), but verifies
    what is cheap: one mask of each kind per label, each holding its
    own element's bit and none at or past n, and antisymmetry.
    """

    __slots__ = ("labels", "up", "down", "_index")

    def __init__(self, labels: Iterable[str], up: Sequence[int], down: Sequence[int]):
        self.labels = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        n = len(self.labels)
        if len(self._index) != n:
            raise DuplicateLabelError("duplicate element labels")
        if len(up) != n or len(down) != n:
            raise ValueError(
                f"need {n} up-set and {n} down-set masks, got {len(up)} and {len(down)}"
            )
        for i, (u, d) in enumerate(zip(up, down)):
            both = u & d
            if u >> n or d >> n or not both >> i & 1:
                raise ValueError(
                    f"the masks of {self.labels[i]!r} must hold its own bit and none from {n} on"
                )
            if both.bit_count() > 1:
                # bit i is in both masks, so another is an element b
                # with i <= b and b <= i
                both ^= 1 << i
                b = (both & -both).bit_length() - 1
                raise CycleError(
                    f"antisymmetry violated: {self.labels[i]!r} and {self.labels[b]!r}"
                )
        # copies: the caller's lists may change later, and __eq__
        # compares lists
        self.up = list(up)
        self.down = list(down)

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
        return bool(self.up[self.index(a)] >> self.index(b) & 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        if self.labels == other.labels:
            return self.up == other.up
        if set(self.labels) != set(other.labels):
            return False
        return renumbered(other.up, list(map(other.index, self.labels))) == self.up

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


# rows of masks that renumbered unpacks at once
MASK_ROW_BLOCK = 1024


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
    return Poset(labels, *_closure(len(index), edges))


def renumbered(masks: list[int], order: Sequence[int]) -> list[int]:
    """The masks of a relation with element order[i] renamed i: entry i
    is ``masks[order[i]]`` with bit order[j] moved to bit j. The masks
    are unpacked to bool rows MASK_ROW_BLOCK at a time."""
    n = len(order)
    out: list[int] = []
    for top in range(0, n, MASK_ROW_BLOCK):
        rows = masks_to_rows([masks[i] for i in order[top : top + MASK_ROW_BLOCK]], n)
        out += _masks_of_rows(rows[:, order])
    return out


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
    return Poset(index, *_closure(len(index), pairs))
