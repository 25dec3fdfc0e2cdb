"""Series-parallel orders: expression parser, decomposition trees, and
the linear-time confluent layout.

The layout composes children's bounding boxes corner to corner: a
series composition stacks the second box up-and-right of the first
(everything in it dominates the first box), a parallel composition
stacks it down-and-right (nothing comparable). A series step inserts a
junction at the shared corner exactly when the lower part has several
maximal elements and the upper part several minimal ones; otherwise the
unique extreme vertex fans out directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .diagram import Diagram
from .grid import GridPoint, GridScene, JUNCTION, VERTEX
from .poset import Poset


class SpSyntaxError(ValueError):
    """Malformed series-parallel expression."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DuplicateLeafError(ValueError):
    """The same element label occurs in two leaves."""


@dataclass(frozen=True)
class SpLeaf:
    label: str


@dataclass(frozen=True)
class SpSeries:
    left: "SpTree"
    right: "SpTree"


@dataclass(frozen=True)
class SpParallel:
    left: "SpTree"
    right: "SpTree"


SpTree = Union[SpLeaf, SpSeries, SpParallel]

_PUNCT = {";", "|", "(", ")"}


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _PUNCT:
            tokens.append((ch, i))
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in _PUNCT:
                j += 1
            tokens.append((text[i:j], i))
            i = j
    return tokens


_PRECEDENCE = {";": 1, "|": 2}


def parse_sp(text: str) -> SpTree:
    """Parse a series-parallel expression.

    ';' is series composition (lowest precedence), '|' parallel; both
    associate to the left, parentheses group, whitespace is ignored.
    Leaf names are any tokens free of whitespace and punctuation.
    Operator precedence with explicit stacks, so nesting depth is
    bounded by memory only.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise SpSyntaxError("empty expression", 0)
    operands: list[SpTree] = []
    ops: list[str] = []  # pending ';' and '|', and '(' for each open group

    def reduce() -> None:
        right = operands.pop()
        left = operands.pop()
        operands.append(SpSeries(left, right) if ops.pop() == ";" else SpParallel(left, right))

    want_operand = True
    for tok, at in tokens + [("", len(text))]:
        if want_operand:
            if tok == "(":
                ops.append(tok)
            elif tok and tok not in _PUNCT:
                operands.append(SpLeaf(tok))
                want_operand = False
            else:
                found = f", found {tok!r}" if tok else ""
                raise SpSyntaxError(f"expected element name or '('{found}", at)
        elif tok in _PRECEDENCE:
            while ops and ops[-1] != "(" and _PRECEDENCE[ops[-1]] >= _PRECEDENCE[tok]:
                reduce()
            ops.append(tok)
            want_operand = True
        else:
            # an operand ends here: the innermost open group must close,
            # or the whole expression must end
            while ops and ops[-1] != "(":
                reduce()
            if tok == ")" and ops:
                ops.pop()
            elif ops:
                found = f", found {tok!r}" if tok else ""
                raise SpSyntaxError(f"expected ')'{found}", at)
            elif tok:
                raise SpSyntaxError(f"unexpected {tok!r} after complete expression", at)
    tree = operands[0]
    seen: set[str] = set()
    for lab in sp_leaves(tree):
        if lab in seen:
            raise DuplicateLeafError(f"leaf {lab!r} occurs twice")
        seen.add(lab)
    return tree


def _postorder(t: SpTree) -> Iterator[SpTree]:
    stack: list[tuple[SpTree, bool]] = [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, SpLeaf) or expanded:
            yield node
        else:
            stack.append((node, True))
            stack.append((node.right, False))
            stack.append((node.left, False))


def sp_leaves(t: SpTree) -> list[str]:
    """Leaf labels in left-to-right order."""
    return [node.label for node in _postorder(t) if isinstance(node, SpLeaf)]


def _leaf_counts(t: SpTree) -> dict[int, int]:
    counts: dict[int, int] = {}
    for node in _postorder(t):
        if isinstance(node, SpLeaf):
            counts[id(node)] = 1
        else:
            counts[id(node)] = counts[id(node.left)] + counts[id(node.right)]
    return counts


def sp_to_poset(t: SpTree) -> Poset:
    """The order the tree denotes: series puts the whole left part
    below the whole right part, parallel makes the parts incomparable."""
    labels = sp_leaves(t)
    if len(set(labels)) != len(labels):
        raise DuplicateLeafError("leaf labels must be unique")
    n = len(labels)
    counts = _leaf_counts(t)
    # leaf intervals follow the left-to-right order
    start: dict[int, int] = {}
    stack: list[tuple[SpTree, int]] = [(t, 0)]
    while stack:
        node, s = stack.pop()
        start[id(node)] = s
        if not isinstance(node, SpLeaf):
            stack.append((node.left, s))
            stack.append((node.right, s + counts[id(node.left)]))
    leq = np.eye(n, dtype=bool)
    for node in _postorder(t):
        if isinstance(node, SpSeries):
            s = start[id(node)]
            mid = s + counts[id(node.left)]
            end = s + counts[id(node)]
            leq[s:mid, mid:end] = True
    return Poset(labels, leq)


class _Chain:
    """Singly linked list with O(1) splice, for min/max node lists."""

    __slots__ = ("head", "tail", "size")

    def __init__(self, value: int):
        cell = [value, None]
        self.head = cell
        self.tail = cell
        self.size = 1

    def splice(self, other: "_Chain") -> "_Chain":
        self.tail[1] = other.head
        self.tail = other.tail
        self.size += other.size
        return self

    def __iter__(self) -> Iterator[int]:
        cell = self.head
        while cell is not None:
            yield cell[0]
            cell = cell[1]


def sp_layout(t: SpTree) -> Diagram:
    """Confluent diagram of the tree's order, in time linear in the
    tree size, on the same (2n+1)-sided grid as the general pipeline
    but without invisible bound points."""
    labels = sp_leaves(t)
    if len(set(labels)) != len(labels):
        raise DuplicateLeafError("leaf labels must be unique")
    n = len(labels)
    counts = _leaf_counts(t)

    # box origins in cell units; leaves then occupy even grid coords
    col: dict[int, int] = {}
    row: dict[int, int] = {}
    stack: list[tuple[SpTree, int, int]] = [(t, 0, 0)]
    while stack:
        node, c0, r0 = stack.pop()
        col[id(node)] = c0
        row[id(node)] = r0
        if isinstance(node, SpSeries):
            k = counts[id(node.left)]
            stack.append((node.left, c0, r0))
            stack.append((node.right, c0 + k, r0 + k))
        elif isinstance(node, SpParallel):
            kl = counts[id(node.left)]
            kr = counts[id(node.right)]
            stack.append((node.left, c0, r0 + kr))
            stack.append((node.right, c0 + kl, r0))

    points: list[GridPoint] = [None] * n  # type: ignore[list-item]
    segments: list[tuple[int, int]] = []
    next_id = n
    state: dict[int, tuple[_Chain, _Chain]] = {}

    for node in _postorder(t):
        if isinstance(node, SpLeaf):
            c = col[id(node)]
            pid = c  # column order equals leaf order
            points[pid] = GridPoint(pid, VERTEX, 2 * (c + 1), 2 * (row[id(node)] + 1), node.label)
            state[id(node)] = (_Chain(pid), _Chain(pid))
            continue
        min_l, max_l = state.pop(id(node.left))
        min_r, max_r = state.pop(id(node.right))
        if isinstance(node, SpParallel):
            state[id(node)] = (min_l.splice(min_r), max_l.splice(max_r))
            continue
        # series: connect left maxima to right minima
        if max_l.size > 1 and min_r.size > 1:
            k = counts[id(node.left)]
            jx = 2 * (col[id(node)] + k) + 1
            jy = 2 * (row[id(node)] + k) + 1
            jid = next_id
            next_id += 1
            points.append(GridPoint(jid, JUNCTION, jx, jy))
            for q in max_l:
                segments.append((q, jid))
            for q in min_r:
                segments.append((jid, q))
        elif max_l.size == 1:
            a = max_l.head[0]
            for q in min_r:
                segments.append((a, q))
        else:
            b = min_r.head[0]
            for q in max_l:
                segments.append((q, b))
        state[id(node)] = (min_l, max_r)

    scene = GridScene(n, tuple(points))
    return Diagram(scene, segments)
