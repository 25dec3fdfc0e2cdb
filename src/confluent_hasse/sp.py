"""Series-parallel orders: expression parser, decomposition trees, and
the linear-time confluent layout.

The layout places the tree's realizer with the general pipeline's
``place_on_grid``. Each subtree's vertices then fill one box, and the
boxes compose corner to corner: a series composition has the second
box up-and-right of the first (everything in it dominates the first
box), a parallel composition has it down-and-right (nothing
comparable). One postorder pass adds the segments. A series step
inserts a junction at the cell up-and-right of the lower box's corner
exactly when the lower part has several maximal elements and the upper
part several minimal ones; otherwise the unique extreme vertex fans out
directly. Invisible bounds come from ``grid.bound_points``, as in the
general pipeline, so the result is that pipeline's diagram of the same
realizer without its quadratic scan of the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .diagram import Diagram
from .grid import GridPoint, GridScene, JUNCTION, bound_points, place_on_grid
from .poset import Poset
from .realizer import Realizer, poset_from_realizer


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


def sp_realizer(t: SpTree) -> Realizer:
    """The tree's realizer: the leaves left to right, and the leaves
    left to right with the two parts of every parallel composition
    swapped. Series puts the left part before the right one in both
    orders, parallel in one order only, so the two intersect to the
    tree's order (Valdes, Tarjan & Lawler, SIAM J. Comput. 1982)."""
    l2: list[str] = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, SpLeaf):
            l2.append(node.label)
        elif isinstance(node, SpSeries):
            stack.append(node.right)
            stack.append(node.left)
        else:
            stack.append(node.left)
            stack.append(node.right)
    return Realizer(sp_leaves(t), l2)


def sp_to_poset(t: SpTree) -> Poset:
    """The order the tree denotes: series puts the whole left part
    below the whole right part, parallel makes the parts incomparable."""
    return poset_from_realizer(sp_realizer(t))


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
    tree size: the vertices, junctions and invisible bounds the general
    pipeline puts on the (2n+1)-sided grid for ``sp_realizer(t)``, and
    their cover segments, without scanning the grid."""
    scene = place_on_grid(sp_realizer(t))
    points = list(scene.points)
    segments: list[tuple[int, int]] = []
    # per finished subtree: its minima, its maxima, and the top-right
    # corner of the box its vertices fill
    done: list[tuple[_Chain, _Chain, int, int]] = []
    leaf = 0  # postorder meets the leaves left to right, i.e. by point id

    for node in _postorder(t):
        if isinstance(node, SpLeaf):
            p = points[leaf]
            done.append((_Chain(leaf), _Chain(leaf), p.x, p.y))
            leaf += 1
            continue
        min_r, max_r, xr, yr = done.pop()
        min_l, max_l, xl, yl = done.pop()
        if isinstance(node, SpParallel):
            # the right box sits down-and-right of the left one
            done.append((min_l.splice(min_r), max_l.splice(max_r), xr, yl))
            continue
        # series: connect left maxima to right minima
        if max_l.size > 1 and min_r.size > 1:
            jid = len(points)
            points.append(GridPoint(JUNCTION, xl + 1, yl + 1))
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
        done.append((min_l, max_r, xr, yr))

    minima, maxima, _, _ = done.pop()
    bottom, top = bound_points(scene.n, minima.size == 1, maxima.size == 1)
    if bottom is not None:
        segments.extend((len(points), q) for q in minima)
        points.append(bottom)
    if top is not None:
        segments.extend((q, len(points)) for q in maxima)
        points.append(top)
    return Diagram(GridScene(scene.n, tuple(points)), segments)
