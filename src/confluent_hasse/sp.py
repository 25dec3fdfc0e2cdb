"""Series-parallel orders: expression parser, decomposition trees, and
the linear-time confluent layout.

The parser pads the four punctuation characters with spaces and splits
the text with ``str.split()``, which splits at exactly the characters
``str.isspace`` accepts. It builds the tree with an operator stack in
one pass over the tokens, noting a repeated leaf as it goes (a syntax
error anywhere still wins over a repeated leaf). Tree nodes are
slotted frozen dataclasses.

The layout puts vertices where the general pipeline's
``place_on_grid`` puts the tree's realizer: x from the leaves left to
right, y from the realizer's second order, which swaps the parts of
every parallel composition. Each subtree's vertices then fill one box,
and the boxes compose corner to corner: a series composition has the
second box up-and-right of the first (everything in it dominates the
first box), a parallel composition has it down-and-right (nothing
comparable). One postorder pass adds the segments and threads the
second order through the leaves as a linked list; one walk of that
list then gives every vertex its y, and each junction the y just above
the lower part's top vertex. A series step inserts a junction at the
cell up-and-right of the lower box's corner exactly when the lower part has
several maximal elements and the upper part several minimal ones;
otherwise the unique extreme vertex fans out directly. Invisible bounds
come from ``grid.bound_points``, as in the general pipeline, so the
result is that pipeline's diagram of the same realizer without its
quadratic scan of the grid.
"""

from __future__ import annotations

import gc
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Union

import numpy as np

from .diagram import Diagram
from .grid import JUNCTION, VERTEX, GridScene, bound_points
from .poset import Poset
from .realizer import Realizer, poset_from_realizer


@contextmanager
def _collector_paused():
    """Hold the cyclic garbage collector off while the parser builds a
    tree or the layout a diagram: neither makes a reference cycle, yet
    each full collection would traverse the growing tree again."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class SpSyntaxError(ValueError):
    """Malformed series-parallel expression."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DuplicateLeafError(ValueError):
    """The same element label occurs in two leaves."""


@dataclass(frozen=True, slots=True)
class SpLeaf:
    label: str


@dataclass(frozen=True, slots=True)
class SpSeries:
    left: "SpTree"
    right: "SpTree"


@dataclass(frozen=True, slots=True)
class SpParallel:
    left: "SpTree"
    right: "SpTree"


SpTree = Union[SpLeaf, SpSeries, SpParallel]

_PUNCT = {";", "|", "(", ")"}
# the tokens parse_sp splits off, as a pattern that gives their offsets
_TOKEN = re.compile(r"[;|()]|[^\s;|()]+")  # \s is exactly str.isspace


def _token_position(text: str, k: int) -> int:
    """Character offset of the k-th token, or len(text) past the last."""
    for i, m in enumerate(_TOKEN.finditer(text)):
        if i == k:
            return m.start()
    return len(text)


@_collector_paused()
def parse_sp(text: str) -> SpTree:
    """Parse a series-parallel expression.

    ';' is series composition (lowest precedence), '|' parallel; both
    associate to the left, parentheses group, whitespace is ignored.
    Leaf names are any tokens free of whitespace and punctuation.
    Operator precedence with explicit stacks, so nesting depth is
    bounded by memory only. A syntax error is reported before a
    repeated leaf.
    """
    # punctuation padded with spaces; str.split() splits at exactly the
    # characters str.isspace accepts
    padded = text.replace(";", " ; ").replace("|", " | ")
    tokens = padded.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise SpSyntaxError("empty expression", 0)
    tokens.append("")  # the end of the text
    operands: list[SpTree] = []
    ops: list[str] = []  # pending ';' and '|', and '(' for each open group
    seen: set[str] = set()
    duplicate = None
    want_operand = True
    for k, tok in enumerate(tokens):
        if want_operand:
            if tok == "(":
                ops.append(tok)
            elif tok and tok not in _PUNCT:
                if duplicate is None and tok in seen:
                    duplicate = tok
                seen.add(tok)
                operands.append(SpLeaf(tok))
                want_operand = False
            else:
                found = f", found {tok!r}" if tok else ""
                raise SpSyntaxError(
                    f"expected element name or '('{found}", _token_position(text, k)
                )
        elif tok == "|":
            # '|' binds tighter than ';', so only pending '|' reduce
            while ops and ops[-1] == "|":
                ops.pop()
                right = operands.pop()
                operands[-1] = SpParallel(operands[-1], right)
            ops.append(tok)
            want_operand = True
        else:
            # ';', or an operand ends here: reduce back to the innermost
            # open group
            while ops and ops[-1] != "(":
                right = operands.pop()
                left = operands[-1]
                operands[-1] = SpSeries(left, right) if ops.pop() == ";" else SpParallel(left, right)
            if tok == ";":
                ops.append(tok)
                want_operand = True
            elif tok == ")" and ops:
                ops.pop()
            elif ops:
                found = f", found {tok!r}" if tok else ""
                raise SpSyntaxError(f"expected ')'{found}", _token_position(text, k))
            elif tok:
                raise SpSyntaxError(
                    f"unexpected {tok!r} after complete expression", _token_position(text, k)
                )
    if duplicate is not None:
        raise DuplicateLeafError(f"leaf {duplicate!r} occurs twice")
    return operands[0]


def sp_leaves(t: SpTree) -> list[str]:
    """Leaf labels in left-to-right order."""
    labels: list[str] = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, SpLeaf):
            labels.append(node.label)
        else:
            stack.append(node.right)
            stack.append(node.left)
    return labels


def _swapped_leaves(t: SpTree) -> list[str]:
    """Leaf labels left to right, with the two parts of every parallel
    composition swapped."""
    labels: list[str] = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, SpLeaf):
            labels.append(node.label)
        elif isinstance(node, SpSeries):
            stack.append(node.right)
            stack.append(node.left)
        else:
            stack.append(node.left)
            stack.append(node.right)
    return labels


def sp_realizer(t: SpTree) -> Realizer:
    """The tree's realizer: the leaves left to right, and the leaves
    left to right with the two parts of every parallel composition
    swapped. Series puts the left part before the right one in both
    orders, parallel in one order only, so the two intersect to the
    tree's order (Valdes, Tarjan & Lawler, SIAM J. Comput. 1982)."""
    return Realizer(sp_leaves(t), _swapped_leaves(t))


def sp_to_poset(t: SpTree) -> Poset:
    """The order the tree denotes: series puts the whole left part
    below the whole right part, parallel makes the parts incomparable."""
    return poset_from_realizer(sp_realizer(t))


@_collector_paused()
def sp_layout(t: SpTree) -> Diagram:
    """Confluent diagram of the tree's order, in time linear in the
    tree size: the vertices, junctions and invisible bounds the general
    pipeline puts on the (2n+1)-sided grid for ``sp_realizer(t)``, and
    their cover segments, without scanning the grid."""
    # One postorder walk, which meets the leaves left to right, i.e. by
    # point id: the reverse of a preorder that visits the right part
    # first. Minima and maxima chains are linked through next_min and
    # next_max, and the leaves in the second order of sp_realizer
    # through next2; -1 ends a chain.
    mirrored: list[SpTree] = []
    stack = [t]
    while stack:
        node = stack.pop()
        mirrored.append(node)
        if node.__class__ is not SpLeaf:
            stack.append(node.left)
            stack.append(node.right)
    n = (len(mirrored) + 1) // 2  # a full binary tree
    labels: list[str] = []
    jxs: list[int] = []
    below: list[int] = []  # per junction, the vertex whose y it sits just above
    # the segments as two columns: lower ids and upper ids
    los: list[int] = []
    his: list[int] = []
    lo_, hi_ = los.append, his.append
    next_min = [-1] * n
    next_max = [-1] * n
    next2 = [-1] * n
    # Per finished subtree: head and tail of its minima and of its
    # maxima (head == tail for one vertex). The head of its minima is
    # its first leaf. In the second order its leaves run from the tail
    # of its minima to the head of its maxima. Its vertices fill one
    # box, so the box of a series node's left part has its top-right
    # corner at (2 * rmin, y of lmax).
    done: list[tuple[int, int, int, int]] = []
    for node in reversed(mirrored):
        if node.__class__ is SpLeaf:
            v = len(labels)
            labels.append(node.label)
            done.append((v, v, v, v))
            continue
        rmin, rmin_tail, rmax, rmax_tail = done.pop()
        lmin, lmin_tail, lmax, lmax_tail = done.pop()
        if node.__class__ is SpParallel:
            # the right box sits down-and-right of the left one, so the
            # second order puts the right part first
            next_min[lmin_tail] = rmin
            next_max[lmax_tail] = rmax
            next2[rmax] = lmin_tail
            done.append((lmin, rmin_tail, lmax, rmax_tail))
            continue
        # series: the right box sits up-and-right of the left one;
        # connect left maxima to right minima
        next2[lmax] = rmin_tail
        if lmax != lmax_tail and rmin != rmin_tail:
            jid = n + len(jxs)
            jxs.append(2 * rmin + 1)
            below.append(lmax)
            q = lmax
            while q >= 0:
                lo_(q)
                hi_(jid)
                q = next_max[q]
            q = rmin
            while q >= 0:
                lo_(jid)
                hi_(q)
                q = next_min[q]
        elif lmax == lmax_tail:
            q = rmin
            while q >= 0:
                lo_(lmax)
                hi_(q)
                q = next_min[q]
        else:
            q = lmax
            while q >= 0:
                lo_(q)
                hi_(rmin)
                q = next_max[q]
        done.append((lmin, lmin_tail, rmax, rmax_tail))

    if len(set(labels)) != n:
        raise DuplicateLeafError("a leaf label occurs twice")
    minima, minima_tail, maxima, maxima_tail = done.pop()
    # y: ranks in the second order
    ys = [0] * n
    q, y = minima_tail, 2
    while q >= 0:
        ys[q] = y
        q, y = next2[q], y + 2
    scene = GridScene(n)
    scene.add(VERTEX, list(range(2, 2 * n + 1, 2)), ys, labels)
    scene.add(JUNCTION, jxs, [ys[q] + 1 for q in below])
    bottom, top = bound_points(scene, minima == minima_tail, maxima == maxima_tail)
    if bottom is not None:
        q = minima
        while q >= 0:
            lo_(bottom)
            hi_(q)
            q = next_min[q]
    if top is not None:
        q = maxima
        while q >= 0:
            lo_(q)
            hi_(top)
            q = next_max[q]
    return Diagram(scene, np.array([los, his], np.int64).T)
