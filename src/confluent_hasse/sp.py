"""Series-parallel orders: expression parser, decomposition trees, and
the linear-time confluent layout.

A tree is two flat sequences: its leaf labels left to right, and one
opcode per node in postorder (``LEAF``, ``SERIES`` or ``PARALLEL``),
which fixes a full binary tree. ``SpLeaf``, ``SpSeries`` and
``SpParallel`` are the types of a tree, chosen by its root's opcode.
Their constructors join the sequences of the parts, ``.left`` and
``.right`` are views into the same sequences, and ``==``, ``hash`` and
``repr`` read the sequences, so no operation on a tree recurses. The
constructors, ``SpTree.from_postorder`` and the parser each reject a
repeated leaf, so every tree has distinct leaves and the layout need
not look again.

The parser pads the four punctuation characters with spaces and splits
the text with ``str.split()``, which splits at exactly the characters
``str.isspace`` accepts. Its operator stack emits the postorder
directly, one opcode per leaf and per reduced operator, in one pass
over the tokens; a repeated leaf is looked for afterwards, so a syntax
error anywhere wins over it.

The layout puts vertices where the general pipeline's
``place_on_grid`` puts the tree's realizer: x from the leaves left to
right, y from the realizer's second order, which swaps the parts of
every parallel composition. Each subtree's vertices then fill one box,
and the boxes compose corner to corner: a series composition has the
second box up-and-right of the first (everything in it dominates the
first box), a parallel composition has it down-and-right (nothing
comparable). One forward pass over the opcodes adds the segments and
threads the second order through the leaves as a linked list; one walk
of that list then gives every vertex its y, and each junction the y
just above the lower part's top vertex. A series step inserts a
junction at the cell up-and-right of the lower box's corner exactly
when the lower part has several maximal elements and the upper part
several minimal ones; otherwise the unique extreme vertex fans out
directly. ``grid.with_junctions`` adds the junctions and the invisible
bounds to the vertices, as in the general pipeline.

The result is that pipeline's diagram of the same realizer, point ids
and segment order included, without its quadratic scan of the grid:
``sp_layout(t) == build_diagram(sp_realizer(t))``. Junction ids follow
the junctions' columns left to right, as ``grid.insert_junctions``
numbers them. A junction sits in the odd column just left of the
first leaf of its series node's right part, and that leaf starts no
other series node's right part, so no two junctions share a column. The
segments are ordered as ``diagram.sweep_cover_edges`` emits them: by
upper end in (row, column) order, and per upper end its lower ends left
to right, which is the order the minima and maxima chains run in. The
tests hold the two paths to that equality, so either one is the other's
reference.
"""

from __future__ import annotations

import re

import numpy as np

from .diagram import Diagram
from .grid import vertex_scene, with_junctions
from .poset import Poset
from .realizer import Realizer, poset_from_realizer

# the opcodes of a tree's postorder; _OPEN marks an open group on the
# parser's operator stack only
LEAF, SERIES, PARALLEL = range(3)
_OPEN = 3


class SpSyntaxError(ValueError):
    """Malformed series-parallel expression."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DuplicateLeafError(ValueError):
    """The same element label occurs in two leaves."""


class SpTree:
    """A series-parallel tree: leaf labels left to right and postorder
    opcodes. A subtree is the opcodes ``ops[lo:hi]`` with its leaves
    from ``labels[first]`` on; ``starts``, once computed, gives the
    first opcode of the subtree ending at each position."""

    __slots__ = ("_labels", "_ops", "_lo", "_hi", "_first", "_starts")

    @staticmethod
    def from_postorder(labels, ops) -> SpTree:
        """The tree of leaf labels left to right and postorder opcodes,
        checked to be one full binary tree over exactly those leaves,
        no two of them the same."""
        labels, ops = tuple(labels), bytes(ops)
        depth = leaves = 0
        for op in ops:
            if op == LEAF:
                depth += 1
                leaves += 1
            elif op in (SERIES, PARALLEL) and depth >= 2:
                depth -= 1
            else:
                raise ValueError("opcodes do not form a postorder of one binary tree")
        if depth != 1 or leaves != len(labels):
            raise ValueError("opcodes do not form a postorder of one binary tree")
        _check_leaves(labels)
        return _tree(labels, ops)

    def postorder(self) -> tuple[tuple[str, ...], bytes]:
        """The leaf labels left to right and the opcodes in postorder."""
        lo, hi = self._lo, self._hi
        if lo == 0 and hi == len(self._ops):
            return self._labels, self._ops
        first = self._first
        return self._labels[first : first + (hi - lo + 1) // 2], self._ops[lo:hi]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpTree):
            return NotImplemented
        return self.postorder() == other.postorder()

    def __hash__(self) -> int:
        return hash(self.postorder())

    def __repr__(self) -> str:
        # nested (name, left, right) per operator, then written out
        # from an explicit stack
        labels, ops = self.postorder()
        leaf = iter(labels)
        done: list = []
        for op in ops:
            if op == LEAF:
                done.append(f"SpLeaf({next(leaf)!r})")
            else:
                right = done.pop()
                done[-1] = (_CLASS[op].__name__, done[-1], right)
        out: list[str] = []
        todo = [done[0]]
        while todo:
            part = todo.pop()
            if isinstance(part, str):
                out.append(part)
            else:
                name, left, right = part
                todo += [")", right, ", ", left, name + "("]
        return "".join(out)


class SpLeaf(SpTree):
    __slots__ = ()

    def __init__(self, label: str):
        _init(self, (label,), bytes((LEAF,)))

    @property
    def label(self) -> str:
        return self._labels[self._first]


class _SpComposition(SpTree):
    """A tree whose root is a series or a parallel composition."""

    __slots__ = ()
    _OP: int  # SERIES or PARALLEL, per subclass

    def __init__(self, left: SpTree, right: SpTree):
        left_labels, left_ops = left.postorder()
        right_labels, right_ops = right.postorder()
        labels = left_labels + right_labels
        _check_leaves(labels)
        _init(self, labels, left_ops + right_ops + bytes((self._OP,)))

    def _split(self) -> int:
        """Where the right part's opcodes start."""
        if self._starts is None:
            self._starts = _subtree_starts(self._ops)
        return self._starts[self._hi - 2]

    @property
    def left(self) -> SpTree:
        return _tree(self._labels, self._ops, self._lo, self._split(), self._first, self._starts)

    @property
    def right(self) -> SpTree:
        mid = self._split()
        first = self._first + (mid - self._lo + 1) // 2
        return _tree(self._labels, self._ops, mid, self._hi - 1, first, self._starts)


class SpSeries(_SpComposition):
    __slots__ = ()
    _OP = SERIES


class SpParallel(_SpComposition):
    __slots__ = ()
    _OP = PARALLEL


_CLASS = {LEAF: SpLeaf, SERIES: SpSeries, PARALLEL: SpParallel}


def _check_leaves(labels: tuple[str, ...]) -> None:
    """Raise DuplicateLeafError naming the first leaf, left to right,
    whose label an earlier leaf has."""
    if len(set(labels)) != len(labels):
        seen: set[str] = set()
        for label in labels:
            if label in seen:
                raise DuplicateLeafError(f"leaf {label!r} occurs twice")
            seen.add(label)


def _init(t: SpTree, labels, ops, lo=0, hi=None, first=0, starts=None) -> SpTree:
    hi = len(ops) if hi is None else hi
    t._labels, t._ops, t._lo, t._hi, t._first, t._starts = labels, ops, lo, hi, first, starts
    return t


def _tree(labels, ops, lo=0, hi=None, first=0, starts=None) -> SpTree:
    """The subtree ops[lo:hi] of well-formed sequences, unchecked."""
    hi = len(ops) if hi is None else hi
    return _init(object.__new__(_CLASS[ops[hi - 1]]), labels, ops, lo, hi, first, starts)


def _subtree_starts(ops: bytes) -> list[int]:
    """Per opcode, the position of the first opcode of its subtree."""
    starts = list(range(len(ops)))
    pending: list[int] = []  # starts of the finished subtrees not yet joined
    for i, op in enumerate(ops):
        if op != LEAF:
            pending.pop()
            starts[i] = pending[-1]
        else:
            pending.append(i)
    return starts


_PUNCT = {";", "|", "(", ")"}
# the tokens parse_sp splits off, as a pattern that gives their offsets
_TOKEN = re.compile(r"[;|()]|[^\s;|()]+")  # \s is exactly str.isspace


def _token_position(text: str, k: int) -> int:
    """Character offset of the k-th token, or len(text) past the last."""
    for i, m in enumerate(_TOKEN.finditer(text)):
        if i == k:
            return m.start()
    return len(text)


def parse_sp(text: str) -> SpTree:
    """Parse a series-parallel expression.

    ';' is series composition (lowest precedence), '|' parallel; both
    associate to the left, parentheses group, whitespace is ignored.
    Leaf names are any tokens free of whitespace and punctuation.
    Operator precedence with an explicit stack, so nesting depth is
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
    labels: list[str] = []
    ops = bytearray()
    emit = ops.append
    pending: list[int] = []  # SERIES and PARALLEL not yet emitted, _OPEN per open group
    want_operand = True
    for k, tok in enumerate(tokens):
        if want_operand:
            if tok == "(":
                pending.append(_OPEN)
            elif tok and tok not in _PUNCT:
                labels.append(tok)
                emit(LEAF)
                want_operand = False
            else:
                found = f", found {tok!r}" if tok else ""
                raise SpSyntaxError(
                    f"expected element name or '('{found}", _token_position(text, k)
                )
        elif tok == "|":
            # '|' binds tighter than ';', so only a pending '|' reduces
            while pending and pending[-1] == PARALLEL:
                emit(pending.pop())
            pending.append(PARALLEL)
            want_operand = True
        else:
            # ';', or an operand ends here: reduce back to the innermost
            # open group
            while pending and pending[-1] != _OPEN:
                emit(pending.pop())
            if tok == ";":
                pending.append(SERIES)
                want_operand = True
            elif tok == ")" and pending:
                pending.pop()
            elif pending:
                found = f", found {tok!r}" if tok else ""
                raise SpSyntaxError(f"expected ')'{found}", _token_position(text, k))
            elif tok:
                raise SpSyntaxError(
                    f"unexpected {tok!r} after complete expression", _token_position(text, k)
                )
    leaves = tuple(labels)
    _check_leaves(leaves)
    return _tree(leaves, bytes(ops))


def sp_leaves(t: SpTree) -> list[str]:
    """Leaf labels in left-to-right order."""
    return list(t.postorder()[0])


def _swapped_leaves(t: SpTree) -> list[str]:
    """Leaf labels left to right, with the two parts of every parallel
    composition swapped: one forward pass over the opcodes links the
    leaves in that order, as sp_layout does."""
    labels, ops = t.postorder()
    after = [-1] * len(labels)  # the next leaf in the swapped order; -1 ends it
    heads: list[int] = []  # per finished subtree, its first and last leaf in that order
    tails: list[int] = []
    v = 0
    for op in ops:
        if op == LEAF:
            heads.append(v)
            tails.append(v)
            v += 1
            continue
        rhead, rtail = heads.pop(), tails.pop()
        if op == SERIES:
            after[tails[-1]] = rhead
            tails[-1] = rtail
        else:
            after[rtail] = heads[-1]
            heads[-1] = rhead
    out: list[str] = []
    q = heads[0]
    while q >= 0:
        out.append(labels[q])
        q = after[q]
    return out


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


def sp_layout(t: SpTree) -> Diagram:
    """Confluent diagram of the tree's order, in time linear in the
    tree size, up to one sort of the segments: the vertices, junctions
    and invisible bounds the general pipeline puts on the (2n+1)-sided
    grid for ``sp_realizer(t)``, and their cover segments, without
    scanning the grid. It equals ``build_diagram(sp_realizer(t))``:
    vertices by leaf, then junctions by column (each in the column
    just left of its own leaf, so the columns are distinct), then the
    bounds, and the segments sorted stably by their upper end's (row,
    column)."""
    labels, ops = t.postorder()
    n = len(labels)
    # The opcodes meet the leaves left to right, i.e. by point id.
    # Minima and maxima chains are linked through next_min and
    # next_max, and the leaves in the second order of sp_realizer
    # through next2; -1 ends a chain.
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
    v = 0
    for op in ops:
        if op == LEAF:
            done.append((v, v, v, v))
            v += 1
            continue
        rmin, rmin_tail, rmax, rmax_tail = done.pop()
        lmin, lmin_tail, lmax, lmax_tail = done[-1]
        if op == PARALLEL:
            # the right box sits down-and-right of the left one, so the
            # second order puts the right part first
            next_min[lmin_tail] = rmin
            next_max[lmax_tail] = rmax
            next2[rmax] = lmin_tail
            done[-1] = (lmin, rmin_tail, lmax, rmax_tail)
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
        done[-1] = (lmin, lmin_tail, rmax, rmax_tail)

    minima, minima_tail, maxima, maxima_tail = done.pop()
    # y: ranks in the second order
    ys = [0] * n
    q, y = minima_tail, 2
    while q >= 0:
        ys[q] = y
        q, y = next2[q], y + 2
    jys = [ys[q] + 1 for q in below]
    # junctions numbered by column, as insert_junctions numbers them; no
    # two share a column, since each sits just left of its own leaf
    columns = np.argsort(jxs)
    least, greatest = minima == minima_tail, maxima == maxima_tail
    scene, bottom, top = with_junctions(
        vertex_scene(n, ys, labels), np.take(jxs, columns), np.take(jys, columns), least, greatest
    )
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
    renumber = np.arange(len(scene.xs))
    renumber[n + columns] = np.arange(n, n + len(jxs))
    segments = renumber[np.array([los, his], np.int64).T]
    # in the sweep's order: by upper end in (row, column) order; each
    # upper end's lower ends already run left to right along a chain
    upper = segments[:, 1]
    key = scene.ys[upper] * (scene.side + 1) + scene.xs[upper]
    return Diagram(scene, segments[np.argsort(key, kind="stable")])
