"""Grid embedding: vertex placement and junction insertion.

Elements go to even grid cells, one per even row and even column, with
coordinates twice their ranks in the two realizing orders. Junction
points then fill odd cells wherever the four neighbour conditions hold,
and invisible bound points cap the diagonal when the order lacks a
least or greatest element. The scene is four columns, x, y, kind and
label, that the producers append to, and the kinds again as one byte
code per point for masks; a point's id is its index in them, and
segments and the renderers refer to points by it. The
dominance order on the resulting point set is the smallest complete
lattice containing the input order; the test suite certifies this
against the cut-enumeration oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .realizer import Realizer

VERTEX = "vertex"
JUNCTION = "junction"
INVISIBLE = "invisible"
# the kinds as small ints, for masks over the scene (GridScene.kind_codes)
VERTEX_CODE, JUNCTION_CODE, INVISIBLE_CODE = range(3)
_KIND_CODE = {VERTEX: VERTEX_CODE, JUNCTION: JUNCTION_CODE, INVISIBLE: INVISIBLE_CODE}
_KIND_BYTE = {kind: bytes((code,)) for kind, code in _KIND_CODE.items()}


@dataclass(slots=True)
class GridPoint:
    kind: str
    x: int
    y: int
    label: str | None = None


@dataclass(slots=True)
class GridScene:
    """Points on the (2n+1) x (2n+1) grid, as columns indexed by id."""

    n: int
    xs: list[int] = field(default_factory=list)
    ys: list[int] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    labels: list[str | None] = field(default_factory=list)
    # the kinds as codes, one byte per id, kept in step with kinds
    codes: bytearray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.codes = bytearray(map(_KIND_CODE.__getitem__, self.kinds))

    @property
    def side(self) -> int:
        return 2 * self.n + 1

    @property
    def points(self) -> tuple[GridPoint, ...]:
        """The points as records, built anew: a view for outside callers."""
        return tuple(map(GridPoint, self.kinds, self.xs, self.ys, self.labels))

    def kind_codes(self) -> np.ndarray:
        """The kinds as an int8 column of VERTEX_CODE, JUNCTION_CODE and
        INVISIBLE_CODE, indexed by id."""
        return np.frombuffer(self.codes, np.int8).copy()

    def add(self, kind: str, xs: list[int], ys: list[int], labels: list | None = None) -> int:
        """Append points of one kind (labels None by default); returns the first id."""
        first = len(self.xs)
        self.xs += xs
        self.ys += ys
        self.kinds += [kind] * len(xs)
        self.codes += _KIND_BYTE[kind] * len(xs)
        self.labels += [None] * len(xs) if labels is None else labels
        return first


def place_on_grid(r: Realizer) -> GridScene:
    """One vertex per element at (2 * rank1, 2 * rank2)."""
    pos2 = {lab: 2 * i + 2 for i, lab in enumerate(r.l2)}
    s = GridScene(r.n)
    s.add(VERTEX, list(range(2, 2 * r.n + 1, 2)), [pos2[lab] for lab in r.l1], list(r.l1))
    return s


def insert_junctions(s: GridScene) -> GridScene:
    """Add junction points at qualifying odd cells, plus invisible
    bounds when the order has no least / no greatest element.

    A junction goes at odd (i, j) iff the vertices in the four
    neighbouring even lines clear it diagonally: the column-(i-1)
    vertex sits below row j-1, the column-(i+1) vertex above row j+1,
    the row-(j-1) vertex left of column i-1, and the row-(j+1) vertex
    right of column i+1. The scan goes one odd column at a time: the
    column's two conditions leave a run of odd rows, and one mask over
    that run applies the row conditions. Junctions therefore come column
    by column, each column's rows ascending, in O(n) memory.
    """
    n = s.n
    side = 2 * n + 1
    cells = [(x, y) for x, y, kind in zip(s.xs, s.ys, s.kinds) if kind == VERTEX]
    verts = np.array(cells, np.int64).reshape(-1, 2)
    ycol = np.zeros(side + 1, np.int64)
    xrow = np.zeros(side + 1, np.int64)
    ycol[verts[:, 0]] = verts[:, 1]
    xrow[verts[:, 1]] = verts[:, 0]

    out = GridScene(n, s.xs.copy(), s.ys.copy(), s.kinds.copy(), s.labels.copy())
    j = np.arange(3, side - 1, 2)
    left, right = xrow[j - 1], xrow[j + 1]
    for i in range(3, side - 1, 2):
        # the column conditions leave the odd rows ycol[i-1] < j-1, j+1 < ycol[i+1]
        lo, hi = ycol[i - 1] // 2, ycol[i + 1] // 2 - 2
        if lo < hi:
            rows = j[lo:hi][(left[lo:hi] < i - 1) & (right[lo:hi] > i + 1)].tolist()
            out.add(JUNCTION, [i] * len(rows), rows)

    has_least = n >= 1 and ycol[2] == 2
    has_greatest = n >= 1 and ycol[2 * n] == 2 * n
    bound_points(out, has_least, has_greatest)
    return out


def bound_points(
    s: GridScene, has_least: bool, has_greatest: bool
) -> tuple[int | None, int | None]:
    """Append the invisible (bottom, top) bounds that cap the diagonal
    of an n-element order's grid, and return their ids: one at (1, 1)
    unless the order has a least element, one at (side, side) unless it
    has a greatest; the empty order gets only (1, 1). None stands for a
    bound the order does not need."""
    bottom = None if has_least else s.add(INVISIBLE, [1], [1])
    top = None if has_greatest or s.n == 0 else s.add(INVISIBLE, [s.side], [s.side])
    return bottom, top
