"""Grid embedding: vertex placement and junction insertion.

Elements go to even grid cells, one per even row and even column, with
coordinates twice their ranks in the two realizing orders. Junction
points then fill odd cells wherever the four neighbour conditions hold,
and invisible bound points cap the diagonal when the order lacks a
least or greatest element. The scene is four columns indexed by point
id, x, y, kind code and label, which segments and the renderers refer
to; this module alone builds them, each producer whole columns at once,
and the arrays are read-only. The dominance order on the resulting
point set is the smallest complete lattice containing the input order:
--verify certifies this at every size, and the test suite against the
cut enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .realizer import Realizer

# the kind names, indexed by kind code: the names are JSON text
KINDS = VERTEX, JUNCTION, INVISIBLE = ("vertex", "junction", "invisible")
VERTEX_CODE, JUNCTION_CODE, INVISIBLE_CODE = range(3)


@dataclass(slots=True)
class GridPoint:
    kind: str
    x: int
    y: int
    label: str | None = None


@dataclass(slots=True, eq=False)
class GridScene:
    """Points on the (2n+1) x (2n+1) grid, as columns indexed by id: x and
    y (int64), kind code (int8) and label (None but on vertices)."""

    n: int
    xs: np.ndarray
    ys: np.ndarray
    codes: np.ndarray
    labels: list[str | None]

    def __post_init__(self) -> None:
        self.xs, self.ys = np.asarray(self.xs, np.int64), np.asarray(self.ys, np.int64)
        self.codes, self.labels = np.asarray(self.codes, np.int8), list(self.labels)
        for column in (self.xs, self.ys, self.codes):
            column.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridScene):
            return NotImplemented
        columns = zip((self.xs, self.ys, self.codes), (other.xs, other.ys, other.codes))
        same = all(np.array_equal(a, b) for a, b in columns)
        return self.n == other.n and same and self.labels == other.labels

    @property
    def side(self) -> int:
        return 2 * self.n + 1

    @property
    def kinds(self) -> tuple[str, ...]:
        """The kind names by id, derived from the codes on each read."""
        return tuple(map(KINDS.__getitem__, self.codes.tolist()))

    @property
    def points(self) -> tuple[GridPoint, ...]:
        """The points as records, built anew: a view for outside callers."""
        return tuple(map(GridPoint, self.kinds, self.xs.tolist(), self.ys.tolist(), self.labels))


def vertex_scene(n: int, ys, labels) -> GridScene:
    """The scene of n vertices, vertex k at (2k + 2, ys[k]) labelled labels[k]."""
    return GridScene(n, np.arange(2, 2 * n + 1, 2), ys, np.full(n, VERTEX_CODE, np.int8), labels)


def place_on_grid(r: Realizer) -> GridScene:
    """One vertex per element at (2 * rank1, 2 * rank2)."""
    pos2 = {lab: 2 * i + 2 for i, lab in enumerate(r.l2)}
    return vertex_scene(r.n, [pos2[lab] for lab in r.l1], r.l1)


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
    vertex = s.codes == VERTEX_CODE
    ycol = np.zeros(side + 1, np.int64)
    xrow = np.zeros(side + 1, np.int64)
    ycol[s.xs[vertex]] = s.ys[vertex]
    xrow[s.ys[vertex]] = s.xs[vertex]

    j = np.arange(3, side - 1, 2)
    left, right = xrow[j - 1], xrow[j + 1]
    columns, rows = [], []
    for i in range(3, side - 1, 2):
        # the column conditions leave the odd rows ycol[i-1] < j-1, j+1 < ycol[i+1]
        lo, hi = ycol[i - 1] // 2, ycol[i + 1] // 2 - 2
        if lo < hi:
            columns.append(i)
            rows.append(j[lo:hi][(left[lo:hi] < i - 1) & (right[lo:hi] > i + 1)])
    jxs = np.repeat(columns, [len(r) for r in rows])
    jys = np.concatenate(rows) if rows else []

    has_least = n >= 1 and ycol[2] == 2
    has_greatest = n >= 1 and ycol[2 * n] == 2 * n
    return with_junctions(s, jxs, jys, has_least, has_greatest)[0]


def with_junctions(
    s: GridScene, jxs, jys, has_least: bool, has_greatest: bool
) -> tuple[GridScene, int | None, int | None]:
    """The scene's points, then junctions at (jxs, jys), then the
    invisible bounds of ``bound_points``; and the bounds' ids."""
    jxs, jys = np.asarray(jxs, np.int64), np.asarray(jys, np.int64)
    cells, bottom, top = bound_points(s.n, len(s.xs) + len(jxs), has_least, has_greatest)
    codes = np.repeat(np.int8([JUNCTION_CODE, INVISIBLE_CODE]), [len(jxs), len(cells)])
    xs, ys = np.concatenate((s.xs, jxs, cells)), np.concatenate((s.ys, jys, cells))
    labels = s.labels + [None] * len(codes)
    return GridScene(s.n, xs, ys, np.concatenate((s.codes, codes)), labels), bottom, top


def bound_points(
    n: int, first: int, has_least: bool, has_greatest: bool
) -> tuple[np.ndarray, int | None, int | None]:
    """The cells (x = y) and the ids (bottom, top), numbered from first,
    of the invisible bounds that cap the diagonal of an n-element
    order's grid: one at (1, 1) unless the order has a least element,
    one at (side, side) unless it has a greatest; the empty order gets
    only (1, 1). None stands for a bound the order does not need."""
    bottom = None if has_least else first
    top = None if has_greatest or n == 0 else first + (bottom is not None)
    cells = [c for c, pid in ((1, bottom), (2 * n + 1, top)) if pid is not None]
    return np.array(cells, np.int64), bottom, top
