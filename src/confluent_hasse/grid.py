"""Grid embedding: vertex placement and junction insertion.

Elements go to even grid cells, one per even row and even column, with
coordinates twice their ranks in the two realizing orders. Junction
points then fill odd cells wherever the four neighbour conditions hold,
and invisible bound points cap the diagonal when the order lacks a
least or greatest element. A point's id is its index in the scene's
``points``; segments and the renderers refer to points by it. The
dominance order on the resulting point set is the smallest complete
lattice containing the input order; the test suite certifies this
against the cut-enumeration oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .realizer import Realizer

VERTEX = "vertex"
JUNCTION = "junction"
INVISIBLE = "invisible"


@dataclass(slots=True)
class GridPoint:
    kind: str
    x: int
    y: int
    label: str | None = None

    @property
    def rot(self) -> tuple[int, int]:
        """(x - y, x + y): the 45-degree rotation that turns dominance
        into plain "higher second coordinate", so tracks run upward."""
        return (self.x - self.y, self.x + self.y)


@dataclass(slots=True)
class GridScene:
    """Points on the (2n+1) x (2n+1) grid; a point's id is its index
    in ``points``."""

    n: int
    points: tuple[GridPoint, ...]

    @property
    def side(self) -> int:
        return 2 * self.n + 1

    def vertex_by_label(self) -> dict[str, GridPoint]:
        return {p.label: p for p in self.points if p.kind == VERTEX}


def place_on_grid(r: Realizer) -> GridScene:
    """One vertex per element at (2 * rank1, 2 * rank2)."""
    pos2 = {lab: i + 1 for i, lab in enumerate(r.l2)}
    points = tuple(
        GridPoint(VERTEX, 2 * (i + 1), 2 * pos2[lab], lab)
        for i, lab in enumerate(r.l1)
    )
    return GridScene(r.n, points)


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
    verts = np.array([(p.x, p.y) for p in s.points if p.kind == VERTEX], np.int64).reshape(-1, 2)
    ycol = np.zeros(side + 1, np.int64)
    xrow = np.zeros(side + 1, np.int64)
    ycol[verts[:, 0]] = verts[:, 1]
    xrow[verts[:, 1]] = verts[:, 0]

    points = list(s.points)
    j = np.arange(3, side - 1, 2)
    left, right = xrow[j - 1], xrow[j + 1]
    for i in range(3, side - 1, 2):
        # the column conditions leave the odd rows ycol[i-1] < j-1, j+1 < ycol[i+1]
        lo, hi = ycol[i - 1] // 2, ycol[i + 1] // 2 - 2
        if lo < hi:
            rows = j[lo:hi][(left[lo:hi] < i - 1) & (right[lo:hi] > i + 1)]
            points += [GridPoint(JUNCTION, i, r) for r in rows.tolist()]

    has_least = n >= 1 and ycol[2] == 2
    has_greatest = n >= 1 and ycol[2 * n] == 2 * n
    points.extend(q for q in bound_points(n, has_least, has_greatest) if q)
    return GridScene(n, tuple(points))


def bound_points(
    n: int, has_least: bool, has_greatest: bool
) -> tuple[GridPoint | None, GridPoint | None]:
    """The invisible (bottom, top) bounds that cap the diagonal of an
    n-element order's grid: one at (1, 1) unless the order has a least
    element, one at (side, side) unless it has a greatest; the empty
    order gets only (1, 1). None stands for a bound the order does not
    need."""
    side = 2 * n + 1
    bottom = None if has_least else GridPoint(INVISIBLE, 1, 1)
    top = None if has_greatest or n == 0 else GridPoint(INVISIBLE, side, side)
    return bottom, top

