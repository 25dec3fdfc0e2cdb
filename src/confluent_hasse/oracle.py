"""Brute-force ground truth for small instances.

Everything here is deliberately plain: cut enumeration for the lattice
completion, and dominance covers from a points × points integer matrix,
a block of rows at a time, in quadratic time. These routines certify
the fast pipeline in tests and back the CLI --verify mode, so none of
them may share code with the constructions they check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .poset import Poset


class TooLargeForOracle(ValueError):
    """Instance exceeds the exponential-enumeration guard."""


class DuplicatePointError(ValueError):
    """Two input points occupy the same grid cell."""


@dataclass(frozen=True)
class Cut:
    """A pair (lower, upper) with upper = bounds-above(lower) and
    lower = bounds-below(upper)."""

    lower: frozenset[str]
    upper: frozenset[str]


@dataclass(frozen=True)
class Completion:
    """Smallest complete lattice containing a poset, as explicit cuts.

    ``poset`` is the lattice viewed as a Poset; its element labels are
    the sorted lower sets, e.g. "{a,b}". ``cuts[i]`` corresponds to
    ``poset.labels[i]``.
    """

    cuts: tuple[Cut, ...]
    poset: Poset


def _bit_indices(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _down_sets(down: list[int], n: int) -> Iterator[int]:
    """All down-sets of the order, as bitmasks (grown one minimal
    element of the complement at a time)."""
    seen = {0}
    stack = [0]
    while stack:
        d = stack.pop()
        yield d
        for x in range(n):
            bit = 1 << x
            if d & bit:
                continue
            if down[x] & ~(d | bit):
                continue  # some strict predecessor of x is missing
            grown = d | bit
            if grown not in seen:
                seen.add(grown)
                stack.append(grown)


def dm_completion(p: Poset, *, max_n: int = 20) -> Completion:
    """All cuts of p, ordered by containment of the lower sets.

    Enumerates closures (bounds-below of bounds-above) of candidate
    subsets: every subset for n <= 12, down-sets only beyond that
    (a cut's lower set is always a down-set). Guarded at ``max_n``.
    """
    n = p.n
    if n > max_n:
        raise TooLargeForOracle(f"completion oracle limited to n <= {max_n}")
    up, down = p.up, p.down
    full = (1 << n) - 1

    def bounds_above(mask: int) -> int:
        b = full
        for i in _bit_indices(mask):
            b &= up[i]
        return b

    def bounds_below(mask: int) -> int:
        b = full
        for i in _bit_indices(mask):
            b &= down[i]
        return b

    candidates = range(1 << n) if n <= 12 else _down_sets(down, n)
    cuts_by_lower: dict[int, int] = {}
    for x in candidates:
        b = bounds_above(x)
        a = bounds_below(b)
        cuts_by_lower.setdefault(a, b)

    lowers = sorted(cuts_by_lower)
    m = len(lowers)
    leq = np.zeros((m, m), dtype=bool)
    for i, a in enumerate(lowers):
        for j, c in enumerate(lowers):
            leq[i, j] = (a & ~c) == 0  # lower-set containment
    cuts = []
    labels = []
    for a in lowers:
        lower = frozenset(p.labels[i] for i in _bit_indices(a))
        upper = frozenset(p.labels[i] for i in _bit_indices(cuts_by_lower[a]))
        cuts.append(Cut(lower, upper))
        labels.append("{" + ",".join(sorted(lower)) + "}")
    return Completion(tuple(cuts), Poset(labels, leq))


# rows of the dominance matrix that dominance_covers holds at once
ROW_BLOCK = 128


def dominance_covers(
    points: Sequence[tuple[int, int]]
) -> frozenset[tuple[tuple[int, int], tuple[int, int]]]:
    """Cover pairs of the dominance order on grid points.

    p dominates q iff both coordinates of p are >= those of q and
    p != q. Returns (q, p) pairs with nothing strictly between: the
    direct dominances, found row by row in O(points²) integer time.

    In (x, y) order every dominator of q comes after q, and an earlier
    dominator r of q has x_r <= x_p, so r <= p iff y_r <= y_p. Hence p
    covers q iff p dominates q and p's y is strictly below that of
    every earlier dominator of q: iff the running minimum of the
    dominators' y along q's row drops at p. The y values are compared
    as ranks, exact whatever the coordinates' size. The rows are taken
    ROW_BLOCK at a time, each block over the columns after its first
    row only, so memory stays O(ROW_BLOCK x points).
    """
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise DuplicatePointError("points must occupy distinct grid cells")
    n = len(pts)
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    order = np.lexsort((ys, xs))
    y = np.unique(ys, return_inverse=True)[1].astype(np.int32)[order]
    lower, upper = [], []
    # the last row has no column after it
    for top in range(0, n - 1, ROW_BLOCK):
        q = np.arange(top, min(top + ROW_BLOCK, n - 1))
        p = np.arange(top + 1, n)
        yp = y[top + 1 :]
        # column 0 holds n, for no dominator yet; column c + 1 the y of
        # point p[c] where it dominates the row's point
        low = np.full((len(q), len(p) + 1), n, np.int32)
        dominates = (yp[None, :] >= y[q][:, None]) & (p[None, :] > q[:, None])
        np.copyto(low[:, 1:], yp[None, :], where=dominates)
        np.minimum.accumulate(low, axis=1, out=low)
        row, col = np.divmod(np.flatnonzero(low[:, 1:] < low[:, :-1]), len(p))
        lower.append(order[q[row]])
        upper.append(order[p[col]])
    if not lower:
        return frozenset()
    a, b = np.concatenate(lower).tolist(), np.concatenate(upper).tolist()
    return frozenset(zip(map(pts.__getitem__, a), map(pts.__getitem__, b)))


def scene_matches_completion(scene, p: Poset) -> bool:
    """Certify that the dominance order on a grid scene's points is
    order-isomorphic to the completion of p, with vertices mapped to
    their element cuts.

    Each point is keyed by the set of poset elements it dominates; the
    scene matches iff those keys are exactly the completion's lower
    sets and point dominance coincides with key containment.
    """
    comp = dm_completion(p)
    xs, ys, kinds, labels = scene.xs.tolist(), scene.ys.tolist(), scene.kinds, scene.labels
    ids = range(len(kinds))
    if len(ids) != len(comp.cuts):
        return False
    label_bit = {lab: 1 << i for i, lab in enumerate(p.labels)}
    verts = [v for v in ids if kinds[v] == "vertex"]
    keys = []
    for q in ids:
        key = 0
        for v in verts:
            if xs[v] <= xs[q] and ys[v] <= ys[q]:
                key |= label_bit[labels[v]]
        keys.append(key)
    cut_lowers = {
        sum(label_bit[lab] for lab in cut.lower) for cut in comp.cuts
    }
    if set(keys) != cut_lowers or len(set(keys)) != len(keys):
        return False
    for i in ids:
        for j in ids:
            dominated = xs[i] <= xs[j] and ys[i] <= ys[j]
            if dominated != ((keys[i] & ~keys[j]) == 0):
                return False
    # vertices must key to their own element cut
    for v, key in zip(ids, keys):
        if kinds[v] == "vertex":
            if key != p.down[p.index(labels[v])]:
                return False
    return True
