"""Ground truth for the drawing, independent of the code that makes it.

The completion's cuts come two ways. ``dm_completion`` enumerates
closures of subsets (or of down-sets), exponential in n: it is the
brute-force reference the tests compare against. ``_cut_lowers`` walks
the cut lattice down from the top cut, one cut at a time, polynomial in
the number of cuts: it backs ``scene_matches_completion`` and so the
``completion`` line of --verify, under the same 20-element limit.
Dominance covers come from a points × points integer matrix, a block of
rows at a time, in quadratic time. A certificate that a segment set is
exactly those covers reads prefix counts of the points instead, in
points + segments lookups, and counts what it finds wrong: --verify
runs it at every size, and the tests check it against the quadratic
covers. These routines certify the fast pipeline in tests and back the
CLI --verify mode, so none of them may share code with the
constructions they check.
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


# the largest order whose completion --verify certifies
COMPLETION_MAX_N = 20


def _cut_lowers(p: Poset) -> set[int]:
    """The lower sets of all cuts of p, as bitmasks over p's elements,
    read only from ``p.up`` and ``p.down``.

    A cut is a pair (A, B) with B the upper bounds of A and A the lower
    bounds of B. The walk starts from the top cut, whose A is every
    element, and goes down the lattice cover by cover. The lower covers
    of a cut (A, B) are the inclusion-maximal sets among A & down[u],
    for u maximal among the elements outside B. Each such set is the
    lower set of a cut (the meet of (A, B) with u's principal cut), and
    it is strictly inside A, since u, outside B, is not above all of A.
    Every cut D below (A, B) lies in one of them: D has an upper bound
    outside B, which lies below a maximal u outside B, so D's lower set
    is inside A & down[u]. So every cut is reached, and each is
    expanded once. The candidates are taken by decreasing size, so a
    candidate is a cover exactly when no cover kept before it contains
    it.
    """
    up, down = p.up, p.down
    full = (1 << p.n) - 1
    lowers = {full}
    stack = [full]
    while stack:
        lower = stack.pop()
        bounds = full
        for i in _bit_indices(lower):
            bounds &= up[i]
        outside = full & ~bounds
        candidates = {
            lower & down[u] for u in _bit_indices(outside) if up[u] & outside == 1 << u
        }
        covers: list[int] = []
        for c in sorted(candidates, key=int.bit_count, reverse=True):
            if all(c & ~kept for kept in covers):
                covers.append(c)
                if c not in lowers:
                    lowers.add(c)
                    stack.append(c)
    return lowers


# rows of the dominance matrix that dominance_covers holds at once, and
# x ranks of the prefix counts that segment_faults holds
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


def segment_faults(xs, ys, segments) -> tuple[int, int, int]:
    """Whether the rows (q, p) of ``segments``, ids into the points
    (xs[i], ys[i]), are the cover pairs of the dominance order on
    distinct points, each once, as counts of faults (i), (ii) and (iii)
    below: all zero exactly when the points are distinct and the rows,
    as coordinate pairs, equal ``dominance_covers`` of the points with
    no row repeated.

    A certificate, in points + segments lookups into prefix counts of
    the points (``_prefix_counts``). With D(a, b) the number of points
    with x <= a and y <= b, and l_1 .. l_k the lower ends of p's rows
    sorted by x, it counts:

    (i) the rows that do not rise (q <= p in both coordinates, q != p
        in one) or whose q or p is no point id. Only the rows that rise
        are read below;
    (ii) the points whose l_1 .. l_k do not rise strictly in x and fall
         strictly in y, so two are comparable, equal or in one column;
    (iii) the points p not counted in (ii) that are not alone in the
         rectangles (x_{i-1}, x_i] x (y_i, y_p] for i = 1 .. k
         (x_0 = -inf) and (x_k, x_p] x (-inf, y_p]. Their counts sum,
         telescoping, to D(p) - sum D(l_i) + sum D(x_{i-1}, y_i),
         which must be 1.

    Proof that all three are zero exactly for the covers. Sound: by
    (i) and (ii), the rectangles of (iii) are disjoint slabs in x whose
    union is exactly the points r <= p below no l_i; p is one of them,
    so (iii) says every other point r <= p lies below some l_i. A
    point sharing p's cell would be such an r, which it cannot be, as
    every l_i is strictly below p: the points are distinct. Every
    cover r of p is a row, since r <= l_i < p forces r = l_i. Every
    row (q, p) is a cover: a point r strictly between q and p lies
    below some l_j, so q < r <= l_j, and two lower ends of p would be
    comparable, against (ii). By (ii) no row is repeated. Complete: if
    the points are distinct and the rows are the covers, once each,
    then (i) holds, a point's lower covers form an antichain (ii), and
    every r < p lies below one of them (iii).
    """
    given = np.asarray(segments, np.int64).reshape(-1, 2)
    n = len(xs)
    q, p = given[((given >= 0) & (given < n)).all(axis=1)].T
    x = np.unique(xs, return_inverse=True)[1]
    y = np.unique(ys, return_inverse=True)[1]
    xq, yq, xp, yp = x[q], y[q], x[p], y[p]
    rising = (xq <= xp) & (yq <= yp) & ((xq < xp) | (yq < yp))
    not_rising = len(given) - int(np.count_nonzero(rising))
    if not n:
        return not_rising, 0, 0
    # the rising rows by upper end, then by the lower end's x
    by = np.flatnonzero(rising)[np.lexsort((xq[rising], p[rising]))]
    q, p, xq, yq = q[by], p[by], xq[by], yq[by]
    first = np.diff(p, prepend=-1) != 0
    staircase = first | (np.diff(xq, prepend=-1) > 0) & (np.diff(yq, prepend=-1) < 0)
    ragged = np.unique(p[~staircase])
    # x of the previous lower end of the same point, or -1 for -inf
    before = np.empty_like(xq)
    before[1:] = xq[:-1]
    before[first] = -1
    # D(p) for every point, then D(x_{i-1}, y_i) for every row, each the
    # prefix count P(a + 1, b + 1) of D(a, b)
    counts = _prefix_counts(x, y, np.concatenate((x, before)) + 1, np.concatenate((y, yq)) + 1)
    down, meets = counts[:n], counts[n:]
    alone = down.copy()
    if len(q):
        alone[p[first]] -= np.add.reduceat(down[q] - meets, np.flatnonzero(first))
    # a ragged point's sum counts no set of points: (ii) counted it
    alone[ragged] = 1
    return not_rising, len(ragged), int(np.count_nonzero(alone != 1))


def _prefix_counts(x, y, i, j) -> np.ndarray:
    """P(i, j), the number of points (x[k], y[k]) with x < i and y < j,
    per entry of i and j, for ranks x, y and 0 <= i <= max(x) + 1,
    0 <= j <= max(y) + 1.

    The i values are taken ROW_BLOCK at a time. ``before`` holds
    P(top, j) for every j at the block's first value top. Within the
    block, a table over the block's rows and its own distinct y values
    counts its points by cumulative sums over their histogram. So the
    time is O(ROW_BLOCK x points) plus sorts, and memory is
    O(ROW_BLOCK x distinct y).
    """
    stop = int(x.max()) + 2
    counts = np.empty(len(i), np.int64)
    before = np.zeros(int(y.max()) + 2, np.int64)
    for top in range(0, stop, ROW_BLOCK):
        rows = min(ROW_BLOCK, stop - top)
        inside = (x >= top) & (x < top + rows)
        cols, col = np.unique(y[inside], return_inverse=True)
        width = len(cols) + 1
        # row t + 1 gets the points of x = top + t, column c + 1 those
        # of y = cols[c]; after both sums entry (t, c) counts the
        # block's points with x < top + t and y < cols[c]
        table = np.bincount(
            (x[inside] - top + 1) * width + col + 1, minlength=(rows + 1) * width
        ).reshape(rows + 1, width)
        np.cumsum(table, axis=1, out=table)
        np.cumsum(table, axis=0, out=table)
        at = np.flatnonzero((i >= top) & (i < top + rows))
        below = np.searchsorted(cols, j[at])
        counts[at] = before[j[at]] + table.ravel()[(i[at] - top) * width + below]
        before[1:] += np.cumsum(np.bincount(y[inside], minlength=len(before) - 1))
    return counts


def scene_matches_completion(scene, p: Poset) -> bool:
    """Certify that the dominance order on a grid scene's points is
    order-isomorphic to the completion of p, with vertices mapped to
    their element cuts.

    Each point is keyed by the set of poset elements it dominates; the
    scene matches iff those keys are exactly the completion's lower
    sets, from the walk down the cut lattice (``_cut_lowers``), and
    point dominance coincides with key containment. Raises
    ``TooLargeForOracle`` above COMPLETION_MAX_N elements.
    """
    if p.n > COMPLETION_MAX_N:
        raise TooLargeForOracle(f"completion oracle limited to n <= {COMPLETION_MAX_N}")
    cut_lowers = _cut_lowers(p)
    xs, ys, kinds, labels = scene.xs.tolist(), scene.ys.tolist(), scene.kinds, scene.labels
    ids = range(len(kinds))
    if len(ids) != len(cut_lowers):
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
