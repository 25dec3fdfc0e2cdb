"""Ground truth for the drawing, independent of the code that makes it.

Two certificates back the --verify checks at every size.
``segment_faults`` certifies that a segment set is exactly the
dominance covers of the points, from prefix counts of the points in
points + segments lookups, and counts what it finds wrong.
``scene_matches_completion`` certifies that the points under dominance
are the Dedekind-MacNeille completion of the order: it rests on the
checks ``validate_diagram`` reports, adds two of its own on the segment
degrees and on the vertices' down-sets, and walks no cut. Dominance
covers also come from a points x points integer matrix, a block of rows
at a time, in quadratic time: the tests check the segment certificate
against it, and check the completion certificate against a brute-force
enumeration of the cuts kept with them. None of these routines may
share code with the constructions they check.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .diagram import CheckResult, Diagram, ValidationReport
from .grid import INVISIBLE_CODE, VERTEX_CODE
from .poset import Poset


class DuplicatePointError(ValueError):
    """Two input points occupy the same grid cell."""


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


# the checks of validate_diagram that the completion certificate rests on
PREMISES = ("segments", "planar", "degrees", "visibility")


def scene_matches_completion(d: Diagram, p: Poset, report: ValidationReport) -> CheckResult:
    """The ``completion`` check: whether the diagram's points, under
    dominance, are the Dedekind-MacNeille completion of p with each
    vertex at its element's principal cut, and the segments are its
    covers. ``report`` is ``validate_diagram(d, p)``.

    SKIP, naming the first of PREMISES that did not pass. Otherwise
    PASS exactly when, with Q the points under dominance and the
    degrees counted over the segments,

    (c) one point has in-degree 0 and one has out-degree 0; no junction
        or invisible bound has in- or out-degree 1; and every invisible
        bound has in- or out-degree 0;
    (d) the vertices below each vertex, by dominance, are its down-set
        in p (``p.down``). A Fenwick tree of int masks over the
        vertices' y ranks, filled in (x, y) order, gives each vertex's
        set on its turn.

    Else FAIL, naming the fault. The cost is two ``bincount`` calls and
    O(n log n) operations on n-bit masks, for n vertices.

    Proof that PASS holds exactly for the completion. Sound:
    ``segments`` makes the points distinct and the segments Q's covers,
    each once, so degrees count lower and upper covers. By (c), Q has a
    least point 0 and a greatest point 1, and no invisible bound lies
    strictly between them. Every cover rises in v = x + y, so the
    drawn segments, those with no invisible end, are an upward drawing,
    and ``planar`` makes it planar. An upper cover a of an invisible 0
    has in-degree 1, so it is no junction (``degrees``) and no bound
    (c): a vertex, minimal in p by (d), whose open ray down the rotated
    frame holds no point (such a point lies below a, so it is 0) and
    meets no drawn segment (``visibility``). The rays below distinct
    covers of 0 are disjoint, since two points on one vertical line are
    comparable, and they miss the rays above the lower covers of 1 for
    the same reason. So 0 and 1 can be drawn far below and above along
    the rays, and Q's Hasse diagram is upward planar. A finite bounded
    poset with an upward planar diagram is a lattice (Kelly & Rival,
    "Planar lattices", Canad. J. Math. 27, 1975). Its join-irreducibles
    have in-degree 1 and its meet-irreducibles out-degree 1, so by (c)
    and ``degrees`` they are vertices, and the vertices are join-dense
    and meet-dense in Q. By (d) they form a copy of p, and a finite
    lattice in which a copy of p is join-dense and meet-dense is p's
    completion, each element at its principal cut (Davey & Priestley,
    *Introduction to Lattices and Order*, 2nd ed., ch. 7). Without the
    last clause of (c), two invisible points above a and b and below c
    and d, in the order a, b < c, d, would draw no segment and pass the
    rest.

    Complete: if Q is the completion and the segments are its covers,
    with junctions at the cuts other than the elements and the added
    bounds, then two crossing covers a < b and c < d would give a < d
    and c < b through the crossing point, so the join of a and c would
    be both b and d; and the lower end of a segment through the ray
    below a minimal vertex would lie below that vertex, so it would be
    the invisible 0. So ``planar`` and ``visibility`` pass. A cut that
    is no element is neither join- nor meet-irreducible, so junctions
    have degrees 2 and more, and the bound 0 is added only when p has
    two minimal elements or more, which are its upper covers, as the
    bound 1 is only above two maximal elements or more. So (c) and (d)
    hold.
    """
    passed = {c.name for c in report.checks if c.status == "PASS"}
    for name in PREMISES:
        if name not in passed:
            return CheckResult("completion", "SKIP", f"{name} did not pass")
    s = d.scene
    outdeg, indeg = (np.bincount(d.segments[:, k], minlength=len(s.xs)) for k in (0, 1))
    bottoms, tops = np.count_nonzero(indeg == 0), np.count_nonzero(outdeg == 0)
    if bottoms != 1 or tops != 1:
        detail = f"{bottoms} points with no lower cover, {tops} with no upper cover"
        return CheckResult("completion", "FAIL", detail)
    added = s.codes != VERTEX_CODE
    irreducible = np.flatnonzero(added & ((indeg == 1) | (outdeg == 1))).tolist()
    if irreducible:
        detail = f"added points with one lower or one upper cover: {irreducible}"
        return CheckResult("completion", "FAIL", detail)
    inner = np.flatnonzero((s.codes == INVISIBLE_CODE) & (indeg > 0) & (outdeg > 0)).tolist()
    if inner:
        detail = f"invisible bounds that are neither least nor greatest: {inner}"
        return CheckResult("completion", "FAIL", detail)

    vertices = np.flatnonzero(s.codes == VERTEX_CODE)
    xs, ys = s.xs[vertices], s.ys[vertices]
    turn = np.lexsort((ys, xs))
    rank = np.unique(ys, return_inverse=True)[1] + 1
    tree = [0] * (len(vertices) + 1)
    labels = [s.labels[v] for v in vertices[turn].tolist()]
    for label, r in zip(labels, rank[turn].tolist()):
        element = p.index(label)
        i = r
        while i < len(tree):
            tree[i] |= 1 << element
            i += i & -i
        below = 0
        i = r
        while i:
            below |= tree[i]
            i -= i & -i
        if below != p.down[element]:
            detail = f"the vertices below {label!r} are not its down-set in the order"
            return CheckResult("completion", "FAIL", detail)
    return CheckResult("completion", "PASS")
