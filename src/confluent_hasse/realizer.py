"""Recognition of order dimension <= 2 and two-linear-order realizers.

A poset has dimension at most two exactly when its incomparability
graph admits a transitive orientation. Orientation is found by the
classic forcing procedure (implication classes, Golumbic 1980, ch. 5):
pick an unoriented incomparable pair, orient it, and propagate every
orientation this forces; a class that meets its own reverse certifies
that no transitive orientation exists. The unoriented graph and the
orientation are int bitmasks per element, successors and predecessors,
read off the poset's own up-set and down-set masks.
A class grows one level at a time over whole rows: the pairs forced by
all the last level's pairs out of one element are that element's row
minus an AND of their heads' rows, so each pair costs one AND per side.
The two output orders are the poset united with the orientation and
with its reverse; each rank is a popcount. The result is always
re-checked with verify_realizer, which compares the up-sets of the two
orders' intersection with the poset's, so an accepted realizer is
correct by construction *and* by checking.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poset import Poset, bits, up_sets


class MismatchedElementsError(ValueError):
    """The two orders (or a poset and a realizer) disagree on the
    element set."""


class DimensionExceedsTwo(Exception):
    """No pair of linear orders realizes the poset."""


@dataclass(frozen=True)
class Realizer:
    """Two linear orders over the same elements, given as label
    sequences; position in the sequence is the rank."""

    l1: tuple[str, ...]
    l2: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "l1", tuple(self.l1))
        object.__setattr__(self, "l2", tuple(self.l2))
        if len(set(self.l1)) != len(self.l1):
            raise MismatchedElementsError("first order repeats a label")
        if set(self.l1) != set(self.l2) or len(self.l1) != len(self.l2):
            raise MismatchedElementsError("orders must permute the same labels")

    @property
    def n(self) -> int:
        return len(self.l1)


def poset_from_realizer(r: Realizer) -> Poset:
    """Intersection order: a <= b iff a precedes-or-equals b in both.
    Its elements are numbered along l1, which is then a linear
    extension; the down-sets are the up-sets of the two orders
    reversed."""
    index = {lab: i for i, lab in enumerate(r.l1)}
    first = range(r.n)
    second = [index[lab] for lab in r.l2]
    return Poset(r.l1, up_sets(first, second), up_sets(first[::-1], second[::-1]))


def verify_realizer(p: Poset, r: Realizer) -> bool:
    """True iff the realizer's intersection order equals p exactly."""
    if set(p.labels) != set(r.l1):
        raise MismatchedElementsError("poset and realizer have different elements")
    return up_sets([p.index(lab) for lab in r.l1], [p.index(lab) for lab in r.l2]) == p.up


def _forced_orientation(p: Poset) -> tuple[list[int], list[int]] | None:
    """Transitive orientation of the incomparability graph, or None.

    Returns per-element successor and predecessor bitmasks of the
    orientation. Forcing classes are computed against the
    still-unoriented graph, which lets earlier classes merge later ones
    exactly when transitivity demands. A class grows one level at a
    time over whole rows: one AND per pair of the last level finds
    everything that level forces, and each incomparable pair is
    oriented once.
    """
    n = p.n
    # adjacency of the not-yet-oriented incomparability graph; each
    # element is in its own up-set, so the diagonal is already clear
    full = (1 << n) - 1
    rem = [full & ~(u | d) for u, d in zip(p.up, p.down)]

    succ = [0] * n  # chosen orientation, as successor bitmasks
    pred = [0] * n  # its reverse: bit w of pred[u] iff succ[w] has u

    for a in range(n):
        while rem[a]:
            b = (rem[a] & -rem[a]).bit_length() - 1
            # start a new implication class at a -> b; the last level is
            # kept per row: heads[u] lists the newly forced w of u -> w,
            # and tails[v] the newly forced w of w -> v
            succ[a] |= 1 << b
            pred[b] |= 1 << a
            heads = {a: [b]}
            tails = {b: [a]}
            rows = [a, b]
            while heads:
                next_heads: dict[int, list[int]] = {}
                next_tails: dict[int, list[int]] = {}
                # u -> v forces u -> w for every w incomparable to u and
                # comparable to v; mirrored, w -> v for every w
                # incomparable to v and comparable to u
                _force_level(rem, heads, succ, pred, next_heads, next_tails)
                _force_level(rem, tails, pred, succ, next_tails, next_heads)
                # an implication class is either disjoint from its
                # reverse or equal to it (Golumbic 1980, ch. 5); a newly
                # forced u -> w meets the reverse in row u
                for u in next_heads:
                    if succ[u] & pred[u]:
                        return None
                rows += next_heads
                rows += next_tails
                heads, tails = next_heads, next_tails
            # the class is fully oriented; retire its edges
            for x in rows:
                rem[x] &= ~(succ[x] | pred[x])
    return succ, pred


def _force_level(
    rem: list[int],
    level: dict[int, list[int]],
    out: list[int],
    into: list[int],
    next_out: dict[int, list[int]],
    next_into: dict[int, list[int]],
) -> None:
    """Force one side of a level.

    level[x] lists the partners y whose pairs with x are new. Each w in
    rem[x] that is missing from rem[y] for some y (w is comparable to
    y) is forced onto the same side of x: w becomes an out[x] bit, x an
    into[w] bit, and both are listed for the next level. One AND per
    partner finds them; out[x] filters out the partners themselves and
    every pair oriented before.
    """
    for x, ys in level.items():
        keep = -1
        for y in ys:
            keep &= rem[y]
        new = rem[x] & ~keep & ~out[x]
        if new:
            out[x] |= new
            ws = list(bits(new))
            next_out.setdefault(x, []).extend(ws)
            bit = 1 << x
            for w in ws:
                into[w] |= bit
                if w in next_into:
                    next_into[w].append(x)
                else:
                    next_into[w] = [x]


def realizer_of(p: Poset) -> Realizer:
    """Extract two linear orders whose intersection is p.

    Succeeds exactly when dim(p) <= 2; chains (and the empty poset)
    return identical orders. Raises DimensionExceedsTwo otherwise.
    """
    orient = _forced_orientation(p)
    if orient is None:
        raise DimensionExceedsTwo("the incomparability graph has no transitive orientation")

    # p plus the orientation (or its reverse) is a linear order when the
    # orientation is transitive, and an element's rank is then fixed by
    # how many elements lie above it; verify_realizer catches the rest
    succ, pred = orient
    up = p.up
    first = sorted(range(p.n), key=lambda i: -(up[i] | succ[i]).bit_count())
    second = sorted(range(p.n), key=lambda i: -(up[i] | pred[i]).bit_count())
    r = Realizer(
        tuple(p.labels[i] for i in first),
        tuple(p.labels[i] for i in second),
    )
    if not verify_realizer(p, r):
        raise DimensionExceedsTwo("candidate realizer failed verification")
    return r


def parse_realizer(text: str) -> Realizer:
    """Parse the two-line realizer format: each line is a
    whitespace-separated permutation of the same labels."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise ValueError(f"realizer input needs exactly two non-empty lines, got {len(lines)}")
    return Realizer(tuple(lines[0].split()), tuple(lines[1].split()))
