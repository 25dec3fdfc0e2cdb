"""Recognition of order dimension <= 2 and two-linear-order realizers.

A poset has dimension at most two exactly when its incomparability
graph admits a transitive orientation. Orientation is found by the
classic forcing procedure: pick an unoriented incomparable pair, orient
it, and propagate every orientation this forces; a contradiction during
propagation certifies that no transitive orientation exists. The two
output orders are the poset united with the orientation and with its
reverse. The result is always re-checked with verify_realizer, so an
accepted realizer is correct by construction *and* by checking.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .poset import Poset


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
    """Intersection order: a <= b iff a precedes-or-equals b in both."""
    n = r.n
    pos2 = {lab: i for i, lab in enumerate(r.l2)}
    p1 = np.arange(n)
    p2 = np.array([pos2[lab] for lab in r.l1], dtype=int)
    leq = (p1[:, None] <= p1[None, :]) & (p2[:, None] <= p2[None, :])
    return Poset(r.l1, leq)


def verify_realizer(p: Poset, r: Realizer) -> bool:
    """True iff the realizer's intersection order equals p exactly."""
    if set(p.labels) != set(r.l1):
        raise MismatchedElementsError("poset and realizer have different elements")
    return poset_from_realizer(r) == p


def _forced_orientation(p: Poset) -> list[int] | None:
    """Transitive orientation of the incomparability graph, or None.

    Returns per-element successor bitmasks of the orientation. Forcing
    classes are computed against the still-unoriented graph, which lets
    earlier classes merge later ones exactly when transitivity demands.
    """
    n = p.n
    rem = []  # adjacency of the not-yet-oriented incomparability graph
    for i in range(n):
        mask = 0
        for j in range(n):
            if i != j and not p.leq[i, j] and not p.leq[j, i]:
                mask |= 1 << j
        rem.append(mask)

    succ = [0] * n  # chosen orientation, as successor bitmasks

    for a in range(n):
        for b in range(n):
            if not (rem[a] >> b) & 1:
                continue
            # start a new implication class at a -> b
            cls: list[tuple[int, int]] = []
            succ[a] |= 1 << b
            cls.append((a, b))
            queue = deque([(a, b)])
            while queue:
                u, v = queue.popleft()
                shared_tail = rem[u] & ~rem[v] & ~(1 << v)
                for w in _bits(shared_tail):
                    # orienting u->v forces u->w (w incomparable to u,
                    # comparable to v)
                    if (succ[w] >> u) & 1:
                        return None
                    if not (succ[u] >> w) & 1:
                        succ[u] |= 1 << w
                        cls.append((u, w))
                        queue.append((u, w))
                shared_head = rem[v] & ~rem[u] & ~(1 << u)
                for w in _bits(shared_head):
                    # orienting u->v forces w->v (w incomparable to v,
                    # comparable to u)
                    if (succ[v] >> w) & 1:
                        return None
                    if not (succ[w] >> v) & 1:
                        succ[w] |= 1 << v
                        cls.append((w, v))
                        queue.append((w, v))
            # the class is fully oriented; retire its edges
            for u, v in cls:
                rem[u] &= ~(1 << v)
                rem[v] &= ~(1 << u)
    return succ


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
    n = p.n
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in orient), np.uint8)
    o = np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little").astype(bool)
    first = np.argsort(-(p.leq | o).sum(axis=1), kind="stable")
    second = np.argsort(-(p.leq | o.T).sum(axis=1), kind="stable")
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
