"""Deterministic instance suites shared between module and acceptance tests."""

from __future__ import annotations

import random
from collections import deque

import numpy as np

from confluent_hasse import (
    Poset,
    SpLeaf,
    SpParallel,
    SpSeries,
    dm_completion,
    gen_random,
    transitive_reduction,
)
from confluent_hasse.sp import SpTree


def random_realizer_suite(count: int = 200, max_n: int = 9):
    """``count`` seeded random realizers with n cycling over 0..max_n."""
    return [gen_random(i % (max_n + 1), i) for i in range(count)]


def all_sp_trees(max_leaves: int = 6) -> list[SpTree]:
    """Every series-parallel tree shape/labelling with up to ``max_leaves``
    leaves, labelled a, b, c, ... left to right."""
    alphabet = "abcdefghij"

    def shapes(k: int) -> list:
        # shape: None for a leaf, (kind, left, right) otherwise
        if k == 1:
            return [None]
        out = []
        for split in range(1, k):
            for left in shapes(split):
                for right in shapes(k - split):
                    out.append(("s", left, right))
                    out.append(("p", left, right))
        return out

    def realize(shape, counter: list[int]) -> SpTree:
        if shape is None:
            label = alphabet[counter[0]]
            counter[0] += 1
            return SpLeaf(label)
        kind, left, right = shape
        l = realize(left, counter)
        r = realize(right, counter)
        return SpSeries(l, r) if kind == "s" else SpParallel(l, r)

    trees = []
    for k in range(1, max_leaves + 1):
        for shape in shapes(k):
            trees.append(realize(shape, [0]))
    return trees


def random_poset(n: int, seed: int, density: float = 0.3) -> Poset:
    """Random poset: sample pairs consistent with the index order, close."""
    rng = random.Random(seed)
    labels = [f"x{i}" for i in range(n)]
    mat = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                mat[i, j] = True
    # transitive closure
    for k in range(n):
        mat |= np.outer(mat[:, k], mat[k, :])
    return Poset(labels, mat)


def forced_smooth_pairs(p: Poset) -> frozenset[tuple[str, str]]:
    """Element pairs that are smooth in every valid confluent drawing of p.

    Built from the completion oracle alone: the cuts, ordered by
    containment of their lower sets, form the smallest complete lattice
    containing p. From each principal cut (the down-set of one element)
    follow cover pairs upward, passing only through non-principal
    (added) cuts; every principal cut reached that way gives a pair.
    The README ("Known semantic limit") shows why each such pair is
    smooth in every planar drawing with visible extremes.
    """
    completion = dm_completion(p)
    lattice = completion.poset
    element_at = {completion.element_cut_index(label): label for label in p.labels}
    above: dict[int, list[int]] = {}
    for lo, hi in transitive_reduction(lattice):
        above.setdefault(lattice.index(lo), []).append(lattice.index(hi))
    forced: set[tuple[str, str]] = set()
    for start, label in element_at.items():
        stack = list(above.get(start, ()))
        seen: set[int] = set()
        while stack:
            cut = stack.pop()
            if cut in seen:
                continue
            seen.add(cut)
            if cut in element_at:
                forced.add((label, element_at[cut]))
            else:
                stack.extend(above.get(cut, ()))
    return frozenset(forced)


def reference_orientation(p: Poset) -> list[int] | None:
    """The per-bit forcing loop that ``realizer._forced_orientation``
    must match exactly: successor bitmasks of the orientation, or None.

    Every pop walks every bit of ``shared_tail`` and ``shared_head``,
    which is slow but plainly the textbook procedure. Test-only; the
    package never imports it.
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
