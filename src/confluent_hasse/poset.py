"""Finite partial orders stored as a dense boolean comparability matrix.

Elements are identified by unique string labels; the matrix entry
``leq[i, j]`` holds exactly when element i is less than or equal to
element j. The dense representation keeps every query O(1) and
closure/reduction simple.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np


class DuplicateLabelError(ValueError):
    """Two elements were declared with the same label."""


class UnknownLabelError(ValueError):
    """A relation pair references a label that was never declared."""


class CycleError(ValueError):
    """The input relations imply x <= y and y <= x for distinct x, y."""


class Extremes(NamedTuple):
    minimal: frozenset[str]
    maximal: frozenset[str]
    least: str | None
    greatest: str | None


class Poset:
    """Immutable finite poset over labelled elements.

    The constructor trusts ``leq`` to be transitive (the factory
    functions below always close their input) but verifies shape,
    reflexivity and antisymmetry, which are cheap.
    """

    __slots__ = ("labels", "leq", "_index")

    def __init__(self, labels: Iterable[str], leq: np.ndarray):
        self.labels = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise DuplicateLabelError("duplicate element labels")
        mat = np.array(leq, dtype=bool)
        n = len(self.labels)
        if mat.shape != (n, n):
            raise ValueError(f"relation matrix must be {n}x{n}, got {mat.shape}")
        if n and not mat.diagonal().all():
            raise ValueError("relation must be reflexive")
        sym = mat & mat.T
        np.fill_diagonal(sym, False)
        if sym.any():
            a, b = map(int, np.argwhere(sym)[0])
            raise CycleError(
                f"antisymmetry violated: {self.labels[a]!r} and {self.labels[b]!r}"
            )
        mat.setflags(write=False)
        self.leq = mat

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(f"unknown element {label!r}") from None

    def holds(self, a: str, b: str) -> bool:
        """True iff a <= b."""
        return bool(self.leq[self.index(a), self.index(b)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        if set(self.labels) != set(other.labels):
            return False
        perm = [other.index(lab) for lab in self.labels]
        return bool((self.leq == other.leq[np.ix_(perm, perm)]).all())

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, labels={self.labels!r})"


def _transitive_closure(mat: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of a boolean relation, in place."""
    n = mat.shape[0]
    np.fill_diagonal(mat, True)
    for k in range(n):
        mat |= np.outer(mat[:, k], mat[k, :])
    return mat


def poset_from_relations(
    labels: Sequence[str], pairs: Iterable[tuple[str, str]]
) -> Poset:
    """Build a poset from "a <= b" assertions.

    Pairs are arbitrary comparabilities, not necessarily covers or a
    closed relation; the reflexive-transitive closure is always taken.
    Raises CycleError when the pairs contain a directed cycle.
    """
    index: dict[str, int] = {}
    for lab in labels:
        if lab in index:
            raise DuplicateLabelError(f"duplicate label {lab!r}")
        index[lab] = len(index)
    n = len(index)
    mat = np.zeros((n, n), dtype=bool)
    for a, b in pairs:
        if a not in index:
            raise UnknownLabelError(f"unknown element {a!r}")
        if b not in index:
            raise UnknownLabelError(f"unknown element {b!r}")
        mat[index[a], index[b]] = True
    _transitive_closure(mat)
    return Poset(labels, mat)


def transitive_reduction(p: Poset) -> frozenset[tuple[str, str]]:
    """Cover pairs (lower, upper) of the poset.

    (a, b) is kept iff a < b and no x satisfies a < x < b; the closure
    of the result equals the original relation.
    """
    strict = p.leq & ~np.eye(p.n, dtype=bool)
    # counts paths of length two through the strict order; the counts
    # are at most n, and float32 holds every integer below 2**24 exactly
    assert p.n < 1 << 24
    two_step = strict.astype(np.float32) @ strict.astype(np.float32)
    covers = strict & (two_step == 0)
    return frozenset(
        (p.labels[a], p.labels[b]) for a, b in np.argwhere(covers).tolist()
    )


def extremes(p: Poset) -> Extremes:
    """Minimal and maximal elements plus least/greatest when they exist."""
    strict = p.leq & ~np.eye(p.n, dtype=bool)
    minimal = frozenset(p.labels[i] for i in range(p.n) if not strict[:, i].any())
    maximal = frozenset(p.labels[i] for i in range(p.n) if not strict[i, :].any())
    least = greatest = None
    for i in range(p.n):
        if p.leq[i, :].all():
            least = p.labels[i]
        if p.leq[:, i].all():
            greatest = p.labels[i]
    return Extremes(minimal, maximal, least, greatest)


def parse_edge_list(text: str) -> Poset:
    """Parse the edge-list text format.

    One pair per line, "u v", meaning u <= v. A '#' starts a comment.
    Isolated elements are declared on their own line as "node u".
    Labels are whitespace-free tokens; first appearance fixes the index.
    """
    labels: list[str] = []
    seen: set[str] = set()
    pairs: list[tuple[str, str]] = []

    def declare(lab: str) -> None:
        if lab not in seen:
            seen.add(lab)
            labels.append(lab)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "node":
            if len(tokens) != 2:
                raise ValueError(f"line {lineno}: expected 'node <label>'")
            declare(tokens[1])
        elif len(tokens) == 2:
            declare(tokens[0])
            declare(tokens[1])
            pairs.append((tokens[0], tokens[1]))
        else:
            raise ValueError(
                f"line {lineno}: expected 'u v' or 'node u', got {line!r}"
            )
    return poset_from_relations(labels, pairs)
