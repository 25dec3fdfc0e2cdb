"""Spans around the package's layer functions, recorded from outside.

The tracer replaces functions at the module attributes the CLI looks
them up by (``cli.*``, ``bench.*``, ``render.*``, ``oracle.*``,
``diagram.*``) with wrappers that record a span, then calls the same
``cli.run`` a user's run does. Nothing in the package changes. Spans are
kept in memory. Counts are taken from arguments and return values after
the op, outside every timed interval.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable

# (module, attribute, span name): the layer functions the CLI path reaches
# through a module attribute, each named by the module that defines it
WRAPPED = (
    ("cli", "run", "cli.run"),
    ("cli", "parse_edge_list", "poset.parse_edge_list"),
    ("diagram", "transitive_reduction", "poset.transitive_reduction"),
    ("cli", "realizer_of", "realizer.realizer_of"),
    ("cli", "parse_realizer", "realizer.parse_realizer"),
    ("cli", "poset_from_realizer", "realizer.poset_from_realizer"),
    ("bench", "place_on_grid", "grid.place_on_grid"),
    ("bench", "insert_junctions", "grid.insert_junctions"),
    ("bench", "sweep_cover_edges", "diagram.sweep_cover_edges"),
    ("cli", "validate_diagram", "diagram.validate_diagram"),
    ("diagram", "smooth_adjacency", "diagram.smooth_adjacency"),
    ("oracle", "dominance_covers", "oracle.dominance_covers"),
    ("oracle", "scene_matches_completion", "oracle.scene_matches_completion"),
    ("render", "rotate45", "render.rotate45"),
    ("render", "to_svg", "render.to_svg"),
    ("render", "to_json", "render.to_json"),
    ("cli", "parse_sp", "sp.parse_sp"),
    ("cli", "sp_layout", "sp.sp_layout"),
    ("cli", "sp_to_poset", "sp.sp_to_poset"),
)
SPAN_NAMES = tuple(name for _, _, name in WRAPPED)

# counts reported per op; grid.odd_cells, the cells insert_junctions
# scans, is also counted, as the base of grid.junction_hit_ratio
COUNTS = (
    "poset.input_pairs",
    "grid.points",
    "grid.junctions",
    "grid.invisible",
    "diagram.segments",
    "verify.smooth_extra_pairs",
    "sp.leaves",
)


def _count_pairs(text: str) -> int:
    pairs = 0
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if len(tokens) == 2 and tokens[0] != "node":
            pairs += 1
    return pairs


class Tracer:
    """Records spans (name, start, end, parent, op) while installed."""

    def __init__(self, modules: dict[str, Any]):
        self._modules = modules
        self._saved: list[tuple[Any, str, Callable]] = []
        self._stack: list[int] = []
        self._returns: list[tuple[str, tuple, Any]] = []
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1

    def install(self, op: int) -> None:
        self.op = op
        for mod_name, attr, name in WRAPPED:
            mod = self._modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        """Restore the originals, then take the op's counts."""
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        self._count_op()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            sid = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
            self.spans.append(span)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[1], span[2] = start, time.perf_counter()
                self._stack.pop()
            self._returns.append((name, args, result))
            return result

        return traced

    def _count_op(self) -> None:
        from confluent_hasse.grid import INVISIBLE, JUNCTION
        from confluent_hasse.sp import sp_leaves

        c = self.counts
        smooth = covers = None
        for name, args, result in self._returns:
            if name == "poset.parse_edge_list":
                c["poset.input_pairs"] += _count_pairs(args[0])
            elif name == "grid.insert_junctions":
                kinds = [q.kind for q in result.points]
                c["grid.points"] += len(kinds)
                c["grid.junctions"] += kinds.count(JUNCTION)
                c["grid.invisible"] += kinds.count(INVISIBLE)
                c["grid.odd_cells"] += max(result.n - 1, 0) ** 2
            elif name in ("diagram.sweep_cover_edges", "sp.sp_layout"):
                c["diagram.segments"] += len(result.segments)
            elif name == "diagram.smooth_adjacency":
                smooth = result
            elif name == "poset.transitive_reduction":
                covers = result
            elif name == "sp.parse_sp":
                c["sp.leaves"] += len(sp_leaves(result))
        if smooth is not None and covers is not None:
            c["verify.smooth_extra_pairs"] += len(smooth - covers)
        self._returns.clear()


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """calls, busy ms and self ms per span name. Self time is a span's
    duration minus the durations of its direct children."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out = {name: {"calls": 0, "ms": 0.0, "self_ms": 0.0} for name in SPAN_NAMES}
    for sid, (name, start, end, _, _) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["ms"] += (end - start) * 1000.0
        row["self_ms"] += (end - start - child_s[sid]) * 1000.0
    return out
