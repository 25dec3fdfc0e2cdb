"""Upward confluent Hasse diagrams for two-dimensional partial orders.

Pipeline: recognize dimension <= 2 and extract a two-order realizer,
embed elements on an integer grid, insert the junction points that
complete the order to a lattice, sweep out the cover segments, and
render the result as cubic Bezier tracks in SVG or as JSON. A linear
time layout handles series-parallel orders directly, and brute-force
oracles certify every construction on small instances.
"""

from .bench import gen_random, gen_random_sp, gen_worstcase, scaling_report, timed_pipeline
from .diagram import (
    Diagram,
    smooth_adjacency,
    smooth_pairs,
    sweep_cover_edges,
    validate_diagram,
)
from .grid import GridPoint, GridScene, insert_junctions, place_on_grid
from .oracle import (
    Completion,
    Cut,
    TooLargeForOracle,
    dm_completion,
    dominance_covers,
    scene_matches_completion,
)
from .poset import (
    CycleError,
    DuplicateLabelError,
    Extremes,
    Poset,
    UnknownLabelError,
    extremes,
    parse_edge_list,
    poset_from_relations,
    transitive_reduction,
)
from .realizer import (
    DimensionExceedsTwo,
    MismatchedElementsError,
    Realizer,
    parse_realizer,
    poset_from_realizer,
    realizer_of,
    verify_realizer,
)
from .render import RenderOptions, bezier_controls, rotate45, to_json, to_svg
from .sp import (
    DuplicateLeafError,
    SpLeaf,
    SpParallel,
    SpSeries,
    SpSyntaxError,
    SpTree,
    parse_sp,
    sp_layout,
    sp_leaves,
    sp_realizer,
    sp_to_poset,
)

__version__ = "0.1.0"


def build_diagram(r: Realizer) -> Diagram:
    """Full pipeline from a realizer: place, complete, sweep."""
    return timed_pipeline(r)[0]
