"""Plane trees, their canonical forms, and one-sink sphere flows.

Rooted plane trees are enumerated by balanced-parenthesis codes; unrooted
embedded trees are canonicalized by re-rooting at their centers, under
rotation-only (oriented) or rotation-plus-reflection (mirror) equivalence;
and each plane tree doubles as the complete invariant of a gradient-like
flow with a single sink on the 2-sphere.
"""

from .canonical import (
    CenterResult,
    Centrality,
    PlaneTree,
    canonical_plane,
    center,
    is_isomorphic,
    rerooting_oracle_canon,
    rooted_representatives,
    rotation_system,
)
from .enumeration import (
    CLAIMED_FLOWS,
    CLAIMED_PLANE,
    CLAIMED_ROOTED,
    CenterGluingSpec,
    ReconcileReport,
    ReconcileRow,
    assemble,
    catalog_json,
    catalog_text,
    count_plane,
    enumerate_plane_center,
    enumerate_plane_oracle,
    reconcile_counts,
)
from .errors import (
    Disconnected,
    HasCycle,
    LimitExceeded,
    MalformedCode,
    PlaneForestError,
)
from .morse import (
    MorseFlow,
    count_flows,
    enumerate_flows,
    flow_from_tree,
    flow_record,
    validate_flow_graph,
)
from .render import RenderSpec, render, render_ascii, render_dot, render_svg
from .trees import (
    DEFAULT_MAX_EDGES,
    EquivalenceMode,
    RootedPlaneTree,
    count_rooted,
    decode,
    encode,
    enumerate_rooted,
    iter_dyck_codes,
    max_rooted_edges,
    reflect,
    rooted_codes,
)

__version__ = "0.1.0"

# the imported names, less submodules and _-names, sorted (tests/test_values.py::test_public_names_are_pinned)
__all__ = sorted(name for name, value in globals().items() if name[0] != "_" and not isinstance(value, type(trees)))
