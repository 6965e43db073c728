"""Cluster combinatorics of triangulated bordered surfaces."""

from .surface import (
    MarkedSurface,
    SurfaceClassification,
    ExcludedSurface,
    EmptyMarking,
    validate_surface,
    classify,
)
from .mutation import (
    ExchangeMatrix,
    MutationClass,
    mutate,
    rank,
    corank,
    canonical_form,
    mutation_class,
    make_quiver,
    quiver_product,
    recognize_type,
)
from .trimap import (
    IdealTriangulation,
    initial_triangulation,
    is_flippable,
    flip,
    signed_adjacency,
)
from .tagged import (
    TaggedTriangulation,
    tag_with,
    tagged_flip,
    exchange_graph_bfs,
    b_matrix,
)
from .finite_models import (
    Model,
    ModelArc,
    enumerate_tagged_arcs,
    compatible,
    intersection_number,
    enumerate_clusters,
)
from .blocks import (
    BlockDecomposition,
    BlockPlacement,
    decompose,
    surface_from_decomposition,
)
from .cluster import (
    LaurentPoly,
    Seed,
    mutate_seed,
    denominator_vector,
    tropical_mutate,
    all_cluster_variables,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
