"""Exact search and verification toolkit for colorful (b-)colorings of
graphs, Kneser graph constructions, and semi-locally-surjective graph
homomorphisms, at desk scale."""

from .coloring import (
    BSpectrumReport,
    Budget,
    Coloring,
    SearchResult,
    SearchStatus,
    b_spectrum,
    chromatic_number,
    find_colorful_coloring,
    is_b_dominating,
    is_colorful,
    is_proper,
    m_degree_bound,
    read_coloring,
    write_coloring,
)
from .errors import FileFormatError, InputError
from .graphs import (
    INFINITE_GIRTH,
    Graph,
    complete_graph,
    cycle_graph,
    girth,
    graph_from_edges,
    is_bipartite,
    path_graph,
    read_col,
    regularity,
    write_col,
)
from .homomorphism import (
    SlsCertificate,
    SlsVerdict,
    VertexMap,
    coloring_as_hom,
    compose,
    hom_as_coloring,
    is_homomorphism,
    is_semi_locally_surjective,
    is_surjective,
    kneser_step_hom,
    lift_coloring,
    read_map,
    write_map,
)
from .kneser import (
    KneserGraph,
    format_subset,
    kneser_graph,
    lovasz_chromatic,
)

__version__ = "0.1.0"
