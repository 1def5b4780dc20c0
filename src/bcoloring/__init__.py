"""Exact search and verification toolkit for colorful (b-)colorings of
graphs, Kneser graph constructions, and semi-locally-surjective graph
homomorphisms, at desk scale.

The public names below load their submodule on first use, so importing
the package, or a command-line call, compiles only the modules it runs.
Each lookup reads the submodule's current binding and stores nothing
here, so a name replaced in its submodule (a test's monkeypatch, a
tracer's wrapper) is seen through the package too, and its restore as well.
"""

from importlib import import_module as _import_module

_PUBLIC = {
    "coloring": (
        "BSpectrumReport",
        "Budget",
        "Coloring",
        "SearchResult",
        "SearchStatus",
        "b_spectrum",
        "chromatic_number",
        "find_colorful_coloring",
        "is_b_dominating",
        "is_colorful",
        "is_proper",
        "m_degree_bound",
        "read_coloring",
        "write_coloring",
    ),
    "errors": ("FileFormatError", "InputError"),
    "graphs": (
        "INFINITE_GIRTH",
        "Graph",
        "complete_graph",
        "cycle_graph",
        "girth",
        "graph_from_edges",
        "is_bipartite",
        "path_graph",
        "read_col",
        "regularity",
        "write_col",
    ),
    "homomorphism": (
        "SlsCertificate",
        "SlsVerdict",
        "VertexMap",
        "coloring_as_hom",
        "compose",
        "hom_as_coloring",
        "is_homomorphism",
        "is_semi_locally_surjective",
        "is_surjective",
        "kneser_step_hom",
        "lift_coloring",
        "read_map",
        "write_map",
    ),
    "kneser": ("KneserGraph", "format_subset", "kneser_graph", "lovasz_chromatic"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
