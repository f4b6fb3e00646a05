"""Exact Hodge-Laplace spectra on p-forms of compact flat manifolds given
as Bieberbach groups over the cubic lattice."""

from .arith import binomial, krawtchouk, krawtchouk_table
from .bieberbach import (
    BieberbachGroup,
    GroupValidationError,
    HolonomyExpansionError,
    IsometryElement,
    SignedPermutation,
    ValidationReport,
    classify_holonomy,
    expand_holonomy,
    group_from_json,
    is_diagonal_type,
    is_orientable,
    is_torsion_free,
    validate,
    validate_generators,
)
from .families import (
    GhwArray,
    catalog,
    catalog_names,
    diagonal_group,
    hw_groups,
    kn_family,
    kn_group_from_array,
    torus,
    z2_family,
    z2_family_size,
    z2_group,
)
from .graphs import GhwGraph, canonical_vertex_order, graph_of, graphs_isomorphic, to_dot
from .lattice import Shell, ShellCapExceeded, fixed_vectors, shell_vectors
from .spectra import (
    MultiplicityRow,
    betti_numbers,
    character_sum,
    compare_spectra,
    theorem_check,
)

__version__ = "0.1.0"

__all__ = [
    "BieberbachGroup",
    "GhwArray",
    "GhwGraph",
    "GroupValidationError",
    "HolonomyExpansionError",
    "IsometryElement",
    "MultiplicityRow",
    "Shell",
    "ShellCapExceeded",
    "SignedPermutation",
    "ValidationReport",
    "betti_numbers",
    "binomial",
    "canonical_vertex_order",
    "catalog",
    "catalog_names",
    "character_sum",
    "classify_holonomy",
    "compare_spectra",
    "diagonal_group",
    "expand_holonomy",
    "fixed_vectors",
    "graph_of",
    "graphs_isomorphic",
    "group_from_json",
    "hw_groups",
    "is_diagonal_type",
    "is_orientable",
    "is_torsion_free",
    "kn_family",
    "kn_group_from_array",
    "krawtchouk",
    "krawtchouk_table",
    "shell_vectors",
    "theorem_check",
    "to_dot",
    "torus",
    "validate",
    "validate_generators",
    "z2_family",
    "z2_family_size",
    "z2_group",
]
