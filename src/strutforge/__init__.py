"""Exact engine for colored unitrivalent diagram spaces.

Computes quotient dimensions of forest-diagram spaces modulo
antisymmetry, IHX, and link relations, and evaluates the exact
diagram/relation counting formulas for the single-Y subspace.
"""

__version__ = "0.1.0"

from .counting import (
    CountReport,
    count_report,
    crossing_n,
    existence_bound,
    ratio,
    ratio_limit,
    r,
    u,
)
from .diagrams import (
    CanonicalDiagram,
    Diagram,
    Mode,
    TreeComponent,
    canonicalize,
    canonicalize_component,
    decode_component,
    decode_diagram,
    degree,
    diagram,
    strut,
    strut_count,
    y_tree,
)
from .bases import (
    Basis,
    BasisSpec,
    enumerate_basis,
    enumerate_trees,
    enumerate_y_basis,
    strut_union_count,
)
from .relations import (
    RelationRow,
    count_effective_relations,
    expand_along,
    ihx_relations,
    link_relations,
    y_link_relations,
)
from .linalg import (
    DEFAULT_PRIMES,
    RankResult,
    SparseMatrix,
    cokernel_functionals,
    fraction_free_rank,
    rank_mod_p,
    rank_multiprime,
)
from .errors import (
    CacheError,
    CapacityError,
    DomainError,
    NoCrossingError,
    StructuralError,
    UnluckyPrimeError,
)

__all__ = [
    "Basis", "BasisSpec", "CacheError", "CanonicalDiagram", "CapacityError",
    "CountReport", "DEFAULT_PRIMES", "Diagram", "DomainError", "Mode",
    "NoCrossingError", "RankResult", "RelationRow", "SparseMatrix",
    "StructuralError", "TreeComponent", "UnluckyPrimeError", "canonicalize",
    "canonicalize_component", "cokernel_functionals", "count_effective_relations",
    "count_report", "crossing_n", "decode_component", "decode_diagram", "degree",
    "diagram", "enumerate_basis", "enumerate_trees", "enumerate_y_basis",
    "existence_bound", "expand_along", "fraction_free_rank",
    "ihx_relations", "link_relations", "r", "rank_mod_p", "rank_multiprime",
    "ratio", "ratio_limit", "strut", "strut_count", "strut_union_count", "u",
    "y_link_relations", "y_tree",
]
