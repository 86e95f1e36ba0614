"""Exact engine for colored unitrivalent diagram spaces.

Computes quotient dimensions of forest-diagram spaces modulo
antisymmetry, IHX, and link relations, and evaluates the exact
diagram/relation counting formulas for the single-Y subspace.

The names below load lazily: importing the package loads no module, and
each name imports its module on first use.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "counting": ("CountReport", "count_report", "crossing_n", "existence_bound",
                 "ratio", "ratio_limit", "r", "u"),
    "diagrams": ("CanonicalDiagram", "Diagram", "TreeComponent", "canonicalize",
                 "canonicalize_component", "decode_component", "decode_diagram",
                 "degree", "diagram", "strut", "strut_count", "y_tree"),
    "bases": ("Basis", "BasisSpec", "enumerate_basis", "enumerate_trees",
              "enumerate_y_basis", "strut_union_count"),
    "relations": ("RelationRow", "count_effective_relations", "expand_along",
                  "ihx_relations", "link_relations", "y_link_relations"),
    "linalg": ("RankResult", "SparseMatrix", "cokernel_functionals",
               "fraction_free_rank", "rank_mod_p", "rank_multiprime"),
    "records": ("DEFAULT_PRIMES", "Mode"),
    "errors": ("CacheError", "CapacityError", "DomainError", "NoCrossingError",
               "StructuralError", "UnluckyPrimeError"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
