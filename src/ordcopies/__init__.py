"""Exact computation with countable ordinals and their copy ideals.

The package provides Cantor normal form arithmetic below epsilon_0,
eventually periodic subsets of w^n with decidable order types and ideal
membership, the layer-tower combinatorics over w^w, separative quotients of
finite pre-orders, and the symbolic factorization of the quotient of the
copies of an ordinal ordered by inclusion.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.  Nothing is imported until a
# name is first used (PEP 562), so `import ordcopies` stays cheap and only the
# poset layer loads numpy.
_EXPORTS = {
    name: module
    for module, names in (
        ("errors", (
            "CapError", "DimensionError", "DomainError", "ExprParseError",
            "FusionPreconditionError", "IdealError", "InputFormatError",
            "OrdcopiesError", "OrdinalParseError", "PosetFormatError", "RangeError",
            "SchemaError",
        )),
        ("ordinals", (
            "EQ", "GT", "LT", "OMEGA", "OMEGA_OMEGA", "ONE", "ZERO", "Ordinal",
            "is_indecomposable", "omega_power", "ord_add", "ord_cmp", "ord_mul",
            "ord_pow", "parse_ordinal", "split_exponent",
        )),
        ("cubesets", (
            "CubeSet", "cs_bool", "cs_complement", "cs_diff", "cs_empty",
            "cs_fubini_positive", "cs_full", "cs_inter", "cs_is_copy",
            "cs_is_empty", "cs_is_full", "cs_member", "cs_order_type", "cs_product",
            "cs_rank", "cs_select", "cs_union", "cube_from_json", "cube_to_json",
            "initial_segment", "ord_to_point", "point_to_ord",
        )),
        ("layered", (
            "FinCof", "LayeredSet", "as_natset", "layered_from_json",
            "layered_to_json", "ls_diff", "ls_fusion", "ls_in_ideal", "ls_inter",
            "ls_is_reduction", "ls_order_type", "ls_s_set", "ls_subset_ideal",
            "ls_supp", "ls_union", "natset", "natset_to_fincof",
        )),
        ("posets", (
            "FinPoset", "all_preorders", "antichain", "chain", "is_separative",
            "poset_from_text", "poset_iso", "poset_product", "poset_to_text",
            "random_preorder", "sep_mod", "sep_quot",
        )),
        ("forcing", (
            "ForcingExpr", "Iteration", "PositivePart", "Power", "Product",
            "QuotientAlgebra", "ReducedPowerIter", "expr_from_json",
            "expr_simplify", "expr_to_json", "factorize", "iteration_form",
            "parse_expr", "render_expr",
        )),
    )
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
