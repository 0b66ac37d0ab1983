"""Exact computational algebra for monomial Hopf superalgebras,
Harish-Chandra pairs over G_a^k x D, their representation categories, and
smoothness of super-commutative presentations.

The public names are loaded from their submodule on first use (PEP 562)."""

import importlib

_EXPORTS = {
    "fields": "Field FieldElement FunctionField GF QQ QuadraticField",
    "chargroup": "Character GroupDescriptor LieFunctional Subgroup subgroup_kernel",
    "hopfcore": "GXData MonomialHopfSuperalgebra build_algebra coradical find_grouplikes"
                " group_algebra validate_gx verify_hopf_axioms",
    "hcp": "HarishChandraPair SubPair abelian_normal_form center_even check_normal"
           " check_pair classify_iso is_nilpotent nilpotency_conditions normal_chain"
           " quotient_pair splitting_counterexample super_diagonalizable unipotent_radical_trivial",
    "dgxrep": "IndecompLabel Supercomodule decompose dual_pairing ext1 socle standard_object",
    "smoothcheck": "SuperAlgebraPresentation compute_gr hochschild_ealpha hopf_smooth_reduction"
                   " is_regular is_smooth",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)
