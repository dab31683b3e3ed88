"""The package's public names: each module's `__all__` is the one list of them."""

from __future__ import annotations

import importlib
import types

import multmon

MODULES = ("core", "decomposition", "errors", "formulas", "invariants", "oracle", "parsing", "taylor")

# every name `import multmon` binds besides its submodules and dunders
PUBLIC = {
    "BettiTable", "CISplit", "ClassificationReport", "DecompositionTerm", "HypothesisError",
    "InternalConsistencyError", "MAX_EXPONENT", "Monomial", "MonomialIdeal", "MultmonError",
    "ParseError", "ParsedIdeal", "Q_MAX", "QuadraticDominantData", "ResourceCapError",
    "StemStructure", "TaylorResolution", "ThirdDecomposition", "UnsupportedError", "UsageError",
    "VariableTable", "aci_dominant_witness", "aci_product_difference", "betti_decomposition",
    "betti_table", "classify", "codim", "colength", "detect_stem", "differential_coefficient",
    "dominance_witnesses", "e_aci", "e_codim1", "e_complete_intersection", "e_quadratic_dominant",
    "e_stem", "e_structural", "find_ci_split", "gcd", "gcd_all", "is_almost_complete_intersection",
    "is_complete_intersection", "is_dominant", "is_taylor_minimal", "lcm", "lcm_all",
    "lcm_degree_table", "minimal_covers", "minimal_resolution", "minimalize",
    "multiplicity_associativity", "multiplicity_ps", "multiplicity_recurrence", "parse_ideal",
    "parse_ideal_detailed", "polar_set", "polar_sets", "ps_power_sum", "quadratic_dominant_data",
    "quotient", "reg_quadratic_dominant", "regularity_dominant", "structural_terms",
    "taylor_numerator", "taylor_resolution", "third_decomposition", "validate_split",
}


def test_public_names_are_pinned():
    bound = {
        name
        for name, value in vars(multmon).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound == PUBLIC


def test_every_listed_name_is_exported():
    for module in MODULES:
        mod = importlib.import_module(f"multmon.{module}")
        missing = [n for n in mod.__all__ if getattr(multmon, n, None) is not getattr(mod, n)]
        assert not missing, (module, missing)
