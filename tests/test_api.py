"""The package's public names: each module's `__all__` is the one list of them."""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import multmon

MODULES = ("core", "decomposition", "errors", "formulas", "invariants", "oracle", "parsing", "taylor")

# every name `import multmon` binds besides its submodules and dunders
PUBLIC = {
    "CISplit", "ClassificationReport", "DecompositionTerm", "HypothesisError",
    "InternalConsistencyError", "MAX_EXPONENT", "Monomial", "MonomialIdeal", "MultmonError",
    "ParseError", "ParsedIdeal", "Q_MAX", "QuadraticDominantData", "ResourceCapError",
    "StemStructure", "TaylorResolution", "ThirdDecomposition", "UnsupportedError", "UsageError",
    "VariableTable", "aci_dominant_witness", "aci_product_difference", "betti_decomposition",
    "betti_table", "classify", "codim", "colength", "detect_stem", "differential_coefficient",
    "dominance_witnesses", "e_aci", "e_codim1", "e_complete_intersection", "e_quadratic_dominant",
    "e_stem", "e_structural", "find_ci_split", "gcd_all", "is_almost_complete_intersection",
    "is_complete_intersection", "is_dominant", "lcm_all",
    "lcm_degree_table", "minimal_covers", "minimal_resolution", "minimalize",
    "multiplicity_associativity", "multiplicity_ps", "multiplicity_recurrence", "parse_ideal",
    "parse_ideal_detailed", "polar_set", "polar_sets", "ps_power_sum", "quadratic_dominant_data",
    "quotient", "reg_quadratic_dominant", "regularity_dominant", "structural_terms",
    "taylor_numerator", "taylor_resolution", "third_decomposition",
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


def test_no_module_imports_a_name_it_never_uses():
    # the star re-exports of `__init__` bind each module's `__all__`, and bind no name of their own
    for path in sorted(Path(multmon.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
            for alias in node.names
            if alias.name != "*"
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


def test_every_module_level_helper_is_exported_or_used():
    # a function or class that no module names, outside `__all__`, is dead code
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(multmon.__file__).parent.glob("*.py"))
    }
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    for name, tree in trees.items():
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update(ast.literal_eval(node.value))
        defined = {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        dead = {
            n for n in defined - exported - referenced if not (n.startswith("__") and n.endswith("__"))
        }
        assert not dead, (name, sorted(dead))


def test_only_per_ideal_writes_an_ideals_facts():
    # each fact is written by the function that computes it, through `core.per_ideal` alone:
    # besides the slot and its empty start, no code in `core` or elsewhere names `_facts`
    def naming(node, path=()):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            path = (*path, node.name)
        if getattr(node, "attr", None) == "_facts" or getattr(node, "value", None) == "_facts":
            yield ".".join(path)
        for child in ast.iter_child_nodes(node):
            yield from naming(child, path)

    found = {
        (path.name, where)
        for path in sorted(Path(multmon.__file__).parent.glob("*.py"))
        for where in naming(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {
        ("core.py", "MonomialIdeal"), ("core.py", "MonomialIdeal._fill"), ("core.py", "per_ideal.cached")
    }
