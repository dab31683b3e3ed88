"""The associativity-formula oracle: covers, colengths, and the total count."""

from __future__ import annotations

import ast
import json
import random
import time
from itertools import combinations, product
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multmon.cli as cli
import multmon.formulas as formulas
import multmon.oracle as oracle
import multmon.taylor as taylor
from multmon import (
    Monomial,
    ResourceCapError,
    VariableTable,
    codim,
    colength,
    minimal_covers,
    minimalize,
    multiplicity_associativity,
    multiplicity_ps,
    parse_ideal,
)
from multmon.generate import random_ideal

ABCDE = VariableTable(("a", "b", "c", "d", "e"))

ideals = st.builds(
    lambda maps: minimalize(ABCDE, [Monomial.from_map(ABCDE, m) for m in maps]),
    st.lists(
        st.dictionaries(st.integers(0, 4), st.integers(1, 6), min_size=1, max_size=3),
        min_size=1,
        max_size=6,
    ),
)


def names_of(ideal, cover):
    return frozenset(ideal.ring.names[v] for v in cover)


def test_minimal_covers_examples():
    ideal = parse_ideal("x^2*y, x*y^2")
    covers = [names_of(ideal, c) for c in minimal_covers(ideal)]
    assert covers == [{"x"}, {"y"}]

    ideal = parse_ideal("x*y, z")
    covers = [names_of(ideal, c) for c in minimal_covers(ideal)]
    assert sorted(covers, key=sorted) == [{"x", "z"}, {"y", "z"}]

    ideal = parse_ideal("x^5")
    assert [names_of(ideal, c) for c in minimal_covers(ideal)] == [{"x"}]


def test_colength_examples():
    ideal = parse_ideal("x^2, y^3, x*y")
    (cover,) = [c for c in minimal_covers(ideal)]
    assert colength(ideal, cover) == 4  # standard monomials 1, x, y, y^2

    ideal = parse_ideal("x^2*y, x*y^2")
    x_cover = [c for c in minimal_covers(ideal) if names_of(ideal, c) == {"x"}][0]
    assert colength(ideal, x_cover) == 1

    ideal = parse_ideal("x^6")
    assert colength(ideal, minimal_covers(ideal)[0]) == 6


def test_colength_rejects_non_cover():
    ideal = parse_ideal("x*y, z")
    with pytest.raises(ValueError):
        colength(ideal, frozenset({ideal.ring.index("x"), ideal.ring.index("y")}))
    ideal = parse_ideal("x*y, y*z")  # a cover, larger than the codim
    with pytest.raises(ValueError, match=r"^\{x, z\} is not a minimal cover$"):
        colength(ideal, frozenset({0, 2}))
    # an index outside the ring is named as `Monomial.exponent` names it, before any lookup
    for index in (7, -1):
        with pytest.raises(ValueError, match=f"^variable index {index} out of range$"):
            colength(ideal, frozenset({index}))


def test_multiplicity_examples():
    assert multiplicity_associativity(parse_ideal("x^2*y, x*y^2")) == 2
    assert multiplicity_associativity(parse_ideal("a^3*c, a*b*e^3, a^2*b^2, c^2, d^2*e^2")) == 18
    assert multiplicity_associativity(parse_ideal("x^2, y^3")) == 6


def test_colengths_over_minimal_covers_sum_to_multiplicity():
    ideal = parse_ideal("a*b, a*c, d*e")
    colengths = [colength(ideal, cov) for cov in minimal_covers(ideal)]
    assert all(c >= 1 for c in colengths)
    assert sum(colengths) == multiplicity_ps(ideal)


def test_colength_unchanged_by_redundant_generators():
    rng = random.Random(314)
    for _ in range(50):
        ideal = random_ideal(rng, max_gens=5, max_vars=4)
        g = ideal.gens[rng.randrange(ideal.q)]
        fattened = minimalize(ideal.ring, list(ideal.gens) + [g * g])
        assert fattened == ideal
        for cover in minimal_covers(ideal):
            assert colength(fattened, cover) == colength(ideal, cover)


def test_grid_cap():
    # past a 10^7-point box the cap counts the staircase's cells, one per combination of the
    # distinct exponents inside the box: no vector lies inside this one, so it is one product
    ideal = parse_ideal("x^4000000, y^4000000")
    assert colength(ideal, frozenset({0, 1})) == 16 * 10**12
    # 57 vectors inside a 1000^4 box, with 57 distinct exponents in each variable: 58^4 cells
    mixed = [f"x^{i}*y^{58 - i}*z^{i}*w^{58 - i}" for i in range(1, 58)]
    ideal = parse_ideal(", ".join(["x^1000", "y^1000", "z^1000", "w^1000", *mixed]))
    cap = r"^colength staircase of 11316496 cells in a 1000000000000-point grid exceeds the 10000000 cap$"
    with pytest.raises(ResourceCapError, match=cap):
        multiplicity_associativity(ideal)


def test_cap_box_comes_from_each_variables_pure_power():
    # x^9999*z restricts to a vector past x's pure power on both covers; the box is
    # 3162 * 3162 * 1 because each side is its variable's least pure power, not
    # the 9999 an all-vector maximum would give (a 31.6M box, over the cap)
    ideal = parse_ideal("x^3162, y^3162, x^9999*z, z*w")
    assert [colength(ideal, cover) for cover in minimal_covers(ideal)] == [9998244, 9998244]
    assert multiplicity_associativity(ideal) == 19996488
    # a box past the cap with no vector inside it is one staircase cell
    ideal = parse_ideal("x^3163, y^3163, x^9999*z, z*w")
    assert [colength(ideal, cover) for cover in minimal_covers(ideal)] == [10004569, 10004569]
    assert multiplicity_associativity(ideal) == 20009138


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(1, 2**31 - 1), min_size=1, max_size=2), min_size=1, max_size=4))
def test_complete_intersection_count_is_the_degree_product(exponents):
    # pairwise-coprime generators of one or two variables each: every cover's box holds no
    # vector, so the oracle counts it whatever its size, and the sum is the degree product
    gens, first = [], 0
    for exps in exponents:
        gens.append("*".join(f"x{first + k}^{e}" for k, e in enumerate(exps)))
        first += len(exps)
    assert multiplicity_associativity(parse_ideal(", ".join(gens))) == prod(map(sum, exponents))


def test_thousand_variable_cover():
    # one cover of 1001 variables; with x0*x1 kept, the count passes through
    # 1000 nested slices, which wait on a stack rather than in recursion
    ideal = parse_ideal(", ".join(f"x{i}" for i in range(1001)))
    (cover,) = minimal_covers(ideal)
    assert len(cover) == 1001
    assert colength(ideal, cover) == 1
    assert multiplicity_associativity(ideal) == 1
    ideal = parse_ideal(", ".join(["x0^2", "x1^2", "x0*x1"] + [f"x{i}" for i in range(2, 1001)]))
    assert multiplicity_associativity(ideal) == 3  # 1, x0, x1


def cycle_ideal(q):
    return parse_ideal(", ".join(f"v{i}*v{(i + 1) % q}" for i in range(q)))


def grid_walk_colength(ideal, cover):
    """Standard monomials in the cover variables, one lattice point at a time.

    Each cover variable has a pure power among the restricted generators, so
    a box as long as each variable's largest exponent holds every standard
    monomial.
    """
    cov = sorted(cover)
    vectors = [tuple(g.exponent(v) for v in cov) for g in ideal.gens]
    sides = [range(max(vec[p] for vec in vectors)) for p in range(len(cov))]
    return sum(
        1
        for point in product(*sides)
        if not any(all(w <= x for w, x in zip(vec, point)) for vec in vectors)
    )


def scanned_covers(ideal):
    """Every codim-sized subset of the used variables that meets each support."""
    supports = [set(g.support) for g in ideal.gens]
    return [
        frozenset(combo)
        for combo in combinations(ideal.used_variables(), codim(ideal))
        if all(s.intersection(combo) for s in supports)
    ]


@settings(max_examples=200, deadline=None)
@given(ideals)
def test_minimal_covers_match_the_subset_scan(ideal):
    assert minimal_covers(ideal) == scanned_covers(ideal)


@settings(max_examples=200, deadline=None)
@given(ideals)
def test_colength_matches_the_grid_walk(ideal):
    for cover in scanned_covers(ideal):
        assert colength(ideal, cover) == grid_walk_colength(ideal, cover)


def test_big_box_multiplicity_is_exact():
    ideal = parse_ideal("x^300, y^300, z^100, x*y*z")
    assert multiplicity_associativity(ideal) == 300 * 300 * 100 - 299 * 299 * 99 == 149301


def test_big_box_check_is_fast(capsys):
    started = time.perf_counter()
    code = cli.main(["multiplicity", "--ideal", "x^300, y^300, z^100, x*y*z", "--check"])
    elapsed = time.perf_counter() - started
    (doc,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 0
    assert doc["agreement"] is True
    assert {c["method"]: c["value"] for c in doc["checks"]} == {"ps": 149301, "oracle": 149301}
    assert elapsed < 5.0


def test_cycle_cover_counts():
    # An even cycle has the two alternating covers; an odd one has q covers of
    # size (q + 1) / 2, one per place where two chosen variables are adjacent.
    assert len(minimal_covers(cycle_ideal(20))) == 2
    assert len(minimal_covers(cycle_ideal(19))) == 19


def test_oracle_imports_no_other_route():
    # the oracle, the closed forms and the Taylor engine share only `core` (and its subset-lcm DP)
    for module in (oracle, formulas, taylor):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        imported = {
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
        }
        assert imported == {"core", "errors", "invariants"}, module.__name__
