"""Closed-form multiplicity and regularity formulas against engine and oracle."""

from __future__ import annotations

import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multmon import (
    CISplit,
    HypothesisError,
    Monomial,
    aci_dominant_witness,
    aci_product_difference,
    codim,
    detect_stem,
    e_aci,
    e_codim1,
    e_complete_intersection,
    e_quadratic_dominant,
    e_stem,
    e_structural,
    find_ci_split,
    gcd_all,
    is_dominant,
    minimalize,
    multiplicity_associativity,
    multiplicity_ps,
    parse_ideal,
    quadratic_dominant_data,
    reg_quadratic_dominant,
    regularity_dominant,
)
from multmon import cli
from multmon.generate import make_table

from generators import (
    random_codim1_ideal,
    random_complete_intersection,
    random_dominant_with_split,
    random_quadratic_dominant,
    random_stem_ideal,
)


# ---------------------------------------------------------------------------
# codim-1 and complete intersections


def test_e_codim1_examples():
    assert e_codim1(parse_ideal("x^9")) == 9
    assert e_codim1(parse_ideal("x^2*y, x*y^2")) == 2
    assert e_codim1(parse_ideal("a^2*b*c, b^3*c, c^4")) == 1
    with pytest.raises(HypothesisError):
        e_codim1(parse_ideal("x^2, y^3"))


def test_e_complete_intersection_examples():
    assert e_complete_intersection(parse_ideal("x^2, y^3")) == 6
    assert e_complete_intersection(parse_ideal("a^2*b^2, c^2, d^2*e^2")) == 32
    assert e_complete_intersection(parse_ideal("x")) == 1
    with pytest.raises(HypothesisError):
        e_complete_intersection(parse_ideal("a^2, b^3, a*b"))


def test_codim1_and_ci_formulas_match_engine():
    rng = random.Random(61)
    for _ in range(120):
        ideal = random_codim1_ideal(rng)
        assert e_codim1(ideal) == multiplicity_ps(ideal), str(ideal)
        ideal = random_complete_intersection(rng)
        assert e_complete_intersection(ideal) == multiplicity_ps(ideal), str(ideal)


# ---------------------------------------------------------------------------
# stem ideals


def test_detect_stem_examples():
    ideal = parse_ideal("a^2*b*c, b^3*c, c^4, d^2*e^2, d*e*f, d*g^2")
    structure = detect_stem(ideal)
    assert structure is not None
    assert {str(s) for s in structure.stems} == {"c", "d"}
    assert structure.boundaries == (0, 3, 6)
    block_gens = [{str(ideal.gens[i]) for i in block} for block in structure.blocks]
    assert {"a^2*b*c", "b^3*c", "c^4"} in block_gens
    assert {"d*e*f", "d*g^2", "d^2*e^2"} in block_gens

    assert detect_stem(parse_ideal("a^2*b, b^2*c, c^2*a")) is None
    structure = detect_stem(parse_ideal("x^2, y^3"))
    assert structure is not None
    assert {str(s) for s in structure.stems} == {"x^2", "y^3"}


def test_detect_stem_needs_dominance():
    assert detect_stem(parse_ideal("a^2, b^3, a*b")) is None


def test_detected_structure_satisfies_block_laws():
    rng = random.Random(5150)
    from multmon import gcd

    for _ in range(80):
        ideal = random_stem_ideal(rng)
        structure = detect_stem(ideal)
        assert structure is not None
        seen = sorted(i for block in structure.blocks for i in block)
        assert seen == list(range(ideal.q))
        for block, stem in zip(structure.blocks, structure.stems):
            assert gcd_all(ideal.gens[i] for i in block) == stem
            assert not stem.is_unit
        for a, block_a in enumerate(structure.blocks):
            for b, block_b in enumerate(structure.blocks):
                if a >= b:
                    continue
                for i in block_a:
                    for j in block_b:
                        assert gcd(ideal.gens[i], ideal.gens[j]).is_unit
        sizes = [len(b) for b in structure.blocks]
        assert sizes == sorted(sizes, reverse=True)


def test_e_stem_examples():
    assert e_stem(parse_ideal("a^2*b*c, b^3*c, c^4, d^2*e^2, d*e*f, d*g^2")) == 1
    assert e_stem(parse_ideal("x^2, y^3")) == 6
    assert e_stem(parse_ideal("x^2*y, x*y^2, z^3*w, z*w")) == 4
    with pytest.raises(HypothesisError):
        e_stem(parse_ideal("a^2*b, b^2*c, c^2*a"))


def test_e_stem_matches_engine():
    rng = random.Random(71)
    for _ in range(80):
        ideal = random_stem_ideal(rng)
        assert e_stem(ideal) == multiplicity_ps(ideal), str(ideal)


# ---------------------------------------------------------------------------
# quadratic dominant ideals


def test_quadratic_data_examples():
    ideal = parse_ideal("a*b, c*d, e*f")
    data = quadratic_dominant_data(ideal)
    assert len(data.isolated) == 3 and data.k == 0

    ideal = parse_ideal("a*b, a*c, d*e")
    data = quadratic_dominant_data(ideal)
    assert [str(ideal.gens[i]) for i in data.isolated] == ["d*e"]
    assert [ideal.ring.names[v] for v in data.shared_vars] == ["a"]
    assert data.k == 1

    with pytest.raises(HypothesisError):
        quadratic_dominant_data(parse_ideal("a*b, a*c, b*d"))  # not dominant
    with pytest.raises(HypothesisError):
        quadratic_dominant_data(parse_ideal("a^3, b^2"))  # not quadratic


def test_quadratic_formulas_examples():
    assert e_quadratic_dominant(parse_ideal("a*b, c*d, e*f")) == 8
    assert reg_quadratic_dominant(parse_ideal("a*b, c*d, e*f")) == 3
    assert e_quadratic_dominant(parse_ideal("a*b, a*c, d*e")) == 2
    assert reg_quadratic_dominant(parse_ideal("a*b, a*c, d*e")) == 2
    assert e_quadratic_dominant(parse_ideal("a*b, a*c")) == 1
    assert reg_quadratic_dominant(parse_ideal("a*b, a*c")) == 1


def test_quadratic_formulas_match_engine_and_taylor():
    rng = random.Random(81)
    for _ in range(80):
        ideal = random_quadratic_dominant(rng)
        assert e_quadratic_dominant(ideal) == multiplicity_ps(ideal), str(ideal)
        reg = reg_quadratic_dominant(ideal)
        assert reg == regularity_dominant(ideal) == codim(ideal), str(ideal)
        data = quadratic_dominant_data(ideal)
        assert e_quadratic_dominant(ideal) == 2 ** (reg - data.k)


# ---------------------------------------------------------------------------
# structural formula and CI splits


def test_find_ci_split_examples():
    ideal = parse_ideal("a^3*c, a*b*e^3, a^2*b^2, c^2, d^2*e^2")
    split = find_ci_split(ideal)
    expected = set(parse_ideal("a^2*b^2, c^2, d^2*e^2").gens)
    assert {ideal.gens[i] for i in split.ci} == expected

    ideal = parse_ideal("x^2*y, x*y^2")
    split = find_ci_split(ideal)
    assert [str(ideal.gens[i]) for i in split.ci] == ["x^2*y"]
    assert [str(ideal.gens[i]) for i in split.free] == ["x*y^2"]

    assert find_ci_split(parse_ideal("a^2*b, b^2*c, c^2*a")) is None


def test_find_ci_split_exhausts_its_search():
    # a 5-cycle holds at most 2 pairwise-coprime generators, and a*b*c 1 more, against codim 4;
    # the 4 smallest supports fill the 8 variables, so the bound admits it and the search runs out
    ideal = parse_ideal("x0^2*x1, x1^2*x2, x2^2*x3, x3^2*x4, x4^2*x0, a*b*c")
    assert is_dominant(ideal) and codim(ideal) == 4 and len(ideal.used_variables()) == 8
    assert find_ci_split(ideal) is None
    with pytest.raises(HypothesisError, match="^no pairwise-coprime subset of size codim exists$"):
        e_structural(ideal)
    assert next(cli._answers(ideal, cli.AUTO_METHODS)) == ("ps", 30)  # `auto` goes past structural
    assert multiplicity_associativity(ideal) == 30


def _pairwise_coprime(supports):
    """No two of the support bitmasks share a variable, pair by pair."""
    return all(not s & t for s, t in combinations(supports, 2))


def _first_split_by_scan(ideal):
    """The reference: every size-codim subset, in lexicographic order."""
    for combo in combinations(range(ideal.q), codim(ideal)):
        if _pairwise_coprime([ideal.supports[i] for i in combo]):
            return CISplit(tuple(i for i in range(ideal.q) if i not in combo), combo)
    return None


SPLIT_TABLE = make_table(7)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.dictionaries(st.integers(0, 6), st.integers(1, 3), min_size=1, max_size=3),
        min_size=1,
        max_size=10,
    )
)
def test_find_ci_split_is_the_first_split_of_the_scan(maps):
    ideal = minimalize(SPLIT_TABLE, [Monomial.from_map(SPLIT_TABLE, m) for m in maps])
    assert find_ci_split(ideal) == _first_split_by_scan(ideal), str(ideal)


def test_e_structural_example():
    ideal = parse_ideal("a^3*c, a*b*e^3, a^2*b^2, c^2, d^2*e^2")
    assert e_structural(ideal) == 18


def test_e_structural_pure_ci_split():
    ideal = parse_ideal("x^3, y^4")
    assert find_ci_split(ideal).free == ()
    assert e_structural(ideal) == 12


def test_e_structural_rejects_non_dominant():
    # the formula's value would be right here, but the hypothesis gate is firm
    ideal = parse_ideal("x^2*y, x^3, y^3")
    assert not is_dominant(ideal)
    assert find_ci_split(ideal) is not None
    with pytest.raises(HypothesisError):
        e_structural(ideal)
    # the quantity itself is engine-checkable
    assert multiplicity_ps(ideal) == 7


def test_e_structural_finds_its_own_split():
    rng = random.Random(37)
    for _ in range(60):
        ideal = random_dominant_with_split(rng)
        assert e_structural(ideal) == multiplicity_ps(ideal), str(ideal)
    # dominance is checked before the split search, so a non-dominant ideal
    # with a split (x^3, y^3) reports dominance
    with pytest.raises(HypothesisError, match="^the structural formula requires a dominant ideal$"):
        e_structural(parse_ideal("x^2*y, x^3, y^3"))
    with pytest.raises(HypothesisError, match="^no pairwise-coprime subset of size codim exists$"):
        e_structural(parse_ideal("a^2*b, b^2*c, c^2*a"))


def test_structural_sum_streams_its_subset_lcms():
    # 16 free generators: their 2^16 lcm tuples are read one at a time, never listed
    # (listed, they peaked at 21.1 MiB; streamed, at 2.4 MiB)
    ideal = parse_ideal(", ".join(f"x{i}^2*x{(i + 1) % 32}" for i in range(32)))
    tracemalloc.start()
    try:
        assert e_structural(ideal) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# almost complete intersections


def test_e_aci_examples():
    assert e_aci(parse_ideal("x^2, y^3, x*y")) == 4
    assert e_aci(parse_ideal("a^2, b^2, a*b")) == 3
    with pytest.raises(HypothesisError):
        e_aci(parse_ideal("x^2, y^3"))


def test_aci_formula_tolerates_zero_factor():
    # raw formula over a non-minimal triple: the redundant extra generator
    # makes one deflated factor zero, and the value matches the minimalized
    # ideal's multiplicity
    ci = parse_ideal("x^2, y^3", var_names=("x", "y")).gens
    extra = parse_ideal("x*y^4", var_names=("x", "y")).gens[0]
    assert aci_product_difference(list(ci), extra) == 6
    assert multiplicity_ps(parse_ideal("x^2, y^3")) == 6


def test_aci_dominant_witness_on_nondominant_examples():
    # analogous shape to a classical non-dominant triple: x*y is beaten in
    # both variables, so the ideal is non-dominant and a witness must exist
    ideal = parse_ideal("x^2, y^3, x*y")
    assert not is_dominant(ideal)
    w = aci_dominant_witness(ideal)
    reduced = ideal.without(w)
    assert is_dominant(reduced)
    assert codim(reduced) == ideal.q - 2

    ideal = parse_ideal("x^2*y^2, z^2, x*y*z")
    assert not is_dominant(ideal)
    w = aci_dominant_witness(ideal)
    assert str(ideal.gens[w]) == "z^2"  # smallest valid index in canonical order
    reduced = ideal.without(w)
    assert is_dominant(reduced)


def test_aci_dominant_witness_rejects_dominant_input():
    ideal = parse_ideal("x^2, y^2, x*y*z")
    assert is_dominant(ideal)
    with pytest.raises(HypothesisError):
        aci_dominant_witness(ideal)


def test_aci_dominant_witness_rejects_non_aci():
    # codim 2 with four generators: no single removal leaves a CI of size 3
    with pytest.raises(HypothesisError):
        aci_dominant_witness(parse_ideal("a^2*b, a*b^2, c^2*d, c*d^2"))
