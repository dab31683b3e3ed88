"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (visible with `pytest -s`);
the pytest verdict per test is the authoritative pass/fail signal.  Counts,
bounds, and runtime budgets are pinned here, not calibrated later.
"""

from __future__ import annotations

import random
import time

import pytest

from multmon import (
    betti_decomposition,
    betti_table,
    codim,
    detect_stem,
    differential_coefficient,
    dominance_witnesses,
    e_aci,
    e_codim1,
    e_complete_intersection,
    e_quadratic_dominant,
    e_stem,
    e_structural,
    find_ci_split,
    gcd_all,
    is_almost_complete_intersection,
    is_dominant,
    is_taylor_minimal,
    lcm,
    lcm_all,
    multiplicity_associativity,
    multiplicity_ps,
    parse_ideal,
    polar_set,
    ps_power_sum,
    quadratic_dominant_data,
    quotient,
    reg_quadratic_dominant,
    regularity_dominant,
    taylor_resolution,
)
from multmon.core import Monomial
from multmon.generate import make_table, random_ideal
from multmon.taylor import member_indices

from generators import (
    random_aci,
    random_codim1_ideal,
    random_complete_intersection,
    random_dominant_with_split,
    random_quadratic_dominant,
    random_stem_ideal,
)

EXAMPLE_5_5 = "a^3*c, a*b*e^3, a^2*b^2, c^2, d^2*e^2"
EXAMPLE_4_3 = "a^2*b*c, b^3*c, c^4, d^2*e^2, d*e*f, d*g^2"
SEED = 20260810


def _report(number: int, description: str) -> None:
    print(f"[acceptance] criterion {number:02d} ({description}): PASS")


def _best_of_three(ideal, fn) -> float:
    """Fastest of three runs, each starting with no fact cached on `ideal`."""
    best = float("inf")
    for _ in range(3):
        ideal._facts.clear()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def thousand_random_ideals():
    rng = random.Random(SEED)
    return [random_ideal(rng, max_gens=10, max_vars=6, max_exp=4) for _ in range(1000)]


def test_c01_example_5_5_golden():
    ideal = parse_ideal(EXAMPLE_5_5)
    split = find_ci_split(ideal)

    from multmon import structural_terms

    terms = structural_terms(ideal, split)
    signed = []
    for term in terms:
        product = 1
        for q in term.quotients:
            product *= q.degree
        signed.append((-1) ** term.j * product)
    assert signed == [32, -8, -8, 2]
    assert e_structural(ideal, split) == 18
    assert multiplicity_ps(ideal) == 18
    assert multiplicity_associativity(ideal) == 18

    budgets = {
        "structural": _best_of_three(ideal, lambda: e_structural(ideal, split)),
        "ps": _best_of_three(ideal, lambda: multiplicity_ps(ideal)),
        "oracle": _best_of_three(ideal, lambda: multiplicity_associativity(ideal)),
    }
    for method, elapsed in budgets.items():
        assert elapsed < 0.010, f"{method} took {elapsed * 1000:.2f} ms"
    _report(1, "example multiplicity 18 = 32-8-8+2 by structural, engine, oracle, <10ms")


def test_c02_example_4_3_golden():
    ideal = parse_ideal(EXAMPLE_4_3)
    structure = detect_stem(ideal)
    assert structure is not None
    assert {str(s) for s in structure.stems} == {"c", "d"}
    assert e_stem(ideal) == 1
    assert multiplicity_ps(ideal) == 1
    assert multiplicity_associativity(ideal) == 1
    _report(2, "stem ideal with stems {c, d} and multiplicity 1 by all methods")


def test_c03_example_2_2_golden():
    m1 = parse_ideal("a^2, b^3, a*b")
    assert is_dominant(m1) is False
    assert is_taylor_minimal(m1) is False

    m2 = parse_ideal("a^2*b, a*b^3*c, b*c^2")
    assert is_dominant(m2) is True
    assert {m2.ring.names[w] for w in dominance_witnesses(m2)} == {"a", "b", "c"}
    assert is_taylor_minimal(m2) is True
    _report(3, "dominance classification and Taylor minimality on both examples")


def test_c04_power_sum_vanishing(thousand_random_ideals):
    start = time.perf_counter()
    for ideal in thousand_random_ideals:
        for k in range(1, codim(ideal)):
            assert ps_power_sum(ideal, k) == 0, str(ideal)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"vanishing sweep took {elapsed:.1f} s"
    _report(4, f"power sums vanish below codim on 1000 ideals in {elapsed:.1f} s")


def test_c05_engine_equals_oracle(thousand_random_ideals):
    for ideal in thousand_random_ideals:
        assert multiplicity_ps(ideal) == multiplicity_associativity(ideal), str(ideal)
    _report(5, "engine equals oracle exactly on the same 1000 ideals")


def test_c06_codim1_and_ci_formulas():
    rng = random.Random(SEED + 6)
    for _ in range(500):
        ideal = random_codim1_ideal(rng)
        assert codim(ideal) == 1
        assert e_codim1(ideal) == multiplicity_ps(ideal), str(ideal)
    for _ in range(500):
        ideal = random_complete_intersection(rng)
        assert e_complete_intersection(ideal) == multiplicity_ps(ideal), str(ideal)
    _report(6, "gcd-degree and degree-product formulas on 500+500 ideals")


def test_c07_stem_formula():
    rng = random.Random(SEED + 7)
    for _ in range(300):
        ideal = random_stem_ideal(rng, max_blocks=4, max_block_size=4)
        assert e_stem(ideal) == multiplicity_ps(ideal), str(ideal)
    _report(7, "stem-degree product equals engine on 300 generated stem ideals")


def test_c08_quadratic_dominant_formulas():
    rng = random.Random(SEED + 8)
    for _ in range(300):
        ideal = random_quadratic_dominant(rng)
        data = quadratic_dominant_data(ideal)
        e = e_quadratic_dominant(ideal)
        reg = reg_quadratic_dominant(ideal)
        assert e == 2 ** len(data.isolated) == multiplicity_ps(ideal), str(ideal)
        assert reg == len(data.isolated) + data.k, str(ideal)
        assert reg == codim(ideal) == regularity_dominant(ideal), str(ideal)
        assert e == 2 ** (reg - data.k)
    _report(8, "quadratic dominant multiplicity/regularity laws on 300 ideals")


def test_c09_structural_formula_and_betti_identity():
    rng = random.Random(SEED + 9)
    for _ in range(300):
        ideal = random_dominant_with_split(rng)
        split = find_ci_split(ideal)
        assert split is not None, str(ideal)
        assert e_structural(ideal, split) == multiplicity_ps(ideal), str(ideal)
        assert betti_decomposition(ideal, split).entries == betti_table(ideal).entries, str(ideal)
    _report(9, "structural sum and multigraded Betti assembly on 300 ideals")


def test_c10_aci_formula_and_witness():
    rng = random.Random(SEED + 10)
    nondominant = 0
    for index in range(300):
        want_dominant = index % 2 == 0
        ideal = random_aci(rng, dominant=want_dominant)
        assert is_almost_complete_intersection(ideal) is not None, str(ideal)
        assert e_aci(ideal) == multiplicity_ps(ideal), str(ideal)
        if not is_dominant(ideal):
            nondominant += 1
            from multmon import aci_dominant_witness

            w = aci_dominant_witness(ideal)
            reduced = ideal.without(w)
            assert is_dominant(reduced), str(ideal)
            assert codim(reduced) == ideal.q - 2, str(ideal)
    assert nondominant >= 50
    _report(10, f"ACI difference formula on 300 ideals ({nondominant} non-dominant)")


def test_c11_differential_squares_to_zero():
    rng = random.Random(SEED + 11)
    for _ in range(100):
        ideal = random_ideal(rng, max_gens=6, max_vars=5)
        resolution = taylor_resolution(ideal)
        for face in range(len(resolution.mdegs)):
            if face.bit_count() < 2:
                continue
            reaching: dict[int, list[tuple[int, Monomial]]] = {}
            members = member_indices(face)
            for j in range(1, len(members) + 1):
                s1, c1 = differential_coefficient(resolution, face, j)
                sub = face ^ (1 << members[j - 1])
                sub_members = member_indices(sub)
                for k in range(1, len(sub_members) + 1):
                    s2, c2 = differential_coefficient(resolution, sub, k)
                    target = sub ^ (1 << sub_members[k - 1])
                    reaching.setdefault(target, []).append((s1 * s2, c1 * c2))
            for terms in reaching.values():
                assert len(terms) == 2
                (sa, ma), (sb, mb) = terms
                assert ma == mb and sa == -sb, str(ideal)
    _report(11, "composed differential vanishes symbolically on 100 ideals")


def test_c12_label_set_identities():
    rng = random.Random(SEED + 12)
    for _ in range(500):
        n = rng.randint(1, 6)
        table = make_table(n)
        r = rng.randint(1, 5)
        monomials = []
        for _ in range(r):
            support = rng.sample(range(n), rng.randint(0, n))
            monomials.append(
                Monomial.from_map(table, {v: rng.randint(1, 4) for v in support})
            )
        sets = [polar_set(m) for m in monomials]
        union = frozenset().union(*sets)
        intersection = sets[0]
        for s in sets[1:]:
            intersection &= s
        assert lcm_all(table, monomials).degree == len(union)
        assert gcd_all(monomials).degree == len(intersection)
        if r >= 2:
            rest = lcm_all(table, monomials[1:])
            lhs = quotient(lcm(monomials[0], rest), rest).degree
            rhs = len(sets[0] - frozenset().union(*sets[1:]))
            assert lhs == rhs
    _report(12, "lcm/gcd/quotient degree identities on 500 random tuples")
