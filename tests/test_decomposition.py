"""Pivot decomposition, the multiplicity recurrence, and structural Betti assembly."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multmon import (
    HypothesisError,
    Monomial,
    betti_decomposition,
    betti_table,
    codim,
    dominance_witnesses,
    find_ci_split,
    gcd_all,
    lcm_all,
    minimalize,
    multiplicity_ps,
    multiplicity_recurrence,
    parse_ideal,
    quotient,
    structural_terms,
    third_decomposition,
)
from multmon import taylor
from multmon.core import bits
from multmon.decomposition import recurrence_parts
from multmon.generate import random_ideal

from conftest import gen_index
from generators import random_dominant_with_split


def test_third_decomposition_examples():
    ideal = parse_ideal("a^2*b, a*b^3*c, b*c^2")
    parts = third_decomposition(ideal, gen_index(ideal, "a^2*b"))
    assert parts.m1 == parse_ideal("a*b^3*c, b*c^2")
    assert parts.mm1 == parse_ideal("b^2*c, c^2")

    ideal = parse_ideal("x^2, y^3")
    parts = third_decomposition(ideal, gen_index(ideal, "x^2"))
    assert parts.m1 == parse_ideal("y^3") == parts.mm1

    ideal = parse_ideal("x^3, x^2*y")
    parts = third_decomposition(ideal, gen_index(ideal, "x^3"))
    assert parts.mm1 == parse_ideal("y", var_names=("x", "y"))


def test_third_decomposition_quotients_are_nonunit():
    rng = random.Random(17)
    for _ in range(60):
        ideal = random_ideal(rng, max_gens=6)
        if ideal.q < 2:
            continue
        for pivot, w in enumerate(dominance_witnesses(ideal)):
            if w is None:
                continue
            parts = third_decomposition(ideal, pivot)
            assert all(not g.is_unit for g in parts.mm1.gens)
            break


def test_third_decomposition_rejects_non_dominant_pivot():
    ideal = parse_ideal("a^2, b^3, a*b")
    with pytest.raises(HypothesisError):
        third_decomposition(ideal, gen_index(ideal, "a*b"))
    with pytest.raises(HypothesisError, match="^the decomposition needs at least two generators$"):
        third_decomposition(parse_ideal("x^2"), 0)
    for pivot in (5, -1):
        with pytest.raises(ValueError, match=f"^pivot index {pivot} out of range$"):
            third_decomposition(ideal, pivot)


def test_recurrence_examples():
    ideal = parse_ideal("a^2*b*c, b^3*c, c^4, d^2*e^2, d*e*f, d*g^2")
    assert multiplicity_recurrence(ideal) == multiplicity_ps(ideal) == 1

    # both pivots of a complete intersection lower the codimension when removed
    with pytest.raises(HypothesisError, match="^no dominant pivot preserves the codimension$"):
        multiplicity_recurrence(parse_ideal("x^2, y^3"))

    # removing z lowers the codimension, so the search passes it over for x^2*y
    ideal = parse_ideal("x^2*y, x*y^2, z")
    parts = recurrence_parts(ideal)
    assert parts.pivot == gen_index(ideal, "x^2*y") and parts.m1 == parse_ideal("x*y^2, z")
    assert multiplicity_recurrence(ideal) == multiplicity_ps(ideal) == 2


def test_recurrence_finds_its_own_pivot():
    rng = random.Random(31)
    answered = 0
    for _ in range(200):
        ideal = random_ideal(rng, max_gens=6)
        if recurrence_parts(ideal) is None:
            with pytest.raises(HypothesisError):
                multiplicity_recurrence(ideal)
        else:
            assert multiplicity_recurrence(ideal) == multiplicity_ps(ideal), str(ideal)
            answered += 1
    assert answered >= 40


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False).map(random_ideal))
def test_pivot_search_and_quotients_match_their_definitions(ideal):
    # the search runs first, on support lists alone; the reference then builds every M1
    parts = recurrence_parts(ideal)
    pivot = None if parts is None else parts.pivot
    if parts is not None:
        assert parts == third_decomposition(ideal, parts.pivot), str(ideal)
        assert multiplicity_recurrence(ideal) == multiplicity_ps(ideal), str(ideal)
    c = codim(ideal)
    dominant = [i for i, w in enumerate(dominance_witnesses(ideal)) if w is not None]
    if ideal.q < 2:
        dominant = []
    keeping = [i for i in dominant if codim(ideal.without(i)) == c]
    assert pivot == next(iter(keeping), None), str(ideal)
    for i in dominant:
        m, rest = ideal.gens[i], ideal.without(i).gens
        expected = minimalize(ideal.ring, [quotient(lcm_all(ideal.ring, (m, g)), m) for g in rest])
        assert third_decomposition(ideal, i).mm1 == expected, str(ideal)


def test_recurrence_pivot_in_codim_one():
    # at c = 1 every dominant candidate keeps the codim: the bounded query asks for a cover of 0 variables
    ideal = parse_ideal("x*y, x*z")
    parts = recurrence_parts(ideal)
    assert codim(ideal) == 1 and parts.pivot == 0
    assert str(parts.m1) == str(ideal.gens[1]) and codim(parts.m1) == 1
    assert multiplicity_recurrence(ideal) == multiplicity_ps(ideal) == 1


def test_recurrence_matches_engine_when_applicable():
    # whenever some dominant pivot keeps the codimension, the recurrence answers
    rng = random.Random(29)
    checked = 0
    for _ in range(200):
        ideal = random_ideal(rng, max_gens=6)
        if ideal.q < 2:
            continue
        c = codim(ideal)
        if any(
            w is not None and codim(ideal.without(pivot)) == c
            for pivot, w in enumerate(dominance_witnesses(ideal))
        ):
            assert multiplicity_recurrence(ideal) == multiplicity_ps(ideal), str(ideal)
            checked += 1
    assert checked >= 40


def test_structural_terms_example():
    ideal = parse_ideal("a^3*c, a*b*e^3, a^2*b^2, c^2, d^2*e^2")
    terms = structural_terms(ideal)
    shapes = [(t.j, str(t.mbar)) for t in terms]
    assert shapes == [
        (0, "1"),
        (1, "a^3*c"),
        (1, "a*b*e^3"),
        (2, "a^3*c*b*e^3"),
    ]
    assert terms[1].ideal == parse_ideal("b^2, c, d^2*e^2")
    signed = [
        (-1) ** t.j * _product(q.degree for q in t.quotients) for t in terms
    ]
    assert signed == [32, -8, -8, 2]
    assert sum(signed) == 18


def _product(values):
    out = 1
    for v in values:
        out *= v
    return out


def test_structural_terms_pure_ci():
    ideal = parse_ideal("x^2, y^3")
    terms = structural_terms(ideal)
    assert len(terms) == 1
    assert terms[0].j == 0 and terms[0].mbar.is_unit
    assert terms[0].ideal == ideal


def test_structural_terms_come_by_size_then_mask():
    # a dominant ideal's subset lcms are distinct, so the mbars name the free-part masks
    rng = random.Random(61)
    most = 0
    for _ in range(40):
        ideal = random_dominant_with_split(rng, max_free=8)
        free = [ideal.gens[i] for i in find_ci_split(ideal).free]
        most = max(most, len(free))
        masks = sorted(range(1 << len(free)), key=lambda mask: (mask.bit_count(), mask))
        expected = [(m.bit_count(), lcm_all(ideal.ring, (free[i] for i in bits(m)))) for m in masks]
        assert [(t.j, t.mbar) for t in structural_terms(ideal)] == expected, str(ideal)
    assert most == 8


def test_structural_routes_leave_the_face_table_alone(monkeypatch):
    # the terms order their own subsets: only `betti` and `taylor` grow `taylor._FACES`
    monkeypatch.setattr(taylor, "_FACES", {False: [], True: []})
    rng = random.Random(67)
    ideals = [parse_ideal("a^3*c, a*b*e^3, a^2*b^2, c^2, d^2*e^2")]
    ideals += [random_dominant_with_split(rng, max_free=6) for _ in range(10)]
    for ideal in ideals:
        structural_terms(ideal)
        betti_decomposition(ideal)
    assert taylor._FACES == {False: [], True: []}


def test_term_quotients_divide_and_are_coprime():
    rng = random.Random(47)
    for _ in range(60):
        ideal = random_dominant_with_split(rng)
        split = find_ci_split(ideal)
        h = [ideal.gens[i] for i in split.ci]
        for term in structural_terms(ideal):
            for hi, qi in zip(h, term.quotients):
                assert qi.divides(hi)
            for a in range(len(term.quotients)):
                for b in range(a + 1, len(term.quotients)):
                    assert gcd_all((term.quotients[a], term.quotients[b])).is_unit


def test_alternating_term_sum_equals_engine():
    rng = random.Random(53)
    for _ in range(80):
        ideal = random_dominant_with_split(rng)
        total = sum((-1) ** t.j * multiplicity_ps(t.ideal) for t in structural_terms(ideal))
        assert total == multiplicity_ps(ideal), str(ideal)


def test_betti_decomposition_examples():
    ideal = parse_ideal("x^2, y^3")
    assert betti_decomposition(ideal) == betti_table(ideal)

    ideal = parse_ideal("a^3*c, a*b*e^3, a^2*b^2, c^2, d^2*e^2")
    assembled = betti_decomposition(ideal)
    assert sum(c for (i, _), c in assembled.items() if i == 0) == 1
    first_layer = {str(Monomial(ideal.ring, m)) for (i, m) in assembled if i == 1}
    assert first_layer == {str(g) for g in ideal.gens}
    assert sum(c for (i, _), c in assembled.items() if i == 1) == 5
    assert assembled == betti_table(ideal)


def test_betti_decomposition_matches_taylor_on_random_ideals():
    rng = random.Random(59)
    for _ in range(60):
        ideal = random_dominant_with_split(rng)
        assert betti_decomposition(ideal) == betti_table(ideal)


def test_structural_routes_check_their_own_hypotheses():
    # each finds its split as `e_structural` does, and refuses with its messages
    cases = {
        "x^2*y, x^3, y^3": "the structural formula requires a dominant ideal",  # split x^3, y^3
        "a^2*b, b^2*c, c^2*a": "no pairwise-coprime subset of size codim exists",
    }
    for text, message in cases.items():
        for route in (structural_terms, betti_decomposition):
            with pytest.raises(HypothesisError, match=f"^{message}$"):
                route(parse_ideal(text))
