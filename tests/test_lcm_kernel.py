"""The packed subset-lcm kernel against a per-face lcm fold, at every field width."""

from __future__ import annotations

import random
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_reference import BOUNDARY, EXPONENTS, check, field_width

from multmon import (
    Monomial,
    ResourceCapError,
    is_dominant,
    minimalize,
    multiplicity_ps,
    parse_ideal,
)
from multmon.generate import make_table, random_ideal


@st.composite
def ideals(draw):
    table = make_table(draw(st.integers(1, 4)))
    exponent = st.one_of(st.integers(0, 6), st.sampled_from(EXPONENTS))
    vectors = st.tuples(*[exponent] * len(table)).filter(any)
    raw = draw(st.lists(vectors, min_size=1, max_size=7))
    return minimalize(table, [Monomial(table, vec) for vec in raw])


@settings(max_examples=300, deadline=None)
@given(ideals())
def test_packed_columns_match_a_folded_lcm(ideal):
    check(ideal)


@pytest.mark.parametrize("text, width", BOUNDARY)
def test_every_field_width_matches_a_folded_lcm(text, width):
    ideal = parse_ideal(text)
    assert field_width(ideal) == width
    check(ideal)


def test_seeded_random_ideals_match_a_folded_lcm():
    rng = random.Random(8)
    ideals = [random_ideal(rng, max_gens=7, max_vars=5) for _ in range(1000)]
    assert {is_dominant(ideal)[0] for ideal in ideals} == {False, True}
    for ideal in ideals:
        check(ideal)


def cycle(q: int) -> str:
    return ", ".join(f"x{i}^2*x{(i + 1) % q}" for i in range(q))


def test_power_sum_on_cycle_20_takes_under_a_second():
    # 2^20 faces; the per-face loops took about 1.5 s
    ideal = parse_ideal(cycle(20))
    start = perf_counter()
    assert multiplicity_ps(ideal) == 2
    assert perf_counter() - start < 1.0
    with pytest.raises(ResourceCapError, match="q <= 20"):
        multiplicity_ps(parse_ideal(cycle(21)))
