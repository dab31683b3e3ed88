"""The packed subset-lcm kernel against a per-face lcm fold, at every field width."""

from __future__ import annotations

import math
import random
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from kernel_reference import (
    BOUNDARY,
    EXPONENTS,
    PLANE_BOUNDARY,
    REFERENCE,
    check,
    field_width,
    shortfalls,
    witnesses_by_pairs,
)

from multmon import (
    MAX_EXPONENT,
    Monomial,
    ResourceCapError,
    VariableTable,
    codim,
    dominance_witnesses,
    is_dominant,
    lcm_degree_table,
    minimalize,
    multiplicity_associativity,
    multiplicity_ps,
    parse_ideal,
    ps_power_sum,
    taylor_numerator,
    taylor_resolution,
)
from multmon import taylor
from multmon.core import subset_lcms
from multmon.generate import make_table, random_ideal


def from_maps(maps, names):
    """The ideal of one name -> exponent map per generator, over the table `names`."""
    table = VariableTable(tuple(names))
    raw = [Monomial.from_map(table, {table.index(v): e for v, e in m.items()}) for m in maps]
    return minimalize(table, raw)


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


# Per field width, the strategies for the generators' large private exponents:
# none, one in [2^8, 60000], one in [2^16, 2^31], or three near 2^31.
LARGE = {
    8: (),
    16: (st.integers(256, 60000),),
    32: (st.integers(1 << 16, MAX_EXPONENT),),
    64: (st.integers(MAX_EXPONENT - (1 << 16), MAX_EXPONENT),) * 3,
}


@st.composite
def grouped_ideals(draw):
    # A private variable per generator keeps every generator; up to six shared
    # variables of up to six values each close label groups on both bounds (a key
    # past the field, a table past 256 texts); unused variables sit anywhere.
    width = draw(st.sampled_from(sorted(LARGE)))
    large, small = LARGE[width], st.sampled_from((1, 2, 3, 9, 10))
    q = draw(st.integers(max(1, len(large)), 6))
    shared = [f"s{k}" for k in range(draw(st.integers(0, 6)))]
    maps = []
    for i in range(q):
        powers = {f"p{i}": draw(large[i] if i < len(large) else small)}
        for name in draw(st.lists(st.sampled_from(shared), unique=True)) if shared else ():
            powers[name] = draw(small)
        maps.append(powers)
    unused = [f"u{k}" for k in range(draw(st.integers(1, 2)))]
    names = draw(st.permutations([f"p{i}" for i in range(q)] + shared + unused))
    return width, from_maps(maps, names)


@settings(max_examples=200, deadline=None)
@given(grouped_ideals())
# 12 binary variables close a group after 8; in 8-bit fields x^100, y^2 and z^100 take
# a group each
@example((8, parse_ideal("a*b*c*d*e*f, g*h*i*j*k*l", var_names=[*"abcdefuvghijkl"])))
@example((8, parse_ideal("x^100*y, y^2*z^100", var_names=["u", "x", "y", "z"])))
def test_labels_and_degrees_match_the_lcms_at_every_width(case):
    width, ideal = case
    assert field_width(ideal) == width and len(ideal.used_variables()) < len(ideal.ring)
    resolution = taylor_resolution(ideal)
    mdegs = subset_lcms(ideal.ring, ideal.gens)
    assert resolution.labels == [str(Monomial(ideal.ring, vec)) for vec in mdegs], str(ideal)
    assert resolution.degrees == [sum(vec) for vec in mdegs], str(ideal)


@st.composite
def reorderings(draw):
    # one ideal from generator maps as drawn, shuffled, and over a permuted variable order
    names = make_table(draw(st.integers(1, 5))).names
    exponent = st.one_of(st.integers(0, 6), st.sampled_from(EXPONENTS))
    vectors = st.tuples(*[exponent] * len(names)).filter(any)
    raw = draw(st.lists(vectors, min_size=1, max_size=10))
    maps = [{name: e for name, e in zip(names, vec) if e} for vec in raw]
    shuffled = from_maps(draw(st.permutations(maps)), names)
    renamed = from_maps(maps, draw(st.permutations(names)))
    return from_maps(maps, names), shuffled, renamed


@settings(max_examples=200, deadline=None)
@given(reorderings())
def test_numerator_and_degree_table_ignore_generator_and_variable_order(ideals):
    # `core.lcm_levels` sorts each variable's generators by (exponent, shift)
    ideal, *others = ideals
    for other in others:
        assert taylor_numerator(other) == taylor_numerator(ideal), str(other)
        assert multiplicity_ps(other) == multiplicity_ps(ideal), str(other)
        (top, planes), (other_top, other_planes) = lcm_degree_table(ideal), lcm_degree_table(other)
        assert other_top == top, str(other)
        faces = sorted(shortfalls(planes, ideal.q))
        assert sorted(shortfalls(other_planes, other.q)) == faces, str(other)


@settings(max_examples=300, deadline=None)
@given(st.one_of(ideals(), st.randoms(use_true_random=False).map(random_ideal)))
def test_dominance_witnesses_match_the_pairwise_definition(ideal):
    assert dominance_witnesses(ideal) == witnesses_by_pairs(ideal), str(ideal)


@st.composite
def small_ideals(draw):
    # exponents small enough for the cover oracle's colength grids
    table = make_table(draw(st.integers(1, 4)))
    vectors = st.tuples(*[st.integers(0, 4)] * len(table)).filter(any)
    raw = draw(st.lists(vectors, min_size=1, max_size=6))
    return minimalize(table, [Monomial(table, vec) for vec in raw])


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_ideals(), st.randoms(use_true_random=False).map(random_ideal)))
def test_numerator_vanishes_to_order_codim_and_gives_the_oracle_multiplicity(ideal):
    # K(t) = sum_j (t - 1)^j * sum_d K_d C(d, j), and its lowest term is e (1 - t)^c
    numerator, c = taylor_numerator(ideal), codim(ideal)
    for j in range(c):
        assert sum(n * math.comb(d, j) for d, n in numerator) == 0, (str(ideal), j)
    e = (-1) ** c * sum(n * math.comb(d, c) for d, n in numerator)
    assert e == multiplicity_associativity(ideal), str(ideal)


@pytest.mark.parametrize("text, width", BOUNDARY)
def test_every_field_width_matches_a_folded_lcm(text, width):
    ideal = parse_ideal(text)
    assert field_width(ideal) == width
    check(ideal)


@pytest.mark.parametrize("text, count", PLANE_BOUNDARY)
def test_every_plane_count_matches_a_folded_lcm(text, count):
    ideal = parse_ideal(text)
    assert len(lcm_degree_table(ideal)[1]) == count
    check(ideal)


@pytest.mark.parametrize("text, names", REFERENCE)
def test_every_deficit_branch_matches_a_folded_lcm(text, names):
    check(parse_ideal(text, var_names=names))


def test_reference_ideals_take_every_deficit_branch():
    stepped, unused = (parse_ideal(text, var_names=names) for text, names in REFERENCE)
    x = stepped.ring.index("x")
    levels = sorted({g.vec[x] for g in stepped.gens})
    assert len(levels) >= 3 and {b - a for a, b in zip(levels, levels[1:])} >= {1, 2}
    assert len(unused.used_variables()) < len(unused.ring)


def test_seeded_random_ideals_match_a_folded_lcm():
    rng = random.Random(8)
    ideals = [random_ideal(rng, max_gens=7, max_vars=5) for _ in range(1000)]
    assert {is_dominant(ideal) for ideal in ideals} == {False, True}
    for ideal in ideals:
        check(ideal)


def cycle(q: int) -> str:
    return ", ".join(f"x{i}^2*x{(i + 1) % q}" for i in range(q))


@pytest.mark.parametrize(
    "text", [cycle(12), ", ".join(f"x{i}*x{i + 1}" for i in range(13)), cycle(14)]
)
def test_long_tables_match_a_folded_lcm(text):
    # 2^12, 2^13 and 2^14 faces, split down 5, 4 and 6 shortfall planes; the last in two slices
    check(parse_ideal(text))


def test_one_face_per_degree_is_walked_in_linear_time():
    # K = prod (1 - t^(2^i)) has 2^18 terms; walking whole planes per degree took about 6 s
    q = 18
    ideal = parse_ideal(", ".join(f"x{i}^{1 << i}" for i in range(q)))
    start = perf_counter()
    numerator = taylor_numerator(ideal)
    assert perf_counter() - start < 2.0
    assert numerator == tuple((d, (-1) ** d.bit_count()) for d in range(1 << q))


def test_editing_the_numerator_cannot_change_later_power_sums():
    # the value is cached on the ideal and read by every `ps_power_sum`
    ideal, fresh = parse_ideal(cycle(6)), parse_ideal(cycle(6))
    numerator = taylor_numerator(ideal)
    with pytest.raises(TypeError):
        numerator[0] = (0, 0)
    with pytest.raises(AttributeError):
        numerator.pop(0)
    assert taylor_numerator(ideal) == taylor_numerator(fresh)
    assert [ps_power_sum(ideal, k) for k in range(8)] == [ps_power_sum(fresh, k) for k in range(8)]
    assert multiplicity_ps(ideal) == multiplicity_ps(fresh)


def test_a_power_sum_sweep_builds_one_degree_table(monkeypatch):
    calls, kernel = [], taylor.lcm_degree_table

    def counted(ideal):
        calls.append(ideal)
        return kernel(ideal)

    monkeypatch.setattr(taylor, "lcm_degree_table", counted)
    ideal = parse_ideal(cycle(20))
    c = codim(ideal)
    sums = [ps_power_sum(ideal, k) for k in range(c + 1)]
    assert sums[0] == -1 and not any(sums[1:c])
    assert sums[c] == math.factorial(c) * multiplicity_ps(ideal)
    assert len(calls) == 1


def test_power_sum_on_cycle_20_takes_under_a_second():
    # 2^20 faces; the per-face loops took about 1.5 s
    ideal = parse_ideal(cycle(20))
    start = perf_counter()
    assert multiplicity_ps(ideal) == 2
    assert perf_counter() - start < 1.0
    with pytest.raises(ResourceCapError, match="q <= 24"):
        multiplicity_ps(parse_ideal(cycle(25)))


@pytest.mark.parametrize("q, exponent", [(21, 195), (24, 21)])
def test_past_q_20_the_lcm_degree_stays_below_2_to_the_33_minus_q(q, exponent):
    # deg lcm(all) = q * exponent is 4095 and 504, then 4116 and 528 past the bound
    def powers(e: int) -> str:
        return ", ".join(f"x{i}^{e}" for i in range(q))

    assert multiplicity_ps(parse_ideal(powers(exponent))) == exponent**q
    with pytest.raises(ResourceCapError, match=r"2\^\(33 - q\)"):
        multiplicity_ps(parse_ideal(powers(exponent + 1)))


@pytest.mark.parametrize(
    "q, squarefree, square", [(21, 21, 42), (22, 2, 2), (23, 23, 46), (24, 2, 2)]
)
def test_power_sum_answers_cycles_up_to_the_cap(q, squarefree, square):
    # an odd cycle x_i*x_{i+1} has e = q, and x_i^2*x_{i+1} doubles it; an even one has e = 2
    edges = ", ".join(f"x{i}*x{(i + 1) % q}" for i in range(q))
    for text, e in ((edges, squarefree), (cycle(q), square)):
        ideal = parse_ideal(text)
        start = perf_counter()
        assert multiplicity_ps(ideal) == e, text
        assert perf_counter() - start < 1.0, text
