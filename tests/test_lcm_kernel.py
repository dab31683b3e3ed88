"""The packed subset-lcm kernel against a per-face lcm fold, at every field width."""

from __future__ import annotations

import hashlib
import math
import random
from time import perf_counter

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from kernel_reference import (
    BOUNDARY,
    EXPONENTS,
    PLANE_BOUNDARY,
    REFERENCE,
    check,
    field_width,
    folded_lcms,
    shortfalls,
    signed_histogram,
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
    mdegs = list(subset_lcms(ideal.ring, ideal.gens))
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


def wide(q: int) -> str:
    # every generator on each of 4 variables, with distinct exponents: a rises as b falls,
    # so no generator divides another, and c and d run through 1..q in other orders
    return ", ".join(
        f"a^{i + 1}*b^{q - i}*c^{5 * i % q + 1}*d^{3 * i % q + 1}" for i in range(q)
    )


def swept(ideal):
    """K(t) summed by the frontier sweep, whatever q and the state bound; None where the
    plan finds its packed histograms too large, as for exponents near 2^31."""
    _, steps = taylor._sweep_plan(ideal)
    if steps is None:
        return None
    return tuple(item for item in sorted(taylor._sweep(steps).items()) if item[1])


@st.composite
def pure_powers(draw):
    exponent = st.one_of(st.integers(1, 6), st.sampled_from(EXPONENTS))
    exponents = draw(st.lists(exponent, min_size=1, max_size=8))
    return parse_ideal(", ".join(f"x{i}^{e}" for i, e in enumerate(exponents)))


KERNEL_CASES = [parse_ideal(text) for text, _ in BOUNDARY + PLANE_BOUNDARY]


@settings(max_examples=300, deadline=None)
@given(st.one_of(ideals(), pure_powers(), st.sampled_from(KERNEL_CASES)))
def test_the_sweep_sums_the_faces_signed_histogram(ideal):
    # called directly, so that ideals of q <= 13, which `taylor_numerator` walks, reach it too
    numerator = swept(ideal)
    event("swept" if numerator else "too many degrees to pack")
    if numerator:
        assert numerator == signed_histogram([m.degree for m in folded_lcms(ideal)]), str(ideal)


def test_the_plan_bounds_a_cycle_by_four_states_a_step():
    # in the greedy order x0 and the far end of the path so far are live after each step
    # but the first and the last, so the bound reads 2 + 4 (q - 2) + 1, and packs
    for q in (14, 20, 24):
        ideal = parse_ideal(", ".join(f"x{i}*x{(i + 1) % q}" for i in range(q)))
        bound, steps = taylor._sweep_plan(ideal)
        assert (bound, len(steps)) == (4 * q - 5, q)


@st.composite
def sparse_reorderings(draw):
    # q = 14..18 generators on q variables: a cycle, square-free or with squares, or one
    # after edge swaps that keep every variable in two edges, with some edges grown into
    # triples; then shuffled, and over a permuted variable order
    q, square = draw(st.integers(14, 18)), draw(st.booleans())
    edges = [[i, (i + 1) % q] for i in range(q)]
    if draw(st.booleans()):
        pairs = st.tuples(st.integers(0, q - 1), st.integers(0, q - 1))
        for a, b in draw(st.lists(pairs, max_size=q)):
            (x, y), (u, w) = sorted(edges[a]), sorted(edges[b])
            new_a, new_b = sorted({x, u}), sorted({y, w})
            if len(new_a) == len(new_b) == 2 and new_a not in edges and new_b not in edges:
                edges[a], edges[b] = new_a, new_b
        for i in draw(st.lists(st.integers(0, q - 1), max_size=q // 3, unique=True)):
            edges[i] = [*edges[i], draw(st.integers(0, q - 1))]
    names = [f"x{v}" for v in range(q)]
    maps = [{f"x{v}": 1 for v in edge} | {f"x{edge[0]}": 1 + square} for edge in edges]
    ideal = from_maps(maps, names)
    assume(ideal.q >= 14)  # a grown triple may be a multiple of another edge
    shuffled = from_maps(draw(st.permutations(maps)), names)
    renamed = from_maps(maps, draw(st.permutations(names)))
    return ideal, shuffled, renamed


@settings(max_examples=40, deadline=None)
@given(sparse_reorderings())
def test_numerator_ignores_generator_and_variable_order_past_one_block(ideals):
    # each order takes the sweep in its own greedy order, or the walk if its bound is too high
    ideal, *others = ideals
    numerator = taylor_numerator(ideal)
    assert numerator == tuple(item for item in sorted(taylor._walk(ideal).items()) if item[1])
    for other in others:
        assert taylor_numerator(other) == numerator, str(other)


@pytest.mark.parametrize(
    "text", [cycle(12), ", ".join(f"x{i}*x{i + 1}" for i in range(13)), cycle(14)]
)
def test_long_tables_match_a_folded_lcm(text):
    # 2^12 and 2^13 faces, walked down 5 and 4 shortfall planes; the 14-cycle takes the sweep
    check(parse_ideal(text))


def test_a_wide_ideal_past_one_block_takes_the_walk(monkeypatch):
    # every variable stays live to the last generator, so the sweep's bound is far past
    # 2^(q - 7) and the numerator is walked: 2^14 faces down 6 shortfall planes, in two slices
    calls, kernel = [], taylor.lcm_degree_table
    monkeypatch.setattr(taylor, "lcm_degree_table", lambda i: calls.append(i) or kernel(i))
    ideal = parse_ideal(wide(14))
    bound, _ = taylor._sweep_plan(ideal)
    assert ideal.q == 14 and bound > 1 << 7
    taylor_numerator(ideal)
    assert calls == [ideal]
    check(ideal)


def test_too_many_degrees_to_pack_take_the_walk(monkeypatch):
    # a 14-cycle with x0^(2^20): 4 states of 2^20 degrees each would pass the 2^22 the plan
    # allows, although its state bound is far below 2^(q - 7)
    calls, kernel = [], taylor.lcm_degree_table
    monkeypatch.setattr(taylor, "lcm_degree_table", lambda i: calls.append(i) or kernel(i))
    ideal = parse_ideal(cycle(14).replace("x0^2", f"x0^{1 << 20}", 1))
    assert taylor._sweep_plan(ideal)[1] is None
    assert taylor._sweep_plan(parse_ideal(cycle(14)), cap=1 << 7)[1] is not None
    assert taylor_numerator(ideal) == signed_histogram(taylor_resolution(ideal).degrees)
    assert calls == [ideal]


def test_one_face_per_degree_is_walked_in_linear_time():
    # K = prod (1 - t^(2^i)) has 2^18 terms; walking whole planes per degree took about 6 s
    q = 18
    ideal = parse_ideal(", ".join(f"x{i}^{1 << i}" for i in range(q)))
    start = perf_counter()
    counts = taylor._walk(ideal)
    assert perf_counter() - start < 2.0
    assert sorted(counts.items()) == [(d, (-1) ** d.bit_count()) for d in range(1 << q)]


def test_many_degrees_are_summed_in_well_under_the_walk_time():
    # the walk runs Python code per leaf, a leaf per degree in each 2^13-face slice: it took
    # 2.0 s on the 2^20 degrees of the powers x_i^(2^i), and 1.4 s on the 17614 of this cycle
    q = 20
    powers = parse_ideal(", ".join(f"x{i}^{1 << i}" for i in range(q)))
    start = perf_counter()
    numerator = taylor_numerator(powers)
    assert perf_counter() - start < 1.5
    assert numerator == tuple((d, (-1) ** d.bit_count()) for d in range(1 << q))
    ideal = parse_ideal(", ".join(f"x{i}^{1000 + 37 * i}*x{(i + 1) % q}^{3 + i}" for i in range(q)))
    start = perf_counter()
    numerator = taylor_numerator(ideal)
    assert perf_counter() - start < 0.5
    # the walk's K: its terms, its multiplicity, and the SHA-256 of its repr
    digest = "11c1282eb54e98128fdf4ea203ddf6caacb19995936a86a82e1e66e83dbede32"
    assert len(numerator) == 17614 and multiplicity_ps(ideal) == 54624113775
    assert hashlib.sha256(repr(numerator).encode()).hexdigest() == digest


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
    # one numerator per ideal, whichever kernel built it: the sweep on cycle 20, the walk
    # on the 6-cycle (one block) and on the wide ideal (a bound past 2^(q - 7))
    calls = []
    for name in ("_sweep", "_walk"):

        def counted(*args, kernel=getattr(taylor, name), name=name):
            calls.append(name)
            return kernel(*args)

        monkeypatch.setattr(taylor, name, counted)
    for text, route in ((cycle(20), "_sweep"), (cycle(6), "_walk"), (wide(14), "_walk")):
        calls.clear()
        ideal = parse_ideal(text)
        c = codim(ideal)
        sums = [ps_power_sum(ideal, k) for k in range(c + 1)]
        assert sums[0] == -1 and not any(sums[1:c]), text
        assert sums[c] == (-1) ** c * math.factorial(c) * multiplicity_ps(ideal), text
        assert calls == [route], text


def test_power_sum_on_cycle_20_takes_under_a_second():
    # 2^20 faces; the per-face loops took about 1.5 s
    ideal = parse_ideal(cycle(20))
    start = perf_counter()
    assert multiplicity_ps(ideal) == 2
    assert perf_counter() - start < 1.0
    with pytest.raises(ResourceCapError, match="q <= 24"):
        multiplicity_ps(parse_ideal(cycle(25)))


# every variable in every generator: the sweep's bound is far past 2^(21 - 7), so only a walk
# could count it, and its deg lcm(all) = 4590 is past the walk's 2^(33 - 21) at q = 21
DENSE_21 = ", ".join(
    "*".join(f"x{v}^{10 * ((i + 1) * (v + 1) % 23) + 10}" for v in range(20)) for i in range(21)
)


@pytest.mark.parametrize("q, exponent", [(21, 195), (24, 21)])
def test_past_q_20_the_lcm_degree_stays_below_2_to_the_33_minus_q(q, exponent):
    # deg lcm(all) = q * exponent is 4095 and 504, then 4116 and 528 past the bound: the walk's
    # table refuses those, but pure powers are a complete intersection, which the sweep sums
    def powers(e: int) -> str:
        return ", ".join(f"x{i}^{e}" for i in range(q))

    assert multiplicity_ps(parse_ideal(powers(exponent))) == exponent**q
    past = parse_ideal(powers(exponent + 1))
    assert multiplicity_ps(past) == (exponent + 1) ** q
    window = r"^ps engine past q = 20: lcm degree {} is not below 2\^\(33 - q\)$"
    with pytest.raises(ResourceCapError, match=window.format(q * (exponent + 1))):
        lcm_degree_table(past)
    with pytest.raises(ResourceCapError, match=window.format(4590)):
        multiplicity_ps(parse_ideal(DENSE_21))


@pytest.mark.parametrize(
    "text, e, oracle",
    [
        (", ".join(f"x{i}^200*x{(i + 1) % 21}" for i in range(21)), 4200, True),
        (", ".join(f"x{i}^30*x{(i + 1) % 24}" for i in range(24)), 2, True),
        (", ".join(f"x{i}^1000*x{(i + 1) % 22}" for i in range(22)), 2, False),
        (", ".join(f"a{i}^30*b{i}, b{i}^30*c{i}, c{i}^30*a{i}" for i in range(8)), 90**8, False),
    ],
)
def test_the_sweep_sums_ideals_past_the_walks_lcm_degree_window(text, e, oracle):
    # q = 21-24 with deg lcm(all) >= 2^(33 - q): the walk's table refuses them, but they are
    # inside the sweep's own bounds, so the engine answers
    ideal = parse_ideal(text)
    with pytest.raises(ResourceCapError, match=r"2\^\(33 - q\)"):
        lcm_degree_table(ideal)
    start = perf_counter()
    assert multiplicity_ps(ideal) == e
    assert perf_counter() - start < 1.0
    if oracle:
        assert multiplicity_associativity(ideal) == e


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
