"""Monomial arithmetic, minimalization, and the slot-label set identities."""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multmon.core as core
from multmon import (
    MAX_EXPONENT,
    Monomial,
    MonomialIdeal,
    ResourceCapError,
    VariableTable,
    codim,
    gcd,
    gcd_all,
    lcm,
    lcm_all,
    minimalize,
    parse_ideal,
    polar_set,
    polar_sets,
    quotient,
)
from multmon.generate import random_ideal

ABCDE = VariableTable(("a", "b", "c", "d", "e"))


def mono(text: str, table: VariableTable = ABCDE) -> Monomial:
    gens = parse_ideal(text, var_names=table.names).gens
    assert len(gens) == 1
    return gens[0]


monomials = st.builds(
    lambda d: Monomial.from_map(ABCDE, d),
    st.dictionaries(st.integers(0, 4), st.integers(1, 5), max_size=5),
)


# ---------------------------------------------------------------------------
# lcm / gcd / quotient examples


def test_lcm_examples():
    assert lcm(mono("a^2*b"), mono("b*c^2")) == mono("a^2*b*c^2")
    m = mono("a^2*d")
    assert lcm(m, Monomial.unit(ABCDE)) == m
    assert lcm(mono("a^3*c"), mono("a*b*e^3")) == mono("a^3*b*c*e^3")


def test_gcd_examples():
    assert gcd(mono("a^2*b*c"), mono("b^3*c")) == mono("b*c")
    assert gcd(mono("a^2*b"), Monomial.unit(ABCDE)).is_unit
    assert gcd(mono("a^2*b"), mono("a*b^2")) == mono("a*b")


def test_quotient_examples():
    assert quotient(mono("a^3*b*c*e^3"), mono("a^3*c")) == mono("b*e^3")
    assert quotient(mono("a^2*b"), mono("a^2*b")).is_unit
    assert quotient(mono("a^2"), mono("a")) == mono("a")


def test_quotient_rejects_non_divisor():
    with pytest.raises(ValueError):
        quotient(mono("a^2"), mono("b"))


def test_variable_table_holds_only_distinct_grammar_tokens():
    for names in (("",), ("1x",), ("a b",), ("\u00e9",), (1,), ("a", "b", "a"), ()):
        with pytest.raises(ValueError):
            VariableTable(names)
    assert VariableTable(("x", "Y_1", "z9")).names == ("x", "Y_1", "z9")


def test_mismatched_tables_rejected():
    other = Monomial.from_map(VariableTable(("x", "y")), {0: 1})
    for op in (lcm, gcd, quotient, Monomial.divides, Monomial.__mul__):
        with pytest.raises(ValueError):
            op(mono("a"), other)


def test_from_map_rejects_out_of_range_input():
    with pytest.raises(ValueError):
        Monomial.from_map(ABCDE, {0: -1})
    for index in (5, -1):
        with pytest.raises(ValueError):
            Monomial.from_map(ABCDE, {index: 1})
    assert Monomial.from_map(ABCDE, {0: MAX_EXPONENT}).degree == MAX_EXPONENT
    with pytest.raises(ValueError):
        Monomial.from_map(ABCDE, {0: MAX_EXPONENT + 1})


def test_constructor_rejects_wrong_length():
    for vec in ((1, 0, 0, 0), (1, 0, 0, 0, 0, 0), ()):
        with pytest.raises(ValueError):
            Monomial(ABCDE, vec)


def test_core_values_are_frozen_and_have_no_instance_dict():
    ideal = parse_ideal("a^2*b, b^3, c")
    for value in (ideal.ring, ideal.gens[0], ideal):
        assert not hasattr(value, "__dict__")
        for name in type(value).__slots__:
            before = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, before)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name) is before
        with pytest.raises(AttributeError):
            value.extra = 1


def test_tables_built_apart_from_equal_names_are_equal():
    left, right = VariableTable(("x", "y")), VariableTable(["x", "y"])
    assert left is not right and left == right and hash(left) == hash(right)
    assert left != VariableTable(("y", "x")) and left != ("x", "y")
    # the ring checks compare tables by value
    assert lcm(Monomial(left, (1, 0)), Monomial(right, (0, 2))) == Monomial(left, (1, 2))
    assert MonomialIdeal(left, [Monomial(right, (1, 0))]).ring is left


# ---------------------------------------------------------------------------
# minimalize


def test_minimalize_drops_multiples():
    assert parse_ideal("x^2, x^3, y") == parse_ideal("x^2, y")


def test_minimalize_keeps_minimal_sets():
    ideal = parse_ideal("a^2, b^3, a*b")
    assert len(ideal.gens) == 3


def test_minimalize_dedupes():
    assert parse_ideal("x, x") == parse_ideal("x")


def test_minimalize_rejects_empty_and_unit():
    with pytest.raises(ValueError):
        minimalize(ABCDE, [])
    with pytest.raises(ValueError):
        minimalize(ABCDE, [Monomial.unit(ABCDE)])


def test_constructor_rejects_non_minimal():
    # a duplicate, a divisor before its multiple, and a divisor after it
    for gens in (
        ("b*c", "a", "b*c"),
        ("a", "a^2"),
        ("c^3", "a*b^2*d", "b*d", "e"),
    ):
        with pytest.raises(ValueError, match="not a minimal generating set"):
            MonomialIdeal(ABCDE, tuple(mono(g) for g in gens))


def test_without_rejects_an_index_outside_the_generators():
    ideal = parse_ideal("a^2, b^3, a*b")
    for index in (-1, -4, 3, 7):
        with pytest.raises(ValueError, match=f"generator index {index} out of range for q = 3"):
            ideal.without(index)
    with pytest.raises(ValueError, match="needs at least one generator"):
        parse_ideal("a^2").without(0)


def test_without_matches_the_checked_constructor():
    # the subset's slots are set directly: it must be the ideal the constructor builds
    rng = random.Random(41)
    for _ in range(150):
        ideal = random_ideal(rng)
        codim(ideal)  # a fact cached on the ideal must not reach its sub-ideals
        for i in range(ideal.q if ideal.q > 1 else 0):
            sub = ideal.without(i)
            built = MonomialIdeal(ideal.ring, ideal.gens[:i] + ideal.gens[i + 1 :])
            assert sub.gens == built.gens and sub.supports == built.supports, str(ideal)
            assert sub == built and hash(sub) == hash(built) and sub.ring is ideal.ring
            assert sub._facts == {} and sub._facts is not ideal._facts
            copy = pickle.loads(pickle.dumps(sub))
            assert copy == sub and copy.gens == sub.gens and copy.supports == sub.supports


# ---------------------------------------------------------------------------
# polar sets


def test_polar_set_examples():
    table = ABCDE
    a, b, c = table.index("a"), table.index("b"), table.index("c")
    assert polar_set(mono("a^2*b*c")) == {(a, 1), (a, 2), (b, 1), (c, 1)}
    assert polar_set(Monomial.unit(table)) == frozenset()
    d, e = table.index("d"), table.index("e")
    assert polar_set(mono("d*e^2")) == {(d, 1), (e, 1), (e, 2)}


def test_polar_sets_per_generator():
    ideal = parse_ideal("a^2*b, c")
    sets = polar_sets(ideal)
    assert [len(s) for s in sets] == [g.degree for g in ideal.gens]


def test_polar_sets_cap_the_total_label_count(monkeypatch):
    ideal = parse_ideal("a^3*b, c^2")  # 6 labels
    monkeypatch.setattr(core, "POLAR_LABEL_CAP", 6)
    assert sum(map(len, polar_sets(ideal))) == 6
    monkeypatch.setattr(core, "POLAR_LABEL_CAP", 5)
    with pytest.raises(ResourceCapError, match="^polarization of 6 labels exceeds the 5 cap$"):
        polar_sets(ideal)


# ---------------------------------------------------------------------------
# algebraic properties


@given(monomials, monomials)
def test_lcm_gcd_commute(x, y):
    assert lcm(x, y) == lcm(y, x)
    assert gcd(x, y) == gcd(y, x)


@given(monomials, monomials, monomials)
def test_lcm_gcd_associate(x, y, z):
    assert lcm(lcm(x, y), z) == lcm(x, lcm(y, z))
    assert gcd(gcd(x, y), z) == gcd(x, gcd(y, z))


@given(monomials)
def test_lcm_gcd_idempotent(x):
    assert lcm(x, x) == x
    assert gcd(x, x) == x


@given(monomials, monomials)
def test_divisibility_chain(x, y):
    g, m = gcd(x, y), lcm(x, y)
    assert g.divides(x) and g.divides(y)
    assert x.divides(m) and y.divides(m)


@given(monomials, monomials)
def test_quotient_of_lcm_multiplies_back(x, y):
    m = lcm(x, y)
    assert quotient(m, y) * y == m


@settings(max_examples=200)
@given(st.lists(monomials, min_size=1, max_size=6))
def test_degree_identities_match_label_sets(ms):
    sets = [polar_set(m) for m in ms]
    union = frozenset().union(*sets)
    inter = sets[0]
    for s in sets[1:]:
        inter &= s
    assert lcm_all(ABCDE, ms).degree == len(union)
    assert gcd_all(ms).degree == len(inter)


@settings(max_examples=200)
@given(st.lists(monomials, min_size=2, max_size=6))
def test_conditional_degree_identity(ms):
    head, tail = ms[0], ms[1:]
    rest = lcm_all(ABCDE, tail)
    lhs = quotient(lcm(head, rest), rest).degree
    rhs = len(polar_set(head) - frozenset().union(*(polar_set(m) for m in tail)))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# the dense core against a sparse reference, on a wide table

WIDE = VariableTable(tuple(f"x{i}" for i in range(12)))
WIDE_REVERSED = VariableTable(WIDE.names[::-1])

sparse_maps = st.dictionaries(st.integers(0, 11), st.integers(1, 6), max_size=3)


def _sparse(m: Monomial) -> dict[int, int]:
    """The reference form: index -> positive exponent, read by name."""
    return {WIDE.index(name): e for name, e in m.name_form()}


def _combine(x: dict, y: dict, op) -> dict:
    out = {i: op(x.get(i, 0), y.get(i, 0)) for i in set(x) | set(y)}
    return {i: e for i, e in out.items() if e}


@settings(max_examples=300)
@given(sparse_maps, sparse_maps)
def test_dense_operations_match_sparse_reference(x, y):
    a, b = Monomial.from_map(WIDE, x), Monomial.from_map(WIDE, y)
    assert _sparse(lcm(a, b)) == _combine(x, y, max)
    assert _sparse(gcd(a, b)) == _combine(x, y, min)
    assert _sparse(a * b) == _combine(x, y, lambda s, t: s + t)
    divides = all(e <= y.get(i, 0) for i, e in x.items())
    assert a.divides(b) == divides
    if divides:
        assert _sparse(quotient(b, a)) == _combine(y, x, lambda s, t: s - t)
    assert a.degree == sum(x.values())
    assert a.support == tuple(sorted(x))
    assert a.exps == tuple(sorted(x.items()))
    assert a.is_unit == (not x)


@given(sparse_maps)
def test_text_round_trip(x):
    m = Monomial.from_map(WIDE, x)
    if not m.is_unit:
        assert parse_ideal(str(m), WIDE.names).gens[0] == m
    else:
        assert str(m) == "1"


@given(sparse_maps, sparse_maps)
def test_equality_and_hash_across_variable_orders(x, y):
    a = Monomial.from_map(WIDE, x)
    flipped = Monomial.from_map(WIDE_REVERSED, {11 - i: e for i, e in x.items()})
    assert a == flipped and hash(a) == hash(flipped)
    other = Monomial.from_map(WIDE_REVERSED, {11 - i: e for i, e in y.items()})
    assert (a == other) == (x == y)


# ---------------------------------------------------------------------------
# canonicalization


def test_minimalize_is_idempotent_and_order_independent():
    rng = random.Random(2024)
    base = parse_ideal("a^2*b, b^3*c, c^2, a*d^3")
    gens = list(base.gens)
    for _ in range(20):
        rng.shuffle(gens)
        again = minimalize(base.ring, gens)
        assert again == base
        assert tuple(again.gens) == tuple(base.gens)
        assert minimalize(base.ring, list(again.gens)) == again


def test_canonical_generator_order():
    # ascending total degree; same-degree ties by descending exponent vectors
    assert str(parse_ideal("x*y^2, x^2*y")) == "x^2*y, x*y^2"
    assert str(parse_ideal("a*b, c, a^3")) == "c, a*b, a^3"


def test_ideal_equality_ignores_variable_table_order():
    left = parse_ideal("b*a, c")
    right = parse_ideal("c, a*b")
    assert left == right
    assert hash(left) == hash(right)
