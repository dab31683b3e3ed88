"""Taylor complex enumeration, differentials, minimality, and the power-sum engine."""

from __future__ import annotations

import math
import random
import tracemalloc

import pytest

from multmon import (
    Monomial,
    MonomialIdeal,
    ResourceCapError,
    UnsupportedError,
    betti_table,
    codim,
    differential_coefficient,
    is_dominant,
    is_taylor_minimal,
    multiplicity_associativity,
    multiplicity_ps,
    parse_ideal,
    polar_set,
    ps_power_sum,
    ps_power_sum_full,
    regularity_dominant,
    taylor_resolution,
)
from multmon.generate import make_table, random_ideal


def test_resolution_single_generator():
    r = taylor_resolution(parse_ideal("x^3"))
    assert r.ranks() == (1, 1)
    assert r.faces[0].mdeg.is_unit
    assert str(r.faces[1].mdeg) == "x^3"


def test_resolution_ranks_and_top_face():
    ideal = parse_ideal("a^2*b, a*b^3*c, b*c^2")
    r = taylor_resolution(ideal)
    assert r.ranks() == (1, 3, 3, 1)
    top = r.face((1 << ideal.q) - 1)
    assert top.mdeg == parse_ideal("a^2*b^3*c^2").gens[0]
    assert top.mdeg.degree == len(frozenset().union(*(polar_set(g) for g in ideal.gens)))


def test_resolution_pair_multidegree():
    ideal = parse_ideal("a^3*c, a*b*e^3")
    r = taylor_resolution(ideal)
    assert r.face(0b11).mdeg == parse_ideal("a^3*b*c*e^3").gens[0]


def test_face_order_is_hdeg_then_mask():
    ideal = parse_ideal("x, y^2, z^3")
    masks = [f.members for f in taylor_resolution(ideal).faces]
    assert masks == [0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111]


def test_differential_coefficient_examples():
    ideal = parse_ideal("x^2, y^3")
    r = taylor_resolution(ideal)
    top = r.face(0b11)
    sign, coeff = differential_coefficient(r, top, 1)
    assert (sign, str(coeff)) == (1, "x^2")

    ideal = parse_ideal("a^2, a*b")
    r = taylor_resolution(ideal)
    assert [str(g) for g in ideal.gens] == ["a^2", "a*b"]
    sign, coeff = differential_coefficient(r, r.face(0b11), 2)
    assert (sign, str(coeff)) == (-1, "b")

    singleton = r.face(0b01)
    sign, coeff = differential_coefficient(r, singleton, 1)
    assert sign == 1 and coeff == singleton.mdeg


def test_differential_coefficient_position_out_of_range():
    r = taylor_resolution(parse_ideal("x^2, y^3"))
    with pytest.raises(ValueError):
        differential_coefficient(r, r.face(0b11), 3)


def test_differential_squares_to_zero_on_random_ideals():
    rng = random.Random(606)
    for _ in range(30):
        ideal = random_ideal(rng, max_gens=5, max_vars=4)
        r = taylor_resolution(ideal)
        for face in r.faces:
            if face.hdeg < 2:
                continue
            reaching: dict[int, list[tuple[int, Monomial]]] = {}
            for j in range(1, face.hdeg + 1):
                s1, c1 = differential_coefficient(r, face, j)
                sub = r.face(face.members ^ (1 << face.member_indices()[j - 1]))
                for k in range(1, sub.hdeg + 1):
                    s2, c2 = differential_coefficient(r, sub, k)
                    target = sub.members ^ (1 << sub.member_indices()[k - 1])
                    reaching.setdefault(target, []).append((s1 * s2, c1 * c2))
            for terms in reaching.values():
                assert len(terms) == 2
                (sa, ma), (sb, mb) = terms
                assert ma == mb and sa == -sb


def test_minimality_examples():
    assert not is_taylor_minimal(parse_ideal("a^2, b^3, a*b"))
    assert is_taylor_minimal(parse_ideal("a^2*b, a*b^3*c, b*c^2"))
    assert is_taylor_minimal(parse_ideal("x^9"))


def test_minimality_iff_dominance():
    rng = random.Random(8)
    for _ in range(1000):
        ideal = random_ideal(rng, max_gens=7, max_vars=5)
        assert is_taylor_minimal(ideal) == is_dominant(ideal)[0], str(ideal)


def test_betti_examples():
    table = betti_table(parse_ideal("x^2, y^3"))
    x2 = parse_ideal("x^2, y^3").gens[0]
    entries = {(i, str(m)): c for (i, m), c in table.entries.items()}
    assert entries == {
        (0, "1"): 1,
        (1, "x^2"): 1,
        (1, "y^3"): 1,
        (2, "x^2*y^3"): 1,
    }

    ideal = parse_ideal("a^2*b, a*b^3*c, b*c^2")
    table = betti_table(ideal)
    assert table.total(3) == 1
    top = [m for (i, m) in table.entries if i == 3][0]
    assert str(top) == "a^2*b^3*c^2"

    ideal = parse_ideal("a*b, a*c, d*e")
    table = betti_table(ideal)
    full = [m for (i, m), c in table.entries.items() if i == 3]
    assert len(full) == 1 and full[0].degree == 5
    assert table.graded()[(3, 5)] == 1


def test_betti_totals_are_binomial():
    ideal = parse_ideal("a*b, a*c, d*e")
    table = betti_table(ideal)
    for i in range(4):
        assert table.total(i) == math.comb(3, i)


def test_betti_requires_dominance():
    with pytest.raises(UnsupportedError):
        betti_table(parse_ideal("a^2, b^3, a*b"))


def test_regularity_examples():
    assert regularity_dominant(parse_ideal("x^2, y^3")) == 3
    assert regularity_dominant(parse_ideal("a*b, a*c, d*e")) == 2
    assert regularity_dominant(parse_ideal("x")) == 0
    with pytest.raises(UnsupportedError):
        regularity_dominant(parse_ideal("a^2, b^3, a*b"))


def test_power_sum_examples():
    assert ps_power_sum(parse_ideal("x^3"), 1) == -3
    example = parse_ideal("a^3*c, a*b*e^3, a^2*b^2, c^2, d^2*e^2")
    assert ps_power_sum(example, 3) == -math.factorial(3) * 18
    for k in (1, 2):
        assert ps_power_sum(example, k) == 0


def test_power_sum_zero_conventions():
    ideal = parse_ideal("x^2, y^3, z")
    assert ps_power_sum(ideal, 0) == -1
    assert ps_power_sum_full(ideal, 0) == 0
    assert ps_power_sum_full(ideal, 2) == ps_power_sum(ideal, 2)


def test_power_sum_vanishing_below_codim():
    rng = random.Random(19)
    for _ in range(200):
        ideal = random_ideal(rng)
        for k in range(1, codim(ideal)):
            assert ps_power_sum(ideal, k) == 0, str(ideal)


def test_multiplicity_examples():
    assert multiplicity_ps(parse_ideal("a^3*c, a*b*e^3, a^2*b^2, c^2, d^2*e^2")) == 18
    assert multiplicity_ps(parse_ideal("x^2, y^3")) == 6
    assert multiplicity_ps(parse_ideal("a^2*b*c, b^3*c, c^4, d^2*e^2, d*e*f, d*g^2")) == 1


def test_multiplicity_invariant_under_relabeling_and_permutation():
    rng = random.Random(23)
    for _ in range(100):
        ideal = random_ideal(rng)
        e = multiplicity_ps(ideal)

        gens = list(ideal.gens)
        rng.shuffle(gens)
        assert multiplicity_ps(MonomialIdeal(ideal.ring, tuple(gens))) == e

        n = len(ideal.ring)
        perm = list(range(n))
        rng.shuffle(perm)
        table = make_table(n)
        relabeled = MonomialIdeal(
            table,
            tuple(
                Monomial.from_map(table, {perm[i]: x for i, x in g.exps})
                for g in ideal.gens
            ),
        )
        assert multiplicity_ps(relabeled) == e


def test_resolution_footprint_stays_small():
    # 2^14 multidegrees, each one exponent tuple over 14 variables
    ideal = parse_ideal(", ".join(f"x{i}^2*x{(i + 1) % 14}" for i in range(14)))
    tracemalloc.start()
    try:
        resolution = taylor_resolution(ideal)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(resolution.faces) == 1 << 14
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_engine_matches_oracle_quick():
    rng = random.Random(37)
    for _ in range(150):
        ideal = random_ideal(rng)
        assert multiplicity_ps(ideal) == multiplicity_associativity(ideal), str(ideal)


def test_generator_cap():
    text = ", ".join(f"x{i}^2" for i in range(21))
    with pytest.raises(ResourceCapError, match="20"):
        taylor_resolution(parse_ideal(text))
    with pytest.raises(ResourceCapError):
        ps_power_sum(parse_ideal(text), 1)
