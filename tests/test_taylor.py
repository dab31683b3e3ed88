"""Taylor complex enumeration, differentials, minimality, and the power-sum engine."""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multmon import (
    InternalConsistencyError,
    Monomial,
    MonomialIdeal,
    ResourceCapError,
    UnsupportedError,
    betti_table,
    codim,
    differential_coefficient,
    e_structural,
    is_dominant,
    lcm_all,
    lcm_degree_table,
    multiplicity_associativity,
    multiplicity_ps,
    parse_ideal,
    polar_set,
    ps_power_sum,
    regularity_dominant,
    structural_terms,
    taylor_resolution,
)
from multmon import cli, core, taylor
from multmon.core import bits, subset_lcms
from multmon.generate import make_table, random_ideal
from multmon.taylor import face_levels, multiplicity_at

from generators import random_dominant_with_split, random_stem_ideal
from kernel_reference import minimal_by_faces, shortfalls


def test_resolution_single_generator():
    r = taylor_resolution(parse_ideal("x^3"))
    assert r.ranks() == (1, 1)
    assert Monomial(r.ideal.ring, r.mdegs[0]).is_unit
    assert str(Monomial(r.ideal.ring, r.mdegs[1])) == "x^3"


def test_resolution_ranks_and_top_face():
    ideal = parse_ideal("a^2*b, a*b^3*c, b*c^2")
    r = taylor_resolution(ideal)
    assert r.ranks() == (1, 3, 3, 1)
    top = Monomial(ideal.ring, r.mdegs[(1 << ideal.q) - 1])
    assert top == parse_ideal("a^2*b^3*c^2").gens[0]
    assert top.degree == len(frozenset().union(*(polar_set(g) for g in ideal.gens)))


def test_resolution_pair_multidegree():
    ideal = parse_ideal("a^3*c, a*b*e^3")
    r = taylor_resolution(ideal)
    assert Monomial(ideal.ring, r.mdegs[0b11]) == parse_ideal("a^3*b*c*e^3").gens[0]


def test_subset_lcms_and_degree_table_match_a_folded_lcm():
    # the columns are built by one DP; one `lcm_all` of each face's members certifies it
    rng = random.Random(1618)
    ideals = [random_ideal(rng, max_gens=9, max_vars=7) for _ in range(40)]
    ideals += [parse_ideal("x^5"), parse_ideal("x^3, y^2*z, x*z^4, w")]
    assert any(ideal.used_variables() != tuple(range(len(ideal.ring))) for ideal in ideals)
    for ideal in ideals:
        lcms = list(subset_lcms(ideal.ring, ideal.gens))
        top, planes = lcm_degree_table(ideal)
        table = shortfalls(planes, ideal.q)
        assert top == lcm_all(ideal.ring, ideal.gens).degree
        assert len(lcms) == len(table) == 1 << ideal.q
        for mask in range(1 << ideal.q):
            members = [g for i, g in enumerate(ideal.gens) if mask >> i & 1]
            expected = lcm_all(ideal.ring, members)
            assert lcms[mask] == expected.vec, (str(ideal), mask)
            assert table[mask] == top - expected.degree, (str(ideal), mask)


def test_resolution_labels_and_degrees_match_the_monomials():
    # Non-dominant ideals included; explicit orders put unused variables first and between
    rng = random.Random(2718)
    ideals = [random_ideal(rng, max_gens=8, max_vars=6, max_exp=14) for _ in range(60)]
    ideals += [parse_ideal("y^10*x^9, x^10, z^12", var_names=["w", "z", "x", "v", "y"])]
    for ideal in ideals:
        resolution = taylor_resolution(ideal)
        assert "mdegs" not in vars(resolution)
        top, planes = lcm_degree_table(ideal)
        assert resolution.degrees == [top - t for t in shortfalls(planes, ideal.q)], str(ideal)
        monomials = [Monomial(ideal.ring, vec) for vec in resolution.mdegs]
        assert resolution.labels == [str(m) for m in monomials], str(ideal)
        assert resolution.mdegs == list(subset_lcms(ideal.ring, ideal.gens))
    assert resolution.labels[-1] == "z^12*x^10*y^10"


def flattened(levels: list[list[int]]) -> list[int]:
    return [mask for level in levels for mask in level]


def test_face_order_is_hdeg_then_mask():
    ideal = parse_ideal("x, y^2, z^3")
    assert len(taylor_resolution(ideal).mdegs) == 8
    masks = flattened(face_levels(ideal.q))
    assert masks == sorted(range(1 << ideal.q), key=int.bit_count)
    assert masks == [0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111]
    assert [bits(m) for m in masks[4:]] == [[0, 1], [0, 2], [1, 2], [0, 1, 2]]


def test_face_order_is_a_stable_sort_by_hdeg():
    # filled level by level with no sort; `cli`'s `betti` and `taylor` read it in this order
    for q in range(15):
        assert flattened(face_levels(q)) == sorted(range(1 << q), key=int.bit_count), q


def test_face_levels_hold_each_homological_degree_in_mask_order():
    for q in range(13):
        levels = face_levels(q)
        assert len(levels) == q + 1, q
        for s, level in enumerate(levels):
            assert level == [m for m in range(1 << q) if m.bit_count() == s], (q, s)
            assert len(level) == math.comb(q, s), (q, s)
        assert flattened(levels) == sorted(range(1 << q), key=int.bit_count), q


def _doubled_levels(q: int) -> list[list[int]]:
    """The face masks per hdeg, doubled generator by generator in a fresh list."""
    levels = [[0]] + [[] for _ in range(q)]
    for i in range(q):
        for s in range(i, -1, -1):
            levels[s + 1] += [mask | 1 << i for mask in levels[s]]
    return levels


def test_face_table_reads_prefixes_and_hands_out_copies():
    # grown past every smaller q first, so each q below reads a prefix of the larger table
    face_levels(14)
    face_levels(9, members=True)
    face_levels(14, members=True)
    for q in range(15):
        levels, members = face_levels(q), face_levels(q, members=True)
        assert levels == _doubled_levels(q), q
        assert [len(level) for level in members] == [len(level) for level in levels], q
        for masks, texts in zip(levels, members):
            assert texts == [", ".join(map(str, bits(mask))) for mask in masks], q
    for members in (False, True):
        first = face_levels(6, members=members)
        expected = [list(level) for level in first]
        first[2].clear()
        first[3][0] = None
        first.append(["changed"])
        assert face_levels(6, members=members) == expected
        assert face_levels(14, members=members)[2][:15] == expected[2]


def test_face_table_grows_from_the_table_it_read(monkeypatch):
    # another thread publishes a larger table just after this call reads the small one
    larger = [[0]] + [[] for _ in range(9)]

    class Racing(dict):
        def __getitem__(self, members):
            table = super().__getitem__(members)
            self[members] = larger
            return table

    monkeypatch.setattr(taylor, "_FACES", Racing({False: [[0]], True: [[""]]}))
    assert face_levels(6) == _doubled_levels(6)


# x^70000 needs 32-bit fields, wide enough for one key over x and 15 binary
# variables: the 256-entry bound on a group's text table keeps each group at 8
WIDE_BINARY = "x^70000*y, " + ", ".join(f"a{i}*b{i}*c{i}" for i in range(11))


def test_binary_variables_under_wide_fields_close_groups_at_256_entries(monkeypatch):
    ideal = parse_ideal(WIDE_BINARY)
    unpacked = []

    def counting(packed, width, q):
        unpacked.append(width)
        return core.unpack_fields(packed, width, q)

    monkeypatch.setattr(taylor, "unpack_fields", counting)
    resolution = taylor_resolution(ideal)
    assert unpacked == [32] * 6  # 35 variables in groups of 8, 8, 8, 8, 3; then the degrees
    assert resolution.labels == [str(Monomial(ideal.ring, vec)) for vec in resolution.mdegs]


def test_binary_variables_under_wide_fields_render_fast():
    # a few ms; keys over 16 and 19 variables (tables of 2^16 and 2^19 texts) took 0.7 s
    ideal = parse_ideal(WIDE_BINARY)
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        taylor_resolution(ideal)
        best = min(best, time.perf_counter() - started)
    assert best < 0.1, f"{best:.3f} s"


def test_differential_coefficient_examples():
    ideal = parse_ideal("x^2, y^3")
    r = taylor_resolution(ideal)
    sign, coeff = differential_coefficient(r, 0b11, 1)
    assert (sign, str(coeff)) == (1, "x^2")

    ideal = parse_ideal("a^2, a*b")
    r = taylor_resolution(ideal)
    assert [str(g) for g in ideal.gens] == ["a^2", "a*b"]
    sign, coeff = differential_coefficient(r, 0b11, 2)
    assert (sign, str(coeff)) == (-1, "b")

    sign, coeff = differential_coefficient(r, 0b01, 1)
    assert sign == 1 and coeff.vec == r.mdegs[0b01]


def test_differential_coefficient_position_out_of_range():
    r = taylor_resolution(parse_ideal("x^2, y^3"))
    with pytest.raises(ValueError):
        differential_coefficient(r, 0b11, 3)
    with pytest.raises(ValueError, match="removed position 1 out of range for a face of size 0"):
        differential_coefficient(r, 0, 1)


def test_differential_coefficient_mask_out_of_range():
    # -1 read faces from the end of `mdegs` and answered (1, x^2); 4 raised a bare IndexError
    r = taylor_resolution(parse_ideal("x^2, y^3"))
    for mask in (-1, 4, 1 << 40):
        with pytest.raises(ValueError, match=f"face mask {mask} out of range for q = 2"):
            differential_coefficient(r, mask, 1)


def test_differential_coefficients_match_the_lcm_list():
    # two lcms of the members' generators per coefficient, against the quotient of `mdegs` entries
    rng = random.Random(4242)
    ideals = [random_ideal(rng, max_gens=12, max_vars=12) for _ in range(20)]
    ideals += [random_dominant_with_split(rng, max_free=6) for _ in range(4)]
    ideals += [parse_ideal(", ".join(f"x{i}*x{(i + 1) % 12}*y^{i % 3 + 1}" for i in range(12)))]
    assert max(ideal.q for ideal in ideals) == 12
    for ideal in ideals:
        r = taylor_resolution(ideal)
        mdegs = taylor_resolution(ideal).mdegs
        for mask in range(1 << ideal.q):
            for position, removed in enumerate(bits(mask), 1):
                expected = tuple(a - b for a, b in zip(mdegs[mask], mdegs[mask ^ 1 << removed]))
                sign, coeff = differential_coefficient(r, mask, position)
                assert (sign, coeff.vec) == ((-1) ** (position + 1), expected), (str(ideal), mask)
        assert "mdegs" not in vars(r)


def test_differential_coefficient_of_the_20_cycle_builds_no_lcm_list():
    # `mdegs` of the q = 20 cycle holds 2^20 tuples: a coefficient reads two lcms only
    ideal = parse_ideal(", ".join(f"x{i}*x{(i + 1) % 20}" for i in range(20)))
    r = taylor_resolution(ideal)
    x = {i: Monomial.from_map(ideal.ring, {ideal.ring.index(f"x{i}"): 1}) for i in (4, 5, 6)}
    assert differential_coefficient(r, (1 << 20) - 1, 7) == (1, Monomial.unit(ideal.ring))
    pair = sum(1 << i for i, g in enumerate(ideal.gens) if x[5].divides(g))  # x4*x5, x5*x6
    assert {differential_coefficient(r, pair, k)[1] for k in (1, 2)} == {x[4], x[6]}
    assert "mdegs" not in vars(r)


def test_differential_squares_to_zero_on_random_ideals():
    rng = random.Random(606)
    for _ in range(30):
        ideal = random_ideal(rng, max_gens=5, max_vars=4)
        r = taylor_resolution(ideal)
        for face in range(len(r.mdegs)):
            if face.bit_count() < 2:
                continue
            reaching: dict[int, list[tuple[int, Monomial]]] = {}
            for j in range(1, face.bit_count() + 1):
                s1, c1 = differential_coefficient(r, face, j)
                sub = face ^ (1 << bits(face)[j - 1])
                for k in range(1, sub.bit_count() + 1):
                    s2, c2 = differential_coefficient(r, sub, k)
                    target = sub ^ (1 << bits(sub)[k - 1])
                    reaching.setdefault(target, []).append((s1 * s2, c1 * c2))
            for terms in reaching.values():
                assert len(terms) == 2
                (sa, ma), (sb, mb) = terms
                assert ma == mb and sa == -sb


def test_minimality_examples():
    # `classify` reports a minimal Taylor complex exactly for a dominant ideal
    for text, minimal in (("a^2, b^3, a*b", False), ("a^2*b, a*b^3*c, b*c^2", True), ("x^9", True)):
        ideal = parse_ideal(text)
        faces = minimal_by_faces(taylor_resolution(ideal).degrees, ideal.q)
        assert is_dominant(ideal) == faces == minimal, text


def test_minimality_and_regularity_walk_no_face(monkeypatch):
    # both are read off the dominance witnesses, so neither has the q <= 20 cap
    def refuse(*args):
        raise AssertionError("built the subset-lcm columns")

    monkeypatch.setattr(taylor, "lcm_columns", refuse)
    monkeypatch.setattr(core, "lcm_columns", refuse)
    cycle = parse_ideal(", ".join(f"x{i}^2*x{(i + 1) % 25}" for i in range(25)))
    assert is_dominant(cycle) and regularity_dominant(cycle) == 25
    squarefree = parse_ideal(", ".join(f"x{i}*x{(i + 1) % 21}" for i in range(21)))
    assert not is_dominant(squarefree)
    assert regularity_dominant(parse_ideal("x^2, y^3")) == 3


def test_betti_examples():
    ideal = parse_ideal("x^2, y^3")
    table = betti_table(ideal)
    entries = {(i, str(Monomial(ideal.ring, m))): c for (i, m), c in table.items()}
    assert entries == {
        (0, "1"): 1,
        (1, "x^2"): 1,
        (1, "y^3"): 1,
        (2, "x^2*y^3"): 1,
    }

    ideal = parse_ideal("a^2*b, a*b^3*c, b*c^2")
    table = betti_table(ideal)
    assert sum(c for (i, _), c in table.items() if i == 3) == 1
    top = [m for (i, m) in table if i == 3][0]
    assert str(Monomial(ideal.ring, top)) == "a^2*b^3*c^2"

    ideal = parse_ideal("a*b, a*c, d*e")
    table = betti_table(ideal)
    full = [m for (i, m), c in table.items() if i == 3]
    assert len(full) == 1 and Monomial(ideal.ring, full[0]).degree == 5
    assert sum(c for (i, m), c in table.items() if (i, sum(m)) == (3, 5)) == 1


def test_betti_totals_are_binomial():
    # On a dominant ideal no two faces share a multidegree, so every Betti
    # count is 1 and the totals are the Taylor ranks.
    rng = random.Random(55)
    ideals = [parse_ideal("a*b, a*c, d*e")]
    ideals += [random_stem_ideal(rng, max_blocks=3, max_block_size=3) for _ in range(15)]
    ideals += [random_dominant_with_split(rng) for _ in range(15)]
    ideals += [
        parse_ideal(", ".join(f"x{i}^2*x{(i + 1) % q}" for i in range(q))) for q in range(3, 11)
    ]
    for ideal in ideals:
        q = ideal.q
        mdegs = taylor_resolution(ideal).mdegs
        assert len(set(mdegs)) == len(mdegs) == 1 << q, str(ideal)
        table = betti_table(ideal)
        assert set(table.values()) == {1}, str(ideal)
        for i in range(q + 1):
            assert sum(c for (h, _), c in table.items() if h == i) == math.comb(q, i), str(ideal)


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
    with pytest.raises(ValueError, match="^power-sum exponent must be nonnegative$"):
        ps_power_sum(parse_ideal("x^2, y^3"), -1)


def test_power_sum_zero_conventions():
    ideal = parse_ideal("x^2, y^3, z")
    assert ps_power_sum(ideal, 0) == -1


def test_power_sum_vanishing_below_codim():
    rng = random.Random(19)
    for _ in range(200):
        ideal = random_ideal(rng)
        for k in range(1, codim(ideal)):
            assert ps_power_sum(ideal, k) == 0, str(ideal)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False).map(random_ideal))
def test_multiplicity_at_refuses_a_codim_off_by_one(ideal):
    # c is K's order of vanishing at t = 1: one less leaves (-1)^c P(c) = 0, one more P(c) != 0
    c = codim(ideal)
    assert multiplicity_at(ideal, c) == multiplicity_ps(ideal)
    for wrong in (c - 1, c + 1):
        with pytest.raises(InternalConsistencyError, match=f"codim {wrong} "):
            multiplicity_at(ideal, wrong)


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
    assert len(resolution.mdegs) == 1 << 14
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def _cycle16_document(command: str) -> tuple[dict, int]:
    """The result of one CLI call on the 2^16-face cycle and the call's tracemalloc peak."""
    text = ", ".join(f"x{i}^2*x{(i + 1) % 16}" for i in range(16))
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main([command, "--ideal", text])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    return json.loads(out.getvalue())["result"], peak


def test_betti_document_builds_no_monomial_per_face():
    # 2^16 faces rendered from the lcm columns, sorted one hdeg at a time, one text per
    # (hdeg, degree) run: per-face Monomials peaked at 45.8 MiB, and one sort of every
    # face's (hdeg, degree, label) tuple with one f-string per face at 28.8 MiB
    result, peak = _cycle16_document("betti")
    assert len(result["entries"]) == 1 << 16
    assert peak < 24 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_taylor_document_is_written_as_text():
    # one text per hdeg; a dict per face, encoded by `json.dumps`, peaked at 43.1 MiB,
    # and one joined list of every face's text at 33.0 MiB
    result, peak = _cycle16_document("taylor")
    assert len(result["faces"]) == 1 << 16
    assert result["ranks"] == [math.comb(16, i) for i in range(17)]
    assert peak < 30 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_engine_matches_oracle_quick():
    rng = random.Random(37)
    for _ in range(150):
        ideal = random_ideal(rng)
        assert multiplicity_ps(ideal) == multiplicity_associativity(ideal), str(ideal)


def test_generator_cap():
    text = ", ".join(f"x{i}^2" for i in range(21))
    with pytest.raises(ResourceCapError, match="20"):
        taylor_resolution(parse_ideal(text))
    # the structural routes' own cap: the 50-cycle has 25 free generators
    cycle = parse_ideal(", ".join(f"x{i}^2*x{(i + 1) % 50}" for i in range(50)))
    for route in (e_structural, structural_terms):
        with pytest.raises(ResourceCapError, match="^subset lcms of 25 generators exceed the q <= 24 cap$"):
            route(cycle)
    with pytest.raises(ResourceCapError, match="24"):
        ps_power_sum(parse_ideal(", ".join(f"x{i}^2" for i in range(25))), 1)
