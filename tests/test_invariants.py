"""Codimension, dominance, and CI/ACI classification."""

from __future__ import annotations

import pickle
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multmon import (
    classify,
    codim,
    dominance_witnesses,
    is_almost_complete_intersection,
    is_complete_intersection,
    is_dominant,
    parse_ideal,
)
from multmon.invariants import covers, has_cover, least_cover, support_components
from multmon.generate import make_table, random_ideal
from multmon.core import Monomial, MonomialIdeal, minimalize
import multmon.cli as cli
import multmon.decomposition as decomposition
import multmon.invariants as invariants

from conftest import gen_index
from generators import random_aci, random_complete_intersection


def test_codim_examples():
    assert codim(parse_ideal("a^3*c, a*b*e^3, a^2*b^2, c^2, d^2*e^2")) == 3
    assert codim(parse_ideal("x^7")) == 1
    assert codim(parse_ideal("a^2*b*c, b^3*c, c^4, d^2*e^2, d*e*f, d*g^2")) == 2


TABLE = make_table(12)


def maps_on(variables):
    return st.lists(
        st.dictionaries(st.sampled_from(variables), st.integers(1, 3), min_size=1, max_size=3),
        min_size=1,
        max_size=7,
    )


def ideal_of(*maps):
    return minimalize(TABLE, [Monomial.from_map(TABLE, m) for part in maps for m in part])


def connected(supports):
    """Whether the sets form one component of the shares-an-element graph (BFS)."""
    queue = [0]
    for i in queue:
        for j, s in enumerate(supports):
            if j not in queue and s & supports[i]:
                queue.append(j)
    return len(queue) == len(supports)


@settings(max_examples=200, deadline=None)
@given(maps_on(range(7)))
def test_codim_is_the_least_subset_that_meets_every_support(maps):
    ideal = ideal_of(maps)
    used = ideal.used_variables()
    least = next(
        k
        for k in range(1, len(used) + 1)
        for combo in map(set, combinations(used, k))
        if all(combo.intersection(g.support) for g in ideal.gens)
    )
    assert codim(ideal) == least


@settings(max_examples=200, deadline=None)
@given(maps_on(range(6)), maps_on(range(6, 12)))
def test_codims_add_over_disjoint_variables(left_maps, right_maps):
    left, right, joined = ideal_of(left_maps), ideal_of(right_maps), ideal_of(left_maps, right_maps)
    assert codim(joined) == codim(left) + codim(right)

    def blocks(ideal):
        return {frozenset(ideal.gens[i] for i in b) for b in support_components(ideal)}

    assert blocks(joined) == blocks(left) | blocks(right)


@settings(max_examples=200, deadline=None)
@given(maps_on(range(12)))
def test_support_components_partition_into_connected_blocks(maps):
    ideal = ideal_of(maps)
    blocks = support_components(ideal)
    assert sorted(i for b in blocks for i in b) == list(range(ideal.q))
    spans = [frozenset().union(*(ideal.gens[i].support for i in b)) for b in blocks]
    assert sum(map(len, spans)) == len(frozenset().union(*spans))
    assert all(connected([ideal.supports[i] for i in b]) for b in blocks)


def test_dominance_examples():
    assert is_dominant(parse_ideal("a^2, b^3, a*b")) is False

    m2 = parse_ideal("a^2*b, a*b^3*c, b*c^2")
    assert is_dominant(m2) is True
    names = {m2.ring.names[w] for w in dominance_witnesses(m2)}
    assert names == {"a", "b", "c"}

    x5 = parse_ideal("x^5")
    assert is_dominant(x5) is True and dominance_witnesses(x5) == (0,)


def test_dominance_witness_is_per_generator():
    m2 = parse_ideal("a^2*b, a*b^3*c, b*c^2")
    witnesses = dominance_witnesses(m2)
    expected = {"a^2*b": "a", "a*b^3*c": "b", "b*c^2": "c"}
    for g, w in zip(m2.gens, witnesses):
        assert m2.ring.names[w] == expected[str(g)]


def test_complete_intersection_examples():
    assert is_complete_intersection(parse_ideal("x^2, y^3"))
    assert not is_complete_intersection(parse_ideal("a^2, b^3, a*b"))
    assert is_complete_intersection(parse_ideal("a^2*b^2, c^2, d^2*e^2"))


def test_aci_examples():
    ideal = parse_ideal("x^2, y^3, x*y")
    witness = is_almost_complete_intersection(ideal)
    assert witness == gen_index(ideal, "x*y")

    assert is_almost_complete_intersection(parse_ideal("x^2, y^3")) is None
    assert is_almost_complete_intersection(parse_ideal("a^2*b*c, b^3*c, c^4")) is None


def test_ci_iff_codim_equals_generator_count():
    rng = random.Random(20260810)
    for _ in range(150):
        ideal = random_ideal(rng)
        assert is_complete_intersection(ideal) == (codim(ideal) == ideal.q)
    for _ in range(100):
        ideal = random_complete_intersection(rng)
        assert codim(ideal) == ideal.q


def test_ci_and_aci_match_their_pairwise_definitions():
    # both read the greedy packing: it takes every support exactly when they are pairwise disjoint
    def coprime(supports):
        return all(not s & t for s, t in combinations(supports, 2))

    rng = random.Random(20261020)
    kinds = {"ci": 0, "aci": 0, "neither": 0}
    for _ in range(400):
        ideal = random_ideal(rng, max_gens=6, max_vars=5)
        q, supports = ideal.q, ideal.supports
        ci = coprime(supports)
        assert is_complete_intersection(ideal) == ci, str(ideal)
        removals = [t for t in range(q) if coprime(supports[:t] + supports[t + 1 :])]
        aci = removals[0] if removals and codim(ideal) == q - 1 else None
        assert is_almost_complete_intersection(ideal) == aci, str(ideal)
        kinds["ci" if ci else "neither" if aci is None else "aci"] += 1
    assert min(kinds.values()) >= 20, kinds


def test_codim_bounds_and_invariance():
    rng = random.Random(4)
    for _ in range(100):
        ideal = random_ideal(rng)
        c = codim(ideal)
        assert 1 <= c <= min(ideal.q, len(ideal.ring))

        gens = list(ideal.gens)
        rng.shuffle(gens)
        assert codim(MonomialIdeal(ideal.ring, tuple(gens))) == c

        # relabel: permute which name each index carries
        n = len(ideal.ring)
        perm = list(range(n))
        rng.shuffle(perm)
        table = make_table(n)
        relabeled = MonomialIdeal(
            table,
            tuple(
                Monomial.from_map(table, {perm[i]: e for i, e in g.exps})
                for g in ideal.gens
            ),
        )
        assert codim(relabeled) == c


@pytest.mark.parametrize("seed", range(3))
def test_codim_cost_does_not_follow_variable_names(seed):
    # renaming reorders the generators; the cycle x0^2*x1, ..., x119^2*x0 stays one
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(120)]
    rng.shuffle(names)
    gens = [f"{names[i]}^2*{names[(i + 1) % 120]}" for i in range(120)]
    rng.shuffle(gens)
    ideal = parse_ideal(", ".join(gens))
    started = time.perf_counter()
    assert codim(ideal) == 60
    assert time.perf_counter() - started < 1


def recursive_covers(supports, size, chosen=0):
    """The reference for `covers`: the same search, one recursive call per chosen variable."""
    pivot = min(supports, key=int.bit_count)
    while True:
        bit = pivot & -pivot
        rest = [s for s in supports if not s & bit]
        if not rest:
            yield chosen | bit
        elif invariants._packing(rest) < size:
            yield from recursive_covers(rest, size - 1, chosen | bit)
        pivot ^= bit
        if not pivot:
            return
        supports = [s & ~bit for s in supports]
        if not all(supports):
            return


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 2**10 - 1), min_size=1, max_size=10), st.integers(1, 10))
def test_covers_yields_what_the_recursive_search_yields_in_its_order(supports, size):
    assert list(covers(supports, size)) == list(recursive_covers(supports, size))


def test_covers_yields_nothing_below_one_variable():
    # at size 0 the search used to yield a one-variable cover anyway
    for supports in ([0b1], [0b11, 0b110], [0b101, 0b10]):
        assert list(covers(supports, 0)) == list(covers(supports, -1)) == []
        assert not has_cover(supports, 0)


def test_an_empty_support_list_is_covered_by_no_variables():
    # the pruned split search asks this once no candidate is left; `covers` took min() of nothing
    assert has_cover([], 0) and has_cover([], 1) and has_cover([], 5)
    assert not has_cover([], -1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 2**8 - 1), min_size=1, max_size=9), st.integers(0, 9))
def test_has_cover_answers_by_the_least_cover(supports, size):
    least = least_cover(supports, invariants._components(supports))
    assert has_cover(supports, size) == (least <= size)


def test_covers_of_a_cover_past_the_recursion_limit():
    # the recursive search took one Python frame per cover variable
    q = 2000
    supports = [1 << k | 1 << (k + 1) % q for k in range(q)]
    cover = next(covers(supports, q // 2))
    assert cover.bit_count() == q // 2 and all(cover & s for s in supports)
    assert codim(parse_ideal(", ".join(f"x{k}*x{(k + 1) % q}" for k in range(q)))) == q // 2


def test_aci_codim_is_one_less_than_generators():
    rng = random.Random(11)
    for _ in range(60):
        ideal = random_aci(rng, dominant=bool(rng.getrandbits(1)))
        assert is_almost_complete_intersection(ideal) is not None
        assert codim(ideal) == ideal.q - 1


def test_classification_report_consistency():
    report = classify(parse_ideal("x^2, y^3"))
    assert report.is_ci and report.codim == 2 and not report.is_codim1
    report = classify(parse_ideal("x^2*y, x*y^2"))
    assert report.is_codim1 and report.codim == 1 and report.is_dominant
    report = classify(parse_ideal("a^2, b^3, a*b"))
    assert not report.is_dominant and None in report.dominant_witness


@pytest.fixture
def searches(monkeypatch):
    """Counts real codim searches: `codim`'s least-cover searches and the pivot search's bounded queries."""
    count = [0]

    def counting(original):
        def counted(*args):
            count[0] += 1
            return original(*args)

        return counted

    monkeypatch.setattr(invariants, "least_cover", counting(invariants.least_cover))
    monkeypatch.setattr(decomposition, "has_cover", counting(invariants.has_cover))
    return count


def test_facts_are_computed_once_per_ideal_object(searches):
    ideal = parse_ideal("a^3*c, a*b*e^3, a^2*b^2, c^2, d^2*e^2")
    assert codim(ideal) == codim(ideal) == 3
    assert searches[0] == 1
    assert ideal.supports[0] == sum(1 << v for v in ideal.gens[0].support)

    smaller = ideal.without(0)
    assert smaller._facts == {}
    assert codim(smaller) == 2 and searches[0] == 2
    assert codim(ideal) == 3 and searches[0] == 2


@given(st.randoms(use_true_random=False).map(random_ideal))
def test_an_analysed_ideal_pickles(ideal):
    report = classify(ideal)
    copy = pickle.loads(pickle.dumps(ideal))
    assert copy == ideal and hash(copy) == hash(ideal) and copy._facts == {}
    assert copy.gens == ideal.gens and copy.supports == ideal.supports
    assert all(g.table is copy.ring for g in copy.gens)  # one table, as in the original
    assert classify(copy) == report and pickle.loads(pickle.dumps(report)) == report
    for value in (ideal.ring, *ideal.gens):
        again = pickle.loads(pickle.dumps(value))
        assert again == value and hash(again) == hash(value)
    assert [copy.ring.index(name) for name in ideal.ring.names] == list(range(len(ideal.ring)))


def test_one_verify_runs_few_codim_searches(searches, capsys):
    assert cli.main(["verify", "--ideal", "a^3*c, a*b*e^3, a^2*b^2, c^2, d^2*e^2"]) == 0
    capsys.readouterr()
    # classify, two pivot candidates (the second keeps the codim, which the
    # recurrence passes to m1's power sums), and the recurrence's quotient ideal
    assert searches[0] == 4


def test_failing_pivot_candidates_build_no_sub_ideal(searches, monkeypatch):
    # removing any of the three pure powers leaves an ideal of codim 2, not 3
    ideal = parse_ideal("x^5, y^7, z^3, x^2*y^3")
    built, original = [], MonomialIdeal.without

    def counting(self, index):
        built.append(index)
        return original(self, index)

    monkeypatch.setattr(MonomialIdeal, "without", counting)
    answers = dict(cli._answers(ideal, cli.METHODS))  # the routes `verify` runs
    assert "recurrence" not in answers and answers["ps"] == 69
    assert searches[0] == 4  # the ideal's own codim and the three dominant candidates
    assert built == []
