"""Codimension, dominance, and CI/ACI classification."""

from __future__ import annotations

import pickle
import random

import pytest

from multmon import (
    classify,
    codim,
    is_almost_complete_intersection,
    is_complete_intersection,
    is_dominant,
    parse_ideal,
)
from multmon.generate import (
    make_table,
    random_aci,
    random_complete_intersection,
    random_ideal,
)
from multmon.core import Monomial, MonomialIdeal
import multmon.cli as cli
import multmon.invariants as invariants

from conftest import gen_index


def test_codim_examples():
    assert codim(parse_ideal("a^3*c, a*b*e^3, a^2*b^2, c^2, d^2*e^2")) == 3
    assert codim(parse_ideal("x^7")) == 1
    assert codim(parse_ideal("a^2*b*c, b^3*c, c^4, d^2*e^2, d*e*f, d*g^2")) == 2


def test_dominance_examples():
    flag, _ = is_dominant(parse_ideal("a^2, b^3, a*b"))
    assert flag is False

    m2 = parse_ideal("a^2*b, a*b^3*c, b*c^2")
    flag, witnesses = is_dominant(m2)
    assert flag is True
    names = {m2.ring.names[w] for w in witnesses}
    assert names == {"a", "b", "c"}

    flag, witnesses = is_dominant(parse_ideal("x^5"))
    assert flag is True and witnesses == (0,)


def test_dominance_witness_is_per_generator():
    m2 = parse_ideal("a^2*b, a*b^3*c, b*c^2")
    _, witnesses = is_dominant(m2)
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
    assert report.is_codim1 and report.codim == 1
    with pytest.raises(ValueError):
        from multmon import ClassificationReport

        ClassificationReport(
            codim=2,
            is_dominant=True,
            dominant_witness=(0,),
            is_ci=False,
            aci_witness=None,
            is_codim1=True,
        )


@pytest.fixture
def searches(monkeypatch):
    """Counts real codim searches (each starts by pruning the supports)."""
    count = [0]
    original = invariants._inclusion_minimal

    def counting(supports):
        count[0] += 1
        return original(supports)

    monkeypatch.setattr(invariants, "_inclusion_minimal", counting)
    return count


def test_facts_are_computed_once_per_ideal_object(searches):
    ideal = parse_ideal("a^3*c, a*b*e^3, a^2*b^2, c^2, d^2*e^2")
    assert codim(ideal) == codim(ideal) == 3
    assert searches[0] == 1
    assert ideal.supports[0] == frozenset(ideal.gens[0].support)

    smaller = ideal.without(0)
    assert smaller._facts == {}
    assert codim(smaller) == 2 and searches[0] == 2
    assert codim(ideal) == 3 and searches[0] == 2


def test_an_analysed_ideal_pickles():
    ideal = parse_ideal("a^2*b, b^3, c")
    report = classify(ideal)
    copy = pickle.loads(pickle.dumps(ideal))
    assert copy == ideal and classify(copy) == report


def test_one_verify_runs_few_codim_searches(searches, capsys):
    assert cli.main(["verify", "--ideal", "a^3*c, a*b*e^3, a^2*b^2, c^2, d^2*e^2"]) == 0
    capsys.readouterr()
    # classify, two pivot candidates (the second is the recurrence's m1, the
    # same object), and the recurrence's quotient ideal
    assert searches[0] == 4
