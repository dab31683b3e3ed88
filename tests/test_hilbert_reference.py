"""Reference check: multiplicity from raw Hilbert-function sampling.

Counts standard monomials degree by degree through direct enumeration and
extracts the multiplicity as the stabilized finite difference (or, in the
Artinian case, the total count).  Shares nothing with the power-sum engine or
the cover oracle beyond exponent access, so a three-way agreement pins all of
them to the textbook quantity.
"""

from __future__ import annotations

import random

from multmon import codim, multiplicity_associativity, multiplicity_ps
from multmon.core import MonomialIdeal
from multmon.generate import random_ideal


def hilbert_count(ideal: MonomialIdeal, d: int) -> int:
    """Number of degree-d monomials outside the ideal, by enumeration."""
    n = len(ideal.ring)
    gens = [g.vec for g in ideal.gens]
    count = 0
    vec = [0] * n

    def rec(i: int, remaining: int) -> None:
        nonlocal count
        if i == n - 1:
            vec[i] = remaining
            if not any(all(g[j] <= vec[j] for j in range(n)) for g in gens):
                count += 1
            return
        for e in range(remaining + 1):
            vec[i] = e
            rec(i + 1, remaining - e)

    rec(0, d)
    return count


def multiplicity_hilbert(ideal: MonomialIdeal, tail: int = 6) -> int:
    n = len(ideal.ring)
    dim = n - codim(ideal)
    start = max(g.degree for g in ideal.gens) * 2 + 2  # safely past regularity
    if dim == 0:
        total, d = 0, 0
        while True:
            h = hilbert_count(ideal, d)
            total += h
            if h == 0 and d > start:
                return total
            d += 1
    values = [hilbert_count(ideal, d) for d in range(start, start + dim + tail)]
    for _ in range(dim - 1):
        values = [b - a for a, b in zip(values, values[1:])]
    assert len(set(values)) == 1, (str(ideal), values)
    return values[0]


def test_engine_and_oracle_match_hilbert_reference():
    rng = random.Random(424242)
    for _ in range(80):
        ideal = random_ideal(rng, max_gens=5, max_vars=4, max_exp=3)
        reference = multiplicity_hilbert(ideal)
        assert reference == multiplicity_ps(ideal) == multiplicity_associativity(ideal), str(ideal)


def test_hilbert_reference_on_golden_examples():
    from multmon import parse_ideal

    example = parse_ideal("a^3*c, a*b*e^3, a^2*b^2, c^2, d^2*e^2")
    assert multiplicity_hilbert(example) == 18
    stem = parse_ideal("a^2*b*c, b^3*c, c^4, d^2*e^2, d*e*f, d*g^2")
    assert multiplicity_hilbert(stem) == 1
