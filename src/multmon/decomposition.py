"""Pivot decomposition of an ideal and the structural Betti/multiplicity identity.

Removing a dominant generator m splits an ideal into the ideal of the other
generators and the ideal of lcm-quotients lcm(m, m_j)/m; multiplicities then
satisfy a two-case recurrence depending on how the quotient ideal's
codimension compares.

Independently, when the generators split into a free part and a pairwise
coprime part of size codim, the Betti table of the whole ideal is the sum of
shifted Betti tables of one small complete intersection per free-part subset.

Each route takes only the ideal and finds its own witness: the recurrence
uses the smallest dominant pivot that keeps the codimension (`recurrence_parts`,
built once per ideal, asks only whether the other generators have a smaller
cover), the Betti identity the split `formulas.structural_split` finds.
"""

from __future__ import annotations

from operator import add, sub
from typing import NamedTuple

from .core import Monomial, MonomialIdeal, lcm, minimalize, per_ideal, quotient, record, subset_lcms
from .errors import HypothesisError, InternalConsistencyError
from .formulas import structural_split
from .invariants import codim, dominance_witnesses, has_cover
from .taylor import BettiTable, betti_table, face_order, multiplicity_ps

__all__ = [
    "ThirdDecomposition",
    "DecompositionTerm",
    "third_decomposition",
    "multiplicity_recurrence",
    "structural_terms",
    "betti_decomposition",
]


class ThirdDecomposition(NamedTuple):
    """The two sub-ideals produced by removing a dominant pivot generator."""

    pivot: int
    m1: MonomialIdeal
    mm1: MonomialIdeal


def third_decomposition(ideal: MonomialIdeal, pivot: int) -> ThirdDecomposition:
    """Split off generator `pivot`: the rest, and the minimalized lcm-quotients.

    Every quotient lcm(m_pivot, m_j)/m_pivot is nonunit because no generator
    divides another in a minimal generating set.
    """
    if ideal.q < 2:
        raise HypothesisError("the decomposition needs at least two generators")
    if not 0 <= pivot < ideal.q:
        raise ValueError(f"pivot index {pivot} out of range")
    if dominance_witnesses(ideal)[pivot] is None:
        raise HypothesisError("the pivot generator must be dominant")
    ring, m = ideal.ring, ideal.gens[pivot].vec
    m1 = ideal.without(pivot)
    quotients = [Monomial(ring, tuple(map(sub, map(max, m, g.vec), m))) for g in m1.gens]
    return ThirdDecomposition(pivot=pivot, m1=m1, mm1=minimalize(ring, quotients))


@per_ideal
def recurrence_parts(ideal: MonomialIdeal) -> ThirdDecomposition | None:
    """The decomposition at the smallest dominant pivot that keeps the codimension, if any.

    A removal cannot raise the codimension c, so a candidate keeps it unless the other supports
    have a cover of c - 1 variables (`has_cover`); only the winner's is built, its M1 handed c.
    """
    if ideal.q < 2:
        return None
    c, supports = codim(ideal), ideal.supports
    for i, w in enumerate(dominance_witnesses(ideal)):
        if w is not None and not has_cover(supports[:i] + supports[i + 1 :], c - 1):
            parts = third_decomposition(ideal, i)
            record(codim, parts.m1, c)
            return parts
    return None


def multiplicity_recurrence(ideal: MonomialIdeal) -> int:
    """Multiplicity via the pivot recurrence at `recurrence_parts`' pivot: codim(M1) = codim(M).

    When the quotient ideal keeps the codimension the answer is the
    difference of the two sub-multiplicities; when its codimension grows the
    quotient term drops out entirely.
    """
    parts = recurrence_parts(ideal)
    if parts is None:
        raise HypothesisError("no dominant pivot preserves the codimension")
    c, cm = codim(ideal), codim(parts.mm1)
    if cm == c:
        value = multiplicity_ps(parts.m1) - multiplicity_ps(parts.mm1)
    elif cm > c:
        value = multiplicity_ps(parts.m1)
    else:
        raise InternalConsistencyError("quotient ideal dropped below the ambient codimension")
    if value < 1:
        raise InternalConsistencyError("recurrence produced a nonpositive multiplicity")
    return value


class DecompositionTerm(NamedTuple):
    """One free-part subset's contribution to the structural identity.

    `quotients` is the full length-c list lcm(mbar, h_i)/mbar (units possible
    in principle, and kept, because the multiplicity product ranges over all c
    of them); `ideal` is the minimalized ideal of the nonunit quotients.
    """

    j: int
    mbar: Monomial
    quotients: tuple[Monomial, ...]
    ideal: MonomialIdeal


def structural_terms(ideal: MonomialIdeal) -> list[DecompositionTerm]:
    """One term per subset of the free part of `structural_split`'s split, by size then bitmask."""
    split = structural_split(ideal)
    h = [ideal.gens[i] for i in split.ci]
    lcms = subset_lcms(ideal.ring, [ideal.gens[i] for i in split.free])
    terms = []
    for mask in face_order(len(split.free)):
        mbar = Monomial(ideal.ring, lcms[mask])
        quotients = tuple(quotient(lcm(mbar, hi), mbar) for hi in h)
        nonunit = [m for m in quotients if not m.is_unit]
        if not nonunit:
            raise InternalConsistencyError("all structural quotients collapsed to units")
        terms.append(
            DecompositionTerm(
                j=mask.bit_count(),
                mbar=mbar,
                quotients=quotients,
                ideal=minimalize(ideal.ring, nonunit),
            )
        )
    return terms


def betti_decomposition(ideal: MonomialIdeal) -> BettiTable:
    """Betti table assembled from the structural terms.

    Each term's table (a complete intersection's, hence computable from its
    Taylor complex) is shifted by (j, adding mbar's exponents) and the counts
    are summed; the assembly is multigraded, so collisions in total degree
    are preserved.
    """
    entries: dict[tuple[int, tuple[int, ...]], int] = {}
    for term in structural_terms(ideal):
        for (i, vec), count in betti_table(term.ideal).entries.items():
            key = (i + term.j, tuple(map(add, vec, term.mbar.vec)))
            entries[key] = entries.get(key, 0) + count
    return BettiTable(entries)
