"""Closed-form multiplicity and regularity formulas, each behind its hypothesis check.

Every formula here is certified elsewhere against the power-sum engine and the
associativity oracle; this module only evaluates the closed forms and refuses
inputs outside their hypotheses (raising `HypothesisError`).
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from .core import Monomial, MonomialIdeal, bits, gcd, gcd_all, per_ideal, subset_lcms
from .errors import HypothesisError, InternalConsistencyError, ResourceCapError
from .invariants import (
    codim,
    is_almost_complete_intersection,
    is_complete_intersection,
    is_dominant,
    support_components,
)

__all__ = [
    "StemStructure",
    "QuadraticDominantData",
    "CISplit",
    "e_codim1",
    "e_complete_intersection",
    "detect_stem",
    "e_stem",
    "quadratic_dominant_data",
    "e_quadratic_dominant",
    "reg_quadratic_dominant",
    "find_ci_split",
    "e_structural",
    "aci_product_difference",
    "e_aci",
    "aci_dominant_witness",
]

_FREE_MAX = 24  # the most free generators of a structural split, whose 2^f subset lcms are walked


def e_codim1(ideal: MonomialIdeal) -> int:
    """Multiplicity of a codimension-1 ideal: degree of the gcd of its generators."""
    if codim(ideal) != 1:
        raise HypothesisError("the gcd formula requires codimension 1")
    return gcd_all(ideal.gens).degree


def e_complete_intersection(ideal: MonomialIdeal) -> int:
    """Multiplicity of a complete intersection: product of generator degrees."""
    if not is_complete_intersection(ideal):
        raise HypothesisError("the degree-product formula requires pairwise-coprime generators")
    return prod(g.degree for g in ideal.gens)


class StemStructure(NamedTuple):
    """Partition of the generators into mutually coprime blocks with nonunit gcds.

    Blocks are ordered by size descending (ties by smallest member index) and
    hold generator indices; boundaries are the cumulative block sizes
    0 = i_0 < i_1 < ... < i_c = q.
    """

    blocks: tuple[tuple[int, ...], ...]
    stems: tuple[Monomial, ...]
    boundaries: tuple[int, ...]


@per_ideal
def detect_stem(ideal: MonomialIdeal) -> StemStructure | None:
    """Recognize a stem ideal; absence is a value, not an error.

    A dominant ideal is a stem ideal exactly when every connected component of
    the "shares a variable" graph on generators has a nonunit overall gcd; the
    components are then the unique valid blocks.
    """
    if not is_dominant(ideal):
        return None
    blocks = sorted(support_components(ideal), key=lambda block: (-len(block), block[0]))
    stems = []
    for block in blocks:
        stem = gcd_all(ideal.gens[i] for i in block)
        if stem.is_unit:
            return None
        stems.append(stem)
    if len(blocks) != codim(ideal):
        raise InternalConsistencyError("stem block count disagrees with codimension")
    boundaries = [0]
    for block in blocks:
        boundaries.append(boundaries[-1] + len(block))
    return StemStructure(tuple(blocks), tuple(stems), tuple(boundaries))


def e_stem(ideal: MonomialIdeal) -> int:
    """Multiplicity of a stem ideal: product of the stem degrees."""
    structure = detect_stem(ideal)
    if structure is None:
        raise HypothesisError("not a stem ideal")
    return prod(stem.degree for stem in structure.stems)


class QuadraticDominantData(NamedTuple):
    """Shape data of a quadratic dominant ideal.

    `isolated` are indices of generators coprime to all others; `shared_vars`
    are the variables dividing more than one generator.
    """

    isolated: tuple[int, ...]
    shared_vars: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.shared_vars)


def is_quadratic_dominant(ideal: MonomialIdeal) -> bool:
    """Whether the ideal is dominant and every generator has total degree 2."""
    return all(g.degree == 2 for g in ideal.gens) and is_dominant(ideal)


def quadratic_dominant_data(ideal: MonomialIdeal) -> QuadraticDominantData:
    if not is_quadratic_dominant(ideal):
        if any(g.degree != 2 for g in ideal.gens):
            raise HypothesisError("all generators must have total degree 2")
        raise HypothesisError("the quadratic formulas require a dominant ideal")
    isolated = tuple(block[0] for block in support_components(ideal) if len(block) == 1)
    shared = seen = 0
    for s in ideal.supports:
        shared |= seen & s
        seen |= s
    return QuadraticDominantData(isolated, tuple(bits(shared)))


def e_quadratic_dominant(ideal: MonomialIdeal) -> int:
    """2 to the number of generators coprime to all others."""
    data = quadratic_dominant_data(ideal)
    return 2 ** len(data.isolated)


def reg_quadratic_dominant(ideal: MonomialIdeal) -> int:
    """Regularity of a quadratic dominant ideal: #isolated + #shared variables.

    The value must equal the codimension; a mismatch is an engine bug.
    """
    data = quadratic_dominant_data(ideal)
    reg = len(data.isolated) + data.k
    if reg != codim(ideal):
        raise InternalConsistencyError("quadratic regularity disagrees with codimension")
    return reg


class CISplit(NamedTuple):
    """A partition of the generator indices into a free part and a CI part."""

    free: tuple[int, ...]
    ci: tuple[int, ...]


@per_ideal
def find_ci_split(ideal: MonomialIdeal) -> CISplit | None:
    """Lexicographically first size-codim pairwise-coprime subset of generators, if any.

    A depth-first search in index order adds a generator only when it is coprime
    to those chosen and enough later ones remain; the complement is the free part.
    Coprime supports are disjoint, so the c smallest must fit in the used variables.
    """
    c, q, supports = codim(ideal), ideal.q, ideal.supports
    if sum(sorted(map(int.bit_count, supports))[:c]) > len(ideal.used_variables()):
        return None
    chosen, used, i = [], 0, 0
    while len(chosen) < c:
        if i + c - len(chosen) > q:  # too few generators left: drop the last chosen
            if not chosen:
                return None
            i = chosen.pop()
            used ^= supports[i]  # exactly its variables: the chosen supports are disjoint
        elif not used & supports[i]:
            chosen.append(i)
            used |= supports[i]
        i += 1
    return CISplit(tuple(i for i in range(q) if i not in chosen), tuple(chosen))


def structural_split(ideal: MonomialIdeal) -> CISplit:
    """The split both structural routes run on: `find_ci_split`'s, for a dominant ideal only."""
    if not is_dominant(ideal):  # cached and cheap; the split search is not
        raise HypothesisError("the structural formula requires a dominant ideal")
    split = find_ci_split(ideal)
    if split is None:
        raise HypothesisError("no pairwise-coprime subset of size codim exists")
    if (f := len(split.free)) > _FREE_MAX:  # the routes walk 2^f subset lcms
        raise ResourceCapError(f"subset lcms of {f} generators exceed the q <= {_FREE_MAX} cap")
    return split


def e_structural(ideal: MonomialIdeal) -> int:
    """Alternating sum over free-part subsets of products of lcm-quotient degrees.

    The empty subset contributes + the product of the CI generators' degrees;
    a subset of size j contributes with sign (-1)^j.  The split is `structural_split`'s.
    """
    split = structural_split(ideal)
    h = [ideal.gens[i].exps for i in split.ci]
    lcms = subset_lcms(ideal.ring, [ideal.gens[i] for i in split.free])
    total = 0
    for mask, mbar in enumerate(lcms):
        term = 1
        for hi in h:  # deg lcm(mbar, h_i) - deg mbar: what h_i's own variables add
            rise = 0
            for v, e in hi:  # plain loops: a comprehension per factor takes 3x as long
                if e > mbar[v]:
                    rise += e - mbar[v]
            term *= rise
        total += -term if mask.bit_count() & 1 else term
    if total <= 0:
        raise InternalConsistencyError("structural sum must be positive")
    return total


def aci_product_difference(ci_gens: list[Monomial], extra: Monomial) -> int:
    """Product of CI degrees minus the product of gcd-deflated degrees.

    A zero factor (when a CI generator divides `extra`) is kept as written;
    it simply kills the second product.
    """
    full = prod(g.degree for g in ci_gens)
    return full - prod(g.degree - gcd(g, extra).degree for g in ci_gens)


def e_aci(ideal: MonomialIdeal) -> int:
    """Multiplicity of an almost complete intersection."""
    witness = is_almost_complete_intersection(ideal)
    if witness is None:
        raise HypothesisError("not an almost complete intersection")
    extra = ideal.gens[witness]
    ci = [g for i, g in enumerate(ideal.gens) if i != witness]
    value = aci_product_difference(ci, extra)
    if value < 1:
        raise InternalConsistencyError("ACI multiplicity must be positive")
    return value


def aci_dominant_witness(ideal: MonomialIdeal) -> int:
    """Index of a CI generator whose removal leaves a dominant ACI.

    Applies to non-dominant almost complete intersections only; existence is
    guaranteed, so exhausting all candidates is an engine bug.
    """
    witness = is_almost_complete_intersection(ideal)
    if witness is None:
        raise HypothesisError("not an almost complete intersection")
    if is_dominant(ideal):
        raise HypothesisError("the ideal is already dominant")
    for i in range(ideal.q):
        if i == witness:
            continue
        reduced = ideal.without(i)
        if is_dominant(reduced) and codim(reduced) == ideal.q - 2:
            return i
    raise InternalConsistencyError(
        "no dominant reduction found for a non-dominant almost complete intersection"
    )
