"""Closed-form multiplicity and regularity formulas, each behind its hypothesis check.

Every formula here is certified elsewhere against the power-sum engine and the
associativity oracle; this module only evaluates the closed forms and refuses
inputs outside their hypotheses (raising `HypothesisError`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .core import Monomial, MonomialIdeal, gcd, gcd_all, lcm, per_ideal, subset_lcms
from .errors import HypothesisError, InternalConsistencyError
from .invariants import (
    codim,
    is_almost_complete_intersection,
    is_complete_intersection,
    is_dominant,
    pairwise_coprime,
)

__all__ = [
    "StemStructure",
    "QuadraticDominantData",
    "CISplit",
    "e_codim1",
    "e_complete_intersection",
    "detect_stem",
    "e_stem",
    "is_quadratic_dominant",
    "quadratic_dominant_data",
    "e_quadratic_dominant",
    "reg_quadratic_dominant",
    "find_ci_split",
    "validate_split",
    "e_structural",
    "aci_product_difference",
    "e_aci",
    "aci_dominant_witness",
]


def e_codim1(ideal: MonomialIdeal) -> int:
    """Multiplicity of a codimension-1 ideal: degree of the gcd of its generators."""
    if codim(ideal) != 1:
        raise HypothesisError("the gcd formula requires codimension 1")
    return gcd_all(ideal.gens).degree


def e_complete_intersection(ideal: MonomialIdeal) -> int:
    """Multiplicity of a complete intersection: product of generator degrees."""
    if not is_complete_intersection(ideal):
        raise HypothesisError("the degree-product formula requires pairwise-coprime generators")
    result = 1
    for g in ideal.gens:
        result *= g.degree
    return result


@dataclass(frozen=True)
class StemStructure:
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
    dominant, _ = is_dominant(ideal)
    if not dominant:
        return None
    q = ideal.q
    supports = ideal.supports
    component = list(range(q))

    def find(i: int) -> int:
        while component[i] != i:
            component[i] = component[component[i]]
            i = component[i]
        return i

    for i in range(q):
        for j in range(i + 1, q):
            if supports[i] & supports[j]:
                component[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for i in range(q):
        groups.setdefault(find(i), []).append(i)
    blocks = sorted(
        (tuple(sorted(members)) for members in groups.values()),
        key=lambda block: (-len(block), block[0]),
    )
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
    result = 1
    for stem in structure.stems:
        result *= stem.degree
    return result


@dataclass(frozen=True)
class QuadraticDominantData:
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
    return all(g.degree == 2 for g in ideal.gens) and is_dominant(ideal)[0]


def quadratic_dominant_data(ideal: MonomialIdeal) -> QuadraticDominantData:
    if not is_quadratic_dominant(ideal):
        if any(g.degree != 2 for g in ideal.gens):
            raise HypothesisError("all generators must have total degree 2")
        raise HypothesisError("the quadratic formulas require a dominant ideal")
    # A generator is coprime to all others when each of its variables is private.
    counts = Counter(v for s in ideal.supports for v in s)
    isolated = tuple(
        i for i, s in enumerate(ideal.supports) if all(counts[v] == 1 for v in s)
    )
    shared = tuple(sorted(v for v, n in counts.items() if n > 1))
    return QuadraticDominantData(isolated, shared)


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


@dataclass(frozen=True)
class CISplit:
    """A partition of the generator indices into a free part and a CI part."""

    free: tuple[int, ...]
    ci: tuple[int, ...]


@per_ideal
def find_ci_split(ideal: MonomialIdeal) -> CISplit | None:
    """First size-codim pairwise-coprime subset of generators, if any.

    Subsets are scanned in lexicographic index order; the complement becomes
    the free part.
    """
    c = codim(ideal)
    supports = ideal.supports
    for combo in combinations(range(ideal.q), c):
        if pairwise_coprime(supports[i] for i in combo):
            chosen = set(combo)
            free = tuple(i for i in range(ideal.q) if i not in chosen)
            return CISplit(free, combo)
    return None


def validate_split(ideal: MonomialIdeal, split: CISplit) -> None:
    """Check the structural-formula hypotheses, raising `HypothesisError` on failure."""
    claimed = sorted(split.free + split.ci)
    if claimed != list(range(ideal.q)):
        raise HypothesisError("split must partition the generator indices")
    dominant, _ = is_dominant(ideal)
    if not dominant:
        raise HypothesisError("the structural formula requires a dominant ideal")
    if not pairwise_coprime(ideal.supports[i] for i in split.ci):
        raise HypothesisError("the designated CI part is not pairwise coprime")
    if codim(ideal) != len(split.ci):
        raise HypothesisError("codimension must equal the size of the CI part")


def e_structural(ideal: MonomialIdeal, split: CISplit) -> int:
    """Alternating sum over free-part subsets of products of lcm-quotient degrees.

    The empty subset contributes + the product of the CI generators' degrees;
    a subset of size j contributes with sign (-1)^j.
    """
    validate_split(ideal, split)
    h = [ideal.gens[i] for i in split.ci]
    lcms = subset_lcms(ideal.ring, [ideal.gens[i] for i in split.free])
    total = 0
    for mask, mbar in enumerate(lcms):
        base = mbar.degree
        term = 1
        for hi in h:
            term *= lcm(mbar, hi).degree - base
        total += -term if mask.bit_count() & 1 else term
    if total <= 0:
        raise InternalConsistencyError("structural sum must be positive")
    return total


def aci_product_difference(ci_gens: list[Monomial], extra: Monomial) -> int:
    """Product of CI degrees minus the product of gcd-deflated degrees.

    A zero factor (when a CI generator divides `extra`) is kept as written;
    it simply kills the second product.
    """
    full = 1
    deflated = 1
    for g in ci_gens:
        full *= g.degree
        deflated *= g.degree - gcd(g, extra).degree
    return full - deflated


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
    dominant, _ = is_dominant(ideal)
    if dominant:
        raise HypothesisError("the ideal is already dominant")
    for i in range(ideal.q):
        if i == witness:
            continue
        reduced = ideal.without(i)
        reduced_dominant, _ = is_dominant(reduced)
        if reduced_dominant and codim(reduced) == ideal.q - 2:
            return i
    raise InternalConsistencyError(
        "no dominant reduction found for a non-dominant almost complete intersection"
    )
