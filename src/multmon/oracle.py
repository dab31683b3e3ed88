"""Independent multiplicity oracle: minimal covers plus colength counting.

The multiplicity of S/M equals the sum, over all size-c variable covers of the
generators' supports (c = codim), of the number of standard monomials of the
ideal restricted to the cover's variables.  This path shares nothing with the
power-sum engine beyond monomial arithmetic, and both halves are
output-sensitive: covers come from the pruned search `invariants.covers`,
the same one that finds c, and colengths from a staircase count that cuts
each variable's range at the generators' distinct exponents (the slice idea of
Roune, JSC 44 (2009)).  The counting box is still capped, erroring out past
the cap rather than approximating.
"""

from __future__ import annotations

from math import prod

from .core import MonomialIdeal
from .errors import ResourceCapError
from .invariants import codim, covers

__all__ = [
    "COLENGTH_GRID_CAP",
    "minimal_covers",
    "colength",
    "multiplicity_associativity",
]

COLENGTH_GRID_CAP = 10**7


def minimal_covers(ideal: MonomialIdeal) -> list[frozenset[int]]:
    """All variable sets of size exactly codim meeting every generator's support.

    Any cover of that size is automatically minimal, so no post-filter is
    needed.  The pruned search `invariants.covers` finds them: its cost grows
    with the covers and dead branches it meets, not with the C(n, codim)
    variable subsets.  Covers are listed in lexicographic variable order.
    """
    supports = list(dict.fromkeys(ideal.supports))
    found = [[v for v in range(m.bit_length()) if m >> v & 1] for m in covers(supports, codim(ideal))]
    return [frozenset(cover) for cover in sorted(found)]


def _restricted_vectors(ideal: MonomialIdeal, cov: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Generators restricted to the cover variables, as inclusion-minimal vectors."""
    vectors = sorted(
        {tuple(g.exponent(v) for v in cov) for g in ideal.gens},
        key=sum,
    )
    kept: list[tuple[int, ...]] = []
    for vec in vectors:
        if not any(all(w <= x for w, x in zip(prev, vec)) for prev in kept):
            kept.append(vec)
    return kept


def _staircase(vectors: list[tuple[int, ...]], bounds: list[int]) -> int:
    """Points of the box [0, b) per bound that dominate none of the vectors.

    Recurses on the last variable: its range is cut at the vectors' distinct
    last exponents, and on each interval the count is the interval's length
    times the count of the one-variable-shorter slice of the vectors active
    there (those whose last exponent is at most the interval's start).
    """
    if not vectors:
        return prod(bounds)
    *rest, b = bounds
    if not rest:
        return min(b, min(vec[0] for vec in vectors))
    ordered = sorted(vectors, key=lambda vec: vec[-1])
    active: list[tuple[int, ...]] = []
    count = start = i = 0
    while start < b:
        while i < len(ordered) and ordered[i][-1] <= start:
            active.append(ordered[i][:-1])
            i += 1
        end = min(ordered[i][-1], b) if i < len(ordered) else b
        count += (end - start) * _staircase(active, rest)
        start = end
    return count


def colength(ideal: MonomialIdeal, cover: frozenset[int]) -> int:
    """Standard monomials of the ideal restricted to the cover variables.

    Restricting sets every non-cover variable to 1; minimality of the cover
    guarantees some restricted generator is a pure power of each cover
    variable, so the count is finite and each exponent is bounded by the
    largest exponent of its variable among restricted generators.  The box
    those bounds span is capped, but it is not walked: the staircase count
    costs at most min(box, (q+1)^c) slices, which grows with the number of
    distinct exponents rather than with the box.
    """
    cov = tuple(sorted(cover))
    mask = sum(1 << v for v in cov)
    if len(cov) != codim(ideal) or not all(mask & s for s in ideal.supports):
        raise ValueError(f"{{{', '.join(ideal.ring.names[v] for v in cov)}}} is not a minimal cover")
    restricted = _restricted_vectors(ideal, cov)
    bounds = [max(vec[p] for vec in restricted) for p in range(len(cov))]
    grid = prod(bounds)
    if grid > COLENGTH_GRID_CAP:
        raise ResourceCapError(
            f"colength grid of {grid} points exceeds the {COLENGTH_GRID_CAP} cap"
        )
    return _staircase(restricted, bounds)


def multiplicity_associativity(ideal: MonomialIdeal) -> int:
    """Multiplicity as the sum of colengths over all minimal covers."""
    return sum(colength(ideal, cov) for cov in minimal_covers(ideal))
