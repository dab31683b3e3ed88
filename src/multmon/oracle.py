"""Independent multiplicity oracle: minimal covers plus colength counting.

The multiplicity of S/M equals the sum, over all size-c variable covers of the
generators' supports (c = codim), of the number of standard monomials of the
ideal restricted to the cover's variables; nothing but monomial arithmetic is
shared with the power-sum engine.  Covers come from `invariants.covers`, and
each colength from one pass over the generators and a staircase count whose
slices wait on a stack (Roune, JSC 44 (2009)), in a capped box.
"""

from __future__ import annotations

from math import prod
from operator import itemgetter, lt

from .core import MonomialIdeal
from .errors import ResourceCapError
from .invariants import codim, covers

__all__ = [
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


def _staircase(vectors: list[tuple[int, ...]], bounds: list[int]) -> int:
    """Points of the box [0, b) per bound that dominate none of the vectors.

    A slice (vectors, n, c, weight) adds weight times the count of the first n
    vectors over the first c coordinates.  Cut at their distinct exponents in
    coordinate c - 1, its range falls into intervals, and the vectors active
    on each are a prefix of them sorted on that coordinate: one new slice.
    """
    count = 0
    stack = [(vectors, len(vectors), len(bounds), 1)]
    while stack:
        vectors, n, c, weight = stack.pop()
        if not n:
            count += weight * prod(bounds[:c])
        elif c == 1:
            count += weight * min(vec[0] for vec in vectors[:n])
        else:
            cut = c - 1
            ordered = sorted(vectors[:n], key=itemgetter(cut))
            start = 0
            for i, vec in enumerate(ordered):
                if vec[cut] > start:
                    stack.append((ordered, i, cut, weight * (vec[cut] - start)))
                    start = vec[cut]
            stack.append((ordered, n, cut, weight * (bounds[cut] - start)))
    return count


def _not_a_cover(ideal: MonomialIdeal, cov: list[int]) -> ValueError:
    return ValueError(f"{{{', '.join(ideal.ring.names[v] for v in cov)}}} is not a minimal cover")


def colength(ideal: MonomialIdeal, cover: frozenset[int]) -> int:
    """Standard monomials of the ideal restricted to the cover variables.

    Restricting sets every non-cover variable to 1.  One pass over the
    generators suffices, by two facts about a minimum cover:

    - Each bound comes from one generator.  Every cover variable v has a
      generator meeting the cover in v alone, or the cover minus v would be a
      smaller cover.  The least exponent b_v of v among those bounds v: any
      other restricted vector reaching b_v in v dominates that pure power.
    - A vector that reaches a bound can be dropped: no point of the box
      dominates it.  The pure powers go too.
    """
    cov = sorted(cover)
    mask = sum(1 << v for v in cov)
    if len(cov) != codim(ideal):
        raise _not_a_cover(ideal, cov)
    least: dict[int, int] = {}
    for g, s in zip(ideal.gens, ideal.supports):
        met = s & mask
        if not met:
            raise _not_a_cover(ideal, cov)
        if met.bit_count() == 1:
            v = met.bit_length() - 1
            least[v] = min(g.vec[v], least.get(v, g.vec[v]))
    bounds = [least[v] for v in cov]
    if (grid := prod(bounds)) > COLENGTH_GRID_CAP:
        raise ResourceCapError(f"colength grid of {grid} points exceeds the {COLENGTH_GRID_CAP} cap")
    mixed = [g for g, s in zip(ideal.gens, ideal.supports) if (s & mask).bit_count() > 1]
    vectors = {tuple(g.vec[v] for v in cov) for g in mixed}
    return _staircase([vec for vec in vectors if all(map(lt, vec, bounds))], bounds)


def multiplicity_associativity(ideal: MonomialIdeal) -> int:
    """Multiplicity as the sum of colengths over all minimal covers."""
    return sum(colength(ideal, cov) for cov in minimal_covers(ideal))
