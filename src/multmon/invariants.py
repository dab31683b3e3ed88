"""Codimension, dominance, and (almost) complete-intersection classification.

The codimension of a monomial ideal equals the minimum size of a set of
variables meeting every minimal generator's support.  `covers` searches each
connected component of the supports at increasing sizes from a disjoint
packing (which prunes, never approximates); the oracle lists its covers with
the same search.  Each fact here is computed once per ideal (`core.per_ideal`).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .core import MonomialIdeal, bits, per_ideal
from .errors import InternalConsistencyError

__all__ = [
    "codim",
    "dominance_witnesses",
    "is_dominant",
    "is_complete_intersection",
    "is_almost_complete_intersection",
    "ClassificationReport",
    "classify",
]


def _packing(supports: Sequence[int]) -> int:
    """Greedy count of pairwise-disjoint supports in list order: a lower bound on any cover."""
    used = count = 0
    for s in supports:
        if not s & used:
            used |= s
            count += 1
    return count


def covers(supports: list[int], size: int) -> Iterator[int]:
    """Yield covers, of at most `size` variables, of the support bitmasks, as bitmasks.

    Branches on the smallest support and bans each tried variable from its
    later siblings; a branch is entered only while a packing of what it leaves
    uncovered fits.  Yields nothing only when no such cover exists, and at the
    least size yields every cover exactly once.  The branches live on a stack,
    not in recursion, so a cover may have any size: a frame holds the supports,
    the size left, the variables chosen, the pivot's untried variables and the
    variable to ban when the frame is popped.
    """
    if size < 1:
        return
    stack = [(supports, size, 0, min(supports, key=int.bit_count), 0)]
    while stack:
        supports, size, chosen, pivot, ban = stack.pop()
        if ban:  # a sibling bans fewer variables than its pivot, the least support, has: none empties
            supports = [s & ~ban for s in supports]
        bit = pivot & -pivot
        if pivot ^ bit:  # the next sibling: popped once this branch is done
            stack.append((supports, size, chosen, pivot ^ bit, bit))
        rest = [s for s in supports if not s & bit]
        if not rest:
            yield chosen | bit
        elif _packing(rest) < size:
            stack.append((rest, size - 1, chosen | bit, min(rest, key=int.bit_count), 0))


def has_cover(supports: list[int], size: int) -> bool:
    """Whether some cover of at most `size` variables meets every support bitmask."""
    if not supports:  # no variable covers an empty list
        return size >= 0
    return _packing(supports) <= size and any(covers(supports, size))


def _components(supports: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Sorted indices of each component of the shares-a-variable graph, by first index."""
    groups: list[tuple[int, list[int]]] = []
    for i, s in enumerate(supports):
        members = [i]
        kept = []
        for variables, block in groups:
            if s & variables:
                s |= variables
                members += block
            else:
                kept.append((variables, block))
        groups = [*kept, (s, members)]
    return tuple(sorted(tuple(sorted(block)) for _, block in groups))


@per_ideal
def support_components(ideal: MonomialIdeal) -> tuple[tuple[int, ...], ...]:
    """`_components` of the generators' supports."""
    return _components(ideal.supports)


def least_cover(supports: Sequence[int], blocks: Sequence[Sequence[int]]) -> int:
    """Minimum number of variables meeting every support bitmask: the codim of their ideal.

    Least covers of components add up, so each is searched apart; `blocks` gives their
    `_components`.  A packing that takes every support is least.  Each component's
    supports are ordered as a walk (next, the first one meeting the last one taken): a
    packing in that order follows the shape of the support graph, not the variable names
    that fix the generator order.
    """
    total = 0
    for block in blocks:
        walk = list(dict.fromkeys(supports[i] for i in block))
        for j in range(1, len(walk) - 1):
            last = walk[j - 1]
            for k in range(j, len(walk)):
                if walk[k] & last:
                    walk.insert(j, walk.pop(k))
                    break
        size = _packing(walk)  # sizes from the packing up: `has_cover`'s packing test would repeat it
        while size < len(walk) and not next(covers(walk, size), 0):
            size += 1
        total += size
    return total


@per_ideal
def codim(ideal: MonomialIdeal) -> int:
    """Minimum number of variables meeting every generator's support (`least_cover`)."""
    return least_cover(ideal.supports, support_components(ideal))


@per_ideal
def dominance_witnesses(ideal: MonomialIdeal) -> tuple[int | None, ...]:
    """Per generator, the least variable whose exponent strictly beats all others.

    `None` marks a generator with no such variable (a non-dominant generator).
    A variable can witness only the generator that alone reaches its top
    exponent; only the variables in each generator's support are read.
    """
    top: dict[int, int] = {}
    holder: dict[int, int | None] = {}  # the generator alone at the top, if one is
    for i, (g, s) in enumerate(zip(ideal.gens, ideal.supports)):
        vec = g.vec
        for v in bits(s):
            e = vec[v]
            t = top.get(v, 0)
            if e > t:
                top[v] = e
                holder[v] = i
            elif e == t:
                holder[v] = None
    witnesses: list[int | None] = [None] * ideal.q
    for v in sorted(holder):
        i = holder[v]
        if i is not None and witnesses[i] is None:
            witnesses[i] = v
    return tuple(witnesses)


def is_dominant(ideal: MonomialIdeal) -> bool:
    """Whether every generator has a strictly private exponent (see `dominance_witnesses`)."""
    return None not in dominance_witnesses(ideal)


@per_ideal
def is_complete_intersection(ideal: MonomialIdeal) -> bool:
    """True when the minimal generators are pairwise coprime: the packing takes them all."""
    return _packing(ideal.supports) == ideal.q


@per_ideal
def is_almost_complete_intersection(ideal: MonomialIdeal) -> int | None:
    """Index of the extra generator if the ideal is an almost complete intersection.

    The ideal qualifies when removing one generator leaves a pairwise-coprime
    set whose size equals the codimension; the smallest such index is returned,
    and `None` means no removal works (so also for complete intersections).
    """
    q, supports = ideal.q, ideal.supports
    if codim(ideal) != q - 1:
        return None
    for t in range(q):
        if _packing(supports[:t] + supports[t + 1 :]) == q - 1:
            return t
    return None


class ClassificationReport(NamedTuple):
    """Summary of the hypothesis-relevant shape of an ideal."""

    codim: int
    dominant_witness: tuple[int | None, ...]
    is_ci: bool
    aci_witness: int | None

    @property
    def is_codim1(self) -> bool:
        return self.codim == 1

    @property
    def is_dominant(self) -> bool:
        return None not in self.dominant_witness


def classify(ideal: MonomialIdeal) -> ClassificationReport:
    c = codim(ideal)
    ci = is_complete_intersection(ideal)
    if ci != (c == ideal.q):
        raise InternalConsistencyError("coprimality test disagrees with codimension")
    return ClassificationReport(
        codim=c,
        dominant_witness=dominance_witnesses(ideal),
        is_ci=ci,
        aci_witness=is_almost_complete_intersection(ideal),
    )
