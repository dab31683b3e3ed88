"""Codimension, dominance, and (almost) complete-intersection classification.

The codimension of a monomial ideal equals the minimum size of a set of
variables meeting every minimal generator's support, so it is computed as an
exact minimum vertex cover of the support hypergraph (branch and bound with a
greedy upper bound; heuristics prune, never approximate).  Each fact here
is computed once per ideal (`core.per_ideal`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import MonomialIdeal, per_ideal
from .errors import InternalConsistencyError

__all__ = [
    "codim",
    "pairwise_coprime",
    "dominance_witnesses",
    "is_dominant",
    "is_complete_intersection",
    "is_almost_complete_intersection",
    "ClassificationReport",
    "classify",
]


def _inclusion_minimal(supports: Iterable[frozenset[int]]) -> list[frozenset[int]]:
    # A cover of a subset also covers every superset, so supersets are noise.
    unique = sorted(set(supports), key=len)
    kept: list[frozenset[int]] = []
    for s in unique:
        if not any(t <= s for t in kept):
            kept.append(s)
    return kept


def _greedy_cover(supports: list[frozenset[int]]) -> int:
    uncovered = list(supports)
    size = 0
    while uncovered:
        counts: dict[int, int] = {}
        for s in uncovered:
            for v in s:
                counts[v] = counts.get(v, 0) + 1
        top = max(counts.values())
        best = min(v for v in counts if counts[v] == top)
        uncovered = [s for s in uncovered if best not in s]
        size += 1
    return size


def _disjoint_lower_bound(supports: list[frozenset[int]]) -> int:
    # Pairwise disjoint supports need pairwise distinct cover variables.
    chosen: list[frozenset[int]] = []
    for s in sorted(supports, key=len):
        if all(not (s & t) for t in chosen):
            chosen.append(s)
    return len(chosen)


@per_ideal
def codim(ideal: MonomialIdeal) -> int:
    """Minimum number of variables meeting every generator's support."""
    supports = _inclusion_minimal(ideal.supports)
    best = _greedy_cover(supports)

    def search(chosen: int, uncovered: list[frozenset[int]]) -> None:
        nonlocal best
        if not uncovered:
            if chosen < best:
                best = chosen
            return
        if chosen + _disjoint_lower_bound(uncovered) >= best:
            return
        pivot = min(uncovered, key=len)
        for v in sorted(pivot):
            search(chosen + 1, [s for s in uncovered if v not in s])

    search(0, supports)
    return best


def pairwise_coprime(supports: Iterable[frozenset[int]]) -> bool:
    """True when no two of the given variable sets share a variable."""
    seen: set[int] = set()
    for s in supports:
        if not seen.isdisjoint(s):
            return False
        seen |= s
    return True


@per_ideal
def dominance_witnesses(ideal: MonomialIdeal) -> tuple[int | None, ...]:
    """Per generator, the least variable whose exponent strictly beats all others.

    `None` marks a generator with no such variable (a non-dominant generator).
    """
    gens = ideal.gens
    witnesses: list[int | None] = []
    for i, g in enumerate(gens):
        found = None
        for v, e in enumerate(g.vec):
            if e and all(other.vec[v] < e for j, other in enumerate(gens) if j != i):
                found = v
                break
        witnesses.append(found)
    return tuple(witnesses)


def is_dominant(ideal: MonomialIdeal) -> tuple[bool, tuple[int | None, ...]]:
    """Whether every generator has a strictly private exponent, with witnesses."""
    witnesses = dominance_witnesses(ideal)
    return all(w is not None for w in witnesses), witnesses


@per_ideal
def is_complete_intersection(ideal: MonomialIdeal) -> bool:
    """True when the minimal generators are pairwise coprime."""
    return pairwise_coprime(ideal.supports)


@per_ideal
def is_almost_complete_intersection(ideal: MonomialIdeal) -> int | None:
    """Index of the extra generator if the ideal is an almost complete intersection.

    The ideal qualifies when removing one generator leaves a pairwise-coprime
    set whose size equals the codimension; the smallest such index is returned,
    and `None` means no removal works (so also for complete intersections).
    """
    q = ideal.q
    if codim(ideal) != q - 1:
        return None
    for t in range(q):
        if pairwise_coprime(s for j, s in enumerate(ideal.supports) if j != t):
            return t
    return None


@dataclass(frozen=True)
class ClassificationReport:
    """Summary of the hypothesis-relevant shape of an ideal."""

    codim: int
    is_dominant: bool
    dominant_witness: tuple[int | None, ...]
    is_ci: bool
    aci_witness: int | None
    is_codim1: bool

    def __post_init__(self):
        if self.is_codim1 != (self.codim == 1):
            raise ValueError("codim-1 flag inconsistent with codimension")


def classify(ideal: MonomialIdeal) -> ClassificationReport:
    c = codim(ideal)
    dominant, witnesses = is_dominant(ideal)
    ci = is_complete_intersection(ideal)
    if ci != (c == ideal.q):
        raise InternalConsistencyError("coprimality test disagrees with codimension")
    return ClassificationReport(
        codim=c,
        is_dominant=dominant,
        dominant_witness=witnesses,
        is_ci=ci,
        aci_witness=is_almost_complete_intersection(ideal),
        is_codim1=c == 1,
    )
