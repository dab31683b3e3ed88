"""The Taylor complex of a monomial ideal and the power-sum multiplicity engine.

For an ideal with q minimal generators the complex has one face per subset of
generators; a face's multidegree is the lcm of its members and its homological
degree is the subset size.  Ranks are binomial: C(q, s) faces in degree s.

The engine evaluates, exactly, the alternating sums

    P(k) = sum over nonempty faces of (-1)^hdeg * deg(mdeg)^k

which vanish for 1 <= k < c and equal (-1)^c c! e for k = c, where c is the
codimension and e the multiplicity.  All arithmetic is arbitrary-precision
from the start; degrees repeat heavily across faces, so P(k) is evaluated
from a signed degree histogram that is computed once per ideal and cached.

Everything touching all 2^q faces is hard-capped at q <= 20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .core import Monomial, MonomialIdeal, per_ideal, quotient, subset_lcms
from .errors import InternalConsistencyError, ResourceCapError, UnsupportedError
from .invariants import codim, is_dominant

__all__ = [
    "Q_MAX",
    "TaylorFace",
    "TaylorResolution",
    "BettiTable",
    "taylor_resolution",
    "differential_coefficient",
    "is_taylor_minimal",
    "betti_table",
    "regularity_dominant",
    "ps_power_sum",
    "ps_power_sum_full",
    "multiplicity_ps",
    "lcm_degree_table",
]

Q_MAX = 20


def _require_small(ideal: MonomialIdeal) -> None:
    if ideal.q > Q_MAX:
        raise ResourceCapError(
            f"Taylor complex too large: {ideal.q} generators exceeds the q <= {Q_MAX} cap"
        )


def lcm_degree_table(ideal: MonomialIdeal) -> list[int]:
    """deg(lcm of members) for every generator bitmask; index = mask.

    Computed per variable with a subset DP over the highest set bit, so the
    whole table costs O(2^q * n) integer operations and no monomial objects;
    generators not involving the variable extend the table by a slice copy.
    """
    _require_small(ideal)
    q = ideal.q
    size = 1 << q
    deg = [0] * size
    maxv = [0] * size
    for v in ideal.used_variables():
        for i in range(q):
            bit = 1 << i
            e = ideal.gens[i].exponent(v)
            if e:
                for sub in range(bit):
                    m = maxv[sub]
                    maxv[bit + sub] = m if m >= e else e
            else:
                maxv[bit : bit + bit] = maxv[:bit]
        deg = [d + m for d, m in zip(deg, maxv)]
    return deg


@per_ideal
def _signed_degree_counts(ideal: MonomialIdeal) -> tuple[tuple[int, int], ...]:
    """Histogram of face degrees weighted by (-1)^hdeg, over nonempty faces."""
    deg = lcm_degree_table(ideal)
    counts: dict[int, int] = {}
    for mask in range(1, len(deg)):
        sign = -1 if mask.bit_count() & 1 else 1
        d = deg[mask]
        counts[d] = counts.get(d, 0) + sign
    return tuple(sorted(counts.items()))


def ps_power_sum(ideal: MonomialIdeal, k: int) -> int:
    """Alternating k-th power sum of face degrees over homological degrees >= 1.

    At k = 0 this equals -1 (the empty face is excluded; see
    `ps_power_sum_full` for the variant that includes it).
    """
    if k < 0:
        raise ValueError("power-sum exponent must be nonnegative")
    return sum(count * d**k for d, count in _signed_degree_counts(ideal))


def ps_power_sum_full(ideal: MonomialIdeal, k: int) -> int:
    """As `ps_power_sum` but including the rank-one degree-0 face, so 0 at k = 0."""
    base = ps_power_sum(ideal, k)
    return base + 1 if k == 0 else base


def multiplicity_ps(ideal: MonomialIdeal) -> int:
    """Multiplicity via the alternating power sum at k = codim.

    (-1)^c * P(c) must be a positive multiple of c!; anything else signals an
    engine bug, never bad input.
    """
    c = codim(ideal)
    total = ps_power_sum(ideal, c)
    if c & 1:
        total = -total
    fact = math.factorial(c)
    if total <= 0 or total % fact:
        raise InternalConsistencyError(
            f"power sum {total} at k = {c} is not a positive multiple of {c}!"
        )
    return total // fact


@dataclass(frozen=True)
class TaylorFace:
    """One face: a bitmask of generator indices, its size, and its lcm."""

    members: int
    hdeg: int
    mdeg: Monomial

    def member_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.members.bit_length()) if self.members >> i & 1)


@dataclass(frozen=True)
class TaylorResolution:
    """All 2^q faces of an ideal, ordered by homological degree then bitmask."""

    ideal: MonomialIdeal
    faces: tuple[TaylorFace, ...]

    def face(self, mask: int) -> TaylorFace:
        return self._by_mask[mask]

    @cached_property
    def _by_mask(self) -> dict[int, TaylorFace]:
        return {f.members: f for f in self.faces}

    def faces_of_hdeg(self, s: int) -> tuple[TaylorFace, ...]:
        return tuple(f for f in self.faces if f.hdeg == s)

    def ranks(self) -> tuple[int, ...]:
        out = [0] * (self.ideal.q + 1)
        for f in self.faces:
            out[f.hdeg] += 1
        return tuple(out)


def taylor_resolution(ideal: MonomialIdeal) -> TaylorResolution:
    """Enumerate every face with its multidegree (`core.subset_lcms`)."""
    _require_small(ideal)
    mdegs = subset_lcms(ideal.ring, ideal.gens)
    masks = sorted(range(len(mdegs)), key=lambda m: (m.bit_count(), m))
    faces = tuple(TaylorFace(m, m.bit_count(), mdegs[m]) for m in masks)
    return TaylorResolution(ideal, faces)


def differential_coefficient(
    resolution: TaylorResolution, face: TaylorFace, removed_position: int
) -> tuple[int, Monomial]:
    """Signed monomial coefficient of one term of the boundary map.

    `removed_position` is 1-based among the face's members in increasing
    generator-index order; the sign is +1 for odd positions, and the
    coefficient is mdeg(face) / mdeg(face minus that member).
    """
    members = face.member_indices()
    if not 1 <= removed_position <= len(members):
        raise ValueError(
            f"removed position {removed_position} out of range for a face of size {face.hdeg}"
        )
    removed = members[removed_position - 1]
    sub = resolution.face(face.members ^ (1 << removed))
    sign = 1 if removed_position % 2 == 1 else -1
    return sign, quotient(face.mdeg, sub.mdeg)


def is_taylor_minimal(ideal: MonomialIdeal) -> bool:
    """Whether no face shares its multidegree with one of its facets.

    Degrees decide this: a facet's multidegree divides the face's, so the
    monomials are equal exactly when the total degrees are.
    """
    deg = lcm_degree_table(ideal)
    q = ideal.q
    for mask in range(1, 1 << q):
        d = deg[mask]
        rest = mask
        while rest:
            bit = rest & -rest
            if deg[mask ^ bit] == d:
                return False
            rest ^= bit
    return True


@dataclass
class BettiTable:
    """Multigraded Betti numbers: (homological degree, multidegree) -> count.

    Stored for the quotient ring convention, so (0, unit monomial) -> 1 is
    always present.  The graded view collapses multidegrees to total degrees.
    """

    entries: dict[tuple[int, Monomial], int]

    def graded(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for (i, m), count in self.entries.items():
            key = (i, m.degree)
            out[key] = out.get(key, 0) + count
        return out

    def total(self, hdeg: int) -> int:
        return sum(count for (i, _), count in self.entries.items() if i == hdeg)

    def max_hdeg(self) -> int:
        return max(i for i, _ in self.entries)


def betti_table(ideal: MonomialIdeal) -> BettiTable:
    """Betti numbers read off the Taylor complex; requires a dominant ideal.

    For non-dominant ideals the complex is not minimal and no in-scope
    algorithm produces the minimal resolution.
    """
    dominant, _ = is_dominant(ideal)
    if not dominant:
        raise UnsupportedError(
            "Betti numbers need a dominant ideal; no algorithm in scope for others"
        )
    resolution = taylor_resolution(ideal)
    entries: dict[tuple[int, Monomial], int] = {}
    for face in resolution.faces:
        key = (face.hdeg, face.mdeg)
        entries[key] = entries.get(key, 0) + 1
    return BettiTable(entries)


def regularity_dominant(ideal: MonomialIdeal) -> int:
    """max(deg(mdeg) - hdeg) over all faces; valid only for dominant ideals."""
    dominant, _ = is_dominant(ideal)
    if not dominant:
        raise UnsupportedError("regularity via the Taylor complex needs a dominant ideal")
    deg = lcm_degree_table(ideal)
    return max(deg[mask] - mask.bit_count() for mask in range(len(deg)))
