"""The Taylor complex of a monomial ideal and the power-sum multiplicity engine.

For an ideal with q minimal generators the complex has one face per subset of
generators.  A face is a bitmask into one list of subset lcms: its
multidegree is `mdegs[mask]`, the lcm of its members, and its homological
degree is `mask.bit_count()`.  Ranks are binomial: C(q, s) faces in degree s.

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
from operator import add

from .core import Monomial, MonomialIdeal, lcm_columns, per_ideal, quotient, subset_lcms
from .errors import InternalConsistencyError, ResourceCapError, UnsupportedError
from .invariants import codim, is_dominant

__all__ = [
    "Q_MAX",
    "TaylorResolution",
    "BettiTable",
    "face_order",
    "member_indices",
    "taylor_resolution",
    "differential_coefficient",
    "is_taylor_minimal",
    "betti_table",
    "regularity_dominant",
    "ps_power_sum",
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

    The sum of the `core.lcm_columns` columns of the used variables: O(2^q * n)
    integer operations and no monomial objects.
    """
    _require_small(ideal)
    deg = [0] * (1 << ideal.q)
    for col in lcm_columns(ideal.gens, ideal.used_variables()):
        deg = list(map(add, deg, col))
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

    At k = 0 this equals -1: the empty face is excluded.
    """
    if k < 0:
        raise ValueError("power-sum exponent must be nonnegative")
    return sum(count * d**k for d, count in _signed_degree_counts(ideal))


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


def face_order(q: int) -> list[int]:
    """Face masks of a q-generator complex by homological degree, then bitmask."""
    return sorted(range(1 << q), key=lambda m: (m.bit_count(), m))


def member_indices(mask: int) -> tuple[int, ...]:
    """Generator indices of a face, in increasing order."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class TaylorResolution:
    """The Taylor complex of an ideal as one lcm list.

    Face `mask` (a bitmask of generator indices) has homological degree
    `mask.bit_count()` and multidegree `mdegs[mask]`.
    """

    ideal: MonomialIdeal
    mdegs: list[Monomial]

    def ranks(self) -> tuple[int, ...]:
        q = self.ideal.q
        return tuple(math.comb(q, s) for s in range(q + 1))


def taylor_resolution(ideal: MonomialIdeal) -> TaylorResolution:
    """Every face's multidegree (`core.subset_lcms`)."""
    _require_small(ideal)
    return TaylorResolution(ideal, subset_lcms(ideal.ring, ideal.gens))


def differential_coefficient(
    resolution: TaylorResolution, mask: int, removed_position: int
) -> tuple[int, Monomial]:
    """Signed monomial coefficient of one term of the boundary map.

    `removed_position` is 1-based among the face's members in increasing
    generator-index order; the sign is +1 for odd positions, and the
    coefficient is mdeg(face) / mdeg(face minus that member).
    """
    members = member_indices(mask)
    if not 1 <= removed_position <= len(members):
        raise ValueError(
            f"removed position {removed_position} out of range for a face of size {len(members)}"
        )
    removed = members[removed_position - 1]
    sign = 1 if removed_position % 2 == 1 else -1
    mdegs = resolution.mdegs
    return sign, quotient(mdegs[mask], mdegs[mask ^ (1 << removed)])


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
    mdegs = taylor_resolution(ideal).mdegs
    # A witness exponent appears in an lcm iff its generator is a member: no two faces collide.
    return BettiTable({(mask.bit_count(), m): 1 for mask, m in enumerate(mdegs)})


def regularity_dominant(ideal: MonomialIdeal) -> int:
    """max(deg(mdeg) - hdeg) over all faces; valid only for dominant ideals."""
    dominant, _ = is_dominant(ideal)
    if not dominant:
        raise UnsupportedError("regularity via the Taylor complex needs a dominant ideal")
    deg = lcm_degree_table(ideal)
    return max(deg[mask] - mask.bit_count() for mask in range(len(deg)))
