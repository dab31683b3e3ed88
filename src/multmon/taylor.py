"""The Taylor complex of a monomial ideal and the power-sum multiplicity engine.

For an ideal with q minimal generators the complex has one face per subset of
generators.  A face is a bitmask into mask-indexed lists read off the packed
subset-lcm deficit columns (`core.lcm_columns`, one big integer per variable):
`degrees[mask]` is the total degree of the lcm of its members and
`labels[mask]` that lcm rendered as text; its homological degree is
`mask.bit_count()`.  Ranks are binomial: C(q, s) faces in degree s.
The lcms themselves (`mdegs`) are exponent tuples, built only when asked for.
For a dominant ideal the complex is the minimal free resolution
(`minimal_resolution`), so each face is one multigraded Betti number.

The engine counts one signed degree histogram, the Hilbert-series numerator
of S/I (Bayer-Stillman 1992, Bigatti 1997), and reads the power sums off it:

    K(t) = sum over all faces F of (-1)^|F| * t^deg(lcm F)
    P(k) = sum over nonempty faces of (-1)^hdeg * deg(mdeg)^k = sum_d K_d d^k - 0^k

P(k) vanishes for 1 <= k < c and equals (-1)^c c! e at k = c, where c is the
codimension and e the multiplicity; all arithmetic is arbitrary-precision.
K is counted in C from one table of each face's shortfall from deg lcm(all),
the summed deficits, and cached on the ideal: a sweep over k builds one table,
no exponent column is formed and no Python code runs per face.

Everything touching all 2^q faces is hard-capped at q <= 20.  Minimality and
regularity touch none: both follow from the dominance witnesses.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import sub

from .core import (
    Monomial,
    MonomialIdeal,
    lcm_columns,
    packed_ones,
    per_ideal,
    subset_lcms,
    unpack_fields,
)
from .errors import InternalConsistencyError, ResourceCapError, UnsupportedError
from .invariants import codim, is_dominant

__all__ = [
    "Q_MAX",
    "TaylorResolution",
    "BettiTable",
    "face_order",
    "member_indices",
    "taylor_resolution",
    "minimal_resolution",
    "differential_coefficient",
    "is_taylor_minimal",
    "betti_table",
    "regularity_dominant",
    "ps_power_sum",
    "multiplicity_ps",
    "lcm_degree_table",
    "taylor_numerator",
]

Q_MAX = 20


def _require_small(ideal: MonomialIdeal) -> None:
    if ideal.q > Q_MAX:
        raise ResourceCapError(
            f"Taylor complex too large: {ideal.q} generators exceeds the q <= {Q_MAX} cap"
        )


def _require_dominant(ideal: MonomialIdeal) -> None:
    if not is_dominant(ideal):
        raise UnsupportedError(
            "Betti numbers need a dominant ideal; no algorithm in scope for others"
        )


def lcm_degree_table(ideal: MonomialIdeal) -> memoryview:
    """2 * (deg lcm(all) - deg lcm(members)) + (|members| mod 2) per bitmask; index = mask.

    Field 0, the empty face's, is 2 * deg lcm(all).  Twice the summed packed
    `core.lcm_columns` deficits plus the odd faces' indicator, unpacked once.
    """
    _require_small(ideal)
    width, _, deficits = lcm_columns(ideal.gens, tagged=True)
    return unpack_fields(2 * sum(deficits) + _odd_faces(ideal.q, width), width, ideal.q)


@lru_cache(maxsize=None)  # one entry per q <= Q_MAX and field width in use
def _odd_faces(q: int, width: int) -> int:
    """The odd-face indicator in `width`-bit fields: field mask holds |mask| mod 2."""
    odd, ones = 0, 1
    for k in range(q):
        shift = width << k
        odd |= (ones - odd) << shift
        ones |= ones << shift
    return odd


@per_ideal
def taylor_numerator(ideal: MonomialIdeal) -> tuple[tuple[int, int], ...]:
    """K(t) as (d, K_d) pairs by degree, K_d != 0: the sum of (-1)^|F| over faces F of degree d."""
    table = lcm_degree_table(ideal)
    # field 0 is the empty face's; the others run from the full face's to generator 0's (the most)
    values = range(table[1] + 1)
    # on CPython 3.11 `bytes.count` scans about 1 ns a byte, `Counter` about 60 ns a face
    if table.itemsize == 1 and len(values) <= 64 < len(table) // len(values):
        counts = {table[0]: 1, **{v: table.obj.count(v) for v in values}}
    else:
        counts = Counter(table)
    get, top = counts.get, table[0] >> 1  # K_d at d = top - t: the even faces less the odd ones
    shortfalls = sorted({field >> 1 for field in counts}, reverse=True)
    return tuple((top - t, n) for t in shortfalls if (n := get(2 * t, 0) - get(2 * t + 1, 0)))


def ps_power_sum(ideal: MonomialIdeal, k: int) -> int:
    """Alternating k-th power sum of face degrees over homological degrees >= 1.

    At k = 0 this equals -1: the empty face is excluded.
    """
    if k < 0:
        raise ValueError("power-sum exponent must be nonnegative")
    # 0**k takes out the empty face, of degree 0 and even
    return sum(n * d**k for d, n in taylor_numerator(ideal)) - 0**k


@per_ideal
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
    return sorted(range(1 << q), key=int.bit_count)  # stable: ties stay in mask order


def member_indices(mask: int) -> tuple[int, ...]:
    """Generator indices of a face, in increasing order."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class TaylorResolution:
    """The Taylor complex of an ideal as mask-indexed lists.

    Face `mask` (a bitmask of generator indices) has homological degree
    `mask.bit_count()`, total degree `degrees[mask]` and multidegree rendered
    as `labels[mask]`, byte-equal to `str` of that lcm ("1" for the empty face).
    `mdegs[mask]` is the lcm itself, an exponent tuple over the ideal's ring;
    the list is built on first access.
    """

    ideal: MonomialIdeal
    degrees: list[int]
    labels: list[str]

    @cached_property
    def mdegs(self) -> list[tuple[int, ...]]:
        return subset_lcms(self.ideal.ring, self.ideal.gens)

    def ranks(self) -> tuple[int, ...]:
        q = self.ideal.q
        return tuple(math.comb(q, s) for s in range(q + 1))


def taylor_resolution(ideal: MonomialIdeal) -> TaylorResolution:
    """Every face's degree and rendered multidegree, read off the packed lcm columns.

    Each exponent of a variable is rendered once, as a `*`-prefixed token; a
    face's label joins its tokens in variable order.
    """
    _require_small(ideal)
    q, gens, names = ideal.q, ideal.gens, ideal.ring.names
    width, tops, deficits = lcm_columns(gens)
    ones, total, tokens = packed_ones(width, q), 0, []
    for v, col in enumerate(top * ones - deficit for top, deficit in zip(tops, deficits)):
        if not col:
            continue  # a variable no generator uses
        total += col
        name = names[v]
        token = {e: f"*{name}^{e}" for e in {g.vec[v] for g in gens}}
        token.update({0: "", 1: f"*{name}"})
        tokens.append(map(token.__getitem__, unpack_fields(col, width, q)))
    labels = [label[1:] or "1" for label in map("".join, zip(*tokens))]
    return TaylorResolution(ideal, unpack_fields(total, width, q).tolist(), labels)


def minimal_resolution(ideal: MonomialIdeal) -> TaylorResolution:
    """The Taylor complex of a dominant ideal, which is its minimal free resolution.

    A witness exponent appears in an lcm iff its generator is a member, so no
    two faces share a multidegree and each face is one Betti number of 1.
    For non-dominant ideals the complex is not minimal and no in-scope
    algorithm produces the minimal resolution.
    """
    _require_dominant(ideal)
    return taylor_resolution(ideal)


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
    coefficient = tuple(map(sub, mdegs[mask], mdegs[mask ^ (1 << removed)]))
    return sign, Monomial(resolution.ideal.ring, coefficient)


def is_taylor_minimal(ideal: MonomialIdeal) -> bool:
    """Whether no face shares its multidegree with one of its facets: dominance.

    A witness exponent enters a face's lcm only with its generator, so a
    dominant ideal's faces all differ from their facets; a generator with no
    witness is matched in every variable by the others, so the full face and
    the facet without that generator share an lcm.
    """
    return is_dominant(ideal)


@dataclass
class BettiTable:
    """Multigraded Betti numbers: (homological degree, multidegree) -> count.

    Multidegrees are exponent tuples, stored for the quotient ring convention,
    so (0, all zeros) -> 1 is always present.  The graded view sums them.
    """

    entries: dict[tuple[int, tuple[int, ...]], int]

    def graded(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for (i, vec), count in self.entries.items():
            key = (i, sum(vec))
            out[key] = out.get(key, 0) + count
        return out

    def total(self, hdeg: int) -> int:
        return sum(count for (i, _), count in self.entries.items() if i == hdeg)


def betti_table(ideal: MonomialIdeal) -> BettiTable:
    """Betti numbers of a dominant ideal, one per Taylor face, read off `subset_lcms`."""
    _require_dominant(ideal)
    _require_small(ideal)
    mdegs = subset_lcms(ideal.ring, ideal.gens)
    return BettiTable({(mask.bit_count(), vec): 1 for mask, vec in enumerate(mdegs)})


def regularity_dominant(ideal: MonomialIdeal) -> int:
    """max(deg(mdeg) - hdeg) over all faces; valid only for dominant ideals.

    Adding a generator to a face raises the lcm's degree by at least 1, through
    its witness exponent, so deg - hdeg never falls as a face grows and the
    full face attains the maximum.
    """
    if not is_dominant(ideal):
        raise UnsupportedError("regularity via the Taylor complex needs a dominant ideal")
    return sum(map(max, zip(*(g.vec for g in ideal.gens)))) - ideal.q
