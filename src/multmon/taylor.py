"""The Taylor complex of a monomial ideal and the power-sum multiplicity engine.

For an ideal with q minimal generators the complex has one face per subset of
generators.  A face is a bitmask into mask-indexed lists read off the packed
subset-lcm exponent columns (`core.lcm_columns`, one big integer per variable):
`degrees[mask]` is the total degree of the lcm of its members and
`labels[mask]` that lcm as text (a table lookup per group of variables); its
homological degree is `mask.bit_count()`.  Ranks are binomial: C(q, s) faces in
degree s, which `face_levels` lists in ascending mask order.  The lcms themselves
(`mdegs`) are exponent tuples, built only when asked for.  For a dominant ideal
the complex is the minimal free resolution (`minimal_resolution`), so each face
is one multigraded Betti number.

The engine counts one signed degree histogram, the Hilbert-series numerator
of S/I (Bayer-Stillman 1992, Bigatti 1997), and reads the power sums off it:

    K(t) = sum over all faces F of (-1)^|F| * t^deg(lcm F)
    P(k) = sum over nonempty faces of (-1)^hdeg * deg(mdeg)^k = sum_d K_d d^k - 0^k

P(k) vanishes for 1 <= k < c and equals (-1)^c c! e at k = c, where c is the
codimension and e the multiplicity; all arithmetic is arbitrary-precision.
Past q = 13 a frontier sweep over the generators usually sums K instead
(variable elimination, Dechter 1999): it groups the faces by the exponents, in
their lcm, of the variables that a later generator still uses, and keeps one
signed degree histogram per group, so its work follows the groups, not the
2^q faces.  It runs when an up-front bound on its groups is at most 2^(q - 7),
as on cycles and other sparse ideals, and the histograms of the groups at
one step, each packed into an integer, hold at most 2^22 degrees in all.  Otherwise, and at q <= 13, where one
2^13-face block is faster, K is counted from bit planes (bit slicing, Biham
1997): plane p holds bit p of each face's shortfall from deg lcm(all), face F
at bit F.  A depth-first walk splits the faces on each plane, 2^13 faces at a
time, down to one degree per leaf, where K_d is two bit counts: Python code
runs per leaf, not per face.  `betti` and `taylor` walk all 2^q faces at
q <= 20; the ps engine answers at q <= 24, where past q = 20 the walk takes only
a deg lcm(all) of at most 33 - q bits, never longer than a walk at q = 20.
Regularity walks none: it follows from the dominance witnesses, which also
decide minimality (the complex is minimal exactly for a dominant ideal).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import repeat
from operator import add, itemgetter
from typing import NamedTuple

from .core import (
    Monomial,
    MonomialIdeal,
    bits,
    lcm,
    lcm_all,
    lcm_columns,
    lcm_levels,
    per_ideal,
    quotient,
    subset_lcms,
    unpack_fields,
)
from .errors import InternalConsistencyError, ResourceCapError, UnsupportedError
from .invariants import codim, is_dominant

__all__ = [
    "Q_MAX",
    "TaylorResolution",
    "BettiTable",
    "taylor_resolution",
    "minimal_resolution",
    "differential_coefficient",
    "betti_table",
    "regularity_dominant",
    "ps_power_sum",
    "multiplicity_ps",
    "lcm_degree_table",
    "taylor_numerator",
]

Q_MAX = 20
PS_Q_MAX = 24  # the ps engine's cap: the sweep's 32-bit digits and the walk's planes
_BLOCK = 13  # the walk takes 2^13 faces at a time; at q <= 13 it beats the sweep
_UNSTARRED = itemgetter(slice(1, None))  # a label less its leading "*"


def _require_small(ideal: MonomialIdeal, cap: int) -> None:
    if ideal.q > cap:
        raise ResourceCapError(
            f"Taylor complex too large: {ideal.q} generators exceeds the q <= {cap} cap"
        )


def _require_dominant(ideal: MonomialIdeal) -> None:
    if not is_dominant(ideal):
        raise UnsupportedError(
            "Betti numbers need a dominant ideal; no algorithm in scope for others"
        )


@per_ideal  # read by the sweep's plan, the walk's table, the labels and the regularity
def _columns(ideal: MonomialIdeal) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """deg lcm(all) and the exponent columns, one per variable, by generator."""
    exponents = tuple(zip(*[g.vec for g in ideal.gens]))
    return sum(map(max, exponents)), exponents


def lcm_degree_table(ideal: MonomialIdeal) -> tuple[int, list[int]]:
    """deg lcm(all) and the planes: bit F of `planes[p]` is bit p of deg lcm(all) - deg lcm(F).

    Each `core.lcm_levels` level, at 1-bit fields, is ripple-carried in at each bit of its step.
    Past q = 20 the planes times the 2^(q - 13) slices of a walk stay below those at q = 20.
    """
    _require_small(ideal, PS_Q_MAX)
    top, exponents = _columns(ideal)
    if ideal.q > Q_MAX and top >> Q_MAX + _BLOCK - ideal.q:
        raise ResourceCapError(
            f"ps engine past q = {Q_MAX}: lcm degree {top} is not below 2^({Q_MAX + _BLOCK} - q)"
        )
    shifts = [1 << k for k in range(ideal.q)]
    planes = [0] * top.bit_length()  # no face falls short by more than top
    for exps in exponents:
        for step, z in lcm_levels(exps, shifts):
            for bit in range(step.bit_length()):
                p, carry = bit, z if step >> bit & 1 else 0
                while carry:
                    planes[p], carry = planes[p] ^ carry, planes[p] & carry
                    p += 1
    return top, planes


@lru_cache(maxsize=None)  # one entry per q <= PS_Q_MAX in use
def _odd_faces(q: int) -> int:  # bit F holds |F| mod 2
    odd = 0
    for k in range(q):  # a face with generator k is odd where the face without it is even
        odd |= ((1 << (1 << k)) - 1 - odd) << (1 << k)
    return odd


def _walk(ideal: MonomialIdeal) -> dict[int, int]:
    """{d: K_d}, counted from the shortfall planes of `lcm_degree_table`."""
    top, planes = lcm_degree_table(ideal)
    q, b, counts, blocks = ideal.q, min(ideal.q, _BLOCK), {}, [[*planes, _odd_faces(ideal.q)]]
    if q > b:  # 1 KiB slices: no split costs more, so one face per degree is linear work
        data, size = [row.to_bytes(1 << q - 3, "little") for row in blocks[0]], 1 << b - 3
        cuts = range(0, len(data[0]), size)
        blocks = ([int.from_bytes(d[i : i + size], "little") for d in data] for i in cuts)
    for block in blocks:  # its planes, then its odd faces
        odd, stack = block[-1], [(len(block) - 1, top, (1 << (1 << b)) - 1)]
        while stack:  # (planes left, degree, faces)
            p, d, faces = stack.pop()
            while p:
                p -= 1
                high = faces & block[p]
                if high:
                    if low := faces ^ high:  # not faces & ~block[p], a negative big integer
                        stack.append((p, d, low))
                    faces, d = high, d - (1 << p)
            counts[d] = counts.get(d, 0) + faces.bit_count() - 2 * (faces & odd).bit_count()
    return counts


def _sweep_plan(ideal: MonomialIdeal, cap: float = math.inf) -> tuple[int, list | None]:
    """A bound on the frontier sweep's states, and its steps (one per generator).

    The generators are taken greedily, each the one after which the fewest variables
    are live (seen, and used by a generator still to come).  A state's key holds each
    live variable's exponent in the lcm of a face so far, in a `width`-bit field of its
    own; a variable's field is freed after its last generator, for a later one to reuse.
    A step is (touch, base, keep, born): (shift, field mask, e) for each live variable of
    the generator, the sum of its other exponents, the mask of the fields that stay
    live, and its newly live variables' exponents in their fields.  After k steps at
    most 2^k states remain, and at most the product over live v of (v's exponents so
    far + 1): the bound sums the lesser over the steps.  The plan stops, without steps,
    once the bound passes `cap`, or at once if the variables in every generator, live
    after each step but the last, pass it; and once the states at one step, each a
    histogram packed at deg lcm(all), would hold more than 2^22 digits.
    """
    top, columns = _columns(ideal)
    gens, q = ideal.gens, ideal.q
    uses = [q - column.count(0) for column in columns]  # generators still to come
    # the variables in every generator are live after each step but the last, in any order
    bound = sum(min(1 << k, 1 << uses.count(q)) for k in range(1, q)) + 1
    if bound > cap:
        return bound, None
    width = max(map(max, columns)).bit_length()
    most = (1 << 22) // (top + 1)  # states at once whose histograms, packed, hold 2^22 digits
    once = sum(1 << v for v, n in enumerate(uses) if n == 1)  # a last generator to come
    left, supports = list(range(q)), ideal.supports
    live, shifts, free, levels, end, keep = 0, {}, [], [set() for _ in columns], 0, 0
    bound, steps, ones = 0, [], (1 << width) - 1
    for k in range(1, q + 1):
        scores = [(supports[i] & ~live).bit_count() - (supports[i] & once).bit_count()
                  for i in left]
        i = left.pop(scores.index(min(scores)))
        s = supports[i]
        dying, touch, base, born, fields = s & once, [], 0, 0, 0
        for v, e in gens[i].exps:
            levels[v].add(e)
            uses[v] -= 1
            if uses[v] == 1:
                once |= 1 << v
            if v in shifts:
                shift = shifts[v]
                touch.append((shift, ones << shift, e))
                if dying >> v & 1:
                    del shifts[v]
                    free.append(shift)
                    keep ^= ones << shift
                continue
            base += e
            if not dying >> v & 1:  # newly live: a free field, or a new one
                if free:
                    shift = shifts[v] = free.pop()
                else:
                    shift = shifts[v] = end
                    end += width
                fields |= ones << shift
                born |= e << shift
        live, once = (live | s) & ~dying, once & ~dying
        states = 1
        for v in shifts:
            states *= len(levels[v]) + 1
            if states >> k:
                states = 1 << k
                break
        bound += states
        if bound > cap or states > most:
            return bound, None
        steps.append((touch, base, keep, born))
        keep |= fields
    return bound, steps


def _sweep(steps: list[tuple]) -> dict[int, int]:
    """{d: K_d}, summed by the `_sweep_plan` steps.

    Each step takes every state's faces once without the generator and once with it:
    with it, the generator's exponents raise the live fields, and the histogram shifts
    by the degree gained and changes sign.  No variable is live after the last step.
    A histogram is one integer, K_d its signed 32-bit digit d (|K_d| <= 2^24).
    """
    states = {0: 1}  # the empty face
    for touch, base, keep, born in steps:
        grown: dict[int, int] = {}
        for key, hist in states.items():
            gain, up = base, key
            for shift, field, e in touch:
                rise = e - ((key & field) >> shift)
                if rise > 0:
                    gain, up = gain + rise, up + (rise << shift)
            up, down = up & keep | born, key & keep
            grown[up] = grown.get(up, 0) - (hist << 32 * gain)
            grown[down] = grown.get(down, 0) + hist
        states = grown
    # the top nonzero digit d outweighs those below it, so the value has 32 d bits or more and
    # 2^m > d; a bias of 2^31 in each of the 2^m digits makes every digit nonnegative: no borrow
    m = (abs(states[0]).bit_length() >> 5).bit_length()
    bias = int.from_bytes(b"\0\0\0\x80" * (1 << m), "little")
    digits = unpack_fields(states[0] + bias, 32, m)
    return {d: n - (1 << 31) for d, n in enumerate(digits) if n != 1 << 31}


@per_ideal
def taylor_numerator(ideal: MonomialIdeal) -> tuple[tuple[int, int], ...]:
    """K(t) as (d, K_d) pairs by degree, K_d != 0: the sum of (-1)^|F| over faces F of degree d.

    Past q = 13 the frontier sweep sums it when its state bound is at most 2^(q - 7);
    the sliced walk counts it otherwise.
    """
    _require_small(ideal, PS_Q_MAX)
    steps = _sweep_plan(ideal, cap=1 << ideal.q - 7)[1] if ideal.q > _BLOCK else None
    counts = _walk(ideal) if steps is None else _sweep(steps)
    return tuple(item for item in sorted(counts.items()) if item[1])


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


# `face_levels`' tables of masks and of member texts (only `taylor` reads the texts), each for
# the largest q asked for so far; at q = 20, the cap of both callers, they hold 40 and 90 MiB
_FACES = {False: [], True: []}


def face_levels(q: int, *, members: bool = False) -> list[list]:
    """Face masks of a q-generator complex, one ascending list per homological degree, or
    with `members` each face's member indices as text ("0, 2" for 0b101) in that order.

    In every degree the faces of the first q generators come first, so each q reads copies of
    prefixes of one table, built afresh for the largest q asked for and published at once.
    """
    table = _FACES[members]  # read once: another thread may publish another table
    if len(table) <= q:
        table = [[""] if members else [0], *([] for _ in range(q))]
        for i in range(q):  # faces with i lie above all faces without it
            for s in range(i, -1, -1):  # downwards, so no level reads the faces just added
                new = (f", {i}" if s else f"{i}") if members else 1 << i  # no older mask has bit i
                table[s + 1] += map(add, table[s], repeat(new))
        _FACES[members] = table
    return [level[: math.comb(q, s)] for s, level in enumerate(table[: q + 1])]


class TaylorResolution:
    """The Taylor complex of an ideal as mask-indexed lists.

    Face `mask` (a bitmask of generator indices) has homological degree
    `mask.bit_count()`, total degree `degrees[mask]` and multidegree rendered
    as `labels[mask]`, byte-equal to `str` of that lcm ("1" for the empty face).
    `mdegs[mask]` is the lcm itself, an exponent tuple over the ideal's ring;
    the list is built on first access.
    """

    def __init__(self, ideal: MonomialIdeal, degrees: list[int], labels: list[str]):
        self.ideal, self.degrees, self.labels = ideal, degrees, labels

    @cached_property
    def mdegs(self) -> list[tuple[int, ...]]:
        return list(subset_lcms(self.ideal.ring, self.ideal.gens))

    def ranks(self) -> tuple[int, ...]:
        q = self.ideal.q
        return tuple(math.comb(q, s) for s in range(q + 1))


def taylor_resolution(ideal: MonomialIdeal) -> TaylorResolution:
    """Every face's degree and rendered multidegree, read off the packed lcm columns.

    Each exponent of a variable is rendered once, as a `*`-prefixed token.  Consecutive
    used variables share a packed key column, sum col_v * radix_v (radix_v: the product of
    top + 1 over the group's earlier variables), and a table of their joined tokens until a
    key would overflow a field or the table pass 256; a label joins its groups' texts.
    """
    _require_small(ideal, Q_MAX)
    q, names, exponents = ideal.q, ideal.ring.names, _columns(ideal)[1]
    width, columns = lcm_columns(exponents)
    total, groups, key, radix, table = 0, [], 0, 1, {0: ""}
    for name, exps, col in zip(names, exponents, columns):
        if not col:
            continue  # a variable no generator uses
        total += col
        token = {e: f"*{name}^{e}" for e in set(exps)}
        token.update({0: "", 1: f"*{name}"})
        top = max(token)
        if radix * (top + 1) - 1 >> width or len(table) * len(token) > 256:
            groups.append(map(table.__getitem__, unpack_fields(key, width, q)))
            key, radix, table = 0, 1, {0: ""}
        key += col * radix
        table = {k + e * radix: t + s for k, t in table.items() for e, s in token.items()}
        radix *= top + 1
    groups.append(map(table.__getitem__, unpack_fields(key, width, q)))
    labels = list(map(_UNSTARRED, map("".join, zip(*groups))))
    labels[0] = "1"  # the empty face; every other face has a variable
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
    coefficient is mdeg(face) / mdeg(face minus that member), each the lcm of
    its members' generators: `resolution.mdegs` is not built.
    """
    ideal = resolution.ideal
    if not 0 <= mask < 1 << ideal.q:
        raise ValueError(f"face mask {mask} out of range for q = {ideal.q}")
    members = bits(mask)
    if not 1 <= removed_position <= len(members):
        raise ValueError(
            f"removed position {removed_position} out of range for a face of size {len(members)}"
        )
    removed = members[removed_position - 1]
    facet = lcm_all(ideal.ring, (ideal.gens[i] for i in members if i != removed))
    return (1 if removed_position % 2 else -1), quotient(lcm(facet, ideal.gens[removed]), facet)


class BettiTable(NamedTuple):
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
    _require_small(ideal, Q_MAX)
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
    return _columns(ideal)[0] - ideal.q
