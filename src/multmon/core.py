"""Monomials, monomial ideals, and their exact arithmetic.

A monomial is a dense tuple of nonnegative exponents, one per variable of a
shared, ordered variable table; every operation is a coordinatewise map.  A
monomial ideal stores its unique minimal generating set in a canonical order
(ascending total degree, ties broken by descending lexicographic comparison of
exponent vectors) so that equal ideals compare equal regardless of how their
generators were supplied.

Every subset lcm comes from one recurrence, `lcm_levels`: per variable and
exponent level, the faces whose lcm lies below it, as one integer with a
fixed-width field per generator bitmask, so the 2^q faces cost a few
big-integer operations per generator, not a Python loop per face.
`lcm_columns` turns the levels into packed exponent columns, which
`subset_lcms` streams as exponent tuples; `taylor.lcm_degree_table` adds
them at width 1 into the bit planes of each face's shortfall.  No q is capped
here: each route caps its own.  Supports, covers and faces are bitmasks, and
`bits` lists a mask's set bits for every module.

Everything here is an immutable value; operations return fresh objects.
"""

from __future__ import annotations

import re
import sys
from functools import reduce, wraps
from itertools import compress
from operator import add, le, neg, or_, sub
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import ResourceCapError

__all__ = [
    "MAX_EXPONENT",
    "VariableTable",
    "Monomial",
    "MonomialIdeal",
    "lcm",
    "gcd",
    "quotient",
    "lcm_all",
    "gcd_all",
    "minimalize",
    "polar_set",
    "polar_sets",
]

# Exponents beyond this are rejected everywhere; keeps power sums desk-scale.
MAX_EXPONENT = 2**31
# Most slot labels `polar_sets` builds for one ideal: the sum of generator degrees.
POLAR_LABEL_CAP = 10**5
# The input grammar's `var` token, and so the only names a `VariableTable` holds.
VAR_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class _Frozen:
    """Base of the immutable values: each slot is filled once, by `object.__setattr__`, on building."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class VariableTable(_Frozen):
    """Ordered table of distinct variable names, each a `VAR_NAME` token; index i <-> names[i]."""

    __slots__ = ("names", "_lookup")
    names: tuple[str, ...]

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("a variable table needs at least one variable")
        lookup = {}
        for i, name in enumerate(names):
            if not (isinstance(name, str) and VAR_NAME.fullmatch(name)):
                raise ValueError(f"{name!r} is not a valid variable name")
            if name in lookup:
                raise ValueError(f"duplicate variable name {name!r}")
            lookup[name] = i
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_lookup", lookup)

    def __reduce__(self):
        return VariableTable, (self.names,)

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._lookup[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def __eq__(self, other) -> bool:
        return self.names == other.names if isinstance(other, VariableTable) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VariableTable(names={self.names!r})"


class Monomial(_Frozen):
    """A monomial stored as its dense exponent tuple over a variable table.

    `vec[i]` is the exponent of `table.names[i]`, between 0 and `MAX_EXPONENT`;
    the unit monomial is all zeros.  Two monomials are equal when they mean
    the same product of named variables, even across tables.
    """

    __slots__ = ("table", "vec")
    table: VariableTable
    vec: tuple[int, ...]

    def __init__(self, table: VariableTable, vec: Iterable[int]):
        vec = tuple(vec)
        if len(vec) != len(table):
            raise ValueError(
                f"exponent tuple has length {len(vec)}, the table has {len(table)} variables"
            )
        if min(vec) < 0 or max(vec) > MAX_EXPONENT:
            raise ValueError(f"exponents must lie between 0 and the {MAX_EXPONENT} cap")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "vec", vec)

    def __reduce__(self):
        return Monomial, (self.table, self.vec)

    @classmethod
    def from_map(cls, table: VariableTable, exponents: Mapping[int, int]) -> "Monomial":
        """Build from an index -> exponent mapping; absent indices are 0."""
        vec = [0] * len(table)
        for i, e in exponents.items():
            if not 0 <= i < len(vec):
                raise ValueError(f"variable index {i} out of range")
            vec[i] = e
        return cls(table, tuple(vec))

    @classmethod
    def unit(cls, table: VariableTable) -> "Monomial":
        return cls(table, (0,) * len(table))

    @property
    def exps(self) -> tuple[tuple[int, int], ...]:
        """Sorted (variable index, exponent) pairs with exponent >= 1."""
        return tuple((i, e) for i, e in enumerate(self.vec) if e)

    @property
    def degree(self) -> int:
        return sum(self.vec)

    @property
    def is_unit(self) -> bool:
        return not any(self.vec)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.vec) if e)

    def exponent(self, index: int) -> int:
        if not 0 <= index < len(self.vec):
            raise ValueError(f"variable index {index} out of range")
        return self.vec[index]

    def divides(self, other: "Monomial") -> bool:
        return all(map(le, self.vec, _vec(other, self.table)))

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.table, tuple(map(add, self.vec, _vec(other, self.table))))

    def sort_key(self) -> tuple:
        """Ascending total degree, then descending lex on exponent vectors."""
        return (self.degree, tuple(map(neg, self.vec)))

    def name_form(self) -> tuple[tuple[str, int], ...]:
        """Table-independent form: sorted (variable name, exponent) pairs."""
        return tuple(sorted((n, e) for n, e in zip(self.table.names, self.vec) if e))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        if self.table is other.table:
            return self.vec == other.vec
        return self.name_form() == other.name_form()

    def __hash__(self) -> int:
        return hash(self.name_form())

    def __str__(self) -> str:
        pairs = zip(self.table.names, self.vec)
        return "*".join(n if e == 1 else f"{n}^{e}" for n, e in pairs if e) or "1"

    def __repr__(self) -> str:
        return f"Monomial({self})"


def _vec(m: Monomial, table: VariableTable) -> tuple[int, ...]:
    """The exponent tuple of `m`, which must lie over `table`."""
    if m.table is not table and m.table != table:
        raise ValueError("mismatched variable tables")
    return m.vec


def bits(mask: int) -> list[int]:
    """The indices of a nonnegative mask's set bits, ascending; the work follows the set bits."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


def lcm(a: Monomial, b: Monomial) -> Monomial:
    """Least common multiple: coordinatewise max of exponents."""
    return Monomial(a.table, tuple(map(max, a.vec, _vec(b, a.table))))


def gcd(a: Monomial, b: Monomial) -> Monomial:
    """Greatest common divisor: coordinatewise min of exponents."""
    return Monomial(a.table, tuple(map(min, a.vec, _vec(b, a.table))))


def quotient(a: Monomial, b: Monomial) -> Monomial:
    """Exact division a / b; raises if b does not divide a."""
    if not b.divides(a):
        raise ValueError(f"{b} does not divide {a}")
    return Monomial(a.table, tuple(map(sub, a.vec, b.vec)))


def lcm_all(table: VariableTable, monomials: Iterable[Monomial]) -> Monomial:
    """lcm of any number of monomials, in one coordinatewise max; the empty lcm is the unit."""
    return Monomial(table, map(max, zip((0,) * len(table), *[_vec(m, table) for m in monomials])))


def gcd_all(monomials: Iterable[Monomial]) -> Monomial:
    """gcd of a nonempty collection of monomials, in one coordinatewise min."""
    monomials = list(monomials)
    if not monomials:
        raise ValueError("gcd of an empty collection is undefined")
    first, *rest = monomials
    vecs = [_vec(m, first.table) for m in rest]
    return Monomial(first.table, map(min, first.vec, *vecs)) if vecs else first


# Field widths of a packed column, with the memoryview format of one field.
_FIELD_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}


def lcm_columns(exponents: Sequence[Sequence[int]]) -> tuple[int, Iterator[int]]:
    """Per variable, its exponent in each subset lcm of q generators, as one packed column.

    `exponents` holds one column per variable, `exponents[v][k]` generator k's
    exponent of v, with q >= 1.  Returns the field width and an iterator over
    the packed columns in that order, built one at a time: field `mask` (bits
    `mask * width` up to `(mask + 1) * width`) holds the exponent in the lcm
    of `mask`, and a variable no generator uses has the column 0.  The width
    is the narrowest of 8, 16, 32 and 64 bits holding deg lcm(all);
    exponents are at most `MAX_EXPONENT`.
    """
    q = len(exponents[0])
    top = sum(map(max, exponents))
    width = next(w for w in _FIELD_FORMATS if not top >> w)  # ascending widths
    ones = ((1 << (width << q)) - 1) // ((1 << width) - 1)  # 1 in each of the 2^q fields
    return width, _columns(exponents, [width << k for k in range(q)], ones)


def _columns(exponents: Sequence[Sequence[int]], shifts: list[int], ones: int) -> Iterator[int]:
    """Each variable's top in every field, less the `lcm_levels` step * z below it."""
    for exps in exponents:
        column = max(exps) * ones
        for step, z in lcm_levels(exps, shifts):
            column -= z if step == 1 else step * z
        yield column


def lcm_levels(exps: Sequence[int], shifts: list[int]) -> Iterator[tuple[int, int]]:
    """One variable's exponent levels as `(step, z)`; `exps[k]` is generator k's exponent.

    At each distinct nonzero exponent a, ascending, z marks the faces whose members
    all lie below a and step is a less the next lower one (or 0), so the top less the
    marked steps is a face's exponent; z grows by `z |= z << shifts[k]` per generator k.
    """
    z, prev, top = 1, 0, max(exps)
    for e, shift in sorted(zip(exps, shifts)):
        if e > prev:
            yield e - prev, z
            prev = e
        if e == top:
            return  # every level is out: z is not needed again
        z |= z << shift


def unpack_fields(packed: int, width: int, q: int) -> memoryview:
    """The 2^q fields of a packed column as a memoryview of unsigned ints; index = mask."""
    # `cast` reads the fields in the host's byte order, so the bytes are written in it
    data = packed.to_bytes((width << q) >> 3, sys.byteorder)
    return memoryview(data).cast(_FIELD_FORMATS[width])


def subset_lcms(table: VariableTable, gens: Sequence[Monomial]) -> Iterator[tuple[int, ...]]:
    """The lcm exponent tuple of each subset of `gens` by bitmask, from all zeros, as a stream."""
    if not gens:
        return iter([(0,) * len(table)])
    q = len(gens)
    width, columns = lcm_columns(list(zip(*[g.vec for g in gens])))
    zero = unpack_fields(0, width, q)  # shared by the variables no generator uses
    return zip(*[unpack_fields(col, width, q) if col else zero for col in columns])


class MonomialIdeal(_Frozen):
    """A monomial ideal held by its canonical minimal generating set.

    The constructor rejects generating sets that are not minimal (a duplicate
    or a generator dividing another); with `drop_redundant` (`minimalize`) it drops them.
    Equality and hashing are table-independent: two ideals are equal when
    their generators agree as named monomials.  `supports` holds each
    generator's variables as a bitmask (bit v for variable v); facts derived
    from the ideal are cached on it (see `per_ideal`).
    """

    __slots__ = ("ring", "gens", "supports", "_facts")
    ring: VariableTable
    gens: tuple[Monomial, ...]
    supports: tuple[int, ...]

    def __init__(self, ring: VariableTable, gens: Iterable[Monomial], drop_redundant: bool = False):
        raw = tuple(gens)
        if not raw:
            raise ValueError("a monomial ideal needs at least one generator")
        for g in raw:
            if g.table != ring:
                raise ValueError("generator does not live in the ideal's ring")
            if g.is_unit:
                raise ValueError("the unit monomial cannot be a generator")
        # in canonical order a divisor, or the first of two equal generators, comes first
        gens: list[Monomial] = []
        supports: list[int] = []
        var_bits = [1 << v for v in range(len(ring))]  # `compress` picks a support's bits
        for h in sorted(raw, key=Monomial.sort_key):
            t = sum(compress(var_bits, h.vec))
            g = next((g for g in _inside(gens, supports, t) if g.divides(h)), None)
            if g is None:
                gens.append(h)
                supports.append(t)
            elif not drop_redundant:
                raise ValueError(f"not a minimal generating set: {g} divides {h}")
        self._fill(ring, tuple(gens), tuple(supports))

    def _fill(self, ring: VariableTable, gens: tuple[Monomial, ...], supports: tuple[int, ...]):
        """Set the slots from a canonical minimal generating set, with no facts cached yet."""
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "supports", supports)
        object.__setattr__(self, "_facts", {})

    def __reduce__(self):
        return MonomialIdeal, (self.ring, self.gens)

    @property
    def q(self) -> int:
        """Number of minimal generators."""
        return len(self.gens)

    def without(self, index: int) -> "MonomialIdeal":
        """The ideal of all generators but `gens[index]`: a canonical minimal set less one is one."""
        q, gens, supports = self.q, self.gens, self.supports
        if not 0 <= index < q:
            raise ValueError(f"generator index {index} out of range for q = {q}")
        if q == 1:
            raise ValueError("a monomial ideal needs at least one generator")
        ideal = object.__new__(MonomialIdeal)
        ideal._fill(self.ring, gens[:index] + gens[index + 1 :], supports[:index] + supports[index + 1 :])
        return ideal

    def used_variables(self) -> tuple[int, ...]:
        return tuple(bits(reduce(or_, self.supports)))

    def name_form(self) -> tuple:
        forms = [g.name_form() for g in self.gens]
        return tuple(sorted(forms, key=lambda f: (sum(e for _, e in f), f)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.name_form() == other.name_form()

    def __hash__(self) -> int:
        return hash(self.name_form())

    def __str__(self) -> str:
        return ", ".join(str(g) for g in self.gens)

    def __repr__(self) -> str:
        return f"MonomialIdeal({self})"


def _inside(monomials: Iterable[Monomial], supports: Iterable[int], t: int) -> Iterator[Monomial]:
    """The monomials whose support lies inside `t`: the only ones that can divide its monomial."""
    return compress(monomials, map(t.__eq__, map(t.__or__, supports)))


def per_ideal(fn: Callable) -> Callable:
    """Compute `fn(ideal)` once per ideal object and cache it on the ideal.

    Ideals are immutable and callers share the cached value, so a fact whose
    `fn` returns an immutable value never goes stale.  A call that raises
    caches nothing.  A pickled ideal is rebuilt from its ring and generators,
    so it carries none of its cached facts.
    """
    key = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def cached(ideal: MonomialIdeal):
        facts = ideal._facts
        if key not in facts:
            facts[key] = fn(ideal)
        return facts[key]

    cached.fact_key = key
    return cached


def record(fact: Callable, ideal: MonomialIdeal, value) -> None:
    """Cache `value`, found another way, as the `per_ideal` fact `fact(ideal)`."""
    while not hasattr(fact, "fact_key"):  # under wrappers that set `__wrapped__`
        fact = fact.__wrapped__
    ideal._facts.setdefault(fact.fact_key, value)


def minimalize(ring: VariableTable, raw: Iterable[Monomial]) -> MonomialIdeal:
    """Drop duplicates and generators divisible by another, sort canonically; unit or foreign raise."""
    return MonomialIdeal(ring, tuple(raw), drop_redundant=True)


def polar_set(m: Monomial) -> frozenset[tuple[int, int]]:
    """Slot labels of a monomial: (variable index, slot) with 1 <= slot <= exponent.

    The label set's cardinality equals the total degree; unions/intersections
    of these sets turn lcm/gcd degree identities into counting.
    """
    return frozenset((i, s) for i, e in enumerate(m.vec) for s in range(1, e + 1))


def polar_sets(ideal: MonomialIdeal) -> list[frozenset[tuple[int, int]]]:
    """One slot-label set per minimal generator, in canonical generator order.

    There is one label per unit of degree, so more than `POLAR_LABEL_CAP` in
    all raises `ResourceCapError` before any set is built.
    """
    total = sum(g.degree for g in ideal.gens)
    if total > POLAR_LABEL_CAP:
        raise ResourceCapError(f"polarization of {total} labels exceeds the {POLAR_LABEL_CAP} cap")
    return [polar_set(g) for g in ideal.gens]
