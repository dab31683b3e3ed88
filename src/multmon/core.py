"""Monomials, monomial ideals, and their exact arithmetic.

A monomial is a dense tuple of nonnegative exponents, one per variable of a
shared, ordered variable table; every operation is a coordinatewise map.  A
monomial ideal stores its unique minimal generating set in a canonical order
(ascending total degree, ties broken by descending lexicographic comparison of
exponent vectors) so that equal ideals compare equal regardless of how their
generators were supplied.

Every subset lcm comes from one recurrence, `lcm_columns`: per variable, the
exponent column over all generator bitmasks.  `subset_lcms` zips the columns
into monomials; `taylor.lcm_degree_table` sums them into degrees.

Everything here is an immutable value; operations return fresh objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps
from operator import add, le, neg, sub
from typing import Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "MAX_EXPONENT",
    "VariableTable",
    "Monomial",
    "MonomialIdeal",
    "per_ideal",
    "lcm",
    "gcd",
    "quotient",
    "lcm_all",
    "gcd_all",
    "lcm_columns",
    "subset_lcms",
    "minimalize",
    "polar_set",
    "polar_sets",
]

# Exponents beyond this are rejected everywhere; keeps power sums desk-scale.
MAX_EXPONENT = 2**31


@dataclass(frozen=True)
class VariableTable:
    """Ordered table of distinct variable names; index i <-> names[i]."""

    names: tuple[str, ...]
    _lookup: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = tuple(self.names)
        if not names:
            raise ValueError("a variable table needs at least one variable")
        lookup = {}
        for i, name in enumerate(names):
            if not name:
                raise ValueError("variable names must be nonempty")
            if name in lookup:
                raise ValueError(f"duplicate variable name {name!r}")
            lookup[name] = i
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_lookup", lookup)

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._lookup[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None


@dataclass(frozen=True, eq=False)
class Monomial:
    """A monomial stored as its dense exponent tuple over a variable table.

    `vec[i]` is the exponent of `table.names[i]`, between 0 and `MAX_EXPONENT`;
    the unit monomial is all zeros.  Two monomials are equal when they mean
    the same product of named variables, even across tables.
    """

    table: VariableTable
    vec: tuple[int, ...]

    def __post_init__(self):
        vec = tuple(self.vec)
        if len(vec) != len(self.table):
            raise ValueError(
                f"exponent tuple has length {len(vec)}, the table has {len(self.table)} variables"
            )
        if min(vec) < 0 or max(vec) > MAX_EXPONENT:
            raise ValueError(f"exponents must lie between 0 and the {MAX_EXPONENT} cap")
        object.__setattr__(self, "vec", vec)

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
        return self.vec[index]

    def divides(self, other: "Monomial") -> bool:
        _check_table(self, other)
        return all(map(le, self.vec, other.vec))

    def __mul__(self, other: "Monomial") -> "Monomial":
        _check_table(self, other)
        return Monomial(self.table, tuple(map(add, self.vec, other.vec)))

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


def _check_table(a: Monomial, b: Monomial) -> None:
    if a.table is not b.table and a.table != b.table:
        raise ValueError("mismatched variable tables")


def lcm(a: Monomial, b: Monomial) -> Monomial:
    """Least common multiple: coordinatewise max of exponents."""
    _check_table(a, b)
    return Monomial(a.table, tuple(map(max, a.vec, b.vec)))


def gcd(a: Monomial, b: Monomial) -> Monomial:
    """Greatest common divisor: coordinatewise min of exponents."""
    _check_table(a, b)
    return Monomial(a.table, tuple(map(min, a.vec, b.vec)))


def quotient(a: Monomial, b: Monomial) -> Monomial:
    """Exact division a / b; raises if b does not divide a."""
    if not b.divides(a):
        raise ValueError(f"{b} does not divide {a}")
    return Monomial(a.table, tuple(map(sub, a.vec, b.vec)))


def lcm_all(table: VariableTable, monomials: Iterable[Monomial]) -> Monomial:
    """lcm of any number of monomials; the empty lcm is the unit monomial."""
    acc = Monomial.unit(table)
    for m in monomials:
        acc = lcm(acc, m)
    return acc


def gcd_all(monomials: Iterable[Monomial]) -> Monomial:
    """gcd of a nonempty collection of monomials."""
    it = iter(monomials)
    try:
        acc = next(it)
    except StopIteration:
        raise ValueError("gcd of an empty collection is undefined") from None
    for m in it:
        acc = gcd(acc, m)
    return acc


def lcm_columns(gens: Sequence[Monomial], variables: Iterable[int]) -> Iterator[list[int]]:
    """Per variable, its exponent in the lcm of every subset of `gens`; index = mask.

    A mask with highest set bit `1 << i` takes the larger of `gens[i]`'s exponent
    and the entry without that bit (a slice copy when `gens[i]` lacks the
    variable).  One list is reused for every variable: copy a column to keep it.
    """
    col = [0] * (1 << len(gens))
    for v in variables:
        for i, g in enumerate(gens):
            bit = 1 << i
            e = g.vec[v]
            if e:
                for sub in range(bit):
                    m = col[sub]
                    col[bit + sub] = m if m >= e else e
            else:
                col[bit : bit + bit] = col[:bit]
        yield col


def subset_lcms(table: VariableTable, gens: Sequence[Monomial]) -> list[Monomial]:
    """lcm of every subset of `gens`, indexed by bitmask; entry 0 is the unit."""
    columns = [col[:] for col in lcm_columns(gens, range(len(table)))]
    return [Monomial(table, vec) for vec in zip(*columns)]


@dataclass(frozen=True, eq=False)
class MonomialIdeal:
    """A monomial ideal held by its canonical minimal generating set.

    The constructor rejects generating sets that are not minimal (a duplicate
    or a generator dividing another); use `minimalize` to normalize raw lists.
    Equality and hashing are table-independent: two ideals are equal when
    their generators agree as named monomials.  `supports` holds each
    generator's variable set; facts derived from the ideal are cached on it
    (see `per_ideal`).
    """

    ring: VariableTable
    gens: tuple[Monomial, ...]
    supports: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)
    _facts: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gens = tuple(self.gens)
        if not gens:
            raise ValueError("a monomial ideal needs at least one generator")
        for g in gens:
            if g.table != self.ring:
                raise ValueError("generator does not live in the ideal's ring")
            if g.is_unit:
                raise ValueError("the unit monomial cannot be a generator")
        gens = tuple(sorted(gens, key=Monomial.sort_key))
        # in this order a divisor, or the first of two equal generators, comes first
        for j, h in enumerate(gens):
            for g in gens[:j]:
                if g.divides(h):
                    raise ValueError(f"not a minimal generating set: {g} divides {h}")
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "supports", tuple(frozenset(g.support) for g in gens))
        object.__setattr__(self, "_facts", {})

    @property
    def q(self) -> int:
        """Number of minimal generators."""
        return len(self.gens)

    def without(self, index: int) -> "MonomialIdeal":
        """The ideal generated by all generators except `gens[index]`, built once."""
        key = f"without.{index}"
        if key not in self._facts:
            rest = self.gens[:index] + self.gens[index + 1 :]
            self._facts[key] = MonomialIdeal(self.ring, rest)
        return self._facts[key]

    def used_variables(self) -> tuple[int, ...]:
        return tuple(sorted(frozenset().union(*self.supports)))

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


def per_ideal(fn: Callable) -> Callable:
    """Compute `fn(ideal)` once per ideal object and cache it on the ideal.

    Ideals are immutable, so a fact about one never goes stale.  A call that
    raises caches nothing.  Facts are keyed by name so that an analysed
    ideal still pickles.
    """
    key = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def cached(ideal: MonomialIdeal):
        facts = ideal._facts
        if key not in facts:
            facts[key] = fn(ideal)
        return facts[key]

    return cached


def minimalize(ring: VariableTable, raw: Iterable[Monomial]) -> MonomialIdeal:
    """Drop duplicates and generators divisible by another; sort canonically.

    In canonical order a divisor or duplicate comes first, so one pass keeps each
    monomial no kept one divides; `MonomialIdeal` rejects empty, unit, foreign.
    """
    kept: list[Monomial] = []
    for m in sorted(raw, key=Monomial.sort_key):
        if not any(k.divides(m) for k in kept):
            kept.append(m)
    return MonomialIdeal(ring, tuple(kept))


def polar_set(m: Monomial) -> frozenset[tuple[int, int]]:
    """Slot labels of a monomial: (variable index, slot) with 1 <= slot <= exponent.

    The label set's cardinality equals the total degree; unions/intersections
    of these sets turn lcm/gcd degree identities into counting.
    """
    return frozenset((i, s) for i, e in enumerate(m.vec) for s in range(1, e + 1))


def polar_sets(ideal: MonomialIdeal) -> list[frozenset[tuple[int, int]]]:
    """One slot-label set per minimal generator, in canonical generator order."""
    return [polar_set(g) for g in ideal.gens]
