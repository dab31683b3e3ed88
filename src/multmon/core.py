"""Monomials, monomial ideals, and their exact arithmetic.

A monomial is a sparse map from variable index to positive exponent over a
shared, ordered variable table.  A monomial ideal stores its unique minimal
generating set in a canonical order (ascending total degree, ties broken by
descending lexicographic comparison of exponent vectors) so that equal ideals
compare equal regardless of how their generators were supplied.

Everything here is an immutable value; operations return fresh objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps
from typing import Callable, Iterable, Mapping

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

    def name(self, index: int) -> str:
        return self.names[index]


@dataclass(frozen=True, eq=False)
class Monomial:
    """A monomial stored as sorted (variable index, exponent) pairs, exponents >= 1.

    The unit monomial has an empty `exps` tuple.  Two monomials are equal when
    they mean the same product of named variables, even across tables.
    """

    table: VariableTable
    exps: tuple[tuple[int, int], ...]

    def __post_init__(self):
        exps = tuple((int(i), int(e)) for i, e in self.exps)
        prev = -1
        for i, e in exps:
            if not 0 <= i < len(self.table):
                raise ValueError(f"variable index {i} out of range")
            if i <= prev:
                raise ValueError("exponent pairs must be sorted by strictly increasing index")
            if e < 1:
                raise ValueError("stored exponents must be >= 1")
            if e > MAX_EXPONENT:
                raise ValueError(f"exponent {e} exceeds the {MAX_EXPONENT} cap")
            prev = i
        object.__setattr__(self, "exps", exps)

    @classmethod
    def from_map(cls, table: VariableTable, exponents: Mapping[int, int]) -> "Monomial":
        """Build from an index -> exponent mapping; zero exponents are dropped."""
        pairs = []
        for i in sorted(exponents):
            e = exponents[i]
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            if e:
                pairs.append((i, e))
        return cls(table, tuple(pairs))

    @classmethod
    def unit(cls, table: VariableTable) -> "Monomial":
        return cls(table, ())

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    @property
    def is_unit(self) -> bool:
        return not self.exps

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.exps)

    def exponent(self, index: int) -> int:
        for i, e in self.exps:
            if i == index:
                return e
            if i > index:
                break
        return 0

    def exponent_vector(self) -> tuple[int, ...]:
        """Dense exponent tuple over the whole table."""
        vec = [0] * len(self.table)
        for i, e in self.exps:
            vec[i] = e
        return tuple(vec)

    def divides(self, other: "Monomial") -> bool:
        _check_table(self, other)
        them = dict(other.exps)
        return all(e <= them.get(i, 0) for i, e in self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        _check_table(self, other)
        return _merge(self, other, lambda a, b: a + b)

    def sort_key(self) -> tuple:
        """Ascending total degree, then descending lex on exponent vectors."""
        return (self.degree, tuple(-e for e in self.exponent_vector()))

    def name_form(self) -> tuple[tuple[str, int], ...]:
        """Table-independent form: sorted (variable name, exponent) pairs."""
        return tuple(sorted((self.table.names[i], e) for i, e in self.exps))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        if self.table is other.table:
            return self.exps == other.exps
        return self.name_form() == other.name_form()

    def __hash__(self) -> int:
        return hash(self.name_form())

    def __str__(self) -> str:
        if not self.exps:
            return "1"
        parts = []
        for i, e in self.exps:
            name = self.table.names[i]
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Monomial({self})"


def _check_table(a: Monomial, b: Monomial) -> None:
    if a.table != b.table:
        raise ValueError("mismatched variable tables")


def _merge(a: Monomial, b: Monomial, combine) -> Monomial:
    """Coordinatewise combine of two sparse exponent lists (absent = 0)."""
    out = []
    ia = dict(a.exps)
    ib = dict(b.exps)
    for i in sorted(set(ia) | set(ib)):
        e = combine(ia.get(i, 0), ib.get(i, 0))
        if e:
            out.append((i, e))
    return Monomial(a.table, tuple(out))


def lcm(a: Monomial, b: Monomial) -> Monomial:
    """Least common multiple: coordinatewise max of exponents."""
    _check_table(a, b)
    return _merge(a, b, max)


def gcd(a: Monomial, b: Monomial) -> Monomial:
    """Greatest common divisor: coordinatewise min of exponents."""
    _check_table(a, b)
    return _merge(a, b, min)


def quotient(a: Monomial, b: Monomial) -> Monomial:
    """Exact division a / b; raises if b does not divide a."""
    _check_table(a, b)
    if not b.divides(a):
        raise ValueError(f"{b} does not divide {a}")
    return _merge(a, b, lambda x, y: x - y)


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
        for i, g in enumerate(gens):
            for j, h in enumerate(gens):
                if i != j and g.divides(h):
                    raise ValueError(
                        f"not a minimal generating set: {g} divides {h}"
                    )
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "supports", tuple(frozenset(g.support) for g in gens))
        object.__setattr__(self, "_facts", {})

    @property
    def q(self) -> int:
        """Number of minimal generators."""
        return len(self.gens)

    def without(self, index: int) -> "MonomialIdeal":
        """The ideal generated by all generators except `gens[index]`."""
        rest = self.gens[:index] + self.gens[index + 1 :]
        return MonomialIdeal(self.ring, rest)

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
    """Drop duplicates and generators divisible by another; sort canonically."""
    items = list(raw)
    if not items:
        raise ValueError("cannot minimalize an empty generator list")
    for m in items:
        if m.table != ring:
            raise ValueError("generator does not live in the given ring")
        if m.is_unit:
            raise ValueError("the unit monomial cannot be a generator")
    unique = []
    for m in items:
        if m not in unique:
            unique.append(m)
    kept = [
        m
        for m in unique
        if not any(other.divides(m) for other in unique if other != m)
    ]
    return MonomialIdeal(ring, tuple(kept))


def polar_set(m: Monomial) -> frozenset[tuple[int, int]]:
    """Slot labels of a monomial: (variable index, slot) with 1 <= slot <= exponent.

    The label set's cardinality equals the total degree; unions/intersections
    of these sets turn lcm/gcd degree identities into counting.
    """
    return frozenset((i, s) for i, e in m.exps for s in range(1, e + 1))


def polar_sets(ideal: MonomialIdeal) -> list[frozenset[tuple[int, int]]]:
    """One slot-label set per minimal generator, in canonical generator order."""
    return [polar_set(g) for g in ideal.gens]
