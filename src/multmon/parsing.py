"""Text and structured input for monomial ideals.

Grammar (whitespace may separate factors in place of '*'):

    ideal    := monomial ((',' | ';') monomial)*
    monomial := factor (('*' | WS) factor)*
    factor   := var ('^' uint)?
    var      := [a-zA-Z][a-zA-Z0-9_]*

'#' starts a comment running to the end of the line.  Variables are taken in
first-occurrence order unless an explicit ordered name list is supplied.
Repeated variables within one monomial multiply (exponents add).  The parsed
generator list is always minimalized; dropped generators are reported as
notices.

Scanning alternates a filler pattern (whitespace, comments) and a factor
pattern (`var`, then '^' and ASCII digits); line and column are computed from
the offset of an error only when one is raised.  Structured input and
explicit name lists must use the same `var` token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import MAX_EXPONENT, Monomial, MonomialIdeal, VariableTable, minimalize
from .errors import ParseError

__all__ = [
    "ParsedIdeal",
    "parse_ideal",
    "parse_ideal_detailed",
    "ideal_from_maps",
    "is_valid_variable_name",
]

_VAR = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_FILLER = re.compile(r"(?:\s|#[^\n]*)*")
# [0-9], not \d: only ASCII digits make an exponent ('١' is a \d)
_FACTOR = re.compile(rf"({_VAR.pattern})(\^[0-9]*)?")
_CAP_DIGITS = len(str(MAX_EXPONENT))


def is_valid_variable_name(name: str) -> bool:
    """Whether `name` matches the grammar's variable token."""
    return isinstance(name, str) and _VAR.fullmatch(name) is not None


@dataclass(frozen=True)
class ParsedIdeal:
    ideal: MonomialIdeal
    notices: tuple[str, ...]


def _error(text: str, pos: int, code: str, message: str) -> ParseError:
    line = text.count("\n", 0, pos) + 1
    return ParseError(code, message, line, pos - text.rfind("\n", 0, pos))


def _scan_ideal(text: str) -> list[dict[str, int]]:
    """One name -> summed exponent map per monomial, in the order written."""
    pos = _FILLER.match(text).end()
    if pos == len(text):
        raise _error(text, pos, "empty-ideal", "no generators found")
    monomials = []
    while True:
        m = _FACTOR.match(text, pos)
        if m is None:
            raise _error(text, pos, "syntax", "expected a variable")
        factors: dict[str, int] = {}
        while m:
            name, power = m.groups()
            value, at = 1, m.start()
            if power is not None:
                at = m.start(2) + 1
                if len(power) == 1:
                    raise _error(text, at, "syntax", "expected an integer exponent after '^'")
                digits = power[1:].lstrip("0")
                # decided on the digits: int() refuses strings past a few thousand digits
                if len(digits) > _CAP_DIGITS:
                    message = f"exponent of {len(digits)} digits exceeds the {MAX_EXPONENT} cap"
                    raise _error(text, at, "exponent-too-large", message)
                value = int(digits or "0")
                if value == 0:
                    raise _error(text, at, "zero-exponent", "exponents must be positive")
            total = factors.get(name, 0) + value
            if total > MAX_EXPONENT:
                message = f"exponent {total} exceeds the {MAX_EXPONENT} cap"
                raise _error(text, at, "exponent-too-large", message)
            factors[name] = total
            end = m.end()
            pos = _FILLER.match(text, end).end()
            if text.startswith("*", pos):
                pos = _FILLER.match(text, pos + 1).end()
                m = _FACTOR.match(text, pos)
                if m is None:
                    raise _error(text, pos, "syntax", "expected a variable after '*'")
            else:
                # whitespace alone may separate factors; 'a^2b' has none before 'b'
                m = pos > end and _FACTOR.match(text, pos)
        monomials.append(factors)
        if pos == len(text):
            return monomials
        if text[pos] not in ",;":
            raise _error(text, pos, "syntax", f"unexpected character {text[pos]!r}")
        pos = _FILLER.match(text, pos + 1).end()
        if pos == len(text):
            raise _error(text, pos, "syntax", "expected a monomial after the separator")


def _check_names(names: Iterable[str]) -> None:
    for name in names:
        if not is_valid_variable_name(name):
            raise ParseError("syntax", f"{name!r} is not a valid variable name")


def _build(
    factor_maps: list[dict[str, int]], var_names: Sequence[str] | None
) -> tuple[MonomialIdeal, tuple[str, ...]]:
    if var_names is not None:
        _check_names(var_names)
        table = VariableTable(tuple(var_names))
        known = set(var_names)
        for factors in factor_maps:
            for name in factors:
                if name not in known:
                    raise ParseError(
                        "unknown-variable", f"variable {name!r} is not in the declared list"
                    )
    else:
        order: list[str] = []
        for factors in factor_maps:
            for name in factors:
                if name not in order:
                    order.append(name)
        table = VariableTable(tuple(order))
    raw = [
        Monomial.from_map(table, {table.index(name): e for name, e in factors.items()})
        for factors in factor_maps
    ]
    ideal = minimalize(table, raw)
    kept = list(ideal.gens)
    notices = []
    for m in raw:
        if m in kept:
            kept.remove(m)
        else:
            notices.append(f"minimalized: dropped redundant generator {m}")
    return ideal, tuple(notices)


def parse_ideal_detailed(text: str, var_names: Sequence[str] | None = None) -> ParsedIdeal:
    """Parse ideal text, keeping minimalization notices alongside the result."""
    ideal, notices = _build(_scan_ideal(text), var_names)
    return ParsedIdeal(ideal, notices)


def parse_ideal(text: str, var_names: Sequence[str] | None = None) -> MonomialIdeal:
    """Parse ideal text into its canonical minimal form."""
    return parse_ideal_detailed(text, var_names).ideal


def ideal_from_maps(
    maps: Iterable[Mapping[str, int]], var_names: Sequence[str] | None = None
) -> MonomialIdeal:
    """Structured input: one name -> exponent mapping per generator."""
    factor_maps = []
    for mapping in maps:
        _check_names(mapping)
        factors: dict[str, int] = {}
        for name, e in mapping.items():
            if not isinstance(e, int) or isinstance(e, bool):
                raise ParseError("syntax", f"exponent of {name!r} must be an integer")
            if e == 0:
                raise ParseError("zero-exponent", f"exponent of {name!r} must be positive")
            if e < 0:
                raise ParseError("syntax", f"exponent of {name!r} must be positive")
            if e > MAX_EXPONENT:
                raise ParseError(
                    "exponent-too-large", f"exponent {e} exceeds the {MAX_EXPONENT} cap"
                )
            factors[name] = factors.get(name, 0) + e
        if not factors:
            raise ParseError("unit-generator", "a generator must involve at least one variable")
        factor_maps.append(factors)
    if not factor_maps:
        raise ParseError("empty-ideal", "no generators found")
    ideal, _ = _build(factor_maps, var_names)
    return ideal
