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
"""

from __future__ import annotations

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

_VAR_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_DIGITS = set("0123456789")  # ASCII only: str.isdigit() also takes '²' and '١'
_VAR_BODY = _VAR_START | _DIGITS | {"_"}


def is_valid_variable_name(name: str) -> bool:
    """Whether `name` matches the grammar's variable token."""
    return bool(name) and name[0] in _VAR_START and all(c in _VAR_BODY for c in name[1:])


@dataclass(frozen=True)
class ParsedIdeal:
    ideal: MonomialIdeal
    notices: tuple[str, ...]


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.column = 1
        else:
            self.column += 1
        return ch

    def skip_filler(self) -> bool:
        """Consume whitespace and comments; report whether anything was eaten."""
        ate = False
        while True:
            ch = self.peek()
            if ch is not None and ch.isspace():
                self.advance()
                ate = True
            elif ch == "#":
                while self.peek() not in (None, "\n"):
                    self.advance()
                ate = True
            else:
                return ate

    def error(self, code: str, message: str) -> ParseError:
        return ParseError(code, message, self.line, self.column)


def _scan_var(scanner: _Scanner) -> str:
    chars = [scanner.advance()]
    while scanner.peek() in _VAR_BODY:
        chars.append(scanner.advance())
    return "".join(chars)


def _scan_factor(scanner: _Scanner, factors: dict[str, int]) -> None:
    """Scan one factor and add its exponent to its variable's entry in `factors`."""
    line, column = scanner.line, scanner.column
    name = _scan_var(scanner)
    value = 1
    if scanner.peek() == "^":
        scanner.advance()
        if scanner.peek() not in _DIGITS:
            raise scanner.error("syntax", "expected an integer exponent after '^'")
        line, column = scanner.line, scanner.column
        digits = []
        while scanner.peek() in _DIGITS:
            digits.append(scanner.advance())
        significant = "".join(digits).lstrip("0")
        # decided on the digits: int() refuses strings past a few thousand digits
        if len(significant) > len(str(MAX_EXPONENT)):
            raise ParseError(
                "exponent-too-large",
                f"exponent of {len(significant)} digits exceeds the {MAX_EXPONENT} cap",
                line,
                column,
            )
        value = int(significant or "0")
        if value == 0:
            raise ParseError("zero-exponent", "exponents must be positive", line, column)
    total = factors.get(name, 0) + value
    if total > MAX_EXPONENT:
        raise ParseError(
            "exponent-too-large",
            f"exponent {total} exceeds the {MAX_EXPONENT} cap",
            line,
            column,
        )
    factors[name] = total


def _scan_monomial(scanner: _Scanner) -> dict[str, int]:
    factors: dict[str, int] = {}
    while True:
        _scan_factor(scanner, factors)
        ate_space = scanner.skip_filler()
        ch = scanner.peek()
        if ch == "*":
            scanner.advance()
            scanner.skip_filler()
            if scanner.peek() not in _VAR_START:
                raise scanner.error("syntax", "expected a variable after '*'")
            continue
        if ch in _VAR_START and ate_space:
            continue
        return factors


def _scan_ideal(text: str) -> list[dict[str, int]]:
    scanner = _Scanner(text)
    scanner.skip_filler()
    if scanner.peek() is None:
        raise scanner.error("empty-ideal", "no generators found")
    monomials = []
    while True:
        if scanner.peek() not in _VAR_START:
            raise scanner.error("syntax", "expected a variable")
        monomials.append(_scan_monomial(scanner))
        ch = scanner.peek()
        if ch is None:
            return monomials
        if ch in ",;":
            scanner.advance()
            scanner.skip_filler()
            if scanner.peek() is None:
                raise scanner.error("syntax", "expected a monomial after the separator")
            continue
        raise scanner.error("syntax", f"unexpected character {ch!r}")


def _build(
    factor_maps: list[dict[str, int]], var_names: Sequence[str] | None
) -> tuple[MonomialIdeal, tuple[str, ...]]:
    if var_names is not None:
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
