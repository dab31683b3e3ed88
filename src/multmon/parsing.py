"""Text input for monomial ideals.

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
the offset of an error only when one is raised.  `var` is `core.VAR_NAME`, the
one name rule `VariableTable` enforces, so an explicit name list obeys it too.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Sequence

from .core import MAX_EXPONENT, VAR_NAME, Monomial, MonomialIdeal, VariableTable, minimalize
from .errors import ParseError

__all__ = [
    "ParsedIdeal",
    "parse_ideal",
    "parse_ideal_detailed",
]

_FILLER = re.compile(r"(?:\s|#[^\n]*)*")
# [0-9], not \d: only ASCII digits make an exponent ('١' is a \d)
_FACTOR = re.compile(rf"({VAR_NAME.pattern})(\^[0-9]*)?")
_CAP_DIGITS = len(str(MAX_EXPONENT))


class ParsedIdeal(NamedTuple):
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


def parse_ideal_detailed(text: str, var_names: Sequence[str] | None = None) -> ParsedIdeal:
    """Parse ideal text, keeping minimalization notices alongside the result."""
    factor_maps = _scan_ideal(text)
    if var_names is None:
        var_names = dict.fromkeys(name for factors in factor_maps for name in factors)
    try:
        table = VariableTable(tuple(var_names))
    except ValueError as exc:  # an explicit name list: empty, or with a non-token or repeated name
        raise ParseError("syntax", str(exc), None, None) from None
    raw = []
    for factors in factor_maps:
        vec = [0] * len(table)
        for name, e in factors.items():
            try:
                vec[table.index(name)] = e
            except KeyError:  # the scan kept no offsets: find the name's first use as a factor
                uses = re.finditer(rf"#[^\n]*|(?<!\w){name}(?!\w)", text)
                at = next(m.start() for m in uses if m[0] == name)
                message = f"variable {name!r} is not in the declared list"
                raise _error(text, at, "unknown-variable", message) from None
        raw.append(Monomial(table, tuple(vec)))
    ideal = minimalize(table, raw)
    kept = {g.vec for g in ideal.gens}
    notices = []
    for m in raw:
        if m.vec in kept:
            kept.remove(m.vec)  # a later equal generator is the redundant one
        else:
            notices.append(f"minimalized: dropped redundant generator {m}")
    return ParsedIdeal(ideal, tuple(notices))


def parse_ideal(text: str, var_names: Sequence[str] | None = None) -> MonomialIdeal:
    """Parse ideal text into its canonical minimal form."""
    return parse_ideal_detailed(text, var_names).ideal
