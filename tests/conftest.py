from __future__ import annotations

from multmon import MonomialIdeal, parse_ideal


def gen_index(ideal: MonomialIdeal, text: str) -> int:
    """Index of the generator whose rendering matches the parsed monomial."""
    target = parse_ideal(text).gens[0]
    for i, g in enumerate(ideal.gens):
        if g == target:
            return i
    raise AssertionError(f"{text} is not a generator of {ideal}")
