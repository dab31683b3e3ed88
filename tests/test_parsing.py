"""Grammar, error codes with positions, and round-trips."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multmon import (
    MAX_EXPONENT,
    ParseError,
    parse_ideal,
    parse_ideal_detailed,
)
from multmon.generate import random_ideal


def test_parses_block_example():
    ideal = parse_ideal("a^2*b*c, b^3*c, c^4, d^2*e^2, d*e*f, d*g^2")
    assert ideal.q == 6
    assert ideal.ring.names == ("a", "b", "c", "d", "e", "f", "g")


def test_whitespace_and_semicolons():
    assert parse_ideal("x y; z") == parse_ideal("x*y, z")
    assert parse_ideal("  x^2 ,\n y ") == parse_ideal("x^2, y")


def test_comments_are_stripped():
    assert parse_ideal("x^2, y # trailing comment") == parse_ideal("x^2, y")


def test_repeated_variables_multiply():
    assert parse_ideal("x*x^2") == parse_ideal("x^3")


def test_multi_character_variables():
    ideal = parse_ideal("alpha^2*beta, beta^3")
    assert ideal.ring.names == ("alpha", "beta")


def test_minimalization_notice():
    parsed = parse_ideal_detailed("x^2,x^3")
    assert parsed.ideal == parse_ideal("x^2")
    assert len(parsed.notices) == 1 and "x^3" in parsed.notices[0]


def test_zero_exponent_error():
    with pytest.raises(ParseError) as info:
        parse_ideal("x^0")
    assert info.value.code == "zero-exponent"
    assert (info.value.line, info.value.column) == (1, 3)


def test_syntax_errors():
    # '²' and Arabic-Indic one pass str.isdigit(); only ASCII digits make an exponent
    for text in ("x^", "x^2,", "x 2", "x+y", "a^2b", "x^\u00b2", "x^\u0661", "x^1\u00b2"):
        with pytest.raises(ParseError) as info:
            parse_ideal(text)
        assert info.value.code == "syntax", text


def test_empty_ideal_error():
    for text in ("", "   ", "# nothing here"):
        with pytest.raises(ParseError) as info:
            parse_ideal(text)
        assert info.value.code == "empty-ideal"


def test_exponent_cap():
    with pytest.raises(ParseError) as info:
        parse_ideal(f"x^{MAX_EXPONENT + 1}")
    assert info.value.code == "exponent-too-large"
    assert parse_ideal(f"x^{MAX_EXPONENT}").gens[0].degree == MAX_EXPONENT


# one text per ParseError message: (text, code, message, line, column)
CAP = MAX_EXPONENT
ERROR_SITES = [
    ("x^2 # c\n\ty^", "syntax", "expected an integer exponent after '^'", 2, 4),
    ("a*\n", "syntax", "expected a variable after '*'", 2, 1),
    ("x,\r\n# c\n", "syntax", "expected a monomial after the separator", 3, 1),
    ("x y+z", "syntax", "unexpected character '+'", 1, 4),
    ("x;\n  3", "syntax", "expected a variable", 2, 3),
    ("x^2,\n\tx^0", "zero-exponent", "exponents must be positive", 2, 4),
    ("x^2147483648 x", "exponent-too-large", f"exponent 2147483649 exceeds the {CAP} cap", 1, 14),
    ("y*x^999999999999", "exponent-too-large", f"exponent of 12 digits exceeds the {CAP} cap",
     1, 5),
    ("# only\n  ", "empty-ideal", "no generators found", 2, 3),
    # parsed with the declared list ("a", "b"): the first use of the undeclared name
    ("a*b, c^2", "unknown-variable", "variable 'c' is not in the declared list", 1, 6),
    ("a # note\n , b*zz", "unknown-variable", "variable 'zz' is not in the declared list", 2, 6),
]


@pytest.mark.parametrize("text, code, message, line, column", ERROR_SITES)
def test_error_sites(text, code, message, line, column):
    with pytest.raises(ParseError) as info:
        parse_ideal(text, ("a", "b") if code == "unknown-variable" else None)
    assert info.value.code == code
    assert str(info.value) == f"{message} (line {line}, column {column})"
    assert (info.value.line, info.value.column) == (line, column)


# the pieces of the texts above
TOKENS = ["x", "y", "a", "z", "3", "^", "^2", "^0", "^2147483648", "^999999999999"]
TOKENS += ["*", ",", ";", "+", " ", "\t", "\n", "\r\n", "# c", "# only"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=12).map("".join))
def test_any_text_parses_round_trip_or_fails_inside_it(text):
    try:
        ideal = parse_ideal(text)
    except ParseError as err:
        lines = text.split("\n")
        assert 1 <= err.line <= len(lines)
        assert 1 <= err.column <= len(lines[err.line - 1]) + 1
    else:
        assert parse_ideal(str(ideal)) == ideal


def test_error_positions_on_later_lines():
    with pytest.raises(ParseError) as info:
        parse_ideal("x^2,\n y^0")
    assert (info.value.line, info.value.column) == (2, 4)


def test_explicit_variable_order():
    ideal = parse_ideal("b*a", var_names=("a", "b"))
    assert ideal.ring.names == ("a", "b")
    for names in (("a", "b c"), ("a", "2b"), ("a", ""), ("a", "b\u00b2"), ("a", "a", "b"), ()):
        with pytest.raises(ParseError) as info:
            parse_ideal("a", var_names=names)
        assert info.value.code == "syntax", names
    # a fault in the name list has no place in the text
    for names, message in (
        (("a", "a", "b", "c"), "duplicate variable name 'a'"),
        (("a", "1b"), "'1b' is not a valid variable name"),
        ((), "a variable table needs at least one variable"),
    ):
        with pytest.raises(ParseError) as info:
            parse_ideal("a*b, c", var_names=names)
        assert (info.value.code, str(info.value)) == ("syntax", message), names
        assert info.value.line is info.value.column is None, names
    with pytest.raises(ParseError) as info:
        parse_ideal("c", var_names=("a", "b"))
    assert info.value.code == "unknown-variable"


def test_round_trip_examples():
    for text in (
        "a^3*c, a*b*e^3, a^2*b^2, c^2, d^2*e^2",
        "x^2*y, x*y^2",
        "q_1^4*q_2, q_2^2",
    ):
        ideal = parse_ideal(text)
        assert parse_ideal(str(ideal)) == ideal


def test_round_trip_random():
    rng = random.Random(2718)
    for _ in range(200):
        ideal = random_ideal(rng)
        assert parse_ideal(str(ideal)) == ideal
