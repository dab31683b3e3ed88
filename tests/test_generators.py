"""The seeded generators draw the same ideals for the same seed.

Every seeded test, and `verify --random`, relies on a seed fixing its ideals;
a change in the generators' calls on the RNG would quietly swap the ideals
those tests check.  The strings below pin the first three draws of each.
"""

from __future__ import annotations

import random

import pytest

from multmon.generate import make_table, random_ideal

from generators import (
    random_aci,
    random_codim1_ideal,
    random_complete_intersection,
    random_dominant_with_split,
    random_quadratic_dominant,
    random_stem_ideal,
)

FIRST_DRAWS = [
    (random_ideal, {}, ["a^2, a*b^3, b^2*c^4", "a*b, a^4", "e^3, f^3, a^3*b"]),
    (random_codim1_ideal, {}, ["a^3, a^2*b^2*c^4", "a^3", "c^4, c^2*d^2, a^3*c^2*d"]),
    (
        random_complete_intersection,
        {},
        ["a^2, b^2*c^2", "e, c*d^3, a^4*b^4", "c*d, e^2*f^3, a^2*b^4"],
    ),
    (
        random_stem_ideal,
        {},
        [
            "a*c, a^3*d, b^3*e^2, b^3*g^2, b^2*h^3, b^3*f^3",
            "a*e^2, b^2*g, a^2*f^2, a*c^3, b^3*i, b*j^3, a^2*d^3, b^3*h^2",
            "a*d, b*f, a^2*c, a*e^3, b^2*g^2, b^2*i^3, b^3*h^3",
        ],
    ),
    (
        random_quadratic_dominant,
        {},
        ["a^2, a*b, a*c, d*e", "a*b, a*c, a*d, e*f, e*g, e*h, i*j, k^2", "a^2, b^2"],
    ),
    (
        random_dominant_with_split,
        {},
        [
            "a^2*c^3, a^4*b^5",
            "a*b^4*h, a*b^3*g^3, b^2*e^5, a^4*d^5, c^4*f^5",
            "a*g, a^3*d^5, b^4*e^5, c^4*f^5",
        ],
    ),
    (
        random_aci,
        {"dominant": True},
        ["a^2, c^4*d, b^2*c^4", "d^3*e, a^2*b^4, c^3*d^4", "a^2, a*b*e, d^3, b^4*c^2"],
    ),
    (
        random_aci,
        {"dominant": False},
        ["a^2, a*c^2, b^2*c^4", "a*c^2, c^3, a^3*b^3", "d^2, a^2*b^2, c^4, c^3*d"],
    ),
]


@pytest.mark.parametrize(
    "generator, kwargs, expected",
    FIRST_DRAWS,
    ids=[g.__name__ + "".join(f"-{k}={v}" for k, v in kw.items()) for g, kw, _ in FIRST_DRAWS],
)
def test_first_draws_at_seed_2019_are_pinned(generator, kwargs, expected):
    rng = random.Random(2019)
    assert [str(generator(rng, **kwargs)) for _ in range(3)] == expected


def test_make_table_names_letters_then_numbered_variables():
    assert make_table(26).names == tuple("abcdefghijklmnopqrstuvwxyz")
    assert make_table(27).names == tuple(f"v{i}" for i in range(27))
