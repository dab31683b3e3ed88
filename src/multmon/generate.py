"""The seeded random ideal behind `verify --random`.

`random_ideal` takes an explicit `random.Random`, so a seed fixes every draw;
`make_table` names its variables a..z, or v0, v1, ... past 26.
"""

from __future__ import annotations

import random

from .core import Monomial, MonomialIdeal, VariableTable, minimalize

__all__ = ["make_table", "random_ideal"]


def make_table(n: int) -> VariableTable:
    if n <= 26:
        return VariableTable(tuple("abcdefghijklmnopqrstuvwxyz"[:n]))
    return VariableTable(tuple(f"v{i}" for i in range(n)))


def random_ideal(
    rng: random.Random,
    max_gens: int = 8,
    max_vars: int = 6,
    max_exp: int = 4,
) -> MonomialIdeal:
    """Unstructured random ideal: random sparse monomials, minimalized.

    Supports are kept small (mostly 1-2 variables) so minimalization retains
    most generators and the generator counts spread over the whole range.
    """
    n = rng.randint(min(2, max_vars), max_vars)
    table = make_table(n)
    q = rng.randint(1, max_gens)
    raw = []
    for _ in range(q):
        widest = max(1, min(3, n) if rng.random() < 0.25 else min(2, n))
        size = rng.randint(1, widest)
        support = rng.sample(range(n), size)
        raw.append(Monomial.from_map(table, {v: rng.randint(1, max_exp) for v in support}))
    return minimalize(table, raw)
