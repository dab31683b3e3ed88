"""Seeded random generators for the classes of ideals the paper's formulas cover.

Each generator takes an explicit `random.Random` so runs are reproducible.
Constructions are generative: membership in the target class is arranged by
construction (private dominant variables, disjoint block supports, anchored
covers), not by rejection filtering, except where noted.  The tests draw
their codim-1, complete-intersection, stem, quadratic-dominant, split and
almost-complete-intersection ideals from here; the unstructured
`random_ideal` stays in `multmon.generate`, where `verify --random` uses it.
"""

from __future__ import annotations

import random

from multmon.core import Monomial, MonomialIdeal, minimalize
from multmon.generate import make_table, random_ideal


def random_codim1_ideal(
    rng: random.Random,
    max_gens: int = 8,
    max_vars: int = 6,
    max_exp: int = 4,
) -> MonomialIdeal:
    """Every generator shares one chosen variable, forcing codimension 1."""
    base = random_ideal(rng, max_gens, max_vars, max_exp)
    n = len(base.ring)
    v = rng.randrange(n)
    raw = []
    for g in base.gens:
        exps = dict(g.exps)
        exps[v] = exps.get(v, 0) + rng.randint(1, 2)
        raw.append(Monomial.from_map(base.ring, exps))
    return minimalize(base.ring, raw)


def random_complete_intersection(
    rng: random.Random,
    max_gens: int = 5,
    max_exp: int = 4,
    max_support: int = 2,
) -> MonomialIdeal:
    """Pairwise-coprime generators on disjoint variable blocks."""
    c = rng.randint(1, max_gens)
    sizes = [rng.randint(1, max_support) for _ in range(c)]
    table = make_table(sum(sizes))
    gens = []
    offset = 0
    for size in sizes:
        gens.append(
            Monomial.from_map(
                table,
                {offset + i: rng.randint(1, max_exp) for i in range(size)},
            )
        )
        offset += size
    return MonomialIdeal(table, tuple(gens))


def random_stem_ideal(
    rng: random.Random,
    max_blocks: int = 4,
    max_block_size: int = 4,
    max_exp: int = 3,
    max_total_gens: int | None = None,
) -> MonomialIdeal:
    """Blocks on disjoint variable pools, one shared stem variable per block.

    Every generator also owns a private variable, which makes the whole ideal
    dominant; block gcds contain the stem variable, so they are nonunit.
    """
    while True:
        blocks = rng.randint(1, max_blocks)
        sizes = [rng.randint(1, max_block_size) for _ in range(blocks)]
        if max_total_gens is None or sum(sizes) <= max_total_gens:
            break
    # one stem variable plus one private variable per generator, per block
    n = blocks + sum(sizes)
    table = make_table(n)
    gens = []
    stem_var = 0
    private = blocks
    for size in sizes:
        if size == 1:
            exps = {stem_var: rng.randint(1, max_exp)}
            if rng.random() < 0.5:
                exps[private] = rng.randint(1, max_exp)
            gens.append(Monomial.from_map(table, exps))
            private += 1
        else:
            for _ in range(size):
                gens.append(
                    Monomial.from_map(
                        table,
                        {
                            stem_var: rng.randint(1, max_exp),
                            private: rng.randint(1, max_exp),
                        },
                    )
                )
                private += 1
        stem_var += 1
    return MonomialIdeal(table, tuple(gens))


def random_quadratic_dominant(
    rng: random.Random,
    max_groups: int = 3,
    max_group_size: int = 3,
    max_isolated: int = 3,
) -> MonomialIdeal:
    """Degree-2 generators: shared-variable groups plus fully private ones."""
    groups = rng.randint(0, max_groups)
    isolated = rng.randint(1 if groups == 0 else 0, max_isolated)
    gens: list[dict[int, int]] = []
    var = 0
    for _ in range(groups):
        size = rng.randint(2, max_group_size)
        shared = var
        var += 1
        members = []
        if rng.random() < 0.3:
            members.append({shared: 2})
        while len(members) < size:
            members.append({shared: 1, var: 1})
            var += 1
        gens.extend(members)
    for _ in range(isolated):
        if rng.random() < 0.5:
            gens.append({var: 2})
            var += 1
        else:
            gens.append({var: 1, var + 1: 1})
            var += 2
    table = make_table(max(var, 1))
    return MonomialIdeal(table, tuple(Monomial.from_map(table, g) for g in gens))


def random_dominant_with_split(
    rng: random.Random,
    max_ci: int = 3,
    max_free: int = 3,
    max_exp: int = 4,
) -> MonomialIdeal:
    """Dominant ideal with a pairwise-coprime part of size equal to codim.

    Each CI generator gets an anchor variable and a private high-exponent
    variable; every free generator touches at least one anchor (so the anchors
    form a size-c cover) and owns a private variable of its own.
    """
    c = rng.randint(1, max_ci)
    d = rng.randint(0, max_free)
    # variable layout: anchors, CI privates, free privates
    table = make_table(2 * c + d)
    anchors = list(range(c))
    ci_private = list(range(c, 2 * c))
    free_private = list(range(2 * c, 2 * c + d))
    gens = []
    for i in range(c):
        gens.append(
            Monomial.from_map(
                table,
                {anchors[i]: rng.randint(1, max_exp), ci_private[i]: max_exp + 1},
            )
        )
    for j in range(d):
        chosen = rng.sample(anchors, rng.randint(1, c))
        exps = {a: rng.randint(1, max_exp) for a in chosen}
        exps[free_private[j]] = rng.randint(1, max_exp)
        gens.append(Monomial.from_map(table, exps))
    return MonomialIdeal(table, tuple(gens))


def random_aci(
    rng: random.Random,
    dominant: bool,
    max_ci: int = 4,
    max_exp: int = 4,
) -> MonomialIdeal:
    """Almost complete intersection: a CI plus one generator sharing variables.

    The extra generator divides into chosen CI supports with exponents at most
    the matching CI exponents; a fresh variable is appended exactly when a
    dominant ideal is requested (non-dominant needs at least two touched CI
    generators so every variable of the extra one is beaten).
    """
    while True:
        q = rng.randint(1, max_ci) if dominant else rng.randint(2, max_ci)
        sizes = [rng.randint(1, 2) for _ in range(q)]
        n = sum(sizes) + (1 if dominant else 0)
        table = make_table(n)
        ci = []
        offset = 0
        supports = []
        for size in sizes:
            support = list(range(offset, offset + size))
            supports.append(support)
            ci.append(Monomial.from_map(table, {v: rng.randint(2, max_exp) for v in support}))
            offset += size
        touched = rng.sample(range(q), rng.randint(1, q) if dominant else rng.randint(2, q))
        extra_exps: dict[int, int] = {}
        for i in touched:
            v = rng.choice(supports[i])
            cap = ci[i].exponent(v)
            if len(supports[i]) == 1:
                cap -= 1  # a pure power must not divide the extra generator
            if cap < 1:
                break
            extra_exps[v] = rng.randint(1, cap)
        else:
            if dominant:
                extra_exps[n - 1] = 1
            extra = Monomial.from_map(table, extra_exps)
            if any(g.divides(extra) or extra.divides(g) for g in ci):
                continue
            return MonomialIdeal(table, tuple(ci) + (extra,))
