"""Seeded inputs, expected answers and the answer checker of the benchmark.

Everything here is plain stdlib code that never imports `multmon`, so a
change to the program cannot change what the benchmark feeds it or what it
accepts as a right answer.

An ideal is held as a tuple of generators; a generator is a tuple of
`(variable id, exponent)` factors in the order they are written.  Variable
ids become names `<prefix><id>` only when the text is rendered, so the same
plan can be rendered twice under different prefixes: the two renderings do
identical work in the program but are different ideals to it, which keeps
the program's own caches from answering the second pass.

Each workload is a fixed list of strata (count, command, ideal family and
size).  The counts are the same for every seed, so the order statistics the
benchmark reports (median and tail) always land in the same stratum; the
seed only picks the concrete ideals inside a stratum.  Counts are for a
nominal 25-second run and scale with `--seconds`.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

NOMINAL_SECONDS = 25
VAR_IDS = range(10, 100)  # two-digit ids, so renaming keeps the text length

Generator = tuple[tuple[int, int], ...]
Ideal = tuple[Generator, ...]


@dataclass(frozen=True)
class Case:
    """One timed call: a CLI command on one ideal, and what its answer must be.

    `expect` is `("value", e)` for a multiplicity known in closed form,
    `("agree",)` when only agreement between independent routes certifies
    the answer, and `("ranks", q)` for a resolution whose ranks are C(q, i).
    """

    command: str
    ideal: Ideal
    expect: tuple

    def argv(self, prefix: str) -> list[str]:
        argv = [self.command, "--ideal", render(self.ideal, prefix)]
        if self.command == "multiplicity":
            argv.append("--check")
        return argv


def render(ideal: Ideal, prefix: str) -> str:
    return ", ".join(
        "*".join(f"{prefix}{v}" if e == 1 else f"{prefix}{v}^{e}" for v, e in gen)
        for gen in ideal
    )


# ---------------------------------------------------------------------------
# exponent-map helpers (generators as {variable: exponent})


def _degree(m: dict[int, int]) -> int:
    return sum(m.values())


def _divides(a: dict[int, int], b: dict[int, int]) -> bool:
    return all(b.get(v, 0) >= e for v, e in a.items())


def _lcm(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out = dict(a)
    for v, e in b.items():
        if e > out.get(v, 0):
            out[v] = e
    return out


def _gcd(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    return {v: min(e, b[v]) for v, e in a.items() if v in b}


def _is_antichain(maps: list[dict[int, int]]) -> bool:
    """No generator is the unit, and none divides another (duplicates included)."""
    if any(not m for m in maps):
        return False
    return not any(
        i != j and _divides(a, b) for i, a in enumerate(maps) for j, b in enumerate(maps)
    )


def canonical_key(ideal: Ideal) -> frozenset:
    """Equal keys exactly when the program would hold the two ideals equal.

    The program compares minimal generating sets as sets of named monomials,
    so a renaming of variables gives a different key.
    """
    return frozenset(frozenset(gen) for gen in ideal)


def _build(maps: list[dict[int, int]], rng: random.Random) -> Ideal:
    """Shuffle generator order and factor order; check minimality."""
    if not _is_antichain(maps):
        raise ValueError("generator produced a non-minimal generating set")
    gens = []
    for m in maps:
        factors = list(m.items())
        rng.shuffle(factors)
        gens.append(tuple(factors))
    rng.shuffle(gens)
    return tuple(gens)


def _names(rng: random.Random, n: int) -> list[int]:
    return rng.sample(VAR_IDS, n)


# ---------------------------------------------------------------------------
# closed forms evaluated by the benchmark itself


def cycle_multiplicity(q: int) -> int:
    """Edge ideal of a q-cycle: 2 minimum vertex covers for even q, q for odd q."""
    return 2 if q % 2 == 0 else q


def box_colength(powers: dict[int, int], extras: list[dict[int, int]]) -> int:
    """Standard monomials of (x_v^a_v for all v) + extras, by inclusion-exclusion.

    Every extra lies strictly inside the box, so the monomials of the box
    that a set S of extras covers number prod_v (a_v - lcm(S)_v).
    """
    total = 0
    for mask in range(1 << len(extras)):
        top: dict[int, int] = {}
        for i, m in enumerate(extras):
            if mask >> i & 1:
                top = _lcm(top, m)
        term = 1
        for v, a in powers.items():
            term *= a - top.get(v, 0)
        total += -term if bin(mask).count("1") & 1 else term
    return total


def gcd_degree(maps: list[dict[int, int]]) -> int:
    acc = maps[0]
    for m in maps[1:]:
        acc = _gcd(acc, m)
    return _degree(acc)


def aci_value(ci: list[dict[int, int]], extra: dict[int, int]) -> int:
    full = 1
    deflated = 1
    for g in ci:
        full *= _degree(g)
        deflated *= _degree(g) - _degree(_gcd(g, extra))
    return full - deflated


def structural_value(free: list[dict[int, int]], ci: list[dict[int, int]]) -> int:
    """Alternating sum over free-part subsets S of prod_h (deg lcm(m_S, h) - deg m_S)."""
    total = 0
    for mask in range(1 << len(free)):
        mbar: dict[int, int] = {}
        for i, f in enumerate(free):
            if mask >> i & 1:
                mbar = _lcm(mbar, f)
        base = _degree(mbar)
        term = 1
        for h in ci:
            term *= _degree(_lcm(mbar, h)) - base
        total += -term if bin(mask).count("1") & 1 else term
    return total


def quadratic_value(maps: list[dict[int, int]]) -> int:
    """2 to the number of generators coprime to all the others."""
    isolated = sum(
        1
        for i, a in enumerate(maps)
        if all(not (a.keys() & b.keys()) for j, b in enumerate(maps) if j != i)
    )
    return 2**isolated


# ---------------------------------------------------------------------------
# ideal families


def cycle_ideal(rng: random.Random, q: int) -> tuple[Ideal, tuple]:
    """q-cycle edge ideal, variables renamed at random and generators shuffled."""
    ids = _names(rng, q)
    maps = [{ids[i]: 1, ids[(i + 1) % q]: 1} for i in range(q)]
    return _build(maps, rng), ("value", cycle_multiplicity(q))


def sparse_ideal(rng: random.Random, q: int) -> tuple[Ideal, tuple]:
    """Square-free ideal with q generators of size 2 or 3 on q variables.

    Built from a random q-cycle by edge swaps, which keep every variable in
    two generators (so no generator is dominant and `auto` falls through to
    the Taylor engine), and by growing some edges into triples.
    Its answer is certified only by agreement of the engine and the oracle.
    """
    while True:
        ids = _names(rng, q)
        edges = [{ids[i], ids[(i + 1) % q]} for i in range(q)]
        for _ in range(q):
            a, b = rng.sample(range(q), 2)
            x, y = sorted(edges[a])
            u, w = sorted(edges[b])
            new_a, new_b = {x, u}, {y, w}
            if len(new_a) == 2 and len(new_b) == 2 and new_a not in edges and new_b not in edges:
                edges[a], edges[b] = new_a, new_b
        for i in rng.sample(range(q), q // 3):
            edges[i] = edges[i] | {rng.choice(ids)}
        maps = [{v: 1 for v in e} for e in edges]
        if _is_antichain(maps):
            return _build(maps, rng), ("agree",)


def box_ideal(rng: random.Random, grid: int, n: int, support: int, frac: float) -> tuple[Ideal, tuple]:
    """Pure powers x_v^a_v with prod a_v close to `grid`, plus one mixed generator.

    The extra generator involves `support` of the variables, each to about
    `frac` of its side (at least 1).  The only cover is all the variables, so
    the oracle walks one grid of prod a_v points, and the shape fixes the
    work per point; every other route is cheap.  The seed picks the names,
    which variable gets which side and which ones the extra generator uses.
    """
    ids = _names(rng, n)
    side = grid ** (1 / n)
    # Side lengths are side^0.8 ... side^1.2 over the first n - 1 variables
    # (in seeded order) and whatever brings the product to `grid` for the last.
    powers = {v: max(4, round(side ** (0.8 + 0.4 * k / (n - 2)))) for k, v in enumerate(ids[:-1])}
    powers[ids[-1]] = max(4, round(grid / math.prod(powers.values())))
    extra = {v: max(1, round(powers[v] * frac)) for v in rng.sample(ids, support)}
    maps = [{v: a} for v, a in powers.items()] + [extra]
    return _build(maps, rng), ("value", box_colength(powers, [extra]))


def dominant_ideal(rng: random.Random, q: int) -> tuple[Ideal, tuple]:
    """Every generator has a private variable whose exponent beats all others'.

    Each generator is p_i^a * s^b * p_j^c over q private variables p and two
    shared ones s, with c below p_j's own exponent, so every generator has
    exactly three variables and the faces' multidegrees have similar sizes.
    """
    ids = _names(rng, q + 2)
    private, common = ids[:q], ids[q:]
    tops = [rng.randint(2, 3) for _ in range(q)]
    maps = []
    for i in range(q):
        j = rng.choice([k for k in range(q) if k != i])
        maps.append(
            {private[i]: tops[i], rng.choice(common): rng.randint(1, 3), private[j]: rng.randint(1, tops[j] - 1)}
        )
    return _build(maps, rng), ("ranks", q)


def _random_monomial(rng: random.Random, ids: list[int], max_vars: int, max_exp: int) -> dict[int, int]:
    support = rng.sample(ids, rng.randint(1, min(max_vars, len(ids))))
    return {v: rng.randint(1, max_exp) for v in support}


def _antichain(rng: random.Random, ids: list[int], k: int, max_vars: int, max_exp: int) -> list[dict[int, int]]:
    maps: list[dict[int, int]] = []
    misses = 0
    while len(maps) < k:
        m = _random_monomial(rng, ids, max_vars, max_exp)
        if not any(_divides(m, o) or _divides(o, m) for o in maps):
            maps.append(m)
        elif (misses := misses + 1) > 100:  # painted into a corner: start over
            maps, misses = [], 0
    return maps


def codim1_ideal(rng: random.Random, q: int) -> tuple[Ideal, tuple]:
    """A common factor times an antichain of cofactors; e = deg gcd."""
    ids = _names(rng, 7)
    common = {ids[0]: rng.randint(1, 2)}
    if rng.random() < 0.5:
        common[ids[1]] = 1
    maps = []
    for cofactor in _antichain(rng, ids[1:], q, 3, 2):
        m = dict(common)
        for v, e in cofactor.items():
            m[v] = m.get(v, 0) + e
        maps.append(m)
    return _build(maps, rng), ("value", gcd_degree(maps))


def _coprime_block(rng: random.Random, ids: list[int], q: int) -> list[dict[int, int]]:
    """q pairwise-coprime generators on disjoint slices of `ids`."""
    maps = []
    pos = 0
    for i in range(q):
        width = 1 if len(ids) - pos <= q - i else rng.randint(1, 2)
        maps.append({v: rng.randint(1, 3) for v in ids[pos : pos + width]})
        pos += width
    return maps


def ci_ideal(rng: random.Random, q: int) -> tuple[Ideal, tuple]:
    """Pairwise-coprime generators; e = product of degrees."""
    maps = _coprime_block(rng, _names(rng, min(8, 2 * q)), q)
    return _build(maps, rng), ("value", math.prod(_degree(m) for m in maps))


def stem_ideal(rng: random.Random, q: int) -> tuple[Ideal, tuple]:
    """Blocks on disjoint variables, each a stem times private powers; e = prod deg(stem)."""
    blocks = 2 if q <= 4 else 3
    sizes = [1] * blocks
    for _ in range(q - blocks):
        sizes[rng.randrange(blocks)] += 1
    ids = _names(rng, blocks + q)
    stems, private = ids[:blocks], ids[blocks:]
    maps = []
    for b, size in enumerate(sizes):
        stem = {stems[b]: rng.randint(1, 2)}
        for _ in range(size):
            maps.append(stem | {private.pop(): rng.randint(1, 2)})
    value = 1
    start = 0
    for size in sizes:
        value *= gcd_degree(maps[start : start + size])
        start += size
    return _build(maps, rng), ("value", value)


def aci_ideal(rng: random.Random, q: int) -> tuple[Ideal, tuple]:
    """q - 1 coprime generators plus one that meets at least two of them."""
    while True:
        ci = _coprime_block(rng, _names(rng, min(8, 2 * (q - 1))), q - 1)
        touched = rng.sample(range(q - 1), rng.randint(2, q - 1))
        extra = {rng.choice(list(ci[t])): rng.randint(1, 3) for t in touched}
        if _is_antichain(ci + [extra]):
            return _build(ci + [extra], rng), ("value", aci_value(ci, extra))


def split_ideal(rng: random.Random, q: int) -> tuple[Ideal, tuple]:
    """Dominant ideal with a coprime part of size codim; e by the structural sum.

    CI generators are p_k^a * y_k^b and free generators r_j^a * y_k^e, so the
    y_k cover everything and every generator has a private p_k or r_j.
    """
    c = 2 if q <= 4 else 3
    ids = _names(rng, c + q)
    cover, private = ids[:c], ids[c:]
    ci = [{private[k]: rng.randint(2, 3), cover[k]: rng.randint(1, 3)} for k in range(c)]
    free = []
    for j in range(c, q):
        m = {private[j]: rng.randint(1, 3)}
        for k in rng.sample(range(c), rng.randint(1, 2)):
            m[cover[k]] = rng.randint(1, 3)
        free.append(m)
    return _build(ci + free, rng), ("value", structural_value(free, ci))


def quadratic_ideal(rng: random.Random, q: int) -> tuple[Ideal, tuple]:
    """Degree-2 generators p_i^2 or p_i * s_k, each with a private p_i."""
    shared = rng.randint(1, 8 - q)
    ids = _names(rng, q + shared)
    private, common = ids[:q], ids[q:]
    maps = [
        {p: 2} if rng.random() < 0.3 else {p: 1, rng.choice(common): 1} for p in private
    ]
    return _build(maps, rng), ("value", quadratic_value(maps))


def unstructured_ideal(rng: random.Random, q: int, n: int) -> tuple[Ideal, tuple]:
    """Random antichain of q generators on n variables, exponents up to 3."""
    maps = _antichain(rng, _names(rng, n), q, 3, 3)
    return _build(maps, rng), ("agree",)


# ---------------------------------------------------------------------------
# workloads


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


@dataclass(frozen=True)
class Stratum:
    count: int
    command: str
    make: Callable[[random.Random], tuple[Ideal, tuple]]


def _engine_wide(scale: float) -> list[Stratum]:
    # Non-dominant wide ideals: `auto` goes to the Taylor power-sum engine and
    # `--check` adds the cover oracle, so `taylor.lcm_degree_table` dominates.
    # The median lands mid-way through the 32 q=14 cycles (27 inputs on either
    # side) and the tail (the 11th slowest input) among the q=16 cycles, with
    # the q=17 to q=20 inputs beyond it.  Sparse ideals sit in other strata, since their cost varies
    # more with the seed.
    plan = [
        (12, cycle_ideal, 10), (12, sparse_ideal, 5),
        (13, cycle_ideal, 8), (13, sparse_ideal, 4),
        (14, cycle_ideal, 32),
        (15, cycle_ideal, 3), (15, sparse_ideal, 3),
        (16, cycle_ideal, 16),
        (17, cycle_ideal, 1), (17, sparse_ideal, 1),
        (18, sparse_ideal, 1),
        (19, cycle_ideal, 1),
        (20, cycle_ideal, 1),
    ]
    return [
        Stratum(_scaled(count, scale), "multiplicity", lambda r, m=make, q=q: m(r, q))
        for q, make, count in plan
    ]


def _oracle_grid(scale: float) -> list[Stratum]:
    # Few generators, high exponents (`x^100, y^100, z^30, x*y*z` is the
    # type): the oracle's colength grid walk is nearly all the work.  Three
    # shapes of the extra generator fix the cost per grid point, measured as
    # about 2.3, 5.5 and 6.6 us on the tuning host; the seed picks only the
    # names, which variable gets which side and which variables the extra
    # generator uses.  Grid sizes are set from a target walk time: 12-30 ms
    # below the median block, 44 ms in it, 60-104 ms above it, 132 ms in the
    # tail block and 168-232 ms for the five inputs beyond the tail, so the
    # median and the tail each land mid-way through a block of equal inputs.
    shapes = {"xyz": (3, 3, 0.0), "half": (3, 2, 0.5), "quarter": (4, 4, 0.25)}
    us_per_point = {"xyz": 2.3, "half": 5.5, "quarter": 6.6}
    blocks = [
        (40, ("xyz", "half", "quarter"), 12_000, 30_000),
        (32, ("half",), 44_000, 44_000),
        (25, ("xyz", "half", "quarter"), 60_000, 104_000),
        (12, ("half",), 132_000, 132_000),
        (5, ("quarter",), 168_000, 232_000),
    ]
    strata = []
    for count, names, low, high in blocks:
        count = _scaled(count, scale)
        for i in range(count):
            shape = names[i % len(names)]
            walk_us = low * (high / low) ** (i / max(1, count - 1))
            grid = round(walk_us / us_per_point[shape])
            strata.append(
                Stratum(1, "multiplicity", lambda r, a=(grid, *shapes[shape]): box_ideal(r, *a))
            )
    return strata


def _resolution_dominant(scale: float) -> list[Stratum]:
    # Dominant ideals, whose Taylor complex is the minimal resolution: `betti`
    # and `taylor` build one Monomial per face and a large JSON document.
    # The median lands mid-way through the 30 q=10 betti calls (26 inputs on
    # either side) and the tail among the q=13 taylor calls, with the q=13
    # betti and q=14 calls beyond it.
    plan = [
        (8, "betti", 7), (8, "taylor", 7),
        (9, "betti", 6), (9, "taylor", 6),
        (10, "betti", 30),
        (11, "betti", 3), (11, "taylor", 3),
        (12, "betti", 2), (12, "taylor", 2),
        (13, "betti", 2), (13, "taylor", 10),
        (14, "betti", 2), (14, "taylor", 2),
    ]
    return [
        Stratum(_scaled(count, scale), cmd, lambda r, q=q: dominant_ideal(r, q))
        for q, cmd, count in plan
    ]


def _verify_mix(scale: float) -> list[Stratum]:
    # Many small ideals from every class with a closed form, plus unstructured
    # ones; `verify` runs every applicable route, so the per-ideal analysis
    # (codim above all) dominates.  Twelve almost complete intersections with
    # a 4000-point oracle grid, several times slower than the rest, hold the
    # tail, with five 7000-point ones beyond it, so the tail reads the
    # program and not the scheduling noise of a shared machine.
    per_class = 260
    makers = [
        (codim1_ideal, range(2, 7)),
        (ci_ideal, range(2, 6)),
        (stem_ideal, range(2, 6)),
        (aci_ideal, range(3, 7)),
        (split_ideal, range(3, 6)),
        (quadratic_ideal, range(2, 7)),
        (lambda r, q: unstructured_ideal(r, q, min(q, 8)), range(3, 11)),
    ]
    strata = []
    for make, sizes in makers:
        for q in sizes:
            count = _scaled(per_class // len(sizes), scale)
            strata.append(Stratum(count, "verify", lambda r, m=make, q=q: m(r, q)))
    strata.append(Stratum(_scaled(12, scale), "verify", lambda r: box_ideal(r, 4_000, 3, 2, 0.5)))
    strata.append(Stratum(_scaled(5, scale), "verify", lambda r: box_ideal(r, 7_000, 3, 2, 0.5)))
    return strata


WORKLOADS: dict[str, Callable[[float], list[Stratum]]] = {
    "engine-wide": _engine_wide,
    "oracle-grid": _oracle_grid,
    "resolution-dominant": _resolution_dominant,
    "verify-mix": _verify_mix,
}


def make_plan(workload: str, seed: int, seconds: int) -> list[Case]:
    """The workload's cases for this seed; no two are equal ideals.

    Stratum counts scale with `seconds / NOMINAL_SECONDS`.  Strata are interleaved round-robin, the same way for every seed,
    so slow inputs are spread through the pass and the program's memory
    history before each input does not depend on the seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    seen: set[frozenset] = set()
    columns = []
    for stratum in WORKLOADS[workload](seconds / NOMINAL_SECONDS):
        column = []
        for _ in range(stratum.count):
            while True:
                ideal, expect = stratum.make(rng)
                key = canonical_key(ideal)
                if key not in seen:
                    seen.add(key)
                    break
            column.append(Case(stratum.command, ideal, expect))
        columns.append(column)
    return [case for row in itertools.zip_longest(*columns) for case in row if case is not None]


# ---------------------------------------------------------------------------
# answer checking


def check(case: Case, code: int, output: str) -> str | None:
    """None when the call's answer is right, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(output)
    except ValueError:
        return "output is not one JSON document"
    result = doc.get("result") or {}
    kind = case.expect[0]
    if kind == "ranks":
        q = case.expect[1]
        want = [math.comb(q, i) for i in range(q + 1)]
        if result.get("ranks") != want:
            return f"ranks {result.get('ranks')} != {want}"
        if case.command == "taylor" and len(result.get("faces", ())) != 1 << q:
            return "taylor face count is not 2^q"
        if case.command == "betti" and sum(e["count"] for e in result.get("entries", ())) != 1 << q:
            return "betti entry counts do not sum to 2^q"
        return None
    if doc.get("agreement") is not True:
        return "routes disagree"
    routes = [c["value"] for c in doc.get("checks", ())]
    if case.command == "multiplicity":
        routes.append(result.get("multiplicity"))
    if len(routes) < 2 or len(set(routes)) != 1:
        return f"fewer than two agreeing routes: {routes}"
    if kind == "value" and routes[0] != case.expect[1]:
        return f"multiplicity {routes[0]} != expected {case.expect[1]}"
    return None
