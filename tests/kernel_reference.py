"""Face-by-face reference for the packed subset-lcm kernel.

`check(ideal)` compares everything read off the packed columns with a left
fold of `lcm` over each face's members: the `lcm_columns` exponent columns
(each variable's exponent in the face's lcm, one column per ring variable),
`lcm_degree_table` (deg lcm(all) and each face's shortfall from it, read off
the bit planes face by face), `taylor_numerator` against the signed degree
histogram counted face by face (`signed_histogram`), `subset_lcms`, the `taylor_resolution`
degrees and labels, `ps_power_sum(ideal, k)` for k <= 3, and for dominant
ideals the `betti_table` entries, one per face.  Two walks over the faces'
degrees certify what the library decides from the dominance witnesses
alone: whether any face has the degree of one of its facets
(`minimal_by_faces`, against `is_dominant`, which `classify` reports as
`taylor_minimal`), and for dominant ideals max(deg - hdeg)
(`regularity_dominant`).  `BOUNDARY` pairs ideals whose lcm degree d sits on
either side of each field-width limit with the width of the subset-lcm
columns, and `PLANE_BOUNDARY` ideals whose d sits on either side of a power
of two with the number of shortfall planes.  `REFERENCE` holds ideals that
take each branch of the column build: a variable whose exponent levels step
by 1 and by more, and a variable no generator uses.
`witnesses_by_pairs` is the pairwise definition of the dominance witnesses.
`tests/test_lcm_kernel.py` runs the check on those ideals, on seeded random
ones and on Hypothesis-drawn ones.
"""

from __future__ import annotations

from functools import reduce

import pytest

from multmon import (
    MAX_EXPONENT,
    Monomial,
    MonomialIdeal,
    UnsupportedError,
    betti_table,
    is_dominant,
    lcm,
    lcm_degree_table,
    ps_power_sum,
    regularity_dominant,
    taylor_numerator,
    taylor_resolution,
)
from multmon.core import lcm_columns, subset_lcms, unpack_fields

# (ideal, field width) for the subset-lcm columns: the lcm of all generators
# has degree 255 / 256, 65535 / 65536 and 2^32 - 1 / 2^32, and then three
# exponents at the cap.
BOUNDARY = [
    ("x^200*y^5, y^50*z^5, x^50*z^2", 8),
    ("x^200*y^5, y^50*z^6, x^50*z^2", 16),
    ("x^60000*y^5, y^5000*z^535, x^50*z^2", 16),
    ("x^60000*y^5, y^5000*z^536, x^50*z^2", 32),
    (f"x^{MAX_EXPONENT}*y, y^{MAX_EXPONENT - 2}*z, x*z", 32),
    (f"x^{MAX_EXPONENT}*y, y^{MAX_EXPONENT - 1}*z, x*z", 64),
    (f"x^{MAX_EXPONENT}, y^{MAX_EXPONENT}, x*y*z^{MAX_EXPONENT}, w^7*z", 64),
]

# (ideal, plane count) for the degree table, whose planes hold the bits of
# d = 127 / 128, 32767 / 32768 and 2^31 - 1 / 2^31, then 2^32 at the cap.
PLANE_BOUNDARY = [
    ("x^100*y^5, y^20*z^7, x^50*z^2", 7),
    ("x^100*y^5, y^20*z^8, x^50*z^2", 8),
    ("x^30000*y^5, y^2000*z^767, x^50*z^2", 15),
    ("x^30000*y^5, y^2000*z^768, x^50*z^2", 16),
    (f"x^{2**30}*y, y^{2**30 - 2}*z, x*z", 31),
    (f"x^{2**30}*y, y^{2**30 - 1}*z, x*z", 32),
    (f"x^{MAX_EXPONENT}*y, y^{MAX_EXPONENT - 1}*z, x*z", 33),
]

# x has the levels 1, 2, 4, 5 (steps of 1 and 2); v is in no generator.
REFERENCE = [
    ("x^5*y, x^4*z, x^2*w, x*y*z*w", None),
    ("x^3*y, y^2*z^4, x*z", ("v", "z", "y", "x")),
]

# Exponents beside every field-width limit, old and new, at the cap, and small ones.
EXPONENTS = (1, 2, 3, 5, 127, 128, 255, 256, 32767, 32768, 65535, 65536, 2**31 - 1, MAX_EXPONENT)


def field_width(ideal: MonomialIdeal) -> int:
    width, _ = lcm_columns(list(zip(*[g.vec for g in ideal.gens])))
    return width


def shortfalls(planes: list[int], q: int) -> list[int]:
    """Each face's shortfall, sum over p of (bit F of plane p) << p; index = face F."""
    assert all(plane >> (1 << q) == 0 for plane in planes), "a bit beyond the last face"
    bits = list(enumerate(planes))
    return [sum((plane >> face & 1) << p for p, plane in bits) for face in range(1 << q)]


def minimal_by_faces(degrees: list[int], q: int) -> bool:
    """Whether no face has the degree of one of its facets; `degrees` is indexed by face mask.

    A facet's multidegree divides the face's, so equal degrees mean equal lcms.
    """
    return not any(
        degrees[mask ^ 1 << i] == d for mask, d in enumerate(degrees) for i in range(q) if mask >> i & 1
    )


def folded_lcms(ideal: MonomialIdeal) -> list[Monomial]:
    """The lcm of each face, a left fold of `lcm` over its members; index = face mask."""
    unit = Monomial.unit(ideal.ring)
    return [
        reduce(lcm, (g for i, g in enumerate(ideal.gens) if mask >> i & 1), unit)
        for mask in range(1 << ideal.q)
    ]


def signed_histogram(degrees: list[int]) -> tuple[tuple[int, int], ...]:
    """K(t) as (d, K_d) pairs, K_d != 0, counted face by face; `degrees` is indexed by face mask."""
    histogram: dict[int, int] = {}
    for mask, d in enumerate(degrees):
        histogram[d] = histogram.get(d, 0) + (-1) ** mask.bit_count()
    return tuple((d, n) for d, n in sorted(histogram.items()) if n)


def check(ideal: MonomialIdeal) -> None:
    folds = folded_lcms(ideal)
    degrees = [m.degree for m in folds]
    width, columns = lcm_columns(list(zip(*[g.vec for g in ideal.gens])))
    columns = list(columns)
    assert len(columns) == len(ideal.ring), str(ideal)
    for v, column in enumerate(columns):
        fields = unpack_fields(column, width, ideal.q).tolist()
        assert fields == [m.vec[v] for m in folds], (str(ideal), v)
    top, planes = lcm_degree_table(ideal)
    assert top == degrees[-1] and len(planes) == top.bit_length(), str(ideal)
    assert shortfalls(planes, ideal.q) == [top - d for d in degrees], str(ideal)
    assert taylor_numerator(ideal) == signed_histogram(degrees), str(ideal)
    assert list(subset_lcms(ideal.ring, ideal.gens)) == [m.vec for m in folds], str(ideal)
    resolution = taylor_resolution(ideal)
    assert resolution.degrees == degrees, str(ideal)
    assert resolution.labels == [str(m) for m in folds], str(ideal)
    for k in range(4):
        expected = sum((-1) ** mask.bit_count() * d**k for mask, d in enumerate(degrees) if mask)
        assert ps_power_sum(ideal, k) == expected, (str(ideal), k)
    assert is_dominant(ideal) == minimal_by_faces(degrees, ideal.q), str(ideal)
    if is_dominant(ideal):
        expected = max(d - mask.bit_count() for mask, d in enumerate(degrees))
        assert regularity_dominant(ideal) == expected, str(ideal)
        faces = {(mask.bit_count(), m.vec): 1 for mask, m in enumerate(folds)}
        assert betti_table(ideal).entries == faces, str(ideal)
    else:
        with pytest.raises(UnsupportedError):
            regularity_dominant(ideal)


def witnesses_by_pairs(ideal: MonomialIdeal) -> tuple[int | None, ...]:
    """Per generator, the least variable whose exponent beats every other generator's."""
    gens = ideal.gens
    witnesses: list[int | None] = []
    for i, g in enumerate(gens):
        found = None
        for v, e in enumerate(g.vec):
            if e and all(other.vec[v] < e for j, other in enumerate(gens) if j != i):
                found = v
                break
        witnesses.append(found)
    return tuple(witnesses)
