"""Exact multiplicities, Taylor complexes, and Betti tables of monomial ideals."""

from .core import (
    MAX_EXPONENT,
    Monomial,
    MonomialIdeal,
    VariableTable,
    gcd,
    gcd_all,
    lcm,
    lcm_all,
    minimalize,
    polar_set,
    polar_sets,
    quotient,
)
from .decomposition import (
    DecompositionTerm,
    ThirdDecomposition,
    betti_decomposition,
    multiplicity_recurrence,
    structural_terms,
    third_decomposition,
)
from .errors import (
    HypothesisError,
    InternalConsistencyError,
    MultmonError,
    ParseError,
    ResourceCapError,
    UnsupportedError,
    UsageError,
)
from .formulas import (
    CISplit,
    QuadraticDominantData,
    StemStructure,
    aci_dominant_witness,
    aci_product_difference,
    detect_stem,
    e_aci,
    e_codim1,
    e_complete_intersection,
    e_quadratic_dominant,
    e_stem,
    e_structural,
    find_ci_split,
    quadratic_dominant_data,
    reg_quadratic_dominant,
    validate_split,
)
from .invariants import (
    ClassificationReport,
    classify,
    codim,
    dominance_witnesses,
    is_almost_complete_intersection,
    is_complete_intersection,
    is_dominant,
)
from .oracle import (
    colength,
    minimal_covers,
    multiplicity_associativity,
)
from .parsing import (
    ParsedIdeal,
    ideal_from_maps,
    parse_ideal,
    parse_ideal_detailed,
)
from .taylor import (
    Q_MAX,
    BettiTable,
    TaylorResolution,
    betti_table,
    differential_coefficient,
    is_taylor_minimal,
    lcm_degree_table,
    minimal_resolution,
    multiplicity_ps,
    ps_power_sum,
    regularity_dominant,
    taylor_numerator,
    taylor_resolution,
)

__version__ = "0.1.0"
