"""Parity check systems for block codes over products of residue rings.

The package revolves around one correspondence: a block code over
R = Z_t1 x ... x Z_tk, linear or not, is the same data as a pair (H|S)
of a check matrix and a syndrome matrix satisfying three compatibility
conditions.  Everything downstream (membership, kernels, minimum
distance, decoding, Fourier coefficients of the code indicator, distance
enumerators) is computed on the syndrome side, with exhaustive-scan
oracles available to cross-check any of it.
"""

from .rings import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    RingElem,
    RingSpec,
    RingVec,
    dot,
    enumerate_vectors,
    from_components,
    hamming,
    parse_ring,
    scale,
    support,
    vec_add,
    vec_neg,
    vec_sub,
    weight,
    zero_vec,
)
from .submodules import Submodule, solve_left, solve_right, syzygies
from .pcs import (
    CodePresentation,
    ConditionIIIViolation,
    ConditionIIViolation,
    ConditionIViolation,
    InternalInconsistency,
    ParityCheckSystem,
    PCSValidationError,
    code_to_pcs,
    is_linear,
    kernel,
    member,
    pcs_to_code,
    validate_pcs,
)
from .distance import (
    BeyondRadius,
    DecodeResult,
    DegenerateCode,
    SyndromeSet,
    decode,
    min_distance,
    min_distance_witness,
    sdiff,
    weight_shell,
)
from .fourier import (
    ExponentSum,
    GeneratingCharacter,
    character_exponent,
    fourier_coeff_coset,
    fourier_coeff_pcs,
    generating_character,
    poisson_sum,
)
from .enumerator import (
    EnumeratorPoly,
    NonIntegerCoefficient,
    distance_distribution,
    macwilliams_transform,
    pcs_enumerator_poly,
    weight_enumerator_linear,
)
from .oracle import (
    ExplicitCode,
    oracle_annihilator,
    oracle_code_from_pcs,
    oracle_distance_distribution,
    oracle_fourier,
    oracle_is_linear,
    oracle_kernel,
    oracle_min_distance,
    oracle_nearest,
    oracle_validate,
)
from .formats import (
    ParseError,
    ProblemFile,
    as_presentation,
    as_system,
    parse_problem,
    parse_vector_literal,
    serialize_code,
    serialize_pcs,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
