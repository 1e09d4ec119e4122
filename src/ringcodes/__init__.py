"""Parity check systems for block codes over products of residue rings.

The package revolves around one correspondence: a block code over
R = Z_t1 x ... x Z_tk, linear or not, is the same data as a pair (H|S)
of a check matrix and a syndrome matrix satisfying three compatibility
conditions.  Everything downstream (membership, kernels, minimum
distance, decoding, Fourier coefficients of the code indicator, distance
enumerators) is computed on the syndrome side, with exhaustive-scan
oracles available to cross-check any of it.

Importing the package loads none of its modules: each public name
imports its home module on first access (PEP 562) and is then bound here.
"""

from importlib import import_module as _import_module

# home module -> the public names it exports; each submodule is its own home
_EXPORTS = {
    "rings": "BudgetExceeded DEFAULT_BUDGET RingElem RingSpec RingVec dot enumerate_vectors"
    " from_components hamming parse_ring scale support vec_add vec_neg vec_sub weight zero_vec",
    "submodules": "Submodule solve_right syzygies",
    "pcs": "CodePresentation ConditionIIIViolation ConditionIIViolation ConditionIViolation"
    " InternalInconsistency ParityCheckSystem PCSValidationError code_to_pcs is_linear kernel"
    " member pcs_to_code validate_pcs",
    "distance": "BeyondRadius DecodeResult DegenerateCode decode min_distance"
    " min_distance_witness sdiff weight_shell",
    "fourier": "ExponentSum GeneratingCharacter fourier_coeff_coset"
    " fourier_coeff_pcs generating_character poisson_sum",
    "enumerator": "EnumeratorPoly NonIntegerCoefficient distance_distribution"
    " macwilliams_transform pcs_enumerator_poly weight_enumerator_linear",
    "oracle": "ExplicitCode oracle_annihilator oracle_code_from_pcs oracle_distance_distribution"
    " oracle_fourier oracle_is_linear oracle_kernel oracle_min_distance oracle_nearest"
    " oracle_validate",
    "formats": "ParseError ProblemFile as_presentation as_system parse_problem"
    " parse_vector_literal serialize_code serialize_pcs",
    "howell": "",
    "reach": "",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names.split())}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = _import_module(f"{__name__}.{module}")
    value = home if name == module else getattr(home, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
