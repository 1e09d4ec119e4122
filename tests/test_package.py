"""The package namespace and the value classes' equality, hash and repr."""

import ast
from importlib import import_module
from pathlib import Path

import pytest

import ringcodes
from ringcodes import (
    CodePresentation,
    DecodeResult,
    EnumeratorPoly,
    ExplicitCode,
    ExponentSum,
    ParityCheckSystem,
    ProblemFile,
    RingSpec,
    RingVec,
    Submodule,
    from_components,
)
from ringcodes.howell import howell_form, span_form

SUBMODULES = [
    "distance", "enumerator", "formats", "fourier", "howell",
    "oracle", "pcs", "reach", "rings", "submodules",
]

PUBLIC = {
    "BeyondRadius", "BudgetExceeded", "CodePresentation", "ConditionIIIViolation",
    "ConditionIIViolation", "ConditionIViolation", "DEFAULT_BUDGET", "DecodeResult",
    "DegenerateCode", "EnumeratorPoly", "ExplicitCode", "ExponentSum",
    "GeneratingCharacter", "InternalInconsistency", "NonIntegerCoefficient",
    "PCSValidationError", "ParityCheckSystem", "ParseError", "ProblemFile", "RingElem",
    "RingSpec", "RingVec", "Submodule", "as_presentation", "as_system",
    "code_to_pcs", "decode", "distance_distribution", "dot",
    "enumerate_vectors", "fourier_coeff_coset", "fourier_coeff_pcs", "from_components",
    "generating_character", "hamming", "is_linear", "kernel", "macwilliams_transform",
    "member", "min_distance", "min_distance_witness", "oracle_annihilator",
    "oracle_code_from_pcs", "oracle_distance_distribution", "oracle_fourier",
    "oracle_is_linear", "oracle_kernel", "oracle_min_distance", "oracle_nearest",
    "oracle_validate", "parse_problem", "parse_ring", "parse_vector_literal",
    "pcs_enumerator_poly", "pcs_to_code", "poisson_sum", "scale", "sdiff",
    "serialize_code", "serialize_pcs", "solve_right", "support",
    "syzygies", "validate_pcs", "vec_add", "vec_neg", "vec_sub", "weight",
    "weight_enumerator_linear", "weight_shell", "zero_vec",
    *SUBMODULES,
}


def test_all_lists_the_public_names():
    assert len(PUBLIC) == 81
    assert set(ringcodes.__all__) == PUBLIC
    assert set(dir(ringcodes)) >= PUBLIC


def test_each_name_is_its_home_modules_object():
    modules = [import_module(f"ringcodes.{name}") for name in SUBMODULES]
    for name in PUBLIC - set(SUBMODULES):
        got = getattr(ringcodes, name)
        holders = [vars(m)[name] for m in modules if name in vars(m)]
        assert holders and all(h is got for h in holders), name
    for name, module in zip(SUBMODULES, modules):
        assert getattr(ringcodes, name) is module
    with pytest.raises(AttributeError, match="has no attribute 'nonesuch'"):
        ringcodes.nonesuch


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from ringcodes import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == PUBLIC
    assert all(namespace[name] is getattr(ringcodes, name) for name in PUBLIC)


Z6 = RingSpec((6,))
V = RingVec(Z6, ((1,), (4,)))
V_REPR = "RingVec(spec=RingSpec(factors=(6,)), coords=((1,), (4,)))"

# name -> (build one, its fields in order, its repr)
VALUES = {
    "RingSpec": (lambda: RingSpec((2, 3)), ((2, 3),), "RingSpec(factors=(2, 3))"),
    "RingElem": (
        lambda: Z6.elem(5), (Z6, (5,)), "RingElem(spec=RingSpec(factors=(6,)), residues=(5,))"
    ),
    "RingVec": (lambda: RingVec.of(Z6, [1, 4]), (Z6, ((1,), (4,))), V_REPR),
    "HowellForm": (
        lambda: howell_form([[2, 4], [3, 0]], 6),
        (6, 2, 2, ((1, 2),), (0,), ((5, 1),), ((3, 2),)),
        "HowellForm(modulus=6, ncols=2, source_rows=2, rows=((1, 2),), pivot_cols=(0,),"
        " transform_rows=((5, 1),), kernel_rows=((3, 2),))",
    ),
    "ProblemFile": (
        lambda: ProblemFile(Z6, "pcs", (V,), (V,)),
        (Z6, "pcs", (V,), (V,), (), ()),
        f"ProblemFile(spec=RingSpec(factors=(6,)), mode='pcs', h_rows=({V_REPR},),"
        f" s_rows=({V_REPR},), generators=(), representatives=())",
    ),
    "ExponentSum": (
        lambda: ExponentSum(3, [1, 0, 2]), (3, ((0, 1), (2, 2))),
        "ExponentSum(order=3, terms=((0, 1), (2, 2)))",
    ),
    "DecodeResult": (
        lambda: DecodeResult(V, 1, V, 2), (V, 1, V, 2),
        f"DecodeResult(codeword={V_REPR}, coset_index=1, error_vector={V_REPR}, error_weight=2)",
    ),
    "EnumeratorPoly": (
        lambda: EnumeratorPoly(2, (1, 0, 3)), (2, (1, 0, 3)),
        "EnumeratorPoly(n=2, coeffs=(1, 0, 3))",
    ),
    "ExplicitCode": (
        lambda: ExplicitCode(Z6, 2, frozenset([V])), (Z6, 2, frozenset([V])),
        f"ExplicitCode(spec=RingSpec(factors=(6,)), n=2, words=frozenset({{{V_REPR}}}))",
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_class_contract(name):
    build, fields, text = VALUES[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert repr(a) == text
    assert a is not b and a == b and not a != b
    # another class, even the field tuple itself, is never equal
    assert a.__eq__(fields) is NotImplemented
    assert a != fields and not a == fields
    assert hash(a) == hash(b) == hash(fields)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RingSpec(()), "a ring needs at least one factor"),
        (lambda: RingSpec((6, 1)), "factor moduli must be integers >= 2, got 1"),
        (lambda: RingSpec((6.0,)), "factor moduli must be integers >= 2, got 6.0"),
        (lambda: RingSpec((2**31,)), "factor modulus 2147483648 exceeds limit 2147483648"),
        (lambda: EnumeratorPoly(2, (1, 0)), "need exactly n \\+ 1 coefficients"),
        (lambda: ExplicitCode(Z6, 2, frozenset()), "a code must be nonempty"),
        (lambda: RingSpec((2, 3)).elem((1, 2, 0)), "expected 2 residues, got 3"),
        (lambda: RingVec.of(Z6, [1, RingSpec((4,)).elem(1)]), "entry from a different ring"),
        (lambda: from_components(RingSpec((2, 3)), [(1, 0), (2,)]),
         "factor components disagree on length"),
        (lambda: CodePresentation(Submodule.from_generators(Z6, 2, []), []),
         "a code needs at least one coset representative"),
        (lambda: CodePresentation(Submodule.from_generators(Z6, 2, []), [RingVec.of(Z6, [0])]),
         "representative outside the ambient space"),
        (lambda: ParityCheckSystem([V, V], [RingVec.of(Z6, [0, 0]), RingVec.of(Z6, [0])]),
         "ragged or mixed-ring S"),
        (lambda: ParityCheckSystem([V], [RingVec.of(Z6, [])]), "S needs at least one column"),
        (lambda: span_form([[1, 0]], 2, 1), "modulus must be >= 2"),
    ],
)
def test_value_class_constructor_errors(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_every_imported_name_is_used():
    # no linter runs offline, so a name a change leaves imported shows here,
    # and so does a private function, method or attribute nothing under src/ reads
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(ringcodes.__file__).parent.glob("*.py"))}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    for name, tree in trees.items():
        imported = {
            alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert sorted(imported - used) == [], name
        bodies = [tree.body] + [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        defined = {node.name for body in bodies for node in body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        defined |= {target.id for body in bodies for node in body if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
        defined |= {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
        unread = {d for d in defined if d.startswith("_") and not d.endswith("__")} - read
        assert sorted(unread) == [], name
