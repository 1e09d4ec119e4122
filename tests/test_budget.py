"""The one budget gate: every exhaustive stage's count, unit and limit.

rings.check_budget is the only place that raises BudgetExceeded, and it
reads rings.DEFAULT_BUDGET at call time, so patching that one constant
moves the limit of every stage.
"""

from __future__ import annotations

import argparse
import ast
import inspect
from pathlib import Path

import pytest

import ringcodes
from ringcodes import (
    BudgetExceeded,
    ExplicitCode,
    RingSpec,
    Submodule,
    enumerate_vectors,
    is_linear,
    kernel,
    min_distance_witness,
    oracle_is_linear,
    oracle_kernel,
    oracle_min_distance,
    parse_ring,
    pcs_enumerator_poly,
    poisson_sum,
    syzygies,
    validate_pcs,
    weight_shell,
    zero_vec,
)
from ringcodes.cli import COMMANDS
from ringcodes.howell import howell_rows
from conftest import Z6, Z6_D_GENS, Z6_H, build_z6_pcs, build_z6_presentation, rv

SRC = Path(ringcodes.__file__).resolve().parent


def _small_code() -> ExplicitCode:
    return ExplicitCode(Z6, 2, frozenset(rv(Z6, (a, 0)) for a in range(6)))


def _two_word_code() -> ExplicitCode:
    """{0, 3} in Z6: closed under sums, so the scalar scan is reached."""
    return ExplicitCode(Z6, 1, frozenset({rv(Z6, (0,)), rv(Z6, (3,))}))


def _z7_columns(count: int):
    """The first count elements of Z7 as cosets of {0}: s = count columns, d = 1.

    The column-difference gates bind before the weight-shell search, which
    needs only 1 + 6 states.  Below 7 columns the code is not linear, so
    kernel forms the pairs.
    """
    z7 = parse_ring("Z7")
    return validate_pcs([rv(z7, (1,))], [rv(z7, range(count))])


def _z6_one_column():
    """The Z6 check matrix with a single zero syndrome column."""
    return validate_pcs([rv(Z6, r) for r in Z6_H], [rv(Z6, (0,)), rv(Z6, (0,))])


# the Z6 system with its character plan built at the default budget: the
# plan's Howell form of G^T (4 rows, 2 columns) holds 24 entries at the
# "howell transform" gate, so on a fresh system with the budget at the 6
# counts of one point that gate would bind first
_Z6_PLANNED = build_z6_pcs()
_Z6_PLANNED._character_plan


def _fourier_point():
    args = argparse.Namespace(all=False, vector="3,3,3,3")
    return COMMANDS["fourier"].fast(_Z6_PLANNED, args)


# stage -> (a call on a fresh small instance, what it needs, unit); a note
# in parentheses tells apart two callers of one stage
STAGES = {
    # |Z6|^2
    "scan of R^2": (lambda: list(enumerate_vectors(Z6, 2)), 36, "states"),
    # |D| for the Z6 kernel
    "submodule enumeration": (
        lambda: list(Submodule.from_generators(Z6, 4, [rv(Z6, g) for g in Z6_D_GENS]).enumerate()),
        72,
        "states",
    ),
    # one unit row over Z12
    "span enumeration": (lambda: list(howell_rows([[1, 0]], 2, 12).enumerate_span()), 12, "states"),
    # [W | T] of the Z6 H's 2 rows of 4 entries, 2 * (4 + 2), built when
    # left_kernel reads the kernel rows of the rows-only form
    "howell transform": (lambda: syzygies(Z6, [rv(Z6, r) for r in Z6_H]), 12, "entries"),
    # the row span of the Z6 H; with s = 1 the pairs gate needs as many
    "row span walk": (lambda: pcs_enumerator_poly(_z6_one_column()), 18, "states"),
    # the 18 points of the Z6 row span times s^2 = 9 column pairs
    "exponent pairs": (lambda: pcs_enumerator_poly(build_z6_pcs()), 162, "pairs"),
    # shells 0..2 of Z6^4 (d = 2): 1 + 4*5 + 6*25; the tables need 279 bytes
    "weight-shell search": (lambda: min_distance_witness(build_z6_pcs()), 171, "states"),
    # one shell of Z6^4 on its own: C(4, 2) * 5^2
    "weight shell": (lambda: list(weight_shell(Z6, 4, 2)), 150, "states"),
    # |dual| * |Z6|^4 = 18 * 1296
    "naive transform": (
        lambda: poisson_sum(build_z6_presentation(), lambda v: 1.0),
        23328,
        "states",
    ),
    # 6 words, 6^2 ordered pairs
    "all-pairs scan": (lambda: oracle_min_distance(_small_code()), 36, "states"),
    # 2 words * 6 scalars, after 2^2 word pairs
    "scalar scan": (lambda: oracle_is_linear(_two_word_code()), 12, "states"),
    # 6 candidates * 6 words * 6 scalars
    "kernel scan": (lambda: oracle_kernel(_small_code()), 216, "states"),
    # one point times L = 6 dense counts
    "counts output": (_fourier_point, 6, "entries"),
    # 7 columns: 7 * 6 / 2 pairs k < l for sdiff; 6 columns, a nonlinear code:
    # 6 * 6 ordered pairs for the kernel syndromes (a linear code needs none)
    "column differences (distance)": (lambda: min_distance_witness(_z7_columns(7)), 21, "pairs"),
    "column differences (kernel)": (lambda: kernel(_z7_columns(6)), 36, "pairs"),
}


@pytest.mark.parametrize("what", STAGES)
def test_every_stage_meets_its_limit_exactly(what, monkeypatch):
    run, needed, unit = STAGES[what]
    what = what.partition(" (")[0]
    monkeypatch.setattr("ringcodes.rings.DEFAULT_BUDGET", needed)
    run()
    monkeypatch.setattr("ringcodes.rings.DEFAULT_BUDGET", needed - 1)
    with pytest.raises(BudgetExceeded) as exc:
        run()
    err = exc.value
    assert (err.what, err.needed, err.budget, err.unit) == (what, needed, needed - 1, unit)
    assert str(err) == f"{what} needs {needed} {unit}, budget is {needed - 1}"


def test_weight_shell_is_gated_before_listing_residues():
    # |R| - 1 is about 4.3e9 residue tuples, so a listing would not return
    with pytest.raises(BudgetExceeded) as exc:
        next(weight_shell(parse_ring("Z2xZ2147483629"), 1, 1))
    assert (exc.value.what, exc.value.needed) == ("weight shell", 2 * 2147483629 - 1)


def test_syzygies_of_many_generators_are_gated_before_the_transform():
    # [W | T] of 10201 generators in Z101^2 would hold 10201 * (2 + 10201)
    # entries and take minutes; the rows-only form of the span comes first
    z101 = parse_ring("Z101")
    gens = [rv(z101, (a, b)) for a in range(101) for b in range(101)]
    with pytest.raises(BudgetExceeded) as exc:
        syzygies(z101, gens)
    assert (exc.value.what, exc.value.needed) == ("howell transform", 10201 * 10203)


def test_oracle_scalar_scans_are_gated_before_listing_the_ring(monkeypatch):
    # |R| is about 2.1e9 elements, so a listing would not return
    def listing(spec):
        raise AssertionError("the ring's elements were listed before the gate")

    monkeypatch.setattr(RingSpec, "elements", listing)
    ring = parse_ring("Z2147483629")
    code = ExplicitCode(ring, 1, frozenset({zero_vec(ring, 1)}))
    for scan, what in ((oracle_is_linear, "scalar scan"), (oracle_kernel, "kernel scan")):
        with pytest.raises(BudgetExceeded) as exc:
            scan(code)
        assert (exc.value.what, exc.value.needed) == (what, 2147483629)


def _constructions(tree: ast.AST) -> list[ast.Call]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "BudgetExceeded"
    ]


def test_budget_exceeded_is_built_only_by_the_gate():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    counts = {name: len(_constructions(tree)) for name, tree in trees.items()}
    assert {name: c for name, c in counts.items() if c} == {"rings.py": 1}
    gate = next(
        node
        for node in ast.walk(trees["rings.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "check_budget"
    )
    assert len(_constructions(gate)) == 1


def test_no_function_takes_a_budget():
    # BudgetExceeded only reports the limit; no callable lets a caller set one
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        exempt = {
            node
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "BudgetExceeded"
            for node in ast.walk(cls)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)) and node not in exempt:
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                assert "budget" not in names, f"{path.name}:{node.lineno}"
    for name in set(ringcodes.__all__) - {"BudgetExceeded"}:
        obj = getattr(ringcodes, name)
        members = [obj]
        if inspect.isclass(obj):
            members += [f for k, f in vars(obj).items() if callable(f) and not k.startswith("_")]
        for f in filter(callable, members):
            try:
                params = inspect.signature(f).parameters
            except (TypeError, ValueError):  # builtins without a signature
                continue
            assert "budget" not in params, name
