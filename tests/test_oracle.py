"""The exhaustive-scan reference implementations themselves."""

import random

import pytest

from ringcodes import (
    BudgetExceeded,
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
    parse_ring,
    zero_vec,
)
from conftest import Z6, Z6_H, Z6_S_ROWS, rv


def test_oracle_code_golden(z6_pcs):
    code = oracle_code_from_pcs(z6_pcs)
    assert code.cardinality == 216
    assert zero_vec(Z6, 4) in code.words
    assert rv(Z6, (5, 2, 0, 0)) in code.words
    assert rv(Z6, (4, 1, 0, 0)) in code.words
    assert rv(Z6, (1, 0, 0, 0)) not in code.words


def test_oracle_min_distance_golden(z6_pcs):
    assert oracle_min_distance(oracle_code_from_pcs(z6_pcs)) == 2


def test_oracle_min_distance_needs_two_words():
    code = ExplicitCode(Z6, 2, frozenset([zero_vec(Z6, 2)]))
    with pytest.raises(ValueError):
        oracle_min_distance(code)


def test_oracle_distribution_golden(z6_pcs):
    hist = oracle_distance_distribution(oracle_code_from_pcs(z6_pcs))
    assert hist == [216, 0, 6480, 17280, 22680]
    # ordered pairs: off-diagonal counts are even, diagonal is |C|
    assert hist[0] == 216
    assert all(h % 2 == 0 for h in hist[1:])


def test_oracle_kernel_golden(z6_pcs):
    ker = oracle_kernel(oracle_code_from_pcs(z6_pcs))
    assert len(ker) == 72
    assert set(ker) == set(z6_pcs.kernel_module.enumerate())


def test_oracle_is_linear_golden(z6_pcs):
    assert not oracle_is_linear(oracle_code_from_pcs(z6_pcs))
    spec = parse_ring("Z2")
    everything = ExplicitCode(
        spec, 1, frozenset([rv(spec, (0,)), rv(spec, (1,))])
    )
    assert oracle_is_linear(everything)


def test_oracle_fourier_zero_counts_words(z6_pcs):
    code = oracle_code_from_pcs(z6_pcs)
    assert oracle_fourier(code, zero_vec(Z6, 4)) == pytest.approx(216, abs=1e-9)


def test_oracle_nearest_reports_all_ties():
    spec = parse_ring("Z2")
    code = ExplicitCode(
        spec, 2, frozenset([rv(spec, (0, 0)), rv(spec, (1, 1))])
    )
    best, hits = oracle_nearest(code, rv(spec, (1, 0)))
    assert best == 1
    assert len(hits) == 2
    assert hits == sorted(hits, key=lambda v: v.coords)


def test_oracle_validate_golden_and_corrupted(z6_pcs):
    assert oracle_validate(z6_pcs.h_rows, z6_pcs.s_rows) is None
    bad_s = [rv(Z6, (0, 1, 5, 1)), rv(Z6, (0, 2, 4, 1))]
    verdict = oracle_validate([rv(Z6, h) for h in Z6_H], bad_s)
    assert verdict is not None
    assert verdict[0] == 1
    assert verdict[1] == (2, 4)


def test_oracle_validate_detects_duplicate_columns():
    h = [rv(Z6, h_) for h_ in Z6_H]
    s = [rv(Z6, (0, 0)), rv(Z6, (0, 0))]
    verdict = oracle_validate(h, s)
    assert verdict == (2, (1, 2))


def test_oracle_validate_detects_broken_dependency():
    h_rows = [rv(Z6, (1, 1)), rv(Z6, (2, 2))]
    s_rows = [rv(Z6, (0, 1)), rv(Z6, (0, 0))]
    verdict = oracle_validate(h_rows, s_rows)
    assert verdict is not None
    assert verdict[0] == 3


def test_oracle_budget_gates(monkeypatch):
    spec = parse_ring("Z6")
    big = ExplicitCode(
        spec, 2, frozenset(rv(spec, (a, b)) for a in range(6) for b in range(6))
    )
    monkeypatch.setattr("ringcodes.rings.DEFAULT_BUDGET", 100)
    with pytest.raises(BudgetExceeded):
        oracle_min_distance(big)
    with pytest.raises(BudgetExceeded):
        oracle_distance_distribution(big)
    with pytest.raises(BudgetExceeded):
        oracle_is_linear(big)
    with pytest.raises(BudgetExceeded):
        oracle_kernel(big)
    with pytest.raises(BudgetExceeded):
        oracle_annihilator(spec, 10, [])


def test_explicit_code_rejects_empty():
    with pytest.raises(ValueError):
        ExplicitCode(Z6, 2, frozenset())
