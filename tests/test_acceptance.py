"""Acceptance checks: nine end-to-end criteria over the whole package.

Each criterion is one test that prints a single ``[criterion N] PASS`` line
on success (visible with ``pytest -s`` or in the verbose test listing).
Tolerances: Fourier values within 1e-9 absolute, Poisson sums within 1e-9
relative, everything combinatorial exact.
"""

import random

import pytest

from ringcodes import (
    CodePresentation,
    ConditionIViolation,
    EnumeratorPoly,
    Submodule,
    code_to_pcs,
    decode,
    distance_distribution,
    enumerate_vectors,
    fourier_coeff_coset,
    fourier_coeff_pcs,
    is_linear,
    macwilliams_transform,
    member,
    min_distance,
    min_distance_witness,
    oracle_code_from_pcs,
    oracle_distance_distribution,
    oracle_fourier,
    oracle_min_distance,
    parse_ring,
    pcs_to_code,
    poisson_sum,
    scale,
    sdiff,
    validate_pcs,
    vec_add,
    vec_sub,
    weight,
    weight_enumerator_linear,
    weight_shell,
    zero_vec,
)
from conftest import (
    Z6,
    Z6_H,
    Z6_REPS,
    build_z6_pcs,
    build_z6_presentation,
    code_words,
    random_instance,
    random_vec,
    rv,
)
from test_fourier import Z6_FOURIER_TABLE


def report(n: int, detail: str) -> None:
    print(f"[criterion {n}] PASS - {detail}")


def test_criterion_1_validation():
    pcs = build_z6_pcs()
    assert (pcs.m, pcs.n, pcs.s) == (2, 4, 3)
    with pytest.raises(ConditionIViolation) as exc:
        validate_pcs(
            [rv(Z6, h) for h in Z6_H],
            [rv(Z6, (0, 1, 5, 1)), rv(Z6, (0, 2, 4, 1))],
        )
    assert exc.value.row == 2
    report(1, "golden system validates; appending column (1,1) breaks "
              f"condition (i) at row {exc.value.row}")


def test_criterion_2_duality():
    D = build_z6_presentation().kernel
    dual = D.annihilator()
    H_span = Submodule.from_generators(Z6, 4, [rv(Z6, h) for h in Z6_H])
    assert dual == H_span
    assert D.cardinality == 72
    assert dual.cardinality == 18
    assert D.cardinality * dual.cardinality == 6**4
    report(2, "annihilator of D is exactly the row span of H; 72 * 18 = 6^4")


def test_criterion_3_conversion():
    pcs = build_z6_pcs()
    pres = pcs_to_code(pcs)
    assert pres.cardinality == 216
    for got, expected in zip(pres.representatives, Z6_REPS):
        assert pres.kernel.contains(vec_sub(got, rv(Z6, expected)))
    words = code_words(pres)
    assert words == oracle_code_from_pcs(pcs).words
    assert len(words) == 216
    report(3, "conversion recovers the three documented cosets; all 216 "
              "words match the brute-force scan")


def test_criterion_4_min_distance():
    pcs = build_z6_pcs()
    diffs = sdiff(pcs)
    assert {v.coords for v in diffs} == {
        ((0,), (0,)), ((1,), (2,)), ((4,), (2,)), ((5,), (4,)),
    }
    d, witness = min_distance_witness(pcs)
    assert d == 2
    assert weight(witness) == 2
    assert pcs.syndrome(witness) in diffs
    doc = rv(Z6, (5, 0, 0, 1))
    assert weight(doc) == 2
    assert pcs.syndrome(doc) == rv(Z6, (4, 2))
    report(4, "minimum distance 2 with a weight-2 witness; the documented "
              "witness has syndrome (4,2)")


def test_criterion_5_fourier_table():
    pcs = build_z6_pcs()
    pres = pcs_to_code(pcs)
    code = oracle_code_from_pcs(pcs)
    span = list(pcs.row_module.enumerate())
    assert len(span) == 18
    for x in span:
        want = Z6_FOURIER_TABLE[tuple(c[0] for c in x.coords)]
        via_pcs = fourier_coeff_pcs(pcs, x)
        via_coset = fourier_coeff_coset(pres, x)
        assert via_pcs == via_coset
        assert abs(via_pcs.evaluate() - want) <= 1e-9
        assert abs(oracle_fourier(code, x) - want) <= 1e-9
    report(5, "all 18 Fourier values agree along both routes and with the "
              "direct sum, within 1e-9")


def test_criterion_6_distance_distribution():
    pcs = build_z6_pcs()
    dd = distance_distribution(pcs)
    assert dd.coeffs == (216, 0, 6480, 17280, 22680)
    assert list(dd.coeffs) == oracle_distance_distribution(
        oracle_code_from_pcs(pcs)
    )
    report(6, "distance distribution (216, 0, 6480, 17280, 22680) matches "
              "the all-pairs histogram exactly")


def test_criterion_7_randomized_agreement():
    rng = random.Random(20260817)
    instances = 0
    decode_checks = 0
    for _ in range(200):
        pcs, pres = random_instance(rng, space_cap=600)
        spec, n = pcs.spec, pcs.n
        size = pcs.code_cardinality()

        # duality laws on the kernel module
        D = pcs.kernel_module
        dual = D.annihilator()
        assert D.cardinality * dual.cardinality == spec.cardinality**n
        assert dual.annihilator() == D

        # round trips preserve the code
        back = code_to_pcs(pcs_to_code(pcs))
        assert back.kernel_module == pcs.kernel_module
        pres2 = pcs_to_code(code_to_pcs(pres))
        assert pres2.kernel == pres.kernel
        for a, b in zip(pres2.representatives, pres.representatives):
            assert pres.kernel.contains(vec_sub(a, b))

        # membership agrees with the brute-force scan on every vector
        code = oracle_code_from_pcs(pcs)
        words = code.words
        assert len(words) == size
        for x in enumerate_vectors(spec, n):
            j = member(pcs, x)
            assert (j is not None) == (x in words)
            assert member(back, x) == j

        # distance data against the all-pairs oracle
        if size > 1:
            d = min_distance(pcs)
            assert d == oracle_min_distance(code)
            if size <= 800:
                hist = oracle_distance_distribution(code)
                dd = distance_distribution(pcs)
                assert list(dd.coeffs) == hist
                assert min(i for i, c in enumerate(dd.coeffs) if i and c) == d

            # decoding: every perturbation within the radius comes back
            if size <= 500:
                radius = (d - 1) // 2
                for c in sorted(words, key=lambda v: v.coords):
                    for w in range(radius + 1):
                        for e in weight_shell(spec, n, w):
                            res = decode(pcs, vec_add(c, e))
                            assert res.codeword == c
                            assert res.error_vector == e
                            decode_checks += 1
        instances += 1
    assert instances == 200
    assert decode_checks > 200
    report(7, f"200 random systems: duality, round trips, membership, "
              f"distance, distribution and {decode_checks} decodes all "
              f"match the oracles")


def test_criterion_8_linear_macwilliams():
    rng = random.Random(814)
    rings = ["Z2", "Z3", "Z4", "Z6", "Z2xZ2", "Z2xZ3", "Z8", "Z9"]
    done = split = 0
    attempts = 0
    while done < 50 and attempts < 2000:
        attempts += 1
        spec = parse_ring(rng.choice(rings))
        n = rng.randint(1, 4)
        if spec.cardinality**n > 400:
            continue
        gens = [random_vec(rng, spec, n) for _ in range(rng.randint(0, 2))]
        M = Submodule.from_generators(spec, n, gens)
        if rng.random() < 0.4:
            pres = CodePresentation(M, (zero_vec(spec, n),))
            is_split = False
        else:
            elems = list(M.enumerate())
            scalars = list(spec.elements())
            D = M
            for _ in range(8):  # look for a proper subkernel of small index
                sub = [
                    scale(rng.choice(scalars), rng.choice(elems))
                    for _ in range(rng.randint(0, 2))
                ]
                cand = Submodule.from_generators(spec, n, sub)
                if 2 <= M.cardinality // cand.cardinality <= 8:
                    D = cand
                    break
            if M.cardinality // D.cardinality > 8:
                continue
            reps = []
            for v in elems:
                if all(not D.contains(vec_sub(v, r)) for r in reps):
                    reps.append(v)
            pres = CodePresentation(D, tuple(reps))
            is_split = len(reps) > 1
        pcs = code_to_pcs(pres)
        assert is_linear(pcs)

        # route 1: distance distribution scaled down by |C|
        got = weight_enumerator_linear(pcs)
        dd = distance_distribution(pcs)
        assert all(c % pres.cardinality == 0 for c in dd.coeffs)
        route1 = tuple(c // pres.cardinality for c in dd.coeffs)
        assert got.coeffs == route1

        # route 2: MacWilliams transform of the actual dual code's enumerator
        dual = M.annihilator()
        counts = [0] * (n + 1)
        for y in dual.enumerate():
            counts[weight(y)] += 1
        route2 = macwilliams_transform(
            EnumeratorPoly(n, tuple(counts)), spec.cardinality, dual.cardinality
        )
        assert got.coeffs == route2.coeffs

        done += 1
        split += is_split
    assert done == 50
    assert split >= 10
    report(8, f"50 random linear codes ({split} with split presentations): "
              f"both enumerator routes agree exactly")


def test_criterion_9_poisson_summation():
    rng = random.Random(909090)
    instances = 0
    naive_used = 0
    while instances < 20:
        pcs, pres = random_instance(rng, max_n=3, space_cap=260)
        spec, n, q = pres.spec, pres.n, pres.spec.cardinality
        direct_words = code_words(pres)
        use_naive = instances % 2 == 0
        for _ in range(5):
            x0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            y0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

            def f(v):
                return x0 ** (n - weight(v)) * y0 ** weight(v)

            if use_naive:
                got = poisson_sum(pres, f)
            else:
                # the transform of the weight monomial in closed form
                def f_hat(x):
                    w = weight(x)
                    return (x0 + (q - 1) * y0) ** (n - w) * (x0 - y0) ** w

                got = poisson_sum(pres, f, f_hat=f_hat)
            direct = sum(f(c) for c in direct_words)
            assert abs(got - direct) <= 1e-9 * max(1.0, abs(direct))
        naive_used += use_naive
        instances += 1
    assert instances == 20
    assert naive_used == 10
    report(9, f"Poisson summation matches the direct code sum on 20 systems "
              f"x 5 points within 1e-9 relative ({naive_used} via the naive "
              f"transform, {instances - naive_used} via a supplied one)")
