"""System polynomial, distance distribution, MacWilliams cross-checks."""

import math
import random
import tracemalloc
from collections import Counter
from itertools import product

import pytest

from ringcodes import (
    BudgetExceeded,
    CodePresentation,
    EnumeratorPoly,
    ExponentSum,
    NonIntegerCoefficient,
    Submodule,
    code_to_pcs,
    distance_distribution,
    fourier_coeff_pcs,
    is_linear,
    macwilliams_transform,
    min_distance,
    oracle_code_from_pcs,
    oracle_distance_distribution,
    parse_ring,
    pcs_enumerator_poly,
    validate_pcs,
    weight,
    weight_enumerator_linear,
    zero_vec,
)
from ringcodes import enumerator, howell
from ringcodes.enumerator import _weight_bins, _weight_keys
from conftest import (
    OUTSIDE_RINGS,
    PROPERTY_RINGS,
    Z6,
    build_z6_pcs,
    code_words,
    random_instance,
    random_linear_instance,
    random_systems,
    random_vec,
    rv,
)

Z6_DISTANCE_DISTRIBUTION = (216, 0, 6480, 17280, 22680)


def test_system_polynomial_golden(z6_pcs):
    npoly = pcs_enumerator_poly(z6_pcs)
    assert npoly.coeffs == (46656, 0, 0, 0, 233280)
    assert npoly.n == 4
    # weight-0 term is |C|^2, total N(1,1) is |R|^n * D(1,1) / |R|^n ...
    assert npoly.coeffs[0] == 216**2


def test_distance_distribution_golden(z6_pcs):
    dd = distance_distribution(z6_pcs)
    assert dd.coeffs == Z6_DISTANCE_DISTRIBUTION
    assert dd.coeffs == tuple(
        oracle_distance_distribution(oracle_code_from_pcs(z6_pcs))
    )
    # sanity identities: D_0 = |C|, sum D_i = |C|^2, first gap = min distance
    assert dd.coeffs[0] == 216
    assert sum(dd.coeffs) == 216**2
    assert min(i for i, c in enumerate(dd.coeffs) if i and c) == min_distance(
        z6_pcs
    )


def test_distribution_matches_histogram_random():
    rng = random.Random(424242)
    for _ in range(25):
        pcs, _ = random_instance(rng, space_cap=500)
        dd = distance_distribution(pcs)
        hist = oracle_distance_distribution(oracle_code_from_pcs(pcs))
        assert list(dd.coeffs) == hist
        assert dd.coeffs[0] == pcs.code_cardinality()
        assert sum(dd.coeffs) == pcs.code_cardinality() ** 2
        if pcs.code_cardinality() > 1:
            first = min(i for i, c in enumerate(dd.coeffs) if i and c)
            assert first == min_distance(pcs)


def test_trivial_checks_give_full_space_distribution():
    spec = parse_ring("Z4")
    pcs = validate_pcs(
        [zero_vec(spec, 2), zero_vec(spec, 2)],
        [rv(spec, (0,)), rv(spec, (0,))],
    )
    npoly = pcs_enumerator_poly(pcs)
    assert npoly.coeffs == (16**2, 0, 0)
    dd = distance_distribution(pcs)
    # all ordered pairs of R^2, counted by distance
    assert dd.coeffs == (16, 2 * 16 * 3, 16 * 9)


def test_enumerator_poly_str_and_eval():
    poly = EnumeratorPoly(2, (1, 0, 3))
    assert str(poly) == "1*x^2 + 3*y^2"
    assert poly.evaluate(2, 1) == 7
    assert EnumeratorPoly(1, (0, 0)).evaluate(5, 5) == 0
    assert str(EnumeratorPoly(1, (0, 0))) == "0"
    with pytest.raises(ValueError):
        EnumeratorPoly(2, (1, 0))


def test_macwilliams_transform_rejects_non_integers():
    poly = EnumeratorPoly(1, (1, 1))
    with pytest.raises(NonIntegerCoefficient):
        macwilliams_transform(poly, 2, 7)


def test_macwilliams_involution_on_binary_repetition():
    # W(C) for C = {00, 11} in Z2^2; its dual is itself
    poly = EnumeratorPoly(2, (1, 0, 1))
    dual = macwilliams_transform(poly, 2, 2)
    assert dual.coeffs == (1, 0, 1)


def test_weight_enumerator_full_space():
    spec = parse_ring("Z2")
    full = Submodule.from_generators(spec, 2, [rv(spec, (1, 0)), rv(spec, (0, 1))])
    pcs = code_to_pcs(CodePresentation(full, (zero_vec(spec, 2),)))
    w = weight_enumerator_linear(pcs)
    assert w.coeffs == (1, 2, 1)  # (x + y)^2


def test_weight_enumerator_trivial_code():
    spec = parse_ring("Z6")
    trivial = Submodule.from_generators(spec, 3, [])
    pcs = code_to_pcs(CodePresentation(trivial, (zero_vec(spec, 3),)))
    assert weight_enumerator_linear(pcs).coeffs == (1, 0, 0, 0)


def test_weight_enumerator_split_presentation():
    # the linear code span{(1,1),(2,0)} in Z4^2 presented as two cosets
    spec = parse_ring("Z4")
    D = Submodule.from_generators(spec, 2, [rv(spec, (2, 0)), rv(spec, (0, 2))])
    pres = CodePresentation(D, (zero_vec(spec, 2), rv(spec, (1, 1))))
    pcs = code_to_pcs(pres)
    w = weight_enumerator_linear(pcs)
    # words: 00, 20, 02, 22, 11, 31, 13, 33 -> weights 0,1,1,2,2,2,2,2
    assert w.coeffs == (1, 2, 5)


def test_weight_enumerator_rejects_nonlinear(z6_pcs):
    with pytest.raises(ValueError):
        weight_enumerator_linear(z6_pcs)


def test_weight_enumerator_counts_weights_random():
    rng = random.Random(140)
    done = 0
    for _ in range(400):
        if done == 15:
            break
        pcs, pres = random_instance(rng, space_cap=400)
        if not is_linear(pcs):
            continue
        w = weight_enumerator_linear(pcs)
        counts = [0] * (pcs.n + 1)
        for c in code_words(pres):
            counts[weight(c)] += 1
        assert list(w.coeffs) == counts
        done += 1
    assert done == 15


def test_system_polynomial_exact_outside_property_rings():
    # N = D(x + (q-1) y, x - y), with D counted pair by pair from the words
    systems = random_systems(random.Random(90210), OUTSIDE_RINGS, 15, 800)
    assert any(is_linear(p) for p in systems) and not all(is_linear(p) for p in systems)
    for pcs in systems:
        q, n = pcs.spec.cardinality, pcs.n
        dist = EnumeratorPoly(
            n, tuple(oracle_distance_distribution(oracle_code_from_pcs(pcs)))
        )
        npoly = pcs_enumerator_poly(pcs)
        assert npoly == macwilliams_transform(dist, q, 1)
        assert all(type(c) is int for c in npoly.coeffs)
        assert distance_distribution(pcs) == dist


def test_exact_bins_match_summed_fourier_reference(z6_pcs):
    # the bins summed point by point in root-of-unity arithmetic, evaluated
    # once; double precision leaves far less than 1e-9 relative error here
    systems = [z6_pcs] + random_systems(random.Random(31), OUTSIDE_RINGS, 4, 300)
    for pcs in systems:
        L = pcs.spec.char_order
        bins = [ExponentSum.zero(L) for _ in range(pcs.n + 1)]
        for h in pcs.row_module.enumerate():
            es = fourier_coeff_pcs(pcs, h)
            bins[weight(h)] = bins[weight(h)] + es * es.conjugate()
        npoly = pcs_enumerator_poly(pcs)
        for b, c in zip(bins, npoly.coeffs):
            assert abs(b.evaluate() - c) <= 1e-9 * max(1, c)
    assert pcs_enumerator_poly(z6_pcs).coeffs == (46656, 0, 0, 0, 233280)


def squared_coefficient_sums(pcs):
    """sum |F(h)|^2 per weight of h over the row span of H, F from
    fourier_coeff_pcs, summed in root-of-unity arithmetic and evaluated once."""
    bins = [ExponentSum.zero(pcs.spec.char_order) for _ in range(pcs.n + 1)]
    for h in pcs.row_module.enumerate():
        es = fourier_coeff_pcs(pcs, h)
        bins[weight(h)] = bins[weight(h)] + es * es.conjugate()
    return [b.evaluate() for b in bins]


def test_weight_bins_are_the_summed_squared_coefficients():
    systems = random_systems(random.Random(2207), PROPERTY_RINGS + OUTSIDE_RINGS, 30, 600)
    assert any(is_linear(p) for p in systems) and not all(is_linear(p) for p in systems)
    assert any(p.spec.nfactors > 1 and p.s > 2 for p in systems)
    # H over Z4 in a ring whose other factor is 2^31 - 1, so L = 4 (2^31 - 1):
    # the H entries 3 = t - 1 and S's exponents below L walk in 34-bit fields
    spec = parse_ring("Z4xZ2147483647")
    h = [rv(spec, [(1, 0), (3, 0), (0, 0)]), rv(spec, [(0, 0), (2, 0), (3, 0)])]
    s = [rv(spec, [(0, 0), (3, 0), (1, 0)]), rv(spec, [(0, 0), (2, 0), (2, 0)])]
    edge = validate_pcs(h, s)
    assert howell.field_bits(spec.factors * 3 + (spec.char_order,) * 3) == 34
    for pcs in systems + [edge]:
        for got, want in zip(_weight_bins(pcs), squared_coefficient_sums(pcs)):
            assert type(got) is int and abs(want - got) <= 1e-9 * max(1, got)


@pytest.mark.parametrize("moduli, k", [((2147483647,) * 3, 1), ((3, 2147483647) * 3, 2)])
def test_weight_keys_at_the_field_edge(moduli, k):
    """Weights of the first n = 2 coordinates (k fields each) and the fields
    above them, on rows of entries t - 1 at t = 2^31 - 1, against the points
    summed one by one; a coordinate counts once however many fields are set."""
    rng = random.Random(len(moduli))
    n = 2
    rows = []
    for _ in range(4):
        fields = [rng.choice([0, 0, t - 1, t - 2]) for t in moduli]
        rows.append((fields, rng.randint(2, 3)))
    rows.append(([t - 1 for t in moduli], 2))
    want = Counter()
    for cs in product(*(range(r) for _, r in rows)):
        point = [sum(c * f[j] for c, (f, _) in zip(cs, rows)) % t for j, t in enumerate(moduli)]
        w = sum(any(point[i * k:i * k + k]) for i in range(n))
        want[w, tuple(point[n * k:])] += 1
    B = howell.field_bits(moduli)
    shift = B * n * k
    got = Counter()
    for key, count in _weight_keys(rows, moduli, k, n).items():
        above = tuple(key >> shift + B * j & (1 << B) - 1 for j in range(len(moduli) - n * k))
        got[key & (1 << shift) - 1, above] += count
    assert got == want
    assert {w for w, _ in want} == set(range(n + 1))


def test_blocked_span_walk_matches_one_block(monkeypatch):
    # fresh systems each time, since a system keeps its enumerators
    def answers():
        linear = random_linear_instance(random.Random(5), ["Z3xZ4"], space_cap=2000)
        assert is_linear(linear) and linear.row_module.cardinality > 7
        return [pcs_enumerator_poly(build_z6_pcs()), weight_enumerator_linear(linear)]

    want = answers()
    for block in (1, 4, 7):
        monkeypatch.setattr(howell, "_BLOCK", block)
        assert answers() == want


ENUMERATORS = (pcs_enumerator_poly, distance_distribution, weight_enumerator_linear)


def test_a_second_call_walks_nothing(monkeypatch):
    walks = []
    walk = enumerator.span_walk
    monkeypatch.setattr(enumerator, "span_walk", lambda *a: walks.append(a) or walk(*a))

    def linear():
        return random_linear_instance(random.Random(5), ["Z3xZ4"], space_cap=2000)

    for first in ENUMERATORS:
        pcs = linear()
        answer = first(pcs)
        assert walks
        walks.clear()
        assert first(pcs) is answer and not walks
    # N and D come from one walk, whichever is asked first, linear code or not
    for pcs in (linear(), build_z6_pcs()):
        pcs_enumerator_poly(pcs)
        walks.clear()
        assert distance_distribution(pcs).coeffs and not walks
    pcs = build_z6_pcs()
    distance_distribution(pcs)
    walks.clear()
    assert pcs_enumerator_poly(pcs) and not walks


def test_enumerators_honour_the_budget(z6_pcs, monkeypatch):
    # 18 points in the row span, 18 * 3 * 3 exponent pairs
    for budget, what in [(17, "row span walk"), (161, "exponent pairs")]:
        monkeypatch.setattr("ringcodes.rings.DEFAULT_BUDGET", budget)
        for fn in (pcs_enumerator_poly, distance_distribution):
            with pytest.raises(BudgetExceeded) as exc:
                fn(z6_pcs)
            assert exc.value.what == what
    monkeypatch.setattr("ringcodes.rings.DEFAULT_BUDGET", 162)
    assert distance_distribution(z6_pcs).coeffs == Z6_DISTANCE_DISTRIBUTION


def test_large_character_order_allocates_nothing_of_length_L():
    # Z1009xZ997 has L = 1005973; the row span has 1009 points
    spec = parse_ring("Z1009xZ997")
    h = rv(spec, [(1, 0), (2, 0), (3, 0)])
    s_row = rv(spec, [(0, 0), (5, 0), (7, 0)])
    pcs = validate_pcs([h], [s_row])
    tracemalloc.start()
    try:
        npoly = pcs_enumerator_poly(pcs)
        dd = distance_distribution(pcs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    size = pcs.code_cardinality()
    c = spec.cardinality**pcs.n // pcs.row_module.cardinality
    assert sum(npoly.coeffs) == spec.cardinality**pcs.n * size
    assert npoly.coeffs[0] == (c * pcs.s) ** 2
    assert dd.coeffs[0] == size
    assert sum(dd.coeffs) == size**2


def test_character_order_above_int64_range():
    # over Z(2^21) x Z(3^13) x Z(5^9), L > 2^62; the span only reaches the
    # elements of order dividing 30, whose characters are those of
    # Z2xZ3xZ5, so N is the Z2xZ3xZ5 polynomial scaled by (|R| / 30)^(2n)
    big = parse_ring("Z2097152xZ1594323xZ1953125")
    small = parse_ring("Z2xZ3xZ5")
    assert big.char_order >= 2**62
    unit = (2**20, 3**12, 5**8)
    h_rows = [[(1, 1, 0), (0, 2, 1)], [(1, 0, 1), (1, 1, 3)]]
    s_rows = [[(0, 0, 0), (1, 2, 4)], [(0, 0, 0), (0, 1, 2)]]

    def system(spec, u):
        def lift(rows):
            return [
                rv(spec, [tuple(a * b for a, b in zip(c, u)) for c in row])
                for row in rows
            ]

        return validate_pcs(lift(h_rows), lift(s_rows))

    pcs_small, pcs_big = system(small, (1, 1, 1)), system(big, unit)
    scale = (big.cardinality // small.cardinality) ** (2 * pcs_big.n)
    want = pcs_enumerator_poly(pcs_small).coeffs
    assert pcs_enumerator_poly(pcs_big).coeffs == tuple(scale * c for c in want)
    assert distance_distribution(pcs_small).coeffs == tuple(
        oracle_distance_distribution(oracle_code_from_pcs(pcs_small))
    )


@pytest.mark.parametrize(
    "ring",
    [
        "Z2147483647xZ2147483629",  # L < 2^62 <= 3 L: the int64 path at its edge
        "Z2097152xZ1594323xZ1953125",  # L >= 2^62: the object path
    ],
)
def test_enumerator_exact_at_the_int64_edge(ring):
    # a zero H row spans {0} and admits the one zero column, so N_0 = |R|^(2n)
    spec = parse_ring(ring)
    L = spec.char_order
    assert (L < 2**62 <= 3 * L) if spec.nfactors == 2 else L >= 2**62
    pcs = validate_pcs([zero_vec(spec, 3)], [zero_vec(spec, 1)])
    assert pcs_enumerator_poly(pcs).coeffs == (spec.cardinality**6, 0, 0, 0)
    assert distance_distribution(pcs).coeffs == tuple(
        math.comb(3, i) * (spec.cardinality - 1) ** i * spec.cardinality**3 for i in range(4)
    )
