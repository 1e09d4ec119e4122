"""Characters, exact root-of-unity sums, Fourier coefficients, Poisson."""

import cmath
import random
import time
import tracemalloc

import pytest

from ringcodes import (
    BudgetExceeded,
    CodePresentation,
    ExponentSum,
    ParityCheckSystem,
    RingVec,
    Submodule,
    code_to_pcs,
    dot,
    enumerate_vectors,
    fourier_coeff_coset,
    fourier_coeff_pcs,
    generating_character,
    oracle_fourier,
    oracle_code_from_pcs,
    parse_ring,
    pcs_to_code,
    poisson_sum,
    scale,
    validate_pcs,
    vec_add,
    vec_neg,
    weight,
    zero_vec,
)
from ringcodes.howell import HowellForm, _flat_steps, _reduce, flat_rows
from conftest import (
    OUTSIDE_RINGS,
    PROPERTY_RINGS,
    Z6,
    code_words,
    random_instance,
    random_systems,
    random_vec,
    rv,
)

# Fourier transform of the running example's indicator over the 18-element
# row span of H; every value is a plain integer.
Z6_FOURIER_TABLE = {
    (0, 0, 0, 0): 216,
    (1, 1, 3, 5): 144,
    (2, 2, 0, 4): 0,
    (3, 3, 3, 3): -72,
    (4, 4, 0, 2): 0,
    (5, 5, 3, 1): 144,
    (0, 4, 2, 2): 0,
    (1, 5, 5, 1): -72,
    (2, 0, 2, 0): 0,
    (3, 1, 5, 5): 144,
    (4, 2, 2, 4): 216,
    (5, 3, 5, 3): 144,
    (0, 2, 4, 4): 0,
    (1, 3, 1, 3): 144,
    (2, 4, 4, 2): 216,
    (3, 5, 1, 1): 144,
    (4, 0, 4, 0): 0,
    (5, 1, 1, 5): -72,
}


def test_exponent_sum_algebra():
    a = ExponentSum.root(6, 1)
    b = ExponentSum.root(6, 5)
    assert (a * b).terms == ExponentSum.root(6, 0).terms
    assert (a + b).evaluate() == pytest.approx(2 * (0.5), abs=1e-12)
    assert (-a).terms == a.scaled(-1).terms
    assert tuple((a - a).counts) == (0,) * 6
    assert ExponentSum.zero(6).is_zero()


def test_exponent_sum_mul_matches_complex():
    rng = random.Random(8)
    for _ in range(50):
        L = rng.choice([2, 3, 4, 6, 12])
        a = ExponentSum(L, tuple(rng.randint(-3, 3) for _ in range(L)))
        b = ExponentSum(L, tuple(rng.randint(-3, 3) for _ in range(L)))
        assert (a * b).evaluate() == pytest.approx(
            a.evaluate() * b.evaluate(), abs=1e-9
        )
        assert (a + b).evaluate() == pytest.approx(
            a.evaluate() + b.evaluate(), abs=1e-9
        )
        assert a.conjugate().evaluate() == pytest.approx(
            a.evaluate().conjugate(), abs=1e-9
        )


def test_exponent_sum_cancellation_is_zero_numerically():
    # 1 + zeta_3 + zeta_3^2 = 0 without the counts being zero
    es = ExponentSum(3, (1, 1, 1))
    assert any(es.counts)
    assert es.is_zero()
    assert abs(es.evaluate()) < 1e-9


@pytest.mark.parametrize(
    "order, k, count", [(2, 0, 1), (6, 5, 216), (12, 7, -3), (4292870399, 4292870398, 3)]
)
def test_runs_of_one_exponent_is_collect(order, k, count):
    es = ExponentSum._runs(order, [k], count)
    assert es == ExponentSum._collect(order, [(k, count)])
    assert es == ExponentSum._runs(order, [k, k], count) - ExponentSum.root(order, k, count)


def test_exponent_sum_guards():
    with pytest.raises(ValueError):
        ExponentSum(4, (1, 0, 0))
    with pytest.raises(ValueError):
        ExponentSum.root(4, 1) + ExponentSum.root(6, 1)


def _dense_terms(counts) -> tuple:
    return tuple((k, c) for k, c in enumerate(counts) if c)


def _dense_value(counts, L) -> complex:
    # the dense ascending-order sum that evaluate() must reproduce exactly
    return sum((a * cmath.exp(2j * cmath.pi * k / L) for k, a in enumerate(counts) if a), 0j)


def test_sparse_arithmetic_matches_dense_reference():
    rng = random.Random(77)
    for _ in range(300):
        L = rng.choice([1, 2, 3, 4, 6, 12, 30])
        a, b = ([rng.choice([0, 0, 0, -2, -1, 1, 3]) for _ in range(L)] for _ in range(2))
        ea, eb = ExponentSum(L, tuple(a)), ExponentSum(L, tuple(b))
        assert ea.terms == _dense_terms(a)
        assert list(ea.counts) == a and tuple(ea.counts) == tuple(a)
        product = [0] * L
        for i in range(L):
            for j in range(L):
                product[(i + j) % L] += a[i] * b[j]
        c = rng.randint(-3, 3)
        for got, want in [
            (ea + eb, [x + y for x, y in zip(a, b)]),
            (ea - eb, [x - y for x, y in zip(a, b)]),
            (-ea, [-x for x in a]),
            (ea * eb, product),
            (ea.conjugate(), [a[-k % L] for k in range(L)]),
            (ea.scaled(c), [c * x for x in a]),
            (ea.scaled(0), [0] * L),
        ]:
            assert got.terms == _dense_terms(want)
            assert got == ExponentSum(L, tuple(want))
            assert hash(got) == hash(ExponentSum(L, tuple(want)))
            assert got.evaluate() == _dense_value(want, L)
            assert got.is_zero() == (not any(want) or abs(_dense_value(want, L)) <= 1e-9)


def test_coefficients_cost_memory_in_terms_not_in_L():
    # over Z65521xZ65519, L = 4292870399: a dense list of counts cannot be built
    spec = parse_ring("Z65521xZ65519")
    L = spec.char_order
    h = rv(spec, [(1, 2), (2, 0), (3, 5)])
    s_cols = [(0, 0), (5, 1), (7, 3), (9, 2)]
    pcs = validate_pcs([h], [rv(spec, s_cols)])
    pres = pcs_to_code(pcs)
    a = (3, 4)
    points = [(zero_vec(spec, 3), (0, 0)), (scale(spec.elem(list(a)), h), a)]
    tracemalloc.start()
    try:
        got = [(fourier_coeff_pcs(pcs, x), fourier_coeff_coset(pres, x)) for x, _ in points]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    kcard = spec.cardinality ** 2  # h holds a unit, so the row span is all of R h
    for (x, a), (by_pcs, by_coset) in zip(points, got):
        assert by_pcs == by_coset
        exps = sorted(
            -sum(ai * ri * (L // t) for ai, ri, t in zip(a, r, spec.factors)) % L
            for r in s_cols
        )
        want = {}
        for k in exps:
            want[k] = want.get(k, 0) + kcard
        assert by_pcs.terms == tuple(sorted(want.items()))
        # the dense counts are generated lazily, even at this L
        assert next(by_pcs.counts) == dict(by_pcs.terms).get(0, 0)


def test_generating_character_single_factor():
    eps = generating_character(parse_ring("Z6"))
    assert eps.order == 6
    for a in range(6):
        assert eps.exponent(parse_ring("Z6").elem(a)) == a
    assert eps.value(parse_ring("Z6").elem(0)) == 1


def test_generating_character_product_rings():
    spec = parse_ring("Z2xZ3")
    eps = generating_character(spec)
    assert eps.order == 6
    assert eps.exponent(spec.elem((1, 1))) == (3 + 2) % 6
    klein = parse_ring("Z2xZ2")
    epsk = generating_character(klein)
    assert epsk.order == 2
    assert epsk.exponent(klein.elem((1, 1))) == 0  # the two halves cancel


def test_character_sums_to_zero_over_the_ring():
    # a generating character is nontrivial on every nonzero ideal, so the
    # full-ring sum vanishes
    for ring in ["Z2", "Z5", "Z6", "Z2xZ2", "Z2xZ3", "Z4xZ6"]:
        spec = parse_ring(ring)
        eps = generating_character(spec)
        total = sum(eps.value(a) for a in spec.elements())
        assert abs(total) < 1e-9


def test_character_exponent_is_bilinear():
    rng = random.Random(44)
    for _ in range(40):
        spec = parse_ring(rng.choice(["Z4", "Z6", "Z2xZ3", "Z2xZ2"]))
        L = spec.char_order
        n = rng.randint(1, 4)
        x, x2, y = (random_vec(rng, spec, n) for _ in range(3))
        eps = generating_character(spec)
        assert (
            eps.exponent(dot(vec_add(x, x2), y))
            == (eps.exponent(dot(x, y)) + eps.exponent(dot(x2, y))) % L
        )


def test_row_combination_is_well_defined(z6_pcs):
    # any expression of x over H's rows gives the same syndrome row r S,
    # and s_row reads that row off the forms of [H | S]
    from ringcodes import syzygies
    from ringcodes.submodules import solve_forms

    syz = list(syzygies(Z6, z6_pcs.h_rows).enumerate())
    for x_coords in [(1, 1, 3, 5), (4, 2, 2, 4), (2, 0, 2, 0)]:
        x = rv(Z6, x_coords)
        r = solve_forms(Z6, Submodule.from_generators(Z6, 4, z6_pcs.h_rows).forms, x)
        assert r is not None
        rebuilt = zero_vec(Z6, 4)
        for i in range(z6_pcs.m):
            rebuilt = vec_add(rebuilt, scale(r[i], z6_pcs.h_rows[i]))
        assert rebuilt == x
        for syz_r in syz:
            shifted = vec_add(r, syz_r)
            s_x = zero_vec(Z6, z6_pcs.s)
            for i in range(z6_pcs.m):
                s_x = vec_add(s_x, scale(shifted[i], z6_pcs.s_rows[i]))
            assert s_x == z6_pcs.s_row(x)


def test_row_combination_outside_row_span(z6_pcs):
    assert z6_pcs.s_row(rv(Z6, (1, 0, 0, 0))) is None


def test_fourier_table_golden_both_routes(z6_pcs):
    pres = pcs_to_code(z6_pcs)
    code = oracle_code_from_pcs(z6_pcs)
    span = list(z6_pcs.row_module.enumerate())
    assert len(span) == 18
    for x in span:
        want = Z6_FOURIER_TABLE[tuple(c[0] for c in x.coords)]
        via_pcs = fourier_coeff_pcs(z6_pcs, x)
        via_coset = fourier_coeff_coset(pres, x)
        assert via_pcs == via_coset  # exact, count for count
        got = via_pcs.evaluate()
        assert abs(got - want) <= 1e-9
        assert abs(oracle_fourier(code, x) - want) <= 1e-9


def test_fourier_vanishes_off_support(z6_pcs):
    pres = pcs_to_code(z6_pcs)
    x = rv(Z6, (1, 0, 0, 0))
    assert not z6_pcs.row_module.contains(x)
    assert tuple(fourier_coeff_pcs(z6_pcs, x).counts) == (0,) * 6
    assert tuple(fourier_coeff_coset(pres, x).counts) == (0,) * 6
    # and the brute-force sum agrees it is zero
    assert abs(oracle_fourier(oracle_code_from_pcs(z6_pcs), x)) < 1e-9


def test_fourier_zero_point_counts_the_code(z6_pcs):
    got = fourier_coeff_pcs(z6_pcs, zero_vec(Z6, 4)).evaluate()
    assert got == pytest.approx(216, abs=1e-9)


def test_fourier_routes_agree_random():
    rng = random.Random(600613)
    for _ in range(25):
        pcs, _ = random_instance(rng, space_cap=500)
        pres = pcs_to_code(pcs)
        code = oracle_code_from_pcs(pcs)
        for x in pcs.row_module.enumerate():
            es_pcs = fourier_coeff_pcs(pcs, x)
            es_coset = fourier_coeff_coset(pres, x)
            assert es_pcs == es_coset
            assert abs(es_pcs.evaluate() - oracle_fourier(code, x)) <= 1e-9
        # a few off-support points
        for _ in range(3):
            x = random_vec(rng, pcs.spec, pcs.n)
            if pcs.row_module.contains(x):
                continue
            assert tuple(fourier_coeff_pcs(pcs, x).counts) == (0,) * pcs.spec.char_order
            assert abs(oracle_fourier(code, x)) < 1e-9


def test_fourier_routes_agree_outside_property_rings():
    rng = random.Random(4711)
    for pcs in random_systems(rng, OUTSIDE_RINGS, 15, 800):
        pres = pcs_to_code(pcs)
        off_span = [random_vec(rng, pcs.spec, pcs.n) for _ in range(20)]
        for x in list(pcs.row_module.enumerate()) + off_span:
            assert fourier_coeff_pcs(pcs, x) == fourier_coeff_coset(pres, x)
            assert (pcs.s_row(x) is None) == (not pcs.row_module.contains(x))


def test_fourier_routes_agree_on_chosen_representatives():
    # the coset route reads the drawn presentation itself, never pcs_to_code
    rng = random.Random(9091)
    for _ in range(20):
        pcs, pres = random_instance(rng, rings=PROPERTY_RINGS + OUTSIDE_RINGS, space_cap=800)
        off_span = [random_vec(rng, pcs.spec, pcs.n) for _ in range(15)]
        for x in list(pcs.row_module.enumerate()) + off_span:
            assert fourier_coeff_pcs(pcs, x) == fourier_coeff_coset(pres, x)


def test_coset_route_support_is_the_dual_module():
    # the coset route tests x . g = 0 against D's Howell rows; the dual
    # module's own membership test and the system route must agree with it
    rng = random.Random(1207)
    inside = outside = 0
    for _ in range(20):
        pcs, pres = random_instance(rng, rings=PROPERTY_RINGS + OUTSIDE_RINGS, space_cap=800)
        dual = pres.dual_module()
        points = list(dual.enumerate()) + [random_vec(rng, pcs.spec, pcs.n) for _ in range(15)]
        for x in points:
            es = fourier_coeff_coset(pres, x)
            assert bool(es.terms) == dual.contains(x)
            assert es == fourier_coeff_pcs(pcs, x)
            inside += dual.contains(x)
            outside += not dual.contains(x)
    assert inside and outside


def test_coset_route_never_builds_the_annihilator(z6_pcs, monkeypatch):
    pres = pcs_to_code(z6_pcs)  # fresh: its dual module is not built yet

    def refuse(self):
        raise AssertionError("the coset route built an annihilator")

    monkeypatch.setattr(Submodule, "annihilator", refuse)
    for x, value in Z6_FOURIER_TABLE.items():
        assert fourier_coeff_coset(pres, rv(Z6, x)).evaluate() == pytest.approx(value)
    assert fourier_coeff_coset(pres, rv(Z6, (1, 0, 0, 0))).terms == ()


FOREIGN = [zero_vec(Z6, 3), zero_vec(Z6, 5), zero_vec(parse_ring("Z2xZ3"), 4),
           zero_vec(parse_ring("Z7"), 4)]


@pytest.mark.parametrize("x", FOREIGN)
def test_coset_route_refuses_a_foreign_vector(z6_pcs, x):
    with pytest.raises(ValueError) as exc:
        fourier_coeff_coset(pcs_to_code(z6_pcs), x)
    assert str(exc.value) == "vector does not live in the ambient space"


@pytest.mark.parametrize("x", FOREIGN)
@pytest.mark.parametrize("query", [fourier_coeff_pcs, ParityCheckSystem.s_row])
def test_system_route_refuses_a_foreign_vector(z6_pcs, query, x):
    with pytest.raises(ValueError) as exc:
        query(z6_pcs, x)
    assert str(exc.value) == "vector does not match the system's ambient space"


def test_both_routes_accept_an_equal_but_distinct_ring(z6_pcs, z6_pres):
    twin = parse_ring("Z6")
    assert twin == Z6 and twin is not Z6 and z6_pcs.spec is Z6
    for x, value in Z6_FOURIER_TABLE.items():
        y = RingVec(twin, rv(Z6, x).coords)
        es = fourier_coeff_pcs(z6_pcs, y)
        assert es == fourier_coeff_pcs(z6_pcs, rv(Z6, x)) == fourier_coeff_coset(z6_pres, y)
        assert es.evaluate() == pytest.approx(value, abs=1e-9)
        assert z6_pcs.s_row(y) == z6_pcs.s_row(rv(Z6, x))
    off_span = RingVec(twin, rv(Z6, (1, 0, 0, 0)).coords)
    assert fourier_coeff_pcs(z6_pcs, off_span).terms == ()
    assert fourier_coeff_coset(z6_pres, off_span).terms == ()


def test_evaluate_keeps_no_table_of_roots():
    spec = parse_ring("Z1009xZ997")
    L = spec.char_order
    counts = [0] * L
    counts[0], counts[5], counts[L - 1] = 3, -2, 7
    es = ExponentSum(L, tuple(counts))
    eps = generating_character(spec)
    a = spec.elem([5, 7])
    tracemalloc.start()
    try:
        value = es.evaluate()
        chi = eps.value(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    root = [cmath.exp(2j * cmath.pi * k / L) for k in (0, 5, L - 1)]
    assert value == 3 * root[0] - 2 * root[1] + 7 * root[2]
    assert chi == cmath.exp(2j * cmath.pi * eps.exponent(a) / L)


def _divided_s_row(pcs, x):
    """S_x the plain way: divide all of [x | 0] by hs_forms, negate the S part."""
    parts = []
    for hf, xs in zip(pcs.hs_forms, x.components()):
        rest = hf.divide(xs + (0,) * pcs.s)[1]
        if any(rest[: pcs.n]):
            return None
        parts.append([-a % hf.modulus for a in rest[pcs.n :]])
    return RingVec(pcs.spec, tuple(zip(*parts)))


def _divided_coeff(pcs, x):
    L = pcs.spec.char_order
    s_x = _divided_s_row(pcs, x)
    es = ExponentSum.zero(L)
    for a in s_x.coords if s_x is not None else ():
        e = generating_character(pcs.spec).exponent(pcs.spec.elem(a))
        es = es + ExponentSum.root(L, -e, pcs.kernel_cardinality)
    return es


def _large_system(ring, seed):
    """H random with m = 2, n = 3, and S_j = H d_j for s = 3 random d_j."""
    rng, spec = random.Random(seed), parse_ring(ring)
    h = [random_vec(rng, spec, 3) for _ in range(2)]
    reps = [random_vec(rng, spec, 3) for _ in range(3)]
    return validate_pcs(h, [RingVec.of(spec, [dot(r, d) for d in reps]) for r in h])


def _row_combination(rng, pcs):
    """A random r H, in the row span whatever its size."""
    x = zero_vec(pcs.spec, pcs.n)
    for h in pcs.h_rows:
        x = vec_add(x, scale(pcs.spec.elem([rng.randrange(t) for t in pcs.spec.factors]), h))
    return x


def _per_factor_quotients(pcs, x):
    """The quotients of x the plain way: one divide per factor of row_module.forms."""
    qs = []
    for hf, xs in zip(pcs.row_module.forms, x.components()):
        q, rest = hf.divide(xs)
        if any(rest):
            return None
        qs += q
    return qs


def _flat_quotients(pcs, x):
    """The quotients of one _reduce of x.flat by the _flat_steps of all factors,
    the flat division CodePresentation uses, or None when a remainder is left."""
    v = [*x.flat]
    qs = _reduce(_flat_steps(pcs.row_module.forms), v)
    return None if any(a % t for a, t in zip(v, pcs.spec.factors * pcs.n)) else qs


def test_flat_division_plan_matches_per_factor_divide():
    rng = random.Random(1616)
    systems = [random_instance(rng, rings=[ring], space_cap=800)[0]
               for ring in PROPERTY_RINGS + OUTSIDE_RINGS for _ in range(6)]
    systems += [_large_system("Z2147483629", 3), _large_system("Z65521xZ65519", 4)]
    non_unit_pivots, inside, outside = set(), 0, 0
    for pcs in systems:
        if any(p != 1 for hf in pcs.row_module.forms for p in hf.pivots):
            non_unit_pivots.add(str(pcs.spec))
        points = [random_vec(rng, pcs.spec, pcs.n) for _ in range(10)]
        points += [_row_combination(rng, pcs) for _ in range(10)]
        for x in points:
            want = _per_factor_quotients(pcs, x)
            qs = _flat_quotients(pcs, x)
            assert qs == want
            assert qs is None or all(type(q) is int for q in qs)
            inside += want is not None
            outside += want is None
    assert {"Z4", "Z8", "Z2xZ4", "Z3xZ4"} <= non_unit_pivots
    assert inside and outside


def test_s_row_and_system_route_match_full_width_division():
    rng = random.Random(5150)
    systems = [random_instance(rng, rings=PROPERTY_RINGS + OUTSIDE_RINGS, space_cap=800)[0]
               for _ in range(30)]
    zero_h = [validate_pcs([zero_vec(spec, 3)], [zero_vec(spec, 1)])
              for spec in map(parse_ring, ["Z6", "Z3xZ4", "Z2147483629"])]
    assert all(not hf.rows for pcs in zero_h for hf in pcs.hs_forms)
    large = [_large_system(ring, seed) for ring in ["Z2147483629", "Z65521xZ65519"] for seed in (1, 2)]
    inside = outside = 0
    for pcs in systems + zero_h + large:
        points = [random_vec(rng, pcs.spec, pcs.n) for _ in range(10)]
        points += [_row_combination(rng, pcs) for _ in range(10)]
        for x in points:
            want = _divided_s_row(pcs, x)
            assert pcs.s_row(x) == want
            es = fourier_coeff_pcs(pcs, x)
            ref = _divided_coeff(pcs, x)
            assert (es.order, es.terms) == (ref.order, ref.terms)
            inside += want is not None
            outside += want is None
    assert inside and outside


def test_system_plan_tests_d_and_solves_each_column():
    # the plan's test rows are D's canonical Howell rows, read off the form of
    # G^T for G the Howell rows of H, and each exponent row a_j has H a_j^T = S_j
    rng = random.Random(2718)
    systems = [random_instance(rng, rings=PROPERTY_RINGS + OUTSIDE_RINGS, space_cap=800)[0]
               for _ in range(30)]
    systems += [_large_system(ring, seed) for ring in ["Z2147483629", "Z65521xZ65519"]
                for seed in (1, 2)]
    systems += [validate_pcs([zero_vec(spec, 3)], [zero_vec(spec, 1)])
                for spec in map(parse_ring, ["Z6", "Z3xZ4", "Z2147483629"])]
    for pcs in systems:
        spec, L, scale_, rows, packs, fields, mask, _ = pcs._character_plan
        assert (spec, L, scale_) == (pcs.spec, pcs.spec.char_order, pcs.kernel_cardinality)
        width = mask.bit_length()
        tests = [[p >> b & mask for p in packs[0][0]] for b, _ in fields]
        assert tests == [f for f, _ in flat_rows(pcs.kernel_module.forms, pcs.n)]
        assert [t for _, t in fields] == [hf.modulus for hf in pcs.kernel_module.forms
                                           for _ in hf.rows]
        assert [b for b, _ in fields] == list(range(0, width * len(fields), width))
        assert len(rows) == pcs.s
        for a, col in zip(rows, pcs.s_cols):
            assert pcs.syndrome(a) == col


def test_system_plan_on_a_long_syndrome_matrix():
    # the Z101 system with s = 2000 columns (a // 101, a % 101): the plan,
    # built by the first coefficient, and that coefficient stay well in time
    spec = parse_ring("Z101")
    h = [rv(spec, (1, 0, 1, 1)), rv(spec, (0, 1, 1, 2))]
    cols = [(a // 101, a % 101) for a in range(1, 2001)]
    pcs = validate_pcs(h, [RingVec.of(spec, [c[i] for c in cols]) for i in range(2)])
    x = vec_add(h[0], scale(spec.elem([3]), h[1]))
    start = time.perf_counter()
    es = fourier_coeff_pcs(pcs, x)
    assert time.perf_counter() - start < 0.5
    assert sum(c for _, c in es.terms) == 2000 * pcs.kernel_cardinality
    assert es == _divided_coeff(pcs, x)


def test_system_route_never_divides_or_reads_the_coset_side(z6_pcs, monkeypatch):
    divide = HowellForm.divide

    def refuse(*args):
        raise AssertionError("the system route read the coset side")

    def narrow_divide(hf, v):
        # the H-part quotients need only the n-wide forms of H
        if hf.ncols > z6_pcs.n:
            raise AssertionError(f"divided a {hf.ncols}-wide form, wider than n = {z6_pcs.n}")
        return divide(hf, v)

    monkeypatch.setattr(HowellForm, "divide", narrow_divide)
    for name in ("kernel_module", "preimage"):
        monkeypatch.setattr(ParityCheckSystem, name, property(refuse))
    for x, value in Z6_FOURIER_TABLE.items():
        assert fourier_coeff_pcs(z6_pcs, rv(Z6, x)).evaluate() == pytest.approx(value, abs=1e-9)
    assert fourier_coeff_pcs(z6_pcs, rv(Z6, (1, 0, 0, 0))).terms == ()


def test_fourier_coset_route_with_independent_presentation(z6_pres, z6_pcs):
    # the coset route from the hand-written presentation matches the system
    # route exactly, column order and all
    for x in z6_pcs.row_module.enumerate():
        assert fourier_coeff_coset(z6_pres, x) == fourier_coeff_pcs(z6_pcs, x)


def test_poisson_constant_function_counts_words():
    rng = random.Random(17)
    for _ in range(10):
        pcs, pres = random_instance(rng, max_n=3, space_cap=260)
        total = poisson_sum(pres, lambda v: 1.0)
        assert total.real == pytest.approx(pres.cardinality, rel=1e-9)
        assert abs(total.imag) < 1e-6


def test_poisson_indicator_detects_membership():
    rng = random.Random(18)
    pcs, pres = random_instance(rng, max_n=2, space_cap=80)
    words = code_words(pres)
    inside = next(iter(sorted(words, key=lambda v: v.coords)))
    outside = None
    for v in enumerate_vectors(pres.spec, pres.n):
        if v not in words:
            outside = v
            break
    got = poisson_sum(pres, lambda v: 1.0 if v == inside else 0.0)
    assert got.real == pytest.approx(1.0, abs=1e-9)
    if outside is not None:
        got = poisson_sum(pres, lambda v: 1.0 if v == outside else 0.0)
        assert abs(got) < 1e-9


def test_poisson_weight_monomial_matches_direct_sum():
    rng = random.Random(19)
    for _ in range(6):
        pcs, pres = random_instance(rng, max_n=3, space_cap=260)
        x0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        y0 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        n = pres.n

        def f(v):
            return x0 ** (n - weight(v)) * y0 ** weight(v)

        direct = sum(f(c) for c in code_words(pres))
        got = poisson_sum(pres, f)
        assert abs(got - direct) <= 1e-9 * max(1.0, abs(direct))


def test_poisson_accepts_a_supplied_transform():
    rng = random.Random(20)
    pcs, pres = random_instance(rng, max_n=2, space_cap=80)
    spec, n = pres.spec, pres.n
    eps = generating_character(spec)
    L = eps.order
    table = list(enumerate_vectors(spec, n))

    def f(v):
        return float(weight(v))

    def f_hat(x):
        acc = 0j
        for y in table:
            acc += f(y) * cmath.exp(-2j * cmath.pi * eps.exponent(dot(x, y)) / L)
        return acc

    direct = sum(f(c) for c in code_words(pres))
    got = poisson_sum(pres, f, f_hat=f_hat)
    assert abs(got - direct) <= 1e-9 * max(1.0, abs(direct))


def test_poisson_sum_conjugates_instead_of_reflecting_the_code():
    # chi_x(-y) = conj chi_x(y): the coefficients of -C, from the reflected
    # presentation, are C's conjugated term for term, so a sum over them
    # gives the same floats
    rng = random.Random(2468)
    for _ in range(24):
        _, pres = random_instance(rng, rings=PROPERTY_RINGS + OUTSIDE_RINGS, space_cap=800)
        reflected = CodePresentation(pres.kernel, tuple(map(vec_neg, pres.representatives)))
        for x in enumerate_vectors(pres.spec, pres.n):
            assert fourier_coeff_coset(reflected, x) == fourier_coeff_coset(pres, x).conjugate()

        def f_hat(x):
            return complex(weight(x) + 0.25, sum(x.flat) / 3)

        acc = 0j
        for x in pres.dual_module().enumerate():
            acc += f_hat(x) * fourier_coeff_coset(reflected, x).evaluate()
        expected = acc / pres.spec.cardinality**pres.n
        assert poisson_sum(pres, lambda v: 0.0, f_hat=f_hat) == expected


def test_poisson_budget_gate(monkeypatch):
    spec = parse_ring("Z6")
    D = Submodule.from_generators(spec, 4, [])
    pres = CodePresentation(D, (zero_vec(spec, 4),))
    monkeypatch.setattr("ringcodes.rings.DEFAULT_BUDGET", 100)
    with pytest.raises(BudgetExceeded):
        poisson_sum(pres, lambda v: 1.0)


@pytest.mark.parametrize("ring", ["Z2147483629", "Z65521xZ65519", "Z2xZ2147483629"])
@pytest.mark.parametrize("n", [1, 64])
def test_coset_coefficient_is_exact_at_the_packed_field_width(ring, n):
    """x and a representative with every residue at t - 1 make an exponent
    field hold n sum_f (t_f - 1)^2 L / t_f before its reduction mod L; D's
    rows, mostly t - 1 too, annihilate x, so the coefficient is nonzero."""
    spec = parse_ring(ring)
    L, weights = spec.char_order, spec.character_weights
    top = tuple(t - 1 for t in spec.factors)
    x = rv(spec, [top] * n)
    # g = (1, t-1, ..., t-1, c) per factor with sum 0 mod t, so x . g = 0
    gens = []
    if n > 1:
        last = tuple(-(1 + (n - 2) * (t - 1)) % t for t in spec.factors)
        gens.append(rv(spec, [(1,) * spec.nfactors] + [top] * (n - 2) + [last]))
    kernel = Submodule.from_generators(spec, n, gens or [zero_vec(spec, n)])
    reps = [zero_vec(spec, n), x, rv(spec, [top] * (n - 1) + [(1,) * spec.nfactors])]
    pres = CodePresentation(kernel, reps)
    counts = {}
    for d in reps:
        e = sum(a * b * w for cx, cd in zip(x.coords, d.coords)
                for a, b, w in zip(cx, cd, weights))
        counts[-e % L] = counts.get(-e % L, 0) + kernel.cardinality
    coeff = fourier_coeff_coset(pres, x)
    assert coeff.terms == tuple(sorted((k, c) for k, c in counts.items() if c))
    # outside the dual of D the coefficient vanishes
    if n > 1:
        y = rv(spec, [top] * (n - 1) + [(0,) * spec.nfactors])
        assert any(dot(y, g).residues != (0,) * spec.nfactors for g in gens)
        assert fourier_coeff_coset(pres, y).terms == ()


def test_coset_route_reads_every_pack_of_many_representatives():
    """150 representatives fill three packs of the coset route; both routes
    still agree on the whole dual of D, and vanish just outside it."""
    spec = parse_ring("Z7")
    kernel = Submodule.from_generators(spec, 4, [rv(spec, [1, 1, 1, 1])])
    rng = random.Random(150)
    reps = [rv(spec, [*abc, 0]) for abc in rng.sample([(a, b, c) for a in range(7)
                                                      for b in range(7) for c in range(7)], 150)]
    pres = CodePresentation(kernel, reps)
    pcs = code_to_pcs(pres)
    for x in pres.dual_module().enumerate():
        coeff = fourier_coeff_coset(pres, x)
        assert coeff == fourier_coeff_pcs(pcs, x)
        assert sum(c for _, c in coeff.terms) == pres.cardinality
    assert fourier_coeff_coset(pres, rv(spec, [1, 0, 0, 0])).terms == ()
