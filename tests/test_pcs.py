"""System validation, code conversion, membership, kernels, linearity."""

import random
from collections import Counter

import pytest

import ringcodes.pcs as pcsmod
from ringcodes import howell, submodules
from ringcodes import (
    CodePresentation,
    ConditionIIIViolation,
    ConditionIIViolation,
    ConditionIViolation,
    ParityCheckSystem,
    RingVec,
    Submodule,
    code_to_pcs,
    dot,
    enumerate_vectors,
    fourier_coeff_pcs,
    is_linear,
    kernel,
    member,
    min_distance_witness,
    oracle_code_from_pcs,
    oracle_is_linear,
    oracle_kernel,
    oracle_validate,
    parse_ring,
    pcs_enumerator_poly,
    pcs_to_code,
    scale,
    solve_right,
    validate_pcs,
    vec_add,
    vec_sub,
    weight_enumerator_linear,
    zero_vec,
)
from conftest import (
    OUTSIDE_RINGS,
    PROPERTY_RINGS,
    Z6,
    Z6_H,
    Z6_REPS,
    Z6_S_ROWS,
    build_z6_pcs,
    build_z6_presentation,
    code_words,
    random_instance,
    random_linear_instance,
    random_vec,
    rv,
)


def test_golden_system_validates(z6_pcs):
    assert z6_pcs.m == 2 and z6_pcs.n == 4 and z6_pcs.s == 3
    assert z6_pcs.kernel_module.cardinality == 72
    assert z6_pcs.row_module.cardinality == 18
    assert z6_pcs.code_cardinality() == 216


# validate_pcs is the constructor under its documented name: both refuse
# an invalid pair alike
BUILDERS = (validate_pcs, ParityCheckSystem)


def test_condition_i_violation_appended_column():
    s_rows = [rv(Z6, (0, 1, 5, 1)), rv(Z6, (0, 2, 4, 1))]
    for build in BUILDERS:
        with pytest.raises(ConditionIViolation) as exc:
            build([rv(Z6, h) for h in Z6_H], s_rows)
        assert type(exc.value) is ConditionIViolation
        assert (exc.value.row, exc.value.col) == (2, 4)
        assert str(exc.value) == "S entry at row 2, column 4 is outside the image of H row 2"


def test_condition_ii_violation_duplicate_columns():
    for s_rows, cols in [
        ([rv(Z6, (0, 0)), rv(Z6, (0, 0))], (1, 2)),
        # the first repeat, named with the first column it repeats
        ([rv(Z6, (0, 2, 4, 2, 2)), rv(Z6, (0, 2, 2, 2, 4))], (2, 4)),
    ]:
        for build in BUILDERS:
            with pytest.raises(ConditionIIViolation) as exc:
                build([rv(Z6, h) for h in Z6_H], s_rows)
            assert (exc.value.col_a, exc.value.col_b) == cols
            assert str(exc.value) == f"S columns {cols[0]} and {cols[1]} are equal"


def test_condition_iii_violation_broken_dependency():
    # rows (1,1) and (2,2) over Z6 satisfy 4*h1 + h2 = 0, so S must obey it
    h_rows = [rv(Z6, (1, 1)), rv(Z6, (2, 2))]
    s_rows = [rv(Z6, (0, 1)), rv(Z6, (0, 0))]
    witnesses = []
    for build in BUILDERS:
        with pytest.raises(ConditionIIIViolation) as exc:
            build(h_rows, s_rows)
        witnesses.append((exc.value.witness, str(exc.value)))
    assert witnesses[0] == witnesses[1]
    w = witnesses[0][0]
    # the witness really is a dependency of H's rows that S's rows break
    assert vec_add(scale(w[0], h_rows[0]), scale(w[1], h_rows[1])) == zero_vec(Z6, 2)
    assert vec_add(scale(w[0], s_rows[0]), scale(w[1], s_rows[1])) != zero_vec(Z6, 2)


def _row_combination_witness(h_rows, s_rows):
    """The first canonical syzygy generator r of H's rows with r S != 0, by
    summing c_i * (row i of S), or None."""
    spec, n, s = h_rows[0].spec, len(h_rows[0]), len(s_rows[0])
    zero_s = zero_vec(spec, s)
    forms = Submodule.from_generators(spec, n, h_rows).forms
    for r in submodules.left_kernel(spec, forms).canonical_generators():
        combo = zero_s
        for c, row in zip(r, s_rows):
            combo = vec_add(combo, scale(c, row))
        if combo != zero_s:
            return r
    return None


def test_condition_iii_witness_matches_the_row_combinations():
    # plant a row h = sum c_i h_i of H with S entries h . (d_j + e_j) for the
    # representatives d_j: (i) and (ii) hold, (iii) fails when some h . e_j != 0;
    # on 40 small systems, then 6 each over a large prime, a product of two
    # large primes and a product of prime powers
    rng = random.Random(1357)
    large = [parse_ring(r) for r in ["Z2147483629", "Z65521xZ65519", "Z27xZ4"] for _ in range(6)]
    raised = Counter()
    for trial in range(40 + len(large)):
        if trial < 40:
            pcs, _ = random_instance(rng, rings=PROPERTY_RINGS + OUTSIDE_RINGS, space_cap=800)
        else:
            spec, n = large[trial - 40], rng.randint(1, 4)
            h = [random_vec(rng, spec, n) for _ in range(rng.randint(1, 3))]
            pcs = _system_from_reps(h, [random_vec(rng, spec, n) for _ in range(3)])
        spec = pcs.spec
        h = zero_vec(spec, pcs.n)
        for row in pcs.h_rows:
            h = vec_add(h, scale(random_vec(rng, spec, 1)[0], row))
        off = [random_vec(rng, spec, pcs.n) if rng.random() < 0.5 else zero_vec(spec, pcs.n)
               for _ in range(pcs.s)]
        reps = pcs_to_code(pcs).representatives
        s_row = RingVec.of(spec, [dot(h, vec_add(d, e)) for d, e in zip(reps, off)])
        i = rng.randint(0, pcs.m)
        h_rows = [*pcs.h_rows[:i], h, *pcs.h_rows[i:]]
        s_rows = [*pcs.s_rows[:i], s_row, *pcs.s_rows[i:]]
        try:
            validate_pcs(h_rows, s_rows)
            got = None
        except ConditionIIIViolation as exc:
            got = exc.witness
            raised[str(spec) if trial >= 40 else "small"] += 1
        assert got == _row_combination_witness(h_rows, s_rows)
    assert raised["small"] >= 10
    assert all(raised[str(spec)] >= 3 for spec in large)


def test_validate_requires_consistent_shapes():
    with pytest.raises(ValueError):
        ParityCheckSystem([], [])
    with pytest.raises(ValueError):
        ParityCheckSystem([rv(Z6, (1, 2))], [])
    with pytest.raises(ValueError):
        ParityCheckSystem([rv(Z6, (1, 2))], [rv(Z6, (0,)), rv(Z6, (0,))])
    with pytest.raises(ValueError):
        ParityCheckSystem(
            [rv(Z6, (1, 2)), rv(Z6, (1,))], [rv(Z6, (0,)), rv(Z6, (0,))]
        )


def test_forms_of_h_and_s_refuse_an_unvalidated_dependency():
    # 4 * (1, 1) + (2, 2) = 0 but 4 * (0, 1) + (0, 0) != 0 over Z6: a pivot
    # of [H | S] would land in S and the pairs (h, S_h) break down, so no
    # such system is built to read hs_forms off
    h_rows = [rv(Z6, (1, 1)), rv(Z6, (2, 2))]
    with pytest.raises(ConditionIIIViolation):
        ParityCheckSystem(h_rows, [rv(Z6, (0, 1)), rv(Z6, (0, 0))])


def _system_from_reps(h, reps):
    """A validated system with the distinct columns H d for the given d."""
    spec = h[0].spec
    cols = list(dict.fromkeys(tuple(dot(row, d) for row in h) for d in reps))
    return validate_pcs(h, [RingVec(spec, tuple(c[i].residues for c in cols)) for i in range(len(h))])


def test_h_part_of_the_forms_of_h_and_s_is_the_form_of_h():
    # condition (iii) makes the span of [H | S] map one to one onto the row
    # span of H, and the Howell form is unique, so the H part of each row
    # is the Howell form of H, row for row
    rng = random.Random(1661)
    systems = [random_instance(rng, rings=PROPERTY_RINGS + OUTSIDE_RINGS, space_cap=800)[0]
               for _ in range(40)]
    for ring in ["Z2147483629", "Z65521xZ65519", "Z16", "Z27xZ4"]:
        spec = parse_ring(ring)
        for _ in range(6):
            n = rng.randint(1, 4)
            h = [random_vec(rng, spec, n) for _ in range(rng.randint(1, 3))]
            h.insert(rng.randrange(len(h) + 1), rng.choice(h))  # a repeated row
            systems.append(_system_from_reps(h, [random_vec(rng, spec, n) for _ in range(3)]))
    for pcs in systems:
        rows = [RingVec(pcs.spec, h.coords + s.coords) for h, s in zip(pcs.h_rows, pcs.s_rows)]
        hs = Submodule.from_generators(pcs.spec, pcs.n + pcs.s, rows).forms
        assert [tuple(r[: pcs.n] for r in hf.rows) for hf in hs] == [
            hf.rows for hf in pcs.row_module.forms
        ]
        assert [hf.pivot_cols for hf in hs] == [hf.pivot_cols for hf in pcs.row_module.forms]
        assert pcs.hs_forms == hs
        # the H part is the form of H in full, transform and kernel rows too
        assert pcs.row_module.forms == Submodule.from_generators(pcs.spec, pcs.n, pcs.h_rows).forms


def test_validation_and_kernel_size_compute_the_form_of_h_once(monkeypatch):
    # one entry per run of the one Howell loop, rows-only or on [W | T],
    # filling a form included: the rows it starts from and their width
    calls = []
    eliminate = howell._eliminate

    def counting(rows, ncols, t):
        calls.append((tuple(map(tuple, rows)), ncols, t))
        return eliminate(rows, ncols, t)

    monkeypatch.setattr(howell, "_eliminate", counting)
    spec = parse_ring("Z3xZ4")
    h = [rv(spec, [(1, 2), (2, 0), (0, 3)]), rv(spec, [(2, 1), (1, 2), (0, 1)])]
    # validation builds one Howell form per factor, that of [H | S], and
    # row_module is its H part; Howell forms per factor of one call on a
    # freshly validated system: kernel_module is read off that of H^T,
    # the first coefficient's plan adds the forms of G^T (G the Howell rows
    # of H) and of D, and kernel adds the forms of S and of the kernel (both
    # codes are nonlinear)
    per_factor = [
        (pcs_to_code, 2),
        (lambda pcs: fourier_coeff_pcs(pcs, pcs.h_rows[0]), 2),
        (pcs_enumerator_poly, 0),
        (kernel, 3),
    ]
    for pcs in (build_z6_pcs(),
                _system_from_reps(h, [rv(spec, [(1, 1), (0, 0), (2, 3)]), zero_vec(spec, 3)])):
        calls.clear()
        validate_pcs(pcs.h_rows, pcs.s_rows).kernel_cardinality
        assert calls == [
            (tuple(h.component(f) + s.component(f) for h, s in zip(pcs.h_rows, pcs.s_rows)),
             pcs.n + pcs.s, t)
            for f, t in enumerate(pcs.spec.factors)
        ]
        for op, forms in per_factor:
            fresh = validate_pcs(pcs.h_rows, pcs.s_rows)
            calls.clear()
            op(fresh)
            assert len(calls) == forms * pcs.spec.nfactors, op
    # the one-word check of a one-column system reads |D| off the form of H
    one_column = validate_pcs([rv(Z6, r) for r in Z6_H], [rv(Z6, (0,)), rv(Z6, (0,))])
    calls.clear()
    assert min_distance_witness(one_column)[0] == 2
    assert calls == []


def test_is_linear_and_kernel_share_one_form_of_s(monkeypatch):
    # weight_enumerator_linear asks is_linear and then kernel; both read the
    # system's one Howell form of S's rows
    pcs = random_linear_instance(random.Random(5), ["Z4"])
    assert (pcs.m, pcs.s) == (1, 2)
    calls = []
    eliminate = howell._eliminate

    def counting(rows, ncols, t):
        calls.append(tuple(map(tuple, rows)))
        return eliminate(rows, ncols, t)

    monkeypatch.setattr(howell, "_eliminate", counting)
    weight_enumerator_linear(pcs)
    assert calls.count(tuple(r.component(0) for r in pcs.s_rows)) == 1
    assert calls.count(((0, 2),)) == 1


def test_syndrome_and_member_golden(z6_pcs):
    assert z6_pcs.syndrome(rv(Z6, (5, 0, 0, 1))) == rv(Z6, (4, 2))
    assert member(z6_pcs, rv(Z6, (5, 2, 0, 0))) == 2
    assert member(z6_pcs, rv(Z6, (0, 0, 0, 0))) == 1
    assert member(z6_pcs, rv(Z6, (1, 0, 0, 0))) is None


def test_member_agrees_with_scan_on_golden(z6_pcs):
    words = oracle_code_from_pcs(z6_pcs).words
    hits = 0
    for x in enumerate_vectors(Z6, 4):
        j = member(z6_pcs, x)
        assert (j is not None) == (x in words)
        hits += j is not None
    assert hits == 216


def test_syndrome_is_exact_over_a_large_modulus():
    spec = parse_ring("Z2147483629")
    (t,) = spec.factors
    rng = random.Random(2029)
    for _ in range(10):
        rows = [RingVec.of(spec, [rng.randrange(t) for _ in range(10)]) for _ in range(6)]
        pcs = ParityCheckSystem(rows, [zero_vec(spec, 1)] * 6)
        for _ in range(5):
            x = RingVec.of(spec, [rng.randrange(t) for _ in range(10)])
            want = [sum(a[0] * b[0] for a, b in zip(r.coords, x.coords)) % t for r in rows]
            assert [c[0] for c in pcs.syndrome(x).coords] == want


def test_syndrome_of_an_empty_word():
    spec = parse_ring("Z2xZ3")
    pcs = validate_pcs([RingVec(spec, ())] * 2, [RingVec.of(spec, [0])] * 2)
    assert pcs.syndrome(RingVec(spec, ())) == zero_vec(spec, 2)


@pytest.mark.parametrize(
    "x", [zero_vec(Z6, 3), zero_vec(Z6, 5), zero_vec(parse_ring("Z2xZ3"), 4)]
)
@pytest.mark.parametrize("query", [member, ParityCheckSystem.syndrome])
def test_foreign_vectors_are_refused_with_one_message(z6_pcs, query, x):
    with pytest.raises(ValueError) as exc:
        query(z6_pcs, x)
    assert str(exc.value) == "vector does not match the system's ambient space"


@pytest.mark.parametrize("sigma", [
    RingVec.of(parse_ring("Z7"), [5, 6]), RingVec.of(parse_ring("Z2xZ3"), [(1, 0), (0, 2)]),
    zero_vec(Z6, 1), zero_vec(Z6, 3),
])
def test_preimage_refuses_a_syndrome_of_another_ring_or_length(z6_pcs, sigma):
    with pytest.raises(ValueError) as exc:
        z6_pcs.preimage(sigma)
    assert str(exc.value) == "syndrome does not match the system's check rows"


def test_columns_are_pulled_back_through_one_cached_form(monkeypatch):
    built = []
    real = pcsmod.transpose_forms
    monkeypatch.setattr(pcsmod, "transpose_forms", lambda rows: built.append(1) or real(rows))
    rng = random.Random(515)
    for _ in range(10):
        pcs, _ = random_instance(rng, rings=["Z6", "Z3xZ4", "Z2xZ4"], space_cap=300)
        built.clear()
        pres = pcs_to_code(pcs)
        assert pres.representatives == tuple(solve_right(pcs.h_rows, c) for c in pcs.s_cols)
        assert pcs_to_code(pcs).representatives == pres.representatives
        assert set(kernel(pcs).enumerate()) == set(oracle_kernel(oracle_code_from_pcs(pcs)))
        assert built == [1]


def test_pcs_to_code_recovers_the_cosets(z6_pcs):
    pres = pcs_to_code(z6_pcs)
    assert pres.kernel.cardinality == 72
    assert pres.s == 3
    assert pres.cardinality == 216
    # each recovered representative lies in the documented coset
    for got, expected in zip(pres.representatives, Z6_REPS):
        assert pres.kernel.contains(vec_sub(got, rv(Z6, expected)))
    # and H maps representative j onto syndrome column j
    for j, d in enumerate(pres.representatives):
        assert z6_pcs.syndrome(d) == z6_pcs.s_cols[j]


def test_code_to_pcs_golden_presentation(z6_pres):
    pcs = code_to_pcs(z6_pres)
    assert pcs.s == 3
    assert pcs.kernel_module == z6_pres.kernel
    assert pcs.code_cardinality() == 216
    # same code as the hand-written system: identical word sets
    direct = build_z6_pcs()
    assert oracle_code_from_pcs(pcs).words == oracle_code_from_pcs(direct).words


def test_code_to_pcs_with_supplied_rows(z6_pres):
    # with the documented H rows the documented syndrome matrix comes back
    pcs = code_to_pcs(z6_pres, dual_gens=[rv(Z6, h) for h in Z6_H])
    assert pcs.h_rows == tuple(rv(Z6, h) for h in Z6_H)
    assert pcs.s_rows == (rv(Z6, (0, 1, 5)), rv(Z6, (0, 2, 4)))
    # supplied rows must generate exactly the dual
    with pytest.raises(ValueError):
        code_to_pcs(z6_pres, dual_gens=[rv(Z6, (1, 1, 3, 5))])


def test_code_to_pcs_trivial_dual():
    spec = parse_ring("Z4")
    full = Submodule.from_generators(
        spec, 2, [rv(spec, (1, 0)), rv(spec, (0, 1))]
    )
    pcs = code_to_pcs(CodePresentation(full, (zero_vec(spec, 2),)))
    assert pcs.m == 1
    assert pcs.h_rows[0] == zero_vec(spec, 2)
    assert pcs.code_cardinality() == 16


def test_presentation_rejects_clashing_cosets():
    kernel = Submodule.from_generators(Z6, 2, [rv(Z6, (0, 3))])
    with pytest.raises(ValueError):
        CodePresentation(kernel, (rv(Z6, (1, 0)), rv(Z6, (1, 3))))


def first_clashing_pair(kernel, reps):
    """The pairwise reference: the first (a, b), a < b, with reps in one coset."""
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            if kernel.contains(vec_sub(reps[a], reps[b])):
                return a + 1, b + 1
    return None


@pytest.mark.parametrize("ring", ["Z4", "Z6", "Z3xZ4", "Z2147483629"])
def test_presentation_names_the_first_clashing_pair(ring):
    spec = parse_ring(ring)
    rng = random.Random(len(ring) * 7919)
    clashes = 0
    for _ in range(60):
        n = rng.randint(1, 3)
        gens = [random_vec(rng, spec, n) for _ in range(rng.randint(0, 2))]
        D = Submodule.from_generators(spec, n, gens)
        reps = [random_vec(rng, spec, n) for _ in range(rng.randint(1, 6))]
        # plant duplicates: a representative moved by a random element of D
        for _ in range(rng.randint(0, 2)):
            moved = rng.choice(reps)
            for g in gens:
                moved = vec_add(moved, scale(spec.elem([rng.randrange(t) for t in spec.factors]), g))
            reps.insert(rng.randrange(len(reps) + 1), moved)
        expected = first_clashing_pair(D, reps)
        if expected is None:
            assert CodePresentation(D, tuple(reps)).s == len(reps)
            continue
        clashes += 1
        with pytest.raises(ValueError) as info:
            CodePresentation(D, tuple(reps))
        assert str(info.value) == (
            f"representatives {expected[0]} and {expected[1]} present the same coset"
        )
    assert clashes > 10


def test_round_trips_random():
    rng = random.Random(777001)
    for _ in range(40):
        pcs, pres = random_instance(rng)
        # system -> presentation -> system presents the same code
        back = code_to_pcs(pcs_to_code(pcs))
        assert back.kernel_module == pcs.kernel_module
        for x in enumerate_vectors(pcs.spec, pcs.n):
            assert member(pcs, x) == member(back, x)
        # presentation -> system -> presentation recovers the cosets in order
        pres2 = pcs_to_code(code_to_pcs(pres))
        assert pres2.kernel == pres.kernel
        for a, b in zip(pres2.representatives, pres.representatives):
            assert pres.kernel.contains(vec_sub(a, b))


def test_member_matches_scan_random():
    rng = random.Random(5)
    for _ in range(25):
        pcs, pres = random_instance(rng, space_cap=700)
        words = code_words(pres)
        for x in enumerate_vectors(pcs.spec, pcs.n):
            assert (member(pcs, x) is not None) == (x in words)


def test_kernel_golden_equals_check_kernel(z6_pcs):
    ker = kernel(z6_pcs)
    assert ker.cardinality == 72
    assert ker == z6_pcs.kernel_module


def test_kernel_of_linear_code_is_the_code_itself():
    # C = span{(1,1),(2,0)} in Z4^2 written as two cosets of a smaller module
    spec = parse_ring("Z4")
    D = Submodule.from_generators(spec, 2, [rv(spec, (2, 0)), rv(spec, (0, 2))])
    pres = CodePresentation(D, (zero_vec(spec, 2), rv(spec, (1, 1))))
    pcs = code_to_pcs(pres)
    assert is_linear(pcs)
    ker = kernel(pcs)
    assert ker.cardinality == 8
    assert set(ker.enumerate()) == code_words(pres)


def test_kernel_of_a_linear_code_is_d_and_its_representatives():
    # the code spanned by D's generators and the pcs_to_code representatives
    rng = random.Random(8086)
    for _ in range(30):
        pcs = random_linear_instance(rng, rings=PROPERTY_RINGS + OUTSIDE_RINGS, space_cap=800)
        gens = pcs.kernel_module.canonical_generators() + pcs_to_code(pcs).representatives
        assert is_linear(pcs)
        assert kernel(pcs) == Submodule.from_generators(pcs.spec, pcs.n, gens)


def test_kernel_matches_scan_random():
    rng = random.Random(1337)
    for _ in range(30):
        pcs, pres = random_instance(rng, space_cap=400)
        expected = oracle_kernel(oracle_code_from_pcs(pcs))
        assert set(kernel(pcs).enumerate()) == set(expected)


def test_is_linear_golden_and_random(z6_pcs):
    assert not is_linear(z6_pcs)
    rng = random.Random(99)
    for _ in range(30):
        pcs, pres = random_instance(rng, space_cap=400)
        assert is_linear(pcs) == oracle_is_linear(oracle_code_from_pcs(pcs))


def test_kernel_and_is_linear_match_scan_on_product_rings():
    # the factor idempotents stand in for every scalar; product rings are
    # where they differ from the single scalar 1
    rng = random.Random(4242)
    seen = {}
    for rings, max_n, cap in [(["Z6", "Z2xZ4", "Z3xZ4"], 2, 150), (["Z3xZ5xZ7"], 1, 105)]:
        for _ in range(24):
            for pcs in (
                random_instance(rng, rings=rings, max_n=max_n, space_cap=cap)[0],
                random_linear_instance(rng, rings=rings, max_n=max_n, space_cap=cap),
            ):
                code = oracle_code_from_pcs(pcs)
                if code.cardinality > 24:
                    continue  # the oracle's kernel scan grows with |C|^2 |R|
                linear = is_linear(pcs)
                assert linear == oracle_is_linear(code)
                assert set(kernel(pcs).enumerate()) == set(oracle_kernel(code))
                key = (str(pcs.spec), linear)
                seen[key] = seen.get(key, 0) + 1
    for ring in ("Z6", "Z2xZ4", "Z3xZ4", "Z3xZ5xZ7"):
        assert seen.get((ring, True)) and seen.get((ring, False)), ring


def test_kernel_and_is_linear_over_a_large_prime():
    # a scan over all 1000003 scalars would take seconds per call
    spec = parse_ring("Z1000003")
    rng = random.Random(7)
    h = [random_vec(rng, spec, 4) for _ in range(2)]
    sigma = RingVec.of(spec, [dot(row, random_vec(rng, spec, 4)) for row in h])
    zero = zero_vec(spec, 1)
    linear = validate_pcs(h, [zero, zero])
    assert is_linear(linear)
    assert kernel(linear) == linear.kernel_module
    s_rows = [RingVec(spec, ((0,), c)) for c in sigma.coords]
    nonlinear = validate_pcs(h, s_rows)
    assert not is_linear(nonlinear)
    assert kernel(nonlinear) == nonlinear.kernel_module


def test_is_linear_needs_no_column_pairs():
    # 4000^2 and 10201^2 column pairs are both above DEFAULT_BUDGET
    spec = parse_ring("Z101")
    h = [rv(spec, (1, 0)), rv(spec, (0, 1))]
    cols = [(a, b) for a in range(101) for b in range(101)]

    def system(cols):
        return validate_pcs(h, [RingVec.of(spec, [c[i] for c in cols]) for i in range(2)])

    assert is_linear(system(cols))
    assert not is_linear(system(cols[:4000]))


def test_kernel_of_a_linear_code_needs_no_column_pairs():
    # the kernel of a linear code is the code: its syndromes are all of
    # col(S), pulled back through generators, not through 10201^2 pairs
    spec = parse_ring("Z101")
    h = [rv(spec, (1, 0, 0)), rv(spec, (0, 1, 0))]
    whole = [(a, b) for a in range(101) for b in range(101)]
    line = [(a, 3 * a % 101) for a in range(101)]
    for cols in (whole, line):
        pcs = validate_pcs(h, [RingVec.of(spec, [c[i] for c in cols]) for i in range(2)])
        ker = kernel(pcs)
        assert ker.cardinality == pcs.code_cardinality() == 101 * len(cols)
        assert ker.contains(rv(spec, (cols[1][0], cols[1][1], 7)))
        assert all(member(pcs, g) for g in ker.canonical_generators())
        # col(S), the kernel syndromes, is the span of the s columns too
        assert Submodule.from_generators(spec, 2, pcs.s_cols) == (
            submodules.left_kernel(spec, pcs.s_span.forms).annihilator())


def test_validate_agrees_with_exhaustive_checks():
    rng = random.Random(246810)
    checked = 0
    for _ in range(40):
        pcs, _ = random_instance(rng, space_cap=300, max_n=3)
        h_rows, s_rows = list(pcs.h_rows), list(pcs.s_rows)
        roll = rng.random()
        if roll < 0.4:
            # duplicate an existing column
            j = rng.randrange(pcs.s)
            s_rows = [
                RingVec.of(pcs.spec, list(r) + [r[j]]) for r in s_rows
            ]
        elif roll < 0.8:
            # bump one entry of S by a random nonzero element
            i = rng.randrange(pcs.m)
            j = rng.randrange(pcs.s)
            bump = random_vec(rng, pcs.spec, 1)[0]
            row = list(s_rows[i])
            row[j] = row[j] + bump
            s_rows[i] = RingVec.of(pcs.spec, row)
        try:
            validate_pcs(h_rows, s_rows)
            got = None
        except ConditionIViolation as exc:
            got = (1, (exc.row, exc.col))
        except ConditionIIViolation as exc:
            got = (2, (exc.col_a, exc.col_b))
        except ConditionIIIViolation:
            got = (3, None)
        expected = oracle_validate(h_rows, s_rows)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert got[0] == expected[0]
            if got[0] in (1, 2) and got[1] is not None:
                assert got[1] == expected[1]
        checked += 1
    assert checked == 40


def test_trivial_check_matrix_accepts_everything():
    spec = parse_ring("Z4")
    h_rows = [zero_vec(spec, 2), zero_vec(spec, 2)]
    s_rows = [rv(spec, (0,)), rv(spec, (0,))]
    pcs = validate_pcs(h_rows, s_rows)
    assert pcs.code_cardinality() == 16
    for x in enumerate_vectors(spec, 2):
        assert member(pcs, x) == 1


def test_repr_smoke(z6_pcs):
    assert "Z6" in repr(z6_pcs)
    assert "216" in repr(pcs_to_code(z6_pcs))


@pytest.mark.parametrize(
    "ring", ["Z2147483629", "Z65521xZ65519", "Z2xZ2147483629", "Z1009xZ997", "Z27xZ4"])
@pytest.mark.parametrize("n", [1, 64])
@pytest.mark.parametrize("m", [1, 6])
def test_syndromes_are_exact_at_the_packed_field_width(ring, n, m):
    """Every residue of H and x at t - 1 makes each syndrome entry before
    reduction n (t - 1)^2, the largest a packed field must hold; then a
    seeded random H, its codewords and off-code words are checked against
    plain-int H x^T.  The product rings have L much larger than t_f."""
    spec = parse_ring(ring)
    top = tuple(t - 1 for t in spec.factors)
    x = rv(spec, [top] * n)
    h_rows = [x] * m
    # plain-int H x^T, one entry per row and factor
    sigma = tuple(sum(a * b for a, b in zip(x.component(f), x.component(f))) % t
                  for f, t in enumerate(spec.factors))
    values = list(dict.fromkeys([(0,) * spec.nfactors, top, sigma]))
    system = ParityCheckSystem(h_rows, [rv(spec, values)] * m)
    assert system.syndrome(x) == rv(spec, [sigma] * m)
    assert member(system, x) == values.index(sigma) + 1
    assert pcsmod.syndrome_filter(system, [rv(spec, [sigma] * m)])(x)
    assert not pcsmod.syndrome_filter(system, [rv(spec, [(0,) * spec.nfactors] * m)])(x)

    rng = random.Random(f"{ring} {n} {m}")
    h_rows = [random_vec(rng, spec, n) for _ in range(m)]

    def plain(x):
        return tuple(tuple(sum(a * b for a, b in zip(h.component(f), x.component(f))) % t
                           for f, t in enumerate(spec.factors)) for h in h_rows)

    reps = [random_vec(rng, spec, n) for _ in range(4)]
    cols = list(dict.fromkeys(map(plain, reps)))
    system = ParityCheckSystem(h_rows, [rv(spec, [c[i] for c in cols]) for i in range(m)])
    some = pcsmod.syndrome_filter(system, [rv(spec, c) for c in cols[::2]])
    for x in reps + [random_vec(rng, spec, n) for _ in range(12)]:
        sigma = plain(x)
        assert system.syndrome(x).coords == sigma
        assert member(system, x) == (cols.index(sigma) + 1 if sigma in cols else None)
        assert some(x) == (sigma in cols[::2])


@pytest.mark.parametrize("target", ["foreign ring", "length m - 1", "length m + 1"])
def test_syndrome_filter_refuses_a_target_outside_the_syndrome_space(z6_pcs, target):
    other = parse_ring("Z4") if target == "foreign ring" else z6_pcs.spec
    length = {"length m - 1": z6_pcs.m - 1, "length m + 1": z6_pcs.m + 1}.get(target, z6_pcs.m)
    with pytest.raises(ValueError, match="syndrome does not match the system's check rows"):
        pcsmod.syndrome_filter(z6_pcs, [zero_vec(other, length)])


@pytest.mark.parametrize("ring", ["Z2xZ3", "Z3xZ4", "Z2xZ4"])
def test_syndromes_and_keys_share_the_flat_order(ring):
    """H x^T entry i*k + f is row i, factor f, in syndrome, in the packed
    key of x and of its syndrome, and in member and syndrome_filter alike."""
    spec = parse_ring(ring)
    rng = random.Random(ring)
    for m in (2, 3):
        h_rows = [random_vec(rng, spec, 2) for _ in range(m)]
        syndromes = {
            RingVec.of(spec, [dot(h, x) for h in h_rows]): None
            for x in (random_vec(rng, spec, 2) for _ in range(5))
        }
        cols = list(syndromes)
        pcs = validate_pcs(h_rows, [RingVec.of(spec, [c[i] for c in cols]) for i in range(m)])
        assert pcs.s_cols == tuple(cols)
        some = pcsmod.syndrome_filter(pcs, cols[::2])
        for x in enumerate_vectors(spec, 2):
            sigma = pcs.syndrome(x)
            assert sigma == RingVec.of(spec, [dot(h, x) for h in h_rows])
            assert pcs._key(x) == pcs._sigma_key(sigma)
            assert member(pcs, x) == (cols.index(sigma) + 1 if sigma in cols else None)
            assert some(x) == (sigma in cols[::2])
