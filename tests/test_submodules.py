"""Submodule canonicalization, duality, syzygies and linear solving."""

import random
from itertools import product

import pytest

from ringcodes import (
    BudgetExceeded,
    ParityCheckSystem,
    RingVec,
    Submodule,
    dot,
    enumerate_vectors,
    oracle_annihilator,
    parse_ring,
    scale,
    solve_right,
    syzygies,
    vec_add,
    zero_vec,
)
from ringcodes import howell
from ringcodes.howell import solve_rowspan
from ringcodes.submodules import solve_forms
from conftest import Z6, Z6_D_GENS, Z6_H, random_vec, rv


def z6_kernel() -> Submodule:
    return Submodule.from_generators(Z6, 4, [rv(Z6, g) for g in Z6_D_GENS])


def test_kernel_module_cardinality_and_membership():
    D = z6_kernel()
    assert D.cardinality == 72
    for g in Z6_D_GENS:
        assert D.contains(rv(Z6, g))
    assert not D.contains(rv(Z6, (5, 2, 0, 0)))
    assert D.contains(zero_vec(Z6, 4))


def test_annihilator_golden():
    D = z6_kernel()
    dual = D.annihilator()
    assert dual.cardinality == 18
    assert dual == Submodule.from_generators(Z6, 4, [rv(Z6, h) for h in Z6_H])
    assert D.cardinality * dual.cardinality == 6**4


def test_double_annihilator_is_identity():
    rng = random.Random(40991)
    for _ in range(40):
        spec = parse_ring(rng.choice(["Z2", "Z4", "Z6", "Z2xZ3", "Z8", "Z9"]))
        n = rng.randint(1, 4)
        gens = [random_vec(rng, spec, n) for _ in range(rng.randint(0, 3))]
        D = Submodule.from_generators(spec, n, gens)
        dual = D.annihilator()
        assert D.cardinality * dual.cardinality == spec.cardinality**n
        assert dual.annihilator() == D


def test_annihilator_matches_exhaustive_scan():
    rng = random.Random(22871)
    for _ in range(25):
        spec = parse_ring(rng.choice(["Z2", "Z4", "Z6", "Z2xZ2"]))
        n = rng.randint(1, 3)
        gens = [random_vec(rng, spec, n) for _ in range(rng.randint(0, 2))]
        D = Submodule.from_generators(spec, n, gens)
        expected = oracle_annihilator(spec, n, gens)
        assert set(D.annihilator().enumerate()) == set(expected)


def test_canonical_form_is_generator_independent():
    rng = random.Random(3344)
    for _ in range(40):
        spec = parse_ring(rng.choice(["Z4", "Z6", "Z2xZ3", "Z9"]))
        n = rng.randint(1, 4)
        gens = [random_vec(rng, spec, n) for _ in range(rng.randint(1, 3))]
        D = Submodule.from_generators(spec, n, gens)
        # shuffled generators plus a random combination present the same module
        gens2 = list(gens)
        rng.shuffle(gens2)
        combo = zero_vec(spec, n)
        for g in gens2:
            combo = vec_add(combo, scale(spec.elem(rng.randrange(99)), g))
        gens2.insert(rng.randrange(len(gens2) + 1), combo)
        D2 = Submodule.from_generators(spec, n, gens2)
        assert D == D2
        assert hash(D) == hash(D2)
        assert D.cardinality == D2.cardinality
    assert Submodule.from_generators(Z6, 2, ()) != Submodule.from_generators(
        Z6, 2, (rv(Z6, (0, 3)),)
    )


def test_canonical_generators_regenerate_the_module():
    rng = random.Random(909)
    for _ in range(30):
        spec = parse_ring(rng.choice(["Z2", "Z6", "Z2xZ3", "Z8"]))
        n = rng.randint(1, 4)
        gens = [random_vec(rng, spec, n) for _ in range(rng.randint(0, 3))]
        D = Submodule.from_generators(spec, n, gens)
        again = Submodule.from_generators(spec, n, D.canonical_generators())
        assert again == D


def test_enumerate_is_exact_and_budgeted(monkeypatch):
    D = z6_kernel()
    elems = list(D.enumerate())
    assert len(elems) == 72
    assert len(set(elems)) == 72
    assert all(D.contains(v) for v in elems)
    monkeypatch.setattr("ringcodes.rings.DEFAULT_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        list(D.enumerate())


def test_enumerate_order_is_independent_of_the_block(monkeypatch):
    # factors in odometer order, the last fastest; within a factor the
    # Howell row coefficients in itertools.product order
    rng = random.Random(2718)
    for _ in range(20):
        spec = parse_ring(rng.choice(["Z6", "Z12", "Z2xZ3", "Z3xZ4", "Z2xZ2xZ3"]))
        n = rng.randint(1, 3)
        D = Submodule.from_generators(
            spec, n, [random_vec(rng, spec, n) for _ in range(rng.randint(0, 3))]
        )
        per_factor = []
        for hf in D.forms:
            t = hf.modulus
            span = []
            for combo in product(*(range(t // p) for p in hf.pivots)):
                acc = [0] * n
                for c, row in zip(combo, hf.rows):
                    acc = [(a + c * int(r)) % t for a, r in zip(acc, row)]
                span.append(tuple(acc))
            per_factor.append(span)
        want = [tuple(zip(*combo)) for combo in product(*per_factor)]
        for block in (1, 2, 5, 4096):
            monkeypatch.setattr(howell, "_BLOCK", block)
            assert [v.coords for v in D.enumerate()] == want
            assert [
                tuple(map(int, v)) for v in D.forms[-1].enumerate_span()
            ] == per_factor[-1]


@pytest.mark.parametrize("moduli", [(2147483647,) * 3, (3, 2147483647) * 2, (2147483647, 2, 5)])
def test_span_walk_at_the_field_edge(monkeypatch, moduli):
    """Rows of entries t - 1 at t = 2^31 - 1, the widest field, alone and
    beside narrower moduli: field sums reach 2t - 2 and wrap, and every
    point, in count order, is its coefficients times the rows mod t.  Over
    a prime t each nonzero entry has additive order t, so the radices here
    are small walk lengths, not orders."""
    rng = random.Random(sum(moduli))
    rows = [([t - 1 for t in moduli], 3)]
    for _ in range(3):
        fields = [t - 1 if rng.random() < 0.6 else rng.randrange(t) for t in moduli]
        rows.append((fields, rng.randint(2, 4)))
    want = [
        tuple(sum(c * f[j] for c, (f, _) in zip(cs, rows)) % t for j, t in enumerate(moduli))
        for cs in product(*(range(r) for _, r in rows))
    ]
    B = howell.field_bits(moduli)
    assert B == 32
    for block in (1, 5, 4096):
        monkeypatch.setattr(howell, "_BLOCK", block)
        blocks = list(howell.span_walk(rows, moduli))
        assert max(map(len, blocks)) <= block
        got = [tuple(p >> B * j & (1 << B) - 1 for j in range(len(moduli)))
               for b in blocks for p in b]
        assert got == want


def test_trivial_and_full_modules():
    spec = parse_ring("Z6")
    trivial = Submodule.from_generators(spec, 3, ())
    assert trivial.cardinality == 1
    assert list(trivial.enumerate()) == [zero_vec(spec, 3)]
    assert list(Submodule.from_generators(spec, 0, ()).enumerate()) == [zero_vec(spec, 0)]
    full = Submodule.from_generators(
        spec, 2, [rv(spec, (1, 0)), rv(spec, (0, 1))]
    )
    assert full.cardinality == 36
    assert full.annihilator().cardinality == 1


def test_product_ring_modules_split_by_factor():
    spec = parse_ring("Z2xZ3")
    D = Submodule.from_generators(spec, 2, [RingVec.of(spec, [(1, 0), (0, 0)])])
    # factor Z2 contributes span{(1,0)}, factor Z3 is trivial
    assert D.cardinality == 2
    assert D.contains(RingVec.of(spec, [(1, 0), (0, 0)]))
    assert not D.contains(RingVec.of(spec, [(1, 1), (0, 0)]))
    dual = D.annihilator()
    assert dual.cardinality == 18  # all of Z3^2 times the Z2 span of (0,1),(1,0)->...
    assert D.cardinality * dual.cardinality == 36


def test_syzygies_golden():
    rows = [rv(Z6, h) for h in Z6_H]
    syz = syzygies(Z6, rows)
    assert syz.cardinality == 2
    assert syz.contains(rv(Z6, (0, 3)))
    for r in syz.enumerate():
        combo = zero_vec(Z6, 4)
        for i, row in enumerate(rows):
            combo = vec_add(combo, scale(r[i], row))
        assert combo == zero_vec(Z6, 4)


def test_syzygies_match_exhaustive_scan():
    rng = random.Random(615243)
    for _ in range(30):
        spec = parse_ring(rng.choice(["Z2", "Z4", "Z6", "Z2xZ2", "Z2xZ3"]))
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        rows = [random_vec(rng, spec, n) for _ in range(m)]
        syz = syzygies(spec, rows)
        expected = set()
        for r in enumerate_vectors(spec, m):
            combo = zero_vec(spec, n)
            for i, row in enumerate(rows):
                combo = vec_add(combo, scale(r[i], row))
            if combo == zero_vec(spec, n):
                expected.add(r)
        assert set(syz.enumerate()) == expected


def test_solve_right_golden():
    rows = [rv(Z6, h) for h in Z6_H]
    assert solve_right(rows, rv(Z6, (1, 1))) is None
    x = solve_right(rows, rv(Z6, (1, 2)))
    assert x is not None
    assert RingVec.of(Z6, [dot(h, x) for h in rows]) == rv(Z6, (1, 2))


def test_solve_right_and_left_random():
    rng = random.Random(86420)
    for _ in range(60):
        spec = parse_ring(rng.choice(["Z2", "Z4", "Z6", "Z2xZ3", "Z9"]))
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        rows = [random_vec(rng, spec, n) for _ in range(m)]
        # a solvable right-hand side comes from an actual solution
        x0 = random_vec(rng, spec, n)
        b = RingVec.of(spec, [dot(r, x0) for r in rows])
        x = solve_right(rows, b)
        assert x is not None
        assert RingVec.of(spec, [dot(r, x) for r in rows]) == b
        # a combination of the rows is always expressible
        target = zero_vec(spec, n)
        cs = [random_vec(rng, spec, 1)[0] for _ in range(m)]
        for c, row in zip(cs, rows):
            target = vec_add(target, scale(c, row))
        r = solve_forms(spec, Submodule.from_generators(spec, n, rows).forms, target)
        assert r is not None
        rebuilt = zero_vec(spec, n)
        for i, row in enumerate(rows):
            rebuilt = vec_add(rebuilt, scale(r[i], row))
        assert rebuilt == target


def test_solve_exact_over_a_large_modulus():
    # products of residues below 2^31 fit in int64, sums of ten of them do not
    spec = parse_ring("Z2147483629")
    t = spec.factors[0]
    rng, s_rng = random.Random(2024), random.Random(2025)
    for _ in range(10):
        rows = [random_vec(rng, spec, 10) for _ in range(6)]
        b = RingVec.of(spec, [dot(r, random_vec(rng, spec, 10)) for r in rows])
        x = solve_right(rows, b)
        assert x is not None
        assert [dot(r, x) for r in rows] == list(b)
        coeffs = [rng.randrange(t) for _ in range(6)]
        target = RingVec.of(
            spec, [sum(c * r.coords[j][0] for c, r in zip(coeffs, rows)) for j in range(10)]
        )
        r = solve_forms(spec, Submodule.from_generators(spec, 10, rows).forms, target)
        assert r is not None
        combo = [sum(r.coords[i][0] * rows[i].coords[j][0] for i in range(6)) % t
                 for j in range(10)]
        assert combo == [c[0] for c in target.coords]
        # the same reduction through the cached forms of [H | S]
        s_rows = [random_vec(s_rng, spec, 2) for _ in range(6)]
        checks = ParityCheckSystem(rows, s_rows)
        assert [c[0] for c in checks.s_row(target).coords] == [
            sum(c * s.coords[j][0] for c, s in zip(coeffs, s_rows)) % t for j in range(2)
        ]
        mat = [[c[0] for c in r.coords] for r in rows]
        y = solve_rowspan(mat, [c[0] for c in target.coords], t)
        assert [sum(int(y[i]) * mat[i][j] for i in range(6)) % t for j in range(10)] == [
            c[0] for c in target.coords
        ]


def test_solve_left_rejects_outside_targets():
    spec = parse_ring("Z4")
    rows = [rv(spec, (2, 0)), rv(spec, (0, 2))]
    forms = Submodule.from_generators(spec, 2, rows).forms
    assert solve_forms(spec, forms, rv(spec, (1, 0))) is None
    assert solve_forms(spec, forms, rv(spec, (2, 2))) is not None


def test_solve_argument_errors():
    with pytest.raises(ValueError):
        solve_right([], zero_vec(Z6, 2))
    rows = [rv(Z6, h) for h in Z6_H]
    with pytest.raises(ValueError):
        solve_right(rows, zero_vec(Z6, 3))
    # a target or a row from another ring, even of the right length
    z7 = parse_ring("Z7")
    with pytest.raises(ValueError):
        solve_right(rows, rv(parse_ring("Z2xZ3"), [(1, 0), (0, 1)]))
    with pytest.raises(ValueError):
        solve_right([rv(Z6, (1, 0)), rv(z7, (0, 1))], rv(Z6, (1, 5)))


def test_from_generators_rejects_mismatches():
    with pytest.raises(ValueError):
        Submodule.from_generators(Z6, 3, [rv(Z6, (1, 2))])
    with pytest.raises(ValueError):
        Submodule.from_generators(Z6, 2, [rv(parse_ring("Z4"), (1, 2))])


def test_repr_mentions_cardinality():
    assert "72" in repr(z6_kernel())


def test_product_ring_membership_and_solves_in_plain_integers():
    spec = parse_ring("Z2147483629xZ12")
    rng = random.Random(31)
    for _ in range(15):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        rows = [random_vec(rng, spec, n) for _ in range(m)]
        module = Submodule.from_generators(spec, n, rows)
        coeffs = [random_vec(rng, spec, 1).coords[0] for _ in rows]
        inside = RingVec(spec, tuple(
            tuple(sum(c[f] * r.coords[j][f] for c, r in zip(coeffs, rows)) % t
                  for f, t in enumerate(spec.factors))
            for j in range(n)
        ))
        assert module.contains(inside)
        r = solve_forms(spec, module.forms, inside)
        assert r is not None
        assert all(
            sum(r.coords[i][f] * rows[i].coords[j][f] for i in range(m)) % t
            == inside.coords[j][f]
            for j in range(n) for f, t in enumerate(spec.factors)
        )
        y = random_vec(rng, spec, n)
        b = RingVec.of(spec, [dot(row, y) for row in rows])
        x = solve_right(rows, b)
        assert x is not None
        assert all(
            sum(a[f] * c[f] for a, c in zip(row.coords, x.coords)) % t == b.coords[i][f]
            for i, row in enumerate(rows) for f, t in enumerate(spec.factors)
        )
    # a zero divisor in the Z12 factor generates a proper ideal there
    half = Submodule.from_generators(spec, 1, [rv(spec, [(1, 2)])])
    assert not half.contains(rv(spec, [(0, 1)]))
    assert half.contains(rv(spec, [(5, 4)]))


def test_the_span_of_many_generators_builds_no_transform_until_read(monkeypatch):
    # all 10201 vectors of Z101^2: one rows-only loop over rows of width 2;
    # [W | T] would hold 10201 * (2 + 10201) entries
    z101 = parse_ring("Z101")
    gens = [rv(z101, (a, b)) for a in range(101) for b in range(101)]
    widths = []
    eliminate = howell._eliminate

    def recording(rows, ncols, t):
        widths.append({len(row) for row in rows})
        return eliminate(rows, ncols, t)

    monkeypatch.setattr(howell, "_eliminate", recording)
    span = Submodule.from_generators(z101, 2, gens)
    assert widths == [{2}]
    (hf,) = span.forms
    assert hf._transform is None and hf._kernel is None and len(hf._source) == 10201
    # span questions read the rows alone
    assert span.cardinality == 101**2 and span.contains(rv(z101, (5, 7)))
    assert span == Submodule.from_generators(z101, 2, [rv(z101, (1, 0)), rv(z101, (0, 1))])
    assert span.canonical_generators() == (rv(z101, (1, 0)), rv(z101, (0, 1)))
    assert len(widths) == 2 and hf._transform is None
    # the first read of the transform builds it, through the gate
    with pytest.raises(BudgetExceeded) as exc:
        hf.kernel_rows
    assert (exc.value.what, exc.value.needed) == ("howell transform", 10201 * 10203)
