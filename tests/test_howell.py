"""Howell form engine checked against exhaustive scans over small moduli."""

import math
import random
from itertools import product

import pytest

from ringcodes.howell import (
    _flat_steps,
    _reduce,
    annihilator_generator,
    ext_gcd,
    howell_form,
    howell_rows,
    solve_rowspan,
    split_gcd,
    stab_unit,
)

MODULI = [2, 3, 4, 5, 6, 8, 9, 12]


def brute_span(rows, n, t):
    """All coefficient combinations of the rows over Z_t, as a set of tuples."""
    out = set()
    rows = [tuple(int(v) % t for v in r) for r in rows]
    for combo in product(range(t), repeat=len(rows)):
        out.add(
            tuple(sum(c * r[i] for c, r in zip(combo, rows)) % t for i in range(n))
        )
    return out


def brute_left_kernel(rows, n, t):
    out = set()
    for combo in product(range(t), repeat=len(rows)):
        if all(
            sum(c * r[i] for c, r in zip(combo, rows)) % t == 0 for i in range(n)
        ):
            out.add(combo)
    return out


def test_ext_gcd_exhaustive_small():
    for a in range(-12, 13):
        for b in range(-12, 13):
            g, s, t = ext_gcd(a, b)
            assert g == math.gcd(a, b)
            assert s * a + t * b == g


def test_stab_unit_is_a_gcd_stabilizing_unit():
    for t in range(2, 37):
        for x in range(t):
            u = stab_unit(x, t)
            assert math.gcd(u, t) == 1
            assert (u * x) % t == math.gcd(x, t) % t


def test_split_gcd_determinant_one():
    for t in [2, 4, 6, 9, 12]:
        for a in range(t):
            for b in range(t):
                if a == 0 and b == 0:
                    continue
                g, s, tt, u, v = split_gcd(a, b, t)
                assert g == math.gcd(a, b)
                assert (s * a + tt * b) % t == g % t
                assert (u * a + v * b) % t == 0
                assert (s * v - tt * u) % t == 1 % t


def test_annihilator_generator_generates_the_annihilator():
    for t in [2, 4, 6, 9, 12]:
        for b in range(t):
            a = annihilator_generator(b, t)
            killed = {c for c in range(t) if (c * b) % t == 0}
            assert killed == {(a * k) % t for k in range(t)}


def test_howell_empty_and_zero_matrices():
    hf = howell_rows([], 3, 6)
    assert (len(hf.rows), hf.ncols) == (0, 3)
    assert hf.span_cardinality() == 1
    assert hf.contains([0, 0, 0])
    assert not hf.contains([1, 0, 0])
    hf0 = howell_form([[0, 0], [0, 0]], 4)
    assert (len(hf0.rows), hf0.ncols) == (0, 2)
    assert brute_span(hf0.kernel_rows, 2, 4) == brute_left_kernel([[0, 0], [0, 0]], 2, 4)


def test_howell_single_zero_divisor_row():
    hf = howell_form([[2, 1]], 4)
    assert hf.rows == ((2, 1), (0, 2))
    assert hf.pivots == (2, 2)
    assert hf.span_cardinality() == 4
    assert {tuple(map(int, v)) for v in hf.enumerate_span()} == {
        (0, 0), (2, 1), (0, 2), (2, 3),
    }


def test_howell_rejects_bad_input():
    with pytest.raises(ValueError):
        howell_form([[1, 2]], 1)
    with pytest.raises(ValueError):
        howell_form([1, 2, 3], 6)


def _check_form(rows, n, t):
    src = [[a % t for a in row] for row in rows]
    hf = howell_form(src, t)
    # shape discipline
    assert hf.modulus == t and hf.ncols == n and hf.source_rows == len(rows)
    assert list(hf.pivot_cols) == sorted(set(hf.pivot_cols))
    for p in hf.pivots:
        assert t % p == 0
    # transform rebuilds the canonical matrix from the source rows
    if hf.rows:
        assert matmul_mod(hf.transform_rows, src, t) == [list(r) for r in hf.rows]
    # span is preserved exactly and the cardinality formula matches
    span = brute_span(rows, n, t)
    enumerated = [tuple(map(int, v)) for v in hf.enumerate_span()]
    assert len(enumerated) == len(set(enumerated))
    assert set(enumerated) == span
    assert hf.span_cardinality() == len(span)
    # express solves membership inside the span and rejects everything else
    for v in list(span)[:50]:
        coeffs = hf.express(list(v))
        assert coeffs is not None
        if hf.rows:
            assert combine(coeffs, hf.rows, t, n) == v
    rng = random.Random(hash((t, n, len(rows))) & 0xFFFF)
    for _ in range(20):
        v = tuple(rng.randrange(t) for _ in range(n))
        assert hf.contains(v) == (v in span)
    # kernel rows generate exactly the left kernel of the source
    assert brute_span(hf.kernel_rows, len(rows), t) == brute_left_kernel(rows, n, t)


def test_howell_properties_random():
    rng = random.Random(98217)
    for t in MODULI:
        for _ in range(18):
            m = rng.randint(1, 3)
            n = rng.randint(1, 4)
            rows = [[rng.randrange(t) for _ in range(n)] for _ in range(m)]
            _check_form(rows, n, t)


def test_howell_canonical_under_regeneration():
    rng = random.Random(5150)
    for t in MODULI:
        for _ in range(12):
            m = rng.randint(1, 3)
            n = rng.randint(1, 3)
            rows = [[rng.randrange(t) for _ in range(n)] for _ in range(m)]
            hf = howell_form(rows, t)
            # shuffle and add redundant combinations of the generators
            rows2 = [list(r) for r in rows]
            rng.shuffle(rows2)
            for _ in range(rng.randint(1, 2)):
                cs = [rng.randrange(t) for _ in rows2]
                combo = [
                    sum(c * r[i] for c, r in zip(cs, rows2)) % t for i in range(n)
                ]
                rows2.insert(rng.randrange(len(rows2) + 1), combo)
            hf2 = howell_form(rows2, t)
            assert hf.rows == hf2.rows
            assert hf.pivot_cols == hf2.pivot_cols


def test_solve_rowspan_golden_and_random():
    assert solve_rowspan([[2, 0], [0, 3]], [1, 0], 6) is None
    x = solve_rowspan([[2, 0], [0, 3]], [2, 3], 6)
    assert x is not None
    assert combine(x, [[2, 0], [0, 3]], 6, 2) == (2, 3)

    rng = random.Random(771)
    for t in MODULI:
        for _ in range(10):
            m = rng.randint(1, 3)
            n = rng.randint(1, 3)
            mat = [[rng.randrange(t) for _ in range(n)] for _ in range(m)]
            span = brute_span(mat, n, t)
            inside = rng.choice(sorted(span))
            x = solve_rowspan(mat, list(inside), t)
            assert x is not None
            assert combine(x, mat, t, n) == inside
            outside = tuple(rng.randrange(t) for _ in range(n))
            if outside not in span:
                assert solve_rowspan(mat, list(outside), t) is None


def test_solve_rowspan_all_zero_rows():
    assert solve_rowspan([[0, 0, 0], [0, 0, 0]], [0, 0, 0], 6) is not None
    assert solve_rowspan([[0, 0, 0], [0, 0, 0]], [1, 0, 0], 6) is None


def plain_greedy(hf, v):
    """The greedy pivot reduction written out on Python integer lists."""
    t = hf.modulus
    rows = [[int(a) for a in row] for row in hf.rows]
    v = [int(a) % t for a in v]
    coeffs = []
    for row, col in zip(rows, hf.pivot_cols):
        q, r = divmod(v[col], row[col])
        if r:
            return None
        v = [(a - q * b) % t for a, b in zip(v, row)]
        coeffs.append(q)
    return tuple(coeffs), tuple(v)


def combine(coeffs, rows, t, n):
    """sum_i coeffs_i * rows_i mod t over n columns, in Python integers."""
    return tuple(
        sum(int(c) * int(r[j]) for c, r in zip(coeffs, rows)) % t for j in range(n)
    )


@pytest.mark.parametrize("t", [2147483629, 8, 12])
def test_integer_reduction_matches_a_plain_int_reference(t):
    rng = random.Random(t % 10007)
    for _ in range(25):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[rng.randrange(t) for _ in range(n)] for _ in range(m)]
        hf = howell_form(rows, t)
        span = brute_span(rows, n, t) if t < 100 else None
        inside = combine([rng.randrange(t) for _ in rows], rows, t, n)
        others = [tuple(rng.randrange(t) for _ in range(n)) for _ in range(4)]
        for v in [inside] + others:
            # unreduced input reduces like its residues, to Python ints
            for given in (v, [a - 3 * t for a in v]):
                got = hf.divide(given)
                want = plain_greedy(hf, v)
                if want is not None:
                    assert got == want
                else:
                    assert any(got[1][c] for c in hf.pivot_cols)
                assert all(type(a) is int for a in got[0] + got[1])
            coeffs = hf.express(v)
            reduced = plain_greedy(hf, v)
            if reduced is not None and not any(reduced[1]):
                assert coeffs == reduced[0]
                assert combine(coeffs, hf.rows, t, n) == v
            else:
                assert coeffs is None
            assert hf.contains(v) == (coeffs is not None)
            if span is not None:
                assert hf.contains(v) == (v in span)
            x = hf.solve(v)
            assert (x is None) == (coeffs is None)
            if x is not None:
                assert len(x) == m and combine(x, rows, t, n) == v
        assert hf.contains(inside)
    with pytest.raises(ValueError):
        hf.divide([0] * (n + 1))


def matmul_mod(a, b, t):
    """a @ b mod t for lists of integer rows, in Python integers."""
    return [
        [sum(x * y for x, y in zip(row, col)) % t for col in zip(*b)] for row in a
    ]


@pytest.mark.parametrize("t", [2147483629, 2**31, 2**31 - 2])
def test_integer_forms_at_the_edge_of_the_range(t):
    """Products of two residues near 2^31 exceed int64 sums; ints stay exact."""
    rng = random.Random(t % 9973)
    divisors = [d for d in (2, 4, 8, 3, 6, 7, 2**16, 2**30) if t % d == 0]
    zero_divisor_pivots = 0
    for _ in range(30):
        m, n = rng.randint(1, 7), rng.randint(1, 12)
        # multiples of divisors of t make zero-divisor pivots appear
        rows = [
            [rng.choice(divisors + [1]) * rng.randrange(t) % t for _ in range(n)]
            for _ in range(m)
        ]
        hf = howell_form(rows, t)
        assert all(type(a) is int for row in hf.rows + hf.kernel_rows for a in row)
        zero_divisor_pivots += sum(p != 1 for p in hf.pivots)
        for p in hf.pivots:
            assert t % p == 0
        if hf.rows:
            assert matmul_mod(hf.transform_rows, rows, t) == [list(r) for r in hf.rows]
        if hf.kernel_rows:
            assert not any(map(any, matmul_mod(hf.kernel_rows, rows, t)))
        kernel_form = howell_rows(hf.kernel_rows, m, t)
        assert hf.span_cardinality() * kernel_form.span_cardinality() == t**m
        # a shuffled generating set with redundant combinations spans the same
        rows2 = [list(r) for r in rows]
        rng.shuffle(rows2)
        for _ in range(rng.randint(1, 3)):
            cs = [rng.randrange(t) for _ in rows2]
            rows2.insert(
                rng.randrange(len(rows2) + 1),
                [sum(c * r[i] for c, r in zip(cs, rows2)) % t for i in range(n)],
            )
        hf2 = howell_form(rows2, t)
        assert hf2.rows == hf.rows and hf2.pivot_cols == hf.pivot_cols
    if t != 2147483629:  # a prime modulus has no zero divisors
        assert zero_divisor_pivots > 0


def test_divide_leaves_one_remainder_per_coset():
    rng = random.Random(4242)
    for t in [4, 6, 8, 12, 2147483629, 2**31 - 2]:
        for _ in range(15):
            m, n = rng.randint(1, 4), rng.randint(1, 5)
            rows = [[rng.randrange(t) for _ in range(n)] for _ in range(m)]
            hf = howell_form(rows, t)
            v = [rng.randrange(t) for _ in range(n)]
            coeffs, rest = hf.divide(v)
            assert all(type(a) is int for a in coeffs + rest)
            assert combine(coeffs, hf.rows, t, n) == tuple(
                (a - b) % t for a, b in zip(v, rest)
            )
            for p, c in zip(hf.pivots, hf.pivot_cols):
                assert 0 <= rest[c] < p
            # every member of the coset v + span leaves the same remainder
            shift = combine([rng.randrange(t) for _ in rows], rows, t, n)
            assert hf.divide([a + b for a, b in zip(v, shift)])[1] == rest
            w = [rng.randrange(t) for _ in range(n)]
            assert (hf.divide(w)[1] == rest) == hf.contains([a - b for a, b in zip(v, w)])


def test_flat_steps_divide_every_factor_at_once():
    """_reduce over _flat_steps of one form per factor, on interleaved residues
    (entry i of factor f at i*k + f), is each factor's divide: the quotients
    factor after factor, the rests interleaved before reduction mod t."""
    rng = random.Random(3131)
    non_unit = 0
    for moduli in [(4,), (8,), (2, 4), (3, 4), (6, 9, 8), (2147483629,), (65521, 65519)]:
        k = len(moduli)
        for _ in range(12):
            m, n = rng.randint(1, 4), rng.randint(1, 5)
            forms = [howell_form([[rng.randrange(t) for _ in range(n)] for _ in range(m)], t)
                     for t in moduli]
            non_unit += sum(p != 1 for hf in forms for p in hf.pivots)
            comps = [[rng.randrange(t) for _ in range(n)] for t in moduli]
            for f, hf in enumerate(forms):
                if rng.random() < 0.5:  # a span element, so its rest is zero
                    comps[f] = list(combine([rng.randrange(t) for t in hf.pivots], hf.rows,
                                            hf.modulus, n))
            v = [comps[f][i] for i in range(n) for f in range(k)]
            qs = _reduce(_flat_steps(forms), v)
            want = [hf.divide(c) for hf, c in zip(forms, comps)]
            assert qs == [q for coeffs, _ in want for q in coeffs]
            assert [a % moduli[j % k] for j, a in enumerate(v)] == [
                want[f][1][i] for i in range(n) for f in range(k)
            ]
    assert non_unit


# numpy arrays are accepted wherever rows or vectors of integers are: each
# entry is read as a Python int, so int64 input cannot overflow


def test_howell_form_reads_numpy_arrays():
    np = pytest.importorskip("numpy")
    hf = howell_form(np.zeros((0, 3), dtype=np.int64), 6)
    assert (len(hf.rows), hf.ncols) == (0, 3)
    assert hf.span_cardinality() == 1
    rng = random.Random(1913)
    for t in MODULI + [2147483629, 2**31, 2**31 - 2]:
        for _ in range(6):
            m, n = rng.randint(1, 4), rng.randint(1, 5)
            rows = [[rng.randrange(t) for _ in range(n)] for _ in range(m)]
            hf = howell_form(rows, t)
            got = howell_form(np.array(rows, dtype=np.int64), t)
            assert got == hf
            assert all(type(a) is int for row in got.rows + got.kernel_rows for a in row)


def test_divide_reads_an_int64_array():
    np = pytest.importorskip("numpy")
    rng = random.Random(2029)
    for t in [8, 12, 2147483629]:
        for _ in range(10):
            m, n = rng.randint(1, 4), rng.randint(1, 5)
            hf = howell_form([[rng.randrange(t) for _ in range(n)] for _ in range(m)], t)
            v = [rng.randrange(t) for _ in range(n)]
            got = hf.divide(np.array(v, dtype=np.int64))
            assert got == hf.divide(v)
            assert all(type(a) is int for a in got[0] + got[1])


def test_solve_rowspan_reads_numpy_zeros():
    np = pytest.importorskip("numpy")
    assert solve_rowspan(np.zeros((2, 3), dtype=np.int64), [0, 0, 0], 6) is not None
    assert solve_rowspan(np.zeros((2, 3), dtype=np.int64), [1, 0, 0], 6) is None
