"""The bitset reach tables of reach.py against plain digit arithmetic.

A set of syndromes is a Python int with bit sigma set for each mixed-radix
index sigma.  These tests rebuild every set from its definition, digit by
digit, and compare.
"""

import random
from itertools import combinations, product

import pytest

from ringcodes import (
    BeyondRadius,
    ParityCheckSystem,
    decode,
    min_distance_witness,
    parse_ring,
    validate_pcs,
)
from ringcodes.reach import ReachTable, SyndromeSpace
from conftest import OUTSIDE_RINGS, PROPERTY_RINGS, build_z6_pcs, random_vec, rv


def digits(space, sigma):
    return [sigma // st % r for st, r in zip(space.strides, space.radices)]


def index(space, ds):
    return sum(d * st for d, st in zip(ds, space.strides))


def bits_of(sigmas):
    return sum(1 << s for s in set(sigmas))


def random_space(rng, ring, m, n):
    spec = parse_ring(ring)
    return SyndromeSpace(spec, [random_vec(rng, spec, n) for _ in range(m)])


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("ring", PROPERTY_RINGS + OUTSIDE_RINGS)
def test_translate_adds_digit_by_digit(ring, m):
    rng = random.Random(100 * m + len(ring))
    space = random_space(rng, ring, m, 2)
    axes = list(zip(space.strides, space.radices))
    full = range(space.size)
    for trial in range(12):
        members = rng.sample(full, rng.randint(0, min(space.size, 40)))
        if trial == 0:
            members = list(full)
        u = [rng.randrange(r) for r in space.radices]
        if trial == 1:
            u = [r - 1 for r in space.radices]  # every axis wraps all but digit 0
        want = {index(space, [(d + c) % r for d, c, r in zip(digits(space, s), u, space.radices)])
                for s in members}
        assert space.translate(bits_of(members), u) == bits_of(want), (u, axes)
    assert space.translate(0, [1] * len(axes)) == 0


def syndrome_digits(space, h_rows, y):
    """H y^T as mixed-radix digits, y given as {position: residues}."""
    k = space.spec.nfactors
    return [
        sum(v[f] * row.flat[j * k + f] for j, v in y.items()) % t
        for row in h_rows
        for f, t in enumerate(space.spec.factors)
    ]


SMALL_SPACES = [("Z2", 3, 5), ("Z4", 2, 4), ("Z6", 2, 4), ("Z9", 1, 5),
                ("Z2xZ2", 2, 4), ("Z2xZ3", 2, 4), ("Z3xZ4", 1, 4), ("Z2xZ4", 2, 3)]


@pytest.mark.parametrize("ring,m,n", SMALL_SPACES)
def test_layers_follow_the_definition(ring, m, n):
    rng = random.Random(7 * m + n + len(ring))
    spec = parse_ring(ring)
    h_rows = [random_vec(rng, spec, n) for _ in range(m)]
    space = SyndromeSpace(spec, h_rows)
    seeds = rng.sample(range(space.size), rng.randint(1, 4))
    assert not any(ReachTable(space, []).layer(3))  # no seed, nothing reaches
    table = ReachTable(space, seeds)
    for w in range(4):
        layer = table.layer(w)
        assert len(layer) == n + 1
        for p in range(n + 1):
            want = set()
            for supp in combinations(range(p, n), w):
                for values in product(spec.nonzero_residues(), repeat=w):
                    hy = syndrome_digits(space, h_rows, dict(zip(supp, values)))
                    for z in seeds:
                        zd = digits(space, z)
                        want.add(index(space, [(a + b) % r for a, b, r
                                               in zip(zd, hy, space.radices)]))
            assert layer[p] == bits_of(want), (w, p)


def z101_nonlinear(s):
    """H = [[1,0,1,1],[0,1,1,2]] over Z101, columns (a // 101, a % 101), a = 1..s."""
    spec = parse_ring("Z101")
    cols = [(a // 101, a % 101) for a in range(1, s + 1)]
    h_rows = [rv(spec, (1, 0, 1, 1)), rv(spec, (0, 1, 1, 2))]
    return validate_pcs(h_rows, [rv(spec, [c[i] for c in cols]) for i in range(2)])


def outcome(pcs, x):
    try:
        return decode(pcs, x)
    except BeyondRadius as exc:
        return ("beyond", exc.radius)


def test_z101_nonlinear_system_takes_the_table_route(monkeypatch):
    pcs = z101_nonlinear(40)
    assert (pcs.m, pcs.n) == (2, 4) and pcs.syndrome_space() is not None
    rng = random.Random(101)
    words = [random_vec(rng, pcs.spec, 4) for _ in range(4)]
    words += [rv(pcs.spec, (0, a, 0, 0)) for a in (0, 1, 40, 41)]  # in S's columns or not
    tables = [min_distance_witness(pcs)] + [outcome(pcs, x) for x in words]
    # h_2 = (0, 1) alone has syndromes (0, a) in S^diff: d = 1, radius 0
    assert tables[0] == (1, rv(pcs.spec, (0, 1, 0, 0)))
    assert [o == ("beyond", 0) for o in tables[1:]] == [True] * 5 + [False, False, True]
    with monkeypatch.context() as patch:
        patch.setattr(ParityCheckSystem, "syndrome_space", lambda self: None)
        shells = z101_nonlinear(40)
        got = [min_distance_witness(shells)] + [outcome(shells, x) for x in words]
    assert got == tables


def z6_words(pcs):
    return [rv(pcs.spec, w) for w in ((5, 2, 0, 0), (1, 3, 1, 3), (1, 0, 0, 0))]


def z101_words(pcs):
    return [rv(pcs.spec, (0, a, 0, 0)) for a in (0, 1, 41)] + [rv(pcs.spec, (3, 1, 4, 1))]


# the gate's two terms, worked out by hand (bytes round up):
# Z6, m = 2, n = 4: 6^2 * (2 * 5^2 + 2 * 6) / 8 = 279 bytes, 4 * 5 * 5 * 2 * 1 * 1 = 200 operations
# Z101, m = 2, n = 4: 101^2 * (2 * 5^2 + 2 * 101) / 8 = 321331.5, so 321332 bytes, and
# 4 * 5 * 100 * 2 * 1 * ceil(10201 / 64) = 640000 operations
GATES = {
    "Z6 bytes": (build_z6_pcs, z6_words, (279, 200)),
    "Z101 operations": (lambda: z101_nonlinear(40), z101_words, (321332, 640000)),
}


@pytest.mark.parametrize("system", GATES)
def test_the_gate_admits_the_tables_exactly_at_their_count(system, monkeypatch):
    build, words, cost = GATES[system]
    pcs = build()
    assert SyndromeSpace.cost(pcs.spec, pcs.m, pcs.n) == cost
    answers = []
    for budget, tables in ((max(cost), True), (max(cost) - 1, False)):
        monkeypatch.setattr("ringcodes.rings.DEFAULT_BUDGET", budget)
        pcs = build()
        assert (pcs.syndrome_space() is not None) == tables
        answers.append([min_distance_witness(pcs)] + [outcome(pcs, x) for x in words(pcs)])
    assert answers[0] == answers[1]
    assert any(isinstance(o, tuple) and o[0] == "beyond" for o in answers[0][1:])
