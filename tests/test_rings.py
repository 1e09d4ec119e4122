"""Ring, element, and vector arithmetic over products of Z_t factors."""

import random
from itertools import islice

import pytest

from ringcodes import (
    BudgetExceeded,
    GeneratingCharacter,
    RingElem,
    RingSpec,
    RingVec,
    Submodule,
    dot,
    enumerate_vectors,
    from_components,
    hamming,
    parse_ring,
    parse_vector_literal,
    scale,
    support,
    vec_add,
    vec_neg,
    vec_sub,
    weight,
    weight_shell,
    zero_vec,
)
from conftest import OUTSIDE_RINGS, PROPERTY_RINGS, random_vec


def test_parse_ring_round_trip():
    for text in ["Z2", "Z6", "Z2xZ3", "Z4xZ9xZ25"]:
        assert str(parse_ring(text)) == text
    assert str(parse_ring("z2Xz3")) == "Z2xZ3"


def test_parse_ring_rejects_garbage():
    for bad in ["", "Z", "Z1", "Z0", "Q5", "Z2x", "xZ3", "Z2xx Z3", "Z-4"]:
        with pytest.raises(ValueError):
            parse_ring(bad)


def test_parse_ring_rejects_huge_modulus():
    with pytest.raises(ValueError):
        parse_ring("Z2147483648")  # 2**31


def test_ring_spec_basics():
    spec = parse_ring("Z2xZ3")
    assert spec.cardinality == 6
    assert spec.char_order == 6
    assert parse_ring("Z2xZ2").char_order == 2
    assert parse_ring("Z4xZ6").char_order == 12


def test_ring_spec_value_semantics():
    a, b = RingSpec((2, 3)), parse_ring("Z2xZ3")
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash((a.factors,))
    assert a != RingSpec((3, 2)) and a != RingSpec((6,))
    assert RingSpec((6,)) != (6,) and not RingSpec((6,)) == (6,)
    assert len({a, b, RingSpec((6,))}) == 2
    assert repr(a) == "RingSpec(factors=(2, 3))"


def test_elements_reduce_modulo_factors():
    spec = parse_ring("Z6")
    assert spec.elem(17).residues == (5,)
    assert spec.elem(-1).residues == (5,)
    spec2 = parse_ring("Z2xZ3")
    assert spec2.elem((3, 7)).residues == (1, 1)


def test_element_arithmetic_componentwise():
    spec = parse_ring("Z2xZ3")
    a = spec.elem((1, 2))
    b = spec.elem((1, 2))
    assert (a + b).residues == (0, 1)
    assert (a * b).residues == (1, 1)
    assert (-a).residues == (1, 1)
    assert (a - b).residues == (0, 0)
    assert spec.zero().is_zero()
    assert not spec.one().is_zero()


def test_z4_and_z2xz2_are_different_rings():
    z4 = parse_ring("Z4")
    klein = parse_ring("Z2xZ2")
    assert z4.cardinality == klein.cardinality == 4
    # 1+1 = 2 is nonzero in Z4 but (1,1)+(1,1) vanishes in Z2xZ2
    assert not (z4.one() + z4.one()).is_zero()
    assert (klein.one() + klein.one()).is_zero()


def test_element_str():
    assert str(parse_ring("Z6").elem(5)) == "5"
    assert str(parse_ring("Z2xZ3").elem((1, 2))) == "(1,2)"


def test_vector_construction_and_indexing():
    spec = parse_ring("Z6")
    v = RingVec.of(spec, [1, 4, 0, 0])
    assert len(v) == 4
    assert isinstance(v[1], RingElem)
    assert v[1].residues == (4,)
    assert str(v) == "[1 4 0 0]"
    assert zero_vec(spec, 4) == RingVec.of(spec, [0, 0, 0, 0])


def test_vector_of_accepts_elements_and_tuples():
    spec = parse_ring("Z2xZ3")
    v = RingVec.of(spec, [(1, 2), spec.elem((0, 1))])
    assert v.coords == ((1, 2), (0, 1))
    assert str(v) == "[(1,2) (0,1)]"


def test_vector_arithmetic():
    spec = parse_ring("Z6")
    x = RingVec.of(spec, [1, 2, 3, 4])
    y = RingVec.of(spec, [5, 5, 5, 5])
    assert vec_add(x, y) == RingVec.of(spec, [0, 1, 2, 3])
    assert vec_sub(x, y) == RingVec.of(spec, [2, 3, 4, 5])
    assert vec_neg(x) == RingVec.of(spec, [5, 4, 3, 2])
    assert scale(spec.elem(3), x) == RingVec.of(spec, [3, 0, 3, 0])


def test_dot_weight_support():
    spec = parse_ring("Z6")
    x = RingVec.of(spec, [1, 1, 3, 5])
    y = RingVec.of(spec, [5, 0, 0, 1])
    assert dot(x, y).residues == (4,)
    assert weight(y) == 2
    assert support(y) == (0, 3)
    assert hamming(x, y) == 4
    assert weight(zero_vec(spec, 4)) == 0


def test_metric_properties_random():
    rng = random.Random(20260817)
    for _ in range(200):
        spec = parse_ring(rng.choice(["Z2", "Z6", "Z2xZ3", "Z8"]))
        n = rng.randint(1, 5)
        x = random_vec(rng, spec, n)
        y = random_vec(rng, spec, n)
        z = random_vec(rng, spec, n)
        assert hamming(x, y) == weight(vec_sub(x, y))
        assert hamming(x, y) == hamming(y, x)
        assert hamming(x, z) <= hamming(x, y) + hamming(y, z)
        assert (hamming(x, y) == 0) == (x == y)
        # dot is symmetric and bilinear
        assert dot(x, y) == dot(y, x)
        r = spec.elem(rng.randrange(spec.cardinality))
        lhs = dot(scale(r, x), y)
        rhs = r * dot(x, y)
        assert lhs == rhs
        assert dot(vec_add(x, z), y) == dot(x, y) + dot(z, y)


def test_component_split_and_reassembly():
    spec = parse_ring("Z2xZ3")
    v = RingVec.of(spec, [(1, 2), (0, 1), (1, 0)])
    parts = [v.component(f) for f in range(2)]
    assert parts[0] == (1, 0, 1)
    assert parts[1] == (2, 1, 0)
    assert from_components(spec, parts) == v


def test_enumerate_vectors_order_and_count():
    spec = parse_ring("Z2")
    vs = list(enumerate_vectors(spec, 2))
    assert [v.coords for v in vs] == [
        ((0,), (0,)),
        ((0,), (1,)),
        ((1,), (0,)),
        ((1,), (1,)),
    ]
    spec6 = parse_ring("Z6")
    vs6 = list(enumerate_vectors(spec6, 3))
    assert len(vs6) == 216
    assert len(set(vs6)) == 216
    assert vs6[0] == zero_vec(spec6, 3)


def test_enumerate_vectors_budget(monkeypatch):
    monkeypatch.setattr("ringcodes.rings.DEFAULT_BUDGET", 100)
    spec = parse_ring("Z6")
    with pytest.raises(BudgetExceeded) as exc:
        list(enumerate_vectors(spec, 4))
    assert exc.value.needed == 1296
    assert exc.value.budget == 100


Z6, Z4 = RingSpec((6,)), RingSpec((4,))

# name -> (call, the ValueError text it raises)
REFUSALS = {
    **{
        f"{op.__name__} {case}": (lambda op=op, x=x, y=y: op(x, y), message)
        for op in (vec_add, vec_sub, dot, hamming)
        for case, x, y, message in [
            ("longer first", RingVec.of(Z6, [1, 2, 3]), RingVec.of(Z6, [1]),
             "vectors differ in length"),
            ("shorter first", RingVec.of(Z6, [1]), RingVec.of(Z6, [1, 2, 3]),
             "vectors differ in length"),
            ("other ring", RingVec.of(Z6, [1, 2]), RingVec.of(Z4, [1, 2]),
             "vectors live in different rings"),
        ]
    },
    "scale other ring": (lambda: scale(Z4.elem(1), RingVec.of(Z6, [1])),
                         "scalar from a different ring"),
    "contains other ring": (lambda: Submodule.from_generators(Z6, 1, []).contains(
        RingVec.of(Z4, [0])), "vector does not live in the ambient space"),
    "contains other length": (lambda: Submodule.from_generators(Z6, 1, []).contains(
        RingVec.of(Z6, [0, 0])), "vector does not live in the ambient space"),
    "exponent other ring": (lambda: GeneratingCharacter(Z6).exponent(Z4.elem(1)),
                            "element from a different ring"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_operations_refuse_foreign_operands(name):
    # the pair operations map over both flats, which stops at the shorter one
    call, message = REFUSALS[name]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_ring_elem_requires_matching_spec():
    a = parse_ring("Z6").elem(1)
    b = parse_ring("Z4").elem(1)
    with pytest.raises(ValueError):
        _ = a + b


def _reduced(v: RingVec) -> bool:
    """Every residue of v is a Python int in [0, t_f), one per factor."""
    fac = v.spec.factors
    return all(
        len(c) == len(fac) and all(type(a) is int and 0 <= a < t for a, t in zip(c, fac))
        for c in v.coords
    )


@pytest.mark.parametrize("ring", ["Z6", "Z4xZ9", "Z2xZ2147483629"])
def test_every_builder_returns_reduced_int_residues(ring):
    spec = parse_ring(ring)
    rng = random.Random(ring)
    fac = spec.factors
    wide = [tuple(rng.randrange(-3 * t, 3 * t) for t in fac) for _ in range(4)]
    x = RingVec.of(spec, wide)
    y = RingVec.of(spec, [rng.randrange(-100, 100) for _ in range(4)])
    z = RingVec.of(spec, [spec.elem(c) for c in wide])
    r = spec.elem(tuple(rng.randrange(-50, 50) for _ in fac))
    comps = [[rng.randrange(-2 * t, 2 * t) for _ in range(4)] for t in fac]
    literal = ",".join(
        str(c[0]) if len(fac) == 1 else "(" + ",".join(map(str, c)) + ")" for c in wide
    )
    # (1, 0, ...) and (-1, 0, ...) in factor 0 only: a span of t_0^2 vectors
    e0 = spec.elem(tuple(int(f == 0) for f in range(len(fac))))
    span = Submodule.from_generators(spec, 2, [RingVec.of(spec, [e0, 0]), RingVec.of(spec, [0, -e0])])
    built = [
        x, y, z,
        from_components(spec, comps),
        parse_vector_literal(spec, literal),
        vec_add(x, y), vec_sub(x, y), vec_sub(y, x), vec_neg(x),
        scale(r, x), scale(spec.elem(-1), y),
        zero_vec(spec, 3),
        *span.enumerate(),
    ]
    assert x == z and parse_vector_literal(spec, literal) == x
    assert all(map(_reduced, built))
    # a weight shell lists spec.nonzero_residues(), |R| - 1 of them
    if spec.cardinality <= 10**3:
        assert all(_reduced(v) for w in range(3) for v in weight_shell(spec, 3, w))


LAYOUT_RINGS = PROPERTY_RINGS + OUTSIDE_RINGS + ["Z2147483629", "Z65521xZ65519"]


def _nested(rng: random.Random, spec: RingSpec, n: int) -> tuple[tuple[int, ...], ...]:
    """n residue tuples, a third of them zero and the rest often at t - 1."""
    pick = [lambda t: 0, lambda t: t - 1, lambda t: rng.randrange(t)]
    return tuple(
        (0,) * spec.nfactors if rng.random() < 1 / 3
        else tuple(rng.choice(pick)(t) for t in spec.factors)
        for _ in range(n)
    )


@pytest.mark.parametrize("n", [0, 1, 5])
@pytest.mark.parametrize("ring", LAYOUT_RINGS)
def test_flat_layout_against_nested_reference(ring, n):
    spec = parse_ring(ring)
    rng = random.Random(f"{ring}/{n}")
    fac, k = spec.factors, spec.nfactors
    coords, other = _nested(rng, spec, n), _nested(rng, spec, n)
    builders = [
        RingVec(spec, coords),
        RingVec.of(spec, coords),
        RingVec.of(spec, [spec.elem(c) for c in coords]),
        from_components(spec, [[c[f] for c in coords] for f in range(k)]),
    ]
    if spec.cardinality**n <= 10**5:
        index = 0
        for c in coords:
            for a, t in zip(c, fac):
                index = index * t + a
        builders.append(next(islice(enumerate_vectors(spec, n), index, None)))
    zero = ((0,) * k,) * n
    cases = [(coords, v) for v in builders]
    cases += [(zero, zero_vec(spec, n)), (zero, RingVec(spec, zero))]
    for ref, v in cases:
        assert v == RingVec(spec, ref) and hash(v) == hash((spec, ref))
        assert v.coords == ref and v.flat == tuple(a for c in ref for a in c) and len(v) == n
        assert [e.residues for e in v] == list(ref)
        assert [v[i].residues for i in range(-n, n)] == list(ref * 2)
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                v[i]
        parts = tuple(tuple(c[f] for c in ref) for f in range(k))
        assert v.components() == parts
        assert [v.component(f) for f in range(-k, k)] == list(parts * 2)
        with pytest.raises(IndexError):
            v.component(k)
        entries = [str(c[0]) if k == 1 else "(" + ",".join(map(str, c)) + ")" for c in ref]
        assert str(v) == "[" + " ".join(entries) + "]"

    x, y = builders[0], RingVec(spec, other)
    r = spec.elem(_nested(rng, spec, 1)[0])

    def each(op, *vs):
        return tuple(tuple(op(*a) % t for *a, t in zip(*cs, fac)) for cs in zip(*vs))

    assert vec_add(x, y).coords == each(lambda a, b: a + b, coords, other)
    assert vec_sub(x, y).coords == each(lambda a, b: a - b, coords, other)
    assert vec_neg(x).coords == each(lambda a: -a, coords)
    assert scale(r, x).coords == each(lambda s, a: s * a, (r.residues,) * n, coords)
    assert dot(x, y).residues == tuple(
        sum(c[f] * d[f] for c, d in zip(coords, other)) % t for f, t in enumerate(fac)
    )
    assert weight(x) == sum(c != (0,) * k for c in coords)
    assert hamming(x, y) == sum(c != d for c, d in zip(coords, other))
    assert support(x) == tuple(i for i, c in enumerate(coords) if c != (0,) * k)
