"""Shared fixtures: the Z6 worked system and a random instance generator."""

from __future__ import annotations

import random

import pytest

from ringcodes import (
    CodePresentation,
    ParityCheckSystem,
    RingSpec,
    RingVec,
    Submodule,
    code_to_pcs,
    dot,
    parse_ring,
    scale,
    validate_pcs,
    vec_sub,
)

# A hand-checked running example over Z6: a nonlinear 216-word code of
# length 4 presented by a 2x4 check matrix and three syndrome columns.
Z6 = parse_ring("Z6")
Z6_H = [(1, 1, 3, 5), (0, 4, 2, 2)]
Z6_S_ROWS = [(0, 1, 5), (0, 2, 4)]
Z6_D_GENS = [(2, 1, 1, 0), (0, 1, 0, 1), (3, 0, 3, 0)]
Z6_REPS = [(0, 0, 0, 0), (5, 2, 0, 0), (4, 1, 0, 0)]


def rv(spec: RingSpec, items) -> RingVec:
    return RingVec.of(spec, items)


def build_z6_pcs() -> ParityCheckSystem:
    return validate_pcs(
        [rv(Z6, r) for r in Z6_H], [rv(Z6, r) for r in Z6_S_ROWS]
    )


def build_z6_presentation() -> CodePresentation:
    kernel = Submodule.from_generators(Z6, 4, [rv(Z6, g) for g in Z6_D_GENS])
    return CodePresentation(kernel, tuple(rv(Z6, d) for d in Z6_REPS))


@pytest.fixture
def z6_pcs() -> ParityCheckSystem:
    return build_z6_pcs()


@pytest.fixture
def z6_pres() -> CodePresentation:
    return build_z6_presentation()


PROPERTY_RINGS = ["Z2", "Z3", "Z4", "Z6", "Z8", "Z2xZ2", "Z2xZ3"]
# rings whose moduli have repeated or mixed prime factors beyond PROPERTY_RINGS
OUTSIDE_RINGS = ["Z9", "Z12", "Z3xZ4", "Z2xZ4"]


def random_vec(rng: random.Random, spec: RingSpec, n: int) -> RingVec:
    return RingVec.of(
        spec, [tuple(rng.randrange(t) for t in spec.factors) for _ in range(n)]
    )


def random_space(rng: random.Random, rings, max_n: int, space_cap: int):
    """A random ring from rings and a length n with |R|^n <= space_cap."""
    while True:
        spec = parse_ring(rng.choice(rings))
        n = rng.randint(1, max_n)
        if spec.cardinality**n <= space_cap:
            return spec, n


def random_instance(
    rng: random.Random,
    rings=PROPERTY_RINGS,
    max_n: int = 4,
    max_s: int = 4,
    space_cap: int = 1500,
    max_gens: int = 2,
):
    """A random valid system built from a random coset presentation.

    Returns (pcs, pres).  The presentation is valid by construction, so
    code_to_pcs yields a valid system; sizes are capped for test speed.
    """
    spec, n = random_space(rng, rings, max_n, space_cap)
    gens = [random_vec(rng, spec, n) for _ in range(rng.randint(0, max_gens))]
    kernel = Submodule.from_generators(spec, n, gens)
    quotient = spec.cardinality**n // kernel.cardinality
    s = rng.randint(1, min(max_s, quotient))
    reps: list[RingVec] = []
    tries = 0
    while len(reps) < s and tries < 400:
        tries += 1
        cand = random_vec(rng, spec, n)
        if all(not kernel.contains(vec_sub(cand, d)) for d in reps):
            reps.append(cand)
    pres = CodePresentation(kernel, tuple(reps))
    return code_to_pcs(pres), pres


def random_linear_instance(
    rng: random.Random, rings=PROPERTY_RINGS, max_n: int = 4, space_cap: int = 1500
):
    """A random system whose code D + R g is linear, presented as cosets of D.

    The representatives are the multiples c g, one per coset of D, so the
    system has up to |R| syndrome columns.
    """
    spec, n = random_space(rng, rings, max_n, space_cap)
    kernel = Submodule.from_generators(
        spec, n, [random_vec(rng, spec, n) for _ in range(rng.randint(0, 2))]
    )
    g = random_vec(rng, spec, n)
    reps: list[RingVec] = []
    for c in spec.elements():
        cand = scale(c, g)
        if all(not kernel.contains(vec_sub(cand, d)) for d in reps):
            reps.append(cand)
    return code_to_pcs(CodePresentation(kernel, tuple(reps)))


def random_systems(
    rng: random.Random, rings, count: int, space_cap: int
) -> list[ParityCheckSystem]:
    """count random systems over the given rings, every third one linear."""
    return [
        random_linear_instance(rng, rings, space_cap=space_cap)
        if i % 3 == 2
        else random_instance(rng, rings, space_cap=space_cap)[0]
        for i in range(count)
    ]


# large prime moduli, large product rings, and products of a small and a large factor
LARGE_RINGS = ["Z2147483647", "Z2147483629", "Z65521xZ65519", "Z1009xZ997", "Z27xZ4",
               "Z2xZ2147483629"]


def random_large_system(rng: random.Random, ring: str) -> ParityCheckSystem:
    """A random valid system over ring with S = H . reps, m <= 3, n <= 4, s <= 4.

    Some rows of H are scaled by a zero divisor (a factor set to 0 or, where
    t_f is small, times a prime dividing it).  About one system in four is
    linear: its reps are the multiples c z g of one vector g, z of prime
    additive order p (p | t_f in one small factor, 0 elsewhere), or just the
    zero vector when no factor is small.
    A rep whose syndrome repeats an earlier one is skipped.
    """
    spec = parse_ring(ring)
    m, n = rng.randint(1, 3), rng.randint(1, 4)

    def zero_divisor():
        return spec.elem([0 if rng.random() < 0.3 else next(
            (p for p in (2, 3) if t % p == 0 and t < 100 and rng.random() < 0.5), 1)
            * rng.randrange(t) for t in spec.factors])

    h = [random_vec(rng, spec, n) for _ in range(m)]
    h = [scale(zero_divisor(), row) if rng.random() < 0.4 else row for row in h]
    small = [(f, p) for f, t in enumerate(spec.factors) for p in (2, 3) if t % p == 0 and t < 100]
    if rng.random() < 0.25:
        f, p = rng.choice(small) if small else (0, 1)
        z = spec.elem([t // p if g == f and p > 1 else 0 for g, t in enumerate(spec.factors)])
        g = scale(z, random_vec(rng, spec, n))
        reps = [scale(spec.elem(c), g) for c in range(p)]
    else:
        reps = [random_vec(rng, spec, n) for _ in range(rng.randint(2, 4))]
    cols: dict[tuple, RingVec] = {}
    for d in reps:
        cols.setdefault(tuple(dot(row, d) for row in h), d)
    return validate_pcs(h, [RingVec.of(spec, [dot(row, d) for d in cols.values()]) for row in h])


def code_words(pres: CodePresentation) -> set[RingVec]:
    """Explicit word set of a presentation (kernel x representatives)."""
    from ringcodes import vec_add

    words = set()
    for d in pres.representatives:
        for v in pres.kernel.enumerate():
            words.add(vec_add(d, v))
    return words
