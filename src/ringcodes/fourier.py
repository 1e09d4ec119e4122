"""Characters and Fourier coefficients of code indicators, kept exact.

R = Z_t1 x ... x Z_tk has the generating character sending y to
zeta_L ^ (sum_j y_j L/t_j) with L = lcm(t_j): every other character is a
twist chi_x(y) = eps(x y) of it.  Fourier coefficients of a code indicator
are integer combinations of L-th roots of unity, so they are carried
around as sparse exponent sums (one (exponent, count) term per root that
occurs, at most s of them for a coefficient) and only turned into
floating-point complex numbers at the very end.  A coefficient therefore
costs O(s) memory at any L; the dense L counts are only ever generated
on demand.

Two routes compute the same coefficient, |D| sum_j zeta^(-eps(x . a_j)) on
the dual of D: the coset route reads the a_j off the representatives, the
system route solves them from the Howell rows of [H | S] (x . a_j = S_x(j)
on the row span of H).  One evaluator reads both plans, which come from
different matrices; kept exact, they agree with plain equality.
"""

from __future__ import annotations

import cmath
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, repeat
from operator import mul
from typing import Callable, Optional

from .pcs import CodePresentation, ParityCheckSystem
from .rings import (
    RingElem,
    RingSpec,
    RingVec,
    Value,
    check_budget,
    dot,
    enumerate_vectors,
)


def _root(k: int, order: int) -> complex:
    """zeta_order^k for 0 <= k < order; no table of all the roots is kept."""
    return cmath.exp(2j * cmath.pi * k / order)


class ExponentSum(Value):
    """An integer combination of the L-th roots of unity.

    terms holds the pairs (k, c) with c != 0, sorted by k, of the sum
    sum_k c * zeta_L^k; it is empty for zero.  Memory grows with the number
    of terms, never with L.  ExponentSum(L, counts) takes the L counts
    densely; the counts property gives them back as a fresh iterator.
    Addition, negation, scaling and multiplication (cyclic convolution) are
    exact; evaluate() is the only lossy step.  Note distinct term tuples can
    evaluate to the same complex number, so exact equality is finer than
    numeric equality.
    """

    __slots__ = __match_args__ = ("order", "terms")

    def __init__(self, order: int, counts: Sequence[int]):
        if len(counts) != order:
            raise ValueError("need exactly one count per root")
        self.order = order
        self.terms = tuple((k, c) for k, c in enumerate(counts) if c)

    @classmethod
    def _of(cls, order: int, terms: tuple[tuple[int, int], ...]) -> "ExponentSum":
        es = object.__new__(cls)
        es.order = order
        es.terms = terms
        return es

    @classmethod
    def _collect(cls, order: int, pairs: Iterable[tuple[int, int]]) -> "ExponentSum":
        """The sum of c * zeta^k over pairs (k, c) with 0 <= k < order."""
        terms = []
        for k, c in sorted(pairs):
            if terms and terms[-1][0] == k:
                c += terms.pop()[1]
            if c:
                terms.append((k, c))
        return cls._of(order, tuple(terms))

    @classmethod
    def _runs(cls, order: int, exponents: list[int], count: int) -> "ExponentSum":
        """count * sum_j zeta^(exponents[j]), exponents in [0, order).

        The coefficient routes' hot path: sorting plain ints (in place) and
        merging runs of equal exponents takes about half the time of
        _collect's sort of (exponent, count) pairs.
        """
        exponents.sort()
        terms, prev, run = [], None, 0
        for k in exponents:
            if k != prev:
                if run:
                    terms.append((prev, count * run))
                prev, run = k, 0
            run += 1
        if run:
            terms.append((prev, count * run))
        return cls._of(order, tuple(terms))

    @property
    def counts(self) -> Iterator[int]:
        """The L dense counts, one per root, generated from the terms."""
        runs, prev = [], 0
        for k, c in self.terms:
            runs += (repeat(0, k - prev), (c,))
            prev = k + 1
        runs.append(repeat(0, self.order - prev))
        return chain.from_iterable(runs)

    @classmethod
    def zero(cls, order: int) -> "ExponentSum":
        return cls._of(order, ())

    @classmethod
    def root(cls, order: int, exponent: int, count: int = 1) -> "ExponentSum":
        return cls._of(order, ((exponent % order, count),) if count else ())

    def _check(self, other: "ExponentSum") -> None:
        if self.order != other.order:
            raise ValueError("mixed root orders")

    def __add__(self, other: "ExponentSum") -> "ExponentSum":
        self._check(other)
        return ExponentSum._collect(self.order, self.terms + other.terms)

    def __sub__(self, other: "ExponentSum") -> "ExponentSum":
        return self + -other

    def __neg__(self) -> "ExponentSum":
        return self.scaled(-1)

    def scaled(self, c: int) -> "ExponentSum":
        return ExponentSum._of(self.order, tuple((k, c * a) for k, a in self.terms) if c else ())

    def __mul__(self, other: "ExponentSum") -> "ExponentSum":
        self._check(other)
        L = self.order
        return ExponentSum._collect(
            L, [((i + j) % L, a * b) for i, a in self.terms for j, b in other.terms]
        )

    def conjugate(self) -> "ExponentSum":
        L = self.order
        return ExponentSum._of(L, tuple(sorted(((-k) % L, a) for k, a in self.terms)))

    def evaluate(self) -> complex:
        # ascending k, as a sum over the dense counts would go: same floats
        L = self.order
        return sum((a * _root(k, L) for k, a in self.terms), 0j)

    def is_zero(self, tol: float = 1e-9) -> bool:
        """Numeric zero test; distinct term tuples may cancel exactly."""
        if not self.terms:
            return True
        return abs(self.evaluate()) <= tol


class GeneratingCharacter:
    """The product of the canonical characters exp(2 pi i a / t) per factor."""

    def __init__(self, spec: RingSpec):
        self.spec = spec
        self.order = spec.char_order
        self._weights = spec.character_weights

    def exponent(self, a: RingElem) -> int:
        """The exponent e with character(a) = zeta_order^e."""
        if a.spec != self.spec:
            raise ValueError("element from a different ring")
        return sum(r * w for r, w in zip(a.residues, self._weights)) % self.order

    def value(self, a: RingElem) -> complex:
        return _root(self.exponent(a), self.order)


def generating_character(spec: RingSpec) -> GeneratingCharacter:
    return GeneratingCharacter(spec)


def _coefficient(plan: tuple, x: RingVec) -> ExponentSum:
    """scale * sum_a zeta^(-eps(x . a)) over the rows a of a pcs._plan, or zero
    at the first Howell row g with x . g != 0 mod t_f: one multiply-accumulate
    per pack, and for one row one term, with no sort."""
    spec, L, scale, _, packs, fields, mask, refusal = plan
    if x.spec is not spec and x.spec != spec or len(x.flat) != len(packs[0][0]):
        raise ValueError(refusal)
    exps = []
    for packed, offsets in packs:
        acc = sum(map(mul, x.flat, packed))
        for b, t in fields:  # a loop beats any() on 3.11
            if (acc >> b & mask) % t:
                return ExponentSum.zero(L)
        fields = ()
        exps += [-(acc >> b & mask) % L for b in offsets]
    if len(exps) == 1:
        return ExponentSum._of(L, ((exps[0], scale),))
    return ExponentSum._runs(L, exps, scale)


def fourier_coeff_coset(pres: CodePresentation, x: RingVec) -> ExponentSum:
    """Fourier coefficient of the code's indicator from its coset presentation.

    Supported exactly on the dual of D, where it equals
    |D| * sum_j zeta^(-eps(x . d_j)) over the representatives d_j.
    """
    return _coefficient(pres._character_plan, x)


def fourier_coeff_pcs(pcs: ParityCheckSystem, x: RingVec) -> ExponentSum:
    """The same coefficient computed from the system side.

    Supported exactly on the row span of H, where it equals
    (|R|^n / |row span|) * sum_j zeta^(-eps(S_x(j))).
    """
    return _coefficient(pcs._character_plan, x)


def poisson_sum(
    pres: CodePresentation,
    f: Callable[[RingVec], complex],
    f_hat: Optional[Callable[[RingVec], complex]] = None,
) -> complex:
    """Sum of f over the code, evaluated entirely on the dual side.

    Uses sum_{c in C} f(c) = |R|^(-n) sum_{x in dual(D)} f_hat(x) g(x) with
    g the Fourier coefficient of -C, which is the conjugate of C's since
    chi_x(-y) is the conjugate of chi_x(y).  When f_hat is not
    supplied the naive transform f_hat(x) = sum_y f(y) chi_x(-y) is used,
    which scans R^n once per dual element; the scan is budget-gated.
    """
    spec = pres.spec
    n = pres.n
    dual = pres.dual_module()
    eps = generating_character(spec)
    L = eps.order
    if f_hat is None:
        check_budget(dual.cardinality * spec.cardinality**n, "naive transform")
        table = [(y, f(y)) for y in enumerate_vectors(spec, n)]

        def f_hat(x: RingVec) -> complex:
            acc = 0j
            for y, fy in table:
                acc += fy * _root((-eps.exponent(dot(x, y))) % L, L)
            return acc

    acc = 0j
    for x in dual.enumerate():
        acc += f_hat(x) * fourier_coeff_coset(pres, x).conjugate().evaluate()
    return acc / spec.cardinality**n
