"""Characters and Fourier coefficients of code indicators, kept exact.

R = Z_t1 x ... x Z_tk has the generating character sending y to
zeta_L ^ (sum_j y_j L/t_j) with L = lcm(t_j): every other character is a
twist chi_x(y) = eps(x y) of it.  Fourier coefficients of a code indicator
are integer combinations of L-th roots of unity, so they are carried
around as exponent multisets (one integer count per root) and only turned
into floating-point complex numbers at the very end.

Two independent routes compute the same coefficient: a sum over the coset
representatives of the code, and a sum over one syndrome row combination
of its system.  Keeping both exact makes their agreement testable with
plain equality.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from operator import mul
from typing import Callable, Optional

from .pcs import CodePresentation, ParityCheckSystem
from .rings import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    RingElem,
    RingSpec,
    RingVec,
    dot,
    enumerate_vectors,
    vec_neg,
)


def _root(k: int, order: int) -> complex:
    """zeta_order^k for 0 <= k < order; no table of all the roots is kept."""
    return cmath.exp(2j * cmath.pi * k / order)


@dataclass(frozen=True)
class ExponentSum:
    """An integer combination of the L-th roots of unity.

    counts[k] is the coefficient of zeta_L^k.  Addition, negation, scaling
    and multiplication (cyclic convolution) are exact; evaluate() is the
    only lossy step.  Note distinct count vectors can evaluate to the same
    complex number, so exact equality is finer than numeric equality.
    """

    order: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.order:
            raise ValueError("need exactly one count per root")

    @classmethod
    def zero(cls, order: int) -> "ExponentSum":
        return cls(order, (0,) * order)

    @classmethod
    def root(cls, order: int, exponent: int, count: int = 1) -> "ExponentSum":
        counts = [0] * order
        counts[exponent % order] = count
        return cls(order, tuple(counts))

    def _check(self, other: "ExponentSum") -> None:
        if self.order != other.order:
            raise ValueError("mixed root orders")

    def __add__(self, other: "ExponentSum") -> "ExponentSum":
        self._check(other)
        return ExponentSum(
            self.order, tuple(a + b for a, b in zip(self.counts, other.counts))
        )

    def __sub__(self, other: "ExponentSum") -> "ExponentSum":
        self._check(other)
        return ExponentSum(
            self.order, tuple(a - b for a, b in zip(self.counts, other.counts))
        )

    def __neg__(self) -> "ExponentSum":
        return ExponentSum(self.order, tuple(-a for a in self.counts))

    def scaled(self, c: int) -> "ExponentSum":
        return ExponentSum(self.order, tuple(c * a for a in self.counts))

    def __mul__(self, other: "ExponentSum") -> "ExponentSum":
        self._check(other)
        L = self.order
        out = [0] * L
        for i, a in enumerate(self.counts):
            if a:
                for j, b in enumerate(other.counts):
                    if b:
                        out[(i + j) % L] += a * b
        return ExponentSum(L, tuple(out))

    def conjugate(self) -> "ExponentSum":
        L = self.order
        out = [0] * L
        for k, a in enumerate(self.counts):
            out[(-k) % L] += a
        return ExponentSum(L, tuple(out))

    def evaluate(self) -> complex:
        L = self.order
        return sum((a * _root(k, L) for k, a in enumerate(self.counts) if a), 0j)

    def is_zero(self, tol: float = 1e-9) -> bool:
        """Numeric zero test; distinct exponent multisets may cancel exactly."""
        if not any(self.counts):
            return True
        return abs(self.evaluate()) <= tol


class GeneratingCharacter:
    """The product of the canonical characters exp(2 pi i a / t) per factor."""

    def __init__(self, spec: RingSpec):
        self.spec = spec
        self.order = spec.char_order
        self._weights = tuple(self.order // t for t in spec.factors)

    def exponent(self, a: RingElem) -> int:
        """The exponent e with character(a) = zeta_order^e."""
        if a.spec != self.spec:
            raise ValueError("element from a different ring")
        return sum(r * w for r, w in zip(a.residues, self._weights)) % self.order

    def value(self, a: RingElem) -> complex:
        return _root(self.exponent(a), self.order)


def generating_character(spec: RingSpec) -> GeneratingCharacter:
    return GeneratingCharacter(spec)


def character_exponent(x: RingVec, y: RingVec) -> int:
    """Exponent of chi_x(y) = eps(x . y) relative to zeta_{lcm of factors}."""
    return generating_character(x.spec).exponent(dot(x, y))


def fourier_coeff_coset(pres: CodePresentation, x: RingVec) -> ExponentSum:
    """Fourier coefficient of the code's indicator from its coset presentation.

    Supported exactly on the dual of D, where it equals
    |D| * sum_j zeta^(-eps(x . d_j)).  Each exponent eps(x . d_j) is one
    integer dot product of x's flattened residues with the cached
    pres.character_rows[j].
    """
    L = pres.spec.char_order
    if not pres.dual_module().contains(x):
        return ExponentSum.zero(L)
    flat = [a for coord in x.coords for a in coord]
    scale_factor = pres.kernel.cardinality
    counts = [0] * L
    for row in pres.character_rows:
        counts[-sum(map(mul, flat, row)) % L] += scale_factor
    return ExponentSum(L, tuple(counts))


def fourier_coeff_pcs(pcs: ParityCheckSystem, x: RingVec) -> ExponentSum:
    """The same coefficient computed from the system side.

    Supported exactly on the row span of H, where it equals
    (|R|^n / |row span|) * sum_j zeta^(-eps(S_x(j))).
    """
    L = pcs.spec.char_order
    s_x = pcs.s_row(x)
    if s_x is None:
        return ExponentSum.zero(L)
    weights = [L // t for t in pcs.spec.factors]
    scale_factor = pcs.kernel_cardinality
    counts = [0] * L
    for residues in s_x.coords:
        counts[-sum(map(mul, residues, weights)) % L] += scale_factor
    return ExponentSum(L, tuple(counts))


def poisson_sum(
    pres: CodePresentation,
    f: Callable[[RingVec], complex],
    f_hat: Optional[Callable[[RingVec], complex]] = None,
    budget: int = DEFAULT_BUDGET,
) -> complex:
    """Sum of f over the code, evaluated entirely on the dual side.

    Uses sum_{c in C} f(c) = |R|^(-n) sum_{x in dual(D)} f_hat(x) g(x) with
    g the Fourier coefficient of the reflected code -C.  When f_hat is not
    supplied the naive transform f_hat(x) = sum_y f(y) chi_x(-y) is used,
    which scans R^n once per dual element; the scan is budget-gated.
    """
    spec = pres.spec
    n = pres.n
    dual = pres.dual_module()
    eps = generating_character(spec)
    L = eps.order
    if f_hat is None:
        total = spec.cardinality**n
        if total > budget or dual.cardinality * total > budget:
            raise BudgetExceeded(
                max(total, dual.cardinality * total), budget, "naive transform"
            )
        table = [(y, f(y)) for y in enumerate_vectors(spec, n, budget)]

        def f_hat(x: RingVec) -> complex:
            acc = 0j
            for y, fy in table:
                acc += fy * _root((-eps.exponent(dot(x, y))) % L, L)
            return acc

    reflected = CodePresentation(
        pres.kernel, tuple(vec_neg(d) for d in pres.representatives)
    )
    reflected._dual = dual  # same kernel, same annihilator
    acc = 0j
    for x in dual.enumerate(budget):
        acc += f_hat(x) * fourier_coeff_coset(reflected, x).evaluate()
    return acc / spec.cardinality**n
