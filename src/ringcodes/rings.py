"""Exact arithmetic over finite products of integer residue rings.

The ambient ring is R = Z_t1 x ... x Z_tk with componentwise operations.
The factors are arbitrary moduli >= 2; they are deliberately not collapsed
via CRT, so Z2xZ2 and Z4 are distinct rings with distinct module theory.
Elements are stored as reduced residue tuples, one residue per factor.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, Sequence, Union

#: Largest modulus accepted for a single factor.  Keeping moduli below 2**31
#: means any product of two residues fits in a 64-bit signed integer.
MAX_MODULUS = 2**31

#: The one cap on every exhaustive stage (see check_budget).
DEFAULT_BUDGET = 10**7


class BudgetExceeded(Exception):
    """An exhaustive stage would need more states (or entries) than allowed."""

    def __init__(self, needed: int, budget: int, what: str, unit: str):
        self.needed = needed
        self.budget = budget
        self.what = what
        self.unit = unit
        super().__init__(f"{what} needs {needed} {unit}, budget is {budget}")


def check_budget(needed: int, what: str, unit: str = "states") -> None:
    """The gate of every exhaustive stage: raise unless needed <= DEFAULT_BUDGET.

    The limit is read at call time, so patching rings.DEFAULT_BUDGET moves it.
    """
    if needed > DEFAULT_BUDGET:
        raise BudgetExceeded(needed, DEFAULT_BUDGET, what, unit)


@dataclass(frozen=True)
class RingSpec:
    """The ring Z_t1 x ... x Z_tk given by its tuple of factor moduli."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("a ring needs at least one factor")
        for t in self.factors:
            if not isinstance(t, int) or t < 2:
                raise ValueError(f"factor moduli must be integers >= 2, got {t!r}")
            if t >= MAX_MODULUS:
                raise ValueError(f"factor modulus {t} exceeds limit {MAX_MODULUS}")

    @property
    def nfactors(self) -> int:
        return len(self.factors)

    @property
    def cardinality(self) -> int:
        return math.prod(self.factors)

    @cached_property
    def char_order(self) -> int:
        """Least common multiple of the factor moduli (the additive exponent)."""
        return math.lcm(*self.factors)

    @cached_property
    def character_weights(self) -> tuple[int, ...]:
        """L / t_f per factor, the weights of the generating character."""
        return tuple(self.char_order // t for t in self.factors)

    def zero(self) -> "RingElem":
        return RingElem(self, (0,) * len(self.factors))

    def one(self) -> "RingElem":
        return RingElem(self, (1,) * len(self.factors))

    def elem(self, value: Union[int, Iterable[int]]) -> "RingElem":
        """Build an element from one integer (k = 1) or one residue per factor."""
        if isinstance(value, int):
            if len(self.factors) == 1:
                return RingElem(self, (value % self.factors[0],))
            # a bare integer embeds diagonally; handy for scalars like 0 and 1
            return RingElem(self, tuple(value % t for t in self.factors))
        residues = tuple(value)
        if len(residues) != len(self.factors):
            raise ValueError(
                f"expected {len(self.factors)} residues, got {len(residues)}"
            )
        return RingElem(self, tuple(a % t for a, t in zip(residues, self.factors)))

    def elements(self) -> list["RingElem"]:
        """All ring elements, odometer order over residues (last factor fastest)."""
        return [
            RingElem(self, residues)
            for residues in product(*(range(t) for t in self.factors))
        ]

    def nonzero_residues(self) -> list[tuple[int, ...]]:
        """Residues of the nonzero elements in elements() order.

        This is the order of the values inside a weight shell; zero comes
        first in odometer order, so it is simply dropped.
        """
        return list(product(*(range(t) for t in self.factors)))[1:]

    def __str__(self) -> str:
        return "x".join(f"Z{t}" for t in self.factors)


_RING_RE = re.compile(r"^[Zz](\d+)$")


def parse_ring(text: str) -> RingSpec:
    """Parse a ring literal such as ``Z6`` or ``Z2xZ3`` (case-insensitive Z)."""
    parts = re.split(r"[xX]", text.strip())
    factors = []
    for part in parts:
        m = _RING_RE.match(part.strip())
        if m is None:
            raise ValueError(f"bad ring literal {text!r}")
        factors.append(int(m.group(1)))
    return RingSpec(tuple(factors))


@dataclass(frozen=True)
class RingElem:
    """One element of a RingSpec ring, stored as reduced residues."""

    spec: RingSpec
    residues: tuple[int, ...]

    def _combine(self, other: "RingElem", op) -> "RingElem":
        """op residue by residue, reduced mod each factor."""
        if self.spec != other.spec:
            raise ValueError("elements live in different rings")
        pairs = zip(self.residues, other.residues, self.spec.factors)
        return RingElem(self.spec, tuple(op(a, b) % t for a, b, t in pairs))

    def __add__(self, other: "RingElem") -> "RingElem":
        return self._combine(other, operator.add)

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "RingElem":
        return RingElem(
            self.spec,
            tuple((-a) % t for a, t in zip(self.residues, self.spec.factors)),
        )

    def __mul__(self, other: "RingElem") -> "RingElem":
        return self._combine(other, operator.mul)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.residues)

    def __str__(self) -> str:
        if len(self.residues) == 1:
            return str(self.residues[0])
        return "(" + ",".join(str(a) for a in self.residues) + ")"


@dataclass(frozen=True)
class RingVec:
    """A vector over a RingSpec ring; coords[i] is coordinate i's residue tuple."""

    spec: RingSpec
    coords: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, spec: RingSpec, items: Iterable) -> "RingVec":
        """Build a vector from integers, residue tuples, or RingElem entries."""
        coords = []
        for item in items:
            if isinstance(item, RingElem):
                if item.spec != spec:
                    raise ValueError("entry from a different ring")
                coords.append(item.residues)
            else:
                coords.append(spec.elem(item).residues)
        return cls(spec, tuple(coords))

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> RingElem:
        return RingElem(self.spec, self.coords[i])

    def __iter__(self) -> Iterator[RingElem]:
        for residues in self.coords:
            yield RingElem(self.spec, residues)

    def component(self, f: int) -> tuple[int, ...]:
        """Residues of factor f across all coordinates (a Z_{t_f} vector)."""
        return tuple(c[f] for c in self.coords)

    def components(self) -> tuple[tuple[int, ...], ...]:
        """component(f) for every factor f, in one pass."""
        if not self.coords:
            return ((),) * len(self.spec.factors)
        return tuple(zip(*self.coords))

    def __str__(self) -> str:
        return "[" + " ".join(str(RingElem(self.spec, c)) for c in self.coords) + "]"


def zero_vec(spec: RingSpec, n: int) -> RingVec:
    return RingVec(spec, ((0,) * len(spec.factors),) * n)


def from_components(spec: RingSpec, components: Sequence[Sequence[int]]) -> RingVec:
    """Assemble a vector from one Z_{t_f} vector per factor (inverse of component)."""
    n = len(components[0])
    if any(len(comp) != n for comp in components):
        raise ValueError("factor components disagree on length")
    coords = tuple(
        tuple(int(components[f][i]) % t for f, t in enumerate(spec.factors))
        for i in range(n)
    )
    return RingVec(spec, coords)


def vec_add(x: RingVec, y: RingVec) -> RingVec:
    _check_pair(x, y)
    fac = x.spec.factors
    return RingVec(
        x.spec,
        tuple(
            tuple((a + b) % t for a, b, t in zip(cx, cy, fac))
            for cx, cy in zip(x.coords, y.coords)
        ),
    )


def vec_sub(x: RingVec, y: RingVec) -> RingVec:
    _check_pair(x, y)
    fac = x.spec.factors
    return RingVec(
        x.spec,
        tuple(
            tuple((a - b) % t for a, b, t in zip(cx, cy, fac))
            for cx, cy in zip(x.coords, y.coords)
        ),
    )


def vec_neg(x: RingVec) -> RingVec:
    fac = x.spec.factors
    return RingVec(
        x.spec, tuple(tuple((-a) % t for a, t in zip(c, fac)) for c in x.coords)
    )


def scale(r: RingElem, x: RingVec) -> RingVec:
    """Scalar multiple r*x, componentwise per factor."""
    if r.spec != x.spec:
        raise ValueError("scalar from a different ring")
    fac = x.spec.factors
    rr = r.residues
    return RingVec(
        x.spec, tuple(tuple((s * a) % t for s, a, t in zip(rr, c, fac)) for c in x.coords)
    )


def dot(x: RingVec, y: RingVec) -> RingElem:
    """Standard bilinear form sum_i x_i * y_i."""
    _check_pair(x, y)
    if len(x.coords) != len(y.coords):
        raise ValueError("length mismatch in dot product")
    fac = x.spec.factors
    acc = [0] * len(fac)
    for cx, cy in zip(x.coords, y.coords):
        for f, t in enumerate(fac):
            acc[f] = (acc[f] + cx[f] * cy[f]) % t
    return RingElem(x.spec, tuple(acc))


def weight(x: RingVec) -> int:
    """Hamming weight: the number of nonzero coordinates."""
    zero = (0,) * len(x.spec.factors)
    return sum(1 for c in x.coords if c != zero)


def hamming(x: RingVec, y: RingVec) -> int:
    """Hamming distance: the number of coordinates where x and y differ."""
    _check_pair(x, y)
    if len(x.coords) != len(y.coords):
        raise ValueError("length mismatch in Hamming distance")
    return sum(1 for cx, cy in zip(x.coords, y.coords) if cx != cy)


def support(x: RingVec) -> tuple[int, ...]:
    zero = (0,) * len(x.spec.factors)
    return tuple(i for i, c in enumerate(x.coords) if c != zero)


def enumerate_vectors(spec: RingSpec, n: int) -> Iterator[RingVec]:
    """All of R^n in odometer order, last coordinate fastest.

    A coordinate value is itself ordered by its residue tuple (last factor
    fastest), so the whole stream is lexicographic in the flattened residues.
    Raises BudgetExceeded before yielding anything if |R|^n is too large.
    """
    check_budget(spec.cardinality**n, f"scan of R^{n}")
    coord_values = [residues for residues in product(*(range(t) for t in spec.factors))]
    for combo in product(coord_values, repeat=n):
        yield RingVec(spec, combo)


def _check_pair(x: RingVec, y: RingVec) -> None:
    if x.spec != y.spec:
        raise ValueError("vectors live in different rings")
