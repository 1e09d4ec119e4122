"""Exact arithmetic over finite products of integer residue rings.

The ambient ring is R = Z_t1 x ... x Z_tk with componentwise operations.
The factors are arbitrary moduli >= 2; they are deliberately not collapsed
via CRT, so Z2xZ2 and Z4 are distinct rings with distinct module theory.
Elements are stored as reduced residue tuples, one residue per factor, and
a vector as one flat tuple of them, coordinate after coordinate.
"""

from __future__ import annotations

import math
import operator
import re
from itertools import cycle, product
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


class Value:
    """Equality, hash and repr over the fields named in __match_args__: equal
    only to the same class with equal fields (NotImplemented for any other
    class), hashed as the field tuple, shown as Name(field=value, ...).
    Immutable by convention: nothing assigns to a field after __init__.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        get = operator.attrgetter(*cls.__match_args__)  # one name gives the bare value
        cls._astuple = staticmethod(get if len(cls.__match_args__) > 1 else lambda v: (get(v),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple(self) == other._astuple(other)

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({args})"


class RingSpec(Value):
    """The ring Z_t1 x ... x Z_tk given by its tuple of factor moduli.

    char_order is L, the lcm of the moduli (the additive exponent), and
    character_weights holds L / t_f per factor (the generating character).
    """

    __match_args__ = ("factors",)
    __slots__ = ("factors", "char_order", "character_weights")

    def __init__(self, factors: tuple[int, ...]):
        if not factors:
            raise ValueError("a ring needs at least one factor")
        for t in factors:
            if not isinstance(t, int) or t < 2:
                raise ValueError(f"factor moduli must be integers >= 2, got {t!r}")
            if t >= MAX_MODULUS:
                raise ValueError(f"factor modulus {t} exceeds limit {MAX_MODULUS}")
        self.factors = factors
        self.char_order = L = math.lcm(*factors)
        self.character_weights = tuple(L // t for t in factors)

    def __eq__(self, other):
        if other.__class__ is not RingSpec:
            return NotImplemented
        return self is other or self.factors == other.factors

    def __hash__(self) -> int:
        return hash((self.factors,))

    @property
    def nfactors(self) -> int:
        return len(self.factors)

    @property
    def cardinality(self) -> int:
        return math.prod(self.factors)

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


class RingElem(Value):
    """One element of a RingSpec ring, stored as reduced residues."""

    __slots__ = __match_args__ = ("spec", "residues")

    def __init__(self, spec: RingSpec, residues: tuple[int, ...]):
        self.spec = spec
        self.residues = residues

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


class RingVec(Value):
    """A vector over a RingSpec ring: flat[i*k + f] is coordinate i's factor-f residue.

    coords rebuilds the per-coordinate tuples (the field of hash and repr);
    the hash is computed on first use and kept.  Every residue is a Python int with 0 <= residue < t_f, which the packed
    kernels of pcs.py rely on.  The public builders all reduce; the raw
    constructor RingVec(spec, coords) flattens coords and checks nothing.
    """

    __slots__ = ("spec", "flat", "_hash")
    __match_args__ = ("spec", "coords")

    def __init__(self, spec: RingSpec, coords: Iterable[Iterable[int]]):
        self.spec = spec
        self.flat = tuple([a for c in coords for a in c])
        self._hash = None

    @staticmethod
    def _of(spec: RingSpec, flat: tuple[int, ...]) -> "RingVec":
        """A vector of already flat, reduced residues, without copying them."""
        v = object.__new__(RingVec)
        v.spec = spec
        v.flat = flat
        v._hash = None
        return v

    @property
    def coords(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*[iter(self.flat)] * len(self.spec.factors)))

    def __eq__(self, other):
        if other.__class__ is not RingVec:
            return NotImplemented
        return self.flat == other.flat and (self.spec is other.spec or self.spec == other.spec)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            self._hash = h = hash((self.spec, self.coords))
        return h

    @classmethod
    def of(cls, spec: RingSpec, items: Iterable) -> "RingVec":
        """Build a vector from integers, residue tuples, or RingElem entries."""
        flat: list[int] = []
        for item in items:
            if isinstance(item, RingElem):
                if item.spec != spec:
                    raise ValueError("entry from a different ring")
                flat += item.residues
            else:
                flat += spec.elem(item).residues
        return RingVec._of(spec, tuple(flat))

    def __len__(self) -> int:
        return len(self.flat) // len(self.spec.factors)

    def __getitem__(self, i: int) -> RingElem:
        k = len(self.spec.factors)
        i = range(len(self))[i]
        return RingElem(self.spec, self.flat[i * k:i * k + k])

    def __iter__(self) -> Iterator[RingElem]:
        for residues in self.coords:
            yield RingElem(self.spec, residues)

    def component(self, f: int) -> tuple[int, ...]:
        """Residues of factor f across all coordinates (a Z_{t_f} vector)."""
        k = len(self.spec.factors)
        return self.flat[range(k)[f]::k]

    def components(self) -> tuple[tuple[int, ...], ...]:
        """component(f) for every factor f."""
        k = len(self.spec.factors)
        return tuple(self.flat[f::k] for f in range(k))

    def __str__(self) -> str:
        return "[" + " ".join(str(RingElem(self.spec, c)) for c in self.coords) + "]"


def zero_vec(spec: RingSpec, n: int) -> RingVec:
    return RingVec._of(spec, (0,) * (len(spec.factors) * n))


def from_components(spec: RingSpec, components: Sequence[Sequence[int]]) -> RingVec:
    """Assemble a vector from one Z_{t_f} vector per factor (inverse of component)."""
    n = len(components[0])
    if any(len(comp) != n for comp in components):
        raise ValueError("factor components disagree on length")
    flat = tuple(
        int(components[f][i]) % t for i in range(n) for f, t in enumerate(spec.factors)
    )
    return RingVec._of(spec, flat)


def vec_add(x: RingVec, y: RingVec) -> RingVec:
    _check_pair(x, y)
    sums = map(operator.add, x.flat, y.flat)
    return RingVec._of(x.spec, tuple(map(operator.mod, sums, cycle(x.spec.factors))))


def vec_sub(x: RingVec, y: RingVec) -> RingVec:
    _check_pair(x, y)
    diffs = map(operator.sub, x.flat, y.flat)
    return RingVec._of(x.spec, tuple(map(operator.mod, diffs, cycle(x.spec.factors))))


def vec_neg(x: RingVec) -> RingVec:
    negs = map(operator.neg, x.flat)
    return RingVec._of(x.spec, tuple(map(operator.mod, negs, cycle(x.spec.factors))))


def scale(r: RingElem, x: RingVec) -> RingVec:
    """Scalar multiple r*x, componentwise per factor."""
    if r.spec != x.spec:
        raise ValueError("scalar from a different ring")
    prods = map(operator.mul, cycle(r.residues), x.flat)
    return RingVec._of(x.spec, tuple(map(operator.mod, prods, cycle(x.spec.factors))))


def dot(x: RingVec, y: RingVec) -> RingElem:
    """Standard bilinear form sum_i x_i * y_i."""
    _check_pair(x, y)
    k = len(x.spec.factors)
    return RingElem(x.spec, tuple(
        sum(map(operator.mul, x.flat[f::k], y.flat[f::k])) % t
        for f, t in enumerate(x.spec.factors)
    ))


def weight(x: RingVec) -> int:
    """Hamming weight: the number of nonzero coordinates."""
    return sum(map(any, x.coords))


def hamming(x: RingVec, y: RingVec) -> int:
    """Hamming distance: the number of coordinates where x and y differ."""
    _check_pair(x, y)
    return sum(map(operator.ne, x.coords, y.coords))


def support(x: RingVec) -> tuple[int, ...]:
    return tuple(i for i, c in enumerate(x.coords) if any(c))


def enumerate_vectors(spec: RingSpec, n: int) -> Iterator[RingVec]:
    """All of R^n in odometer order, last coordinate fastest.

    A coordinate value is itself ordered by its residue tuple (last factor
    fastest), so the whole stream is lexicographic in the flat residues.
    Raises BudgetExceeded before yielding anything if |R|^n is too large.
    """
    check_budget(spec.cardinality**n, f"scan of R^{n}")
    for flat in product(*[range(t) for t in spec.factors] * n):
        yield RingVec._of(spec, flat)


def _check_pair(x: RingVec, y: RingVec) -> None:
    """The one check of vec_add, vec_sub, dot and hamming: same ring, same length."""
    if x.spec is not y.spec and x.spec != y.spec:
        raise ValueError("vectors live in different rings")
    if len(x.flat) != len(y.flat):
        raise ValueError("vectors differ in length")
