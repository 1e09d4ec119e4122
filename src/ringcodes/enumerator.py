"""Distance enumerators computed from syndrome data alone.

The two-variable system polynomial N(x, y) collects |Fourier coefficient|^2
mass by weight over the row span of H.  Substituting
(x + (|R|-1) y, x - y) and dividing by |R|^n turns it into the distance
distribution D(x, y) of the code, whose coefficient on x^(n-i) y^i counts
ordered codeword pairs at Hamming distance i.  For linear codes D / |C| is
the weight enumerator and matches the MacWilliams transform of the dual
code's enumerator, giving a second, independent route to the same
polynomial.

Every step is integer arithmetic.  The span of [H | S] lists the pairs
(h, S_h), and with e_j the character exponent of S_h(j),
|F(h)|^2 = c^2 sum_{j,l} zeta_L^(e_l - e_j) with c = |R|^n / |row span|.
A unit a mod L maps h to a h, which keeps the weight and the row span and
multiplies every exponent by a, so each weight bin is fixed by the Galois
group of Q(zeta_L): its terms zeta^k come in whole classes of equal
d = L / gcd(k, L), and each class sums to count * mu(d) / phi(d), since
the primitive d-th roots of unity sum to mu(d) (a Ramanujan sum).
"""

from __future__ import annotations

import math
from typing import Sequence

from .howell import span_blocks
from .pcs import ParityCheckSystem, is_linear, pcs_to_code
from .rings import Value, check_budget
from .submodules import Submodule


class NonIntegerCoefficient(Exception):
    """A coefficient that must be an integer is not one; a bug, not bad input."""

    def __init__(self, index: int, numerator: int, denominator: int):
        self.index = index
        self.numerator = numerator
        self.denominator = denominator
        super().__init__(
            f"coefficient {index} is {numerator}/{denominator}, expected an integer"
        )


class EnumeratorPoly(Value):
    """Homogeneous two-variable polynomial; coefficient i sits on x^(n-i) y^i."""

    __slots__ = __match_args__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: tuple[int, ...]):
        if len(coeffs) != n + 1:
            raise ValueError("need exactly n + 1 coefficients")
        self.n = n
        self.coeffs = coeffs

    def coefficient(self, i: int) -> int:
        return self.coeffs[i]

    def evaluate(self, x: complex, y: complex) -> complex:
        return sum(
            c * x ** (self.n - i) * y**i for i, c in enumerate(self.coeffs) if c
        )

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            xs = f"x^{self.n - i}" if self.n - i > 1 else ("x" if self.n - i else "")
            ys = f"y^{i}" if i > 1 else ("y" if i else "")
            mono = "".join(p for p in (xs, ys) if p) or "1"
            parts.append(f"{c}{'*' + mono if mono != '1' else ''}")
        return " + ".join(parts) if parts else "0"


def _divide_exact(values: Sequence[int], divisor: int) -> list[int]:
    out = []
    for i, v in enumerate(values):
        quot, rem = divmod(v, divisor)
        if rem:
            raise NonIntegerCoefficient(i, v, divisor)
        out.append(quot)
    return out


def _weights(block, n: int):
    """Hamming weights of the first n coordinates of a span block's points, as an array."""
    import numpy as np

    return np.logical_or.reduce([part[:, :n] != 0 for part in block]).sum(axis=1)


def _prime_divisors(t: int) -> list[int]:
    primes, p = [], 2
    while p * p <= t:
        if t % p == 0:
            primes.append(p)
            while t % p == 0:
                t //= p
        p += 1 if p == 2 else 2
    if t > 1:
        primes.append(t)
    return primes


def _mobius_phi(d: int, primes: Sequence[int]) -> tuple[int, int]:
    """mu(d) and phi(d) for a d whose prime divisors are all in primes."""
    mu, phi = 1, d
    for p in primes:
        if d % p == 0:
            mu = 0 if d % (p * p) == 0 else -mu
            phi = phi // p * (p - 1)
    return mu, phi


def _weight_bins(pcs: ParityCheckSystem) -> list[int]:
    """Exact sum of |Fourier coefficient|^2 per weight over the row span of H."""
    import numpy as np

    card = pcs.row_module.cardinality
    check_budget(card, "row span walk")
    check_budget(card * pcs.s * pcs.s, "exponent pairs", "pairs")
    spec, n = pcs.spec, pcs.n
    L = spec.char_order
    # an exponent plus a term stays below 2^63 while L < 2^62
    dtype = np.int64 if L < 2**62 else object
    pairs: dict = {}  # gcd(e_l - e_j, L) -> number of (h, j, l) per weight
    for block in span_blocks(pcs.hs_forms):
        w = _weights(block, n)
        # the s pairs j = l have gcd L; gcd(-d, L) = gcd(d, L) counts l < j as j < l
        pairs[L] = pairs.get(L, 0) + pcs.s * np.bincount(w, minlength=n + 1)
        if pcs.s == 1:
            continue  # no pair j < l reads the exponents
        e = np.zeros((len(w), pcs.s), dtype=dtype)
        for part, cw in zip(block, spec.character_weights):
            e = (e + part[:, n:].astype(dtype) * cw) % L
        for j in range(pcs.s - 1):
            # index the gcds that occur, then count (index, weight) in one array
            g, inv = np.unique(np.gcd(e[:, j + 1 :] - e[:, j : j + 1], L), return_inverse=True)
            keys = (inv.reshape(len(w), -1) * (n + 1) + w[:, None]).ravel()
            counts = np.bincount(keys, minlength=len(g) * (n + 1))
            for gk, row in zip(g.tolist(), counts.reshape(len(g), n + 1)):
                pairs[gk] = pairs.get(gk, 0) + 2 * row
    primes = sorted({p for t in spec.factors for p in _prime_divisors(t)})
    _, phi_L = _mobius_phi(L, primes)
    sums = [0] * (n + 1)
    for g, row in pairs.items():
        mu, phi = _mobius_phi(L // g, primes)
        for wk, count in enumerate(row.tolist()):
            sums[wk] += count * mu * (phi_L // phi)
    c = spec.cardinality**n // card
    return [c * c * v for v in _divide_exact(sums, phi_L)]


def pcs_enumerator_poly(pcs: ParityCheckSystem) -> EnumeratorPoly:
    """The system polynomial N(x, y), exactly."""
    return EnumeratorPoly(pcs.n, tuple(_weight_bins(pcs)))


def _binomial_substitution(coeffs: Sequence[int], q: int, n: int) -> list[int]:
    """Coefficients of sum_w c_w (x + (q-1) y)^(n-w) (x - y)^w."""
    out = [0] * (n + 1)
    a = q - 1
    for w, c in enumerate(coeffs):
        if not c:
            continue
        left = [math.comb(n - w, i) * a**i for i in range(n - w + 1)]
        right = [math.comb(w, i) * (-1) ** i for i in range(w + 1)]
        for i, li in enumerate(left):
            if not li:
                continue
            for j, rj in enumerate(right):
                out[i + j] += c * li * rj
    return out


def distance_distribution(pcs: ParityCheckSystem) -> EnumeratorPoly:
    """Ordered-pair distance counts D_0..D_n: N(x + (|R|-1) y, x - y) / |R|^n.

    Raises NonIntegerCoefficient when any coefficient is not an integer,
    which a valid system never produces.
    """
    q = pcs.spec.cardinality
    return macwilliams_transform(pcs_enumerator_poly(pcs), q, q**pcs.n)


def macwilliams_transform(poly: EnumeratorPoly, q: int, divisor: int) -> EnumeratorPoly:
    """(1/divisor) * poly(x + (q-1) y, x - y), demanding integer output."""
    raw = _binomial_substitution(poly.coeffs, q, poly.n)
    return EnumeratorPoly(poly.n, tuple(_divide_exact(raw, divisor)))


def weight_enumerator_linear(pcs: ParityCheckSystem) -> EnumeratorPoly:
    """Weight enumerator of a linear code, cross-checked along two routes.

    Route one divides the distance distribution by |C|.  Route two builds
    the actual dual code (the annihilator of the module the code spans) and
    MacWilliams-transforms its weight enumerator.  The routes must agree
    coefficient by coefficient; a mismatch means a bug, not bad input.
    """
    import numpy as np

    if not is_linear(pcs):
        raise ValueError("the code of this system is not linear")
    size = pcs.code_cardinality()
    direct = _divide_exact(distance_distribution(pcs).coeffs, size)
    direct_poly = EnumeratorPoly(pcs.n, tuple(direct))

    pres = pcs_to_code(pcs)
    code_module = Submodule.from_generators(
        pcs.spec,
        pcs.n,
        pcs.kernel_module.canonical_generators() + pres.representatives,
    )
    if code_module.cardinality != size:  # pragma: no cover - guarded by is_linear
        raise AssertionError("linear code does not span its own cardinality")
    # the dual lies in the row span of H, which route one walked in budget
    dual = code_module.annihilator()
    counts = np.zeros(pcs.n + 1, dtype=np.int64)
    for block in span_blocks(dual.forms):
        counts += np.bincount(_weights(block, pcs.n), minlength=pcs.n + 1)
    dual_poly = EnumeratorPoly(pcs.n, tuple(counts.tolist()))
    via_dual = macwilliams_transform(dual_poly, pcs.spec.cardinality, dual.cardinality)
    if direct_poly != via_dual:
        raise AssertionError(
            f"enumerator routes disagree: {direct_poly} vs {via_dual}"
        )
    return direct_poly
