"""Distance enumerators computed from syndrome data alone.

The two-variable system polynomial N(x, y) collects |Fourier coefficient|^2
mass by weight over the row span of H.  Substituting
(x + (|R|-1) y, x - y) and dividing by |R|^n turns it into the distance
distribution D(x, y) of the code, whose coefficient on x^(n-i) y^i counts
ordered codeword pairs at Hamming distance i.  For linear codes D / |C| is
the weight enumerator and matches the MacWilliams transform of the dual
code's enumerator, giving a second, independent route to the same
polynomial.  N and D come from one walk per system and are kept in the
system's _enumerators slot, which every function here reads, so a second
call of any of them walks nothing.

Every step is integer arithmetic.  The span of [H | S] lists the pairs
(h, S_h), and with e_j the character exponent of S_h(j),
|F(h)|^2 = c^2 sum_{j,l} zeta_L^(e_l - e_j) with c = |R|^n / |row span|.
A unit a mod L maps h to a h, which keeps the weight and the row span and
multiplies every exponent by a, so each weight bin is fixed by the Galois
group of Q(zeta_L): its terms zeta^k come in whole classes of equal
d = L / gcd(k, L), and each class sums to count * mu(d) / phi(d), since
the primitive d-th roots of unity sum to mu(d) (a Ramanujan sum).

The span is walked with each point packed into one Python int
(howell.span_walk): its H part, whose popcount of nonzero-coordinate
flags is the weight, and one exponent field mod L per column of S.  The
points are counted by (weight, S part), and each distinct S part's pair
sum is computed once.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from .howell import field_bits, flat_rows, span_walk
from .pcs import ParityCheckSystem, is_linear, kernel
from .rings import Value, check_budget


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


def _weight_keys(rows: list, moduli: Sequence[int], k: int, n: int) -> Counter:
    """Count the points of span_walk(rows, moduli) by key: the Hamming weight
    of the first n coordinates (k fields each) OR the fields above them.

    A coordinate's k fields are one word of k*B bits whose top field holds
    a residue below 2^(B-1), so the word plus 2^(kB-1) - 1 carries into its
    top bit exactly when some field is nonzero; the popcount of those bits
    is the weight, kept in the key's low k*B*n bits.
    """
    W = k * field_bits(moduli)
    low = (1 << W * n) - 1
    top = sum(1 << (W * i + W - 1) for i in range(n))
    adj = sum((1 << (W * i + W - 1)) - (1 << W * i) for i in range(n))
    counts: Counter = Counter()
    for block in span_walk(rows, moduli):
        counts.update([(((p & low) + adj) & top).bit_count() | (p & ~low) for p in block])
    return counts


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
    """Exact sum of |Fourier coefficient|^2 per weight over the row span of H.

    The walk packs each point's H part and, for s > 1, one exponent field
    mod L per column of S; the exponent pairs are summed once per distinct
    S part that occurs.
    """
    card = pcs.row_module.cardinality
    check_budget(card, "row span walk")
    check_budget(card * pcs.s * pcs.s, "exponent pairs", "pairs")
    spec, n, s, k = pcs.spec, pcs.n, pcs.s, pcs.spec.nfactors
    L = spec.char_order
    rows, moduli = flat_rows(pcs.hs_forms, n), spec.factors * n
    if s > 1:  # s = 1 has no pair j < l to read the exponents; each row's S part times L / t_f
        exps = [[w * a for a in row[n:]] for w, hf in zip(spec.character_weights, pcs.hs_forms)
                for row in hf.rows]
        rows = [(fields + e, r) for (fields, r), e in zip(rows, exps)]
        moduli += (L,) * s
    E = field_bits(moduli)
    shift, emask = E * k * n, (1 << E) - 1
    wmask = (1 << shift) - 1  # the weight bits of a key
    primes = sorted({p for t in spec.factors for p in _prime_divisors(t)})
    _, phi_L = _mobius_phi(L, primes)
    ramanujan: dict = {}  # gcd(e_l - e_j, L) -> mu(d) phi(L) / phi(d), d = L / gcd
    pair_sums: dict = {}  # S part -> sum over (j, l) of the Ramanujan sums times phi(L)
    sums = [0] * (n + 1)
    for key, count in _weight_keys(rows, moduli, k, n).items():
        part = key >> shift
        if part not in pair_sums:
            e = [part >> E * j & emask for j in range(s)]
            # the s pairs j = l have gcd L; gcd(-d, L) = gcd(d, L) counts l < j as j < l
            total = s * phi_L
            for j in range(s - 1):
                for el in e[j + 1 :]:
                    g = math.gcd(el - e[j], L)
                    if g not in ramanujan:
                        mu, phi = _mobius_phi(L // g, primes)
                        ramanujan[g] = mu * (phi_L // phi)
                    total += 2 * ramanujan[g]
            pair_sums[part] = total
        sums[key & wmask] += count * pair_sums[part]
    c = spec.cardinality**n // card
    return [c * c * v for v in _divide_exact(sums, phi_L)]


def _polys(pcs: ParityCheckSystem) -> tuple:
    """pcs._enumerators, filled on first use: (N, D, W), W None until
    weight_enumerator_linear has cross-checked it."""
    if pcs._enumerators is None:
        q, n = pcs.spec.cardinality, pcs.n
        system = EnumeratorPoly(n, tuple(_weight_bins(pcs)))
        pcs._enumerators = (system, macwilliams_transform(system, q, q**n), None)
    return pcs._enumerators


def pcs_enumerator_poly(pcs: ParityCheckSystem) -> EnumeratorPoly:
    """The system polynomial N(x, y), exactly."""
    return _polys(pcs)[0]


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
            for j, rj in enumerate(right):
                out[i + j] += c * li * rj
    return out


def distance_distribution(pcs: ParityCheckSystem) -> EnumeratorPoly:
    """Ordered-pair distance counts D_0..D_n: N(x + (|R|-1) y, x - y) / |R|^n.

    Raises NonIntegerCoefficient when any coefficient is not an integer,
    which a valid system never produces.
    """
    return _polys(pcs)[1]


def macwilliams_transform(poly: EnumeratorPoly, q: int, divisor: int) -> EnumeratorPoly:
    """(1/divisor) * poly(x + (q-1) y, x - y), demanding integer output."""
    raw = _binomial_substitution(poly.coeffs, q, poly.n)
    return EnumeratorPoly(poly.n, tuple(_divide_exact(raw, divisor)))


def weight_enumerator_linear(pcs: ParityCheckSystem) -> EnumeratorPoly:
    """Weight enumerator of a linear code, cross-checked along two routes.

    Route one divides the distance distribution by |C|.  Route two builds
    the actual dual code, the annihilator of the code's kernel (a linear
    code is its own kernel), and MacWilliams-transforms its weight
    enumerator.  The routes must agree coefficient by coefficient; a
    mismatch means a bug, not bad input.  The checked answer is kept with
    N and D, so a second call walks nothing.
    """
    if not is_linear(pcs):
        raise ValueError("the code of this system is not linear")
    system, dist, direct_poly = _polys(pcs)
    if direct_poly is not None:
        return direct_poly
    size = pcs.code_cardinality()
    direct_poly = EnumeratorPoly(pcs.n, tuple(_divide_exact(dist.coeffs, size)))

    code_module = kernel(pcs)
    if code_module.cardinality != size:  # pragma: no cover - guarded by is_linear
        raise AssertionError("linear code does not span its own cardinality")
    # the dual lies in the row span of H, which route one walked in budget
    dual = code_module.annihilator()
    counts = _weight_keys(flat_rows(dual.forms, pcs.n), pcs.spec.factors * pcs.n,
                          pcs.spec.nfactors, pcs.n)
    dual_poly = EnumeratorPoly(pcs.n, tuple(counts[w] for w in range(pcs.n + 1)))
    via_dual = macwilliams_transform(dual_poly, pcs.spec.cardinality, dual.cardinality)
    if direct_poly != via_dual:
        raise AssertionError(
            f"enumerator routes disagree: {direct_poly} vs {via_dual}"
        )
    pcs._enumerators = (system, dist, direct_poly)
    return direct_poly
