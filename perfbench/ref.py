"""Plain-integer reference computations for the benchmark's answer checks.

Nothing here imports ringcodes.  A ring is a tuple of factor moduli, an
element a tuple of residues (one per factor), a vector a tuple of elements
and a matrix a list of row vectors.  Everything is exact Python integer
arithmetic, so overflow cannot hide a wrong answer.
"""

from __future__ import annotations

import cmath
import math
from itertools import product


def is_prime(t: int) -> bool:
    if t < 2:
        return False
    i = 2
    while i * i <= t:
        if t % i == 0:
            return False
        i += 1
    return True


def zero(fac) -> tuple:
    return (0,) * len(fac)


def zero_vec(fac, n) -> tuple:
    return (zero(fac),) * n


def cardinality(fac) -> int:
    return math.prod(fac)


def product_vectors(fac, n):
    """All of R^n."""
    return product(elements(fac), repeat=n)


def add(x, y, fac):
    return tuple(tuple((a + b) % t for a, b, t in zip(u, v, fac)) for u, v in zip(x, y))


def sub(x, y, fac):
    return tuple(tuple((a - b) % t for a, b, t in zip(u, v, fac)) for u, v in zip(x, y))


def smul(r, x, fac):
    """Scalar r (an element) times the vector x."""
    return tuple(tuple(a * b % t for a, b, t in zip(r, u, fac)) for u in x)


def dot(x, y, fac) -> tuple:
    return tuple(sum(u[f] * v[f] for u, v in zip(x, y)) % t for f, t in enumerate(fac))


def syndrome(H, x, fac) -> tuple:
    """H x^T as a tuple of elements."""
    return tuple(dot(h, x, fac) for h in H)


def columns(S) -> list:
    return [tuple(row[j] for row in S) for j in range(len(S[0]))]


def weight(x) -> int:
    return sum(1 for u in x if any(u))


def elements(fac):
    return list(product(*(range(t) for t in fac)))


def factor_rows(M, f):
    """The factor-f residues of a matrix, as lists of ints."""
    return [[u[f] for u in row] for row in M]


def rank_mod_p(M, p) -> int:
    return len(_rref_mod_p(M, p)[1])


def _rref_mod_p(M, p):
    A = [[v % p for v in row] for row in M]
    pivots = []
    r = 0
    for c in range(len(A[0]) if A else 0):
        pivot_row = next((i for i in range(r, len(A)) if A[i][c]), None)
        if pivot_row is None:
            continue
        A[r], A[pivot_row] = A[pivot_row], A[r]
        inv = pow(A[r][c], -1, p)
        A[r] = [v * inv % p for v in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                g = A[i][c]
                A[i] = [(a - g * b) % p for a, b in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == len(A):
            break
    return A[:r], pivots


def nullspace_mod_p(M, p, n):
    """A basis of {x in Z_p^n : M x^T = 0}."""
    R, pivots = _rref_mod_p(M, p) if M else ([], [])
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[fc] = 1
        for row, pc in zip(R, pivots):
            v[pc] = (-row[fc]) % p
        basis.append(v)
    return basis


def kernel_cardinality(H, fac, n) -> int:
    """|{x : H x^T = 0}|, factor by factor: rank over prime factors, else a scan."""
    card = 1
    for f, t in enumerate(fac):
        rows = factor_rows(H, f)
        if is_prime(t):
            card *= t ** (n - rank_mod_p(rows, t))
        else:
            if t**n > 10**6:
                raise ValueError(f"no reference kernel size for Z{t}^{n}")
            card *= sum(
                1 for x in product(range(t), repeat=n)
                if all(sum(a * b for a, b in zip(h, x)) % t == 0 for h in rows)
            )
    return card


def basis_vectors(basis_per_factor, fac, n) -> list:
    """Per-factor basis vectors lifted to ring vectors (zero in the other factors)."""
    return [
        tuple(tuple(b[i] if g == f else 0 for g in range(len(fac))) for i in range(n))
        for f, basis in enumerate(basis_per_factor) for b in basis
    ]


def span_elements(basis_per_factor, fac, n):
    """All combinations of the per-factor basis vectors (the kernel D)."""
    per_factor = []
    for f, t in enumerate(fac):
        vecs = set()
        for coeffs in product(range(t), repeat=len(basis_per_factor[f])):
            v = [0] * n
            for c, b in zip(coeffs, basis_per_factor[f]):
                if c:
                    v = [(a + c * bb) % t for a, bb in zip(v, b)]
            vecs.add(tuple(v))
        per_factor.append(sorted(vecs))
    return [
        tuple(tuple(comp[i] for comp in combo) for i in range(n))
        for combo in product(*per_factor)
    ]


def difference_weights(D, reps, fac, n):
    """Histogram over k, l and w in D of wt(rep_l - rep_k + w).

    Every ordered codeword pair (rep_k + u, rep_l + v) has difference
    rep_l - rep_k + (v - u), and v - u runs over D |D| times, so this
    histogram times |D| is the distance distribution.
    """
    hist = [0] * (n + 1)
    for k in reps:
        for l in reps:
            shift = sub(l, k, fac)
            for w in D:
                hist[weight(add(shift, w, fac))] += 1
    return hist


def min_distance_brute(D, reps, fac, n) -> int:
    """Least weight of a nonzero codeword difference, from the words themselves."""
    hist = difference_weights(D, reps, fac, n)
    return next(i for i in range(1, n + 1) if hist[i])


def mds_weight_distribution(q: int, n: int, d: int) -> list:
    """A_w of an MDS code over a field of q elements with distance d."""
    out = [0] * (n + 1)
    out[0] = 1
    for w in range(d, n + 1):
        out[w] = math.comb(n, w) * sum(
            (-1) ** j * math.comb(w, j) * (q ** (w - d + 1 - j) - 1)
            for j in range(w - d + 1)
        )
    return out


def binomial_substitution(coeffs, q: int, n: int) -> list:
    """Coefficients of sum_w c_w (x + (q-1)y)^(n-w) (x-y)^w, exact."""
    out = [0] * (n + 1)
    for w, c in enumerate(coeffs):
        if not c:
            continue
        for i in range(n - w + 1):
            left = math.comb(n - w, i) * (q - 1) ** i
            for j in range(w + 1):
                out[i + j] += c * left * math.comb(w, j) * (-1) ** j
    return out


def char_exponent(a, fac) -> int:
    """e with eps(a) = zeta_L^e for the generating character of the ring."""
    L = math.lcm(*fac)
    return sum(r * (L // t) for r, t in zip(a, fac)) % L


def fourier_counts(x, reps, kernel_card, fac) -> dict:
    """{exponent k: count} of the code indicator's coefficient at x in dual(D)."""
    L = math.lcm(*fac)
    out: dict = {}
    for d in reps:
        k = (-char_exponent(dot(x, d, fac), fac)) % L
        out[k] = out.get(k, 0) + kernel_card
    return out


def abs2(counts: dict, L: int) -> float:
    v = sum(c * cmath.exp(2j * cmath.pi * k / L) for k, c in counts.items())
    return abs(v) ** 2


def kernel_syndromes(cols, fac) -> list:
    """Syndromes s with r s + col(S) = col(S) for every scalar r."""
    colset = set(cols)
    cands = {sub(c, cols[0], fac) for c in cols}
    for base in cols[1:]:
        cands &= {sub(c, base, fac) for c in cols}
    out = []
    for sigma in sorted(cands):
        if all(
            {add(smul(r, sigma, fac), c, fac) for c in cols} == colset
            for r in elements(fac)
        ):
            out.append(sigma)
    return out


def cols_linear(cols, fac) -> bool:
    colset = set(cols)
    if any(add(a, b, fac) not in colset for a in cols for b in cols):
        return False
    return all(smul(r, a, fac) in colset for r in elements(fac) for a in cols)
