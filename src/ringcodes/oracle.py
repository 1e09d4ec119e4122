"""Brute-force reference computations used to cross-check everything else.

Nothing here touches Howell forms, cached submodules or syndrome algebra:
only elementwise ring arithmetic and exhaustive scans, so agreement with
the main routines is meaningful evidence.  All scans are budget-gated.
"""

from __future__ import annotations

import cmath
from typing import Iterable, Optional, Sequence

from .pcs import ParityCheckSystem
from .rings import (
    RingSpec,
    RingVec,
    Value,
    check_budget,
    dot,
    enumerate_vectors,
    hamming,
    scale,
    vec_add,
    vec_sub,
    zero_vec,
)


class ExplicitCode(Value):
    """A code as a plain set of words."""

    __slots__ = __match_args__ = ("spec", "n", "words")

    def __init__(self, spec: RingSpec, n: int, words: frozenset[RingVec]):
        if not words:
            raise ValueError("a code must be nonempty")
        self.spec = spec
        self.n = n
        self.words = words

    @property
    def cardinality(self) -> int:
        return len(self.words)


def _gate_pairs(code: ExplicitCode) -> None:
    check_budget(len(code.words) ** 2, "all-pairs scan")


def oracle_code_from_pcs(pcs: ParityCheckSystem) -> ExplicitCode:
    """Scan R^n and keep the words whose syndrome is a column of S."""
    colset = set(pcs.s_cols)
    words = []
    for x in enumerate_vectors(pcs.spec, pcs.n):
        syn = RingVec.of(pcs.spec, [dot(h, x) for h in pcs.h_rows])
        if syn in colset:
            words.append(x)
    return ExplicitCode(pcs.spec, pcs.n, frozenset(words))


def oracle_min_distance(code: ExplicitCode) -> int:
    """Minimum over all pairs of distinct words."""
    if len(code.words) < 2:
        raise ValueError("minimum distance needs at least two words")
    _gate_pairs(code)
    words = sorted(code.words, key=lambda v: v.coords)
    best = code.n
    for i, a in enumerate(words):
        for b in words[i + 1 :]:
            d = hamming(a, b)
            if d < best:
                best = d
    return best


def oracle_distance_distribution(code: ExplicitCode) -> list[int]:
    """Ordered-pair distance histogram, length n + 1."""
    _gate_pairs(code)
    words = list(code.words)
    hist = [0] * (code.n + 1)
    for a in words:
        for b in words:
            hist[hamming(a, b)] += 1
    return hist


def oracle_kernel(code: ExplicitCode) -> frozenset[RingVec]:
    """{y : r y + c is a word, for every scalar r and word c}, by scanning.

    The r = 1 case already forces y to be a difference of words, so the
    candidates are taken from word differences before the full scan.
    """
    words = code.words
    first = next(iter(sorted(words, key=lambda v: v.coords)))
    candidates = {vec_sub(w, first) for w in words}
    check_budget(len(candidates) * len(words) * code.spec.cardinality, "kernel scan")
    scalars = code.spec.elements()
    out = []
    for y in candidates:
        ok = True
        for r in scalars:
            ry = scale(r, y)
            if any(vec_add(ry, c) not in words for c in words):
                ok = False
                break
        if ok:
            out.append(y)
    return frozenset(out)


def oracle_is_linear(code: ExplicitCode) -> bool:
    """Closure of the word set under addition and scalar multiples."""
    _gate_pairs(code)
    words = code.words
    for a in words:
        for b in words:
            if vec_add(a, b) not in words:
                return False
    check_budget(len(words) * code.spec.cardinality, "scalar scan")
    for r in code.spec.elements():
        for a in words:
            if scale(r, a) not in words:
                return False
    return True


def oracle_annihilator(
    spec: RingSpec, n: int, vectors: Iterable[RingVec]
) -> frozenset[RingVec]:
    """All y in R^n with x . y = 0 for every given x, by scanning R^n."""
    vecs = list(vectors)
    out = []
    for y in enumerate_vectors(spec, n):
        if all(dot(x, y).is_zero() for x in vecs):
            out.append(y)
    return frozenset(out)


def oracle_fourier(code: ExplicitCode, x: RingVec) -> complex:
    """Direct complex sum of the conjugated character over the words."""
    spec = code.spec
    L = spec.char_order
    weights = [L // t for t in spec.factors]
    acc = 0j
    for c in code.words:
        e = 0
        for cx, cc in zip(x.coords, c.coords):
            for f, w in enumerate(weights):
                e += cx[f] * cc[f] * w
        acc += cmath.exp(-2j * cmath.pi * (e % L) / L)
    return acc


def oracle_nearest(code: ExplicitCode, x: RingVec) -> tuple[int, list[RingVec]]:
    """Distance to the code and every word attaining it."""
    best = code.n + 1
    hits: list[RingVec] = []
    for c in sorted(code.words, key=lambda v: v.coords):
        d = hamming(x, c)
        if d < best:
            best, hits = d, [c]
        elif d == best:
            hits.append(c)
    return best, hits


def oracle_validate(
    h_rows: Sequence[RingVec],
    s_rows: Sequence[RingVec],
) -> Optional[tuple[int, tuple]]:
    """Check the three system conditions by exhaustive scans.

    Returns None when all conditions hold, else (condition, witness) with
    1-based indices.  Condition (i) scans R^n for the image of each row;
    condition (iii) scans all coefficient vectors in R^m (coefficient pairs
    with equal combinations reduce to a single difference vector, which is
    what the scan visits).
    """
    spec = h_rows[0].spec
    n = len(h_rows[0])
    m = len(h_rows)
    s = len(s_rows[0])
    images = [set() for _ in range(m)]
    for x in enumerate_vectors(spec, n):
        for i, h in enumerate(h_rows):
            images[i].add(dot(h, x))
    for i in range(m):
        for j in range(s):
            if s_rows[i][j] not in images[i]:
                return (1, (i + 1, j + 1))
    cols = [tuple(r.coords[j] for r in s_rows) for j in range(s)]
    for a in range(s):
        for b in range(a + 1, s):
            if cols[a] == cols[b]:
                return (2, (a + 1, b + 1))
    zero_h, zero_s = zero_vec(spec, n), zero_vec(spec, s)
    for r in enumerate_vectors(spec, m):
        combo_h, combo_s = zero_h, zero_s
        for i in range(m):
            combo_h = vec_add(combo_h, scale(r[i], h_rows[i]))
            combo_s = vec_add(combo_s, scale(r[i], s_rows[i]))
        if combo_h == zero_h and combo_s != zero_s:
            return (3, tuple(r[i] for i in range(m)))
    return None
