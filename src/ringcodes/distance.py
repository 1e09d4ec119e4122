"""Minimum distance and bounded-distance decoding straight from a system.

Both operations only ever touch syndromes.  The minimum distance of the
code of (H|S) is the least weight of a nonzero x whose syndrome lands in
S^diff, the set of column differences S_col(l) - S_col(k) for k < l
together with 0 (the 0 covers pairs inside one coset; orientation of each
difference is irrelevant because x and -x share a weight).  Decoding a
received word x within radius floor((d-1)/2) searches error vectors y by
increasing weight until H(x - y)^T hits a column of S.

Both are one search: the first y in weight-shell order whose weight lies
in a range and with rho - H y^T in a target set Z; the distance takes
rho = 0 and Z = -S^diff, decoding rho = H x^T and Z = col(S).  It runs on
the system's cached reachability tables over R^m (see reach.py) when
those fit in DEFAULT_BUDGET bytes, and otherwise lists the weight shells
of R^n, up to DEFAULT_BUDGET vectors; both routes give the same answers.
The distance is cached on the system either way.
"""

from __future__ import annotations

import math
from itertools import combinations, product
from typing import Iterator, Optional, Sequence

from .pcs import ParityCheckSystem, member, syndrome_filter
from .rings import (
    RingSpec,
    RingVec,
    Value,
    check_budget,
    vec_neg,
    vec_sub,
    zero_vec,
)


class DegenerateCode(Exception):
    """The code has a single word, so no distance (and no radius) exists."""


class BeyondRadius(Exception):
    """No codeword within the guaranteed-unique decoding radius."""

    def __init__(self, received: RingVec, radius: int):
        self.received = received
        self.radius = radius
        super().__init__(f"no codeword within radius {radius} of {received}")


class DecodeResult(Value):
    __slots__ = __match_args__ = ("codeword", "coset_index", "error_vector", "error_weight")

    def __init__(self, codeword: RingVec, coset_index: int, error_vector: RingVec,
                 error_weight: int):
        self.codeword = codeword
        self.coset_index = coset_index
        self.error_vector = error_vector
        self.error_weight = error_weight


def sdiff(pcs: ParityCheckSystem) -> tuple[RingVec, ...]:
    """Ordered-pair column differences (k < l) plus zero, sorted by residues."""
    cols = pcs.s_cols
    check_budget(len(cols) * (len(cols) - 1) // 2, "column differences", "pairs")
    out = {zero_vec(pcs.spec, pcs.m)}
    for k in range(len(cols)):
        for l in range(k + 1, len(cols)):
            out.add(vec_sub(cols[l], cols[k]))
    return tuple(sorted(out, key=lambda v: v.flat))


def weight_shell(spec: RingSpec, n: int, w: int) -> Iterator[RingVec]:
    """All weight-w vectors: supports lexicographic, values in nonzero_residues
    order.  Raises BudgetExceeded before listing anything if the shell is too large."""
    if w == 0:
        yield zero_vec(spec, n)
        return
    check_budget(math.comb(n, w) * (spec.cardinality - 1) ** w, "weight shell")
    k = spec.nfactors
    nonzero = spec.nonzero_residues()
    for supp in combinations(range(n), w):
        flat = [0] * (n * k)  # every value overwrites the same w slots
        slots = [slice(pos * k, pos * k + k) for pos in supp]
        for values in product(nonzero, repeat=w):
            for slot, val in zip(slots, values):
                flat[slot] = val
            yield RingVec._of(spec, tuple(flat))


def min_distance_witness(pcs: ParityCheckSystem) -> tuple[int, RingVec]:
    """Minimum distance plus the first witness in shell order.

    The witness is a nonzero vector of minimal weight whose syndrome lies in
    S^diff; shell order makes it a deterministic function of the system.
    The answer is cached on the system.
    """
    if pcs.s == 1 and pcs.kernel_cardinality == 1:
        raise DegenerateCode("the code has exactly one word")
    if pcs._distance is None:
        # x with 0 - H x^T in -S^diff, i.e. H x^T in S^diff
        found = _first(
            pcs, zero_vec(pcs.spec, pcs.m), [vec_neg(v) for v in sdiff(pcs)], 1, pcs.n
        )
        if found is None:
            raise AssertionError("unreachable: two distinct words differ somewhere")
        pcs._distance = found
    return pcs._distance


def min_distance(pcs: ParityCheckSystem) -> int:
    return min_distance_witness(pcs)[0]


def decode(pcs: ParityCheckSystem, x: RingVec) -> DecodeResult:
    """Nearest-codeword decoding inside the unique-decoding radius.

    Within the radius floor((d-1)/2) the nearest codeword is unique, so the
    first error vector y in shell order with H x^T - H y^T a column of S is
    the answer.  Outside it, raises BeyondRadius.
    """
    if x.spec != pcs.spec or len(x) != pcs.n:
        raise ValueError("received word does not match the ambient space")
    radius = (min_distance(pcs) - 1) // 2
    found = _first(pcs, pcs.syndrome(x), pcs.s_cols, 0, radius)
    if found is None:
        raise BeyondRadius(x, radius)
    w, y = found
    codeword = vec_sub(x, y)  # H x^T - H y^T is a column of S
    return DecodeResult(codeword, member(pcs, codeword), y, w)


def _first(
    pcs: ParityCheckSystem, rho: RingVec, targets: Sequence[RingVec], lo: int, hi: int
) -> Optional[tuple[int, RingVec]]:
    """(w, y) for the first y in shell order with lo <= w <= hi and
    rho - H y^T in targets, or None.

    The search runs on the system's reachability tables unless they would
    outgrow DEFAULT_BUDGET bytes; then it lists the weight shells.
    """
    space = pcs.syndrome_space()
    if space is None:
        return _shell_first(pcs, rho, targets, lo, hi)
    table = space.table(targets)
    r = space.index(rho)
    for w in range(lo, hi + 1):
        if table.reaches(r, w):
            return w, table.first(r, w)
    return None


def _shell_first(
    pcs: ParityCheckSystem, rho: RingVec, targets: Sequence[RingVec], lo: int, hi: int
) -> Optional[tuple[int, RingVec]]:
    """_first by listing the weight shells of R^n."""
    hits = syndrome_filter(pcs, [vec_sub(rho, z) for z in targets])
    for w, y in _shell_errors(pcs, hi):
        if w >= lo and hits(y):
            return w, y
    return None


def _shell_errors(pcs: ParityCheckSystem, radius: int) -> Iterator[tuple[int, RingVec]]:
    """Every error vector of weight at most radius, in shell order.

    A shell is entered only when it and all shells before it hold at most
    DEFAULT_BUDGET vectors together; otherwise BudgetExceeded names that
    count.
    """
    q, n = pcs.spec.cardinality, pcs.n
    needed = 0
    for w in range(radius + 1):
        needed += math.comb(n, w) * (q - 1) ** w
        check_budget(needed, "weight-shell search")
        for y in weight_shell(pcs.spec, n, w):
            yield w, y
