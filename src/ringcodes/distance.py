"""Minimum distance and bounded-distance decoding straight from a system.

Both operations only ever touch syndromes.  The minimum distance of the
code of (H|S) is the least weight of a nonzero x whose syndrome lands in
S^diff, the set of column differences S_col(l) - S_col(k) for k < l
together with 0 (the 0 covers pairs inside one coset; orientation of each
difference is irrelevant because x and -x share a weight).  Decoding a
received word x within radius floor((d-1)/2) searches error vectors y by
increasing weight until H(x - y)^T hits a column of S.

Both searches return the first hit in weight-shell order.  They run on the
system's cached reachability tables over R^m (see reach.py) when those fit
in DEFAULT_BUDGET bytes, and otherwise list the weight shells of R^n, up
to DEFAULT_BUDGET vectors; both routes give the same answers.  The
distance is cached on the system either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator, Optional

from .pcs import ParityCheckSystem
from .reach import SyndromeSpace
from .rings import (
    RingSpec,
    RingVec,
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


@dataclass(frozen=True)
class SyndromeSet:
    """An immutable set of syndrome vectors with fast membership."""

    elements: frozenset[RingVec]

    def __contains__(self, v: RingVec) -> bool:
        return v in self.elements

    def __iter__(self):
        return iter(sorted(self.elements, key=lambda v: v.coords))

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class DecodeResult:
    codeword: RingVec
    coset_index: int
    error_vector: RingVec
    error_weight: int


def sdiff(pcs: ParityCheckSystem) -> SyndromeSet:
    """Ordered-pair column differences (k < l) plus zero."""
    cols = pcs.s_cols
    out = {zero_vec(pcs.spec, pcs.m)}
    for k in range(len(cols)):
        for l in range(k + 1, len(cols)):
            out.add(vec_sub(cols[l], cols[k]))
    return SyndromeSet(frozenset(out))


def weight_shell(spec: RingSpec, n: int, w: int) -> Iterator[RingVec]:
    """All weight-w vectors: supports lexicographic, values odometer order."""
    if w == 0:
        yield zero_vec(spec, n)
        return
    zero = (0,) * spec.nfactors
    nonzero = [e.residues for e in spec.elements() if e.residues != zero]
    for supp in combinations(range(n), w):
        for values in product(nonzero, repeat=w):
            coords = [zero] * n
            for pos, val in zip(supp, values):
                coords[pos] = val
            yield RingVec(spec, tuple(coords))


def min_distance_witness(pcs: ParityCheckSystem) -> tuple[int, RingVec]:
    """Minimum distance plus the first witness in shell order.

    The witness is a nonzero vector of minimal weight whose syndrome lies in
    S^diff; shell order makes it a deterministic function of the system.
    The search runs on the system's reachability tables unless they would
    outgrow DEFAULT_BUDGET bytes; then it lists the weight shells.  The
    answer is cached on the system.
    """
    if pcs.s == 1 and pcs.kernel_module.cardinality == 1:
        raise DegenerateCode("the code has exactly one word")
    if pcs._distance is None:
        space = pcs.syndrome_space()
        pcs._distance = _shell_witness(pcs) if space is None else _table_witness(pcs, space)
    return pcs._distance


def _table_witness(pcs: ParityCheckSystem, space: SyndromeSpace) -> tuple[int, RingVec]:
    """min_distance_witness on the reachability tables."""
    # x with 0 - H x^T in -S^diff, i.e. H x^T in S^diff
    table = space.table(vec_neg(v) for v in sdiff(pcs).elements)
    zero = space.index(zero_vec(pcs.spec, pcs.m))
    for w in range(1, pcs.n + 1):
        if table.reaches(zero, w):
            return w, table.first(zero, w)
    raise AssertionError("unreachable: two distinct words differ somewhere")


def _shell_witness(pcs: ParityCheckSystem) -> tuple[int, RingVec]:
    """min_distance_witness by listing the weight shells of R^n."""
    diffs = sdiff(pcs)
    for w, x in _shell_errors(pcs, pcs.n):
        if w and pcs.syndrome(x) in diffs:
            return w, x
    raise AssertionError("unreachable: two distinct words differ somewhere")


def min_distance(pcs: ParityCheckSystem) -> int:
    return min_distance_witness(pcs)[0]


def decode(
    pcs: ParityCheckSystem, x: RingVec, min_dist: Optional[int] = None
) -> DecodeResult:
    """Nearest-codeword decoding inside the unique-decoding radius.

    min_dist may be passed to skip the distance computation.  Within the
    radius floor((d-1)/2) the nearest codeword is unique, so the first
    error vector found in shell order is the answer.  Outside it, raises
    BeyondRadius.  The route is chosen as in min_distance_witness.
    """
    if x.spec != pcs.spec or len(x) != pcs.n:
        raise ValueError("received word does not match the ambient space")
    d = min_distance(pcs) if min_dist is None else min_dist
    radius = (d - 1) // 2
    sx = pcs.syndrome(x)
    space = pcs.syndrome_space()
    if space is None:
        errors = _shell_errors(pcs, radius)
    else:
        # y with H x^T - H y^T a column of S
        table = space.table(pcs.s_cols)
        rho = space.index(sx)
        errors = (
            (w, table.first(rho, w))
            for w in range(min(radius, pcs.n) + 1)
            if table.reaches(rho, w)
        )
    for w, y in errors:
        j = pcs.syndrome_to_col.get(vec_sub(sx, pcs.syndrome(y)))
        if j is not None:
            return DecodeResult(
                codeword=vec_sub(x, y),
                coset_index=j,
                error_vector=y,
                error_weight=w,
            )
    raise BeyondRadius(x, radius)


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
