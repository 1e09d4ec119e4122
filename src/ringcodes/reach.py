"""Reachability tables over the syndrome space R^m of a check matrix H.

Minimum distance and decoding both ask for the first vector y, in
weight-shell order, whose syndrome H y^T lands in a fixed finite set.
Instead of listing shells of R^n, this module answers the question in the
syndrome space, which has |R|^m points however long the code is.

A syndrome gets a mixed-radix index over its m*k residue axes (row-major:
row i, then factor f, last axis fastest), so product rings need nothing
special.  A set of syndromes is one Python int with bit sigma set for
each index sigma in it; translating the set by u in R^m rotates each axis
on which u is nonzero.  A ReachTable seeded with a set Z holds, for every
suffix start p and weight w, the set of sigma from which some y supported
on coordinates p..n-1 with weight exactly w reaches Z, i.e. sigma - H y^T
in Z.  Seeding with the target set (rather than with 0) turns every "can
this prefix still be completed" question into a bit test or an AND.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import mul, or_
from typing import Iterable, Sequence

from .rings import RingSpec, RingVec


class SyndromeSpace:
    """R^m indexed mixed-radix, with the digits of H's column multiples.

    digits[j][a] holds the residues of v_a*h_j on every axis, v_a the a-th
    of spec.nonzero_residues(); shifts[j] holds the distinct ones, a set
    closed under negation, so spread() also gives the union of bits - v*h_j.
    """

    def __init__(self, spec: RingSpec, h_rows: Sequence[RingVec]):
        self.spec = spec
        self.n = len(h_rows[0])
        self.nonzero = spec.nonzero_residues()
        k = spec.nfactors
        self.radices = spec.factors * len(h_rows)
        self.size = math.prod(self.radices)
        self.strides = [math.prod(self.radices[a + 1:]) for a in range(len(self.radices))]
        self.digits = [
            [tuple(v[f] * row.flat[j * k + f] % t
                   for row in h_rows for f, t in enumerate(spec.factors))
             for v in self.nonzero]
            for j in range(self.n)
        ]
        self.shifts = [list(dict.fromkeys(d)) for d in self.digits]
        # (axis, offset) -> (lo, up, down), built on first use
        self._masks: dict[tuple[int, int], tuple[int, int, int]] = {}
        self._tables: dict[frozenset[int], ReachTable] = {}

    @staticmethod
    def cost(spec: RingSpec, m: int, n: int) -> tuple[int, int]:
        """(bytes, word operations) at most: both tables and every mask; all layers."""
        q, size = spec.cardinality, spec.cardinality**m
        nbytes = -(-size * (2 * (n + 1) ** 2 + m * sum(spec.factors)) // 8)
        return nbytes, n * (n + 1) * (q - 1) * m * spec.nfactors * -(-size // 64)

    def index(self, v: RingVec) -> int:
        return sum(map(mul, v.flat, self.strides))

    def translate(self, bits: int, u: Sequence[int]) -> int:
        """The set bits + u, with u given by its digit on every axis."""
        for a, c in enumerate(u):
            if c:
                lo, up, down = self._masks.get((a, c)) or self._mask(a, c)
                low = bits & lo
                bits = low << up | (bits ^ low) >> down
        return bits

    def _mask(self, a: int, c: int) -> tuple[int, int, int]:
        """lo: the bits whose digit on axis a is below r - c, so they move up."""
        r, st = self.radices[a], self.strides[a]
        lo, period = (1 << (r - c) * st) - 1, r * st
        while period < self.size:  # copy the block to every period
            lo |= lo << period
            period *= 2
        return self._masks.setdefault((a, c), (lo & ((1 << self.size) - 1), c * st, (r - c) * st))

    def spread(self, bits: int, j: int) -> int:
        """The union of bits + v*h_j over the nonzero v."""
        return reduce(or_, [self.translate(bits, u) for u in self.shifts[j]])

    def table(self, seeds: Iterable[RingVec]) -> "ReachTable":
        """The reach table seeded with these syndromes, cached per seed set."""
        key = frozenset(self.index(z) for z in seeds)
        if key not in self._tables:
            self._tables[key] = ReachTable(self, key)
        return self._tables[key]


class ReachTable:
    """Suffix reach tables of one seed set Z, extended one weight at a time.

    Bit sigma of layer(w)[p] is set when some y on coordinates p..n-1 of
    weight exactly w has sigma - H y^T in Z.
    """

    def __init__(self, space: SyndromeSpace, seeds: Iterable[int]):
        self.space = space
        bits = bytearray(space.size // 8 + 1)
        for s in seeds:
            bits[s >> 3] |= 1 << (s & 7)
        self.seed = int.from_bytes(bits, "little")
        self._layers = [[self.seed] * (space.n + 1)]

    def layer(self, w: int) -> list[int]:
        space, n = self.space, self.space.n
        while len(self._layers) <= w:
            prev = self._layers[-1]
            cur = [0] * (n + 1)
            # entries p > n - w stay empty: too few coordinates are left
            for p in range(n - len(self._layers), -1, -1):
                cur[p] = cur[p + 1] | space.spread(prev[p + 1], p)
            self._layers.append(cur)
        return self._layers[w]

    def reaches(self, rho: int, w: int) -> bool:
        """Whether some y of weight w has rho - H y^T in the seeds."""
        return bool(self.layer(w)[0] >> rho & 1)

    def first(self, rho: int, w: int) -> RingVec:
        """The first y in weight-shell order with weight w and rho - H y^T a seed.

        Shell order takes supports lexicographically, then values in
        odometer order, so the support is fixed first, one position at a
        time, keeping the least position from which the rest can still be
        completed; the values follow the same way on that support.
        Requires reaches(rho, w).
        """
        space, n = self.space, self.space.n
        # reach: every rho - H y^T for y with nonzero values on the support so far
        reach = 1 << rho
        support: list[int] = []
        start = 0
        for left in range(w - 1, -1, -1):
            suffix = self.layer(left)
            for j in range(start, n - left):
                nxt = space.spread(reach, j)
                if nxt & suffix[j + 1]:
                    break
            else:
                raise AssertionError("no completion although the table reaches")
            support.append(j)
            reach = nxt
            start = j + 1
        # fixed[l]: sigma from which nonzero values on support[l+1:] reach Z
        fixed = [self.seed]
        for j in reversed(support[1:]):
            fixed.append(space.spread(fixed[-1], j))
        fixed.reverse()
        k = space.spec.nfactors
        flat = [0] * (n * k)
        digits = [rho // st % r for st, r in zip(space.strides, space.radices)]
        for l, j in enumerate(support):
            for v, u in zip(space.nonzero, space.digits[j]):
                cand = [(d - c) % r for d, c, r in zip(digits, u, space.radices)]
                if fixed[l] >> sum(map(mul, cand, space.strides)) & 1:
                    break
            else:
                raise AssertionError("no value completes the chosen support")
            flat[j * k:j * k + k] = v
            digits = cand
        return RingVec._of(space.spec, tuple(flat))
