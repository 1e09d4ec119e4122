"""Reachability tables over the syndrome space R^m of a check matrix H.

Minimum distance and decoding both ask for the first vector y, in
weight-shell order, whose syndrome H y^T lands in a fixed finite set.
Instead of listing shells of R^n, this module answers the question in the
syndrome space, which has |R|^m points however long the code is.

A syndrome gets a mixed-radix index over its m*k residue axes (row-major:
row i, then factor f, last axis fastest), so product rings need nothing
special.  For each coordinate j and each nonzero ring value a there is one
gather array mapping every index sigma to the index of sigma - a*h_j.  A
ReachTable seeded with a set Z holds, for every suffix start p and weight
w, the boolean array of the sigma from which some y supported on
coordinates p..n-1 with weight exactly w reaches Z, i.e. sigma - H y^T in
Z.  Seeding with the target set (rather than with 0) turns every "can
this prefix still be completed" question into a lookup or an AND.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Iterable, Sequence

from .rings import RingSpec, RingVec


class SyndromeSpace:
    """R^m indexed mixed-radix, with the gather arrays of H's column shifts.

    gathers[j][a, sigma] is the index of sigma - v_a*h_j, where v_a is the
    a-th entry of spec.nonzero_residues(), the order of weight shells.
    """

    def __init__(self, spec: RingSpec, h_rows: Sequence[RingVec]):
        import numpy as np

        self.spec = spec
        self.n = len(h_rows[0])
        self.nonzero = spec.nonzero_residues()
        k = spec.nfactors
        radices = spec.factors * len(h_rows)
        self.size = math.prod(radices)
        self.strides = [math.prod(radices[a + 1:]) for a in range(len(radices))]
        # int32 halves the gathers; nbytes keeps size below the budget < 2^31
        index = np.arange(self.size, dtype=np.int32)
        step = np.empty((len(self.nonzero), self.size), dtype=np.int32)
        self.gathers = []
        for j in range(self.n):
            # residues of v*h_j on every axis, one row per nonzero value v
            shifts = np.array(
                [[v[f] * row.flat[j * k + f] % t
                  for row in h_rows for f, t in enumerate(spec.factors)]
                 for v in self.nonzero],
                dtype=np.int32,
            ).reshape(len(self.nonzero), len(radices))
            g = np.zeros((len(self.nonzero), self.size), dtype=np.int32)
            for a, (r, st) in enumerate(zip(radices, self.strides)):
                np.subtract(index // st % r, shifts[:, a, None], out=step)
                step %= r
                step *= st
                g += step
            self.gathers.append(g)
        self._tables: dict[frozenset[int], ReachTable] = {}

    @staticmethod
    def nbytes(spec: RingSpec, m: int, n: int) -> int:
        """Bytes stored at most: the int32 gathers plus two full bool tables."""
        q = spec.cardinality
        return q**m * (4 * n * (q - 1) + 2 * (n + 1) ** 2)

    def index(self, v: RingVec) -> int:
        return sum(map(mul, v.flat, self.strides))

    def table(self, seeds: Iterable[RingVec]) -> "ReachTable":
        """The reach table seeded with these syndromes, cached per seed set."""
        key = frozenset(self.index(z) for z in seeds)
        if key not in self._tables:
            self._tables[key] = ReachTable(self, key)
        return self._tables[key]


class ReachTable:
    """Suffix reach tables of one seed set Z, extended one weight at a time.

    layer(w)[p, sigma] is true when some y on coordinates p..n-1 of weight
    exactly w has sigma - H y^T in Z.
    """

    def __init__(self, space: SyndromeSpace, seeds: Iterable[int]):
        import numpy as np

        self.space = space
        self.seed = np.zeros(space.size, dtype=bool)
        self.seed[list(seeds)] = True
        self._layers = [np.tile(self.seed, (space.n + 1, 1))]

    def layer(self, w: int):
        import numpy as np

        n, gathers = self.space.n, self.space.gathers
        while len(self._layers) <= w:
            prev = self._layers[-1]
            cur = np.zeros_like(prev)
            # rows p > n - w stay empty: too few coordinates are left
            for p in range(n - len(self._layers), -1, -1):
                cur[p] = cur[p + 1] | prev[p + 1][gathers[p]].any(axis=0)
            self._layers.append(cur)
        return self._layers[w]

    def reaches(self, rho: int, w: int) -> bool:
        """Whether some y of weight w has rho - H y^T in the seeds."""
        return bool(self.layer(w)[0, rho])

    def first(self, rho: int, w: int) -> RingVec:
        """The first y in weight-shell order with weight w and rho - H y^T a seed.

        Shell order takes supports lexicographically, then values in
        odometer order, so the support is fixed first, one position at a
        time, keeping the least position from which the rest can still be
        completed; the values follow the same way on that support.
        Requires reaches(rho, w).
        """
        import numpy as np

        space = self.space
        n, gathers = space.n, space.gathers
        # reach: every rho - H y^T for y with nonzero values on the support so far
        reach = np.zeros(space.size, dtype=bool)
        reach[rho] = True
        support: list[int] = []
        start = 0
        for left in range(w - 1, -1, -1):
            suffix = self.layer(left)
            for j in range(start, n - left):
                nxt = reach[gathers[j]].any(axis=0)
                if (nxt & suffix[j + 1]).any():
                    break
            else:
                raise AssertionError("no completion although the table reaches")
            support.append(j)
            reach = nxt
            start = j + 1
        # fixed[l]: sigma from which nonzero values on support[l+1:] reach Z
        fixed = [self.seed]
        for j in reversed(support[1:]):
            fixed.append(fixed[-1][gathers[j]].any(axis=0))
        fixed.reverse()
        k = space.spec.nfactors
        flat = [0] * (n * k)
        for l, j in enumerate(support):
            cands = gathers[j][:, rho]
            a = int(np.argmax(fixed[l][cands]))
            if not fixed[l][cands[a]]:
                raise AssertionError("no value completes the chosen support")
            flat[j * k:j * k + k] = space.nonzero[a]
            rho = int(cands[a])
        return RingVec._of(space.spec, tuple(flat))
