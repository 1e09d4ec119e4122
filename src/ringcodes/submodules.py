"""Submodules of R^n in canonical form, for R a product of residue rings.

A submodule D of R^n with R = Z_t1 x ... x Z_tk splits as a product of one
Z_tf-submodule per factor (multiply by the idempotent that is 1 in factor f
and 0 elsewhere), so everything reduces to Howell normal forms over the
individual moduli.  The per-factor forms are the canonical representation:
two generating sets present the same submodule exactly when all their forms
agree, and cardinality, membership, annihilators, syzygies and linear
solving all read off from them.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from .howell import HowellForm, howell_form, span_blocks
from .rings import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    RingSpec,
    RingVec,
    from_components,
    zero_vec,
)


def factor_matrix(spec: RingSpec, rows: Sequence[RingVec], f: int, n: int) -> np.ndarray:
    """The factor-f residues of a list of vectors, as a len(rows) x n matrix."""
    if not rows:
        return np.zeros((0, n), dtype=np.int64)
    return np.array([[c[f] for c in v.coords] for v in rows], dtype=np.int64)


class Submodule:
    """A submodule of R^n held as one Howell form per ring factor."""

    def __init__(self, spec: RingSpec, n: int, forms: Sequence[HowellForm],
                 generators: tuple[RingVec, ...] = ()):
        self.spec = spec
        self.ambient_n = n
        self.forms = tuple(forms)
        self.generators = generators
        card = 1
        for hf in self.forms:
            card *= hf.span_cardinality()
        self.cardinality = card

    @classmethod
    def from_generators(
        cls, spec: RingSpec, n: int, generators: Sequence[RingVec]
    ) -> "Submodule":
        gens = tuple(generators)
        for g in gens:
            if g.spec != spec:
                raise ValueError("generator from a different ring")
            if len(g) != n:
                raise ValueError("generator length does not match ambient space")
        forms = [
            howell_form(factor_matrix(spec, gens, f, n), t)
            for f, t in enumerate(spec.factors)
        ]
        return cls(spec, n, forms, gens)

    def contains(self, x: RingVec) -> bool:
        if x.spec != self.spec or len(x) != self.ambient_n:
            raise ValueError("vector does not live in the ambient space")
        return all(map(HowellForm.contains, self.forms, x.components()))

    def canonical_generators(self) -> tuple[RingVec, ...]:
        """Howell rows lifted factor by factor; spans the module, may be empty."""
        out = []
        k = self.spec.nfactors
        for f, hf in enumerate(self.forms):
            for row in hf.matrix:
                coords = tuple(
                    tuple(int(row[i]) if g == f else 0 for g in range(k))
                    for i in range(self.ambient_n)
                )
                out.append(RingVec(self.spec, coords))
        return tuple(out)

    def annihilator(self) -> "Submodule":
        """The dual module {y : x . y = 0 for every x in here}.

        Per factor the dual of a row span is the left kernel of the
        transposed canonical matrix, and dualizing a product module is
        dualizing each factor.
        """
        forms = []
        for f, hf in enumerate(self.forms):
            t = self.spec.factors[f]
            dual_gens = howell_form(hf.matrix.T.copy(), t).kernel
            forms.append(howell_form(dual_gens, t))
        out = Submodule(self.spec, self.ambient_n, forms)
        out.generators = out.canonical_generators()
        return out

    def enumerate(self, budget: int = DEFAULT_BUDGET) -> Iterator[RingVec]:
        """All elements exactly once: odometer over factors, last factor fastest."""
        if self.cardinality > budget:
            raise BudgetExceeded(self.cardinality, budget, "submodule enumeration")
        for block in span_blocks(self.forms):
            parts = [b.tolist() for b in block]
            for i in range(len(parts[0])):
                yield RingVec(self.spec, tuple(zip(*(p[i] for p in parts))))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Submodule):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.ambient_n == other.ambient_n
            and all(
                np.array_equal(a.matrix, b.matrix)
                for a, b in zip(self.forms, other.forms)
            )
        )

    def __hash__(self):
        return hash(
            (self.spec, self.ambient_n,
             tuple(tuple(map(int, hf.matrix.ravel())) for hf in self.forms))
        )

    def __repr__(self) -> str:
        return (
            f"Submodule({self.spec}, n={self.ambient_n}, "
            f"cardinality={self.cardinality})"
        )


def syzygies(spec: RingSpec, rows: Sequence[RingVec]) -> Submodule:
    """All coefficient vectors r in R^m with sum_i r_i rows_i = 0."""
    m = len(rows)
    if m == 0:
        return Submodule.from_generators(spec, 0, ())
    n = len(rows[0])
    forms = []
    for f, t in enumerate(spec.factors):
        mat = factor_matrix(spec, rows, f, n)
        kern = howell_form(mat, t).kernel
        forms.append(howell_form(kern, t))
    out = Submodule(spec, m, forms)
    out.generators = out.canonical_generators()
    return out


def solve_forms(spec: RingSpec, forms: Sequence[HowellForm], b: RingVec) -> Optional[RingVec]:
    """One x with x @ source_f = b_f for every factor's form, or None.

    The greedy coefficients leave every free direction at zero, so the
    answer is a deterministic function of the forms and b.
    """
    parts = []
    for f, hf in enumerate(forms):
        x = hf.solve(b.component(f))
        if x is None:
            return None
        parts.append(x)
    return from_components(spec, parts)


def transpose_forms(rows: Sequence[RingVec]) -> list[HowellForm]:
    """Per factor, the Howell form of M^T for M the matrix with these rows.

    Solving b against these forms gives x with M x^T = b^T.
    """
    spec, n = rows[0].spec, len(rows[0])
    return [
        howell_form(factor_matrix(spec, rows, f, n).T, t)
        for f, t in enumerate(spec.factors)
    ]


def solve_right(rows: Sequence[RingVec], b: RingVec) -> Optional[RingVec]:
    """One x with M x^T = b^T for M the matrix with the given rows, else None."""
    if not rows:
        raise ValueError("need at least one row")
    if len(b) != len(rows):
        raise ValueError("right-hand side length must match the number of rows")
    return solve_forms(rows[0].spec, transpose_forms(rows), b)


def solve_left(rows: Sequence[RingVec], x: RingVec) -> Optional[RingVec]:
    """Coefficients r in R^m with sum_i r_i rows_i = x, or None."""
    if not rows:
        raise ValueError("need at least one row")
    spec, n = rows[0].spec, len(rows[0])
    if len(x) != n:
        raise ValueError("target length must match the row length")
    return solve_forms(spec, Submodule.from_generators(spec, n, rows).forms, x)
