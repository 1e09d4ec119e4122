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

import math
from typing import Iterator, Optional, Sequence

from .howell import HowellForm, flat_rows, howell_rows, span_form, span_tuples
from .rings import RingSpec, RingVec, check_budget, from_components


def factor_matrix(spec: RingSpec, rows: Sequence[RingVec], f: int, n: int) -> list[tuple[int, ...]]:
    """The factor-f residues of a list of vectors of length n, one tuple per vector."""
    return [v.component(f) for v in rows]


def _transpose(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    return [[row[j] for row in rows] for j in range(ncols)]


class Submodule:
    """A submodule of R^n held as one Howell form per ring factor."""

    def __init__(self, spec: RingSpec, n: int, forms: Sequence[HowellForm]):
        self.spec = spec
        self.ambient_n = n
        self.forms = tuple(forms)
        self.cardinality = math.prod(hf.span_cardinality() for hf in self.forms)

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
            span_form(factor_matrix(spec, gens, f, n), n, t)
            for f, t in enumerate(spec.factors)
        ]
        return cls(spec, n, forms)

    def contains(self, x: RingVec) -> bool:
        if x.spec != self.spec or len(x) != self.ambient_n:
            raise ValueError("vector does not live in the ambient space")
        return all(map(HowellForm.contains, self.forms, x.components()))

    def canonical_generators(self) -> tuple[RingVec, ...]:
        """Howell rows lifted factor by factor; spans the module, may be empty."""
        return tuple(RingVec._of(self.spec, tuple(fields))
                     for fields, _ in flat_rows(self.forms, self.ambient_n))

    def annihilator(self) -> "Submodule":
        """The dual module {y : x . y = 0 for every x in here}.

        Per factor the dual of a row span is the left kernel of the
        transposed canonical matrix, and dualizing a product module is
        dualizing each factor.
        """
        return left_kernel(self.spec, transposed_forms(self.forms))

    def enumerate(self) -> Iterator[RingVec]:
        """All elements exactly once: odometer over factors, last factor fastest."""
        check_budget(self.cardinality, "submodule enumeration")
        for flat in span_tuples(self.forms):
            yield RingVec._of(self.spec, flat)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Submodule):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.ambient_n == other.ambient_n
            and all(a.rows == b.rows for a, b in zip(self.forms, other.forms))
        )

    def __hash__(self):
        return hash((self.spec, self.ambient_n, tuple(hf.rows for hf in self.forms)))

    def __repr__(self) -> str:
        return (
            f"Submodule({self.spec}, n={self.ambient_n}, "
            f"cardinality={self.cardinality})"
        )


def left_kernel(spec: RingSpec, forms: Sequence[HowellForm]) -> Submodule:
    """{c in R^m : c @ source_f = 0 in every factor f}, from the forms' kernel rows.

    The forms are one per factor of spec, each of a matrix with m rows.
    """
    m = forms[0].source_rows
    return Submodule(spec, m, [span_form(hf.kernel_rows, m, hf.modulus) for hf in forms])


def transposed_forms(forms: Sequence[HowellForm]) -> list[HowellForm]:
    """Per form, the Howell form of G^T for G its r Howell rows: its kernel
    rows span {y : G y^T = 0}, and solve(b) gives one y with G y^T = b^T."""
    return [howell_rows(_transpose(hf.rows, hf.ncols), len(hf.rows), hf.modulus)
            for hf in forms]


def syzygies(spec: RingSpec, rows: Sequence[RingVec]) -> Submodule:
    """All coefficient vectors r in R^m with sum_i r_i rows_i = 0."""
    n = len(rows[0]) if rows else 0
    return left_kernel(spec, Submodule.from_generators(spec, n, rows).forms)


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
        howell_rows(_transpose(factor_matrix(spec, rows, f, n), n), len(rows), t)
        for f, t in enumerate(spec.factors)
    ]


def solve_right(rows: Sequence[RingVec], b: RingVec) -> Optional[RingVec]:
    """One x with M x^T = b^T for M the matrix with the given rows, else None."""
    if not rows:
        raise ValueError("need at least one row")
    if len(b) != len(rows):
        raise ValueError("right-hand side length must match the number of rows")
    if any(r.spec != b.spec or len(r) != len(rows[0]) for r in rows):
        raise ValueError("rows and right-hand side must share one ring, the rows one length")
    return solve_forms(b.spec, transpose_forms(rows), b)
