"""Parity check systems (H|S) and their two-way link with coset-presented codes.

A system over R consists of an m x n check matrix H and an m x s syndrome
matrix S subject to three conditions:

  (i)   every entry s_ij lies in the image ideal {h_i . x : x in R^n},
  (ii)  the columns of S are pairwise distinct,
  (iii) every dependency among the rows of H carries over to the rows of S,
        i.e. r H = 0 implies r S = 0.

The code of a system is {x in R^n : H x^T is a column of S}; it is a union
of s cosets of D = {x : H x^T = 0} and need not be linear.  Conversely a
code given as reps + D is turned into a system by taking H to generate the
dual of D and tabulating the reps' syndromes.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import mul
from typing import Optional, Sequence

from . import rings
from .howell import HowellForm
from .reach import SyndromeSpace
from .rings import (
    RingSpec,
    RingVec,
    dot,
    scale,
    vec_add,
    vec_sub,
    zero_vec,
)
from .submodules import Submodule, solve_forms, syzygies, transpose_forms


class PCSValidationError(Exception):
    """A proposed (H|S) pair violates one of the three defining conditions."""


class ConditionIViolation(PCSValidationError):
    """S entry outside the image ideal of its H row.  Indices are 1-based."""

    def __init__(self, row: int, col: int, message: str = ""):
        self.row = row
        self.col = col
        super().__init__(
            message
            or f"S entry at row {row}, column {col} is outside the image of H row {row}"
        )


class ConditionIIViolation(PCSValidationError):
    """Two equal syndrome columns.  Indices are 1-based."""

    def __init__(self, col_a: int, col_b: int):
        self.col_a = col_a
        self.col_b = col_b
        super().__init__(f"S columns {col_a} and {col_b} are equal")


class ConditionIIIViolation(PCSValidationError):
    """A row dependency of H that the rows of S do not satisfy."""

    def __init__(self, witness: RingVec):
        self.witness = witness
        super().__init__(
            f"row dependency {witness} annihilates H's rows but not S's rows"
        )


class InternalInconsistency(Exception):
    """A validated system failed an operation its validity guarantees."""


class ParityCheckSystem:
    """A validated (H|S) pair with cached module data and syndrome lookup."""

    def __init__(self, h_rows: Sequence[RingVec], s_rows: Sequence[RingVec]):
        if not h_rows:
            raise ValueError("H needs at least one row (a zero row is fine)")
        self.spec = h_rows[0].spec
        self.h_rows = tuple(h_rows)
        self.s_rows = tuple(s_rows)
        self.m = len(h_rows)
        self.n = len(h_rows[0])
        if len(s_rows) != self.m:
            raise ValueError("H and S must have the same number of rows")
        self.s = len(s_rows[0])
        if self.s < 1:
            raise ValueError("S needs at least one column")
        for row in h_rows:
            if row.spec != self.spec or len(row) != self.n:
                raise ValueError("ragged or mixed-ring H")
        for row in s_rows:
            if row.spec != self.spec or len(row) != self.s:
                raise ValueError("ragged or mixed-ring S")
        # per-factor rows of H as plain integers, for syndromes
        self._h_ints = tuple(
            tuple(row.component(f) for row in self.h_rows)
            for f in range(self.spec.nfactors)
        )
        self.s_cols = tuple(
            RingVec(self.spec, tuple(r.coords[j] for r in self.s_rows))
            for j in range(self.s)
        )
        self.syndrome_to_col = {col: j + 1 for j, col in enumerate(self.s_cols)}
        self._syndrome_space: Optional[SyndromeSpace] = None
        # (distance, witness), filled by distance.min_distance_witness
        self._distance: Optional[tuple[int, RingVec]] = None

    @cached_property
    def row_module(self) -> Submodule:
        """The submodule of R^n generated by the rows of H."""
        return Submodule.from_generators(self.spec, self.n, self.h_rows)

    @cached_property
    def kernel_module(self) -> Submodule:
        """D = {x : H x^T = 0}, the common kernel of the checks."""
        return self.row_module.annihilator()

    def syndrome_space(self) -> Optional[SyndromeSpace]:
        """The cached reachability tables, or None above DEFAULT_BUDGET bytes."""
        if SyndromeSpace.nbytes(self.spec, self.m, self.n) > rings.DEFAULT_BUDGET:
            return None
        if self._syndrome_space is None:
            self._syndrome_space = SyndromeSpace(self.spec, self.h_rows)
        return self._syndrome_space

    def syndrome(self, x: RingVec) -> RingVec:
        if x.spec != self.spec or len(x) != self.n:
            raise ValueError("vector does not match the system's ambient space")
        parts = [
            [sum(map(mul, row, xs)) % t for row in rows]
            for rows, xs, t in zip(self._h_ints, x.components(), self.spec.factors)
        ]
        return RingVec(self.spec, tuple(zip(*parts)))

    @cached_property
    def ht_forms(self) -> tuple[HowellForm, ...]:
        """One Howell form of H^T per ring factor, for pulling syndromes back."""
        return tuple(transpose_forms(self.h_rows))

    def preimage(self, sigma: RingVec) -> Optional[RingVec]:
        """One x with H x^T = sigma, free directions zeroed, or None."""
        return solve_forms(self.spec, self.ht_forms, sigma)

    @cached_property
    def kernel_cardinality(self) -> int:
        """|D| = |R|^n / |row span of H|, read off without building D.

        Over a product of residue rings a submodule and its dual have
        complementary sizes; this is also the scale of every system-side
        Fourier coefficient.
        """
        return self.spec.cardinality**self.n // self.row_module.cardinality

    @cached_property
    def hs_forms(self) -> tuple[HowellForm, ...]:
        """One Howell form of [H | S] per ring factor.

        By condition (iii) a combination of rows that vanishes on H vanishes
        on S, so every pivot lies in the H part: the span lists exactly the
        pairs (h, S_h) for h in the row span of H, with S_h = r S for any r
        with r H = h (two such r differ by a row dependency of H).
        """
        rows = [
            RingVec(self.spec, h.coords + s.coords)
            for h, s in zip(self.h_rows, self.s_rows)
        ]
        forms = Submodule.from_generators(self.spec, self.n + self.s, rows).forms
        if any(col >= self.n for hf in forms for col in hf.pivot_cols):
            raise InternalInconsistency("a pivot of [H | S] lies in S")
        return forms

    def s_row(self, x: RingVec) -> Optional[RingVec]:
        """S_x, paired with x in the span of [H | S], or None outside the row span.

        Greedily dividing [x | 0] by hs_forms clears the H part exactly when
        x is in the row span, and leaves -S_x in the S part.
        """
        if x.spec != self.spec or len(x) != self.n:
            raise ValueError("vector does not match the system's ambient space")
        parts = []
        for hf, xs in zip(self.hs_forms, x.components()):
            rest = hf.divide(xs + (0,) * self.s)[1]
            if any(rest[: self.n]):
                return None
            t = hf.modulus
            parts.append([-a % t for a in rest[self.n :]])
        return RingVec(self.spec, tuple(zip(*parts)))

    def code_cardinality(self) -> int:
        return self.s * self.kernel_cardinality

    def __repr__(self) -> str:
        return (
            f"ParityCheckSystem({self.spec}, m={self.m}, n={self.n}, s={self.s})"
        )


def _image_ideal_gcds(spec: RingSpec, row: RingVec) -> tuple[int, ...]:
    """Per factor f: gcd of the row's residues with t_f, generating the image ideal."""
    out = []
    for f, t in enumerate(spec.factors):
        g = t
        for c in row.coords:
            g = math.gcd(g, c[f])
        out.append(g)
    return tuple(out)


def validate_pcs(
    h_rows: Sequence[RingVec], s_rows: Sequence[RingVec]
) -> ParityCheckSystem:
    """Check conditions (i) to (iii) and return the packaged system.

    Raises ConditionIViolation / ConditionIIViolation / ConditionIIIViolation
    with 1-based witness data.  Condition (iii) only needs checking on a
    generating set of the row dependencies, since both sides are linear in r.
    """
    pcs = ParityCheckSystem(h_rows, s_rows)
    spec = pcs.spec
    # (i): each S entry must lie in its row's image ideal, factor by factor
    for i, h_row in enumerate(pcs.h_rows):
        gcds = _image_ideal_gcds(spec, h_row)
        for j in range(pcs.s):
            entry = pcs.s_rows[i].coords[j]
            for f, g in enumerate(gcds):
                if entry[f] % g:
                    raise ConditionIViolation(i + 1, j + 1)
    # (ii): distinct columns
    seen: dict[RingVec, int] = {}
    for j, col in enumerate(pcs.s_cols):
        if col in seen:
            raise ConditionIIViolation(seen[col], j + 1)
        seen[col] = j + 1
    # (iii): generators of the syzygy module must annihilate S's rows
    syz = syzygies(spec, pcs.h_rows)
    zero_s = zero_vec(spec, pcs.s)
    for r in syz.generators:
        combo = zero_s
        for i in range(pcs.m):
            combo = vec_add(combo, scale(r[i], pcs.s_rows[i]))
        if combo != zero_s:
            raise ConditionIIIViolation(r)
    return pcs


class CodePresentation:
    """A code written as s pairwise-disjoint cosets of a submodule D."""

    def __init__(self, kernel: Submodule, representatives: Sequence[RingVec]):
        self.spec = kernel.spec
        self.n = kernel.ambient_n
        self.kernel = kernel
        self.representatives = tuple(representatives)
        if not self.representatives:
            raise ValueError("a code needs at least one coset representative")
        for d in self.representatives:
            if d.spec != self.spec or len(d) != self.n:
                raise ValueError("representative outside the ambient space")
        # equal remainders modulo D mean one coset; name the least such pair
        first: dict[tuple, int] = {}
        clashes = []
        for j, d in enumerate(self.representatives):
            key = tuple(hf.divide(c)[1] for hf, c in zip(kernel.forms, d.components()))
            i = first.setdefault(key, j)
            if i != j:
                clashes.append((i, j))
        if clashes:
            i, j = min(clashes)
            raise ValueError(f"representatives {i + 1} and {j + 1} present the same coset")
        self._dual: Optional[Submodule] = None

    @cached_property
    def character_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per representative d, its flattened residues d_(i,f) * L / t_f.

        With L = lcm(t_f), the generating character sends x . d to zeta_L^e
        with e = sum over (i, f) of x_(i,f) * row_(i,f), taken mod L.
        """
        weights = self.spec.character_weights
        return tuple(
            tuple(a * w for coord in d.coords for a, w in zip(coord, weights))
            for d in self.representatives
        )

    @property
    def s(self) -> int:
        return len(self.representatives)

    @property
    def cardinality(self) -> int:
        return self.s * self.kernel.cardinality

    def dual_module(self) -> Submodule:
        """The annihilator of D, cached; its generators feed the H matrix."""
        if self._dual is None:
            self._dual = self.kernel.annihilator()
        return self._dual

    def __repr__(self) -> str:
        return (
            f"CodePresentation({self.spec}, n={self.n}, s={self.s}, "
            f"cardinality={self.cardinality})"
        )


def code_to_pcs(
    pres: CodePresentation, dual_gens: Optional[Sequence[RingVec]] = None
) -> ParityCheckSystem:
    """Present a coset code as a system: H generates the dual of D, S = H . reps.

    When dual_gens is supplied it must generate exactly the dual of D and is
    used as H verbatim; otherwise the canonical dual generators are used
    (with a single zero row when the dual is trivial).
    """
    spec = pres.spec
    dual = pres.dual_module()
    if dual_gens is not None:
        cand = Submodule.from_generators(spec, pres.n, tuple(dual_gens))
        if cand != dual:
            raise ValueError("supplied rows do not generate the dual of D")
        h_rows = tuple(dual_gens)
    else:
        h_rows = dual.canonical_generators()
        if not h_rows:
            h_rows = (zero_vec(spec, pres.n),)
    s_rows = []
    for h in h_rows:
        s_rows.append(RingVec.of(spec, [dot(h, d) for d in pres.representatives]))
    return validate_pcs(h_rows, tuple(s_rows))


def pcs_to_code(pcs: ParityCheckSystem) -> CodePresentation:
    """Recover the coset presentation: D is the common kernel, reps solve H x = col."""
    reps = []
    for j, col in enumerate(pcs.s_cols):
        x = pcs.preimage(col)
        if x is None:
            raise InternalInconsistency(
                f"column {j + 1} of a validated system has no preimage"
            )
        reps.append(x)
    return CodePresentation(pcs.kernel_module, tuple(reps))


def member(pcs: ParityCheckSystem, x: RingVec) -> Optional[int]:
    """1-based syndrome column index of x, or None when x is outside the code."""
    return pcs.syndrome_to_col.get(pcs.syndrome(x))


def kernel(pcs: ParityCheckSystem) -> Submodule:
    """The kernel of the code: {y : r y + c stays in the code for all r, c}.

    Work happens on the finite syndrome side: each kernel syndrome is
    pulled back through one solve, and those pullbacks together with D
    generate the kernel.
    """
    gens = list(pcs.kernel_module.canonical_generators())
    for sigma in _kernel_syndromes(pcs):
        x = pcs.preimage(sigma)
        if x is None:
            raise InternalInconsistency("kernel syndrome has no preimage")
        gens.append(x)
    return Submodule.from_generators(pcs.spec, pcs.n, tuple(gens))


def _kernel_syndromes(pcs: ParityCheckSystem) -> list[RingVec]:
    """The sigma with r sigma + col(S) = col(S) for every scalar r, sorted.

    The r = 1 case makes sigma a member of the additive stabiliser of
    col(S), the column differences shared by every column.  That is a
    group, and r sigma is an integer combination of the e_f sigma for the
    factor idempotents e_f (1 in factor f, 0 elsewhere), so it is enough
    that every e_f sigma lies in the stabiliser too.
    """
    spec, cols = pcs.spec, pcs.s_cols
    stabiliser = {vec_sub(c, cols[0]) for c in cols}
    for base in cols[1:]:
        stabiliser &= {vec_sub(c, base) for c in cols}
    idempotents = [
        spec.elem([int(g == f) for g in range(spec.nfactors)])
        for f in range(spec.nfactors)
    ]
    return [
        sigma
        for sigma in sorted(stabiliser, key=lambda v: v.coords)
        if all(scale(e, sigma) in stabiliser for e in idempotents)
    ]


def is_linear(pcs: ParityCheckSystem) -> bool:
    """Whether the code is a submodule, i.e. col(S) is a submodule of R^m.

    The kernel syndromes always form a submodule.  When col(S) is one,
    every column stabilises it and every kernel syndrome sigma = sigma + 0
    is a column, so the two sets are equal.
    """
    return set(_kernel_syndromes(pcs)) == set(pcs.s_cols)
