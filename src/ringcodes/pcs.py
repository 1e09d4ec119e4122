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
from itertools import chain, cycle
from operator import mod, mul
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from . import rings
from .howell import HowellForm, _flat_steps, _reduce, howell_rows
from .rings import (
    RingVec,
    check_budget,
    dot,
    scale,
    vec_add,
    vec_sub,
    zero_vec,
)
from .submodules import Submodule, left_kernel, solve_forms, transpose_forms

if TYPE_CHECKING:
    from .reach import SyndromeSpace


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
    """A valid (H|S) pair with cached module data and syndrome lookup.

    Construction checks conditions (i) to (iii) and raises a Condition*Violation
    with 1-based witness data.  (iii) is checked on generators of the row
    dependencies only, which is enough since both sides are linear in r.
    """

    def __init__(self, h_rows: Sequence[RingVec], s_rows: Sequence[RingVec]):
        if not h_rows:
            raise ValueError("H needs at least one row (a zero row is fine)")
        self.spec = spec = h_rows[0].spec
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
            if row.spec != spec or len(row) != self.n:
                raise ValueError("ragged or mixed-ring H")
        for row in s_rows:
            if row.spec != spec or len(row) != self.s:
                raise ValueError("ragged or mixed-ring S")
        # (i): S entries lie in their H row's image ideal, gcd(t_f, row) per factor f
        for i, (h, s) in enumerate(zip(self.h_rows, self.s_rows), 1):
            gcds = [math.gcd(t, *part) for t, part in zip(spec.factors, h.components())]
            for j, entry in enumerate(s.coords, 1):
                if any(a % g for a, g in zip(entry, gcds)):
                    raise ConditionIViolation(i, j)
        k = spec.nfactors
        self.s_cols = tuple(
            RingVec._of(spec, tuple([a for r in self.s_rows for a in r.flat[j:j + k]]))
            for j in range(0, k * self.s, k)
        )
        # (ii): distinct columns; flat syndrome key -> 1-based column index,
        # the whole of member()
        self._col_index = {}
        for j, col in enumerate(self.s_cols, 1):
            first = self._col_index.setdefault(_key(col), j)
            if first != j:
                raise ConditionIIViolation(first, j)
        # (iii): generators of the syzygy module must annihilate S's rows
        zero_s = zero_vec(spec, self.s)
        for r in left_kernel(spec, self.row_module.forms).canonical_generators():
            combo = zero_s
            for c, row in zip(r, self.s_rows):
                combo = vec_add(combo, scale(c, row))
            if combo != zero_s:
                raise ConditionIIIViolation(r)
        self._syndrome_space: Optional[SyndromeSpace] = None
        # (distance, witness), filled by distance.min_distance_witness
        self._distance: Optional[tuple[int, RingVec]] = None

    @cached_property
    def row_module(self) -> Submodule:
        """The submodule of R^n generated by the rows of H."""
        return Submodule.from_generators(self.spec, self.n, self.h_rows)

    @cached_property
    def kernel_module(self) -> Submodule:
        """D = {x : H x^T = 0}, the common kernel of the checks, from ht_forms."""
        return left_kernel(self.spec, self.ht_forms)

    def syndrome_space(self) -> Optional[SyndromeSpace]:
        """The cached reachability tables, or None when they exceed DEFAULT_BUDGET."""
        from .reach import SyndromeSpace

        if max(SyndromeSpace.cost(self.spec, self.m, self.n)) > rings.DEFAULT_BUDGET:
            return None
        if self._syndrome_space is None:
            self._syndrome_space = SyndromeSpace(self.spec, self.h_rows)
        return self._syndrome_space

    @cached_property
    def _syndrome_plan(self) -> tuple[list[int], list[tuple[int, int]], int]:
        """H packed by _pack, the (offset, t) of each entry of the flat key, the mask."""
        k, factors = self.spec.nfactors, self.spec.factors
        rows = [[a if g == f else 0 for a in h.component(f) for g in range(k)]
                for f in range(k) for h in self.h_rows]
        width = (self.n * (max(factors) - 1) ** 2).bit_length()
        fields = [(width * e, t) for e, t in enumerate(t for t in factors for _ in self.h_rows)]
        return _pack(rows, width), fields, (1 << width) - 1

    def _flat_syndrome(self, x: RingVec) -> tuple[int, ...]:
        """H x^T as the plain ints _key gives it: factor by factor, row by row."""
        packed, fields, mask = self._syndrome_plan
        if x.spec is not self.spec and x.spec != self.spec or len(x.flat) != len(packed):
            raise ValueError("vector does not match the system's ambient space")
        acc = sum(map(mul, x.flat, packed))
        return tuple([(acc >> b & mask) % t for b, t in fields])

    def syndrome(self, x: RingVec) -> RingVec:
        blocks = zip(*[iter(self._flat_syndrome(x))] * self.m)  # one per factor
        return RingVec._of(self.spec, tuple(chain.from_iterable(zip(*blocks))))

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
        """One Howell form of [H | S] per ring factor, read off row_module.forms.

        By condition (iii) the span of [H | S] lists exactly the pairs
        (h, S_h), S_h = r S for any r with r H = h, so extending each Howell
        row T_i H of H by T_i S gives the unique Howell form of [H | S], with
        H's pivots, transform and kernel rows.  _quotients and _s_row rely
        on its H part being row_module.forms row for row.
        """
        forms = []
        s_parts = zip(*(row.components() for row in self.s_rows))
        for hf, s_part in zip(self.row_module.forms, s_parts):
            t, s_cols = hf.modulus, tuple(zip(*s_part))
            rows = tuple(
                h + tuple([sum(map(mul, tr, col)) % t for col in s_cols])
                for h, tr in zip(hf.rows, hf.transform_rows)
            )
            forms.append(HowellForm(t, self.n + self.s, hf.source_rows, rows,
                                    hf.pivot_cols, hf.transform_rows, hf.kernel_rows))
        return tuple(forms)

    @cached_property
    def _exponent_cols(self) -> tuple[tuple[int, ...], ...]:
        """Per column j of S: (L / t_f) * S part[j] of each row of hs_forms, in order."""
        n, weights = self.n, self.spec.character_weights
        rows = [(w, row[n:]) for w, hf in zip(weights, self.hs_forms) for row in hf.rows]
        return tuple(tuple(w * part[j] for w, part in rows) for j in range(self.s))

    @cached_property
    def _division_plan(self) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
        """The _flat_steps of row_module.forms and the modulus of each flat entry."""
        return _flat_steps(self.row_module.forms), self.spec.factors * self.n

    def _quotients(self, x: RingVec) -> Optional[list[int]]:
        """The greedy quotients of x by row_module.forms, factor after factor, or
        None outside the row span.  They are those of [x | 0] by hs_forms,
        whose H part is the same rows."""
        steps, mods = self._division_plan
        if x.spec is not self.spec and x.spec != self.spec or len(x.flat) != len(mods):
            raise ValueError("vector does not match the system's ambient space")
        v = [*x.flat]
        qs = _reduce(steps, v)
        return None if any(map(mod, v, mods)) else qs

    def s_row(self, x: RingVec) -> Optional[RingVec]:
        """S_x, paired with x in the span of [H | S], or None outside the row span.

        S_x = sum q_i (S part)_i mod t over the greedy quotients of [x | 0].
        """
        return self._s_row(self._quotients(x))

    def _s_row(self, qs: Optional[list[int]]) -> Optional[RingVec]:
        """S_x from the quotients _quotients(x) returns (None gives None)."""
        if qs is None:
            return None
        parts, it = [], iter(qs)
        for hf in self.hs_forms:
            rows = [(q, row[self.n :]) for row, q in zip(hf.rows, it)]
            parts.append([sum(q * part[j] for q, part in rows) % hf.modulus for j in range(self.s)])
        return RingVec._of(self.spec, tuple(chain.from_iterable(zip(*parts))))

    def code_cardinality(self) -> int:
        return self.s * self.kernel_cardinality

    def __repr__(self) -> str:
        return (
            f"ParityCheckSystem({self.spec}, m={self.m}, n={self.n}, s={self.s})"
        )


def validate_pcs(
    h_rows: Sequence[RingVec], s_rows: Sequence[RingVec]
) -> ParityCheckSystem:
    """The system (H|S), raising as ParityCheckSystem does when (i) to (iii) fail."""
    return ParityCheckSystem(h_rows, s_rows)


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
        steps, mods = _flat_steps(kernel.forms), self.spec.factors * self.n
        for j, d in enumerate(self.representatives):
            v = [*d.flat]
            _reduce(steps, v)
            i = first.setdefault(tuple(map(mod, v, mods)), j)
            if i != j:
                clashes.append((i, j))
        if clashes:
            i, j = min(clashes)
            raise ValueError(f"representatives {i + 1} and {j + 1} present the same coset")

    @cached_property
    def _coset_plan(self) -> tuple[list[tuple[list[int], range]], list[tuple[int, int]], int]:
        """The rows of fourier_coeff_coset packed by _pack: D's Howell rows, with
        their (offset, t_f) fields, then per representative d its flat residues
        times L / t_f, 64 to a pack so that no field sits far up a long int,
        each pack with its exponent offsets; the largest field, an exponent
        before reduction mod L, is n sum_f (t_f - 1)^2 L / t_f, and sizes all."""
        spec, k = self.spec, self.spec.nfactors
        forms, weights = self.kernel.forms, spec.character_weights
        tests = [[a if g == f else 0 for a in row for g in range(k)]
                 for f, hf in enumerate(forms) for row in hf.rows]
        exps = [list(map(mul, d.flat, cycle(weights))) for d in self.representatives]
        width = (self.n * sum((t - 1) ** 2 * w for t, w in zip(spec.factors, weights))).bit_length()
        fields = [(width * e, hf.modulus) for e, hf in enumerate(hf for hf in forms for _ in hf.rows)]
        packs, head = [], tests
        for i in range(0, len(exps), 64):
            rows = head + exps[i:i + 64]
            packs.append((_pack(rows, width), range(width * len(head), width * len(rows), width)))
            head = []
        return packs, fields, (1 << width) - 1

    @property
    def s(self) -> int:
        return len(self.representatives)

    @property
    def cardinality(self) -> int:
        return self.s * self.kernel.cardinality

    @cached_property
    def _dual(self) -> Submodule:
        return self.kernel.annihilator()

    def dual_module(self) -> Submodule:
        """The annihilator of D, cached; its generators feed the H matrix."""
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


def _pack(rows: Sequence[Sequence[int]], width: int) -> list[int]:
    """Entry p is sum_e rows[e][p] << width*e, so sum(map(mul, v, packed)) holds
    v . rows[e] in bits [width*e, width*(e+1)): exact while entries are
    non-negative and every such product stays below 2**width."""
    return [sum(a << width * e for e, a in enumerate(col)) for col in zip(*rows)]


def _key(v: RingVec) -> tuple[int, ...]:
    """A syndrome's residues as one flat int tuple, factor by factor."""
    return tuple(chain.from_iterable(v.components()))


def syndrome_filter(
    pcs: ParityCheckSystem, syndromes: Iterable[RingVec]
) -> Callable[[RingVec], bool]:
    """A test of whether H y^T is one of syndromes, on flat keys."""
    keys = {_key(v) for v in syndromes}
    return lambda y: pcs._flat_syndrome(y) in keys


def member(pcs: ParityCheckSystem, x: RingVec) -> Optional[int]:
    """1-based syndrome column index of x, or None when x is outside the code."""
    return pcs._col_index.get(pcs._flat_syndrome(x))


def kernel(pcs: ParityCheckSystem) -> Submodule:
    """The kernel of the code: {y : r y + c stays in the code for all r, c}.

    It is the preimage under H of the kernel syndromes, so in each factor it
    is spanned by D, the kernel rows of ht_forms, and one solve per kernel
    syndrome.  For a linear code those syndromes are all of col(S), the
    annihilator of the syzygies of S's rows (see is_linear), and its
    canonical generators stand in for its s elements; otherwise
    _kernel_syndromes lists them from the column differences.
    """
    spec = pcs.spec
    s_span = Submodule.from_generators(spec, pcs.s, pcs.s_rows)
    if s_span.cardinality == pcs.s:
        syndromes = left_kernel(spec, s_span.forms).annihilator().canonical_generators()
    else:
        syndromes = _kernel_syndromes(pcs)
    parts = []
    for f, ht in enumerate(pcs.ht_forms):
        pullbacks = [ht.solve(sigma.component(f)) for sigma in syndromes]
        if None in pullbacks:
            raise InternalInconsistency("kernel syndrome has no preimage")
        parts.append(howell_rows([*ht.kernel_rows, *pullbacks], pcs.n, ht.modulus))
    return Submodule(spec, pcs.n, parts)


def _kernel_syndromes(pcs: ParityCheckSystem) -> list[RingVec]:
    """The sigma with r sigma + col(S) = col(S) for every scalar r.

    The r = 1 case makes sigma a member of the additive stabiliser of
    col(S), the column differences shared by every column.  That is a
    group, and r sigma is an integer combination of the e_f sigma for the
    factor idempotents e_f (1 in factor f, 0 elsewhere), so it is enough
    that every e_f sigma lies in the stabiliser too.
    """
    spec, cols = pcs.spec, pcs.s_cols
    check_budget(pcs.s * pcs.s, "column differences", "pairs")
    stabiliser = {vec_sub(c, cols[0]) for c in cols}
    for base in cols[1:]:
        stabiliser &= {vec_sub(c, base) for c in cols}
    idempotents = [
        spec.elem([int(g == f) for g in range(spec.nfactors)])
        for f in range(spec.nfactors)
    ]
    return [
        sigma for sigma in stabiliser if all(scale(e, sigma) in stabiliser for e in idempotents)
    ]


def is_linear(pcs: ParityCheckSystem) -> bool:
    """Whether the code is a submodule, i.e. col(S) is a submodule of R^m.

    The s distinct columns lie in their span M, so they are a submodule
    exactly when |M| = s.  The syzygies of S's rows are the annihilator of
    M and the kernel of r -> r S, so |M| = |R|^m / |syzygies| (Wood 1999)
    is the size of the row span of S: one Howell form of S per factor
    decides it, without the s^2 column pairs.
    """
    return Submodule.from_generators(pcs.spec, pcs.s, pcs.s_rows).cardinality == pcs.s
