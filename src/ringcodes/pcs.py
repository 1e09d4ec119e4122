"""Parity check systems (H|S) and their two-way link with coset-presented codes.

A system over R consists of an m x n check matrix H and an m x s syndrome
matrix S subject to three conditions:

  (i)   every entry s_ij lies in the image ideal {h_i . x : x in R^n},
  (ii)  the columns of S are pairwise distinct,
  (iii) every dependency among the rows of H carries over to the rows of S,
        i.e. r H = 0 implies r S = 0; since the Howell form is canonical,
        this holds exactly when the Howell form of [H | S] has no pivot in S.

The code of a system is {x in R^n : H x^T is a column of S}; it is a union
of s cosets of D = {x : H x^T = 0} and need not be linear.  Conversely a
code given as reps + D is turned into a system by taking H to generate the
dual of D and tabulating the reps' syndromes.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import cycle
from operator import mod, mul
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from . import rings
from .howell import HowellForm, _flat_steps, _reduce, flat_rows, span_form
from .rings import (
    RingVec,
    check_budget,
    dot,
    from_components,
    scale,
    vec_sub,
    zero_vec,
)
from .submodules import Submodule, left_kernel, solve_forms, transpose_forms, transposed_forms

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
    with 1-based witness data.  One Howell form of [H | S] per ring factor
    decides (iii) and gives hs_forms and row_module.
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
        # (ii): distinct columns, the first index of each flat column
        first_of: dict[tuple[int, ...], int] = {}
        for j, col in enumerate(self.s_cols, 1):
            first = first_of.setdefault(col.flat, j)
            if first != j:
                raise ConditionIIViolation(first, j)
        # (iii): once the Howell loop on [H | S] is past H's columns, the rows
        # below its pivots are (0 | r S) for r spanning H's syzygies, so (iii)
        # holds exactly when no pivot falls in S
        n, pairs = self.n, tuple(zip(self.h_rows, self.s_rows))
        forms = [span_form([h.component(f) + s.component(f) for h, s in pairs], n + self.s, t)
                 for f, t in enumerate(spec.factors)]
        if any(c >= n for hf in forms for c in hf.pivot_cols):
            # the transforms of the rows pivoting in S and the kernel rows span
            # H's syzygies; their Howell forms are the syzygy module's own
            syz = Submodule(spec, self.m, [span_form(
                hf.transform_rows[sum(c < n for c in hf.pivot_cols):] + hf.kernel_rows,
                self.m, hf.modulus) for hf in forms])
            raise ConditionIIIViolation(next(
                r for r in syz.canonical_generators()
                if any(not dot(r, col).is_zero() for col in self.s_cols)))
        # the H part of the form of [H | S] is the form of H, transform and
        # kernel rows too: no operation touches a column without a pivot
        self.hs_forms = tuple(forms)
        self.row_module = Submodule(spec, n, [hf.head(n) for hf in forms])  # the row span of H
        self._syndrome_space: Optional[SyndromeSpace] = None
        # (distance, witness), filled by distance.min_distance_witness
        self._distance: Optional[tuple[int, RingVec]] = None

    @cached_property
    def s_span(self) -> Submodule:
        """The submodule of R^s generated by the rows of S, read by is_linear and kernel."""
        return Submodule.from_generators(self.spec, self.s, self.s_rows)

    @cached_property
    def kernel_module(self) -> Submodule:
        """D = {x : H x^T = 0}, the common kernel of the checks, from ht_forms."""
        return left_kernel(self.spec, self.ht_forms)

    @cached_property
    def _space_cost(self) -> int:
        """The larger of SyndromeSpace.cost's bytes and word operations."""
        from .reach import SyndromeSpace

        return max(SyndromeSpace.cost(self.spec, self.m, self.n))

    def syndrome_space(self) -> Optional[SyndromeSpace]:
        """The cached reachability tables, or None when they exceed DEFAULT_BUDGET."""
        if self._space_cost > rings.DEFAULT_BUDGET:
            return None
        if self._syndrome_space is None:
            from .reach import SyndromeSpace

            self._syndrome_space = SyndromeSpace(self.spec, self.h_rows)
        return self._syndrome_space

    @cached_property
    def _syndrome_plan(self) -> tuple:
        """(P, M, S, Q, L, index, T, fields, mask): H x^T as one reduced packed int.

        Entry e = i*k + f of H x^T, the RingVec.flat order, is the dot product
        of x with row i's factor-f residues, the other factors' positions
        zero.  _pack packs those rows scaled by w_f = L / t_f, L = lcm(t_f),
        on fields of F bits, so acc = sum(map(mul, x.flat, P)) holds
        v_e = w_f (h_i . x) in field e, and one multiply and one shift reduce
        every field at once (Barrett 1986; Granlund and Montgomery 1994):

            key = acc - ((acc * M >> S) & Q) * L,   M = ceil(2**S / L),

        Q the low W bits of every field, holds v_e mod L = w_f (h_i . x mod t_f)
        in field e.

        Why it is exact.  Residues are reduced and non-negative, so
        0 <= v_e < 2**W for W the bit length of n max_f (t_f - 1)^2 w_f.
        Write M L = 2**S + c, 0 <= c < L: then v M / 2**S = v / L + v c / (L 2**S),
        and the second term is below 2**(W - S) <= 2**-bitlen(L) < 1 / L when
        S >= W + bitlen(L).  The fraction of v / L is at most 1 - 1/L, so
        floor(v M / 2**S) = floor(v / L).  As L >= 2, M <= 2**S / L + 1 <= 2**S,
        so every v_e M is below 2**(W + S): with F = W + S no product carries
        into the next field, and after the shift field e's low W bits, which Q
        keeps, hold its quotient floor(v_e / L) < 2**W, while the low S bits
        of field e + 1 land above them, where Q drops them.  Each quotient
        times L is at most v_e, so the subtraction borrows across no field.

        T[e] = w_e << F*e keys a syndrome sigma as sum(map(mul, sigma.flat, T)),
        the same int; index maps the key of column j of S to j, 1-based;
        fields holds (F*e, w_e), and field e of a key is key >> F*e & mask.
        """
        spec, k = self.spec, self.spec.nfactors
        lcm, weights = spec.char_order, spec.character_weights
        rows = [[w * a if g == f else 0 for a in h.component(f) for g in range(k)]
                for h in self.h_rows for f, w in enumerate(weights)]
        top = (self.n * max((t - 1) ** 2 * w for t, w in zip(spec.factors, weights))).bit_length()
        shift = top + lcm.bit_length()
        width = top + shift
        fields = [(width * e, w) for e, w in enumerate(weights * self.m)]
        targets = [w << b for b, w in fields]
        index = {sum(map(mul, col.flat, targets)): j for j, col in enumerate(self.s_cols, 1)}
        quotients = sum(((1 << top) - 1) << b for b, _ in fields)
        return (_pack(rows, width), -(-(1 << shift) // lcm), shift, quotients, lcm,
                index, targets, fields, (1 << width) - 1)

    def _key(self, x: RingVec) -> int:
        """H x^T as one packed int, each entry e times w_e (see _syndrome_plan)."""
        packed, magic, shift, quotients, lcm, _, _, _, _ = self._syndrome_plan
        if x.spec is not self.spec and x.spec != self.spec or len(x.flat) != len(packed):
            raise ValueError("vector does not match the system's ambient space")
        acc = sum(map(mul, x.flat, packed))
        return acc - (acc * magic >> shift & quotients) * lcm

    def _sigma_key(self, sigma: RingVec) -> int:
        """The _key of every x with H x^T = sigma; ValueError outside R^m."""
        if sigma.spec != self.spec or len(sigma) != self.m:
            raise ValueError("syndrome does not match the system's check rows")
        return sum(map(mul, sigma.flat, self._syndrome_plan[6]))

    def syndrome(self, x: RingVec) -> RingVec:
        """H x^T, unpacked from _key field by field."""
        key = self._key(x)
        fields, mask = self._syndrome_plan[7:]
        return RingVec._of(self.spec, tuple([(key >> b & mask) // w for b, w in fields]))

    @cached_property
    def ht_forms(self) -> tuple[HowellForm, ...]:
        """One Howell form of H^T per ring factor, for pulling syndromes back."""
        return tuple(transpose_forms(self.h_rows))

    def preimage(self, sigma: RingVec) -> Optional[RingVec]:
        """One x with H x^T = sigma, free directions zeroed, or None."""
        if sigma.spec != self.spec or len(sigma) != self.m:
            raise ValueError("syndrome does not match the system's check rows")
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
    def _character_plan(self) -> tuple:
        """The _plan of fourier_coeff_pcs, from H's Howell rows G and hs_forms' S part.

        Per factor, the kernel rows of T = the form of G^T span D = {y : G y^T = 0},
        whose dual is the row span of H over a Frobenius ring (Wood 1999), and
        a_j = T.solve(sigma_j), sigma_j column j of the S part, has
        g_i . a_j = sigma_i[j] for each Howell row g_i: S_x(j) = x . a_j there.
        """
        ts = transposed_forms(self.row_module.forms)
        parts = [[T.solve([row[self.n + j] for row in hs.rows]) for j in range(self.s)]
                 for T, hs in zip(ts, self.hs_forms)]
        if any(None in sols for sols in parts):
            raise InternalInconsistency("a column of S has no solution against H's rows")
        return _plan(self.spec, self.n, left_kernel(self.spec, ts).forms,
                     [from_components(self.spec, a) for a in zip(*parts)],
                     self.kernel_cardinality, "vector does not match the system's ambient space")

    def s_row(self, x: RingVec) -> Optional[RingVec]:
        """S_x, paired with x in the span of [H | S], or None outside the row span."""
        from .fourier import fourier_coeff_pcs

        return self._s_on_span(x) if fourier_coeff_pcs(self, x).terms else None

    def _s_on_span(self, x: RingVec) -> RingVec:
        """S_x(j) = x . a_j, for x in the row span (see _character_plan)."""
        return RingVec.of(self.spec, [dot(x, a) for a in self._character_plan[3]])

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
    def _character_plan(self) -> tuple:
        """The _plan of fourier_coeff_coset, from D's forms and the representatives."""
        return _plan(self.spec, self.n, self.kernel.forms, self.representatives,
                     self.kernel.cardinality, "vector does not live in the ambient space")

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


def _plan(spec: rings.RingSpec, n: int, forms: Sequence[HowellForm],
          rows: Sequence[RingVec], scale: int, refusal: str) -> tuple:
    """(spec, L, scale, rows, packs, fields, mask, refusal): the plan of scale *
    sum_a zeta^(-eps(x . a)) over the vectors a in rows, where x . g = 0 mod t_f
    for the Howell rows g of forms.  _pack packs the g with their (offset, t_f)
    fields, then each a.flat times L / t_f, 64 to a pack with its exponent
    offsets (a field far up a long int is slow to read), on the width of the
    largest field, n sum_f (t_f - 1)^2 L / t_f.  Foreign x: ValueError(refusal)."""
    weights = spec.character_weights
    tests = [fields for fields, _ in flat_rows(forms, n)]
    exps = [list(map(mul, a.flat, cycle(weights))) for a in rows]
    width = (n * sum((t - 1) ** 2 * w for t, w in zip(spec.factors, weights))).bit_length()
    fields = [(width * e, hf.modulus) for e, hf in enumerate(hf for hf in forms for _ in hf.rows)]
    packs, head = [], tests
    for i in range(0, len(exps), 64):
        packed = head + exps[i:i + 64]
        packs.append((_pack(packed, width), range(width * len(head), width * len(packed), width)))
        head = []
    return spec, spec.char_order, scale, tuple(rows), packs, fields, (1 << width) - 1, refusal


def syndrome_filter(
    pcs: ParityCheckSystem, syndromes: Iterable[RingVec]
) -> Callable[[RingVec], bool]:
    """A test of whether H y^T is one of syndromes, on packed keys.

    A syndrome of another ring or of length other than m raises ValueError.
    """
    keys = {pcs._sigma_key(v) for v in syndromes}
    return lambda y: pcs._key(y) in keys


def member(pcs: ParityCheckSystem, x: RingVec) -> Optional[int]:
    """1-based syndrome column index of x, or None when x is outside the code."""
    return pcs._syndrome_plan[5].get(pcs._key(x))


def kernel(pcs: ParityCheckSystem) -> Submodule:
    """The kernel of the code: {y : r y + c stays in the code for all r, c}.

    It is the preimage under H of the kernel syndromes, so in each factor it
    is spanned by D, the kernel rows of ht_forms, and the preimage of each
    kernel syndrome.  For a linear code those syndromes are all of col(S), the
    annihilator of the syzygies of S's rows (see is_linear), and its
    canonical generators stand in for its s elements; otherwise
    _kernel_syndromes lists them from the column differences.
    """
    spec = pcs.spec
    if pcs.s_span.cardinality == pcs.s:
        syndromes = left_kernel(spec, pcs.s_span.forms).annihilator().canonical_generators()
    else:
        syndromes = _kernel_syndromes(pcs)
    pullbacks = [pcs.preimage(sigma) for sigma in syndromes]
    if None in pullbacks:
        raise InternalInconsistency("kernel syndrome has no preimage")
    parts = [
        span_form([*ht.kernel_rows, *(x.component(f) for x in pullbacks)], pcs.n, ht.modulus)
        for f, ht in enumerate(pcs.ht_forms)
    ]
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
    decides it, without the s^2 column pairs; kernel reads the same form.
    """
    return pcs.s_span.cardinality == pcs.s
