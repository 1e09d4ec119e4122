"""Howell normal form of integer matrices modulo t.

Row reduction over Z_t cannot rely on division, so pivots are normalized to
divisors of t with unit multipliers, rows are combined with determinant-one
2x2 transforms built from extended gcds, and whenever a pivot b is a zero
divisor the row (t/gcd(b,t)) * row is appended so the span keeps all of its
"hidden" elements.  The resulting form is canonical for the row span: two
generating sets span the same submodule of Z_t^n exactly when their Howell
forms are equal, which makes membership, cardinality, solving and kernel
computations mechanical.

The forms are computed and held as tuples of Python ints, exact for any
modulus, and span_walk lists a span with each point packed into one int.

Everything here works on a single modulus; product rings are handled one
factor at a time by the callers.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

from .rings import Value, check_budget


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b), for any integers."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def stab_unit(x: int, t: int) -> int:
    """A unit u mod t with u*x = gcd(x, t) mod t.

    Let g = gcd(x, t) and t' = t/g.  Then x/g is invertible mod t', and u is
    lifted to a unit mod t by requiring u = 1 modulo the part of t coprime
    to t'.  The two moduli are coprime, so the lift exists.
    """
    x %= t
    g = math.gcd(x, t)
    t1 = t // g
    if t1 == 1:
        return 1
    u0 = pow((x // g) % t1, -1, t1)
    # strip from t every prime it shares with t1
    m = t
    d = math.gcd(m, t1)
    while d > 1:
        m //= d
        d = math.gcd(m, t1)
    if m == 1:
        return u0 % t
    k = ((1 - u0) * pow(t1 % m, -1, m)) % m
    return (u0 + t1 * k) % t


def split_gcd(a: int, b: int, t: int) -> tuple[int, int, int, int, int]:
    """Coefficients of a determinant-one row combination mod t.

    Returns (g, s, tt, u, v) with s*a + tt*b = g = gcd(a, b) and
    u*a + v*b = 0, where s*v - tt*u = 1.  Used to zero an entry below a
    pivot while keeping the row span intact.
    """
    g, s, tt = ext_gcd(a, b)
    u, v = -(b // g), a // g
    return g, s % t, tt % t, u % t, v % t


def annihilator_generator(b: int, t: int) -> int:
    """Generator of the ideal {c : c*b = 0 mod t}, namely t // gcd(b, t)."""
    return t // math.gcd(b % t, t)


Rows = tuple[tuple[int, ...], ...]


class HowellForm(Value):
    """Canonical presentation of the row span of a matrix over Z_t.

    rows            k rows of length n, the nonzero Howell rows (k may be 0)
    pivot_cols      column index of each row's leading entry, strictly increasing
    transform_rows  k rows of length m with transform @ source = rows (mod t)
    kernel_rows     rows of length m generating {c in Z_t^m : c @ source = 0}
    """

    __slots__ = ("modulus", "ncols", "source_rows", "rows", "pivot_cols",
                 "transform_rows", "kernel_rows", "_steps")
    __match_args__ = __slots__[:-1]  # _steps is derived from rows and pivot_cols

    def __init__(self, modulus: int, ncols: int, source_rows: int, rows: Rows,
                 pivot_cols: tuple[int, ...], transform_rows: Rows, kernel_rows: Rows):
        self.modulus = modulus
        self.ncols = ncols
        self.source_rows = source_rows
        self.rows = rows
        self.pivot_cols = pivot_cols
        self.transform_rows = transform_rows
        self.kernel_rows = kernel_rows
        self._steps = None  # the division steps, built by the first divide

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(row[c] for row, c in zip(self.rows, self.pivot_cols))

    def span_cardinality(self) -> int:
        return math.prod(self.modulus // p for p in self.pivots)

    def divide(self, v: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(coeffs, rest) with v = coeffs @ rows + rest (mod t), in Python ints.

        Greedy division leaves 0 <= rest[col] < pivot in each pivot column,
        and rest is the same for every vector of the coset v + span: the
        difference of two rests is a span element with first pivot entry
        strictly between -pivot and pivot, hence 0, and by the Howell
        property the remainder of it is spanned by the later rows.  Entries
        become Python ints, so nothing overflows, and the loop is _reduce.
        """
        if len(v) != self.ncols:
            raise ValueError("vector length does not match the ambient space")
        if self._steps is None:
            self._steps = _flat_steps([self])
        t, v = self.modulus, list(map(int, v))
        return tuple(_reduce(self._steps, v)), tuple([a % t for a in v])

    def express(self, v) -> Optional[tuple[int, ...]]:
        """Coefficients c with c @ rows = v (mod t), or None if v is outside.

        Correctness of the greedy choice is exactly the Howell span property.
        """
        coeffs, rest = self.divide(v)
        return None if any(rest) else coeffs

    def contains(self, v) -> bool:
        return self.express(v) is not None

    def solve(self, v) -> Optional[tuple[int, ...]]:
        """One x with x @ source = v (mod t), free directions zeroed, or None.

        x is the greedy coefficients times the transform, summed exactly
        in Python integers and reduced mod t once.
        """
        coeffs = self.express(v)
        if coeffs is None:
            return None
        x = [0] * self.source_rows
        for c, row in zip(coeffs, self.transform_rows):
            if c:
                x = [a + c * b for a, b in zip(x, row)]
        t = self.modulus
        return tuple(a % t for a in x)

    def enumerate_span(self) -> Iterator[tuple[int, ...]]:
        """All span elements exactly once, coefficient odometer order."""
        check_budget(self.span_cardinality(), "span enumeration")
        return span_tuples([self])


def _reduce(steps: Sequence[tuple], v: list[int]) -> list[int]:
    """The greedy quotients of the int list v by _flat_steps, leaving the rest
    in v, reduced mod t only where a quotient reads it."""
    qs = []
    for col, t, p, tail in steps:
        q = v[col] % t // p
        if q:
            for i, b in tail:
                v[i] -= q * b
        qs.append(q)
    return qs


def _flat_steps(forms: Sequence[HowellForm]) -> tuple[tuple, ...]:
    """Per Howell row of forms, one per ring factor: (pivot index, t, pivot, the
    nonzero (index, entry) pairs), entry i of factor f of k at index i*k + f."""
    k = len(forms)
    return tuple(
        (col * k + f, hf.modulus, row[col], tuple((i * k + f, b) for i, b in enumerate(row) if b))
        for f, hf in enumerate(forms)
        for row, col in zip(hf.rows, hf.pivot_cols)
    )


#: Points per block of span_walk, the most it holds at once.
_BLOCK = 4096


def field_bits(moduli: Sequence[int]) -> int:
    """Bits per field of a packed point: one more than the largest modulus needs."""
    return max(moduli, default=1).bit_length() + 1


def flat_rows(forms: Sequence[HowellForm], ncols: int) -> list[tuple[list[int], int]]:
    """Per Howell row of forms, one per ring factor: (its first ncols entries
    at flat fields i*k + f, its radix t / pivot), in the order of the forms."""
    k = len(forms)
    out = []
    for f, hf in enumerate(forms):
        for row, col in zip(hf.rows, hf.pivot_cols):
            fields = [0] * (k * ncols)
            fields[f::k] = row[:ncols]
            out.append((fields, hf.modulus // row[col]))
    return out


def span_walk(rows: Sequence[tuple[Sequence[int], int]], moduli: Sequence[int]) -> Iterator[list[int]]:
    """Every sum of c_i * fields_i with 0 <= c_i < radix_i, in lists of points.

    rows are (fields, radix) pairs of residues, field j mod moduli[j].  A
    point is one Python int holding field j at bit field_bits(moduli) * j.
    Points come in one mixed-radix count over the coefficients, the first
    row slowest, in lists of at most _BLOCK points.  Adding a row is one
    SWAR (SIMD within a register) add: each field of x = p + m is below
    2t < 2^B, the top bit of x + K with K = 2^(B-1) - t is set in exactly
    the fields where x >= t, and those fields lose t.
    """
    B = field_bits(moduli)
    sh = B - 1
    TP = sum(t << (B * j) for j, t in enumerate(moduli))
    TOP = sum(1 << (B * j + sh) for j in range(len(moduli)))
    K = TOP - TP

    def add(p: int, m: int) -> int:
        x = p + m
        h = (x + K) & TOP
        return x - ((h - (h >> sh)) & TP)

    def offsets(rows: list) -> Iterator[int]:  # every sum of c_i * m_i, the first row slowest
        if not rows:
            yield 0
            return
        (m, r), rest = rows[0], rows[1:]
        q = 0
        for _ in range(r):
            for o in offsets(rest):
                yield add(q, o)
            q = add(q, m)

    packed = [(sum(a << (B * j) for j, a in enumerate(fields) if a), r) for fields, r in rows]
    # the fastest rows whose radices multiply to at most _BLOCK, expanded once
    j, size = len(packed), 1
    while j and size * packed[j - 1][1] <= _BLOCK:
        j -= 1
        size *= packed[j][1]
    base = [0]
    for m, r in reversed(packed[j:]):  # each row slower than those in base
        cm = [0]  # cm[c] = c * m
        for _ in range(r - 1):
            cm.append(add(cm[-1], m))
        base += [(x := a + b) - (((h := x + K & TOP) - (h >> sh)) & TP)
                 for a in cm[1:] for b in base]  # add, inlined: a call per point costs more
    # the slower rows offset the base, as many offsets per block as fit
    block: list[int] = []
    for q in offsets(packed[:j]):
        block += [(x := q + b) - (((h := x + K & TOP) - (h >> sh)) & TP)
                  for b in base] if q else base
        if len(block) + size > _BLOCK:
            yield block
            block = []
    if block:
        yield block


def span_tuples(forms: Sequence[HowellForm]) -> Iterator[tuple[int, ...]]:
    """The span of one form per ring factor, each point as its flat residues
    (entry i of factor f at i*k + f), in span_walk order."""
    ncols = forms[0].ncols
    moduli = tuple(hf.modulus for hf in forms) * ncols
    B = field_bits(moduli)
    mask = (1 << B) - 1
    for block in span_walk(flat_rows(forms, ncols), moduli):
        # one field of every point at a time, then the points' tuples
        cols = [[p >> s & mask for p in block] for s in range(0, B * len(moduli), B)]
        yield from zip(*cols) if cols else [()] * len(block)


def _combine(a: int, x: list[int], b: int, y: list[int], t: int) -> list[int]:
    return [(a * p + b * q) % t for p, q in zip(x, y)]


def howell_rows(rows: Sequence[Sequence[int]], ncols: int, t: int) -> HowellForm:
    """howell_form of a list of integer rows of length ncols.

    The row operations run on [W | T], W the residues of the rows and T
    the identity, so that T records the transform; the rows whose W part
    ends up zero are the kernel.
    """
    if t < 2:
        raise ValueError("modulus must be >= 2")
    m = len(rows)
    WT = [[a % t for a in row] + [int(i == j) for j in range(m)] for i, row in enumerate(rows)]
    pivot_cols = []
    r = 0
    for col in range(ncols):
        if r == len(WT):  # no row left to pivot on
            break
        # find a row with a nonzero entry in this column, at or below r
        j = next((i for i in range(r, len(WT)) if WT[i][col]), None)
        if j is None:
            continue
        WT[r], WT[j] = WT[j], WT[r]
        # normalize the pivot to gcd(pivot, t), a divisor of t
        u = stab_unit(WT[r][col], t)
        if u != 1:
            WT[r] = [a * u % t for a in WT[r]]
        # clear the column below with determinant-one combinations
        for i in range(r + 1, len(WT)):
            if WT[i][col]:
                g, s, tt, uu, vv = split_gcd(WT[r][col], WT[i][col], t)
                WT[r], WT[i] = _combine(s, WT[r], tt, WT[i], t), _combine(uu, WT[r], vv, WT[i], t)
        b = WT[r][col]
        # entries above the pivot are reduced to their residue mod the pivot
        for i in range(r):
            q = WT[i][col] // b
            if q:
                WT[i] = _combine(1, WT[i], -q, WT[r], t)
        # a zero-divisor pivot hides span elements; append its annihilator row
        a = annihilator_generator(b, t)
        if a % t:
            WT.append([a * x % t for x in WT[r]])
        pivot_cols.append(col)
        r += 1
    return HowellForm(
        modulus=t,
        ncols=ncols,
        source_rows=m,
        rows=tuple(tuple(row[:ncols]) for row in WT[:r]),
        pivot_cols=tuple(pivot_cols),
        transform_rows=tuple(tuple(row[ncols:]) for row in WT[:r]),
        kernel_rows=tuple(tuple(row[ncols:]) for row in WT[r:]),
    )


def howell_form(mat, t: int) -> HowellForm:
    """Compute the Howell form, row transform and left kernel of mat mod t.

    mat is a 2-d integer array or a sequence of equal-length integer rows.
    """
    try:
        rows = [[int(a) for a in row] for row in mat]
        # one row length; an array gives its own even when it has no rows
        (ncols,) = mat.shape[1:] if hasattr(mat, "shape") else {len(row) for row in rows}
    except (TypeError, ValueError):
        raise ValueError("expected a 2-d matrix") from None
    return howell_rows(rows, ncols, t)


def solve_rowspan(mat, b, t: int) -> Optional[tuple[int, ...]]:
    """One solution x of x @ mat = b over Z_t, or None.

    The free directions are left at zero: the returned x is coeffs @ transform
    for the canonical greedy coefficients, with no kernel component added.
    """
    return howell_form(mat, t).solve(b)
