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
modulus; only the block walk over a span uses numpy.

Everything here works on a single modulus; product rings are handled one
factor at a time by the callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np


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


def _array(rows: Rows, ncols: int) -> np.ndarray:
    import numpy as np

    return np.array(rows, dtype=np.int64).reshape(len(rows), ncols)


@dataclass
class HowellForm:
    """Canonical presentation of the row span of a matrix over Z_t.

    rows            k rows of length n, the nonzero Howell rows (k may be 0)
    pivot_cols      column index of each row's leading entry, strictly increasing
    transform_rows  k rows of length m with transform @ source = rows (mod t)
    kernel_rows     rows of length m generating {c in Z_t^m : c @ source = 0}

    matrix, transform and kernel are the same three as int64 arrays, built
    on first access.
    """

    modulus: int
    ncols: int
    source_rows: int
    rows: Rows
    pivot_cols: tuple[int, ...]
    transform_rows: Rows
    kernel_rows: Rows

    matrix = cached_property(lambda self: _array(self.rows, self.ncols))
    transform = cached_property(lambda self: _array(self.transform_rows, self.source_rows))
    kernel = cached_property(lambda self: _array(self.kernel_rows, self.source_rows))

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(row[c] for row, c in zip(self.rows, self.pivot_cols))

    def span_cardinality(self) -> int:
        return math.prod(self.modulus // p for p in self.pivots)

    @cached_property
    def _rows(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """Per Howell row: its pivot column, pivot, and entries from there on."""
        return tuple((col, row[col], row[col:]) for row, col in zip(self.rows, self.pivot_cols))

    def divide(self, v) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(coeffs, rest) with v = coeffs @ rows + rest (mod t), in Python ints.

        Greedy division leaves 0 <= rest[col] < pivot in each pivot column,
        and rest is the same for every vector of the coset v + span: the
        difference of two rests is a span element with first pivot entry
        strictly between -pivot and pivot, hence 0, and by the Howell
        property the remainder of it is spanned by the later rows.
        """
        t = self.modulus
        v = [int(a) % t for a in v]
        if len(v) != self.ncols:
            raise ValueError("vector length does not match the ambient space")
        coeffs = []
        for col, p, tail in self._rows:
            q = v[col] // p
            if q:
                # a Howell row is zero before its pivot column
                v[col:] = [(a - q * b) % t for a, b in zip(v[col:], tail)]
            coeffs.append(q)
        return tuple(coeffs), tuple(v)

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

    def enumerate_span(self) -> Iterator[np.ndarray]:
        """All span elements exactly once, coefficient odometer order."""
        for (block,) in span_blocks([self]):
            yield from block


#: Points per block of span_blocks.
_BLOCK = 4096


def span_blocks(forms: Sequence[HowellForm]) -> Iterator[list[np.ndarray]]:
    """The span of a product of per-factor forms, in blocks of points.

    Each block is a list with one (B, ncols) array per form, B <= _BLOCK,
    row b of every array being one factor component of the same point.
    Points come in odometer order over the forms, the last fastest, and
    within a form over the coefficients of its rows in itertools.product
    order.  That is one mixed-radix count over all rows of all forms, row
    i running through 0 .. t / pivot_i - 1, cut into runs of _BLOCK.
    """
    import numpy as np

    digits = [
        (f, row, hf.modulus // int(row[col]))
        for f, hf in enumerate(forms)
        for row, col in zip(hf.matrix, hf.pivot_cols)
    ]
    strides, total = [], 1
    for _, _, radix in reversed(digits):
        strides.insert(0, total)
        total *= radix
    for lo in range(0, total, _BLOCK):
        offsets = np.arange(min(_BLOCK, total - lo))
        block = [np.zeros((len(offsets), hf.ncols), dtype=np.int64) for hf in forms]
        for (f, row, radix), stride in zip(digits, strides):
            q, r = divmod(lo, stride)
            # a digit whose stride is at least _BLOCK steps at most once per block
            if stride < _BLOCK:
                steps = (offsets + r) // stride
            else:
                steps = offsets >= min(stride - r, _BLOCK)
            digit = (steps + q % radix) % radix
            t = forms[f].modulus
            block[f] = (block[f] + digit[:, None] * row % t) % t
        yield block


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
