"""Howell normal form of integer matrices modulo t.

Row reduction over Z_t cannot rely on division, so pivots are normalized to
divisors of t with unit multipliers, rows are combined with determinant-one
2x2 transforms built from extended gcds, and whenever a pivot b is a zero
divisor the row (t/gcd(b,t)) * row is appended so the span keeps all of its
"hidden" elements.  The resulting form is canonical for the row span: two
generating sets span the same submodule of Z_t^n exactly when their Howell
forms are equal, which makes membership, cardinality, solving and kernel
computations mechanical.

Everything here works on a single modulus; product rings are handled one
factor at a time by the callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

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


@dataclass
class HowellForm:
    """Canonical presentation of the row span of a matrix over Z_t.

    matrix      k x n, the nonzero Howell rows (k may be 0)
    pivot_cols  column index of each row's leading entry, strictly increasing
    transform   k x m with transform @ source = matrix (mod t)
    kernel      r x m; its rows generate {c in Z_t^m : c @ source = 0}
    """

    modulus: int
    ncols: int
    source_rows: int
    matrix: np.ndarray
    pivot_cols: tuple[int, ...]
    transform: np.ndarray
    kernel: np.ndarray

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(int(self.matrix[i, c]) for i, c in enumerate(self.pivot_cols))

    def span_cardinality(self) -> int:
        t = self.modulus
        card = 1
        for p in self.pivots:
            card *= t // p
        return card

    @cached_property
    def _rows(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """Per Howell row: its pivot column, pivot, and entries from there on."""
        return tuple(
            (col, row[col], tuple(row[col:]))
            for row, col in zip(self.matrix.tolist(), self.pivot_cols)
        )

    @cached_property
    def _transform_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.transform.tolist()))

    def reduce(self, v) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Greedy reduction of v down the pivot columns, in Python integers.

        Returns (coeffs, rest) with v = coeffs @ matrix + rest (mod t) and
        rest zero in every pivot column, or None when some pivot does not
        divide the entry left in its column.
        """
        t = self.modulus
        v = [int(a) % t for a in v]
        if len(v) != self.ncols:
            raise ValueError("vector length does not match the ambient space")
        coeffs = []
        for col, p, tail in self._rows:
            q, r = divmod(v[col], p)
            if r:
                return None
            if q:
                # a Howell row is zero before its pivot column
                v[col:] = [(a - q * b) % t for a, b in zip(v[col:], tail)]
            coeffs.append(q)
        return tuple(coeffs), tuple(v)

    def express(self, v) -> Optional[tuple[int, ...]]:
        """Coefficients c with c @ matrix = v (mod t), or None if v is outside.

        Greedy reduction down the pivot columns; correctness of the greedy
        choice is exactly the Howell span property.
        """
        reduced = self.reduce(v)
        if reduced is None or any(reduced[1]):
            return None
        return reduced[0]

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
        for c, row in zip(coeffs, self._transform_rows):
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


def howell_form(mat, t: int) -> HowellForm:
    """Compute the Howell form, row transform and left kernel of mat mod t."""
    if t < 2:
        raise ValueError("modulus must be >= 2")
    W = np.array(mat, dtype=np.int64)
    if W.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    W = W % t
    m, ncols = W.shape
    T = np.eye(m, dtype=np.int64)
    r = 0
    for col in range(ncols):
        # find a row with a nonzero entry in this column, at or below r
        j = r
        while j < len(W) and W[j, col] == 0:
            j += 1
        if j == len(W):
            continue
        if j > r:
            W[[r, j]] = W[[j, r]]
            T[[r, j]] = T[[j, r]]
        # normalize the pivot to gcd(pivot, t), a divisor of t
        u = stab_unit(int(W[r, col]), t)
        if u != 1:
            W[r] = (W[r] * u) % t
            T[r] = (T[r] * u) % t
        # clear the column below with determinant-one combinations
        for i in range(r + 1, len(W)):
            if W[i, col]:
                g, s, tt, uu, vv = split_gcd(int(W[r, col]), int(W[i, col]), t)
                new_r = (s * W[r] + tt * W[i]) % t
                new_i = (uu * W[r] + vv * W[i]) % t
                W[r], W[i] = new_r, new_i
                new_tr = (s * T[r] + tt * T[i]) % t
                new_ti = (uu * T[r] + vv * T[i]) % t
                T[r], T[i] = new_tr, new_ti
        b = int(W[r, col])
        # entries above the pivot are reduced to their residue mod the pivot
        for i in range(r):
            q = int(W[i, col]) // b
            if q:
                W[i] = (W[i] - q * W[r]) % t
                T[i] = (T[i] - q * T[r]) % t
        # a zero-divisor pivot hides span elements; append its annihilator row
        a = annihilator_generator(b, t)
        if a % t:
            W = np.vstack([W, (a * W[r]) % t])
            T = np.vstack([T, (a * T[r]) % t])
        r += 1
    howell = W[:r].copy()
    pivot_cols = tuple(int(np.flatnonzero(row)[0]) for row in howell)
    return HowellForm(
        modulus=t,
        ncols=ncols,
        source_rows=m,
        matrix=howell,
        pivot_cols=pivot_cols,
        transform=T[:r].copy(),
        kernel=T[r:].copy(),
    )


def solve_rowspan(mat, b, t: int) -> Optional[tuple[int, ...]]:
    """One solution x of x @ mat = b over Z_t, or None.

    The free directions are left at zero: the returned x is coeffs @ transform
    for the canonical greedy coefficients, with no kernel component added.
    """
    return howell_form(mat, t).solve(b)
