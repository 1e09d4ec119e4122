"""Plain-text problem files describing a system or a coset-presented code.

The format is line oriented and hand editable.  '#' starts a comment that
runs to the end of the line.  The first non-blank line is a ring literal
(Z6, Z2xZ3, ...), the second is the mode, 'pcs' or 'code'.

pcs mode: each following line is one row of H, a '|', and one row of S:

    Z6
    pcs
    1 1 3 5 | 0 1 5
    0 4 2 2 | 0 2 4

code mode: a block of generators of D, a blank line, then a block of coset
representatives:

    Z6
    code
    2 1 1 0
    0 1 0 1
    3 0 3 0

    0 0 0 0
    5 2 0 0
    4 1 0 0

Elements are bare integers when the ring has one factor and parenthesized
tuples like (1,2) otherwise.
"""

from __future__ import annotations

import re
from typing import Optional

from .pcs import CodePresentation, ParityCheckSystem, code_to_pcs, validate_pcs
from .rings import RingSpec, RingVec, Value, parse_ring, zero_vec
from .submodules import Submodule


class ParseError(Exception):
    """A problem file or vector literal that does not parse; 1-based location."""

    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}"
            if col is not None:
                where += f", col {col}"
            where += ": "
        super().__init__(where + message)


class ProblemFile(Value):
    """Parsed contents of one problem file; mode is 'pcs' or 'code'."""

    __slots__ = __match_args__ = ("spec", "mode", "h_rows", "s_rows", "generators",
                                  "representatives")

    def __init__(self, spec: RingSpec, mode: str, h_rows: tuple[RingVec, ...] = (),
                 s_rows: tuple[RingVec, ...] = (), generators: tuple[RingVec, ...] = (),
                 representatives: tuple[RingVec, ...] = ()):
        self.spec = spec
        self.mode = mode
        self.h_rows = h_rows
        self.s_rows = s_rows
        self.generators = generators
        self.representatives = representatives


_TOKEN_RE = re.compile(r"\(\s*-?\d+(?:\s*,\s*-?\d+)*\s*\)|-?\d+|\||\S")


def _tokenize(line: str) -> list[tuple[str, int]]:
    """Tokens with 1-based column positions; junk becomes a one-char token."""
    return [(m.group(0), m.start() + 1) for m in _TOKEN_RE.finditer(line)]


def _vector(spec: RingSpec, tokens: list[tuple[str, int]], lineno: int) -> RingVec:
    """A row's element tokens as one vector of reduced flat residues.  The
    tokenizer has split them: an integer ends in a digit, junk is one other
    character."""
    k, factors = spec.nfactors, spec.factors
    flat: list[int] = []
    for token, col in tokens:
        if token[0] == "(":
            if k == 1:
                raise ParseError(
                    f"ring {spec} has one factor, write elements as bare integers",
                    lineno, col,
                )
            parts = token[1:-1].split(",")
            if len(parts) != k:
                raise ParseError(
                    f"element {token} has {len(parts)} residues, ring {spec} needs {k}",
                    lineno, col,
                )
            flat += [int(p) % t for p, t in zip(parts, factors)]
        elif not token[-1].isdecimal():
            raise ParseError(f"unexpected token {token!r}", lineno, col)
        elif k != 1:
            raise ParseError(
                f"ring {spec} has {k} factors, write elements as (a,{',...' if k > 2 else 'b'})",
                lineno, col,
            )
        else:
            flat.append(int(token) % factors[0])
    return RingVec._of(spec, tuple(flat))


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _rows(spec: RingSpec, block: list[tuple[str, int]],
          bar: bool) -> tuple[tuple[RingVec, ...], ...]:
    """The vectors of one block's lines, as (H rows, S rows) when bar is set,
    each line split at its one '|', else as (rows,) with no '|' allowed.
    Every line must have the first one's shape."""
    rows, shape = [], None
    for line, no in block:
        toks = _tokenize(line)
        cols = [c for t, c in toks if t == "|"]
        if not bar:
            if cols:
                raise ParseError("'|' does not belong in code mode", no, cols[0])
            parts = [toks]
        elif not cols:
            raise ParseError("pcs row needs a '|' between H and S entries", no, 1)
        elif len(cols) > 1:
            raise ParseError("only one '|' per row", no, cols[1])
        else:
            cut = toks.index(("|", cols[0]))
            parts = [toks[:cut], toks[cut + 1:]]
            if not all(parts):
                raise ParseError("both sides of '|' need at least one entry", no, 1)
        rows.append([_vector(spec, part, no) for part in parts])
        got = [*map(len, parts)]  # one token per entry, as _vector passed them all
        if shape is None:
            shape = got
        elif got != shape:
            raise ParseError(f"row has {'|'.join(map(str, got))} entries, expected "
                             f"{'|'.join(map(str, shape))}", no, 1)
    return tuple(zip(*rows))


def parse_problem(text: str) -> ProblemFile:
    """Parse problem-file text; raises ParseError with a 1-based location."""
    lines = [(_strip_comment(raw), i + 1) for i, raw in enumerate(text.splitlines())]
    content = [(line, no) for line, no in lines if line.strip()]
    if not content:
        raise ParseError("empty file: expected a ring literal")
    ring_text, ring_line = content[0]
    try:
        spec = parse_ring(ring_text.strip())
    except ValueError as exc:
        raise ParseError(str(exc), ring_line, 1) from None
    if len(content) < 2:
        raise ParseError("missing mode line, expected 'pcs' or 'code'", ring_line)
    mode_text, mode_line = content[1]
    mode = mode_text.strip().lower()
    if mode not in ("pcs", "code"):
        raise ParseError(f"mode must be 'pcs' or 'code', got {mode_text.strip()!r}", mode_line, 1)

    # data region: original line order, blocks split on blank lines
    blocks: list[list[tuple[str, int]]] = [[]]
    for line, no in lines[mode_line:]:
        if line.strip():
            blocks[-1].append((line, no))
        elif blocks[-1]:
            blocks.append([])
    if not blocks[-1]:
        blocks.pop()

    if mode == "pcs":
        if len(blocks) != 1:
            raise ParseError("pcs mode expects one contiguous block of rows", mode_line)
        h_rows, s_rows = _rows(spec, blocks[0], True)
        return ProblemFile(spec, "pcs", h_rows=h_rows, s_rows=s_rows)
    if len(blocks) != 2:
        raise ParseError(
            f"code mode expects two blocks separated by a blank line, got {len(blocks)}",
            mode_line,
        )
    gens, reps = (_rows(spec, block, False)[0] for block in blocks)
    if len(gens[0]) != len(reps[0]):
        raise ParseError("generator and representative blocks disagree on length")
    return ProblemFile(spec, "code", generators=gens, representatives=reps)


def format_vector(v: RingVec) -> str:
    return " ".join(str(e) for e in v)


def serialize_pcs(pcs: ParityCheckSystem) -> str:
    lines = [str(pcs.spec), "pcs"]
    for h, srow in zip(pcs.h_rows, pcs.s_rows):
        lines.append(f"{format_vector(h)} | {format_vector(srow)}")
    return "\n".join(lines) + "\n"


def serialize_code(pres: CodePresentation) -> str:
    lines = [str(pres.spec), "code"]
    gens = pres.kernel.canonical_generators()
    if not gens:
        gens = (zero_vec(pres.spec, pres.n),)
    for g in gens:
        lines.append(format_vector(g))
    lines.append("")
    for d in pres.representatives:
        lines.append(format_vector(d))
    return "\n".join(lines) + "\n"


def as_system(pf: ProblemFile) -> ParityCheckSystem:
    """Validated system for either mode (code mode converts first)."""
    if pf.mode == "pcs":
        return validate_pcs(pf.h_rows, pf.s_rows)
    return code_to_pcs(as_presentation(pf))


def as_presentation(pf: ProblemFile) -> CodePresentation:
    if pf.mode != "code":
        raise ValueError("not a code-mode file")
    n = len(pf.generators[0])
    kernel = Submodule.from_generators(pf.spec, n, pf.generators)
    return CodePresentation(kernel, pf.representatives)


def parse_vector_literal(spec: RingSpec, text: str) -> RingVec:
    """A vector from the command line: elements split by commas or spaces."""
    tokens = [(tok, col) for tok, col in _tokenize(text) if tok != ","]
    if not tokens:
        raise ParseError("empty vector", 1, 1)
    return _vector(spec, tokens, 1)
