"""Problem-file parsing, serialization round trips, vector literals."""

import pytest

from ringcodes import (
    ParseError,
    RingVec,
    as_presentation,
    as_system,
    parse_problem,
    parse_ring,
    parse_vector_literal,
    pcs_to_code,
    serialize_code,
    serialize_pcs,
)
from conftest import Z6, Z6_H, Z6_S_ROWS, build_z6_pcs, build_z6_presentation, rv

Z6_PCS_TEXT = """\
# running example over Z6
Z6
pcs
1 1 3 5 | 0 1 5
0 4 2 2 | 0 2 4
"""

Z6_CODE_TEXT = """\
Z6
code
2 1 1 0   # generators of D
0 1 0 1
3 0 3 0

0 0 0 0   # coset representatives
5 2 0 0
4 1 0 0
"""


def test_parse_pcs_file():
    pf = parse_problem(Z6_PCS_TEXT)
    assert pf.mode == "pcs"
    assert str(pf.spec) == "Z6"
    assert pf.h_rows == tuple(rv(Z6, h) for h in Z6_H)
    assert pf.s_rows == tuple(rv(Z6, s) for s in Z6_S_ROWS)
    pcs = as_system(pf)
    assert pcs.code_cardinality() == 216


def test_parse_code_file():
    pf = parse_problem(Z6_CODE_TEXT)
    assert pf.mode == "code"
    assert len(pf.generators) == 3
    assert len(pf.representatives) == 3
    pres = as_presentation(pf)
    assert pres.cardinality == 216
    assert pres.kernel.cardinality == 72
    pcs = as_system(pf)
    assert pcs.code_cardinality() == 216


def test_parse_product_ring_elements():
    text = """\
Z2xZ3
pcs
(1,0) (0,1) | (0,0)
(0,2) (1,1) | (0,0)
"""
    pf = parse_problem(text)
    spec = parse_ring("Z2xZ3")
    assert pf.h_rows[0] == rv(spec, ((1, 0), (0, 1)))
    assert pf.s_rows[1] == rv(spec, ((0, 0),))


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nZ6\n  # note\npcs\n0 0 | 0   # zero row\n"
    pf = parse_problem(text)
    assert pf.mode == "pcs"
    assert len(pf.h_rows) == 1


def test_parse_errors_have_locations():
    with pytest.raises(ParseError):
        parse_problem("")
    with pytest.raises(ParseError) as exc:
        parse_problem("Q9\npcs\n1 | 0\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        parse_problem("Z6\nmatrix\n1 | 0\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_problem("Z6\n")  # missing mode


def test_parse_error_missing_or_extra_bars():
    with pytest.raises(ParseError) as exc:
        parse_problem("Z6\npcs\n1 2 3\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError):
        parse_problem("Z6\npcs\n1 | 2 | 3\n")
    with pytest.raises(ParseError):
        parse_problem("Z6\npcs\n| 1\n")
    with pytest.raises(ParseError):
        parse_problem("Z6\npcs\n1 |\n")


def test_parse_error_ragged_rows():
    with pytest.raises(ParseError) as exc:
        parse_problem("Z6\npcs\n1 2 | 0\n1 | 0\n")
    assert exc.value.line == 4
    with pytest.raises(ParseError):
        parse_problem("Z6\ncode\n1 2\n1\n\n0 0\n")


def test_parse_error_element_shape():
    # tuples in a one-factor ring
    with pytest.raises(ParseError):
        parse_problem("Z6\npcs\n(1,2) | 0\n")
    # bare integers in a product ring
    with pytest.raises(ParseError):
        parse_problem("Z2xZ3\npcs\n1 | (0,0)\n")
    # wrong residue count
    with pytest.raises(ParseError):
        parse_problem("Z2xZ3\npcs\n(1,2,3) | (0,0)\n")
    # junk token
    with pytest.raises(ParseError) as exc:
        parse_problem("Z6\npcs\n1 ? | 0\n")
    assert exc.value.line == 3
    assert exc.value.col == 3


def test_parse_error_block_structure():
    # code mode needs exactly two blocks
    with pytest.raises(ParseError):
        parse_problem("Z6\ncode\n1 0\n")
    with pytest.raises(ParseError):
        parse_problem("Z6\ncode\n1 0\n\n0 0\n\n1 1\n")
    # pcs mode must be one contiguous block
    with pytest.raises(ParseError):
        parse_problem("Z6\npcs\n1 | 0\n\n2 | 0\n")
    # pcs mode with no rows at all
    with pytest.raises(ParseError):
        parse_problem("Z6\npcs\n")
    # '|' in code mode
    with pytest.raises(ParseError):
        parse_problem("Z6\ncode\n1 | 0\n\n0 0\n")


# problem text -> the ParseError text, with its line and column
ROW_ERRORS = {
    "Z6\npcs\n1 2 3\n": "line 3, col 1: pcs row needs a '|' between H and S entries",
    "Z6\npcs\n1 | 2 | 3\n": "line 3, col 7: only one '|' per row",
    "Z6\npcs\n1 ? | 2 | 3\n": "line 3, col 9: only one '|' per row",
    "Z6\npcs\n| 1\n": "line 3, col 1: both sides of '|' need at least one entry",
    "Z6\npcs\n1 |\n": "line 3, col 1: both sides of '|' need at least one entry",
    "Z6\npcs\n1 ? | (1,2)\n": "line 3, col 3: unexpected token '?'",
    "Z6\npcs\n1 | (1,2)\n":
        "line 3, col 5: ring Z6 has one factor, write elements as bare integers",
    "Z6\npcs\n1 2 | 0\n1 | 0\n": "line 4, col 1: row has 1|1 entries, expected 2|1",
    "Z6\npcs\n1 2 | 0\n1 2 | 0 0\n": "line 4, col 1: row has 2|2 entries, expected 2|1",
    "Z6\ncode\n1 | 0\n\n0 0\n": "line 3, col 3: '|' does not belong in code mode",
    "Z6\ncode\n1 2\n1\n\n0 0\n": "line 4, col 1: row has 1 entries, expected 2",
    "Z6\ncode\n1 2\n\n0 0\n0 0 0\n": "line 6, col 1: row has 3 entries, expected 2",
    "Z6\ncode\n1 ?\n\n0 0 |\n": "line 3, col 3: unexpected token '?'",
    "Z6\ncode\n1 2\n\n0 0 0\n": "generator and representative blocks disagree on length",
}


@pytest.mark.parametrize("text", ROW_ERRORS)
def test_row_errors_keep_their_text_and_location(text):
    # a block reads line by line: the first bad line, and within it the first fault
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert str(exc.value) == ROW_ERRORS[text]


def test_negative_entries_reduce():
    pf = parse_problem("Z6\npcs\n-1 -5 | 0\n")
    assert pf.h_rows[0] == rv(Z6, (5, 1))


def test_serialize_pcs_round_trip(z6_pcs):
    text = serialize_pcs(z6_pcs)
    pf = parse_problem(text)
    assert pf.h_rows == z6_pcs.h_rows
    assert pf.s_rows == z6_pcs.s_rows


def test_serialize_code_round_trip(z6_pcs):
    pres = pcs_to_code(z6_pcs)
    text = serialize_code(pres)
    pf = parse_problem(text)
    back = as_presentation(pf)
    assert back.kernel == pres.kernel
    assert back.representatives == pres.representatives


def test_serialize_code_trivial_kernel():
    from ringcodes import CodePresentation, Submodule, zero_vec

    spec = parse_ring("Z4")
    pres = CodePresentation(
        Submodule.from_generators(spec, 2, []),
        (zero_vec(spec, 2), rv(spec, (1, 1))),
    )
    text = serialize_code(pres)
    pf = parse_problem(text)
    assert as_presentation(pf).kernel.cardinality == 1
    assert as_presentation(pf).cardinality == 2


def test_serialize_product_ring_round_trip():
    spec = parse_ring("Z2xZ3")
    from ringcodes import CodePresentation, Submodule, code_to_pcs, zero_vec

    D = Submodule.from_generators(spec, 2, [rv(spec, ((1, 1), (0, 1)))])
    pcs = code_to_pcs(CodePresentation(D, (zero_vec(spec, 2),)))
    pf = parse_problem(serialize_pcs(pcs))
    assert pf.h_rows == pcs.h_rows
    assert pf.s_rows == pcs.s_rows


def test_parse_vector_literal_forms():
    assert parse_vector_literal(Z6, "5,0,0,1") == rv(Z6, (5, 0, 0, 1))
    assert parse_vector_literal(Z6, "5 0 0 1") == rv(Z6, (5, 0, 0, 1))
    assert parse_vector_literal(Z6, " 5, 0 ,0  1") == rv(Z6, (5, 0, 0, 1))
    spec = parse_ring("Z2xZ3")
    assert parse_vector_literal(spec, "(1,0),(0,1)") == rv(
        spec, ((1, 0), (0, 1))
    )
    assert parse_vector_literal(spec, "(1,0) (0,1)") == rv(
        spec, ((1, 0), (0, 1))
    )


def test_parse_vector_literal_errors():
    with pytest.raises(ParseError):
        parse_vector_literal(Z6, "")
    for text, col, token in [("1, x", 4, "x"), ("1|2", 2, "|")]:
        with pytest.raises(ParseError) as exc:
            parse_vector_literal(Z6, text)
        assert (exc.value.line, exc.value.col) == (1, col)
        assert str(exc.value) == f"line 1, col {col}: unexpected token {token!r}"
    with pytest.raises(ParseError):
        parse_vector_literal(parse_ring("Z2xZ3"), "1 2")


def test_as_presentation_requires_code_mode():
    pf = parse_problem(Z6_PCS_TEXT)
    with pytest.raises(ValueError):
        as_presentation(pf)


T = 2147483629


@pytest.mark.parametrize(
    "ring, text, items",
    [
        ("Z2147483629", f"{T - 1} -1 {T} {2 * T + 3}", [T - 1, -1, T, 2 * T + 3]),
        ("Z2xZ3", "( 1 , -1 ) (-3,4) (0 ,  5)", [(1, -1), (-3, 4), (0, 5)]),
        ("Z65521xZ65519", "(65520, -1) ( -65521 ,131040 ) (70000,65519)",
         [(65520, -1), (-65521, 131040), (70000, 65519)]),
    ],
    ids=["Z2147483629", "Z2xZ3", "Z65521xZ65519"],
)
def test_every_row_kind_reduces_like_ringvec_of(ring, text, items):
    spec = parse_ring(ring)
    want = RingVec.of(spec, items)
    pf = parse_problem(f"{ring}\npcs\n{text} | {text}\n{text} | {text}\n")
    assert pf.h_rows == pf.s_rows == (want, want)
    pf = parse_problem(f"{ring}\ncode\n{text}\n\n{text}\n")
    assert pf.generators == pf.representatives == (want,)
    assert parse_vector_literal(spec, text) == want
