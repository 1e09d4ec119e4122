"""The README's Quick start block runs and gives the values its comments state."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    section = README.read_text().split("## Quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_runs_and_matches_its_comments():
    block = quick_start()
    ns: dict = {}
    shown = {}  # source line -> value of each bare expression on it
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            shown[ast.get_source_segment(block, stmt)] = eval(code, ns)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    comments = {
        line.split("#", 1)[0].strip(): line.split("#", 1)[1].split()[0]
        for line in block.splitlines()
        if "#" in line
    }
    assert shown == {
        "pcs.code_cardinality()": 216,
        "member(pcs, RingVec.of(z6, [5, 2, 0, 0]))": 2,
        "member(pcs, RingVec.of(z6, [1, 0, 0, 0]))": None,
    }
    for expr, value in shown.items():
        assert comments[expr] == str(value)
    assert "# (2, [1 4 0 0])" in block
    assert (ns["d"], str(ns["w"])) == (2, "[1 4 0 0]")
