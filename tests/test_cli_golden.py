"""Every CLI subcommand's stdout, stderr and exit code, pinned in tests/data/cli.

Each subcommand runs on every problem file below, in human and --json form,
on the fast route and on the --oracle route, plus the decode and Fourier
points and the parse errors of test_cli.py.  To rewrite the pinned data
from the current code (only for a deliberate output change):

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from ringcodes.cli import main

PINNED = Path(__file__).resolve().parent / "data" / "cli" / "pinned.json"

# name -> (file text, a point of R^n for decode and fourier)
FILES = {
    "z6.pcs": ("Z6\npcs\n1 1 3 5 | 0 1 5\n0 4 2 2 | 0 2 4\n", "1,3,1,3"),
    "z6.code": (
        "Z6\ncode\n2 1 1 0\n0 1 0 1\n3 0 3 0\n\n0 0 0 0\n5 2 0 0\n4 1 0 0\n",
        "5,2,0,1",
    ),
    "rep.code": ("Z2\ncode\n1 1 1 1\n\n0 0 0 0\n", "1,1,0,1"),
    "z3xz4.pcs": (
        "Z3xZ4\npcs\n(1,1) (2,3) (0,1) | (0,0) (1,2) (2,1)\n"
        "(0,2) (1,0) (1,1) | (0,0) (0,2) (1,3)\n",
        "(1,2),(0,1),(2,3)",
    ),
    "one_word.pcs": ("Z4\npcs\n1 0 | 0\n0 1 | 0\n", "1,0"),
    "cond1.pcs": ("Z6\npcs\n1 1 3 5 | 0 1 5 1\n0 4 2 2 | 0 2 4 1\n", "0,0,0,0"),
    "cond2.pcs": ("Z6\npcs\n1 1 3 5 | 0 1 1\n0 4 2 2 | 0 2 2\n", "0,0,0,0"),
    "cond3.pcs": ("Z6\npcs\n1 1 3 5 | 0 1 5\n2 2 0 4 | 0 4 2\n", "0,0,0,0"),
    "big_l.pcs": (
        "Z65521xZ65519\npcs\n(1,2) (2,0) (3,5) | (0,0) (5,1) (7,3) (9,2)\n",
        "(0,0),(0,0),(0,0)",
    ),
    "bad.pcs": ("Z6\npcs\n1 2 3\n", "0"),
}

EXTRA = [
    ["decode", "z6.pcs", "5,2,0,0"],
    ["decode", "z6.pcs", "1,0,0,0"],
    ["decode", "z6.pcs", "1,2,3"],
    ["decode", "rep.code", "1,1,0,0"],
    ["fourier", "z6.pcs", "3,3,3,3"],
    ["fourier", "z6.pcs", "1,0,0,0"],
    ["fourier", "z6.pcs"],
    ["validate", "missing.txt"],
]


# Files that fail to load: validation and parse errors need no more commands.
LOAD_ERRORS = {"cond1.pcs", "cond2.pcs", "cond3.pcs", "bad.pcs"}


def _commands() -> list[list[str]]:
    out = []
    for name, (_, point) in FILES.items():
        out += [["validate", name], ["to-code", name], ["mindist", name]]
        if name not in LOAD_ERRORS:
            out += [
                ["to-pcs", name],
                ["decode", name, point],
                ["kernel", name],
                ["islinear", name],
                ["fourier", name, point],
                ["fourier", name, "--all"],
                ["enumerator", name],
            ]
    return out + EXTRA


# The oracle's kernel scan of the Z6 code takes about a second; z6.pcs runs it.
CASES = [
    base + json_flag + oracle_flag
    for base in _commands()
    for json_flag in ([], ["--json"])
    for oracle_flag in ([], ["--oracle"])
    if not (oracle_flag and base == ["kernel", "z6.code"])
]


def _write_files(directory: Path) -> None:
    for name, (text, _) in FILES.items():
        (directory / name).write_text(text)


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED.read_text())


@pytest.fixture(scope="module")
def problem_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("cli")
    _write_files(directory)
    return directory


def test_every_case_is_pinned(pinned):
    assert list(pinned) == [" ".join(argv) for argv in CASES]


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_is_pinned(argv, pinned, problem_dir, monkeypatch):
    monkeypatch.chdir(problem_dir)
    assert _run(argv) == pinned[" ".join(argv)]


if __name__ == "__main__":
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        _write_files(Path(tmp))
        os.chdir(tmp)
        data = {" ".join(argv): _run(argv) for argv in CASES}
        os.chdir(here)
    PINNED.parent.mkdir(parents=True, exist_ok=True)
    PINNED.write_text(json.dumps(data, indent=1) + "\n")
    print(f"pinned {len(data)} cases in {PINNED}", file=sys.stderr)
