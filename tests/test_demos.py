"""Every demo's stdout, byte for byte, against the copy pinned in tests/data/demos."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = Path(__file__).resolve().parent / "data" / "demos"


def src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def test_every_demo_is_pinned():
    assert DEMOS
    assert sorted(p.stem for p in PINNED.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_byte_identical(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (PINNED / f"{demo.stem}.txt").read_bytes()
