"""Command-line behavior: outputs, JSON determinism, exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ringcodes import Submodule, fourier
from ringcodes.cli import _vec_json, main

PCS_TEXT = "Z6\npcs\n1 1 3 5 | 0 1 5\n0 4 2 2 | 0 2 4\n"
CODE_TEXT = "Z6\ncode\n2 1 1 0\n0 1 0 1\n3 0 3 0\n\n0 0 0 0\n5 2 0 0\n4 1 0 0\n"
REPETITION_TEXT = "Z2\ncode\n1 1 1 1\n\n0 0 0 0\n"
SINGLETON_TEXT = "Z4\npcs\n1 0 | 0\n0 1 | 0\n"
LINEAR_TEXT = "Z4\ncode\n2 0\n0 2\n\n0 0\n1 1\n"
HUGE_TEXT = "Z50\npcs\n1 1 1 1 1 | 0\n"
# the code of HUGE_TEXT: kernel of size 50^4, one coset
HUGE_CODE_TEXT = (
    "Z50\ncode\n1 49 0 0 0\n1 0 49 0 0\n1 0 0 49 0\n1 0 0 0 49\n\n0 0 0 0 0\n"
)
BAD_COND1_TEXT = "Z6\npcs\n1 1 3 5 | 0 1 5 1\n0 4 2 2 | 0 2 4 1\n"
BIG_L_TEXT = "Z65521xZ65519\npcs\n(1,2) (2,0) (3,5) | (0,0) (5,1) (7,3) (9,2)\n"


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, text in [
        ("pcs", PCS_TEXT),
        ("code", CODE_TEXT),
        ("rep", REPETITION_TEXT),
        ("single", SINGLETON_TEXT),
        ("linear", LINEAR_TEXT),
        ("huge", HUGE_TEXT),
        ("huge_code", HUGE_CODE_TEXT),
        ("bad1", BAD_COND1_TEXT),
        ("big_l", BIG_L_TEXT),
    ]:
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        out[name] = str(p)
    return out


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


def test_validate_ok(files, capsys):
    code, out, _ = run(capsys, "validate", files["pcs"])
    assert code == 0
    assert "ok" in out
    assert "Z6" in out


def test_validate_json_is_deterministic(files, capsys):
    code1, out1, _ = run(capsys, "validate", files["pcs"], "--json")
    code2, out2, _ = run(capsys, "validate", files["pcs"], "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload == {"status": "ok", "ring": "Z6", "m": 2, "n": 4, "s": 3}


def test_validate_condition_violation(files, capsys):
    code, payload, _ = run_json(capsys, "validate", files["bad1"], "--json")
    assert code == 2
    assert payload["status"] == "violation"
    assert payload["condition"] == 1
    assert (payload["row"], payload["col"]) == (2, 4)


def test_validate_oracle_agrees(files, capsys):
    code, out, _ = run(capsys, "validate", files["pcs"], "--oracle")
    assert code == 0
    assert "ok" in out


def test_to_code_output_reparses(files, capsys, tmp_path):
    code, out, _ = run(capsys, "to-code", files["pcs"])
    assert code == 0
    p = tmp_path / "derived_code.txt"
    p.write_text(out)
    code2, payload, _ = run_json(capsys, "to-pcs", str(p), "--json")
    assert code2 == 0
    assert payload["n"] == 4
    assert payload["s_columns"] == 3


def test_to_code_json(files, capsys):
    code, payload, _ = run_json(capsys, "to-code", files["pcs"], "--json")
    assert code == 0
    assert payload["kernel_cardinality"] == 72
    assert payload["code_cardinality"] == 216
    assert len(payload["representatives"]) == 3


def test_to_pcs_round_trip_through_files(files, capsys, tmp_path):
    code, out, _ = run(capsys, "to-pcs", files["code"])
    assert code == 0
    p = tmp_path / "derived_pcs.txt"
    p.write_text(out)
    code2, out2, _ = run(capsys, "validate", str(p))
    assert code2 == 0
    assert "ok" in out2


def test_to_code_with_oracle_crosscheck(files, capsys):
    code, _, _ = run(capsys, "to-code", files["pcs"], "--oracle")
    assert code == 0
    code, _, _ = run(capsys, "to-pcs", files["code"], "--oracle")
    assert code == 0


def test_mode_mismatch_is_a_parse_error(files, capsys):
    code, _, err = run(capsys, "to-code", files["code"])
    assert code == 3
    assert "parse error" in err
    code, _, err = run(capsys, "to-pcs", files["pcs"])
    assert code == 3


def test_mindist(files, capsys):
    code, payload, _ = run_json(capsys, "mindist", files["pcs"], "--json")
    assert code == 0
    assert payload["min_distance"] == 2
    assert payload["witness"] == [1, 4, 0, 0]
    assert payload["witness_syndrome"] == [5, 4]
    code, payload, _ = run_json(capsys, "mindist", files["pcs"], "--json", "--oracle")
    assert code == 0
    assert payload == {"min_distance": 2}


def test_mindist_degenerate(files, capsys):
    code, _, err = run(capsys, "mindist", files["single"])
    assert code == 2
    assert "degenerate" in err


def test_degenerate_code_under_oracle(files, capsys):
    for argv in (["mindist", files["single"]], ["decode", files["single"], "1,0"]):
        fast = run(capsys, *argv)
        assert fast == run(capsys, *argv, "--oracle")
        assert fast == (2, "", "degenerate code: the code has exactly one word\n")


def test_decode_radius_zero(files, capsys):
    code, payload, _ = run_json(capsys, "decode", files["pcs"], "5,2,0,0", "--json")
    assert code == 0
    assert payload["status"] == "ok"
    assert payload["codeword"] == [5, 2, 0, 0]
    assert payload["coset_index"] == 2
    assert payload["error_weight"] == 0
    code, payload, _ = run_json(capsys, "decode", files["pcs"], "1,0,0,0", "--json")
    assert code == 0
    assert payload == {"status": "beyond_radius", "radius": 0}


def test_decode_corrects_an_error(files, capsys):
    code, payload, _ = run_json(capsys, "decode", files["rep"], "1,1,0,1", "--json")
    assert code == 0
    assert payload["codeword"] == [1, 1, 1, 1]
    assert payload["error_vector"] == [0, 0, 1, 0]
    assert payload["error_weight"] == 1
    code, payload, _ = run_json(
        capsys, "decode", files["rep"], "1,1,0,1", "--json", "--oracle"
    )
    assert code == 0
    assert payload["codeword"] == [1, 1, 1, 1]
    assert payload["coset_index"] == 1


def test_decode_beyond_radius_oracle_agrees(files, capsys):
    plain = run_json(capsys, "decode", files["rep"], "1,1,0,0", "--json")
    via_oracle = run_json(
        capsys, "decode", files["rep"], "1,1,0,0", "--json", "--oracle"
    )
    assert plain == via_oracle
    assert plain[1] == {"status": "beyond_radius", "radius": 1}


def test_decode_wrong_length(files, capsys):
    code, _, err = run(capsys, "decode", files["pcs"], "1,2,3")
    assert code == 3
    assert "parse error" in err


def test_kernel(files, capsys):
    code, payload, _ = run_json(capsys, "kernel", files["pcs"], "--json")
    assert code == 0
    assert payload["cardinality"] == 72
    assert len(payload["generators"]) >= 1
    code, payload, _ = run_json(capsys, "kernel", files["pcs"], "--json", "--oracle")
    assert code == 0
    assert payload["cardinality"] == 72
    assert len(payload["elements"]) == 72


def test_islinear(files, capsys):
    code, payload, _ = run_json(capsys, "islinear", files["pcs"], "--json")
    assert code == 0
    assert payload == {"linear": False}
    code, payload, _ = run_json(capsys, "islinear", files["linear"], "--json")
    assert code == 0
    assert payload == {"linear": True}
    code, payload, _ = run_json(
        capsys, "islinear", files["linear"], "--json", "--oracle"
    )
    assert payload == {"linear": True}


def test_fourier_single_point(files, capsys):
    code, payload, _ = run_json(capsys, "fourier", files["pcs"], "1,3,1,3", "--json")
    assert code == 0
    assert payload["re"] == 144.0
    assert payload["im"] == 0.0
    assert payload["s_x"] is not None
    code, payload, _ = run_json(
        capsys, "fourier", files["pcs"], "1,3,1,3", "--json", "--oracle"
    )
    assert payload["re"] == 144.0


def test_fourier_readme_example_byte_for_byte(files, capsys):
    code, out, _ = run(capsys, "fourier", files["pcs"], "3,3,3,3", "--json")
    assert code == 0
    assert out == (
        '{"counts":[72,0,0,144,0,0],"im":0.0,"order":6,"re":-72.0,'
        '"s_x":[0,3,3],"x":[3,3,3,3]}\n'
    )


def test_fourier_counts_output_over_budget_exits_4(files, capsys):
    # L = 65521 * 65519 = 4292870399 dense counts per point
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, "fourier", files["big_l"], "(0,0),(0,0),(0,0)", *extra)
        assert code == 4
        assert out == ""
        assert "counts output" in err
        assert "4292870399" in err and str(10**7) in err
    code, out, err = run(capsys, "fourier", files["big_l"], "--all", "--json")
    assert code == 4 and out == "" and "counts output" in err


def test_fourier_off_support(files, capsys):
    code, payload, _ = run_json(capsys, "fourier", files["pcs"], "1,0,0,0", "--json")
    assert code == 0
    assert payload["re"] == 0.0
    assert payload["s_x"] is None


def test_fourier_all(files, capsys):
    code, payload, _ = run_json(capsys, "fourier", files["pcs"], "--all", "--json")
    assert code == 0
    assert len(payload["values"]) == 18
    total = {tuple(e["x"]): e["re"] for e in payload["values"]}
    assert total[(0, 0, 0, 0)] == 216.0
    assert total[(3, 3, 3, 3)] == -72.0
    code, payload, _ = run_json(
        capsys, "fourier", files["pcs"], "--all", "--json", "--oracle"
    )
    assert len(payload["values"]) == 18


def test_fourier_all_divides_each_point_once(files, capsys, monkeypatch):
    # one span test per point: one read of the system's packed character plan
    tested = []
    coefficient = fourier._coefficient

    def counting(plan, x):
        tested.append(_vec_json(x))
        return coefficient(plan, x)

    monkeypatch.setattr(fourier, "_coefficient", counting)
    code, payload, _ = run_json(capsys, "fourier", files["pcs"], "--all", "--json")
    assert code == 0 and len(payload["values"]) == 18
    assert tested == [entry["x"] for entry in payload["values"]]


def test_fourier_needs_a_point_or_all(files, capsys):
    code, _, err = run(capsys, "fourier", files["pcs"])
    assert code == 3


def test_enumerator(files, capsys):
    code, payload, _ = run_json(capsys, "enumerator", files["pcs"], "--json")
    assert code == 0
    assert payload["distance_distribution"] == [216, 0, 6480, 17280, 22680]
    assert payload["system_polynomial"] == [46656, 0, 0, 0, 233280]
    code, payload, _ = run_json(
        capsys, "enumerator", files["pcs"], "--json", "--oracle"
    )
    assert payload["distance_distribution"] == [216, 0, 6480, 17280, 22680]


def test_enumerator_walks_the_row_span_once(files, capsys, monkeypatch):
    from ringcodes import enumerator

    calls = []
    walk = enumerator._weight_bins
    monkeypatch.setattr(enumerator, "_weight_bins", lambda pcs: calls.append(pcs) or walk(pcs))
    code, payload, _ = run_json(capsys, "enumerator", files["pcs"], "--json")
    assert code == 0 and payload["distance_distribution"] == [216, 0, 6480, 17280, 22680]
    assert len(calls) == 1


def test_parse_failures_exit_3(files, capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("Z6\npcs\n1 2 3\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 3
    assert "parse error" in err
    code, _, err = run(capsys, "validate", str(tmp_path / "missing.txt"))
    assert code == 3


def test_budget_exhaustion_exits_4(files, capsys):
    code, _, err = run(capsys, "mindist", files["huge"], "--oracle")
    assert code == 4
    assert "budget" in err


def test_conversion_crosscheck_scans_before_listing_words(files, capsys, monkeypatch):
    # |C| = 50^4 fits the budget, but the scan of R^5 (50^5 states) does not
    def listing_words(self):
        raise AssertionError("the code's words were listed before the scan")

    monkeypatch.setattr(Submodule, "enumerate", listing_words)
    for argv in (["to-code", files["huge"]], ["to-pcs", files["huge_code"]]):
        code, out, err = run(capsys, *argv, "--oracle")
        assert (code, out) == (4, "")
        assert err == "budget exceeded: scan of R^5 needs 312500000 states, budget is 10000000\n"


def test_plain_output_is_human_readable(files, capsys):
    code, out, _ = run(capsys, "mindist", files["pcs"])
    assert code == 0
    assert "minimum distance: 2" in out
    assert "[1 4 0 0]" in out
    code, out, _ = run(capsys, "enumerator", files["pcs"])
    assert "distance distribution" in out
    assert "D(x,y)" in out


def test_console_entry_point_runs(files):
    exe = shutil.which("ringcodes")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run(
        [exe, "validate", files["pcs"], "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "ok"


def test_module_invocation_runs(files):
    proc = subprocess.run(
        [sys.executable, "-m", "ringcodes.cli", "validate", files["pcs"]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_validate_and_to_code_leave_numpy_unloaded(tmp_path):
    """Importing the package loads only what is used, and no CLI route
    checked there, the span walks of enumerator, fourier --all and
    to-code --oracle included, imports numpy or dataclasses (see
    lazy_import_check.py)."""
    path = tmp_path / "z6.pcs"
    path.write_text(PCS_TEXT)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p
    )
    script = Path(__file__).with_name("lazy_import_check.py")
    proc = subprocess.run(
        [sys.executable, str(script), str(path)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["status"] == "ok"


def test_lazy_import_check_without_a_file_prints_its_usage():
    script = Path(__file__).with_name("lazy_import_check.py")
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "usage: PYTHONPATH=src python tests/lazy_import_check.py FILE\n"
