"""Benchmark of ringcodes: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; ringcodes is imported from its src/.
Workloads: search, spectrum, algebra (see perfbench/README.md).  The
instances come from gen.py and the seed.  The parent process, which never
imports ringcodes, writes them as problem files, times SETUP_SAMPLES
set-up-only processes and then the worker that answers the queries
(worker.py), and prints one table line per operation followed by the
result as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes the spans to perfbench/out/).  --smoke runs only the smallest
rung of the workload and times two set-ups.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("search", "spectrum", "algebra")
SETUP_SAMPLES = 15         # processes timed from start to ready; the worker is the last
DEADLINE_S = 170           # the whole run, set-up and checks included
PROCESS_TIMEOUT_S = 60     # one set-up-only process

# (metric, span name, statistic, unit); the statistic turns summed span
# time and call counts into the figure.  A layer the workload never calls
# reads 0.
PER_LAYER = [
    ("init.import_s", "init.import", "s", "s"),
    ("formats.parse_ms", "formats.parse", "ms", "ms"),
    ("rings.vec_op_ns", "rings.vec_op", "ns", "ns"),
    ("howell.form_ms", "howell.form", "ms", "ms"),
    ("howell.express_us", "howell.express", "us", "us"),
    ("howell.solve_failed", "howell.solve_failed", "value", "count"),
    ("submodules.enumerate_per_s", "submodules.enumerate", "per_s", "1/s"),
    ("submodules.annihilator_ms", "submodules.annihilator", "ms", "ms"),
    ("submodules.solve_right_us", "submodules.solve_right", "us", "us"),
    ("pcs.validate_ms", "pcs.validate", "ms", "ms"),
    ("pcs.syndrome_us", "pcs.syndrome", "us", "us"),
    ("pcs.member_us", "pcs.member", "us", "us"),
    ("pcs.to_code_ms", "pcs.to_code", "ms", "ms"),
    ("pcs.to_pcs_ms", "pcs.to_pcs", "ms", "ms"),
    ("pcs.kernel_ms", "pcs.kernel", "ms", "ms"),
    ("pcs.is_linear_ms", "pcs.is_linear", "ms", "ms"),
    ("distance.shell_per_s", "distance.weight_shell", "per_s", "1/s"),
    ("distance.mindist_s", "distance.mindist", "s", "s"),
    ("distance.decode_ms", "distance.decode", "ms", "ms"),
    ("fourier.coeff_pcs_us", "fourier.coeff_pcs", "us", "us"),
    ("fourier.coeff_coset_us", "fourier.coeff_coset", "us", "us"),
    ("fourier.expsum_mul_us", "fourier.expsum_mul", "us", "us"),
    ("fourier.coeff_rss_mb", "fourier.coeff_rss_mb", "value", "MiB"),
    ("enumerator.poly_s", "enumerator.poly", "s", "s"),
    ("enumerator.distribution_s", "enumerator.distribution", "s", "s"),
    ("enumerator.weight_linear_s", "enumerator.weight_linear", "s", "s"),
] + [
    (f"cli.{cmd}_ms", f"cli.{cmd}", "ms", "ms")
    for cmd in ("validate", "to_code", "to_pcs", "mindist", "decode", "kernel",
                "islinear", "fourier", "enumerator")
]
SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6, "ns": 1e9}


class RunFailed(Exception):
    pass


def per_layer(totals: dict, values: dict) -> dict:
    out = {}
    for metric, span, stat, unit in PER_LAYER:
        if stat == "value":
            v = float(values.get(span, 0))
        else:
            dur, calls = totals.get(span, (0.0, 0))
            if not calls or not dur:
                v = 0.0
            elif stat == "per_s":
                v = calls / dur
            else:
                v = dur / calls * SCALE[stat]
        out[metric] = {"value": v, "unit": unit}
    return out


def write_inputs(workdir: Path, workload: str, seed: int, smoke: bool) -> None:
    import gen

    insts = gen.generate(workload, seed, smoke)
    workdir.mkdir(parents=True)
    for inst in insts:
        (workdir / f"{inst['name']}.pcs").write_text(inst["text"])
        if "code_text" in inst:
            (workdir / f"{inst['name']}.code").write_text(inst["code_text"])
    (workdir / "names.json").write_text(json.dumps([i["name"] for i in insts]))
    (workdir / "instances.json").write_text(json.dumps(insts))


def start_worker(args_list, env, deadline):
    """Start a worker; return (process, seconds from start to its 'ready' line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")] + args_list,
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    readable, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - t0))
    line = proc.stdout.readline() if readable else ""
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RunFailed("worker failed or passed the deadline during set-up")
    return proc, ready


def run(workload: str, seed: int, seconds: int, trace: bool, smoke: bool) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    # A fixed mmap threshold makes glibc return every freed buffer above
    # 128 KiB to the OS.  With its default sliding threshold, freed 8 MiB
    # buffers were reused from the heap and the algebra peak RSS moved by
    # 7 MiB after an unrelated change in the benchmark's own code.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               MALLOC_MMAP_THRESHOLD_="131072")
    sys.path.insert(0, str(HERE))
    try:
        write_inputs(workdir, workload, seed, smoke)
        base = [str(workdir), workload, str(seconds), "1" if trace else "0"]
        setups = []
        for _ in range((2 if smoke else SETUP_SAMPLES) - 1):
            proc, ready = start_worker(base + ["--setup-only"], env, deadline)
            setups.append(ready)
            try:
                proc.communicate(timeout=PROCESS_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise RunFailed("a set-up process did not end") from None
            if proc.returncode != 0:
                raise RunFailed("a set-up process failed")
        proc, ready = start_worker(base, env, deadline)
        setups.append(ready)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RunFailed("the worker passed the deadline") from None
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith("result "):
            raise RunFailed(f"the worker failed (exit code {proc.returncode})")
        res = json.loads(lines[-1][len("result "):])
        res["setup_s"] = setups
        if trace:
            shutil.copy(workdir / "trace.json", OUT / f"trace-{workload}-seed{seed}.json")
        return res
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="only the smallest rung")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ringcodes" / "__init__.py").is_file():
        print(f"no ringcodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    ops = res["ops"]
    attempted = sum(o["attempted"] for o in ops.values())
    failed = sum(o["failed"] for o in ops.values())
    for name, o in ops.items():
        note = "  (known fault)" if o["known_fault"] and o["failed"] else ""
        print(f"op {name:28s} attempted {o['attempted']:7d}  failed {o['failed']:5d}{note}")
    for msg in res["unexpected"]:
        print(f"unexpected failure: {msg}")
    rounds = res["round_s"]
    print(f"rounds {res['rounds']}  round_s median {statistics.median(rounds):.4f} "
          f"min {min(rounds):.4f} max {max(rounds):.4f}  setup_s {res['setup_s']}")
    if args.trace:
        metrics = per_layer(res["totals"], res["values"])
    else:
        metrics = {
            "setup_s": {"value": statistics.median(res["setup_s"]), "unit": "s"},
            "run_s": {"value": statistics.median(rounds), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mib"], "unit": "MiB"},
        }
    summary = {"correct": not res["unexpected"], "attempted": attempted,
               "failed": failed, "metrics": metrics}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        dict(summary, rounds=rounds, round_walls=res["round_wall_s"],
             setup_samples=res["setup_s"], ops=ops), indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
