"""The process that answers one workload's queries (started by run.py).

Usage: worker.py WORKDIR WORKLOAD SECONDS TRACE [--setup-only]

It imports ringcodes, reads, parses and validates the workload's problem
files, then prints "ready" so the parent can time set-up from process
start.  It then runs whole rounds of the fixed query list until SECONDS
have passed, timing only the calls into ringcodes, reads its peak RSS, and
only then checks every distinct answer.  The last stdout line is a JSON
summary.  With TRACE=1 it also records spans, runs the layer probes and writes
the spans to WORKDIR/trace.json.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer


def freeze(obj):
    """JSON lists back to the tuples the generator wrote (vectors compare as tuples)."""
    if isinstance(obj, list):
        return tuple(freeze(v) for v in obj)
    if isinstance(obj, dict):
        return {k: freeze(v) for k, v in obj.items()}
    return obj


def main() -> int:
    workdir, workload, seconds, trace = sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4] == "1"
    setup_only = "--setup-only" in sys.argv[5:]
    tracer = Tracer()
    setup = tracer.open("setup")
    t0 = time.perf_counter()
    import ringcodes
    from ringcodes import formats, pcs as pcsmod
    tracer.add("init.import", t0, time.perf_counter(), setup)

    root = Path(__file__).resolve().parent.parent
    if Path(ringcodes.__file__).resolve().parent != root / "src" / "ringcodes":
        print(f"ringcodes imported from {ringcodes.__file__}, not this checkout", file=sys.stderr)
        return 2

    work = Path(workdir)
    names = json.loads((work / "names.json").read_text())
    systems = {}
    for name in names:
        text = (work / f"{name}.pcs").read_text()
        t0 = time.perf_counter()
        pf = formats.parse_problem(text)
        t1 = time.perf_counter()
        systems[name] = pcsmod.validate_pcs(pf.h_rows, pf.s_rows)
        t2 = time.perf_counter()
        tracer.add("formats.parse", t0, t1, setup)
        tracer.add("pcs.validate", t1, t2, setup)
        code = work / f"{name}.code"
        if code.exists():
            t0 = time.perf_counter()
            formats.parse_problem(code.read_text())
            tracer.add("formats.parse", t0, time.perf_counter(), setup)
    tracer.close(setup, 0)
    print("ready", flush=True)
    if setup_only:
        return 0

    import workloads  # the benchmark's own code; loaded after the timed set-up

    insts = freeze(json.loads((work / "instances.json").read_text()))
    files = {name: {"pcs": work / f"{name}.pcs", "code": work / f"{name}.code"} for name in names}
    if trace:
        workloads.rss_probe(tracer, insts, systems)
    ops = workloads.build(workload, insts, systems, files)

    first: list = [None] * len(ops)     # round-1 answer of each op, as plain data
    others: list = [[] for _ in ops]    # later answers that differ from round 1
    round_times, round_walls = [], []
    begin = time.perf_counter()
    while not round_times or time.perf_counter() - begin < seconds:
        r = len(round_times)
        wall = time.perf_counter()
        parent = tracer.open("round") if trace else -1
        busy = 0.0
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                answer = op.run()
            except Exception as exc:  # a failed call is counted, not fatal
                answer = exc
            t1 = time.perf_counter()
            busy += t1 - t0
            if trace:
                tracer.add(op.layer, t0, t1, parent, op.calls)
            if isinstance(answer, Exception):
                plain = ("error", type(answer).__name__, str(answer)[:200])
            else:
                plain = op.compact(answer)
            del answer
            if r == 0:
                first[i] = plain
            elif plain != first[i]:
                others[i].append(plain)
        if trace:
            tracer.close(parent, 0)
        round_times.append(busy)
        round_walls.append(time.perf_counter() - wall)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    rounds = len(round_times)
    per_op: dict = {}
    unexpected = []
    for i, op in enumerate(ops):
        answers = [first[i]] * (rounds - len(others[i])) + others[i]
        verdicts: dict = {}
        bad = 0
        for plain in answers:
            key = repr(plain)
            if key not in verdicts:
                if isinstance(plain, tuple) and plain and plain[0] == "error":
                    verdicts[key] = op.calls
                else:
                    try:
                        verdicts[key] = op.check(plain)
                    except Exception:
                        verdicts[key] = op.calls
                        traceback.print_exc(file=sys.stderr)
            bad += verdicts[key]
        stats = per_op.setdefault(op.name, {"attempted": 0, "failed": 0, "known_fault": op.known_fault})
        stats["attempted"] += op.calls * rounds
        stats["failed"] += bad
        if bad and not op.known_fault:
            unexpected.append(f"{op.name} on {op.rung}: {bad} failed ({repr(first[i])[:300]})")

    result = {
        "rounds": rounds,
        "round_s": round_times,
        "round_wall_s": round_walls,
        "peak_rss_mib": peak_kib / 1024,
        "ops": per_op,
        "unexpected": unexpected,
    }
    if trace:
        workloads.probes(tracer, insts, systems, files)
        tracer.write(work / "trace.json")
        result["totals"] = tracer.totals()
        result["values"] = tracer.values
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
