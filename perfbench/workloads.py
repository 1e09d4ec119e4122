"""The timed operations of each workload, their answer checks and the layer probes.

An Op is one entry of a workload's fixed query list.  run() makes the
calls into ringcodes and is the only timed part; compact() turns the answer
into plain data right after the call, so that no program object outlives
its operation; check() recomputes the answer from the generator's planted
facts with the plain-integer code in ref.py and returns how many of the
op's calls got a wrong answer.  Checks never compare against stored output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import time
from dataclasses import dataclass
from typing import Callable

from ringcodes import RingVec, cli, distance, enumerator, formats, fourier, howell
from ringcodes import pcs as pcsmod
from ringcodes import rings, submodules

import ref

# The CLI subcommands, called in-process on a workload's smallest rung.
CLI_COMMANDS = ("validate", "to-code", "to-pcs", "mindist", "decode", "kernel",
                "islinear", "fourier", "enumerator")


@dataclass
class Op:
    name: str           # operation, as the per-op table reports it
    layer: str          # span name in the traced run
    rung: str           # instance it runs on
    calls: int          # calls into ringcodes per run()
    run: Callable
    compact: Callable
    check: Callable
    known_fault: bool = False


def literal(x) -> str:
    """A vector as the CLI reads it: '1,2,3' or '(1,2),(0,1)'."""
    return ",".join(str(e[0]) if len(e) == 1 else "(" + ",".join(map(str, e)) + ")" for e in x)


def sparse(es) -> tuple:
    return (es.order, tuple((k, c) for k, c in enumerate(es.counts) if c))


class Facts:
    """Reference answers of one instance, computed once and only when checked."""

    def __init__(self, inst):
        self.inst = inst
        self.fac = tuple(inst["fac"])
        self.H = inst["H"]
        self.cols = ref.columns(inst["S"])
        self._dist = None

    @property
    def code_size(self) -> int:
        return self.inst["s"] * self.inst["kcard"]

    def sdiff(self) -> set:
        return {ref.sub(b, a, self.fac) for a in self.cols for b in self.cols}

    def coset_of(self, x):
        """1-based column index of H x^T, or None."""
        syn = ref.syndrome(self.H, x, self.fac)
        return self.cols.index(syn) + 1 if syn in self.cols else None

    def distance_distribution(self) -> list:
        """D_i from the words themselves: |D| times the difference histogram."""
        if self._dist is None:
            inst = self.inst
            D = ref.span_elements(inst["kbasis"], self.fac, inst["n"])
            hist = ref.difference_weights(D, inst["reps"], self.fac, inst["n"])
            self._dist = [inst["kcard"] * h for h in hist]
        return self._dist

    def fourier_ok(self, x, answer) -> bool:
        L = math.lcm(*self.fac)
        want = ref.fourier_counts(x, self.inst["reps"], self.inst["kcard"], self.fac)
        return answer[0] == L and dict(answer[1]) == want

    def reps_ok(self, reps) -> bool:
        """H rep_j^T is column j for every j."""
        return len(reps) == len(self.cols) and all(
            ref.syndrome(self.H, r, self.fac) == c for r, c in zip(reps, self.cols)
        )

    def same_code(self, H2, S2) -> bool:
        """(H2 | S2) presents the planted code: same kernel D, same cosets in order."""
        fac, n = self.fac, self.inst["n"]
        gens = ref.basis_vectors(self.inst["kbasis"], fac, n)
        if any(any(any(e) for e in ref.syndrome(H2, g, fac)) for g in gens):
            return False
        if ref.kernel_cardinality(H2, fac, n) != self.inst["kcard"]:
            return False
        cols2 = ref.columns(S2)
        return cols2 == [ref.syndrome(H2, r, fac) for r in self.inst["reps"]]


def failures(flags) -> int:
    return sum(1 for ok in flags if not ok)


# ---------------------------------------------------------------- search


def search_ops(inst, pcs) -> list[Op]:
    facts = Facts(inst)
    spec, name, d = pcs.spec, inst["name"], inst["d"]
    radius = (d - 1) // 2
    ops = [Op(
        "min_distance_witness", "distance.mindist", name, 1,
        run=lambda: distance.min_distance_witness(pcs),
        compact=lambda a: (a[0], a[1].coords),
        check=lambda c: failures([
            c[0] == d and ref.weight(c[1]) == d
            and ref.syndrome(facts.H, c[1], facts.fac) in facts.sdiff()]),
    )]
    for planted in inst["received"]:
        ops.append(decode_op(facts, spec, pcs, planted, radius))
    words = [RingVec.of(spec, x) for x in inst["members"]]
    plain = inst["members"]
    ops.append(Op(
        "member", "pcs.member", name, len(words),
        run=lambda: [pcsmod.member(pcs, x) for x in words],
        compact=tuple,
        check=lambda c: failures(a == facts.coset_of(x) for a, x in zip(c, plain)),
    ))
    return ops


def decode_op(facts, spec, pcs, planted, radius) -> Op:
    x = RingVec.of(spec, planted["word"])
    word = tuple(planted["word"])

    def run():
        try:
            return distance.decode(pcs, x)
        except distance.BeyondRadius as exc:
            return exc.radius

    def compact(a):
        if isinstance(a, int):
            return ("beyond", a)
        return ("ok", a.codeword.coords, a.coset_index, a.error_vector.coords, a.error_weight)

    def check(c) -> int:
        if planted["weight"] <= radius:
            return failures([c[0] == "ok" and c[1] == tuple(planted["codeword"])
                             and c[2] == planted["coset"] and c[4] == planted["weight"]
                             and c[3] == ref.sub(word, c[1], facts.fac)])
        if c[0] == "beyond":
            return failures([c[1] == radius])
        # beyond the planted radius another codeword may still lie within it
        return failures([facts.coset_of(c[1]) == c[2] and c[2] is not None
                         and c[3] == ref.sub(word, c[1], facts.fac)
                         and ref.weight(c[3]) == c[4] <= radius])

    return Op("decode", "distance.decode", facts.inst["name"], 1, run, compact, check)


# ---------------------------------------------------------------- spectrum


def spectrum_ops(inst, pcs) -> list[Op]:
    facts = Facts(inst)
    spec, name, n = pcs.spec, inst["name"], inst["n"]
    pts = inst["points"]
    xs = [RingVec.of(spec, x) for x in pts]
    q = ref.cardinality(facts.fac)
    state = {}

    def check_coeffs(c) -> int:
        bad = failures(facts.fourier_ok(x, a) for x, a in zip(pts, c))
        L = math.lcm(*facts.fac)
        total = sum(ref.abs2(dict(a[1]), L) for a in c)
        parseval = q**n * facts.code_size
        if len(c) != len(pts) or abs(total - parseval) > 1e-9 * parseval:
            return len(pts)
        return bad

    def to_code():
        state["pres"] = pcsmod.pcs_to_code(pcs)
        return state["pres"]

    def check_distribution(c) -> int:
        D = facts.distance_distribution()
        size = facts.code_size
        first = next((i for i in range(1, n + 1) if c[i]), None)
        return failures([list(c) == D and sum(c) == size**2 and c[0] == size
                         and first == inst["d"]])

    ops = [
        Op("fourier_coeff_pcs", "fourier.coeff_pcs", name, len(xs),
           run=lambda: [fourier.fourier_coeff_pcs(pcs, x) for x in xs],
           compact=lambda a: [sparse(es) for es in a], check=check_coeffs),
        Op("pcs_to_code", "pcs.to_code", name, 1, run=to_code,
           compact=lambda a: (tuple(r.coords for r in a.representatives), a.kernel.cardinality),
           check=lambda c: failures([facts.reps_ok(c[0]) and c[1] == inst["kcard"]])),
        Op("fourier_coeff_coset", "fourier.coeff_coset", name, len(xs),
           run=lambda: [fourier.fourier_coeff_coset(state["pres"], x) for x in xs],
           compact=lambda a: [sparse(es) for es in a], check=check_coeffs),
        Op("pcs_enumerator_poly", "enumerator.poly", name, 1,
           run=lambda: enumerator.pcs_enumerator_poly(pcs),
           compact=lambda a: a.coeffs,
           # N = D(x + (q-1)y, x - y), the inverse of the MacWilliams-type transform
           check=lambda c: failures([
               list(c) == ref.binomial_substitution(facts.distance_distribution(), q, n)
               and all(isinstance(v, int) for v in c)])),
        Op("distance_distribution", "enumerator.distribution", name, 1,
           run=lambda: enumerator.distance_distribution(pcs),
           compact=lambda a: a.coeffs, check=check_distribution),
    ]
    if inst["s"] == 1:
        def check_weights(c) -> int:
            want = [v // facts.code_size for v in facts.distance_distribution()]
            mds = inst["kind"] != "rs" or want == ref.mds_weight_distribution(q, n, inst["d"])
            return failures([list(c) == want and mds])

        ops.append(Op("weight_enumerator_linear", "enumerator.weight_linear", name, 1,
                      run=lambda: enumerator.weight_enumerator_linear(pcs),
                      compact=lambda a: a.coeffs, check=check_weights))
    return ops


# ---------------------------------------------------------------- algebra


def algebra_rung_ops(inst) -> list[Op]:
    """parse -> validate -> to-code -> to-pcs (-> kernel, is_linear), fresh every round."""
    facts = Facts(inst)
    name, fac = inst["name"], facts.fac
    text = inst["text"]
    state = {}

    def parse():
        state["pf"] = formats.parse_problem(text)
        return state["pf"]

    def validate():
        pf = state["pf"]
        state["pcs"] = pcsmod.validate_pcs(pf.h_rows, pf.s_rows)
        return state["pcs"]

    def to_code():
        state["pres"] = pcsmod.pcs_to_code(state["pcs"])
        return state["pres"]

    want_h = [tuple(r) for r in inst["H"]]
    want_s = [tuple(r) for r in inst["S"]]
    ops = [
        Op("parse_problem", "formats.parse", name, 1, run=parse,
           compact=lambda a: (a.spec.factors, a.mode, [r.coords for r in a.h_rows],
                              [r.coords for r in a.s_rows]),
           check=lambda c: failures([c == (fac, "pcs", want_h, want_s)])),
        Op("validate_pcs", "pcs.validate", name, 1, run=validate,
           compact=lambda a: (a.m, a.n, a.s),
           check=lambda c: failures([c == (inst["m"], inst["n"], inst["s"])])),
        Op("pcs_to_code", "pcs.to_code", name, 1, run=to_code,
           compact=lambda a: (tuple(r.coords for r in a.representatives),
                              tuple(g.coords for g in a.kernel.canonical_generators()),
                              a.kernel.cardinality),
           check=lambda c: failures([
               facts.reps_ok(c[0]) and c[2] == inst["kcard"]
               and all(not any(map(any, ref.syndrome(facts.H, g, fac))) for g in c[1])])),
        Op("code_to_pcs", "pcs.to_pcs", name, 1,
           run=lambda: pcsmod.code_to_pcs(state["pres"]),
           compact=lambda a: ([r.coords for r in a.h_rows], [r.coords for r in a.s_rows]),
           check=lambda c: failures([facts.same_code(*c)])),
    ]
    if inst["scalar_scan"]:
        def check_kernel(c) -> int:
            ks = ref.kernel_syndromes(facts.cols, fac)
            return failures([c[0] == inst["kcard"] * len(ks) and all(
                ref.syndrome(facts.H, g, fac) in ks for g in c[1])])

        ops += [
            Op("kernel", "pcs.kernel", name, 1, run=lambda: pcsmod.kernel(state["pcs"]),
               compact=lambda a: (a.cardinality, tuple(g.coords for g in a.canonical_generators())),
               check=check_kernel),
            Op("is_linear", "pcs.is_linear", name, 1, run=lambda: pcsmod.is_linear(state["pcs"]),
               compact=bool, check=lambda c: failures([c == ref.cols_linear(facts.cols, fac)])),
        ]
    return ops


def big_l_op(inst, pcs) -> Op:
    facts = Facts(inst)
    x = RingVec.of(pcs.spec, inst["point"])
    return Op("fourier_coeff_pcs", "fourier.coeff_pcs", inst["name"], 1,
              run=lambda: fourier.fourier_coeff_pcs(pcs, x), compact=sparse,
              check=lambda c: failures([facts.fourier_ok(inst["point"], c)]))


def overflow_op(inst, pcs) -> Op:
    """to-code on a fixed m=6, n=10 system over Z2147483629: the named int64 fault."""
    facts = Facts(inst)
    return Op("pcs_to_code_z2147483629", "pcs.to_code", inst["name"], 1,
              run=lambda: pcsmod.pcs_to_code(pcs),
              compact=lambda a: tuple(r.coords for r in a.representatives),
              check=lambda c: failures([facts.reps_ok(c)]), known_fault=True)


def cli_ops(inst, files: dict) -> list[Op]:
    """Every subcommand through cli.main(..., '--json') on the smallest rung's files."""
    facts = Facts(inst)
    fac, n = facts.fac, inst["n"]
    pcs_file, code_file = str(files["pcs"]), str(files["code"])
    planted = inst["received"][0]
    argvs = {
        "validate": ["validate", pcs_file],
        "to-code": ["to-code", pcs_file],
        "to-pcs": ["to-pcs", code_file],
        "mindist": ["mindist", pcs_file],
        "decode": ["decode", pcs_file, literal(planted["word"])],
        "kernel": ["kernel", pcs_file],
        "islinear": ["islinear", pcs_file],
        "fourier": ["fourier", pcs_file, literal(inst["point"])],
        "enumerator": ["enumerator", pcs_file],
    }

    def as_vec(v):
        return tuple((e,) if isinstance(e, int) else tuple(e) for e in v)

    def check(cmd, c) -> bool:
        code, out = c
        if code != 0:
            return False
        if cmd == "validate":
            return out == {"status": "ok", "ring": "x".join(f"Z{t}" for t in fac),
                           "m": inst["m"], "n": n, "s": inst["s"]}
        if cmd == "to-code":
            return (facts.reps_ok([as_vec(r) for r in out["representatives"]])
                    and out["kernel_cardinality"] == inst["kcard"]
                    and out["code_cardinality"] == facts.code_size)
        if cmd == "to-pcs":
            return facts.same_code([as_vec(r) for r in out["h"]], [as_vec(r) for r in out["s"]])
        if cmd == "mindist":
            w = as_vec(out["witness"])
            return (out["min_distance"] == inst["d"] and ref.weight(w) == inst["d"]
                    and ref.syndrome(facts.H, w, fac) in facts.sdiff())
        if cmd == "decode":
            return (out["status"] == "ok" and as_vec(out["codeword"]) == tuple(planted["codeword"])
                    and out["error_weight"] == planted["weight"])
        if cmd == "kernel":
            ks = ref.kernel_syndromes(facts.cols, fac)
            return out["cardinality"] == inst["kcard"] * len(ks) and all(
                ref.syndrome(facts.H, as_vec(g), fac) in ks for g in out["generators"])
        if cmd == "islinear":
            return out["linear"] == ref.cols_linear(facts.cols, fac)
        if cmd == "fourier":
            return facts.fourier_ok(inst["point"], (out["order"], tuple(
                (k, c) for k, c in enumerate(out["counts"]) if c)))
        D = facts.distance_distribution()
        return (out["distance_distribution"] == D
                and out["system_polynomial"] == ref.binomial_substitution(D, ref.cardinality(fac), n))

    def make(cmd):
        argv = argvs[cmd] + ["--json"]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        return Op("cli " + cmd, "cli." + cmd.replace("-", "_"), inst["name"], 1, run,
                  compact=lambda a: (a[0], json.loads(a[1])),
                  check=lambda c: failures([check(cmd, c)]))

    return [make(cmd) for cmd in CLI_COMMANDS]


# ---------------------------------------------------------------- building


def build(workload: str, insts: list, systems: dict, files: dict) -> list[Op]:
    """The workload's fixed query list, in the order one round runs it."""
    ops: list[Op] = []
    if workload == "search":
        for inst in insts:
            ops += search_ops(inst, systems[inst["name"]])
    elif workload == "spectrum":
        for inst in insts:
            ops += spectrum_ops(inst, systems[inst["name"]])
    else:
        for inst in insts:
            role = inst.get("role")
            if role == "big_l":
                ops.append(big_l_op(inst, systems[inst["name"]]))
            elif role == "overflow":
                ops.append(overflow_op(inst, systems[inst["name"]]))
            else:
                ops += algebra_rung_ops(inst)
        ops += cli_ops(insts[0], files[insts[0]["name"]])
    return ops


# ---------------------------------------------------------------- probes


def timed(tracer, parent, layer, calls, fn):
    start = time.perf_counter()
    result = fn()
    tracer.add(layer, start, time.perf_counter(), parent, calls)
    return result


def rss_probe(tracer, insts, systems) -> None:
    """Peak-RSS growth over one coefficient at the workload's largest order L <= 2e6.

    Runs before the first round, so no earlier peak hides the growth.
    """
    inst = max((i for i in insts if math.lcm(*i["fac"]) <= 2 * 10**6),
               key=lambda i: math.lcm(*i["fac"]))
    pcs = systems[inst["name"]]
    x = RingVec.of(pcs.spec, inst["point"] if "point" in inst else inst["reps"][0])
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    timed(tracer, -1, "fourier.coeff_rss", 1, lambda: fourier.fourier_coeff_pcs(pcs, x))
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracer.values["fourier.coeff_rss_mb"] = (after - before) / 1024


def vec_probe(tracer, parent, pairs) -> None:
    def run():
        for x, y in pairs:
            rings.vec_add(x, y)
            rings.vec_sub(x, y)
            rings.scale(x[0], y)

    timed(tracer, parent, "rings.vec_op", 3 * len(pairs), run)


def probes(tracer, insts, systems, files) -> None:
    """Direct calls into the inner layers on the workload's own instances.

    Timed once after the rounds.  Scans that grow with |R| or L run only
    where the ring is small enough.
    """
    top = tracer.open("probes")
    pairs = []
    failed = 0
    for inst in insts:
        pcs = systems[inst["name"]]
        if inst.get("role") == "overflow":
            failed += solve_probe(tracer, top, inst)
            continue
        spec, n = pcs.spec, pcs.n
        pairs += [(h, r) for h in pcs.h_rows for r in pcs.h_rows]
        words = [RingVec.of(spec, x) for x in inst.get("members", inst["reps"])]
        timed(tracer, top, "pcs.syndrome", len(words), lambda: [pcs.syndrome(x) for x in words])
        for f, t in enumerate(spec.factors):
            mat = submodules.factor_matrix(spec, pcs.h_rows, f, n)
            timed(tracer, top, "howell.form", 1, lambda: howell.howell_form(mat, t))
        module = submodules.Submodule.from_generators(spec, n, pcs.h_rows)
        pts = [RingVec.of(spec, x) for x in inst["points"]] if "points" in inst else list(pcs.h_rows)
        comps = [[x.component(f) for x in pts] for f in range(spec.nfactors)]
        timed(tracer, top, "howell.express", len(pts) * len(comps),
              lambda: [hf.express(c) for hf, cs in zip(module.forms, comps) for c in cs])
        timed(tracer, top, "submodules.annihilator", 1, module.annihilator)
        timed(tracer, top, "submodules.solve_right", pcs.s,
              lambda: [submodules.solve_right(pcs.h_rows, c) for c in pcs.s_cols])
        if module.cardinality <= 10**5:
            timed(tracer, top, "submodules.enumerate", module.cardinality,
                  lambda: sum(1 for _ in module.enumerate()))
        if spec.cardinality <= 16:
            for w in (1, 2):
                start = time.perf_counter()
                count = sum(1 for _ in distance.weight_shell(spec, n, w))
                tracer.add("distance.weight_shell", start, time.perf_counter(), top, count)
        if spec.char_order <= 10**4:
            coeffs = [fourier.fourier_coeff_pcs(pcs, x) for x in pts[:200]]
            conj = [es.conjugate() for es in coeffs]
            timed(tracer, top, "fourier.expsum_mul", len(coeffs),
                  lambda: [a * b for a, b in zip(coeffs, conj)])
    tracer.values["howell.solve_failed"] = failed
    vec_probe(tracer, top, pairs)
    coverage_probe(tracer, top, insts[0], systems[insts[0]["name"]], files[insts[0]["name"]])
    tracer.close(top, 0)


def coverage_probe(tracer, parent, inst, pcs, files) -> None:
    """One call into each top-level function the rounds never called.

    Made on the workload's smallest instance, so that every per-layer
    metric is measured on every workload.
    """
    called = tracer.totals()
    zero = rings.zero_vec(pcs.spec, pcs.n)
    pres = pcsmod.pcs_to_code(pcs)
    linear = pcsmod.validate_pcs(pcs.h_rows, [rings.zero_vec(pcs.spec, 1)] * pcs.m)
    calls = {
        "formats.parse": lambda: formats.parse_problem(inst["text"]),
        "pcs.validate": lambda: pcsmod.validate_pcs(pcs.h_rows, pcs.s_rows),
        "pcs.member": lambda: pcsmod.member(pcs, zero),
        "pcs.to_code": lambda: pcsmod.pcs_to_code(pcs),
        "pcs.to_pcs": lambda: pcsmod.code_to_pcs(pres),
        "pcs.kernel": lambda: pcsmod.kernel(pcs),
        "pcs.is_linear": lambda: pcsmod.is_linear(pcs),
        "distance.mindist": lambda: distance.min_distance_witness(pcs),
        "distance.decode": lambda: distance.decode(pcs, zero),
        "fourier.coeff_pcs": lambda: fourier.fourier_coeff_pcs(pcs, zero),
        "fourier.coeff_coset": lambda: fourier.fourier_coeff_coset(pres, zero),
        "enumerator.poly": lambda: enumerator.pcs_enumerator_poly(pcs),
        "enumerator.distribution": lambda: enumerator.distance_distribution(pcs),
        "enumerator.weight_linear": lambda: enumerator.weight_enumerator_linear(linear),
    }
    calls.update((op.layer, op.run) for op in cli_ops(inst, files))
    for layer, fn in calls.items():
        if layer not in called:
            timed(tracer, parent, layer, 1, fn)


def solve_probe(tracer, parent, inst) -> int:
    """solve_rowspan(H^T, column) over Z2147483629; count answers with H x^T != column."""
    (t,) = inst["fac"]
    ht = [[row[j][0] for row in inst["H"]] for j in range(inst["n"])]
    cols = ref.columns(inst["S"])
    answers = timed(tracer, parent, "howell.solve_rowspan", len(cols), lambda: [
        howell.solve_rowspan(ht, [e[0] for e in c], t) for c in cols])
    bad = 0
    for x, c in zip(answers, cols):
        if x is None or ref.syndrome(inst["H"], tuple((int(v),) for v in x), inst["fac"]) != c:
            bad += 1
    return bad
