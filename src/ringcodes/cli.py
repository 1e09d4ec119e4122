"""Command-line front end over problem files.

COMMANDS has one row per subcommand: help text, file mode, a fast route and
an --oracle route that recomputes by brute force or cross-checks the fast one.
A route maps the validated system and the arguments to a human and a JSON
answer (--json prints the latter on one line); _run does the shared steps.
Exit codes: 0 success, 2 validation failure, 3 parse failure, 4 budget exceeded.
The routes reach distance, enumerator, fourier and oracle through the
package's lazy names, so a process loads only what its subcommand uses.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import ringcodes

from .formats import (
    ParseError,
    as_system,
    parse_problem,
    parse_vector_literal,
    serialize_code,
    serialize_pcs,
)
from .pcs import (
    ConditionIIIViolation,
    ConditionIIViolation,
    ConditionIViolation,
    InternalInconsistency,
    ParityCheckSystem,
    PCSValidationError,
    is_linear,
    kernel,
    pcs_to_code,
)
from .rings import BudgetExceeded, RingVec, check_budget, dot, vec_add, vec_sub

Route = Callable[[ParityCheckSystem, argparse.Namespace], tuple[str, dict]]


def _vec_json(v: RingVec):
    return [c[0] if len(c) == 1 else list(c) for c in v.coords]


def _point(pcs: ParityCheckSystem, text: str, what: str) -> RingVec:
    x = parse_vector_literal(pcs.spec, text)
    if len(x) != pcs.n:
        raise ParseError(f"{what} has {len(x)} coordinates, system has n={pcs.n}")
    return x


def _crosschecked(pcs, args, route: Route, agrees: Callable[[ParityCheckSystem], bool]):
    """route, after the brute-force check agrees(pcs) has passed."""
    if not agrees(pcs):
        raise InternalInconsistency(f"{args.command} disagrees with the brute-force scan")
    return route(pcs, args)


def _same_words(pcs: ParityCheckSystem) -> bool:
    """The presentation's words are the scan's; the budget-gated scan bounds |C| first."""
    scanned = ringcodes.oracle_code_from_pcs(pcs).words
    pres = pcs_to_code(pcs)
    return scanned == {
        vec_add(d, v) for d in pres.representatives for v in pres.kernel.enumerate()
    }


def _oracle_distance(code: ringcodes.ExplicitCode) -> int:
    if code.cardinality < 2:
        raise ringcodes.DegenerateCode("the code has exactly one word")
    return ringcodes.oracle_min_distance(code)


# condition -> its number and its fields in the validate report
_VIOLATIONS = {
    ConditionIViolation: (1, lambda exc: {"row": exc.row, "col": exc.col}),
    ConditionIIViolation: (2, lambda exc: {"col_a": exc.col_a, "col_b": exc.col_b}),
    ConditionIIIViolation: (3, lambda exc: {"witness": _vec_json(exc.witness)}),
}


def _validate(pcs, args):
    return (f"ok: valid system over {pcs.spec} (m={pcs.m}, n={pcs.n}, s={pcs.s})",
            {"status": "ok", "ring": str(pcs.spec), "m": pcs.m, "n": pcs.n, "s": pcs.s})


def _to_code(pcs, args):
    pres = pcs_to_code(pcs)
    return serialize_code(pres).removesuffix("\n"), {
        "ring": str(pres.spec),
        "generators": [_vec_json(g) for g in pres.kernel.canonical_generators()],
        "representatives": [_vec_json(d) for d in pres.representatives],
        "kernel_cardinality": pres.kernel.cardinality,
        "code_cardinality": pres.cardinality,
    }


def _to_pcs(pcs, args):
    return serialize_pcs(pcs).removesuffix("\n"), {
        "ring": str(pcs.spec),
        "h": [_vec_json(h) for h in pcs.h_rows],
        "s": [_vec_json(r) for r in pcs.s_rows],
        "m": pcs.m, "n": pcs.n, "s_columns": pcs.s,
    }


def _mindist(pcs, args):
    d, witness = ringcodes.min_distance_witness(pcs)
    syn = pcs.syndrome(witness)
    return (f"minimum distance: {d}  witness {witness} with syndrome {syn}",
            {"min_distance": d, "witness": _vec_json(witness),
             "witness_syndrome": _vec_json(syn)})


def _mindist_oracle(pcs, args):
    d = _oracle_distance(ringcodes.oracle_code_from_pcs(pcs))
    return f"minimum distance: {d}", {"min_distance": d}


def _oracle_decode(pcs: ParityCheckSystem, x: RingVec) -> ringcodes.DecodeResult:
    """decode by scanning the code: the nearest word within the radius."""
    code = ringcodes.oracle_code_from_pcs(pcs)
    radius = (_oracle_distance(code) - 1) // 2
    best, hits = ringcodes.oracle_nearest(code, x)
    if best > radius:
        raise ringcodes.BeyondRadius(x, radius)
    c = hits[0]
    syn = RingVec.of(pcs.spec, [dot(h, c) for h in pcs.h_rows])
    return ringcodes.DecodeResult(codeword=c, coset_index=pcs.s_cols.index(syn) + 1,
                                  error_vector=vec_sub(x, c), error_weight=best)


def _decode(pcs, args, oracle: bool):
    decoder = _oracle_decode if oracle else ringcodes.decode
    try:
        res = decoder(pcs, _point(pcs, args.word, "word"))
    except ringcodes.BeyondRadius as exc:
        return f"beyond radius {exc.radius}", {"status": "beyond_radius", "radius": exc.radius}
    return (f"codeword {res.codeword} (coset {res.coset_index}), "
            f"error {res.error_vector} of weight {res.error_weight}",
            {"status": "ok", "codeword": _vec_json(res.codeword),
             "coset_index": res.coset_index,
             "error_vector": _vec_json(res.error_vector),
             "error_weight": res.error_weight})


def _kernel(pcs, args):
    ker = kernel(pcs)
    gens = ker.canonical_generators()
    return (f"kernel cardinality {ker.cardinality}, generators:\n"
            + "\n".join(map(str, gens)),
            {"cardinality": ker.cardinality, "generators": [_vec_json(g) for g in gens]})


def _kernel_oracle(pcs, args):
    kernel_words = ringcodes.oracle_kernel(ringcodes.oracle_code_from_pcs(pcs))
    elems = sorted(kernel_words, key=lambda v: v.coords)
    return (f"kernel cardinality {len(elems)}:\n" + "\n".join(map(str, elems)),
            {"cardinality": len(elems), "elements": [_vec_json(v) for v in elems]})


def _linear(verdict: bool) -> tuple[str, dict]:
    return "linear" if verdict else "not linear", {"linear": verdict}


def _fourier_entry(pcs, x, code: Optional[ringcodes.ExplicitCode]) -> dict:
    """The coefficient at x: summed over the scanned code, or with its counts."""
    if code is not None:
        v, entry = ringcodes.oracle_fourier(code, x), {}
    else:
        es = ringcodes.fourier_coeff_pcs(pcs, x)  # no terms exactly off the row span
        s_x = pcs._s_on_span(x) if es.terms else None
        v = es.evaluate()
        entry = {"counts": list(es.counts), "order": es.order,
                 "s_x": _vec_json(s_x) if s_x is not None else None}
    return {"x": _vec_json(x), "re": round(v.real, 12) + 0.0,
            "im": round(v.imag, 12) + 0.0, **entry}


def _fourier_human(entry) -> str:
    if "counts" not in entry:
        return f"x={entry['x']}  value={entry['re']}+{entry['im']}i"
    sx = entry["s_x"]
    tail = f"  S_x={sx}" if sx is not None else "  (outside the row span)"
    return (f"x={entry['x']}  counts={entry['counts']}  "
            f"value={entry['re']}+{entry['im']}i{tail}")


def _fourier(pcs, args, oracle: bool):
    """The coefficient at one point, or the table over the row span (--all)."""
    if args.all:
        points, count = pcs.row_module.enumerate(), pcs.row_module.cardinality
    elif args.vector is None:
        raise ParseError("fourier needs a vector argument or --all")
    else:
        points, count = [_point(pcs, args.vector, "vector")], 1
    code = ringcodes.oracle_code_from_pcs(pcs) if oracle else None
    if code is None:  # the fast route's dense "counts" lists hold count * L ints
        check_budget(count * pcs.spec.char_order, "counts output", "entries")
    entries = [_fourier_entry(pcs, x, code) for x in points]
    human = "\n".join(_fourier_human(e) for e in entries)
    return (human, {"values": entries}) if args.all else (human, entries[0])


def _enumerator(pcs, args):
    # both read the pair that one walk of the row span keeps on the system
    npoly, dd = ringcodes.pcs_enumerator_poly(pcs), ringcodes.distance_distribution(pcs)
    return (f"distance distribution: {list(dd.coeffs)}\nD(x,y) = {dd}\nN(x,y) = {npoly}",
            {"distance_distribution": list(dd.coeffs),
             "system_polynomial": list(npoly.coeffs)})


def _enumerator_oracle(pcs, args):
    hist = ringcodes.oracle_distance_distribution(ringcodes.oracle_code_from_pcs(pcs))
    return f"distance distribution: {hist}", {"distance_distribution": hist}


class Command(NamedTuple):
    help: str
    mode: Optional[str]  # the file mode the subcommand needs; None for either
    fast: Route
    oracle: Route
    arguments: tuple[tuple[str, dict], ...] = ()


COMMANDS = {
    "validate": Command(
        "check the three system conditions", None, _validate,
        partial(_crosschecked, route=_validate,
                agrees=lambda pcs: ringcodes.oracle_validate(pcs.h_rows, pcs.s_rows) is None)),
    "to-code": Command("pcs file -> code file", "pcs", _to_code,
                       partial(_crosschecked, route=_to_code, agrees=_same_words)),
    "to-pcs": Command("code file -> pcs file", "code", _to_pcs,
                      partial(_crosschecked, route=_to_pcs, agrees=_same_words)),
    "mindist": Command("minimum distance and a witness", None, _mindist, _mindist_oracle),
    "decode": Command(
        "decode a received word within the unique radius", None,
        partial(_decode, oracle=False), partial(_decode, oracle=True),
        (("word", {"help": "received word, e.g. '5,2,0,1' or '(1,0),(0,1)'"}),)),
    "kernel": Command("kernel of the code", None, _kernel, _kernel_oracle),
    "islinear": Command(
        "is the code a submodule?", None, lambda pcs, args: _linear(is_linear(pcs)),
        lambda pcs, args: _linear(
            ringcodes.oracle_is_linear(ringcodes.oracle_code_from_pcs(pcs)))),
    "fourier": Command(
        "Fourier coefficients of the code indicator", None,
        partial(_fourier, oracle=False), partial(_fourier, oracle=True),
        (("vector", {"nargs": "?", "help": "evaluation point in R^n"}),
         ("--all", {"action": "store_true",
                    "help": "tabulate over the whole row span of H"}))),
    "enumerator": Command("distance distribution polynomial", None,
                          _enumerator, _enumerator_oracle),
}


def _run(args) -> int:
    command = COMMANDS[args.command]
    try:
        pf = parse_problem(Path(args.file).read_text())
    except FileNotFoundError as exc:
        raise ParseError(f"cannot read {exc.filename}") from None
    if command.mode is not None and pf.mode != command.mode:
        raise ParseError(f"{args.command} expects a {command.mode}-mode file")
    status = 0
    try:
        pcs = as_system(pf)
    except tuple(_VIOLATIONS) as exc:
        if args.command != "validate":
            raise
        cond, fields = _VIOLATIONS[type(exc)]
        human = f"violation of condition ({'i' * cond}): {exc}"
        payload, status = {"status": "violation", "condition": cond, **fields(exc)}, 2
    else:
        human, payload = (command.oracle if args.oracle else command.fast)(pcs, args)
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(human)
    return status


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringcodes",
        description="parity check systems for block codes over residue-ring products",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="problem file (see the package README)")
    common.add_argument("--json", action="store_true",
                        help="deterministic single-line JSON output")
    common.add_argument("--oracle", action="store_true",
                        help="use (or cross-check against) the brute-force path")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        for flag, options in command.arguments:
            p.add_argument(flag, **options)
    return parser


@cache
def _failures() -> tuple[tuple[type, str, int], ...]:
    """Failures reported on stderr: the first matching type gives the label and
    exit code.  main's except clause calls it only once an exception is raised."""
    return (
        (ParseError, "parse error", 3),
        (BudgetExceeded, "budget exceeded", 4),
        (PCSValidationError, "invalid system", 2),
        (ringcodes.DegenerateCode, "degenerate code", 2),
        (ValueError, "invalid input", 2),
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except tuple(kind for kind, _, _ in _failures()) as exc:
        label, status = next((lb, st) for kind, lb, st in _failures() if isinstance(exc, kind))
        print(f"{label}: {exc}", file=sys.stderr)
        return status


if __name__ == "__main__":
    sys.exit(main())
