"""Command-line front end over problem files.

Exit codes: 0 success, 2 validation failure, 3 parse failure, 4 budget
exceeded.  --json switches every command to deterministic single-line JSON
on stdout; --oracle reroutes the computation through the brute-force
reference implementations (or cross-checks conversions against them).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .distance import (
    BeyondRadius,
    DegenerateCode,
    decode,
    min_distance_witness,
)
from .enumerator import distance_distribution, pcs_enumerator_poly
from .formats import (
    ParseError,
    as_presentation,
    as_system,
    parse_problem,
    parse_vector_literal,
    serialize_code,
    serialize_pcs,
)
from .fourier import fourier_coeff_pcs
from .oracle import (
    oracle_code_from_pcs,
    oracle_distance_distribution,
    oracle_fourier,
    oracle_is_linear,
    oracle_kernel,
    oracle_min_distance,
    oracle_nearest,
    oracle_validate,
)
from .pcs import (
    ConditionIIIViolation,
    ConditionIIViolation,
    ConditionIViolation,
    InternalInconsistency,
    PCSValidationError,
    code_to_pcs,
    is_linear,
    kernel,
    pcs_to_code,
)
from .rings import DEFAULT_BUDGET, BudgetExceeded, RingVec, dot, vec_add, vec_sub


def _elem_json(e):
    return e.residues[0] if len(e.residues) == 1 else list(e.residues)


def _vec_json(v: RingVec):
    return [_elem_json(e) for e in v]


def _vec_human(v: RingVec) -> str:
    return "[" + " ".join(str(e) for e in v) + "]"


def _emit(args, human: str, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(human)


def _round12(v: float) -> float:
    return round(v, 12) + 0.0


def _load(args):
    return parse_problem(Path(args.file).read_text())


def cmd_validate(args) -> int:
    pf = _load(args)
    try:
        pcs = as_system(pf)
    except ConditionIViolation as exc:
        _emit(args, f"violation of condition (i): {exc}",
              {"status": "violation", "condition": 1, "row": exc.row, "col": exc.col})
        return 2
    except ConditionIIViolation as exc:
        _emit(args, f"violation of condition (ii): {exc}",
              {"status": "violation", "condition": 2,
               "col_a": exc.col_a, "col_b": exc.col_b})
        return 2
    except ConditionIIIViolation as exc:
        _emit(args, f"violation of condition (iii): {exc}",
              {"status": "violation", "condition": 3,
               "witness": _vec_json(exc.witness)})
        return 2
    if args.oracle:
        verdict = oracle_validate(pcs.h_rows, pcs.s_rows)
        if verdict is not None:  # pragma: no cover - main path validated already
            cond, witness = verdict
            _emit(args, f"oracle found a violation of condition ({cond}): {witness}",
                  {"status": "violation", "condition": cond})
            return 2
    _emit(
        args,
        f"ok: valid system over {pcs.spec} (m={pcs.m}, n={pcs.n}, s={pcs.s})",
        {"status": "ok", "ring": str(pcs.spec), "m": pcs.m, "n": pcs.n, "s": pcs.s},
    )
    return 0


def _oracle_crosscheck_words(pcs) -> None:
    """Compare the system's code with the brute-force scan, word for word."""
    pres = pcs_to_code(pcs)
    words = set()
    for d in pres.representatives:
        for v in pres.kernel.enumerate():
            words.add(vec_add(d, v))
    scanned = oracle_code_from_pcs(pcs).words
    if words != scanned:
        raise InternalInconsistency("conversion disagrees with the brute-force scan")


def cmd_to_code(args) -> int:
    pf = _load(args)
    if pf.mode != "pcs":
        raise ParseError("to-code expects a pcs-mode file")
    pcs = as_system(pf)
    pres = pcs_to_code(pcs)
    if args.oracle:
        _oracle_crosscheck_words(pcs)
    text = serialize_code(pres)
    if args.json:
        gens = pres.kernel.canonical_generators()
        print(json.dumps({
            "ring": str(pres.spec),
            "generators": [_vec_json(g) for g in gens],
            "representatives": [_vec_json(d) for d in pres.representatives],
            "kernel_cardinality": pres.kernel.cardinality,
            "code_cardinality": pres.cardinality,
        }, sort_keys=True, separators=(",", ":")))
    else:
        sys.stdout.write(text)
    return 0


def cmd_to_pcs(args) -> int:
    pf = _load(args)
    if pf.mode != "code":
        raise ParseError("to-pcs expects a code-mode file")
    pres = as_presentation(pf)
    pcs = code_to_pcs(pres)
    if args.oracle:
        _oracle_crosscheck_words(pcs)
    if args.json:
        print(json.dumps({
            "ring": str(pcs.spec),
            "h": [_vec_json(h) for h in pcs.h_rows],
            "s": [_vec_json(r) for r in pcs.s_rows],
            "m": pcs.m, "n": pcs.n, "s_columns": pcs.s,
        }, sort_keys=True, separators=(",", ":")))
    else:
        sys.stdout.write(serialize_pcs(pcs))
    return 0


def cmd_mindist(args) -> int:
    pcs = as_system(_load(args))
    if args.oracle:
        d = oracle_min_distance(oracle_code_from_pcs(pcs))
        _emit(args, f"minimum distance: {d}", {"min_distance": d})
        return 0
    d, witness = min_distance_witness(pcs)
    syn = pcs.syndrome(witness)
    _emit(
        args,
        f"minimum distance: {d}  witness {_vec_human(witness)} with syndrome {_vec_human(syn)}",
        {"min_distance": d, "witness": _vec_json(witness),
         "witness_syndrome": _vec_json(syn)},
    )
    return 0


def cmd_decode(args) -> int:
    pcs = as_system(_load(args))
    x = parse_vector_literal(pcs.spec, args.word)
    if len(x) != pcs.n:
        raise ParseError(f"word has {len(x)} coordinates, system has n={pcs.n}")
    if args.oracle:
        code = oracle_code_from_pcs(pcs)
        d = oracle_min_distance(code)
        radius = (d - 1) // 2
        best, hits = oracle_nearest(code, x)
        if best > radius:
            _emit(args, f"beyond radius {radius}",
                  {"status": "beyond_radius", "radius": radius})
            return 0
        c = hits[0]
        err = vec_sub(x, c)
        syn = RingVec.of(pcs.spec, [dot(h, c) for h in pcs.h_rows])
        j = next(i + 1 for i, col in enumerate(pcs.s_cols) if col == syn)
        _emit(args,
              f"codeword {_vec_human(c)} (coset {j}), error {_vec_human(err)} of weight {best}",
              {"status": "ok", "codeword": _vec_json(c), "coset_index": j,
               "error_vector": _vec_json(err), "error_weight": best})
        return 0
    try:
        res = decode(pcs, x)
    except BeyondRadius as exc:
        _emit(args, f"beyond radius {exc.radius}",
              {"status": "beyond_radius", "radius": exc.radius})
        return 0
    _emit(
        args,
        f"codeword {_vec_human(res.codeword)} (coset {res.coset_index}), "
        f"error {_vec_human(res.error_vector)} of weight {res.error_weight}",
        {"status": "ok", "codeword": _vec_json(res.codeword),
         "coset_index": res.coset_index,
         "error_vector": _vec_json(res.error_vector),
         "error_weight": res.error_weight},
    )
    return 0


def cmd_kernel(args) -> int:
    pcs = as_system(_load(args))
    if args.oracle:
        elems = oracle_kernel(oracle_code_from_pcs(pcs))
        ordered = sorted(elems, key=lambda v: v.coords)
        _emit(args,
              f"kernel cardinality {len(elems)}:\n" +
              "\n".join(_vec_human(v) for v in ordered),
              {"cardinality": len(elems),
               "elements": [_vec_json(v) for v in ordered]})
        return 0
    ker = kernel(pcs)
    gens = ker.canonical_generators()
    _emit(
        args,
        f"kernel cardinality {ker.cardinality}, generators:\n"
        + "\n".join(_vec_human(g) for g in gens),
        {"cardinality": ker.cardinality, "generators": [_vec_json(g) for g in gens]},
    )
    return 0


def cmd_islinear(args) -> int:
    pcs = as_system(_load(args))
    if args.oracle:
        verdict = oracle_is_linear(oracle_code_from_pcs(pcs))
    else:
        verdict = is_linear(pcs)
    _emit(args, "linear" if verdict else "not linear", {"linear": verdict})
    return 0


def _fourier_entry(pcs, x) -> dict:
    es = fourier_coeff_pcs(pcs, x)
    v = es.evaluate()
    s_x = pcs.s_row(x)
    return {
        "x": _vec_json(x),
        "counts": list(es.counts),
        "order": es.order,
        "re": _round12(v.real),
        "im": _round12(v.imag),
        "s_x": _vec_json(s_x) if s_x is not None else None,
    }


def _check_counts_output(pcs, points: int) -> None:
    """The dense "counts" lists of `points` coefficients hold points * L ints."""
    needed = points * pcs.spec.char_order
    if needed > DEFAULT_BUDGET:
        raise BudgetExceeded(needed, DEFAULT_BUDGET, "counts output")


def _fourier_human(entry) -> str:
    sx = entry["s_x"]
    tail = f"  S_x={sx}" if sx is not None else "  (outside the row span)"
    return (f"x={entry['x']}  counts={entry['counts']}  "
            f"value={entry['re']}+{entry['im']}i{tail}")


def cmd_fourier(args) -> int:
    pcs = as_system(_load(args))
    if args.all:
        if args.oracle:
            code = oracle_code_from_pcs(pcs)
            entries = []
            for x in pcs.row_module.enumerate():
                v = oracle_fourier(code, x)
                entries.append({"x": _vec_json(x),
                                "re": _round12(v.real), "im": _round12(v.imag)})
            _emit(args,
                  "\n".join(f"x={e['x']}  value={e['re']}+{e['im']}i" for e in entries),
                  {"values": entries})
            return 0
        _check_counts_output(pcs, pcs.row_module.cardinality)
        entries = [_fourier_entry(pcs, x) for x in pcs.row_module.enumerate()]
        _emit(args, "\n".join(_fourier_human(e) for e in entries),
              {"values": entries})
        return 0
    if args.vector is None:
        raise ParseError("fourier needs a vector argument or --all")
    x = parse_vector_literal(pcs.spec, args.vector)
    if len(x) != pcs.n:
        raise ParseError(f"vector has {len(x)} coordinates, system has n={pcs.n}")
    if args.oracle:
        v = oracle_fourier(oracle_code_from_pcs(pcs), x)
        entry = {"x": _vec_json(x), "re": _round12(v.real), "im": _round12(v.imag)}
        _emit(args, f"x={entry['x']}  value={entry['re']}+{entry['im']}i", entry)
        return 0
    _check_counts_output(pcs, 1)
    entry = _fourier_entry(pcs, x)
    _emit(args, _fourier_human(entry), entry)
    return 0


def cmd_enumerator(args) -> int:
    pcs = as_system(_load(args))
    if args.oracle:
        hist = oracle_distance_distribution(oracle_code_from_pcs(pcs))
        _emit(args, f"distance distribution: {hist}",
              {"distance_distribution": hist})
        return 0
    dd = distance_distribution(pcs)
    npoly = pcs_enumerator_poly(pcs)
    _emit(
        args,
        f"distance distribution: {list(dd.coeffs)}\n"
        f"D(x,y) = {dd}\n"
        f"N(x,y) = {npoly}",
        {"distance_distribution": list(dd.coeffs),
         "system_polynomial": list(npoly.coeffs)},
    )
    return 0


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

    sub.add_parser("validate", parents=[common],
                   help="check the three system conditions").set_defaults(func=cmd_validate)
    sub.add_parser("to-code", parents=[common],
                   help="pcs file -> code file").set_defaults(func=cmd_to_code)
    sub.add_parser("to-pcs", parents=[common],
                   help="code file -> pcs file").set_defaults(func=cmd_to_pcs)
    sub.add_parser("mindist", parents=[common],
                   help="minimum distance and a witness").set_defaults(func=cmd_mindist)
    p = sub.add_parser("decode", parents=[common],
                       help="decode a received word within the unique radius")
    p.add_argument("word", help="received word, e.g. '5,2,0,1' or '(1,0),(0,1)'")
    p.set_defaults(func=cmd_decode)
    sub.add_parser("kernel", parents=[common],
                   help="kernel of the code").set_defaults(func=cmd_kernel)
    sub.add_parser("islinear", parents=[common],
                   help="is the code a submodule?").set_defaults(func=cmd_islinear)
    p = sub.add_parser("fourier", parents=[common],
                       help="Fourier coefficients of the code indicator")
    p.add_argument("vector", nargs="?", help="evaluation point in R^n")
    p.add_argument("--all", action="store_true",
                   help="tabulate over the whole row span of H")
    p.set_defaults(func=cmd_fourier)
    sub.add_parser("enumerator", parents=[common],
                   help="distance distribution polynomial").set_defaults(func=cmd_enumerator)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"parse error: cannot read {exc.filename}", file=sys.stderr)
        return 3
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except PCSValidationError as exc:
        print(f"invalid system: {exc}", file=sys.stderr)
        return 2
    except DegenerateCode as exc:
        print(f"degenerate code: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
