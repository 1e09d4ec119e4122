"""Seeded instance generator: problem-file text plus the planted facts to check.

generate(workload, seed) returns a list of instances.  Each instance holds
the text of a problem file (the only thing ringcodes is given) and, for the
benchmark's own checks, the same system as plain integers together with
what the generator planted: the kernel D as a basis per factor, one coset
representative per syndrome column, the minimum distance found from the
codewords themselves, and the query inputs (received words with their
planted codeword, member words, evaluation points).

The same (workload, seed) always gives the same instances.  The fixed
large-modulus systems of the algebra workload come from their own constant
seed, so the fault they show does not depend on --seed.
"""

from __future__ import annotations

import random

import ref

# Instance make-up per workload: (name, kind, factors, m, n, s).  kind "rs"
# is a Vandermonde check matrix over Z_p (an MDS code with d = m + 1),
# "sys" is [A | I] over any ring, "rand" is a uniformly random H over a ring
# whose factors are all prime.  s > 1 adds coset columns: a nonlinear union
# of s cosets of the kernel.  The first instance of each workload is its
# smallest rung, the one the smoke test runs.
SEARCH = [
    ("z4-6-2", "sys", (4,), 2, 6, 3),
    ("rs-z7-5-2", "rs", (7,), 3, 5, 1),
    ("rs-z7-6-3", "rs", (7,), 3, 6, 1),
    ("rs-z7-6-2", "rs", (7,), 4, 6, 1),
    ("rs-z11-6-4", "rs", (11,), 2, 6, 1),
    ("nl-z7-6-3", "rs", (7,), 3, 6, 4),
    ("nl-z11-5-3", "rs", (11,), 2, 5, 3),
    ("z3xz4-5-3", "sys", (3, 4), 2, 5, 2),
]
SPECTRUM = [
    ("rs-z7-5-2", "rs", (7,), 3, 5, 1),
    ("z4-7-5", "sys", (4,), 5, 7, 3),
    ("rs-z11-6-3", "rs", (11,), 3, 6, 1),
    ("nl-z7-5-2", "rs", (7,), 3, 5, 3),
    ("z2xz4-5-2", "sys", (2, 4), 3, 5, 1),
]
ALGEBRA = [
    ("z6", "sys", (6,), 2, 4, 3),
    ("z2xz4", "sys", (2, 4), 2, 4, 2),
    ("z97", "rand", (97,), 3, 6, 2),
    ("z3xz5xz7", "rand", (3, 5, 7), 2, 5, 2),
    ("z1009", "rand", (1009,), 3, 6, 1),
    ("z10007", "rand", (10007,), 3, 6, 1),
    ("z65521xz65519", "rand", (65521, 65519), 2, 5, 2),
    ("z1000003", "rand", (1000003,), 2, 5, 2),
    ("z2147483629", "rand", (2147483629,), 2, 5, 2),
]
# One Fourier coefficient at character order L = 1009 * 997 = 1005973.
ALGEBRA_BIG_L = ("z1009xz997", "rand", (1009, 997), 2, 4, 3)
# The fixed systems on which to-code meets int64 overflow (m = 6, n = 10).
OVERFLOW_SEED = 2147483629
OVERFLOW_COUNT = 20
OVERFLOW_SHAPE = ((2147483629,), 6, 10, 3)
# kernel and is_linear scan every ring element; rungs above this size skip them.
SCALAR_SCAN_LIMIT = 20000

# Received words per search system.  decode recomputes the minimum distance
# on every call, which costs 0.5 s on rs-z7-6-2, so that system gets one.
DECODE_ERRORS = 4
MEMBER_WORDS = 300


def fmt_elem(e) -> str:
    return str(e[0]) if len(e) == 1 else "(" + ",".join(map(str, e)) + ")"


def fmt_vec(x) -> str:
    return " ".join(fmt_elem(e) for e in x)


def pcs_text(inst) -> str:
    lines = ["x".join(f"Z{t}" for t in inst["fac"]), "pcs"]
    for h, s in zip(inst["H"], inst["S"]):
        lines.append(f"{fmt_vec(h)} | {fmt_vec(s)}")
    return "\n".join(lines) + "\n"


def code_text(inst) -> str:
    """The same code as generators of D, a blank line, then the representatives."""
    lines = ["x".join(f"Z{t}" for t in inst["fac"]), "code"]
    gens = ref.basis_vectors(inst["kbasis"], inst["fac"], inst["n"])
    for g in gens or [ref.zero_vec(inst["fac"], inst["n"])]:
        lines.append(fmt_vec(g))
    lines.append("")
    for d in inst["reps"]:
        lines.append(fmt_vec(d))
    return "\n".join(lines) + "\n"


def rand_elem(rng, fac):
    return tuple(rng.randrange(t) for t in fac)


def rand_vec(rng, fac, n):
    return tuple(rand_elem(rng, fac) for _ in range(n))


def rand_nonzero(rng, fac):
    while True:
        e = rand_elem(rng, fac)
        if any(e):
            return e


def kernel_elem(rng, inst):
    """A uniformly random element of D from the per-factor bases."""
    fac, n = inst["fac"], inst["n"]
    comps = []
    for f, t in enumerate(fac):
        v = [0] * n
        for b in inst["kbasis"][f]:
            c = rng.randrange(t)
            v = [(a + c * bb) % t for a, bb in zip(v, b)]
        comps.append(v)
    return tuple(tuple(comps[f][i] for f in range(len(fac))) for i in range(n))


def codeword(rng, inst):
    """(word, 1-based coset index) for a random codeword."""
    j = rng.randrange(inst["s"])
    return ref.add(kernel_elem(rng, inst), inst["reps"][j], inst["fac"]), j + 1


def make_system(rng, name, kind, fac, m, n, s):
    """H, S, coset representatives, the kernel basis and |D|, all planted."""
    fac = tuple(fac)
    if kind == "rs":
        (p,) = fac
        pts = rng.sample(range(p), n)
        H = [tuple((pow(a, i, p),) for a in pts) for i in range(m)]
    elif kind == "sys":
        A = [[rand_elem(rng, fac) for _ in range(n - m)] for _ in range(m)]
        one, z = (1,) * len(fac), ref.zero(fac)
        H = [tuple(A[r]) + tuple(one if c == r else z for c in range(m)) for r in range(m)]
    else:
        assert all(ref.is_prime(t) for t in fac)
        H = [rand_vec(rng, fac, n) for _ in range(m)]
    if kind == "sys":
        kbasis = []
        for f, t in enumerate(fac):
            basis = []
            for i in range(n - m):
                v = [0] * n
                v[i] = 1
                for r in range(m):
                    v[n - m + r] = (-A[r][i][f]) % t
                basis.append(v)
            kbasis.append(basis)
    else:
        kbasis = [ref.nullspace_mod_p(ref.factor_rows(H, f), t, n) for f, t in enumerate(fac)]
    kcard = 1
    for f, t in enumerate(fac):
        kcard *= t ** len(kbasis[f])
    reps = [ref.zero_vec(fac, n)]
    cols = [ref.syndrome(H, reps[0], fac)]
    while len(reps) < s:
        e = rand_vec(rng, fac, n)
        c = ref.syndrome(H, e, fac)
        if c not in cols:
            reps.append(e)
            cols.append(c)
    S = [tuple(col[i] for col in cols) for i in range(m)]
    inst = {"name": name, "kind": kind, "fac": fac, "m": m, "n": n, "s": s,
            "H": H, "S": S, "reps": reps, "kbasis": kbasis, "kcard": kcard}
    inst["text"] = pcs_text(inst)
    return inst


def add_min_distance(inst):
    """d from the codewords themselves; the MDS formula where D is too big to list."""
    fac, n, reps = inst["fac"], inst["n"], inst["reps"]
    if inst["kcard"] * len(reps) ** 2 <= 60000:
        D = ref.span_elements(inst["kbasis"], fac, n)
        inst["d"] = ref.min_distance_brute(D, reps, fac, n)
        if inst["kind"] == "rs" and inst["s"] == 1 and inst["d"] != inst["m"] + 1:
            raise AssertionError(f"{inst['name']}: Vandermonde code is not MDS")
    else:
        if not (inst["kind"] == "rs" and inst["s"] == 1):
            raise AssertionError(f"{inst['name']}: no reference minimum distance")
        inst["d"] = inst["m"] + 1


def error_vec(rng, fac, n, w):
    supp = rng.sample(range(n), w)
    z = ref.zero(fac)
    return tuple(rand_nonzero(rng, fac) if i in supp else z for i in range(n))


def received_words(rng, inst, count):
    """Codeword plus an error of planted weight: half within the radius, half beyond."""
    fac, n = inst["fac"], inst["n"]
    r = (inst["d"] - 1) // 2
    weights = ([r, max(r - 1, 0), r + 1, min(r + 2, n)] if count == 4 else [r, r + 1])[:count]
    out = []
    for w in weights:
        c, j = codeword(rng, inst)
        e = error_vec(rng, fac, n, w)
        out.append({"word": ref.add(c, e, fac), "codeword": c, "coset": j, "weight": w})
    return out


def row_span(inst):
    """Every r H for r in R^m, deduplicated: the points where F can be nonzero."""
    fac, m, n = inst["fac"], inst["m"], inst["n"]
    pts = set()
    for r in ref.product_vectors(fac, m):
        x = [ref.zero(fac)] * n
        for ri, h in zip(r, inst["H"]):
            if any(ri):
                x = ref.add(x, ref.smul(ri, h, fac), fac)
        pts.add(tuple(x))
    return sorted(pts)


def row_point(rng, inst):
    fac, n = inst["fac"], inst["n"]
    x = ref.zero_vec(fac, n)
    for h in inst["H"]:
        x = ref.add(x, ref.smul(rand_elem(rng, fac), h, fac), fac)
    return x


def generate(workload: str, seed: int, smoke: bool = False) -> list:
    rng = random.Random(f"{workload}:{seed}")
    table = {"search": SEARCH, "spectrum": SPECTRUM, "algebra": ALGEBRA}[workload]
    if smoke:
        table = table[:1]
    out = []
    for spec in table:
        inst = make_system(rng, *spec)
        if workload == "search":
            add_min_distance(inst)
            count = 1 if inst["name"] == "rs-z7-6-2" else DECODE_ERRORS
            inst["received"] = received_words(rng, inst, count)
            words = []
            for i in range(MEMBER_WORDS):
                words.append(codeword(rng, inst)[0] if i % 2 else rand_vec(rng, inst["fac"], inst["n"]))
            inst["members"] = words
        elif workload == "spectrum":
            add_min_distance(inst)
            inst["points"] = row_span(inst)
        else:
            inst["code_text"] = code_text(inst)
            inst["scalar_scan"] = ref.cardinality(inst["fac"]) <= SCALAR_SCAN_LIMIT
        out.append(inst)
    # the smallest rung also feeds the CLI: a code file, a word and a point
    first = out[0]
    first.setdefault("code_text", code_text(first))
    if "d" not in first:
        add_min_distance(first)
    if "received" not in first:
        first["received"] = received_words(rng, first, 1)
    first["point"] = row_point(rng, first)
    if workload == "algebra":
        big = make_system(rng, *ALGEBRA_BIG_L)
        big["point"] = row_point(rng, big)
        big["role"] = "big_l"
        out.append(big)
        if not smoke:
            frng = random.Random(OVERFLOW_SEED)
            fac, m, n, s = OVERFLOW_SHAPE
            for i in range(OVERFLOW_COUNT):
                inst = make_system(frng, f"fixed-z2147483629-{i:02d}", "rand", fac, m, n, s)
                inst["role"] = "overflow"
                out.append(inst)
    return out
