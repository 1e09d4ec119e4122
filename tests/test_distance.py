"""Minimum distance, syndrome differences, and bounded-distance decoding."""

import inspect
import random

import pytest

from ringcodes import (
    DEFAULT_BUDGET,
    BeyondRadius,
    BudgetExceeded,
    CodePresentation,
    DegenerateCode,
    ParityCheckSystem,
    Submodule,
    code_to_pcs,
    decode,
    hamming,
    member,
    min_distance,
    min_distance_witness,
    oracle_code_from_pcs,
    oracle_min_distance,
    oracle_nearest,
    parse_ring,
    sdiff,
    validate_pcs,
    vec_add,
    vec_neg,
    vec_sub,
    weight,
    weight_shell,
    zero_vec,
)
from ringcodes import distance
from ringcodes.distance import DecodeResult, _shell_errors
from ringcodes.reach import ReachTable, SyndromeSpace
from conftest import Z6, random_instance, random_linear_instance, rv


def shell_witness(pcs):
    """min_distance_witness on the shell backend, the independent route."""
    return distance._shell_first(
        pcs, zero_vec(pcs.spec, pcs.m), [vec_neg(v) for v in sdiff(pcs)], 1, pcs.n
    )


def test_sdiff_golden(z6_pcs):
    got = {v.coords for v in sdiff(z6_pcs)}
    expected = {
        ((0,), (0,)),
        ((1,), (2,)),
        ((4,), (2,)),
        ((5,), (4,)),
    }
    assert got == expected
    assert len(sdiff(z6_pcs)) == 4


def test_sdiff_iterates_sorted(z6_pcs):
    elems = list(sdiff(z6_pcs))
    assert elems == sorted(elems, key=lambda v: v.coords)


def test_weight_shell_order_and_content():
    spec = parse_ring("Z2")
    shell2 = [v.coords for v in weight_shell(spec, 3, 2)]
    assert shell2 == [
        ((1,), (1,), (0,)),
        ((1,), (0,), (1,)),
        ((0,), (1,), (1,)),
    ]
    z4 = parse_ring("Z4")
    shell1 = [v.coords for v in weight_shell(z4, 1, 1)]
    assert shell1 == [((1,),), ((2,),), ((3,),)]
    assert list(weight_shell(z4, 2, 0)) == [zero_vec(z4, 2)]
    # every weight-w vector appears exactly once
    all_vs = [v for w in range(3) for v in weight_shell(z4, 2, w)]
    assert len(all_vs) == len(set(all_vs)) == 16


def test_min_distance_golden(z6_pcs):
    d, witness = min_distance_witness(z6_pcs)
    assert d == 2
    assert witness == rv(Z6, (1, 4, 0, 0))  # first hit in shell order
    assert shell_witness(z6_pcs) == (d, witness)
    assert weight(witness) == 2
    assert z6_pcs.syndrome(witness) in sdiff(z6_pcs)
    assert min_distance(z6_pcs) == 2
    # the documented weight-2 vector is also a witness
    doc = rv(Z6, (5, 0, 0, 1))
    assert weight(doc) == 2
    assert z6_pcs.syndrome(doc) == rv(Z6, (4, 2))
    assert z6_pcs.syndrome(doc) in sdiff(z6_pcs)


def test_min_distance_matches_all_pairs_random():
    rng = random.Random(31415)
    for _ in range(30):
        pcs, _ = random_instance(rng, space_cap=600)
        code = oracle_code_from_pcs(pcs)
        if code.cardinality < 2:
            with pytest.raises(DegenerateCode):
                min_distance(pcs)
            continue
        assert min_distance(pcs) == oracle_min_distance(code)


def test_degenerate_single_word_code():
    spec = parse_ring("Z4")
    pcs = validate_pcs(
        [rv(spec, (1, 0)), rv(spec, (0, 1))],
        [rv(spec, (0,)), rv(spec, (0,))],
    )
    assert pcs.code_cardinality() == 1
    with pytest.raises(DegenerateCode):
        min_distance(pcs)
    with pytest.raises(DegenerateCode):
        decode(pcs, zero_vec(spec, 2))


def test_decode_radius_zero(z6_pcs):
    # d = 2 means radius 0: codewords decode to themselves, all else fails
    res = decode(z6_pcs, rv(Z6, (5, 2, 0, 0)))
    assert res.codeword == rv(Z6, (5, 2, 0, 0))
    assert res.coset_index == 2
    assert res.error_weight == 0
    assert res.error_vector == zero_vec(Z6, 4)
    with pytest.raises(BeyondRadius) as exc:
        decode(z6_pcs, rv(Z6, (1, 0, 0, 0)))
    assert exc.value.radius == 0


def repetition_pcs(ring: str, n: int):
    spec = parse_ring(ring)
    D = Submodule.from_generators(
        spec, n, [rv(spec, tuple([1] * n))]
    )
    return code_to_pcs(CodePresentation(D, (zero_vec(spec, n),))), spec


def test_decode_corrects_single_errors():
    pcs, spec = repetition_pcs("Z2", 4)
    assert min_distance(pcs) == 4
    res = decode(pcs, rv(spec, (1, 1, 0, 1)))
    assert res.codeword == rv(spec, (1, 1, 1, 1))
    assert res.error_vector == rv(spec, (0, 0, 1, 0))
    assert res.error_weight == 1
    with pytest.raises(BeyondRadius) as exc:
        decode(pcs, rv(spec, (1, 1, 0, 0)))
    assert exc.value.radius == 1


def test_beyond_radius_formats_its_message_only_when_shown(monkeypatch):
    from ringcodes import RingElem

    shown = []
    real = RingElem.__str__
    monkeypatch.setattr(RingElem, "__str__", lambda self: shown.append(1) or real(self))
    pcs, spec = repetition_pcs("Z2", 4)
    with pytest.raises(BeyondRadius) as exc:
        decode(pcs, rv(spec, (1, 1, 0, 0)))
    assert shown == []
    assert str(exc.value) == "no codeword within radius 1 of [1 1 0 0]"
    assert len(shown) == 4
    assert (exc.value.received, exc.value.radius) == (rv(spec, (1, 1, 0, 0)), 1)


def test_decode_has_no_distance_override():
    assert list(inspect.signature(decode).parameters) == ["pcs", "x"]
    # the Z2 even-weight code has d = 2: [1 0 0 0] is as close to
    # [0 0 0 0] as to [1 0 0 1], [1 0 1 0] and [1 1 0 0], so it is refused
    spec = parse_ring("Z2")
    pcs = validate_pcs([rv(spec, (1, 1, 1, 1))], [rv(spec, (0,))])
    assert min_distance(pcs) == 2
    with pytest.raises(BeyondRadius) as exc:
        decode(pcs, rv(spec, (1, 0, 0, 0)))
    assert exc.value.radius == 0


def test_decode_rejects_foreign_words(z6_pcs):
    with pytest.raises(ValueError):
        decode(z6_pcs, zero_vec(Z6, 3))
    with pytest.raises(ValueError):
        decode(z6_pcs, zero_vec(parse_ring("Z4"), 4))


def test_decode_agrees_with_nearest_neighbor_everywhere():
    # whole-space sweep: inside the radius decode must return the unique
    # nearest word, outside it must refuse
    from ringcodes import enumerate_vectors

    pcs, spec = repetition_pcs("Z6", 4)
    d = min_distance(pcs)
    radius = (d - 1) // 2
    assert (d, radius) == (4, 1)
    code = oracle_code_from_pcs(pcs)
    refused = corrected = 0
    for x in enumerate_vectors(spec, 4):
        best, hits = oracle_nearest(code, x)
        if best > radius:
            with pytest.raises(BeyondRadius):
                decode(pcs, x)
            refused += 1
        else:
            res = decode(pcs, x)
            assert len(hits) == 1
            assert res.codeword == hits[0]
            assert res.error_weight == best == hamming(x, res.codeword)
            assert member(pcs, res.codeword) == res.coset_index
            corrected += 1
    assert corrected == 6 * (1 + 4 * 5)  # each word plus its weight-1 ball
    assert refused == 6**4 - corrected


def test_decode_agrees_with_nearest_neighbor_random():
    rng = random.Random(2718)
    exercised = 0
    for _ in range(20):
        pcs, pres = random_instance(rng, space_cap=600)
        if pcs.code_cardinality() < 2 or pcs.code_cardinality() > 500:
            continue
        d = min_distance(pcs)
        radius = (d - 1) // 2
        code = oracle_code_from_pcs(pcs)
        for c in sorted(code.words, key=lambda v: v.coords):
            for w in range(radius + 1):
                for e in weight_shell(pcs.spec, pcs.n, w):
                    x = vec_add(c, e)
                    res = decode(pcs, x)
                    best, hits = oracle_nearest(code, x)
                    assert res.error_weight == best
                    assert res.codeword == hits[0] and len(hits) == 1
                    exercised += 1
    assert exercised > 50


def test_witness_is_deterministic(z6_pcs):
    a = min_distance_witness(z6_pcs)
    b = min_distance_witness(z6_pcs)
    assert a == b


TABLE_RINGS = ["Z4", "Z6", "Z7", "Z11", "Z2xZ4", "Z3xZ4"]


def decode_outcome(pcs, x):
    try:
        res = decode(pcs, x)
    except BeyondRadius as exc:
        return ("beyond", exc.radius)
    return res


def shell_decode_outcome(pcs, x, radius):
    """decode by listing the weight shells, the independent route."""
    for w, y in _shell_errors(pcs, radius):
        j = member(pcs, vec_sub(x, y))
        if j is not None:
            return DecodeResult(vec_sub(x, y), j, y, w)
    return ("beyond", radius)


def test_table_route_matches_shell_search_random():
    rng = random.Random(6060)
    seen = set()
    beyond_seen = 0
    for i in range(40):
        if i % 2:
            pcs = random_linear_instance(rng, rings=TABLE_RINGS, space_cap=2500)
        else:
            pcs = random_instance(rng, rings=TABLE_RINGS, space_cap=2500)[0]
        code = oracle_code_from_pcs(pcs)
        if code.cardinality < 2 or pcs.syndrome_space() is None:
            continue  # too many rows in H: |R|^m outgrows the budget
        d, witness = min_distance_witness(pcs)
        assert (d, witness) == shell_witness(pcs)
        assert d == oracle_min_distance(code)
        seen.add((str(pcs.spec), i % 2))
        radius = (d - 1) // 2
        for c in sorted(code.words, key=lambda v: v.coords)[:2]:
            for w in range(min(radius + 1, pcs.n) + 1):
                for e in weight_shell(pcs.spec, pcs.n, w):
                    x = vec_add(c, e)
                    got = decode_outcome(pcs, x)
                    assert got == shell_decode_outcome(pcs, x, radius)
                    if w <= radius:
                        assert got.codeword == c and got.error_vector == e
                    beyond_seen += got == ("beyond", radius)
    assert len(seen) == 2 * len(TABLE_RINGS) and beyond_seen >= 20


def test_public_api_gives_the_same_answers_on_both_routes(monkeypatch):
    # the same system twice: once on the tables, once with syndrome_space()
    # reporting them too big, which sends the one search to the shell backend
    rng = random.Random(7070)
    seen = set()
    beyond_seen = 0
    for i in range(30):
        if i % 2:
            pcs = random_linear_instance(rng, rings=TABLE_RINGS, space_cap=2500)
        else:
            pcs = random_instance(rng, rings=TABLE_RINGS, space_cap=2500)[0]
        if pcs.code_cardinality() < 2 or pcs.syndrome_space() is None:
            continue
        code = oracle_code_from_pcs(pcs)
        radius = (min_distance(pcs) - 1) // 2
        words = [
            vec_add(c, e)
            for c in sorted(code.words, key=lambda v: v.coords)[:2]
            for w in range(min(radius + 1, pcs.n) + 1)
            for e in weight_shell(pcs.spec, pcs.n, w)
        ]
        tables = [min_distance_witness(pcs)] + [decode_outcome(pcs, x) for x in words]
        with monkeypatch.context() as patch:
            patch.setattr(ParityCheckSystem, "syndrome_space", lambda self: None)
            shells = validate_pcs(pcs.h_rows, pcs.s_rows)
            got = [min_distance_witness(shells)] + [decode_outcome(shells, x) for x in words]
        assert got == tables
        seen.add(str(pcs.spec))
        beyond_seen += got.count(("beyond", radius))
    assert len(seen) == len(TABLE_RINGS) and beyond_seen >= 10


def test_shell_search_above_the_table_budget():
    # code_to_pcs gives Z3xZ4 six rows of H: 12^6 syndromes outgrow the budget
    pcs, spec = repetition_pcs("Z3xZ4", 4)
    assert pcs.m == 6 and pcs.syndrome_space() is None
    assert min_distance_witness(pcs) == (4, rv(spec, ((0, 1),) * 4))
    assert min_distance(pcs) == oracle_min_distance(oracle_code_from_pcs(pcs))
    res = decode(pcs, rv(spec, ((2, 3), (2, 3), (2, 3), (0, 3))))
    assert res.codeword == rv(spec, ((2, 3),) * 4)
    assert res.error_vector == rv(spec, ((0, 0), (0, 0), (0, 0), (1, 0)))
    with pytest.raises(BeyondRadius):
        decode(pcs, rv(spec, ((2, 3), (2, 3), (0, 3), (0, 3))))


def test_second_decode_reuses_the_table(monkeypatch):
    built = []

    def counting(cls):
        init = cls.__init__

        def wrapped(self, *args):
            built.append(cls.__name__)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", wrapped)

    counting(SyndromeSpace)
    counting(ReachTable)
    pcs, spec = repetition_pcs("Z6", 5)
    first = decode(pcs, rv(spec, (1, 1, 0, 1, 1)))
    # S^diff = col(S) = {0}: the distance and decoding tables coincide
    assert built == ["SyndromeSpace", "ReachTable"]
    second = decode(pcs, rv(spec, (2, 2, 2, 5, 5)))
    assert built == ["SyndromeSpace", "ReachTable"]
    assert first.codeword == rv(spec, (1, 1, 1, 1, 1))
    assert second.codeword == rv(spec, (2, 2, 2, 2, 2))


def test_second_decode_above_the_table_budget_searches_no_shells(monkeypatch):
    searches = []
    real = distance._shell_first

    def counting(pcs, rho, targets, lo, hi):
        searches.extend([1] if lo == 1 else [])  # lo = 1: a distance search
        return real(pcs, rho, targets, lo, hi)

    monkeypatch.setattr(distance, "_shell_first", counting)
    pcs, spec = repetition_pcs("Z3xZ4", 4)
    assert pcs.syndrome_space() is None
    first = decode(pcs, rv(spec, ((2, 3), (2, 3), (2, 3), (0, 3))))
    second = decode(pcs, rv(spec, ((1, 1), (1, 1), (1, 2), (1, 1))))
    assert searches == [1]
    assert first.codeword == rv(spec, ((2, 3),) * 4)
    assert second.codeword == rv(spec, ((1, 1),) * 4)
    assert min_distance(pcs) == 4 and searches == [1]


def test_shell_search_beyond_the_state_budget_raises():
    # one check row over Z1000003: the tables and the weight-1 shell are too big
    spec = parse_ring("Z1000003")
    n = 11
    pcs = validate_pcs([rv(spec, [1] * n)], [rv(spec, [0])])
    assert pcs.syndrome_space() is None
    needed = 1 + n * (spec.cardinality - 1)
    with pytest.raises(BudgetExceeded) as exc:
        min_distance_witness(pcs)
    assert (exc.value.needed, exc.value.budget) == (needed, DEFAULT_BUDGET)
    assert exc.value.what == "weight-shell search"
    # decode needs the distance (2, from e1 - e2) first and stops at the same gate
    for word in (rv(spec, [1, -1] + [0] * (n - 2)), rv(spec, [1] + [0] * (n - 1))):
        with pytest.raises(BudgetExceeded) as exc:
            decode(pcs, word)
        assert (exc.value.needed, exc.value.what) == (needed, "weight-shell search")


def plain_syndrome(spec, h_rows, x):
    """H x^T by the definition, entry by entry, as residue tuples."""
    return tuple(
        tuple(
            sum(hc[f] * xc[f] for hc, xc in zip(h.coords, x.coords)) % t
            for f, t in enumerate(spec.factors)
        )
        for h in h_rows
    )


def plain_member(pcs, x):
    """member by the definition: the plain syndrome, then a scan of the columns."""
    cols = [c.coords for c in pcs.s_cols]
    syn = plain_syndrome(pcs.spec, pcs.h_rows, x)
    return cols.index(syn) + 1 if syn in cols else None


def _product_ring_systems():
    rng = random.Random(5151)
    out = []
    while len(out) < 4:
        pcs, _ = random_instance(rng, rings=["Z2xZ3", "Z2xZ4"], max_n=3, space_cap=512)
        if pcs.code_cardinality() >= 2:
            out.append(pcs)
    return out


def _large_prime_system():
    """Z2147483629, H random 3 x 5, S the syndromes of three random words."""
    spec = parse_ring("Z2147483629")
    (t,) = spec.factors
    rng = random.Random(2030)
    h_rows = [rv(spec, [rng.randrange(t) for _ in range(5)]) for _ in range(3)]
    reps = [rv(spec, [rng.randrange(t) for _ in range(5)]) for _ in range(3)]
    cols = [plain_syndrome(spec, h_rows, d) for d in reps]
    s_rows = [rv(spec, [col[i] for col in cols]) for i in range(3)]
    return validate_pcs(h_rows, s_rows), reps, rng


def test_per_vector_queries_match_a_plain_scan_on_product_rings():
    from ringcodes import enumerate_vectors

    decoded = refused = 0
    for pcs in _product_ring_systems():
        code = oracle_code_from_pcs(pcs)
        radius = (oracle_min_distance(code) - 1) // 2
        for x in enumerate_vectors(pcs.spec, pcs.n):
            assert pcs.syndrome(x).coords == plain_syndrome(pcs.spec, pcs.h_rows, x)
            assert member(pcs, x) == plain_member(pcs, x)
            best, hits = oracle_nearest(code, x)
            if best > radius:
                with pytest.raises(BeyondRadius):
                    decode(pcs, x)
                refused += 1
                continue
            res = decode(pcs, x)
            assert (res.codeword, res.error_weight) == (hits[0], best) and len(hits) == 1
            assert res.coset_index == plain_member(pcs, res.codeword)
            assert res.error_vector == vec_sub(x, res.codeword)
            decoded += 1
    assert decoded and refused


def test_per_vector_queries_match_a_plain_scan_over_a_large_prime():
    pcs, reps, rng = _large_prime_system()
    (t,) = pcs.spec.factors
    in_d = pcs.kernel_module.canonical_generators()
    words = reps + [vec_add(d, g) for d in reps for g in in_d]
    words += [rv(pcs.spec, [rng.randrange(t) for _ in range(5)]) for _ in range(10)]
    hits = 0
    for x in words:
        j = plain_member(pcs, x)
        assert pcs.syndrome(x).coords == plain_syndrome(pcs.spec, pcs.h_rows, x)
        assert member(pcs, x) == j
        hits += j is not None
    assert hits == 3 + 3 * len(in_d)
    # a weight-1 shell holds 5 * (t - 1) words and the tables index t^3
    # syndromes: decode fails with a typed error instead of guessing
    with pytest.raises(BudgetExceeded):
        decode(pcs, reps[0])


def test_per_vector_queries_match_a_plain_scan_at_length_zero():
    spec = parse_ring("Z2xZ3")
    pcs = validate_pcs([rv(spec, ())] * 2, [rv(spec, [0])] * 2)
    empty = rv(spec, ())
    assert pcs.syndrome(empty).coords == plain_syndrome(spec, pcs.h_rows, empty) == ((0, 0),) * 2
    assert member(pcs, empty) == plain_member(pcs, empty) == 1
    # R^0 has one word, so the code has no distance and decode no radius
    with pytest.raises(DegenerateCode):
        decode(pcs, empty)
