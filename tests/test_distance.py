"""Minimum distance, syndrome differences, and bounded-distance decoding."""

import random

import pytest

from ringcodes import (
    DEFAULT_BUDGET,
    BeyondRadius,
    BudgetExceeded,
    CodePresentation,
    DegenerateCode,
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
    vec_sub,
    weight,
    weight_shell,
    zero_vec,
)
from ringcodes import distance
from ringcodes.distance import DecodeResult, _shell_errors, _shell_witness
from ringcodes.reach import ReachTable, SyndromeSpace
from conftest import Z6, random_instance, random_linear_instance, rv


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
    assert _shell_witness(z6_pcs) == (d, witness)
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


def test_decode_respects_min_dist_override():
    pcs, spec = repetition_pcs("Z2", 4)
    # an artificially small distance shrinks the radius to zero
    with pytest.raises(BeyondRadius):
        decode(pcs, rv(spec, (1, 1, 0, 1)), min_dist=1)


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
                decode(pcs, x, min_dist=d)
            refused += 1
        else:
            res = decode(pcs, x, min_dist=d)
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
                    res = decode(pcs, x, min_dist=d)
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


def decode_outcome(pcs, x, min_dist=None):
    try:
        res = decode(pcs, x, min_dist)
    except BeyondRadius as exc:
        return ("beyond", exc.radius)
    return res


def shell_decode_outcome(pcs, x, radius):
    """decode by listing the weight shells, the independent route."""
    sx = pcs.syndrome(x)
    for w, y in _shell_errors(pcs, radius):
        j = pcs.syndrome_to_col.get(vec_sub(sx, pcs.syndrome(y)))
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
        assert (d, witness) == _shell_witness(pcs)
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


def test_shell_search_above_the_table_budget():
    # code_to_pcs gives Z3xZ4 six rows of H: 12^6 syndromes outgrow the budget
    pcs, spec = repetition_pcs("Z3xZ4", 4)
    assert pcs.m == 6 and pcs.syndrome_space() is None
    assert min_distance_witness(pcs) == (4, rv(spec, ((0, 1),) * 4))
    assert min_distance(pcs) == oracle_min_distance(oracle_code_from_pcs(pcs))
    res = decode(pcs, rv(spec, ((2, 3), (2, 3), (2, 3), (0, 3))), min_dist=4)
    assert res.codeword == rv(spec, ((2, 3),) * 4)
    assert res.error_vector == rv(spec, ((0, 0), (0, 0), (0, 0), (1, 0)))
    with pytest.raises(BeyondRadius):
        decode(pcs, rv(spec, ((2, 3), (2, 3), (0, 3), (0, 3))), min_dist=4)


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
    real = distance._shell_witness
    monkeypatch.setattr(distance, "_shell_witness", lambda pcs: searches.append(1) or real(pcs))
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
    # a codeword is decoded in shell 0; any other word needs shell 1
    codeword = rv(spec, [1, -1] + [0] * (n - 2))
    assert decode(pcs, codeword, min_dist=3).error_weight == 0
    with pytest.raises(BudgetExceeded) as exc:
        decode(pcs, rv(spec, [1] + [0] * (n - 1)), min_dist=3)
    assert exc.value.needed == needed
