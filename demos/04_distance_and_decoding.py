"""Minimum distance and syndrome decoding.

The minimum distance of a union-of-cosets code can be read off the
syndrome side: collect S^diff, the pairwise differences of S's columns
together with zero, then find the least weight w such that some vector
of weight w has its syndrome in S^diff.  Decoding inverts the same
search: given a received word, look for the lightest error whose
syndrome shift lands back on a column of S.
"""

from ringcodes import (
    BeyondRadius,
    RingVec,
    decode,
    min_distance_witness,
    parse_ring,
    sdiff,
    validate_pcs,
    vec_add,
    weight,
)


def repetition_system(ring: str, n: int):
    spec = parse_ring(ring)
    h_rows = [
        RingVec.of(spec, [1] + [0] * (i - 1) + [-1] + [0] * (n - 1 - i))
        for i in range(1, n)
    ]
    s_rows = [RingVec.of(spec, [0]) for _ in range(n - 1)]
    return validate_pcs(h_rows, s_rows)


def main() -> None:
    z6 = parse_ring("Z6")
    pcs = validate_pcs(
        [RingVec.of(z6, [1, 1, 3, 5]), RingVec.of(z6, [0, 4, 2, 2])],
        [RingVec.of(z6, [0, 1, 5]), RingVec.of(z6, [0, 2, 4])],
    )

    print("== syndrome-side distance ==")
    diffs = sdiff(pcs)
    print(f"S^diff = {{{', '.join(str(v) for v in diffs)}}}")
    d, witness = min_distance_witness(pcs)
    print(f"minimum distance {d}, witnessed by {witness} "
          f"(weight {weight(witness)}, syndrome {pcs.syndrome(witness)})")

    print()
    print("== a distance-5 repetition code over Z2 ==")
    rep = repetition_system("Z2", 5)
    d_rep, _ = min_distance_witness(rep)
    radius = (d_rep - 1) // 2
    print(f"length 5, distance {d_rep}, corrects up to {radius} errors")

    sent = RingVec.of(rep.spec, [1, 1, 1, 1, 1])
    for err in ([0, 0, 0, 0, 0], [0, 1, 0, 0, 0], [1, 0, 0, 1, 0]):
        e = RingVec.of(rep.spec, err)
        received = vec_add(sent, e)
        res = decode(rep, received)
        print(f"  received {received}: decoded to {res.codeword}, "
              f"error {res.error_vector} (weight {res.error_weight})")

    print()
    print("== refusing to guess ==")
    rep4 = repetition_system("Z2", 4)
    halfway = RingVec.of(rep4.spec, [1, 1, 0, 0])
    print("the length-4 repetition code has distance 4 (radius 1), and "
          f"{halfway} sits exactly between the two codewords:")
    try:
        decode(rep4, halfway)
    except BeyondRadius as exc:
        print(f"  {exc}")


if __name__ == "__main__":
    main()
