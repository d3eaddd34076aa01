"""Tests of the benchmark's own code: oracles, generators, normalisation.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import workloads  # noqa: E402
from timing import R_SECONDS, mean_ref, normalise  # noqa: E402
from tracer import self_times  # noqa: E402


def test_e8_by_hand():
    rows, det, sig, orders = workloads.e8(1)
    entries = oracle.diagonal(rows)
    assert (det, sig, orders) == (1, 8, [])
    assert math.prod(entries) == 1 and oracle.signature_of(entries) == 8
    assert oracle.boundary_zero(entries, 1)


def test_negative_a8_chain_by_hand():
    rows, det, sig, orders = workloads.a_chain(8, -1)
    entries = oracle.diagonal(rows)
    assert (det, sig, orders) == (9, -8, [9])
    assert math.prod(entries) == 9 and oracle.signature_of(entries) == -8
    # Z/9 with linking 8/9 has the metabolizer 3Z/9: the residue vanishes.
    assert oracle.boundary_zero(entries, 9)
    # A2 has det 3, not a square: some residue is nonzero.
    a2 = oracle.diagonal(workloads.a_chain(2, 1)[0])
    assert not oracle.boundary_zero(a2, 3)


def test_diagonal_of_a_zero_diagonal_form():
    rows = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 3], [0, 0, 3, 0]]
    entries = oracle.diagonal(rows)
    assert math.prod(entries) == 9 and oracle.signature_of(entries) == 0


def test_residues_at_three():
    assert oracle.residue_is_zero([3, -3], 3)
    assert not oracle.residue_is_zero([3, 3], 3)       # -1 is no square mod 3
    assert not oracle.residue_is_zero([3], 3)
    assert oracle.residue_is_zero([Fraction(1, 3), -3], 3)
    assert oracle.residue_is_zero([2, 5], 3)             # units only


def test_invariant_factors():
    assert oracle.invariant_factors([2, 4, 3]) == [2, 12]
    assert oracle.invariant_factors([6, 10]) == [2, 30]
    assert oracle.invariant_factors([]) == []


def test_square_free_and_primes():
    assert oracle.square_free(-72) == -2
    assert oracle.square_free(1) == 1
    assert oracle.prime_factors(2 * 2 * 3 * 1009) == [2, 3, 1009]
    assert oracle.is_probable_prime(1_000_003)
    assert not oracle.is_probable_prime(1_000_001)


def _triple_loop(w, rr, mu, sign):
    rows = []
    for p, q in itertools.product(range(-w, w + 1), repeat=2):
        if p % 2 == 0 or q % 2 == 0:
            continue
        for r in range(-rr, rr + 1, 1):
            if r % 2:
                continue
            for m in range(1, mu + 1, 2):
                if p * q + p * r + q * r == sign * m * m:
                    rows.append((p, q, r, m))
    return sorted(rows)


def test_dioph_oracle_matches_a_triple_loop():
    for w, rr, mu in ((9, 8, 15), (12, 13, 11), (21, 18, 31)):
        for sign in (-1, 1):
            want = _triple_loop(w, rr, mu, sign)
            assert want, (w, rr, mu, sign)
            assert oracle.dioph_solutions(w, rr, mu, sign) == want


def test_gauss_check_accepts_milgram_and_rejects_a_moved_element():
    # <2>: G = Z/2, q = 0, 1/2  ->  1 + e^(pi i/2) = sqrt2 e^(2 pi i/8).
    known = {"rows": [[2]], "blocks": [[[2]]], "det": 2, "sig": 1,
             "orders": [2]}
    good = '{"check": true, "denominator": 2, "terms": [[0, 1], [1, 1]]}'
    oracle.check_gauss(known, good, oracle.Checks())
    bad = '{"check": true, "denominator": 2, "terms": [[0, 1], [3, 1]]}'
    try:
        oracle.check_gauss(known, bad, oracle.Checks())
    except oracle.Mismatch:
        return
    raise AssertionError("a wrong Gauss sum passed")


def test_normalisation_arithmetic():
    assert normalise(0.5, R_SECONDS) == 0.5
    # The machine ran at half speed around the interval: it counts half.
    assert math.isclose(normalise(1.0, 2 * R_SECONDS), 0.5)
    assert mean_ref(1.0, 3.0) == 2.0
    assert mean_ref(1.0, 3.0, [2.0, 6.0]) == 3.0


def test_self_times_subtract_direct_children():
    spans = [(0, 0.0, 10.0, -1, 0), (1, 1.0, 4.0, 0, 0),
             (2, 2.0, 3.0, 1, 0), (1, 5.0, 9.0, 0, 0)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert self_times(spans, [(2, 0.25), (0, 1.0)]) == [2.0, 2.0, 0.75, 4.0]


def test_workloads_are_seeded_distinct_and_whole_rounds():
    for name in ("decide", "structure", "dioph"):
        one = workloads.build(name, 7, 2)
        again = workloads.build(name, 7, 2)
        other = workloads.build(name, 8, 2)
        key = [(op.argv, op.payload) for op in one]
        assert key == [(op.argv, op.payload) for op in again]
        assert key != [(op.argv, op.payload) for op in other]
        assert len(set(map(repr, key))) == len(key)
        assert len(one) >= 200
        faults = [op.fault for op in one if op.fault]
        assert faults == ([] if name == "dioph"
                          else [{"decide": "F1", "structure": "F2"}[name]] * 2)


def test_scrambled_block_sums_keep_their_invariants():
    import random
    rng = random.Random(3)
    for slot in range(0, 36, 5):
        rows, known = workloads.scrambled(
            rng, workloads._torsion_for_decide(rng, slot, 12), 12)
        entries = oracle.diagonal(rows)
        assert math.prod(entries) == known["det"]
        assert oracle.signature_of(entries) == known["sig"]
        blocks = [e for b in known["blocks"] for e in oracle.diagonal(b)]
        assert (oracle.boundary_zero(entries, known["det"])
                == oracle.boundary_zero(blocks, known["det"]))
