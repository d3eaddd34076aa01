"""Seeded operation lists for the three workloads.

Every workload run works through whole rounds of operations.  A round has a
fixed make-up (which commands, at which ranks, determinant bands and window
sizes); the seed only picks the entries, so the same seed gives the same
list and different seeds give lists of the same cost profile.  Inputs are
all distinct within a run, because the program caches factorizations for
the life of a process and repeated inputs would time that cache.

Each round also holds one fixed input, independent of the seed, that hits a
known program fault (see f1_op and f2_op); it is counted as a failed
operation for as long as the fault is there.
"""

import math
import random
from dataclasses import dataclass, field

import oracle


@dataclass
class Op:
    """One CLI operation and what the construction says about its answer.

    ``argv`` holds ``{input}`` where the path of the input file goes;
    ``payload`` is that file's text.  ``known`` carries invariants fixed by
    the construction; the oracle computes the rest itself.
    """

    argv: list
    payload: str = None
    suffix: str = ".json"
    known: dict = field(default_factory=dict)
    fault: str = None

    @property
    def command(self):
        return self.argv[0]


# ---------------------------------------------------------------------------
# Blocks with known invariants.  A block is (rows, det, signature, cyclic
# orders of its discriminant group).


def a_chain(n, sign):
    rows = [[sign * (2 if i == j else -1 if abs(i - j) == 1 else 0)
             for j in range(n)] for i in range(n)]
    return rows, sign ** n * (n + 1), sign * n, [n + 1]


_E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7))


def e8(sign):
    rows = [[2 * sign if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in _E8_EDGES:
        rows[i][j] = rows[j][i] = -sign
    return rows, 1, 8 * sign, []


def hyperbolic():
    return [[0, 1], [1, 0]], -1, 0, []


def scaled_unit(k):
    """<2k>."""
    return [[2 * k]], 2 * k, 1 if k > 0 else -1, [2 * abs(k)]


def binary(a, b, c):
    """[[2a, b], [b, 2c]] with det 4ac - b^2 != 0."""
    det = 4 * a * c - b * b
    sig = (2 if a > 0 else -2) if det > 0 else 0
    g = math.gcd(2 * a, b, 2 * c)
    return [[2 * a, b], [b, 2 * c]], det, sig, [g, abs(det) // g]


def negate(block):
    rows, det, sig, orders = block
    return ([[-x for x in row] for row in rows],
            det * (-1) ** len(rows), -sig, orders)


def binary_near(rng, target, definite):
    """A binary block with |det| within 2*sqrt(target) of ``target``."""
    root = math.isqrt(target)
    a = rng.randint(1, max(1, min(40, root // 2)))
    b = rng.randrange(-min(31, root) | 1, min(31, root) + 1, 2)
    if definite:
        c = -(-(target + b * b) // (4 * a))
    else:
        c = -((target - b * b) // (4 * a))
    if rng.random() < 0.5:
        a, c = c, a
    return binary(a, b, c)


def block_sum(blocks):
    n = sum(len(rows) for rows, _, _, _ in blocks)
    out = [[0] * n for _ in range(n)]
    det, sig, orders, at = 1, 0, [], 0
    for rows, bdet, bsig, borders in blocks:
        for i, row in enumerate(rows):
            out[at + i][at:at + len(row)] = row
        at += len(rows)
        det *= bdet
        sig += bsig
        orders += [d for d in borders if d > 1]
    return out, det, sig, orders


def fill(rng, blocks, rank):
    """Pad with E8, -E8 and hyperbolic planes up to ``rank``, shuffled."""
    blocks = list(blocks)
    left = rank - sum(len(b[0]) for b in blocks)
    if left < 0 or left % 2:
        raise ValueError(f"cannot fill {left} dimensions")
    while left:
        if left >= 8 and rng.random() < 0.4:
            blocks.append(e8(rng.choice((1, -1))))
            left -= 8
        else:
            blocks.append(hyperbolic())
            left -= 2
    rng.shuffle(blocks)
    return blocks


def unimodular(rng, n, steps):
    """A random integer matrix of determinant +-1: elementary row additions,
    then a signed permutation."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[s * x for x in u[p]] for p, s in zip(perm, signs)]


def congruent(u, b):
    """U B U^T."""
    n = len(b)
    ub = [[sum(u[i][k] * b[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return [[sum(ub[i][k] * u[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]


def scrambled(rng, blocks, rank):
    """A scrambled block sum and what its construction fixes."""
    blocks = fill(rng, blocks, rank)
    rows, det, sig, orders = block_sum(blocks)
    rows = congruent(unimodular(rng, rank, rank), rows)
    # The rational class is that of the unscrambled blocks, whose small
    # Gram matrices the oracle diagonalizes itself.
    return rows, {"det": det, "sig": sig, "orders": orders,
                  "blocks": [b[0] for b in blocks]}


def random_even(rng, n, c):
    """A dense even form with off-diagonal entries in [-c, c] and diagonal
    entries in 2*[-c, c]; redrawn while singular."""
    while True:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 2 * rng.randint(-c, c)
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(-c, c)
        try:
            oracle.diagonal(rows)
        except ValueError:
            continue
        return rows


def gram_payload(rows):
    return '{"gram": ' + str(rows).replace(" ", "") + "}"


# ---------------------------------------------------------------------------
# Known faults: fixed inputs, the same for every seed.

def _f1_form(index):
    """Dense rank-24 even forms, entries in [-3, 3], whose analysis needs a
    primality proof above the Miller-Rabin certification bound."""
    return random_even(random.Random(f"F1-{index}"), 24, 3)


# |det| of about 6e5, not a square: the 1e-9 float comparison in the Gauss
# sum check rejects these valid forms.
_F2_FORMS = ([[600, 1], [1, 1000]], [[600, 1], [1, 1002]],
             [[602, 1], [1, 1000]], [[700, 3], [3, 900]],
             [[600, 1], [1, 1004]], [[702, 3], [3, 900]])
# Every F1 form of index below MAX_ROUNDS fails the same way.
MAX_ROUNDS = len(_F2_FORMS)
# What the failure of a fault's input says while the fault is there.
FAULT_MARKERS = {"F1": "certification_bound",
                 "F2": "check reports false"}


def f1_op(round_index):
    rows = _f1_form(round_index)
    return Op(["analyze", "--gram", "{input}"], gram_payload(rows),
              known={"rows": rows}, fault="F1")


def f2_op(round_index):
    rows = _F2_FORMS[round_index]
    a, b, c = rows[0][0] // 2, rows[0][1], rows[1][1] // 2
    block = binary(a, b, c)
    return Op(["gauss", "--gram", "{input}"], gram_payload(rows),
              known={"rows": rows, "det": block[1], "sig": block[2],
                     "orders": [d for d in block[3] if d > 1],
                     "blocks": [rows]},
              fault="F2")


# ---------------------------------------------------------------------------
# decide: analyze, knot, pretzel


def _torsion_for_decide(rng, slot, rank):
    """The non-unimodular part of a decide block sum, by slot."""
    kind = slot // 6 % 6
    if kind == 0:       # one A_n chain: det n + 1, discriminant path
        n = rng.choice([n for n in range(1, min(rank, 24) + 1)
                        if (rank - n) % 2 == 0])
        return [a_chain(n, rng.choice((1, -1)))]
    if kind == 1:       # A_n + -A_n: square det, vanishing linking form
        n = 2 * rng.randint(1, min(rank // 4, 6))
        return [a_chain(n, 1), a_chain(n, -1)]
    if kind == 2:       # A_8 or A_24-type: det 9 or 25, theorem applies
        n = 8 if rank < 24 or rng.random() < 0.5 else 24
        return [a_chain(n, rng.choice((1, -1)))]
    if kind == 3:       # binary + <2k> + <+-2>: |det| above 1e4
        return [binary_near(rng, rng.randint(200, 3000), rng.random() < 0.5),
                scaled_unit(rng.choice((1, -1)) * rng.randint(20, 400)),
                scaled_unit(rng.choice((1, -1)))]
    if kind == 4:       # two binaries with equal det and opposite sign
        b = binary_near(rng, rng.randint(100, 3000), True)
        return [b, negate(b)]
    return [binary_near(rng, rng.randint(100, 3000), rng.random() < 0.5),
            binary_near(rng, rng.randint(100, 3000), rng.random() < 0.5)]


def _seifert(rng, genus):
    """Block sum of genus-one Seifert matrices [[a, 1], [0, b]], scrambled
    by a unimodular congruence (which keeps det(S - S^T) = 1).  In two
    knots of five each block is followed by its mirror [[-a, 1], [0, -b]],
    so that the boundary vanishes."""
    paired = rng.random() < 0.4
    pairs = []
    while len(pairs) < genus:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        pairs.append((a, b))
        if paired and len(pairs) < genus:
            pairs.append((-a, -b))
    n = 2 * genus
    s = [[0] * n for _ in range(n)]
    for t, (a, b) in enumerate(pairs):
        s[2 * t][2 * t], s[2 * t][2 * t + 1], s[2 * t + 1][2 * t + 1] = a, 1, b
    s = congruent(unimodular(rng, n, n), s)
    return s, [binary(a, 1, b) for a, b in pairs]


def _pretzel(rng):
    while True:
        p = rng.randrange(-999, 1000, 2)
        q = rng.randrange(-999, 1000, 2)
        r = rng.randrange(-998, 999, 2)
        if r and p * q + p * r + q * r:
            return p, q, r


DECIDE_BLOCK_RANKS = (8, 10, 12, 16, 20, 24)
DECIDE_DENSE_RANKS = (8, 10, 12, 14)
DECIDE_GENERA = (4, 6, 8, 10, 12)


def decide_round(rng, round_index, seen):
    ops = []
    for slot in range(36):      # every rank meets every kind of torsion
        rank = DECIDE_BLOCK_RANKS[slot % len(DECIDE_BLOCK_RANKS)]
        rows, known = scrambled(rng, _torsion_for_decide(rng, slot, rank), rank)
        ops.append(Op(["analyze", "--gram", "{input}"], gram_payload(rows),
                      known=dict(known, rows=rows)))
    for slot in range(16):
        rows = random_even(rng, DECIDE_DENSE_RANKS[slot % 4], 2)
        ops.append(Op(["analyze", "--gram", "{input}"], gram_payload(rows),
                      known={"rows": rows}))
    # The genus-12 knots, 18 in all, hold op_ms.p90.
    for slot in range(38):
        s, blocks = _seifert(rng, DECIDE_GENERA[slot % len(DECIDE_GENERA)]
                             if slot < 24 else 12)
        known = {"blocks": [b[0] for b in blocks],
                 "det": math.prod(b[1] for b in blocks),
                 "sig": sum(b[2] for b in blocks)}
        if slot % 3 == 2:
            ops.append(Op(["knot", "--seifert", "{input}"],
                          "\n".join(",".join(map(str, row)) for row in s) + "\n",
                          suffix=".csv", known=known))
        else:
            ops.append(Op(["knot", "--seifert", "{input}"],
                          '{"seifert": ' + str(s).replace(" ", "") + "}",
                          known=known))
    for _ in range(24):
        p, q, r = _pretzel(rng)
        while (p, q, r) in seen:
            p, q, r = _pretzel(rng)
        seen.add((p, q, r))
        ops.append(Op(["pretzel", "--", str(p), str(q), str(r)],
                      known={"pqr": (p, q, r)}))
    ops.append(f1_op(round_index))
    return ops


# ---------------------------------------------------------------------------
# structure: diag, boundary, disc, gauss

STRUCT_DIAG_RANKS = (8, 12, 16, 20, 24)
STRUCT_BOUNDARY_RANKS = (8, 10, 12, 14, 16)
STRUCT_DISC_RANKS = (6, 8, 10, 12, 14)
# |det| bands of the Gauss sum operations: (low, high, square?, rank); for
# a square band, low and high bound sqrt|det| before binary_near adds up to
# 60.  Non-square determinants stay at 4e4 or below, where the float check is
# still reliable; square ones reach 1e6, the enumeration bound, where the
# check is exact.  The sixteen ops of one narrow band hold op_ms.p90.
GAUSS_BANDS = ((1_000, 3_000, False, 4),) * 5 + ((1_000, 3_000, False, 8),) * 5 \
    + ((35_000, 40_000, False, 6),) * 16 + ((40, 100, True, 6),) * 4 \
    + ((300, 400, True, 6),) * 2 + ((900, 940, True, 6),)


def _torsion_for_structure(rng, slot):
    kind = slot % 5
    if kind == 0:
        return [a_chain(rng.randint(1, 4) * 2 - 1, rng.choice((1, -1))),
                scaled_unit(rng.choice((1, -1)) * rng.randint(2, 60))]
    if kind == 1:
        b = binary_near(rng, rng.randint(10, 100), rng.random() < 0.5)
        return [b, negate(b)]
    if kind == 2:
        return [binary_near(rng, rng.randint(100, 5000), rng.random() < 0.5)]
    if kind == 3:
        return [binary_near(rng, rng.randint(50, 1000), rng.random() < 0.5),
                scaled_unit(rng.choice((1, -1)) * rng.randint(2, 60))]
    return [a_chain(rng.choice((2, 4, 6)), 1),
            binary_near(rng, rng.randint(20, 300), rng.random() < 0.5)]


def _gauss_form(rng, low, high, square):
    if square:
        m = rng.randint(low, high)
        b = binary_near(rng, m, rng.random() < 0.5)
        # The same determinant twice: either X + (-X) or X + X.
        other = negate(b) if rng.random() < 0.5 else b
        return [b, other]
    return [binary_near(rng, rng.randint(low, high), rng.random() < 0.5)]


def structure_round(rng, round_index, seen):
    ops = []
    for command, ranks in (("diag", STRUCT_DIAG_RANKS),
                           ("boundary", STRUCT_BOUNDARY_RANKS),
                           ("disc", STRUCT_DISC_RANKS)):
        for slot in range(25):
            rank = ranks[slot % len(ranks)]
            torsion = _torsion_for_structure(rng, slot)
            if sum(len(b[0]) for b in torsion) % 2:
                torsion.append(scaled_unit(rng.choice((1, -1))))
            size = sum(len(b[0]) for b in torsion)
            rows, known = scrambled(rng, torsion, max(rank, size))
            ops.append(Op([command, "--gram", "{input}"], gram_payload(rows),
                          known=dict(known, rows=rows)))
    for low, high, square, rank in GAUSS_BANDS:
        torsion = _gauss_form(rng, low, high, square)
        size = sum(len(b[0]) for b in torsion)
        rows, known = scrambled(rng, torsion, max(rank, size + size % 2))
        ops.append(Op(["gauss", "--gram", "{input}"], gram_payload(rows),
                      known=dict(known, rows=rows)))
    ops.append(f2_op(round_index))
    return ops


# ---------------------------------------------------------------------------
# dioph: window searches


def dioph_round(rng, round_index, seen):
    """Two thirds of the windows are small (they hold op_ms.p50), three in
    ten are mid-sized (they hold op_ms.p90) and two reach half-width 200."""
    ops = []
    for slot in range(100):
        while True:
            if slot in (49, 99):
                w, rr = rng.randint(196, 200), rng.randint(36, 40)
            elif slot % 10 in (2, 5, 8):
                w, rr = rng.randint(100, 120), rng.randint(50, 60)
            else:
                w, rr = rng.randint(60, 70), rng.randint(60, 70)
            m = rng.randint(50, 90)
            mode = ("-1", "1", "verify")[slot % 3]
            key = (w, rr, m, mode)
            if key not in seen:
                seen.add(key)
                break
        argv = ["dioph", "--pq", str(w), "--r", str(rr), "--m", str(m)]
        argv += ["--verify"] if mode == "verify" else ["--sign", mode]
        ops.append(Op(argv, known={"window": (w, rr, m),
                                   "sign": -1 if mode != "1" else 1,
                                   "verify": mode == "verify"}))
    return ops


ROUNDS = {"decide": decide_round, "structure": structure_round,
          "dioph": dioph_round}


def build(workload, seed, rounds):
    """The operation list of one run: ``rounds`` whole rounds."""
    if not 1 <= rounds <= MAX_ROUNDS:
        raise ValueError(f"rounds must be in 1..{MAX_ROUNDS}")
    rng = random.Random(f"{workload}-{seed}")
    seen = set()
    ops = []
    for k in range(rounds):
        ops += ROUNDS[workload](rng, k, seen)
    return ops
