"""Checks of the program's outputs, computed apart from the program.

Nothing here imports the program.  Determinants and signatures come from
the construction of an input or from this module's own exact elimination,
which pivots on the largest diagonal entry (the program takes the first
nonzero one).  The residue test follows the p-local route: a form whose
|det| is not a square has a nonzero residue somewhere, and otherwise only
2 and the primes of sqrt|det| can carry one.
"""

import cmath
import functools
import json
import math
from fractions import Fraction

GROUP_BOUND = 10 ** 4      # the CLI's default --bound-group


class Mismatch(Exception):
    """An output the checks reject."""


class Checks:
    """Counts how often each property of the method was tested."""

    def __init__(self):
        self.sampled = {}

    def expect(self, ok, what):
        if not ok:
            raise Mismatch(what)

    def prop(self, name, ok, what="", cases=1):
        self.sampled[name] = self.sampled.get(name, 0) + cases
        if not ok:
            raise Mismatch(f"property {name} fails {what}".rstrip())


# ---------------------------------------------------------------------------
# Arithmetic


def diagonal(rows):
    """Rational diagonal entries of a form congruent to ``rows`` by
    determinant-one moves: symmetric elimination pivoting on the largest
    |diagonal| entry left, or on e_i + e_j when all of them are zero."""
    b = [[Fraction(x) for x in row] for row in rows]
    active = list(range(len(rows)))
    out = []
    while active:
        k = max(active, key=lambda i: abs(b[i][i]))
        if b[k][k] == 0:
            pairs = [(abs(b[i][j]), i, j) for i in active for j in active
                     if i < j and b[i][j]]
            if not pairs:
                raise ValueError("degenerate form")
            _, k, j = max(pairs)
            b[k][k] += 2 * b[k][j] + b[j][j]
            for t in active:
                if t != k:
                    b[k][t] += b[j][t]
                    b[t][k] = b[k][t]
        pivot = b[k][k]
        active.remove(k)
        out.append(pivot)
        for i in active:
            f = b[i][k] / pivot
            if f:
                for j in active:
                    b[i][j] -= f * b[k][j]
    return out


def signature_of(entries):
    return sum(1 if e > 0 else -1 for e in entries)


def prime_factors(n):
    """Primes of |n| by trial division (inputs here stay below ~1e18)."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def square_free(n):
    """The square-free part of a nonzero integer, sign kept."""
    out = -1 if n < 0 else 1
    m = abs(n)
    for p in prime_factors(m):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e % 2:
            out *= p
    return out


def is_probable_prime(n):
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def residue_is_zero(entries, p):
    """Is the residue of <e_1, ..., e_k> at p zero in W(F_p)?  Entries with
    odd p-valuation contribute their unit part mod p; the class is zero when
    their number is even and, for odd p, the signed discriminant
    (-1)^(c/2) * prod(units) is a square mod p."""
    units = []
    for e in entries:
        e = Fraction(e)
        num, den = e.numerator, e.denominator
        if (valuation(num, p) - valuation(den, p)) % 2:
            while num % p == 0:
                num //= p
            while den % p == 0:
                den //= p
            units.append(num * den % p)
    if len(units) % 2:
        return False
    if p == 2:
        return True
    d = (-1) ** (len(units) // 2)
    for u in units:
        d = d * u % p
    return pow(d, (p - 1) // 2, p) == 1


def boundary_zero(entries, det):
    """Residues of a diagonalized integral form with determinant ``det``.

    The diagonal entries multiply to det, so a zero residue at every prime
    forces every valuation of det to be even; and a form unimodular at p
    has zero residue there.  So only 2 and the primes of sqrt|det| need a
    look."""
    root = math.isqrt(abs(det))
    if root * root != abs(det):
        return False
    return all(residue_is_zero(entries, p)
               for p in {2, *prime_factors(root)})


def invariant_factors(cyclic):
    """Invariant factors d_1 | d_2 | ... (all > 1) of a sum of cyclic
    groups of the given orders."""
    powers = {}
    for d in cyclic:
        for p in prime_factors(d):
            powers.setdefault(p, []).append(p ** valuation(d, p))
    k = max((len(v) for v in powers.values()), default=0)
    out = [1] * k
    for v in powers.values():
        for i, x in enumerate(sorted(v, reverse=True)):
            out[i] *= x
    return sorted(out)


@functools.lru_cache(maxsize=None)
def _odd_square_roots(modulus):
    """For an even modulus: square residue -> the odd m in [0, modulus)
    with m^2 congruent to it."""
    roots = {}
    for m in range(1, modulus, 2):
        roots.setdefault(m * m % modulus, []).append(m)
    return roots


def dioph_solutions(w, rr, mu, sign):
    """Rows (p, q, r, m) of pq + pr + qr = sign * m^2 with p, q odd in
    [-w, w], r even in [-rr, rr] and m odd in [1, mu], found by solving
    r(p + q) = sign * m^2 - pq for r.

    r is an even integer exactly when m^2 = sign * pq (mod 2|p + q|), and
    it lies in the window exactly when sign * m^2 is within rr * |p + q| of
    pq; only the m meeting both are tried."""
    odd = range(-w + (w + 1) % 2, w + 1, 2)
    evens = range(-rr + rr % 2, rr + 1, 2)
    isqrt = math.isqrt
    rows = []
    for p in odd:
        for q in odd:
            s = p + q
            pq = p * q
            if s == 0:
                # pq = -p^2 = sign * m^2 needs sign -1 and m = |p|.
                if sign == -1 and abs(p) <= mu:
                    rows.extend((p, q, r, abs(p)) for r in evens)
                continue
            modulus = 2 * abs(s)
            span = rr * abs(s)
            lo, hi = sign * pq - span, sign * pq + span
            if hi < 1:
                continue
            first = isqrt(lo - 1) + 1 if lo > 1 else 1
            top = min(isqrt(hi), mu)
            for root in _odd_square_roots(modulus).get(sign * pq % modulus, ()):
                start = first + (root - first) % modulus
                rows.extend((p, q, (sign * m * m - pq) // s, m)
                            for m in range(start, top + 1, modulus))
    return sorted(rows)


# ---------------------------------------------------------------------------
# The facts of one input


def form_facts(known):
    """(rank, det, signature, rational diagonal) of a Gram input."""
    rows = known["rows"]
    if "blocks" in known:
        entries = [e for block in known["blocks"] for e in diagonal(block)]
        return len(rows), known["det"], known["sig"], entries
    entries = diagonal(rows)
    det = math.prod(entries)
    return len(rows), int(det), signature_of(entries), entries


def _parse_frac(text):
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _closure(gens, orders):
    zero = tuple(0 for _ in orders)
    seen = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % d for a, b, d in zip(x, g, orders))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


# ---------------------------------------------------------------------------
# One check per command.  Each gets the op's ``known`` facts, the stdout
# text and a Checks tally, and raises Mismatch on a wrong output.


def check_analyze(known, out, c):
    rep = json.loads(out)
    rank, det, sig, entries = form_facts(known)
    bz = boundary_zero(entries, det)
    c.expect(rep["rank"] == rank and rep["is_even"] is True, "rank/parity")
    c.expect(rep["det"] == det, f"det {rep['det']} != {det}")
    c.expect(rep["det_odd"] == (det % 2 == 1), "det_odd")
    c.expect(rep["signature"] == sig, f"signature {rep['signature']} != {sig}")
    c.expect(rep["signature_mod_8"] == sig % 8, "signature_mod_8")
    c.expect(rep["boundary_zero"] == bz, f"boundary_zero should be {bz}")
    c.expect(rep["theorem_applies"] == (det % 2 == 1 and bz), "theorem_applies")
    c.expect(rep["conclusion_holds"] == (sig % 8 == 0), "conclusion_holds")
    c.prop("theorem_applies=>signature%8==0",
           not rep["theorem_applies"] or rep["signature"] % 8 == 0)
    c.prop("boundary_zero=>|det|_square", not rep["boundary_zero"]
           or math.isqrt(abs(rep["det"])) ** 2 == abs(rep["det"]))
    meta = rep["metabolizer"]
    if abs(det) > GROUP_BOUND:
        c.expect(meta is None, "metabolizer searched above the group bound")
        return
    if det % 2:
        c.prop("odd_|det|<=1e4:boundary_zero<=>metabolizer",
               (meta is not None) == rep["boundary_zero"])
    if "orders" in known and meta is not None:
        k = len(invariant_factors(known["orders"]))
        c.expect(all(len(g) == k for g in meta), "metabolizer vector length")


def check_knot(known, out, c):
    rep = json.loads(out)
    det, sig = known["det"], known["sig"]
    entries = [e for block in known["blocks"] for e in diagonal(block)]
    bz = boundary_zero(entries, det)
    c.expect(rep["signature"] == sig, f"signature {rep['signature']} != {sig}")
    c.expect(rep["determinant"] == det, "determinant")
    c.expect(rep["murasugi_class"] == sig % 4, "murasugi_class")
    c.expect(rep["boundary_zero"] == bz, f"boundary_zero should be {bz}")
    c.expect(rep["signature_mod_8"] == (sig % 8 if bz else None),
             "signature_mod_8")
    c.prop("knot:murasugi", sig % 4 == (0 if abs(det) % 4 == 1 else 2))
    c.prop("knot:boundary_zero=>signature%8==0",
           not rep["boundary_zero"] or rep["signature"] % 8 == 0)


def check_pretzel(known, out, c):
    rep = json.loads(out)
    p, q, r = known["pqr"]
    det = p * q + p * r + q * r
    entries = sorted(square_free(x) for x in (p, q, r, p * q * r))
    primes = {2}
    for e in entries:
        primes.update(prime_factors(e))
    bz = all(residue_is_zero(entries, t) for t in primes)
    c.expect((rep["p"], rep["q"], rep["r"]) == (p, q, r), "parameters")
    c.expect(rep["determinant"] == det, "determinant")
    c.expect(rep["witt_entries"] == entries, "witt_entries")
    c.expect(rep["boundary_zero"] == bz, f"boundary_zero should be {bz}")
    sig = rep["signature"]
    if p + q == 0:
        c.expect(sig is None, "signature without a closed form")
        return
    c.prop("pretzel:murasugi", sig % 4 == (0 if abs(det) % 4 == 1 else 2))


def check_diag(known, out, c):
    rep = json.loads(out)
    rank, det, sig, _ = form_facts(known)
    entries = [_parse_frac(x) for x in rep["entries"]]
    p = [[_parse_frac(x) for x in row] for row in rep["transition"]]
    c.expect(len(entries) == rank and len(p) == rank, "sizes")
    # P B P^T = diag(entries), in integers: row i of P is v_i / s_i.
    rows = known["rows"]
    scale = [math.lcm(*(x.denominator for x in row)) for row in p]
    v = [[int(x * s) for x in row] for row, s in zip(p, scale)]
    bv = [[sum(a * b for a, b in zip(brow, vi)) for brow in rows] for vi in v]
    for i in range(rank):
        for j in range(rank):
            got = sum(a * b for a, b in zip(v[j], bv[i]))
            want = entries[i] * scale[i] * scale[j] if i == j else 0
            c.expect(got == want, f"(P B P^T)[{i}][{j}]")
    c.expect(math.prod(entries) == det, "product of entries != det")
    c.expect(signature_of(entries) == sig, "signature of entries")


def check_boundary(known, out, c):
    rep = json.loads(out)
    rank, det, sig, entries = form_facts(known)
    wits = rep["witt_entries"]
    c.expect(len(wits) == rank and all(wits) and wits == sorted(wits),
             "witt_entries shape")
    c.expect(signature_of(wits) == sig, "signature of witt_entries")
    prod = math.prod(wits) * det
    c.expect(prod > 0 and math.isqrt(prod) ** 2 == prod,
             "witt_entries not in the square class of det")
    primes = [k["prime"] for k in rep["classes"]]
    c.expect(primes == sorted(set(primes)) and 2 in primes, "prime list")
    for e in wits:
        rest = abs(e)
        for t in primes:
            if rest % t == 0:
                rest //= t
                c.expect(rest % t, f"{e} is not square-free")
        c.expect(rest == 1, f"{e} has a prime missing from the classes")
    for k in rep["classes"]:
        t = k["prime"]
        c.expect(is_probable_prime(t), f"{t} is not prime")
        units = [e // t for e in wits if e % t == 0]
        parity = len(units) % 2
        if t == 2:
            square = None
        else:
            d = (-1) ** (len(units) * (len(units) - 1) // 2)
            for u in units:
                d = d * u % t
            square = pow(d, (t - 1) // 2, t) == 1
        zero = parity == 0 and (square is not False)
        c.expect((k["rank_parity"], k["disc_square"], k["zero"])
                 == (parity, square, zero), f"residue class at {t}")
    bz = boundary_zero(entries, det)
    c.expect(rep["boundary_zero"] == bz, f"boundary_zero should be {bz}")
    c.prop("boundary_zero=>|det|_square",
           not bz or math.isqrt(abs(det)) ** 2 == abs(det))


def check_disc(known, out, c):
    rep = json.loads(out)
    rank, det, sig, entries = form_facts(known)
    orders = rep["orders"]
    c.expect(orders == invariant_factors(known["orders"]),
             f"orders {orders} != {invariant_factors(known['orders'])}")
    c.expect(math.prod(orders) == abs(det) == rep["group_order"],
             "orders do not multiply to |det|")
    c.expect(all(b % a == 0 for a, b in zip(orders, orders[1:])),
             "orders are not a divisor chain")
    k = len(orders)
    link = [[Fraction(n, d) for n, d in row] for row in rep["linking"]]
    c.expect(len(link) == k and all(len(row) == k for row in link),
             "linking matrix shape")
    for i in range(k):
        for j in range(k):
            x = link[i][j]
            c.expect(x == link[j][i] and 0 <= x < 1, "linking matrix values")
            c.expect((x * math.gcd(orders[i], orders[j])).denominator == 1,
                     "linking value of the wrong order")
    meta = rep["metabolizer"]
    size = abs(det)
    if size > GROUP_BOUND:
        c.expect(meta is None, "metabolizer searched above the group bound")
        return
    bz = boundary_zero(entries, det)
    if size % 2:
        c.prop("odd_|det|<=1e4:boundary_zero<=>metabolizer",
               (meta is not None) == bz)
    if meta is None:
        return
    c.expect(all(len(g) == k for g in meta), "metabolizer vector length")
    sub = _closure([tuple(g) for g in meta], orders)
    c.expect(len(sub) ** 2 == size, f"metabolizer of order {len(sub)}")
    for g in meta:
        for h in meta:
            val = sum(a * b * link[i][j] for i, a in enumerate(g)
                      for j, b in enumerate(h))
            c.expect(val.denominator == 1, "linking does not vanish on it")


def check_gauss(known, out, c):
    rep = json.loads(out)
    rank, det, sig, _ = form_facts(known)
    n = rep["denominator"]
    terms = rep["terms"]
    c.expect(sum(k for _, k in terms) == abs(det), "counts do not sum to |det|")
    c.expect(all(0 <= r < 2 * n for r, _ in terms), "residue out of range")
    # Milgram: sum over G of e^(pi i r / N) = sqrt|det| e^(2 pi i sig / 8).
    # Exact angles (r reduced to (-N, N]) and fsum keep the error near
    # 1e-16 * |det|; one element moved changes the sum by >= pi / N.
    re = math.fsum(k * math.cos(math.pi * ((r + n) % (2 * n) - n) / n)
                   for r, k in terms)
    im = math.fsum(k * math.sin(math.pi * ((r + n) % (2 * n) - n) / n)
                   for r, k in terms)
    want = math.sqrt(abs(det)) * cmath.exp(2j * math.pi * sig / 8)
    err = abs(complex(re, im) - want)
    c.expect(err < 1e-12 * abs(det) + 1e-9, f"Milgram's formula off by {err}")
    c.expect(rep["check"] is True, "check reports false on a valid form")


def check_dioph(known, out, c):
    w, rr, mu = known["window"]
    sign = known["sign"]
    want = dioph_solutions(w, rr, mu, sign)
    if sign == -1:
        c.prop("dioph:sign-1=>p+q%8==0",
               all((p + q) % 8 == 0 for p, q, _, _ in want), cases=len(want))
    if known["verify"]:
        c.expect(out == "restriction holds\n", f"verify printed {out[:60]!r}")
        return
    lines = out.split("\n")
    c.expect(lines[0] == "p,q,r,m,sign,p_plus_q_mod_8" and lines[-1] == "",
             "CSV header")
    rows = [tuple(map(int, line.split(","))) for line in lines[1:-1]]
    c.expect(all(len(row) == 6 and row[4] == sign
                 and row[5] == (row[0] + row[1]) % 8 for row in rows),
             "sign or p_plus_q_mod_8 column")
    # The enumeration's rows solve the equation within the window's bounds
    # and parities, so equal lists check every printed row as well.
    got = [row[:4] for row in rows]
    c.expect(got == want, f"{len(got)} rows, the enumeration has {len(want)}")


CHECKS = {"analyze": check_analyze, "knot": check_knot,
          "pretzel": check_pretzel, "diag": check_diag,
          "boundary": check_boundary, "disc": check_disc,
          "gauss": check_gauss, "dioph": check_dioph}
