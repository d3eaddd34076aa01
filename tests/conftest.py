"""Shared fixtures: reference matrices and independent oracles.

The oracles here (cofactor and unsymmetric Bareiss determinants, the
Pfaffian by its permutation expansion, the pretzel signature in closed
form, brute-force isotropic-subspace and linking-radical searches,
diagonalization in Fractions with the library's and with the opposite
pivot policy, the Smith form with V kept apart, whole-group Gauss
enumeration and its float value, the merge of Gauss histograms by residue
addition, naive window search, the square-free part from numerator times
denominator)
deliberately reimplement functionality along different paths so the
library can be checked against them.
"""

from fractions import Fraction

import pytest

from wittlink._mat import identity

# --- reference Gram matrices -------------------------------------------------

# Symmetrized Seifert form of the (2,9) torus knot: -2 diagonal, -1 elsewhere.
NINE_ONE_SYM = [[-2 if i == j else -1 for j in range(8)] for i in range(8)]

# A Seifert matrix for it: lower triangular, all entries -1 on and below
# the diagonal.  S + S^T is NINE_ONE_SYM and det(S - S^T) = 1.
NINE_ONE_SEIFERT = [[-1 if i >= j else 0 for j in range(8)] for i in range(8)]

# Linear chain of eight -2 vertices (negated A8 Cartan matrix); bounds the
# lens space L(9,1), determinant 9, signature -8.
A8_NEG = [[-2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(8)]
          for i in range(8)]

# Even unimodular rank-8 form: E8 Cartan matrix (chain 0..6, node 7 on 2).
E8 = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
for _i, _j in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)]:
    E8[_i][_j] = E8[_j][_i] = -1

HYPERBOLIC = [[0, 1], [1, 0]]

TREFOIL_SEIFERT = [[-1, 1], [0, -1]]

# Genus-2 Seifert matrix with Alexander polynomial t^4 - 3t^3 + 5t^2 - 3t + 1,
# determinant 13, signature 0 (the 6_3 knot).
SEIFERT_6_3 = [[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]

# Genus-1 twist-knot Seifert matrix with Alexander polynomial 3t^2 - 7t + 3,
# determinant 13, signature 0 (the 8_1 knot).
SEIFERT_8_1 = [[1, 1], [0, -3]]


# A dense rank-24 even form, entries in [-3, 3].  Its diagonal entry
# D_23 / D_22 has a numerator divisible by 35072225197651 and a denominator
# divisible by 211543505683.  Their product 7419301470414740116750633 lies
# above the Miller-Rabin certification bound, so factoring numerator times
# denominator stops; factored apart, each part is proved.
DENSE_24 = [
    [0, -3, 1, 1, 3, 3, 3, 3, 1, 2, 2, 1, -2, -1, 2, -1, 0, -3, 2, 0, 2, -3, 3, -2],
    [-3, 2, 1, -1, 2, 3, 1, 3, 0, -1, 0, 2, 0, 2, 3, 1, -1, -2, -1, -1, 2, -1, 3, -1],
    [1, 1, -4, 0, 3, -2, 3, 2, -2, 3, -3, -2, 2, -3, -2, -1, -3, -3, -3, 2, 0, 2, 3, -3],
    [1, -1, 0, 2, 0, 3, -2, 3, -3, -1, -3, 2, 2, 0, -2, -1, -2, -3, 2, -2, -1, -1, -2, 3],
    [3, 2, 3, 0, -4, -2, -2, 3, 1, -2, -2, 1, 2, 1, -3, -1, 1, 2, 0, -2, 0, -2, 1, -1],
    [3, 3, -2, 3, -2, -4, -1, 3, 3, -3, 0, 2, 0, -1, 1, 3, 2, -2, -2, -2, -1, -1, 0, 1],
    [3, 1, 3, -2, -2, -1, -6, 0, 0, -3, -2, 3, -3, -3, -2, -1, -3, -2, 3, 1, 0, 2, -1, -2],
    [3, 3, 2, 3, 3, 3, 0, 2, -1, 1, 0, 3, 2, 2, -1, 1, -2, 0, -3, 1, 2, 2, 2, -3],
    [1, 0, -2, -3, 1, 3, 0, -1, -4, 2, -2, 0, -2, 2, -3, 0, 2, 3, 2, -2, 1, 3, -3, -3],
    [2, -1, 3, -1, -2, -3, -3, 1, 2, 0, 1, 1, -2, -3, -1, -1, -1, -2, 1, 2, 1, -1, -2, 2],
    [2, 0, -3, -3, -2, 0, -2, 0, -2, 1, -2, -2, 0, 1, -3, 1, -2, 2, -1, -3, -1, 1, -3, -2],
    [1, 2, -2, 2, 1, 2, 3, 3, 0, 1, -2, 2, 3, 2, 0, 2, -3, 3, -2, 2, 1, 3, -2, -3],
    [-2, 0, 2, 2, 2, 0, -3, 2, -2, -2, 0, 3, 6, 0, 1, 0, -2, 1, 3, 3, -3, 0, 3, -2],
    [-1, 2, -3, 0, 1, -1, -3, 2, 2, -3, 1, 2, 0, -4, 1, -1, 3, -2, 0, -1, -2, -3, -3, -2],
    [2, 3, -2, -2, -3, 1, -2, -1, -3, -1, -3, 0, 1, 1, 2, 1, 1, 0, 0, 0, 0, 2, 0, 1],
    [-1, 1, -1, -1, -1, 3, -1, 1, 0, -1, 1, 2, 0, -1, 1, 4, -1, 3, -3, -1, -3, 0, 0, -1],
    [0, -1, -3, -2, 1, 2, -3, -2, 2, -1, -2, -3, -2, 3, 1, -1, -6, 1, -1, -1, 2, -1, -3, 3],
    [-3, -2, -3, -3, 2, -2, -2, 0, 3, -2, 2, 3, 1, -2, 0, 3, 1, 2, 1, 3, 1, -1, 2, -2],
    [2, -1, -3, 2, 0, -2, 3, -3, 2, 1, -1, -2, 3, 0, 0, -3, -1, 1, -6, -2, -1, 1, 0, -1],
    [0, -1, 2, -2, -2, -2, 1, 1, -2, 2, -3, 2, 3, -1, 0, -1, -1, 3, -2, -4, -1, -2, -1, 3],
    [2, 2, 0, -1, 0, -1, 0, 2, 1, 1, -1, 1, -3, -2, 0, -3, 2, 1, -1, -1, -6, -3, -3, -3],
    [-3, -1, 2, -1, -2, -1, 2, 2, 3, -1, 1, 3, 0, -3, 2, 0, -1, -1, 1, -2, -3, 4, -3, 0],
    [3, 3, 3, -2, 1, 0, -1, 2, -3, -2, -3, -2, 3, -3, 0, 0, -3, 2, 0, -1, -3, -3, 0, 3],
    [-2, -1, -3, 3, -1, 1, -2, -3, -3, 2, -2, -3, -2, -2, 1, -1, 3, -2, -1, 3, -3, 0, 3, 2]]


# --- independent oracles -----------------------------------------------------

def cofactor_det(rows):
    """Determinant by recursive cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def bareiss_det(rows):
    """Fraction-free determinant of an integer matrix, symmetric or not:
    unsymmetric Bareiss elimination with row swaps."""
    m = [list(row) for row in rows]
    sign = prev = 1
    for k in range(len(m)):
        i = next((i for i in range(k, len(m)) if m[i][k]), None)
        if i is None:
            return 0
        if i != k:
            m[k], m[i], sign = m[i], m[k], -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * prev


def permutation_pfaffian(a):
    """Pf(A) of a 2m x 2m skew-symmetric matrix from its definition:
    the sum over all permutations s of sgn(s) prod_i a[s(2i)][s(2i+1)],
    divided by 2^m m!.  Zero for odd size."""
    import itertools
    import math

    n = len(a)
    if n % 2:
        return 0
    total = 0
    for s in itertools.permutations(range(n)):
        inversions = sum(s[i] > s[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(0, n, 2):
            term *= a[s[i]][s[i + 1]]
        total += term
    scale = 2 ** (n // 2) * math.factorial(n // 2)
    assert total % scale == 0
    return total // scale


def closed_form_pretzel_signature(p, q, r):
    """The signature of P(p,q,r) with p + q != 0 in closed form:
    sign(p) + sign(q) - sign(pqs) + sign(s det) - s, where s = p + q and
    det = pq + pr + qr."""
    def sign(x):
        return (x > 0) - (x < 0)

    s, det = p + q, p * q + p * r + q * r
    return sign(p) + sign(q) - sign(p * q * s) + sign(s * det) - s


def pretzel_window(odd_bound, even_bound):
    """Every valid P(p,q,r) with |p|, |q| <= odd_bound (odd) and
    |r| <= even_bound (even): pq + pr + qr is odd, so never 0."""
    odd = range(-odd_bound, odd_bound + 1, 2)
    return [(p, q, r) for p in odd for q in odd
            for r in range(-even_bound, even_bound + 1, 2)]


def fraction_diagonalize(rows):
    """Congruence diagonalization P B P^T = D in Fractions, with the pivot
    policy of ``wittlink.pivot_minors`` but no fraction-free arithmetic:
    the smallest-index nonzero diagonal entry is swapped into place, and a
    zero trailing diagonal is repaired by e_k -> e_k + e_j first."""
    from wittlink.forms import DiagonalRationalForm

    n = len(rows)
    b = [[Fraction(x) for x in row] for row in rows]
    p = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    def swap(i, j):
        b[i], b[j] = b[j], b[i]
        for row in b:
            row[i], row[j] = row[j], row[i]
        p[i], p[j] = p[j], p[i]

    def add_row(i, j):
        # e_i -> e_i + e_j
        b[i] = [x + y for x, y in zip(b[i], b[j])]
        for row in b:
            row[i] = row[i] + row[j]
        p[i] = [x + y for x, y in zip(p[i], p[j])]

    for k in range(n):
        if b[k][k] == 0:
            for j in range(k + 1, n):
                if b[j][j] != 0:
                    swap(k, j)
                    break
            else:
                # Row k pairs with some later basis vector (nondegeneracy),
                # so e_k -> e_k + e_j gives b[k][k] = 2*b[k][j] != 0.
                j = next(j for j in range(k + 1, n) if b[k][j] != 0)
                add_row(k, j)
        for i in range(k + 1, n):
            if b[i][k] == 0:
                continue
            t = b[i][k] / b[k][k]
            b[i] = [x - t * y for x, y in zip(b[i], b[k])]
            for row in b:
                row[i] = row[i] - t * row[k]
            p[i] = [x - t * y for x, y in zip(p[i], p[k])]

    return DiagonalRationalForm(entries=tuple(b[i][i] for i in range(n)),
                                transition=tuple(tuple(row) for row in p))


def alt_pivot_signs(gram):
    """Sign count from a congruence diagonalization with the opposite
    tie-breaking: pivot on the largest-index nonzero diagonal entry."""
    n = len(gram)
    b = [[Fraction(x) for x in row] for row in gram]

    def swap(i, j):
        b[i], b[j] = b[j], b[i]
        for row in b:
            row[i], row[j] = row[j], row[i]

    for k in range(n):
        if b[k][k] == 0:
            for j in range(n - 1, k, -1):
                if b[j][j] != 0:
                    swap(k, j)
                    break
            else:
                for j in range(n - 1, k, -1):
                    if b[k][j] != 0:
                        b[k] = [x + y for x, y in zip(b[k], b[j])]
                        for row in b:
                            row[k] = row[k] + row[j]
                        break
        for i in range(k + 1, n):
            if b[i][k] == 0:
                continue
            t = b[i][k] / b[k][k]
            b[i] = [x - t * y for x, y in zip(b[i], b[k])]
            for row in b:
                row[i] = row[i] - t * row[k]
    return sum(1 if b[i][i] > 0 else -1 for i in range(n))


def witt_zero_bruteforce(units, p):
    """Is the diagonal form <units> over F_p metabolic?

    Searches directly for a totally isotropic subspace of half the rank,
    enumerating echelonized vectors; independent of the canonical-form
    bookkeeping in the library.
    """
    k = len(units)
    if k == 0:
        return True
    if k % 2:
        return False
    target = k // 2

    def bil(v, w):
        return sum(u * x * y for u, x, y in zip(units, v, w)) % p

    stack = [()]
    for _ in range(k):
        stack = [v + (c,) for v in stack for c in range(p)]
    # one representative per projective point (leading coefficient 1), kept
    # only when isotropic
    isotropic = [v for v in stack
                 if next((x for x in v if x), None) == 1 and bil(v, v) == 0]

    def independent(basis, v):
        rows = [list(b) for b in basis] + [list(v)]
        rank = 0
        for col in range(k):
            piv = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = pow(rows[rank][col], -1, p)
            rows[rank] = [x * inv % p for x in rows[rank]]
            for r in range(len(rows)):
                if r != rank and rows[r][col] % p:
                    f = rows[r][col]
                    rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
            rank += 1
        return rank == len(rows)

    def extend(basis):
        if len(basis) == target:
            return True
        for v in isotropic:
            if any(bil(v, b) != 0 for b in basis):
                continue
            if not independent(basis, v):
                continue
            if extend(basis + [v]):
                return True
        return False

    return extend([])


def linking_radical_is_trivial(d):
    """Is the linking form of the discriminant form ``d`` nondegenerate?

    Brute-force radical search over every element of G on the integer
    table: only x = 0 may have sum_i x_i N b(g_i, g_j) = 0 mod N for
    every j.
    """
    n = d.denominator
    for x in d.elements():
        if any(x) and all(sum(a * b for a, b in zip(x, row)) % n == 0
                          for row in d.link):
            return False
    return True


def reference_smith_normal_form(rows):
    """The library's Smith form as it was written with closures, kept as
    the oracle that pins its exact (d, V).

    (d, V) with M * V = W * D for unimodular V and W, where D is the
    diagonal d_1 | d_2 | ... padded with zeros to the shape of M.

    Pivot choice: the smallest nonzero absolute value of the remaining
    block, scanned row-major, which keeps entry growth modest and the
    output deterministic.  Diagonal entries are normalized positive.  The
    row operations that would form W^-1 are applied to M alone.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    v = identity(nc)

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        m[dst] = [a + q * b for a, b in zip(m[dst], m[src])]

    def add_col(dst, src, q):
        for row in m:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    for t in range(min(nr, nc)):
        while True:
            piv = None
            best = None
            for i in range(t, nr):
                for j in range(t, nc):
                    x = abs(m[i][j])
                    if x and (best is None or x < best):
                        best = x
                        piv = (i, j)
            if piv is None:
                break
            if piv != (t, t):
                if piv[0] != t:
                    m[t], m[piv[0]] = m[piv[0]], m[t]
                if piv[1] != t:
                    swap_cols(t, piv[1])
            dirty = False
            for i in range(t + 1, nr):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    add_row(i, t, -q)
                    if m[i][t]:
                        dirty = True
            for j in range(t + 1, nc):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    add_col(j, t, -q)
                    if m[t][j]:
                        dirty = True
            if dirty:
                continue
            # Row and column are clear; fold in any entry the pivot misses
            # so the divisibility chain d_t | d_{t+1} holds.
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if m[i][j] % m[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if t < min(nr, nc) and m[t][t] < 0:
            m[t] = [-x for x in m[t]]
    d = [m[i][i] for i in range(min(nr, nc))]
    return d, v


def naive_window_search(bound, sign, m_max, r_bound=None, p_range=None,
                        q_range=None, r_range=None):
    """Triple loop plus an explicit loop over m; no perfect-square fast path.

    |p|, |q| <= bound and |r| <= r_bound (default: bound), unless an
    inclusive ``p_range``, ``q_range`` or ``r_range`` is given instead.
    """
    if r_bound is None:
        r_bound = bound
    p_lo, p_hi = p_range or (-bound, bound)
    q_lo, q_hi = q_range or (-bound, bound)
    r_lo, r_hi = r_range or (-r_bound, r_bound)
    out = []
    for p in range(p_lo, p_hi + 1):
        if p % 2 == 0:
            continue
        for q in range(q_lo, q_hi + 1):
            if q % 2 == 0:
                continue
            for r in range(r_lo, r_hi + 1, 1):
                if r % 2 != 0:
                    continue
                t = p * q + p * r + q * r
                for m in range(1, m_max + 1, 2):
                    if t == sign * m * m:
                        out.append((p, q, r, m))
    return sorted(out)


def enumerate_gauss_terms(rows):
    """The Gauss sum ``terms`` of an even form by one loop over the whole
    discriminant group: sorted (N b(u,u) mod 2N, count) pairs.

    The Smith orders form a divisor chain, so the last factor d_k is the
    largest.  For u = (c', t) with t the coefficient on it,
    N b(u,u) = base(c') + t (lin(c') + t quad_k) mod 2N, with base and lin
    rebuilt from the discriminant form's integer tables at every c'.  A
    unimodular form counts its one element as the factor of order 1.
    """
    import itertools
    from collections import Counter

    from wittlink import discriminant_form, form_from_rows

    d = discriminant_form(form_from_rows(rows))
    n, quad, link = d.denominator, d.quad, d.link
    orders = d.orders or (1,)
    quad = quad or [0]
    last = len(orders) - 1
    mod = 2 * n
    qk = quad[last]
    counts = Counter()
    for c in itertools.product(*(range(di) for di in orders[:last])):
        base = lin = 0
        for i, ci in enumerate(c):
            if ci:
                row = link[i]
                base += ci * (ci * quad[i] + 2 * sum(
                    cj * row[j] for j, cj in enumerate(c[i + 1:], i + 1)))
                lin += 2 * ci * row[last]
        counts.update((base + t * (lin + t * qk)) % mod
                      for t in range(orders[last]))
    return tuple(sorted(counts.items()))


def unpruned_metabolizer(d):
    """The lex-first metabolizer of a discriminant form, or None, by a full
    depth-first search; ``find_metabolizer`` makes one pass, this search's
    first branch, and relies on that branch succeeding whenever any does.

    Per prime p in increasing order, the elements of the p-primary
    component are x_i = c_i d_i / p^e_i mod d_i in the lexicographic order
    of c, isotropic when N b(x, x) = 0 mod N on the Smith tables.  A
    depth-first search adds, in that order, every isotropic x outside the
    subgroup so far and orthogonal to it whose subgroup still divides
    sqrt|G_p|, and backtracks on failure; it keeps no record of subgroups
    already tried and has no depth cap.  Exponential: for small groups
    only.
    """
    import itertools
    import math

    from wittlink import factorize

    n, orders, link = d.denominator, d.orders, d.link
    g_order = math.prod(orders)
    if math.isqrt(g_order) ** 2 != g_order:
        return None

    def link_sum(x, y):
        return sum(xi * yj * link[i][j] for i, xi in enumerate(x)
                   for j, yj in enumerate(y)) % n

    def closure(base, x):
        out, current = set(base), x
        while any(current):
            out.update(tuple((a + b) % o for a, b, o in zip(s, current, orders))
                       for s in base)
            current = tuple((a + b) % o for a, b, o in zip(current, x, orders))
        return frozenset(out)

    combined = []
    for p in factorize(g_order).primes():
        exps = [next(e for e in itertools.count() if di % p ** (e + 1))
                for di in orders]
        target = math.isqrt(p ** sum(exps))
        coords = [[c * (di // p ** e) % di for c in range(p ** e)]
                  for e, di in zip(exps, orders)]
        isotropic = [x for x in itertools.product(*coords)
                     if any(x) and link_sum(x, x) == 0]

        def extend(gens, sub, start):
            if len(sub) == target:
                return gens
            for t in range(start, len(isotropic)):
                x = isotropic[t]
                if x in sub or any(link_sum(g, x) for g in gens):
                    continue
                bigger = closure(sub, x)
                if target % len(bigger) == 0:
                    hit = extend(gens + [x], bigger, t + 1)
                    if hit is not None:
                        return hit
            return None

        part = extend([], frozenset({(0,) * len(orders)}), 0)
        if part is None:
            return None
        combined.extend(part)
    return combined


def convolve(a, b, mod):
    """The histogram of r + s mod ``mod`` for r, s drawn from a and b.

    The residues of distinct prime components lie in subgroups of Z/mod of
    coprime orders, so no two sums collide.
    """
    return {(ra + rb) % mod: ca * cb
            for ra, ca in a.items() for rb, cb in b.items()}


def dense_histogram(table, mod):
    """The {residue: count} histogram of a dense Gauss table over Z/mod,
    whose index x stands for the residue x (mod / len(table))."""
    w = mod // len(table)
    return {x * w: c for x, c in enumerate(table) if c}


def fsum_gauss_value(g):
    """sum c * e^(pi i r / N) over g.terms, with each r reduced exactly into
    (-N, N] and the real and imaginary parts summed by ``math.fsum``: the
    naive sum drifts by more than 1e-9 at |det| near 10^6."""
    import math
    n = g.denominator

    def angle(r):
        return math.pi * (r - 2 * n if r > n else r) / n

    return complex(math.fsum(c * math.cos(angle(r)) for r, c in g.terms),
                   math.fsum(c * math.sin(angle(r)) for r, c in g.terms))


def reference_square_free_part(a):
    """The square-free integer in the square class of a = x/y in lowest
    terms, from one factorization of the product x*y: sign(a) times its
    primes of odd exponent."""
    from wittlink import factorize
    a = Fraction(a)
    v = a.numerator * a.denominator
    out = 1 if v > 0 else -1
    for p, e in factorize(v).factors:
        if e % 2:
            out *= p
    return out


def is_rational_square(x: Fraction) -> bool:
    import math
    if x <= 0:
        return False
    n, d = x.numerator, x.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


# --- random generators --------------------------------------------------------

def random_even_form_rows(rng, rank, entry_bound=8, odd_det=False,
                          max_abs_det=None):
    """Random symmetric even-diagonal integer matrices, rejection-sampled to
    be nondegenerate (and optionally odd/bounded determinant)."""
    if odd_det and rank % 2:
        # an even form of odd rank is alternating mod 2, hence has even det
        raise ValueError("odd determinant requires even rank")
    while True:
        rows = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            rows[i][i] = 2 * rng.randint(-entry_bound // 2, entry_bound // 2)
            for j in range(i + 1, rank):
                rows[i][j] = rows[j][i] = rng.randint(-entry_bound, entry_bound)
        det = cofactor_det(rows)
        if det == 0:
            continue
        if odd_det and det % 2 == 0:
            continue
        if max_abs_det is not None and abs(det) > max_abs_det:
            continue
        return rows


def random_dense_even_rows(rng, rank, entry_bound=3):
    """Random dense nondegenerate even forms of any rank: rejection-sampled
    through ``form_from_rows``, since the cofactor oracle is exponential."""
    from wittlink import form_from_rows
    from wittlink.errors import DegenerateError

    while True:
        rows = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            rows[i][i] = 2 * rng.randint(-entry_bound // 2, entry_bound // 2)
            for j in range(i + 1, rank):
                rows[i][j] = rows[j][i] = rng.randint(-entry_bound, entry_bound)
        try:
            form_from_rows(rows)
        except DegenerateError:
            continue
        return rows


def random_seifert_rows(rng, genus, shears=6):
    """Random valid Seifert matrices: block sums of [[a,1],[0,b]] conjugated
    by unimodular shear matrices, so det(S - S^T) = 1 exactly."""
    n = 2 * genus
    rows = [[0] * n for _ in range(n)]
    for g in range(genus):
        i = 2 * g
        rows[i][i] = rng.randint(-2, 2)
        rows[i + 1][i + 1] = rng.randint(-2, 2)
        rows[i][i + 1] = 1
    for _ in range(shears):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-1, 1))
        # S -> E S E^T with E the shear row_i += c*row_j
        for col in range(n):
            rows[i][col] += c * rows[j][col]
        for row in rows:
            row[i] += c * row[j]
    return rows


def known_answer_rows(a, b, c, n, shears=6, seed=0):
    """M = A L A^T for the even unimodular L = E8^a + (-E8)^b + U^c and A =
    shear . diag(n, 1, ..., 1) . shear, the shears drawn from
    random.Random(seed), ``shears`` of them on each side.  M spans a
    sublattice of index n in L, so M is even, det M = (-1)^c n^2 and
    sigma(M) = 8(a - b); L/M, of order n, is a metabolizer of M's linking
    form, so its boundary vanishes, and for odd n the theorem applies: the
    paper's proof read backwards."""
    import random

    r = random.Random(seed)
    blocks = [E8] * a + [[[-x for x in row] for row in E8]] * b
    blocks += [HYPERBOLIC] * c
    rows = block_sum_rows(*blocks)
    size = len(rows)

    def shear():
        for _ in range(shears):
            i, j = r.sample(range(size), 2)
            k = r.choice((-1, 1))
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
            for row in rows:
                row[i] += k * row[j]

    shear()
    rows[0] = [n * x for x in rows[0]]
    for row in rows:
        row[0] *= n
    shear()
    return rows


def chain_shear(rows):
    """Scramble ``rows`` in place by the congruence row_i += row_(i+1),
    col_i += col_(i+1), for i = 0, 1, ..., n - 2 in turn, and return them:
    a dense matrix of the same form."""
    for i in range(len(rows) - 1):
        rows[i] = [x + y for x, y in zip(rows[i], rows[i + 1])]
        for row in rows:
            row[i] += row[i + 1]
    return rows


def block_sum_rows(*blocks):
    """The block-diagonal sum of square integer row lists."""
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at:at + len(b)] = row
        at += len(b)
    return rows


@pytest.fixture
def rng():
    import random
    return random.Random(20240811)


def random_mixed_even_rows(rng, max_rank=14):
    """Random nondegenerate even forms of four kinds, in turn by draw:

    - dense, entries in [-2, 2];
    - zero diagonal, so pivoting starts with the e_k -> e_k + e_j step;
    - X + (-X), whose boundary vanishes, or X + X, whose determinant is a
      square while its boundary need not vanish;
    - hyperbolic planes summed with a dense block.

    The last two are scrambled by a unimodular congruence (symmetric shears).
    """
    from wittlink import form_from_rows
    from wittlink.errors import DegenerateError

    def dense(n, zero_diag=False):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 0 if zero_diag else 2 * rng.randint(-1, 1)
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(-2, 2)
        return rows

    def scramble(rows):
        n = len(rows)
        for _ in range(2 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = rng.choice((-1, 1))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
            for row in rows:
                row[i] += c * row[j]
        return rows

    kind = rng.randrange(4)
    while True:
        if kind == 0:
            rows = dense(rng.randint(1, max_rank))
        elif kind == 1:
            rows = dense(rng.randint(2, max_rank), zero_diag=True)
        elif kind == 2:
            x = dense(rng.randint(1, max_rank // 2))
            sign = rng.choice((-1, 1))
            rows = scramble(block_sum_rows(
                x, [[sign * v for v in row] for row in x]))
        else:
            planes = rng.randint(1, max_rank // 4 + 1)
            rows = scramble(block_sum_rows(
                *[HYPERBOLIC] * planes,
                dense(rng.randint(0, max_rank - 2 * planes))))
        try:
            form_from_rows(rows)
        except DegenerateError:
            continue
        return rows
