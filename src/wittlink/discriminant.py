"""Discriminant groups, linking forms, metabolizers and exact Gauss sums.

The discriminant group of a nondegenerate integer form B is the finite
abelian quotient of the dual lattice by the lattice; it carries a Q/Z-valued
linking form and, for even B, the Q/2Z-valued coset invariant b(u,u) mod 2
that the Gauss sum exponentiates.  Everything is exact.  One integer Smith
normal form B V = W D, with V kept and W never formed, gives the group
(generator i is column i of V over d_i), the basis of the overlattice that a
metabolizer spans, and nondegeneracy of a linking form.  The linking data is
held once, over one denominator N, and each p-primary component gets one
table in its own units: integers mod size = p^a (2^(a+1) for p = 2), index
x standing for the residue x 2N / size of N b(u,u) mod 2N.  One walk over
that table serves the metabolizer search and the Gauss sum.  The sum is a
multiset of roots of unity, one dense table per component merged by Chinese
remainders, in closed form for odd p and equal orders.  The builder checks
its own table against sqrt|det| e^(2 pi i sigma/8), per component, from a
Legendre symbol in closed form and otherwise in the ring Z[zeta_R] that
holds the sum, by one rule for every prime: the table minus one of
Milgram's candidates must equal its rotation by R/p.  The merged table is
the only list of its size: the CLI writes its terms as text, one slice at a
time, joined from decimal pieces built in advance, so the memory of a
``gauss`` report is bounded by the table.  On (Z/p)^k, p odd, with k = 1
or k even, every term after the first has one count, and each slice after
the first is one join of its offsets around one separator.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter, namedtuple
from operator import eq, itemgetter, mul, not_

from ._mat import identity, mat_mul, transpose
from .errors import (DeterminantTooLargeError, GroupTooLargeError,
                     LengthMismatchError, NotEvenError)
from .forms import (IntegerSymmetricForm, _eliminate, determinant,
                    form_from_rows, is_even, signature_from_minors)
from .witt import (_decide, _euler, _split, boundary_zero_from_minors,
                   factorize)

DEFAULT_GROUP_BOUND = 10 ** 4
DEFAULT_DET_BOUND = 10 ** 6


# ---------------------------------------------------------------------------
# Integer matrix normal forms


def _smith_pivot(m, t, nr):
    """(|x|, i, j) of the first x = m[i][j] of least nonzero |x| in rows
    t..nr-1 and columns t.. of ``m``, row-major; (0, 0, 0) if there is
    none.  The scan stops at a unit: no nonzero |x| is smaller."""
    best = pi = pj = 0
    for i in range(t, nr):
        for j, x in enumerate(m[i][t:], t):
            if x and (not best or abs(x) < best):
                best, pi, pj = abs(x), i, j
                if best == 1:
                    return best, pi, pj
    return best, pi, pj


def smith_normal_form(rows):
    """(d, V) with M * V = W * D for unimodular V and W, where D is the
    diagonal d_1 | d_2 | ... padded with zeros to the shape of M.

    Pivot: the smallest nonzero |entry| of the remaining block, the first
    in row-major order; rows are reduced before columns, a row holding an
    entry the pivot misses is added to row t, and rows are negated to make
    d positive.  V is kept as rows under M, so a column operation updates
    both in one pass, and W is never formed.  A unit pivot ends its step.

    Three shortcuts skip only work that changes nothing.  The pivot scan
    stops at the first entry of |x| = 1, which is the one the full
    row-major scan picks, since no nonzero entry is smaller.  A row
    operation at step t updates columns t.. only, since the rows t.. of M
    are zero left of column t.  A column operation row[j] -= q * row[t]
    leaves a row with row[t] = 0 as it is, and no column operation of a
    pass changes column t, so each pass lists the rows with row[t] != 0
    once and updates those alone.
    """
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    m = [list(r) for r in rows] + identity(nc)
    for t in range(min(nr, nc)):
        while True:
            best, pi, pj = _smith_pivot(m, t, nr)
            if not best:
                break
            m[t], m[pi] = m[pi], m[t]
            if pj != t:
                for row in m:
                    row[t], row[pj] = row[pj], row[t]
            mt = m[t]
            p = mt[t]
            for i in range(t + 1, nr):
                mi = m[i]
                if mi[t]:
                    q = mi[t] // p
                    for j in range(t, nc):
                        mi[j] -= q * mt[j]
            live = [row for row in m if row[t]]
            for j in range(t + 1, nc):
                if mt[j]:
                    q = mt[j] // p
                    for row in live:
                        row[j] -= q * row[t]
            if any(m[i][t] for i in range(t + 1, nr)) or any(mt[t + 1:]):
                continue
            if best == 1:
                break
            # Row and column are clear; fold in a row with an entry the
            # pivot misses so the divisibility chain d_t | d_{t+1} holds.
            i = next((i for i in range(t + 1, nr)
                      if any(x % p for x in m[i][t + 1:])), None)
            if i is None:
                break
            m[t] = [a + b for a, b in zip(mt, m[i])]
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
    return [m[i][i] for i in range(min(nr, nc))], m[nr:]


# ---------------------------------------------------------------------------
# Discriminant form


class DiscriminantForm(namedtuple("DiscriminantForm", "orders denominator "
                                  "link quad columns")):
    """The finite quotient (dual lattice)/(lattice) with its linking data.

    The linking data is held once, as integers over one denominator N; the
    Gauss sum and the metabolizer search both read these tables.

    orders       cyclic orders (d_1 | d_2 | ... | d_k, all > 1)
    denominator  N = d_k, the least common denominator of the b(g_i, g_j)
    link         k x k symmetric ints N b(g_i, g_j) mod N
    quad         ints N b(g_i, g_i) mod 2N (meaningful for even forms)
    columns      integer vectors v_i in the source lattice basis, with
                 g_i = v_i / d_i representing the generators

    All are ints or tuples of them; only the accessors build Fractions.
    """

    __slots__ = ()

    @property
    def linking(self) -> tuple[tuple[Fraction, ...], ...]:
        """b(g_i, g_j) mod Z as Fractions in [0,1)."""
        from fractions import Fraction
        return tuple(tuple(Fraction(x, self.denominator) for x in row)
                     for row in self.link)

    @property
    def quad_diag(self) -> tuple[Fraction, ...]:
        """b(g_i, g_i) mod 2Z as Fractions in [0,2)."""
        from fractions import Fraction
        return tuple(Fraction(x, self.denominator) for x in self.quad)

    def group_order(self) -> int:
        return math.prod(self.orders)

    def elements(self):
        """All coefficient tuples, lexicographically ordered."""
        return itertools.product(*(range(d) for d in self.orders))


def discriminant_form(f: IntegerSymmetricForm) -> DiscriminantForm:
    """Compute the discriminant group and linking form of a valid form.

    The cokernel of the Gram matrix B is read off the Smith normal form
    B V = W D; the generator of the i-th cyclic factor lifts to column i of
    B^-1 W = V D^-1, that is column i of V divided by d_i, a rational
    vector in the dual lattice.  Unit factors are dropped.  With v_i that
    column, b(g_i, g_j) = s_ij / (d_i d_j) for the integer s_ij = v_i^T B v_j.

    The denominator N is d_k, the largest order (1 for the trivial group).
    B v_j = d_j w_j gives b(g_i, g_j) = v_i^T w_j / d_i, so every value
    has a denominator dividing d_k; the linking form is nondegenerate, so
    b(g_k, .) has order exactly d_k.
    """
    b = f.rows()
    d, v = smith_normal_form(b)
    orders = [di for di in d if di != 1]
    cols = [col for col, di in zip(zip(*v), d) if di != 1]
    k = len(orders)
    n = orders[-1] if orders else 1
    # B is symmetric, so row i of C B is v_i^T B
    s = [[sum(map(mul, bi, v)) for v in cols] for bi in mat_mul(cols, b)]
    link = [[s[i][j] * n // (orders[i] * orders[j]) % n for j in range(k)]
            for i in range(k)]
    quad = [s[i][i] * n // orders[i] ** 2 % (2 * n) for i in range(k)]
    return DiscriminantForm(orders=tuple(orders), denominator=n,
                            link=tuple(map(tuple, link)), quad=tuple(quad),
                            columns=tuple(cols))


def linking_value(d: DiscriminantForm, x, y) -> Fraction:
    """The linking form on coefficient vectors, as a Fraction in [0,1)."""
    k = len(d.orders)
    if len(x) != k or len(y) != k:
        raise LengthMismatchError(f"coefficient vectors must have length {k}")
    from fractions import Fraction
    n = d.denominator
    return Fraction(sum(xi * sum(map(mul, row, y))
                        for xi, row in zip(x, d.link)) % n, n)


def linking_is_nondegenerate(d: DiscriminantForm) -> bool:
    """Whether x -> b(x, .) is one-to-one from G to Hom(G, Q/Z).

    Both groups have order |G|, so one-to-one is the same as onto.  In the
    coordinates phi -> (d_j phi(g_j) mod d_j) of Hom(G, Q/Z), x maps to
    x A mod d, with A_ij = d_j N b(g_i, g_j) / N an integer because d_j g_j
    lies in the lattice.  So the map is onto iff the rows of A and of
    diag(d) span Z^k, that is iff every invariant factor of the 2k x k
    matrix [A; diag(d)] is 1.
    """
    n, orders = d.denominator, d.orders
    rows = [[dj * x // n for dj, x in zip(orders, row)] for row in d.link]
    rows += [[di * (i == j) for j in range(len(orders))]
             for i, di in enumerate(orders)]
    return all(x == 1 for x in smith_normal_form(rows)[0])


def _subgroup_closure(base, gen, orders):
    """The subgroup generated by ``base`` (already a subgroup) and ``gen``."""
    out = set(base)
    current = gen
    while any(current):
        out.update(tuple((a + b) % d for a, b, d in zip(s, current, orders))
                   for s in base)
        current = tuple((a + b) % d for a, b, d in zip(current, gen, orders))
    return frozenset(out)


def _component_metabolizer(quad, link2, orders, size):
    """Generators of the lex-first metabolizer of one component's table, in
    its coordinates, or None.  One pass over the walk adds each isotropic x
    outside H and orthogonal to it, so H ends maximal isotropic and H-perp/H
    anisotropic: of exponent p (b(p^(a-1)y, p^(a-1)y) lies in p^(a-2)Z), so
    of rank <= 2 by Chevalley-Warning, <= 1 for p = 2 (b(x, x) mod 1 is
    additive there).  If G_p has a metabolizer, |H-perp/H| = |G_p| / |H|^2
    is a square and H-perp/H is Witt-equivalent to G_p, so zero: rank 0, H
    = H-perp (Milnor-Husemoller, Symmetric Bilinear Forms, ch. IV)."""
    target = math.isqrt(math.prod(orders))
    values, gens, rows, closure = [], [], [], frozenset({(0,) * len(orders)})
    # b(c, c) = 0 mod 1: 2 S(c) = 0 mod size, so S(c) = 0 mod size/(2, size)
    _walk(quad, link2, orders, size // math.gcd(2, size), values.extend)
    for x in itertools.compress(itertools.product(*map(range, orders)),
                                map(not_, values)):  # 0 is in the closure
        if x not in closure and not any(sum(map(mul, row, x)) % size
                                        for row in rows):
            gens.append(x)
            rows.append([sum(map(mul, x, row)) % size for row in link2])
            closure = _subgroup_closure(closure, x, orders)
            if len(closure) == target:
                return gens
    return None


def _metabolizer(f, bound, d=None, boundary_zero=None):
    """``find_metabolizer`` as a tuple of generator tuples, or None, run only
    when |det| <= ``bound`` and every residue of f vanishes: a metabolic
    linking form is Witt-zero, and its class is the boundary of f's.  A
    caller that holds f's discriminant form ``d`` or its residue verdict
    passes it in, so neither is computed twice."""
    if abs(f.minors[-1]) > bound or not (
            boundary_zero_from_minors(f.minors) if boundary_zero is None
            else boundary_zero):
        return None
    found = find_metabolizer(d or discriminant_form(f), bound=bound)
    return tuple(found) if found is not None else None


def _primary_components(d: DiscriminantForm):
    """(p, idx, orders, size, quad, link2) per prime p dividing |G|, in
    increasing order: the table of the p-primary component G_p.

    G_p is generated by the u_i = (d_i / p^e_i) g_i, i in ``idx`` (where
    e_i = v_p(d_i) > 0), of ``orders`` p^e_i.  2N b(u, v) mod 2N on G_p is
    a multiple of 2N / size, and so is N b(u, u) for p = 2 or an even form.
    quad_i stands for N b(u_i, u_i) and link2_ij for 2N b(u_i, u_j), so
    S(c) = sum_i c_i^2 quad_i + sum_(i<j) c_i c_j link2_ij stands for
    N b(c, c), and b(c, c') = 0 mod 1 iff sum_ij c_i c'_j link2_ij = 0 mod
    size.  For odd p, quad_i = link2_ii / 2 mod size: N b(u_i, u_i) on an
    even form, and on an odd one, where b(u, u) mod 2 is no invariant,
    still b(c, c) = 0 mod 1 iff 2 S(c) = 0 mod size.
    """
    mod = 2 * d.denominator
    out = []
    for p in factorize(d.denominator).primes():  # N = d_k: those of |G|
        idx = [i for i, di in enumerate(d.orders) if di % p == 0]
        strides = [_split(d.orders[i], p)[1] for i in idx]
        orders = [d.orders[i] // s for i, s in zip(idx, strides)]
        size = orders[-1] * (2 if p == 2 else 1)
        w = mod // size
        link2 = [[2 * s * t * d.link[i][j] % mod // w
                  for j, t in zip(idx, strides)] for i, s in zip(idx, strides)]
        quad = [s * s * d.quad[i] % mod // w if p == 2
                else link2[t][t] * (size + 1) // 2 % size
                for t, (i, s) in enumerate(zip(idx, strides))]
        out.append((p, idx, orders, size, quad, link2))
    return out


def find_metabolizer(d: DiscriminantForm, bound: int = DEFAULT_GROUP_BOUND):
    """Search for a subgroup H with |H|^2 = |G| and vanishing linking form.

    Returns a generator list (possibly empty, for the trivial group), or
    None when no metabolizer exists.  |G| must not exceed ``bound``.

    Distinct prime-primary components of G link to zero against each other,
    so H decomposes as a direct sum of per-prime metabolizers; each
    component's is the lex-first one, found in one pass over its isotropic
    elements in lexicographic order, so a component without one costs one
    pass, not an exhaustive search.
    """
    g_order = d.group_order()
    if g_order > bound:
        raise GroupTooLargeError(f"|G| = {g_order} exceeds bound {bound}")
    if math.isqrt(g_order) ** 2 != g_order:
        return None
    combined = []
    for _, idx, orders, size, quad, link2 in _primary_components(d):
        part = _component_metabolizer(quad, link2, orders, size)
        if part is None:
            return None
        for c in part:  # back to Smith coordinates, x_i = c_i d_i / p^e_i
            x = [0] * len(d.orders)
            for i, ci, o in zip(idx, c, orders):
                x[i] = ci * (d.orders[i] // o)
            combined.append(tuple(x))
    return combined


# ---------------------------------------------------------------------------
# Gauss sums


class GaussSumValue(namedtuple("GaussSumValue", "denominator terms")):
    """Sum over the discriminant group of e^(pi i b(u,u)), held exactly.

    ``terms`` holds (r, count) for the residues r mod 2N that occur, r
    increasing; the value is sum count zeta^r, zeta = e^(pi i / N), with
    N the int ``denominator``.  Like every record it is just its fields;
    :func:`gauss_sum_matches` says whether it is the Gauss sum of a form.
    """

    __slots__ = ()

    def total_count(self) -> int:
        return sum(map(itemgetter(1), self.terms))

    def approx(self) -> complex:
        return _approx(self.denominator, self.terms)


def gauss_sum(f: IntegerSymmetricForm,
              enum_bound: int = DEFAULT_DET_BOUND) -> GaussSumValue:
    """The Gauss sum sum_u e^(pi i b(u,u)) over the discriminant group.

    Requires an even form (the exponent is only coset-invariant mod 2 then)
    and |det| <= enum_bound.  The terms are read from the dense table of
    :func:`_gauss_table` by :func:`_terms`; the table's check stays there,
    and :func:`gauss_sum_matches` rebuilds it from f.
    """
    n, table, _, _ = _gauss_table(f, enum_bound)
    # A list first: tuple() of an iterator with no length resizes as it
    # grows, and each resize puts it back in the GC's youngest generation.
    return GaussSumValue(denominator=n, terms=tuple(list(_terms(n, table))))


def _gauss_table(f, enum_bound):
    """(N, table, check, shared) of the Gauss sum of f: table[x] counts the
    u with N b(u,u) = x 2N / len(table) mod 2N, check is whether the sum is
    sqrt|det| e^(2 pi i sigma / 8), Milgram's formula, and shared is the
    count of every nonzero entry after index 0 when they all have one,
    read from the group, else None.

    G is the orthogonal sum of its p-primary components G_p, and
    b(u + v, u + v) = b(u, u) + b(v, v) mod 2 for u, v in different
    components.  So each G_p gives one table of counts of S(c) and a
    phase k, its sum being sqrt|G_p| e^(2 pi i k / 8): both in closed form
    by :func:`_homogeneous_counts` when p is odd and the cyclic orders of
    G_p are all equal, which covers every cyclic G_p and every X + X or
    X + (-X) of a cyclic X; otherwise, for p = 2 and for mixed orders such
    as (3, 9), by :func:`_walk` over every element and the exact Milgram
    check :func:`_component_phase` (None if there is no such k).  The
    component tables merge into one by :func:`_merge`; the check is that
    the k sum to sigma mod 8 and the counts to |det|, so no phase leaves.

    shared is set when G = (Z/p)^k, p odd, is one component with k = 1 or
    k even, where table is the count of S(c) = t over F_p for a
    nondegenerate S (Lidl and Niederreiter, Finite Fields, Theorems 6.26
    and 6.27): for k = 1 a nonzero t has 0 or 2 solutions, and for even k
    every nonzero t has the same count, p^(k-1) -+ p^(k/2-1).  For odd
    k >= 3 the squares and the non-squares have different counts.
    """
    if not is_even(f):
        raise NotEvenError("Gauss sums require an even form")
    adet = abs(determinant(f))
    if adet > enum_bound:
        raise DeterminantTooLargeError(
            f"|det| = {adet} exceeds enumeration bound {enum_bound}")
    d = discriminant_form(f)
    table = [1]
    phase = 0
    components = _primary_components(d)
    for p, _, orders, size, quad, link2 in components:
        e = _split(math.prod(orders), p)[0]
        if orders[0] == size:  # odd p, all orders equal
            counts, k = _homogeneous_counts(quad, link2, p, e // len(orders))
        else:
            hist = Counter()
            _walk(quad, link2, orders, size, hist.update)
            counts = [hist.get(x, 0) for x in range(size)]
            k = _component_phase(counts, p, e)
        phase = None if phase is None or k is None else (phase + k) % 8
        table = _merge(table, counts) if len(table) > 1 else counts
    shared = None
    if len(components) == 1 and size == p:  # (Z/p)^rank, p odd
        rank = len(orders)
        if rank == 1 or rank % 2 == 0:
            shared = 2 if rank == 1 else table[1]
    sig = signature_from_minors(f.minors)
    return (d.denominator, table, phase == sig % 8 and sum(table) == adet,
            shared)


# Decimal digits of an offset in a slice: the terms are cut at r = K 10^D.
_DIGITS = 3


@functools.lru_cache(maxsize=4)
def _offsets(step, digits):
    """The decimals of the offsets 0, step, 2 step, ... below 10^digits:
    plain (r in slice 0) and zero-padded to ``digits`` (after str(K))."""
    offs = range(0, 10 ** digits, step)
    return tuple(map(str, offs)), tuple(f"{x:0{digits}d}" for x in offs)


def _term_texts(n, table, shared=None):
    """The terms "[r1, c1], [r2, c2], ..." of the nonzero entries of a dense
    table over denominator n, r increasing, one string per slice r in
    [K 10^D, (K + 1) 10^D) that holds a term.  step = 2n / len(table) is 2
    for odd n and 1 for even n (the p = 2 table has length 2^(a+1) for N's
    2^a), so a slice is 10^D / step entries, each r is str(K) and then an
    offset padded to D digits (unpadded for K = 0), and each count's
    ", c], [K" is made once per slice: no int per entry, no % per term.
    ``shared``, the count of every nonzero entry after index 0 if there is
    one (see :func:`_gauss_table`), makes each slice K >= 1 one join of its
    offsets around the one separator ", c], [K"."""
    step = 2 * n // len(table)
    width = 10 ** _DIGITS // step
    plain, padded = _offsets(step, _DIGITS)
    for k, start in enumerate(range(0, len(table), width)):
        part = table[start:start + width]
        head = "[%d" % k if k else "["
        if k and shared:
            text = (", %d], %s" % (shared, head)).join(
                itertools.compress(padded, part))
            if text:
                yield head + text + ", %d]" % shared
            continue
        counts = list(filter(None, part))
        if counts:
            mid = {c: ", %d], %s" % (c, head) for c in set(counts)}
            flat = counts * 2
            flat[::2] = itertools.compress(padded if k else plain, part)
            flat[1::2] = map(mid.get, counts)
            yield head + "".join(flat)[:-2 - len(head)]


def _terms(n, table):
    """The (r, count) terms of a dense table over n, r increasing."""
    step = 2 * n // len(table)
    return zip(itertools.compress(range(0, 2 * n, step), table),
               filter(None, table))


def _approx(n, terms):
    """sum count e^(pi i r / n) over the (r, count) pairs ``terms``."""
    import cmath
    return sum(c * cmath.exp(1j * math.pi * r / n) for r, c in terms)


def _walk(quad, link2, orders, mod, leaf):
    """Call ``leaf`` with the values S(c) = sum_i c_i (c_i quad_i + lin_i)
    mod ``mod``, lin_i = sum_(j<i) c_j link2_ji, of the c in
    ``itertools.product(*map(range, orders))``, in that order: one list for
    each choice of every coordinate but the last.  Depth-first, carrying the
    value so far and the lin of the factors still to come, so each step adds
    one term per later factor rather than a k x k sum per element.
    """
    last = len(orders) - 1

    def descend(i, base, lins):
        q, row, lin = quad[i], link2[i], lins[0]
        xs = range(orders[i])
        values = [(base + x * (x * q + lin)) % mod for x in xs]
        if i == last:
            leaf(values)
            return
        for x, value in zip(xs, values):
            descend(i + 1, value,
                    [(y + x * row[j]) % mod
                     for j, y in enumerate(lins[1:], i + 1)])

    descend(0, 0, [0] * len(orders))


def _homogeneous_counts(quad, link2, p, a):
    """(counts, phase) of a p-primary component's table, p odd, whose k
    orders all equal p^a, in closed form: the counts of S(c) mod p^a,
    and the j mod 8 with sum_u e^(pi i b(u,u)) = p^(ka/2) e^(2 pi i j / 8).

    S(c) is the quadratic form c^T A c over Z/p^a, A_ii = quad_i and
    A_ij = link2_ij 2^-1, and A is invertible mod p since the linking form
    is nondegenerate.  The number of solutions of S(c) = t therefore
    depends only on p, a, k and eta, the Legendre symbol of det A mod p.
    Over F_p it is
    (Lidl and Niederreiter, Finite Fields, Theorems 6.26 and 6.27)
    F(t) = p^(k-1) + p^((k-1)/2) eta((-1)^((k-1)/2) t det A) for odd k and
    F(t) = p^(k-1) + nu(t) p^((k-2)/2) eta((-1)^(k/2) det A) for even k,
    nu(0) = p - 1 and nu(t) = -1 otherwise.  Hensel lifting gives the count
    N_e(t) over Z/p^e, N_0 = 1: a solution mod p with c != 0 mod p lifts to
    p^(k-1) solutions per step, and c = p c' solves p^2 S(c') = t.  So
    N_e(t) = p^((e-1)(k-1)) F(t mod p) for p not dividing t, and otherwise
    p^((e-1)(k-1)) (F(0) - 1) + [e = 1] + [e >= 2, p^2 | t] p^k N_(e-2)(t/p^2).
    The table is built by that recursion: one row of F values repeated over
    the units, one count over the other multiples of p, and the table of
    N_(e-2) over the multiples of p^2, in O(p^a) steps rather than the
    walk's p^(ka) / 2.
    """
    k = len(quad)
    half = (p + 1) // 2  # 2^-1 mod p; only det A mod p is needed
    table = [[quad[i] % p if i == j else link2[i][j] * half % p
              for j in range(k)] for i in range(k)]
    eta = 1 if _euler(_eliminate(table)[-1], p) else -1
    # h = p^((k-1)/2) eta((-1)^((k-1)/2) det A) for odd k, and
    # p^((k-2)/2) eta((-1)^(k/2) det A) for even k; eta(-1) = -1 iff p = 3 mod 4
    m = k // 2
    h = eta * (-1 if p % 4 == 3 and m % 2 else 1) * p ** (m - 1 + k % 2)
    top = p ** (k - 1)
    zero, square, nonsquare = ((top, top + h, top - h) if k % 2
                               else (top + (p - 1) * h, top - h, top - h))

    def counts(e, add, mul):
        """add + mul N_e(t) for t mod p^e: the F-row, its 0 set to the common
        count of the multiples of p, repeated, and the multiples of p^2
        overwritten by N_(e-2) of t / p^2 in the same affine form."""
        if e == 0:
            return [add + mul]
        scale = mul * p ** ((e - 1) * (k - 1))
        value, other = add + scale * square, add + scale * nonsquare
        row = [other] * p
        if value != other:
            for x in range(1, (p + 1) // 2):
                row[x * x % p] = value
        row[0] = base = add + scale * (zero - 1) + mul * (e == 1)
        row *= p ** (e - 1)
        if e >= 2:
            row[::p * p] = counts(e - 2, base, mul * p ** k)
        return row

    # With A ~ <u_1, ..., u_k>, the sum is prod_i G(u_i, p^a): p^(a/2) for
    # even a, (u_i/p) eps_p p^(a/2) for odd a, eps_p = 1 or i as p = 1 or 3
    # mod 4 (Ireland and Rosen, ch. 6); and prod_i (u_i/p) = eta.
    phase = ((eta < 0) * 4 + (p % 4 == 3) * 2 * k) % 8 if a % 2 else 0
    return counts(a, 0, 1), phase


def _merge(a, b):
    """The dense table of r + s for r, s from dense tables of coprime lengths;
    with a the shorter (m <= n), x of a and y of b land at n x + m y mod m n
    (CRT), so b scaled by a[x] and rotated by n x // m fills out[n x % m::m]."""
    a, b = sorted((a, b), key=len)
    m, n = len(a), len(b)
    out = [0] * (m * n)
    scaled = {1: b}
    for x, c in enumerate(a):
        if c:
            row = scaled.get(c) or scaled.setdefault(c, [c * y for y in b])
            s = n - n * x // m % n
            out[n * x % m::m] = row[s:] + row[:s]
    return out


def _component_phase(table, p, e):
    """The k mod 8 with sum_x table[x] zeta^x = sqrt(p^e) e^(2 pi i k / 8),
    zeta = e^(2 pi i / R), for the dense table (length R = size) of a
    component of order p^e; None when the sum has no such form.  Run on
    walked components, and in tests as the oracle for closed-form phases.

    Exact, by one rule for every prime.  For p = 2, R is widened to 8 first
    so that zeta_8 lies in Z[zeta_R].  The only relations among the powers
    of zeta_R are the sums zeta_R^x (1 + zeta_p + ... + zeta_p^(p-1)),
    zeta_p = zeta_R^(R/p), so a table is zero in Z[zeta_R] iff it equals its
    rotation by R/p.  The candidates (Milnor-Husemoller, Symmetric Bilinear
    Forms, ch. IV) are m = p^(e//2) times a few table entries:
    - odd p: +-1 at index 0 for even e; for odd e, +-g_p = +-sum_t
      zeta_p^(t^2) at the p indices t^2 R/p, where g_p is sqrt(p) (k = 0)
      for p = 1 mod 4 and i sqrt(p) (k = 2) for p = 3 mod 4, and -g_p adds 4;
    - p = 2: zeta_8^k at index k R/8 for even e, and sqrt 2 zeta_8^k =
      zeta_8^(k+1) + zeta_8^(k+7) for odd e, k = 0 ... 7.
    The sum is a candidate iff the table minus it equals its rotation.
    """
    if len(table) < 8 and p == 2:
        wide = [0] * 8
        wide[::8 // len(table)] = table
        table = wide
    size = len(table)
    r, m = size // p, p ** (e // 2)
    if p == 2:  # (k, coefficient, indices)
        w, js = size // 8, (1, 7) if e % 2 else (0,)
        candidates = [(k, m, [(k + j) % 8 * w for j in js]) for k in range(8)]
    else:
        at = [t * t % p * r for t in range(p)] if e % 2 else [0]
        k = 2 if e % 2 and p % 4 == 3 else 0
        candidates = [(k, m, at), (k + 4, -m, at)]
    for k, c, at in candidates:
        diff = list(table)
        for x in at:
            diff[x] -= c
        if diff == diff[r:] + diff[:r]:
            return k
    return None


def gauss_sum_check(f: IntegerSymmetricForm,
                    enum_bound: int = DEFAULT_DET_BOUND) -> bool:
    """Does the Gauss sum equal sqrt|det| * e^(2 pi i sigma / 8)?  The
    exact check of :func:`_gauss_table`, under ``enum_bound``."""
    return _gauss_table(f, enum_bound)[2]


def gauss_sum_matches(f: IntegerSymmetricForm, g: GaussSumValue) -> bool:
    """Is ``g`` the Gauss sum of f, equal to sqrt|det| e^(2 pi i sigma/8)?

    Exact, and read from f and g's fields alone, whoever built g: f's table
    is rebuilt under the default bound, and g matches iff its check holds
    and g == (N, terms) of it.  So |det| > DEFAULT_DET_BOUND raises
    DeterminantTooLargeError even for ``gauss_sum(f, enum_bound=B)``;
    :func:`gauss_sum_check` takes a bound.  The terms are compared as they
    stream from the table, so f's terms are never held whole; as in a
    comparison of tuples, terms that are a list, or hold lists, do not match.
    """
    n, table, check, _ = _gauss_table(f, DEFAULT_DET_BOUND)
    denominator, terms = g
    return (check and denominator == n and isinstance(terms, tuple)
            and all(itertools.starmap(eq, itertools.zip_longest(
                terms, _terms(n, table), fillvalue=object()))))


# ---------------------------------------------------------------------------
# Overlattices and the main vanishing-implies-divisibility check


def overlattice_from_metabolizer(f: IntegerSymmetricForm,
                                 d: DiscriminantForm,
                                 gens) -> tuple[IntegerSymmetricForm, int]:
    """The lattice generated by L and metabolizer representatives.

    Returns (Gram matrix of the overlattice in its own basis, index [L1:L]).
    The linking form vanishes on the metabolizer, so the extended form is
    integral; for odd det it is even as well.
    """
    n = f.n
    # generator i is v_i / d_i, so every vector is integral when scaled by
    # the lcm of the d_i: (lcm / d_i) v_i, in Z
    denom = math.lcm(*d.orders)
    vecs = [[denom * (i == j) for j in range(n)] for i in range(n)]
    vecs += mat_mul(gens, [[denom // di * x for x in v]
                           for v, di in zip(d.columns, d.orders)])
    # With M the scaled rows, M^T V = W [diag(d) | 0] for unimodular V and
    # W, so the first n rows of V^T M are a basis of M's row lattice.
    _, v = smith_normal_form(transpose(vecs))
    basis = mat_mul(transpose(v)[:n], vecs)
    gram = mat_mul(mat_mul(basis, f.rows()), transpose(basis))
    sq = denom * denom
    if any(x % sq for row in gram for x in row):
        raise ArithmeticError("generators do not span an integral "
                              "overlattice; not a metabolizer")
    f1 = form_from_rows([[x // sq for x in row] for row in gram])
    index_sq, rest = divmod(abs(determinant(f)), abs(determinant(f1)))
    index = math.isqrt(index_sq)
    if rest or index * index != index_sq:
        raise ArithmeticError("overlattice index is not integral")
    return f1, index


class MainTheoremReport(namedtuple(
        "MainTheoremReport", "is_even det det_odd boundary_zero metabolizer "
        "signature signature_mod_8 theorem_applies conclusion_holds")):
    """Everything the signature-divisibility statement needs, in one place.

    theorem_applies = even form, odd determinant, vanishing residue at every
    prime; when it applies, the signature must be divisible by 8.  det,
    signature and signature_mod_8 are ints, metabolizer a tuple or None,
    the rest bools.
    """

    __slots__ = ()


def verify_main_theorem(f: IntegerSymmetricForm,
                        group_bound: int = DEFAULT_GROUP_BOUND) -> MainTheoremReport:
    """Assemble the hypothesis checks and the signature verdict for a form.

    The verdict is ``witt._decide`` on f's minors and their signature.  The
    metabolizer is searched for only when |det| <= ``group_bound`` and that
    verdict says every residue vanishes, as a metabolizer needs at any det;
    its absence never changes ``theorem_applies``.
    """
    even = is_even(f)
    det = f.minors[-1]
    sig = signature_from_minors(f.minors)
    boundary_zero, applies = _decide(f.minors, sig, even)
    metabolizer = _metabolizer(f, group_bound, boundary_zero=boundary_zero)
    return MainTheoremReport(
        is_even=even, det=det, det_odd=det % 2 != 0,
        boundary_zero=boundary_zero, metabolizer=metabolizer, signature=sig,
        signature_mod_8=sig % 8, theorem_applies=applies,
        conclusion_holds=sig % 8 == 0)
