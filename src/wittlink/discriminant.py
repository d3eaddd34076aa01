"""Discriminant groups, linking forms, metabolizers and exact Gauss sums.

The discriminant group of a nondegenerate integer form B is the finite
abelian quotient of the dual lattice by the lattice; it carries a Q/Z-valued
linking form and, for even B, the Q/2Z-valued coset invariant b(u,u) mod 2
that the Gauss sum exponentiates.  Everything is exact: one integer Smith
normal form B V = W D, with V kept and W never formed, gives the group
structure (generators are the columns of V D^-1), the basis of the
overlattice that a metabolizer spans, and nondegeneracy of a linking form
(from the invariant factors of one 2k x k table); the linking data is held
once, as integers mod N and mod 2N over one denominator N, and both the
Gauss sum and the metabolizer search read it; the Gauss sum is stored as a
multiset of roots of unity, merged from one histogram per prime component,
in closed form for an odd component whose cyclic orders are all equal and
otherwise from one lexicographic walk, which the metabolizer search
shares; and the signature identity sqrt|det| * e^(2 pi i sigma/8) is
checked per prime component: from a Legendre symbol in closed form, and
on a walked component by one routine for odd p and p = 2, in the
cyclotomic ring that holds the component's sum.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter, not_

from ._mat import identity, mat_mul, mat_vec, transpose
from .errors import (DeterminantTooLargeError, GroupTooLargeError,
                     LengthMismatchError, NotEvenError)
from .forms import (IntegerSymmetricForm, _eliminate, determinant,
                    form_from_rows, is_even, signature_from_minors)
from .witt import (_split, boundary_zero_from_minors, factorize,
                   quadratic_residue)

DEFAULT_GROUP_BOUND = 10 ** 4
DEFAULT_DET_BOUND = 10 ** 6


# ---------------------------------------------------------------------------
# Integer matrix normal forms


def smith_normal_form(rows):
    """(d, V) with M * V = W * D for unimodular V and W, where D is the
    diagonal d_1 | d_2 | ... padded with zeros to the shape of M.

    Pivot: the smallest nonzero |entry| of the remaining block, the first
    in row-major order; rows are reduced before columns, a row holding an
    entry the pivot misses is added to row t, and rows are negated to make
    d positive.  V is kept as rows under M, so a column operation updates
    both in one pass, and W is never formed.  A unit pivot ends its step.
    """
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    m = [list(r) for r in rows] + identity(nc)
    for t in range(min(nr, nc)):
        while True:
            best = 0
            for i in range(t, nr):
                for j, x in enumerate(m[i][t:], t):
                    if x and (not best or abs(x) < best):
                        best, pi, pj = abs(x), i, j
            if not best:
                break
            m[t], m[pi] = m[pi], m[t]
            if pj != t:
                for row in m:
                    row[t], row[pj] = row[pj], row[t]
            p = m[t][t]
            for i in range(t + 1, nr):
                if m[i][t]:
                    q = m[i][t] // p
                    m[i] = [a - q * b for a, b in zip(m[i], m[t])]
            for j in range(t + 1, nc):
                if m[t][j]:
                    q = m[t][j] // p
                    for row in m:
                        row[j] -= q * row[t]
            if any(m[i][t] for i in range(t + 1, nr)) or any(m[t][t + 1:]):
                continue
            if best == 1:
                break
            # Row and column are clear; fold in a row with an entry the
            # pivot misses so the divisibility chain d_t | d_{t+1} holds.
            i = next((i for i in range(t + 1, nr)
                      if any(x % p for x in m[i][t + 1:])), None)
            if i is None:
                break
            m[t] = [a + b for a, b in zip(m[t], m[i])]
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
    return [m[i][i] for i in range(min(nr, nc))], m[nr:]


# ---------------------------------------------------------------------------
# Discriminant form


@dataclass(frozen=True)
class DiscriminantForm:
    """The finite quotient (dual lattice)/(lattice) with its linking data.

    The linking data is held once, as integers over one denominator N; the
    Gauss sum and the metabolizer search both read these tables.

    orders       cyclic orders (d_1 | d_2 | ... | d_k, all > 1)
    denominator  N, the least common denominator of the b(g_i, g_j)
    link         k x k symmetric ints N b(g_i, g_j) mod N
    quad         ints N b(g_i, g_i) mod 2N (meaningful for even forms)
    generators   representatives of the g_i as rational vectors in the
                 source lattice basis
    """

    orders: tuple[int, ...]
    denominator: int
    link: tuple[tuple[int, ...], ...]
    quad: tuple[int, ...]
    generators: tuple[tuple[Fraction, ...], ...]

    @property
    def linking(self) -> tuple[tuple[Fraction, ...], ...]:
        """b(g_i, g_j) mod Z as Fractions in [0,1)."""
        return tuple(tuple(Fraction(x, self.denominator) for x in row)
                     for row in self.link)

    @property
    def quad_diag(self) -> tuple[Fraction, ...]:
        """b(g_i, g_i) mod 2Z as Fractions in [0,2)."""
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
    """
    b = f.rows()
    d, v = smith_normal_form(b)
    orders = [d[i] for i in range(f.n) if d[i] != 1]
    cols = [[v[r][i] for r in range(f.n)] for i in range(f.n) if d[i] != 1]
    gens = [tuple(Fraction(x, di) for x in col) for col, di in zip(cols, orders)]
    k = len(orders)
    s = [[0] * k for _ in range(k)]
    n = 1
    for i in range(k):
        bi = mat_vec(b, cols[i])
        for j in range(i, k):
            s[i][j] = s[j][i] = sum(x * y for x, y in zip(bi, cols[j]))
            den = orders[i] * orders[j]
            n = math.lcm(n, den // math.gcd(s[i][j], den))
    link = [[s[i][j] * n // (orders[i] * orders[j]) % n for j in range(k)]
            for i in range(k)]
    quad = [s[i][i] * n // orders[i] ** 2 % (2 * n) for i in range(k)]
    return DiscriminantForm(orders=tuple(orders), denominator=n,
                            link=tuple(map(tuple, link)), quad=tuple(quad),
                            generators=tuple(gens))


def _link_sum(d: DiscriminantForm, x, y) -> int:
    """N b(x, y) mod N for coefficient vectors x and y."""
    ys = [(j, yj) for j, yj in enumerate(y) if yj]
    return sum(xi * yj * row[j] for xi, row in zip(x, d.link) if xi
               for j, yj in ys) % d.denominator


def linking_value(d: DiscriminantForm, x, y) -> Fraction:
    """The linking form on coefficient vectors, as a Fraction in [0,1)."""
    k = len(d.orders)
    if len(x) != k or len(y) != k:
        raise LengthMismatchError(f"coefficient vectors must have length {k}")
    return Fraction(_link_sum(d, x, y), d.denominator)


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


def _add_elem(x, y, orders):
    return tuple((a + b) % d for a, b, d in zip(x, y, orders))


def _subgroup_closure(base, gen, orders):
    """The subgroup generated by ``base`` (already a subgroup) and ``gen``."""
    out = set(base)
    current = gen
    while not all(c == 0 for c in current):
        out.update(_add_elem(s, current, orders) for s in base)
        current = _add_elem(current, gen, orders)
    return frozenset(out)


def _isotropic_elements(d, p, exps, strides):
    """The nonzero x of one p-primary component with N b(x, x) = 0 mod N,
    in the lexicographic order of their coefficients c, x_i = c_i strides_i.

    N b(x, x) comes from :func:`_walk` over the values x_i, on quad, which
    is link_ii mod N.
    """
    coords = [[c * s % di for c in range(p ** e)]
              for e, s, di in zip(exps, strides, d.orders)]
    values = []
    _walk(d.quad, d.link, coords, d.denominator, values.extend)
    isotropic = itertools.compress(itertools.product(*coords),
                                   map(not_, values))
    return list(itertools.islice(isotropic, 1, None))  # 0 comes first


def _component_metabolizer(d, isotropic, target, depth_cap):
    """Lex-first totally-isotropic subgroup of order ``target`` generated
    by the given isotropic elements (one prime-primary component), or
    None."""
    seen = set()

    def extend(gens, closure, start):
        if len(closure) == target:
            return list(gens)
        if len(gens) == depth_cap:
            return None
        for idx in range(start, len(isotropic)):
            x = isotropic[idx]
            if x in closure:
                continue
            if any(_link_sum(d, g, x) for g in gens):
                continue
            new_closure = _subgroup_closure(closure, x, d.orders)
            if len(new_closure) > target or target % len(new_closure):
                continue
            if new_closure in seen:
                continue
            seen.add(new_closure)
            hit = extend(gens + [x], new_closure, idx + 1)
            if hit is not None:
                return hit
        return None

    zero = frozenset({(0,) * len(d.orders)})
    return extend([], zero, 0)


def metabolizer_may_exist(f: IntegerSymmetricForm, bound: int) -> bool:
    """Whether the discriminant group G of f is within ``bound`` and could
    have a metabolizer: |G| = |det| is a square and, when it is odd, the
    residues vanish (an odd linking form is metabolic iff Witt-zero)."""
    adet = abs(f.minors[-1])
    return (adet <= bound and math.isqrt(adet) ** 2 == adet
            and (adet % 2 == 0 or boundary_zero_from_minors(f.minors)))


def _primary_components(orders):
    """(p, exps, strides) for each prime p dividing |G|, in increasing order.

    exps[i] = v_p(d_i) and strides[i] = d_i / p^exps[i]: the p-primary
    component is generated by the strides[i] * g_i, of orders p^exps[i].
    """
    out = []
    for p in factorize(math.prod(orders)).primes():
        exps, strides = zip(*(_split(di, p) for di in orders))
        out.append((p, exps, strides))
    return out


def find_metabolizer(d: DiscriminantForm, bound: int = DEFAULT_GROUP_BOUND):
    """Search for a subgroup H with |H|^2 = |G| and vanishing linking form.

    Returns a generator list (possibly empty, for the trivial group), or
    None when no metabolizer exists.  |G| must not exceed ``bound``.

    Distinct prime-primary components of G link to zero against each other,
    so H decomposes as a direct sum of per-prime metabolizers; each
    component is searched independently, with candidate generator tuples
    tried in increasing lexicographic order (first hit returned), keeping
    the output deterministic and the enumeration tractable.
    """
    g_order = d.group_order()
    if g_order > bound:
        raise GroupTooLargeError(f"|G| = {g_order} exceeds bound {bound}")
    m = math.isqrt(g_order)
    if m * m != g_order:
        return None
    if m == 1:
        return []
    combined = []
    for p, exps, strides in _primary_components(d.orders):
        total = sum(exps)
        # |G| being a square makes every p-exponent even
        target = p ** (total // 2)
        if target == 1:
            continue
        depth_cap = sum(1 for e in exps if e)
        part = _component_metabolizer(
            d, _isotropic_elements(d, p, exps, strides), target, depth_cap)
        if part is None:
            return None
        combined.extend(part)
    return combined


# ---------------------------------------------------------------------------
# Gauss sums


@dataclass(frozen=True)
class GaussSumValue:
    """Sum over the discriminant group of e^(pi i b(u,u)), held exactly.

    ``terms`` maps a residue r mod 2N to its multiplicity; the value is
    sum_r terms[r] * zeta^r with zeta the primitive 2N-th root e^(pi i / N).
    ``phase`` is the k mod 8 for which the value is
    sqrt(total_count()) * e^(2 pi i k / 8), computed exactly by
    :func:`gauss_sum`; it is None on a hand-built value and when some walked
    prime component fails the check.  Equality ignores it.
    """

    denominator: int
    terms: tuple[tuple[int, int], ...]
    phase: int | None = field(default=None, compare=False)

    def total_count(self) -> int:
        return sum(map(itemgetter(1), self.terms))

    def approx(self) -> complex:
        n = self.denominator
        return sum(c * cmath.exp(1j * math.pi * r / n) for r, c in self.terms)


def gauss_sum(f: IntegerSymmetricForm,
              enum_bound: int = DEFAULT_DET_BOUND) -> GaussSumValue:
    """The Gauss sum sum_u e^(pi i b(u,u)) over the discriminant group.

    Requires an even form (the exponent is only coset-invariant mod 2 then)
    and |det| <= enum_bound.

    G is the orthogonal sum of its p-primary components G_p, and
    b(u + v, u + v) = b(u, u) + b(v, v) mod 2 for u, v in different
    components.  So each G_p gives one histogram of N b(u,u) mod 2N and a
    phase k, its sum being sqrt|G_p| e^(2 pi i k / 8): both in closed form
    by :func:`_homogeneous_counts` when p is odd and the cyclic orders of
    G_p are all equal, which covers every cyclic G_p and every X + X or
    X + (-X) of a cyclic X; otherwise, for p = 2 and for mixed orders such
    as (3, 9), by :func:`_walk` over every element and the exact Milgram
    check :func:`_component_phase`.  The histograms are merged by residue
    addition mod 2N, smallest first, into ``terms``; the k add up to
    ``phase``.
    """
    if not is_even(f):
        raise NotEvenError("Gauss sums require an even form")
    adet = abs(determinant(f))
    if adet > enum_bound:
        raise DeterminantTooLargeError(
            f"|det| = {adet} exceeds enumeration bound {enum_bound}")
    d = discriminant_form(f)
    n, quad, link = d.denominator, d.quad, d.link
    mod = 2 * n
    hists = []
    phase = 0
    walked = False
    for p, exps, strides in _primary_components(d.orders):
        idx = [i for i, e in enumerate(exps) if e]
        a = exps[-1]
        tables = ([strides[i] ** 2 * quad[i] % mod for i in idx],
                  [[strides[i] * strides[j] * link[i][j] % mod for j in idx]
                   for i in idx])
        if p > 2 and exps[idx[0]] == a:
            counts, k = _homogeneous_counts(*tables, p, a, mod)
        else:
            counts = Counter()
            _walk(*tables, [range(p ** exps[i]) for i in idx], mod,
                  counts.update)
            k = _component_phase(counts, p, sum(exps), a, mod)
            walked = True
        phase = None if phase is None or k is None else (phase + k) % 8
        hists.append(counts)
    # A lone closed-form histogram is built in key order, so its items are
    # ``terms`` as they stand; a walked or merged one is sorted first.
    in_order = len(hists) < 2 and not walked
    hists.sort(key=len, reverse=True)
    merged = hists.pop() if hists else {0: 1}
    while hists:
        merged = _convolve(merged, hists.pop(), mod)
    if in_order:
        terms = tuple(merged.items())
    else:
        keys = sorted(merged)
        terms = tuple(zip(keys, map(merged.__getitem__, keys)))
    return GaussSumValue(denominator=n, terms=terms, phase=phase)


def _walk(quad, link, coords, mod, leaf):
    """Call ``leaf`` with the values sum_i x_i (x_i quad_i + lin_i) mod
    ``mod``, lin_i = 2 sum_(j<i) x_j link_ji, of the x in
    ``itertools.product(*coords)``, in that order: one list for each choice
    of every coordinate but the last.

    With x_i = c_i in the integer tables of a component this is N b(u,u)
    mod 2N.  A depth-first walk over the factors carries the value so far
    and the lin of the factors still to come, so each step adds one term
    per later factor rather than a k x k sum per element.
    """
    last = len(coords) - 1

    def descend(i, base, lins):
        q, row, lin = quad[i], link[i], lins[0]
        values = [(base + x * (x * q + lin)) % mod for x in coords[i]]
        if i == last:
            leaf(values)
            return
        for x, value in zip(coords[i], values):
            descend(i + 1, value,
                    [(y + 2 * x * row[j]) % mod
                     for j, y in enumerate(lins[1:], i + 1)])

    descend(0, 0, [0] * len(coords))


def _homogeneous_counts(quad, link, p, a, mod):
    """(histogram, phase) of a p-primary component, p odd, whose k orders
    all equal p^a, in closed form: {N b(u,u) mod 2N: count}, keys in
    increasing order, and the j mod 8 with sum_u e^(pi i b(u,u)) =
    p^(ka/2) e^(2 pi i j / 8).

    With w = 2N / p^a, S(u) = N b(u,u) / w mod p^a is the quadratic form
    c^T A c over Z/p^a, A_ii = quad_i / w and A_ij = (2 link_ij / w) 2^-1,
    and A is invertible mod p since the linking form is nondegenerate.  The
    number of solutions of S(c) = t therefore depends only on p, a, k and
    eta, the Legendre symbol of det A mod p.  Over F_p it is
    (Lidl and Niederreiter, Finite Fields, Theorems 6.26 and 6.27)
    F(t) = p^(k-1) + p^((k-1)/2) eta((-1)^((k-1)/2) t det A) for odd k and
    F(t) = p^(k-1) + nu(t) p^((k-2)/2) eta((-1)^(k/2) det A) for even k,
    nu(0) = p - 1 and nu(t) = -1 otherwise.  Hensel lifting gives the count
    N_e(t) over Z/p^e, N_0 = 1: a solution mod p with c != 0 mod p lifts to
    p^(k-1) solutions per step, and c = p c' solves p^2 S(c') = t.  So
    N_e(t) = p^((e-1)(k-1)) F(t mod p) for p not dividing t, and otherwise
    p^((e-1)(k-1)) (F(0) - 1) + [e = 1] + [e >= 2, p^2 | t] p^k N_(e-2)(t/p^2).
    The count of t = p^v u, u a unit, depends on v and on whether u mod p
    is a square, so the histogram is filled one valuation at a time, in
    O(p^a) steps rather than the walk's p^(ka) / 2.
    """
    size = p ** a
    w = mod // size
    k = len(quad)
    half = (p + 1) // 2  # 2^-1 mod p; only det A mod p is needed
    table = [[quad[i] // w % p if i == j else 2 * link[i][j] // w * half % p
              for j in range(k)] for i in range(k)]
    eta = 1 if quadratic_residue(_eliminate(table)[-1], p) else -1
    # h = p^((k-1)/2) eta((-1)^((k-1)/2) det A) for odd k, and
    # p^((k-2)/2) eta((-1)^(k/2) det A) for even k; eta(-1) = -1 iff p = 3 mod 4
    m = k // 2
    h = eta * (-1 if p % 4 == 3 and m % 2 else 1) * p ** (m - 1 + k % 2)
    top = p ** (k - 1)
    zero, square, nonsquare = ((top, top + h, top - h) if k % 2
                               else (top + (p - 1) * h, top - h, top - h))

    def lifted(e, v, unit):
        """N_e(t) for t = p^v times a unit whose F value is ``unit``; t = 0
        mod p^e when v >= e."""
        if e == 0:
            return 1
        scale = p ** ((e - 1) * (k - 1))
        if v == 0:
            return scale * unit
        n = scale * (zero - 1) + (e == 1)
        if e >= 2 and v >= 2:
            n += p ** k * lifted(e - 2, v - 2, unit)
        return n

    counts = [0] * size
    for v in range(a):
        # the counts of t = p^v u by u mod p; u = 0 mod p is overwritten by
        # the next valuation, and t = 0 last
        value, other = lifted(a, v, square), lifted(a, v, nonsquare)
        row = [other] * p
        if value != other:
            for x in range(1, (p + 1) // 2):
                row[x * x % p] = value
        counts[::p ** v] = row * p ** (a - v - 1)
    counts[0] = lifted(a, a, None)
    # With A ~ <u_1, ..., u_k>, the sum is prod_i G(u_i, p^a): p^(a/2) for
    # even a, (u_i/p) eps_p p^(a/2) for odd a, eps_p = 1 or i as p = 1 or 3
    # mod 4 (Ireland and Rosen, ch. 6); and prod_i (u_i/p) = eta.
    phase = ((eta < 0) * 4 + (p % 4 == 3) * 2 * k) % 8 if a % 2 else 0
    return dict(zip(itertools.compress(range(0, mod, w), counts),
                    filter(None, counts))), phase


def _convolve(a, b, mod):
    """The histogram of r + s mod ``mod`` for r, s drawn from a and b.

    The residues of distinct prime components lie in subgroups of Z/mod of
    coprime orders, so no two sums collide.
    """
    return {(ra + rb) % mod: ca * cb
            for ra, ca in a.items() for rb, cb in b.items()}


def _component_phase(counts, p, e, a, mod):
    """The k mod 8 with sum_r counts[r] zeta^r = sqrt(p^e) e^(2 pi i k / 8),
    zeta = e^(2 pi i / mod), for a p-primary component of order p^e and
    exponent p^a; None when the sum has no such form.  Run on walked
    components, and in tests as the oracle for closed-form phases.

    Exact: each e^(pi i b(u,u)) is an R-th root of unity, R = p^a for odd p
    and R = 2^(a+1) for p = 2, taken at least 8 so that zeta_8 lies in
    Z[zeta_R].  The only relations among the powers of zeta_R are the sums
    zeta_R^x (1 + zeta_p + ... + zeta_p^(p-1)), with zeta_p = zeta_R^(R/p),
    so a vector of counts is zero in Z[zeta_R] iff it is constant on each
    class x + (R/p)Z.  The candidates m = p^(e//2) times
    - +-1 or, for odd e, +-g_p = +-sum_t zeta_p^(t^2), which is sqrt(p) for
      p = 1 mod 4 and i sqrt(p) for p = 3 mod 4 (odd p), or
    - zeta_8^k or, for odd e, sqrt 2 zeta_8^k = zeta_8^(k+1) + zeta_8^(k+7)
      (p = 2)
    live on the multiples of w = R/p (odd p) or w = R/8 (p = 2).  So every
    other class must be constant in ``counts`` itself, and the coefficients
    u[j] on the multiples j w are compared with each candidate's.  For odd
    p, the sum minus s g_p (s = +-m) is constant K iff u[0] = K + s,
    u[i] = K + 2s on the (p-1)/2 nonzero squares i and u[i] = K on the
    others; the sum minus s is constant iff u[i] = u[1] for every i != 0.
    For p = 2 the classes on the multiples of w are {j, j + 4}, and a sum
    is a candidate iff it has the candidate's u[j] - u[j+4], j < 4.
    """
    size = p ** a if p > 2 else max(2 ** (a + 1), 8)
    w = size // (p if p > 2 else 8)
    g = math.gcd(mod, size)
    step, scale = mod // g, size // g
    shift = size // p // scale * step
    u = [0] * (size // w)
    for r, c in counts.items():
        x, rest = divmod(r, step)
        if rest:
            return None
        j, off = divmod(x * scale, w)
        if not off:
            u[j] = c
        elif counts.get((r + shift) % mod) != c:
            return None
    m = p ** (e // 2)
    if p == 2:
        for k in range(8):
            want = [0] * 8
            for t in ([k] if e % 2 == 0 else [k + 1, k + 7]):
                want[t % 8] = m
            if all(u[j] - u[j + 4] == want[j] - want[j + 4] for j in range(4)):
                return k
        return None
    if e % 2 == 0:
        s = u[0] - u[1]
        ok = u.count(u[1]) == p - 1
    else:
        s, half = u[1] - u[0], (p - 1) // 2
        square = u[1]
        ok = (u.count(square) == half and u.count(u[0] - s) == half
              and all(u[t * t % p] == square for t in range(2, half + 1)))
    if not ok or abs(s) != m:
        return None
    k = 0 if s > 0 else 4
    return k + 2 if e % 2 and p % 4 == 3 else k


def gauss_sum_check(f: IntegerSymmetricForm,
                    enum_bound: int = DEFAULT_DET_BOUND) -> bool:
    """Does the computed Gauss sum equal sqrt|det| * e^(2 pi i sigma / 8)?"""
    return gauss_sum_matches(f, gauss_sum(f, enum_bound=enum_bound))


def gauss_sum_matches(f: IntegerSymmetricForm, g: GaussSumValue) -> bool:
    """Does ``g``, the Gauss sum of f, equal sqrt|det| * e^(2 pi i sigma / 8)?

    Exact, with no floating point.  A value from :func:`gauss_sum` carries
    its certified phase k and matches when k = sigma mod 8 and its group
    order total_count() is |det|.  A hand-built value (phase None) matches
    when :func:`gauss_sum` computes the same denominator and terms for f,
    with default bound, and that value matches.
    """
    if g.phase is None:
        computed = gauss_sum(f)
        if computed != g:
            return False
        g = computed
    minors = f.minors
    return (g.phase == signature_from_minors(minors) % 8
            and g.total_count() == abs(minors[-1]))


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
    # generator i has denominator d_i, so every vector is integral when
    # scaled by their lcm
    denom = math.lcm(*d.orders)
    vecs = [[denom * (i == j) for j in range(n)] for i in range(n)]
    vecs += [[int(denom * sum(c * gen[i] for c, gen in zip(g, d.generators)))
              for i in range(n)] for g in gens]
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


def _check_theorem(applies: bool, sig: int) -> None:
    """Raise ArithmeticError when a form meeting the vanishing hypothesis
    has signature ``sig`` not divisible by 8, which the theorem rules out."""
    if applies and sig % 8:
        raise ArithmeticError(
            f"signature {sig} not divisible by 8 on a form satisfying the "
            "vanishing hypothesis; this contradicts a proved theorem")


@dataclass(frozen=True)
class MainTheoremReport:
    """Everything the signature-divisibility statement needs, in one place.

    theorem_applies = even form, odd determinant, vanishing residue at every
    prime; when it applies, the signature must be divisible by 8.
    """

    is_even: bool
    det: int
    det_odd: bool
    boundary_zero: bool
    metabolizer: tuple | None
    signature: int
    signature_mod_8: int
    theorem_applies: bool
    conclusion_holds: bool


def verify_main_theorem(f: IntegerSymmetricForm,
                        group_bound: int = DEFAULT_GROUP_BOUND) -> MainTheoremReport:
    """Assemble the hypothesis checks and the signature verdict for a form.

    det, signature and the residue test read the minors that validated f.
    The metabolizer is searched for only when :func:`metabolizer_may_exist`;
    its absence never changes ``theorem_applies``, which rests on residues.
    """
    even = is_even(f)
    det = f.minors[-1]
    det_odd = det % 2 != 0
    boundary_zero = boundary_zero_from_minors(f.minors)
    sig = signature_from_minors(f.minors)
    metabolizer = None
    if metabolizer_may_exist(f, group_bound):
        found = find_metabolizer(discriminant_form(f), bound=group_bound)
        metabolizer = tuple(found) if found is not None else None
    applies = even and det_odd and boundary_zero
    holds = sig % 8 == 0
    _check_theorem(applies, sig)
    return MainTheoremReport(is_even=even, det=det, det_odd=det_odd,
                             boundary_zero=boundary_zero,
                             metabolizer=metabolizer, signature=sig,
                             signature_mod_8=sig % 8,
                             theorem_applies=applies,
                             conclusion_holds=holds)
