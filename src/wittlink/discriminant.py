"""Discriminant groups, linking forms, metabolizers and exact Gauss sums.

The discriminant group of a nondegenerate integer form B is the finite
abelian quotient of the dual lattice by the lattice; it carries a Q/Z-valued
linking form and, for even B, the Q/2Z-valued coset invariant b(u,u) mod 2
that the Gauss sum exponentiates.  Everything is exact: the group structure
comes from an integer Smith normal form, the Gauss sum is stored as a
multiset of roots of unity, and the signature identity
sqrt|det| * e^(2 pi i sigma/8) is checked either in a cyclotomic ring
(square determinant) or numerically (otherwise).
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ._mat import identity, mat_mul, mat_vec, transpose
from .errors import (DeterminantTooLargeError, GroupTooLargeError,
                     LengthMismatchError, NotEvenError)
from .forms import (IntegerSymmetricForm, determinant, form_from_rows, is_even,
                    signature_from_minors)
from .witt import boundary_zero_from_minors, factorize

DEFAULT_GROUP_BOUND = 10 ** 4
DEFAULT_DET_BOUND = 10 ** 6


# ---------------------------------------------------------------------------
# Integer matrix normal forms


def smith_normal_form(rows):
    """U * M * V = D with U, V unimodular and D = diag(d_1 | d_2 | ...).

    Pivot choice: the smallest nonzero absolute value of the remaining
    block, scanned row-major, which keeps entry growth modest and the
    output deterministic.  Diagonal entries are normalized positive.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    u = identity(nr)
    v = identity(nc)

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        m[dst] = [a + q * b for a, b in zip(m[dst], m[src])]
        u[dst] = [a + q * b for a, b in zip(u[dst], u[src])]

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
                    swap_rows(t, piv[0])
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
            u[t] = [-x for x in u[t]]
    d = [m[i][i] for i in range(min(nr, nc))]
    return u, d, v


def hermite_basis(rows):
    """A triangular basis of the integer row lattice spanned by ``rows``.

    Column-by-column gcd elimination; the input must have full column rank.
    """
    work = [list(r) for r in rows if any(r)]
    nc = len(rows[0])
    basis = []
    col = 0
    while col < nc and work:
        work.sort(key=lambda r: (r[col] == 0, abs(r[col])))
        if work[0][col] == 0:
            col += 1
            continue
        while True:
            nonzero = [r for r in work[1:] if r[col] != 0]
            if not nonzero:
                break
            piv = work[0]
            for r in work[1:]:
                if r[col] != 0:
                    q = r[col] // piv[col]
                    for j in range(nc):
                        r[j] -= q * piv[j]
            work.sort(key=lambda r: (r[col] == 0, abs(r[col])))
        row = work.pop(0)
        if next(x for x in row if x) < 0:
            row = [-x for x in row]
        basis.append(row)
        work = [r for r in work if any(r)]
        col += 1
    return basis


# ---------------------------------------------------------------------------
# Discriminant form


@dataclass(frozen=True)
class DiscriminantForm:
    """The finite quotient (dual lattice)/(lattice) with its linking data.

    orders      cyclic orders (d_1 | d_2 | ... | d_k, all > 1)
    linking     k x k symmetric matrix of Fractions in [0,1), values mod Z
    quad_diag   b(g_i, g_i) mod 2Z in [0,2) (meaningful for even forms)
    generators  representatives of the g_i as rational vectors in the
                source lattice basis
    """

    orders: tuple[int, ...]
    linking: tuple[tuple[Fraction, ...], ...]
    quad_diag: tuple[Fraction, ...]
    generators: tuple[tuple[Fraction, ...], ...]

    def group_order(self) -> int:
        return math.prod(self.orders)

    def elements(self):
        """All coefficient tuples, lexicographically ordered."""
        return itertools.product(*(range(d) for d in self.orders))


def discriminant_form(f: IntegerSymmetricForm) -> DiscriminantForm:
    """Compute the discriminant group and linking form of a valid form.

    The cokernel of the Gram matrix B is read off the Smith normal form
    U B V = D; the generator of the i-th cyclic factor lifts to column i of
    B^-1 U^-1 = V D^-1, that is column i of V divided by d_i, a rational
    vector in the dual lattice.  Unit factors are dropped.
    """
    b = f.rows()
    _, d, v = smith_normal_form(b)
    orders = [d[i] for i in range(f.n) if d[i] != 1]
    cols = [[v[r][i] for r in range(f.n)] for i in range(f.n) if d[i] != 1]
    gens = [tuple(Fraction(x, di) for x in col) for col, di in zip(cols, orders)]
    k = len(orders)
    linking = [[Fraction(0)] * k for _ in range(k)]
    quad = [Fraction(0)] * k
    for i in range(k):
        bi = mat_vec(b, cols[i])
        for j in range(i, k):
            val = Fraction(sum(x * y for x, y in zip(bi, cols[j])),
                           orders[i] * orders[j])
            linking[i][j] = linking[j][i] = val % 1
            if j == i:
                quad[i] = val % 2
    return DiscriminantForm(orders=tuple(orders),
                            linking=tuple(tuple(r) for r in linking),
                            quad_diag=tuple(quad),
                            generators=tuple(gens))


def linking_value(d: DiscriminantForm, x, y) -> Fraction:
    """The linking form on coefficient vectors, as a Fraction in [0,1)."""
    k = len(d.orders)
    if len(x) != k or len(y) != k:
        raise LengthMismatchError(f"coefficient vectors must have length {k}")
    total = Fraction(0)
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj:
                total += xi * yj * d.linking[i][j]
    return total % 1


def linking_is_nondegenerate(d: DiscriminantForm) -> bool:
    """Brute-force kernel check: only the zero element links trivially
    with every generator."""
    k = len(d.orders)
    zero = (0,) * k
    for x in d.elements():
        if x == zero:
            continue
        if all(linking_value(d, x, _basis(k, j)) == 0 for j in range(k)):
            return False
    return True


def _basis(k, j):
    return tuple(1 if i == j else 0 for i in range(k))


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


def _component_metabolizer(d, elements, target, depth_cap):
    """Lex-first totally-isotropic subgroup of order ``target`` among the
    given elements (one prime-primary component), or None."""
    isotropic = [x for x in elements if any(x) and linking_value(d, x, x) == 0]
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
            if any(linking_value(d, g, x) != 0 for g in gens):
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
    k = len(d.orders)
    primes = factorize(g_order).primes()
    combined = []
    for p in primes:
        exps = []
        for di in d.orders:
            e = 0
            while di % p == 0:
                di //= p
                e += 1
            exps.append(e)
        total = sum(exps)
        # |G| being a square makes every p-exponent even
        target = p ** (total // 2)
        if target == 1:
            continue
        # the p-primary component: multiples of (d_i / p^{e_i}) * e_i
        strides = [d.orders[i] // p ** exps[i] for i in range(k)]
        elements = []
        for coeffs in itertools.product(*(range(p ** e) for e in exps)):
            elements.append(tuple((c * s) % di for c, s, di
                                  in zip(coeffs, strides, d.orders)))
        depth_cap = sum(1 for e in exps if e)
        part = _component_metabolizer(d, elements, target, depth_cap)
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
    """

    denominator: int
    terms: tuple[tuple[int, int], ...]

    def total_count(self) -> int:
        return sum(c for _, c in self.terms)

    def approx(self) -> complex:
        n = self.denominator
        return sum(c * cmath.exp(1j * math.pi * r / n) for r, c in self.terms)


def _coset_tables(d: DiscriminantForm):
    """Integer tables (N, quad, link) with quad[i] = N*quad_diag[i] and
    link[i][j] = N*linking[i][j]."""
    n = 1
    for q in d.quad_diag:
        n = n * q.denominator // math.gcd(n, q.denominator)
    for row in d.linking:
        for x in row:
            n = n * x.denominator // math.gcd(n, x.denominator)
    quad = [int(q * n) for q in d.quad_diag]
    link = [[int(x * n) for x in row] for row in d.linking]
    return n, quad, link


def gauss_sum(f: IntegerSymmetricForm, enum_bound: int = DEFAULT_DET_BOUND,
              jobs: int = 1) -> GaussSumValue:
    """Enumerate the discriminant group and accumulate e^(pi i b(u,u)).

    Requires an even form (the exponent is only coset-invariant mod 2 then)
    and |det| <= enum_bound.  ``jobs`` is accepted and ignored: the
    enumeration runs in one process.

    The Smith orders form a divisor chain, so the last factor d_k is the
    largest.  For u = (c', t) with t the coefficient on that factor,
    N b(u,u) = base(c') + t (lin(c') + t quad_k) mod 2N, so the loop runs
    over the first k - 1 coefficients and walks t through range(d_k).
    A unimodular form counts its one element as the factor of order 1.
    """
    if not is_even(f):
        raise NotEvenError("Gauss sums require an even form")
    adet = abs(determinant(f))
    if adet > enum_bound:
        raise DeterminantTooLargeError(
            f"|det| = {adet} exceeds enumeration bound {enum_bound}")
    d = discriminant_form(f)
    n, quad, link = _coset_tables(d)
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
    return GaussSumValue(denominator=n, terms=tuple(sorted(counts.items())))


@lru_cache(maxsize=256)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial.

    Built from Phi_rad(n) via the Moebius product over the squarefree
    divisors, then inflated by x -> x^(n/rad); exact integer arithmetic.
    """
    if n == 1:
        return (-1, 1)
    primes = factorize(n).primes()
    rad = math.prod(primes)
    poly = [1]
    divide = []
    for bits in range(1 << len(primes)):
        dd = 1
        mu = 1
        for i, p in enumerate(primes):
            if bits >> i & 1:
                dd *= p
                mu = -mu
        if mu == 1:
            poly = _mul_x_pow_minus_1(poly, rad // dd)
        else:
            divide.append(rad // dd)
    for k in divide:
        poly = _div_x_pow_minus_1(poly, k)
    inflate = n // rad
    if inflate > 1:
        out = [0] * ((len(poly) - 1) * inflate + 1)
        for i, c in enumerate(poly):
            out[i * inflate] = c
        poly = out
    return tuple(poly)


def _mul_x_pow_minus_1(a, k):
    out = [0] * (len(a) + k)
    for i, c in enumerate(a):
        out[i + k] += c
        out[i] -= c
    return out


def _div_x_pow_minus_1(a, k):
    qlen = len(a) - k
    q = [0] * qlen
    for i in range(qlen):
        q[i] = (q[i - k] if i >= k else 0) - a[i]
    for i in range(qlen, len(a)):
        if a[i] != (q[i - k] if 0 <= i - k < qlen else 0):
            raise ArithmeticError("inexact cyclotomic division")
    return q


def _reduce_mod_cyclotomic(coeffs: dict, n: int) -> tuple[int, ...]:
    """Canonical representative of an integer combination of n-th roots of
    unity: the remainder modulo Phi_n, as a coefficient tuple."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    top = max(coeffs) if coeffs else 0
    work = [0] * (max(top, deg) + 1)
    for e, c in coeffs.items():
        work[e % n] += c
    lower = [(j, pc) for j, pc in enumerate(phi[:-1]) if pc]
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            work[i] = 0
            for j, pc in lower:
                work[i - deg + j] -= c * pc
    return tuple(work[:deg])


def gauss_sum_check(f: IntegerSymmetricForm,
                    enum_bound: int = DEFAULT_DET_BOUND,
                    jobs: int = 1) -> bool:
    """Does the computed Gauss sum equal sqrt|det| * e^(2 pi i sigma / 8)?"""
    return gauss_sum_matches(f, gauss_sum(f, enum_bound=enum_bound, jobs=jobs))


def gauss_sum_matches(f: IntegerSymmetricForm, g: GaussSumValue) -> bool:
    """Does ``g``, the Gauss sum of f, equal sqrt|det| * e^(2 pi i sigma / 8)?

    When |det| is a perfect square m^2 both sides live in a cyclotomic ring
    and the comparison is exact (canonical reduction there); otherwise both
    sides are evaluated numerically, the sum by ``_fsum_value``, and
    compared at absolute tolerance 1e-9.
    """
    minors = f.minors
    sig = signature_from_minors(minors)
    adet = abs(minors[-1])
    m = math.isqrt(adet)
    if m * m == adet:
        two_n = 2 * g.denominator
        order = math.lcm(8, two_n)
        coeffs = {}
        for r, c in g.terms:
            e = r * (order // two_n)
            coeffs[e] = coeffs.get(e, 0) + c
        e_rhs = (order // 8) * (sig % 8)
        coeffs[e_rhs] = coeffs.get(e_rhs, 0) - m
        return not any(_reduce_mod_cyclotomic(coeffs, order))
    predicted = math.sqrt(adet) * cmath.exp(2j * math.pi * sig / 8)
    return abs(_fsum_value(g) - predicted) < 1e-9


def _fsum_value(g: GaussSumValue) -> complex:
    """sum c * e^(pi i r / N) with each r reduced exactly into (-N, N] and
    the real and imaginary parts summed by ``math.fsum``: the naive sum
    drifts by more than 1e-9 at |det| near 10^6."""
    n = g.denominator

    def angle(r):
        return math.pi * (r - 2 * n if r > n else r) / n

    return complex(math.fsum(c * math.cos(angle(r)) for r, c in g.terms),
                   math.fsum(c * math.sin(angle(r)) for r, c in g.terms))


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
    vecs = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for g in gens:
        vec = [Fraction(0)] * n
        for coeff, gen in zip(g, d.generators):
            for i in range(n):
                vec[i] += coeff * gen[i]
        vecs.append(vec)
    denom = 1
    for row in vecs:
        for x in row:
            denom = denom * x.denominator // math.gcd(denom, x.denominator)
    int_rows = [[int(x * denom) for x in row] for row in vecs]
    basis = [[Fraction(x, denom) for x in row] for row in hermite_basis(int_rows)]
    gram = mat_mul(mat_mul(basis, f.rows()), transpose(basis))
    rows = []
    for row in gram:
        out = []
        for x in row:
            if x.denominator != 1:
                raise ArithmeticError("generators do not span an integral "
                                      "overlattice; not a metabolizer")
            out.append(int(x))
        rows.append(out)
    f1 = form_from_rows(rows)
    index_sq = Fraction(abs(determinant(f)), abs(determinant(f1)))
    index = math.isqrt(int(index_sq))
    if index * index != index_sq:
        raise ArithmeticError("overlattice index is not integral")
    return f1, index


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
    if applies and not holds:
        raise ArithmeticError(
            f"signature {sig} not divisible by 8 on a form satisfying the "
            "vanishing hypothesis; this contradicts a proved theorem")
    return MainTheoremReport(is_even=even, det=det, det_odd=det_odd,
                             boundary_zero=boundary_zero,
                             metabolizer=metabolizer, signature=sig,
                             signature_mod_8=sig % 8,
                             theorem_applies=applies,
                             conclusion_holds=holds)
