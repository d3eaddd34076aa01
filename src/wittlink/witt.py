"""Witt classes of rational forms and their residues at primes.

A rational symmetric form, once diagonalized, is a multiset of nonzero
rationals <a_1> + ... + <a_k>.  Each entry is normalized to its square-free
integer representative (<a/b> = <ab>, and square factors drop out).  The
class is zero exactly when the signature vanishes and the residue map at
every prime lands on the zero class of the finite-field Witt group; this is
the complete decision procedure used throughout the library.

For an odd prime p the finite Witt class is canonicalized as the pair
(rank parity, square class of the signed discriminant (-1)^(r(r-1)/2)*det),
both of which are invariant under adding hyperbolic planes.  For p = 2 the
rank parity alone decides.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .errors import (CertificationBoundError, NotCoprimeError, NotPrimeError,
                     PrimeMismatchError, ZeroEntryError)
from .forms import IntegerSymmetricForm, signature_from_minors

_TRIAL_LIMIT = 10 ** 3
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the bases above is a proof of primality below this bound,
# psi_13, the least strong pseudoprime to the first 13 prime bases.  The
# first 12 do not reach it: psi_12 = 318665857834031151167461 passes them
# all (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_CERTIFIED_BELOW = 3_317_044_064_679_887_385_961_981
# Pollard rho's step budget on one composite, in evaluations of y^2 + c,
# about 7 s at 0.9 us a step (2-core VM, CPython 3.11):
# 10000000000037 * 10001000000003 takes 4352128 steps, 2.6 s.
_RHO_STEPS = 1 << 23


class PrimeFactorization(namedtuple("PrimeFactorization", "factors")):
    """Complete factorization of a magnitude: ordered (prime, exponent) pairs."""

    __slots__ = ()

    def magnitude(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p ** e
        return out

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # a witness proves n composite at any size
    if n >= _MR_CERTIFIED_BELOW:  # no base refutes n, and none proves it
        raise CertificationBoundError(
            f"{n} exceeds the deterministic Miller-Rabin certification bound")
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n, within ``_RHO_STEPS``
    evaluations over all the polynomials y^2 + c tried.

    Brent's cycle search (Brent, BIT 20, 1980): y_i is compared with
    x = y_r for r < i <= 2r, r a power of 2.  The differences x - y_i are
    multiplied mod n, and one gcd serves each block of them, which ends at
    a multiple of 128 or at i = r, so x is fixed within a block.
    A block whose gcd is n is walked again from its start, one gcd a step.
    """
    left, c = _RHO_STEPS, 0
    while left:
        c += 1
        x = y = ys = 2
        q = r = 1
        for i in range(1, left + 1):
            y = (y * y + c) % n
            q = q * (x - y) % n
            if i == r or not i % 128:
                d = math.gcd(q, n)
                if d == n:
                    d = 1
                    while d == 1:
                        ys = (ys * ys + c) % n
                        d = math.gcd(x - ys, n)
                if d != 1:
                    if d != n:
                        return d
                    break
                ys = y
                if i == r:
                    x, r = y, 2 * r
        left -= i
    raise CertificationBoundError(
        f"{n} has no factor found within {_RHO_STEPS} Pollard rho steps")


@lru_cache(maxsize=4096)
def _factor_magnitude(n: int) -> tuple[tuple[int, int], ...]:
    out = {}
    d = 2
    while d <= _TRIAL_LIMIT and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f = _pollard_rho(m)
        stack.extend((f, m // f))
    return tuple(sorted(out.items()))


def factorize(n: int) -> PrimeFactorization:
    """Factor |n| completely; trial division then Pollard rho with certified
    Miller-Rabin primality on the remaining cofactors.  A cofactor neither
    proved prime nor split by rho raises CertificationBoundError."""
    if n == 0:
        raise ZeroEntryError("cannot factor 0")
    return PrimeFactorization(factors=_factor_magnitude(abs(n)))


def quadratic_residue(u: int, p: int) -> bool:
    """Euler criterion: is u a nonzero square modulo the odd prime p?"""
    if p == 2 or not is_prime(p):
        raise NotPrimeError(f"{p} is not an odd prime")
    return _euler(u, p)


def _euler(u: int, p: int) -> bool:
    """``quadratic_residue`` for an odd p already proved prime, as the
    primes of a factorization are, so Miller-Rabin does not run again."""
    if u % p == 0:
        raise NotCoprimeError(f"{u} is divisible by {p}")
    return pow(u, (p - 1) // 2, p) == 1


def _square_classes(pairs) -> tuple[tuple[int, ...], list[int]]:
    """Sorted square-free parts of the nonzero rationals x/y given as int
    pairs (x, y), and the primes that divide some part, with 2.  x/y is in
    the square class of x*y; divided by their gcd, x and y are coprime, so
    each is factored on its own, and the part is sign(x*y) times the primes
    of odd exponent in either.  This keeps each cofactor that must be
    proved prime as small as it can be."""
    parts, primes = [], {2}
    for x, y in pairs:
        if x == 0:
            raise ZeroEntryError("0 has no square class")
        g = math.gcd(x, y)
        odd = [p for n in (x // g, y // g)
               for p, e in _factor_magnitude(abs(n)) if e % 2]
        primes.update(odd)
        parts.append(math.prod(odd, start=-1 if (x < 0) != (y < 0) else 1))
    return tuple(sorted(parts)), sorted(primes)


def square_free_part(a) -> int:
    """The square-free integer in the square class of a, found as in
    ``_square_classes``, so <a> = <square_free_part(a)> in any Witt group
    of characteristic zero."""
    return _square_classes([(a.numerator, a.denominator)])[0][0]


class WittClassQ(namedtuple("WittClassQ", "entries")):
    """A rational Witt class as a sorted multiset of square-free integers.

    ``entries`` is a tuple of ints.  A zero entry is refused: it has no
    square class, and the residue maps could not take its valuation.
    """

    __slots__ = ()

    def __new__(cls, entries):
        if 0 in entries:
            raise ZeroEntryError("Witt class entries must be nonzero")
        return super().__new__(cls, entries)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: check it too
        return cls(*iterable)

    def signature(self) -> int:
        return sum(1 if e > 0 else -1 for e in self.entries)


def witt_from_diagonal(entries) -> WittClassQ:
    """Normalize a diagonal rational form into a Witt class (relation R2)."""
    return WittClassQ(entries=_square_classes(
        (a.numerator, a.denominator) for a in entries)[0])


def witt_sum(c1: WittClassQ, c2: WittClassQ) -> WittClassQ:
    return WittClassQ(entries=tuple(sorted(c1.entries + c2.entries)))


def witt_negate(c: WittClassQ) -> WittClassQ:
    # R1: -<a> = <-a>
    return WittClassQ(entries=tuple(sorted(-e for e in c.entries)))


def rational_witt_class(f: IntegerSymmetricForm) -> WittClassQ:
    """Witt class over Q of the diagonal D_k / D_(k-1) of f's minors."""
    m = f.minors
    return WittClassQ(entries=_square_classes(zip(m[1:], m))[0])


class FiniteWittClass(namedtuple("FiniteWittClass",
                                 "prime rank_parity disc_is_square")):
    """Canonical element of the Witt group of the prime field F_p.

    ``disc_is_square`` stores the square class of the signed discriminant
    (-1)^(r(r-1)/2) * det, a genuine Witt invariant; it is None for p = 2,
    where ``rank_parity``, 0 or 1, is a complete invariant.
    """

    __slots__ = ()

    @property
    def zero(self) -> bool:
        if self.prime == 2:
            return self.rank_parity == 0
        return self.rank_parity == 0 and bool(self.disc_is_square)


def finite_witt_zero(p: int) -> FiniteWittClass:
    return FiniteWittClass(prime=p, rank_parity=0,
                           disc_is_square=None if p == 2 else True)


def finite_witt_from_units(p: int, units) -> FiniteWittClass:
    """Class of the diagonal form <u_1,...,u_r> over F_p (units mod p)."""
    if p != 2 and not is_prime(p):
        raise NotPrimeError(f"{p} is not an odd prime")
    units = [u % p for u in units]
    if any(u == 0 for u in units):
        raise NotCoprimeError("diagonal units must be prime to p")
    return _finite_witt(p, units)


def _finite_witt(p: int, units) -> FiniteWittClass:
    """``finite_witt_from_units`` for a proved prime p and units already
    reduced mod p and nonzero."""
    r = len(units)
    if p == 2:
        return FiniteWittClass(prime=2, rank_parity=r % 2, disc_is_square=None)
    d = 1
    for u in units:
        d = d * u % p
    d = d * pow(-1, r * (r - 1) // 2, p) % p
    return FiniteWittClass(prime=p, rank_parity=r % 2,
                           disc_is_square=_euler(d, p))


def finite_witt_add(x: FiniteWittClass, y: FiniteWittClass) -> FiniteWittClass:
    if x.prime != y.prime:
        raise PrimeMismatchError(f"cannot add classes over F_{x.prime} and F_{y.prime}")
    p = x.prime
    parity = (x.rank_parity + y.rank_parity) % 2
    if p == 2:
        return FiniteWittClass(prime=2, rank_parity=parity, disc_is_square=None)
    # Signed discriminants multiply up to (-1)^(r1*r2), nontrivial only when
    # both ranks are odd and -1 is a nonsquare (p = 3 mod 4).
    same = x.disc_is_square == y.disc_is_square
    if x.rank_parity and y.rank_parity and p % 4 == 3:
        same = not same
    return FiniteWittClass(prime=p, rank_parity=parity, disc_is_square=same)


def finite_witt_is_zero(x: FiniteWittClass) -> bool:
    return x.zero


def _split(n: int, p: int) -> tuple[int, int]:
    """(v, u) with n = u * p^v and u prime to p; n must be nonzero."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def boundary_at_prime(c: WittClassQ, p: int) -> FiniteWittClass:
    """Residue map at p: an entry u*p^n contributes <u mod p> iff n is odd.

    Entries are rationals a/b * p^n with a, b prime to p; the contributed
    square class is that of a*b mod p.
    """
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    return _residue(c.entries, p)


def _residue(entries, p: int) -> FiniteWittClass:
    """``boundary_at_prime`` on the entries, for a p already proved prime."""
    units = []
    for e in entries:
        # int and Fraction both carry numerator and denominator
        vn, num = _split(e.numerator, p)
        vd, den = _split(e.denominator, p)
        if (vn - vd) % 2:
            units.append(num * den % p)
    return _finite_witt(p, units)


def relevant_primes(c: WittClassQ) -> list[int]:
    """Primes that can carry a nonzero residue: those of odd valuation in
    some entry; every other prime maps the class to zero.  2 is always
    included and computed rather than assumed."""
    return _square_classes((e.numerator, e.denominator) for e in c.entries)[1]


def boundary_is_zero(c: WittClassQ) -> bool:
    return all(_residue(c.entries, p).zero for p in relevant_primes(c))


def boundary_zero_from_minors(minors) -> bool:
    """Whether every residue of the form with leading minors ``minors``
    (``forms.pivot_minors``: 1, D_1, ..., D_n) vanishes.

    Equal to ``boundary_is_zero(rational_witt_class(f))``, but factors only
    sqrt|det|.  Entry k is in the square class of the integer D_k * D_(k-1),
    and the residue at p has rank parity v_p(det) mod 2, so a vanishing
    boundary needs |det| to be a square; at p = 2 the rank parity alone
    decides, so nothing more is needed there.  A form unimodular at p has
    zero residue at p (Milnor-Husemoller, Symmetric Bilinear Forms, ch. IV),
    so only the odd primes of sqrt|det| are tested.
    """
    adet = abs(minors[-1])
    root = math.isqrt(adet)
    if root * root != adet:
        return False
    entries = [a * b for a, b in zip(minors, minors[1:])]
    return all(_residue(entries, p).zero
               for p in factorize(root).primes() if p != 2)


def _decide(minors, even: bool) -> tuple[int, bool, bool]:
    """(signature, boundary_zero, theorem_applies) from a form's leading
    minors.  The theorem applies to an ``even`` form of odd det with zero
    boundary, and then a signature not 0 mod 8 raises ArithmeticError."""
    sig = signature_from_minors(minors)
    boundary_zero = boundary_zero_from_minors(minors)
    applies = even and minors[-1] % 2 != 0 and boundary_zero
    if applies and sig % 8:
        raise ArithmeticError(
            f"signature {sig} not divisible by 8 on a form satisfying the "
            "vanishing hypothesis; this contradicts a proved theorem")
    return sig, boundary_zero, applies


def witt_q_is_zero(c: WittClassQ) -> bool:
    """Zero in W(Q): signature zero and zero residue at every prime."""
    return c.signature() == 0 and boundary_is_zero(c)


def witt_q_equal(c1: WittClassQ, c2: WittClassQ) -> bool:
    return witt_q_is_zero(witt_sum(c1, witt_negate(c2)))
