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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (CertificationBoundError, NotCoprimeError, NotPrimeError,
                     PrimeMismatchError, ZeroEntryError)
from .forms import IntegerSymmetricForm

_TRIAL_LIMIT = 10 ** 6
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin with the bases above is a proof of primality below this bound.
_MR_CERTIFIED_BELOW = 3_317_044_064_679_887_385_961_981


@dataclass(frozen=True)
class PrimeFactorization:
    """Complete factorization of a magnitude: ordered (prime, exponent) pairs."""

    factors: tuple[tuple[int, int], ...]

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
    if n >= _MR_CERTIFIED_BELOW:
        raise CertificationBoundError(
            f"{n} exceeds the deterministic Miller-Rabin certification bound")
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
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")  # unreachable in practice


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
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f = _pollard_rho(m)
        stack.extend((f, m // f))
    return tuple(sorted(out.items()))


def factorize(n: int) -> PrimeFactorization:
    """Factor |n| completely; trial division then Pollard rho with certified
    Miller-Rabin primality on the remaining cofactors."""
    if n == 0:
        raise ZeroEntryError("cannot factor 0")
    return PrimeFactorization(factors=_factor_magnitude(abs(n)))


def quadratic_residue(u: int, p: int) -> bool:
    """Euler criterion: is u a nonzero square modulo the odd prime p?"""
    if p == 2 or not is_prime(p):
        raise NotPrimeError(f"{p} is not an odd prime")
    if u % p == 0:
        raise NotCoprimeError(f"{u} is divisible by {p}")
    return pow(u, (p - 1) // 2, p) == 1


def square_free_part(a) -> int:
    """The square-free integer representative of the square class of a.

    For a = x/y this is sign(a) times the product of the primes dividing
    x*y with odd multiplicity, so <a> = <square_free_part(a)> in any Witt
    group of characteristic zero.
    """
    a = Fraction(a)
    if a == 0:
        raise ZeroEntryError("0 has no square class")
    v = a.numerator * a.denominator
    sign = -1 if v < 0 else 1
    out = 1
    for p, e in _factor_magnitude(abs(v)):
        if e % 2:
            out *= p
    return sign * out


@dataclass(frozen=True)
class WittClassQ:
    """A rational Witt class as a sorted multiset of square-free integers.

    A zero entry is refused: it has no square class, and the residue maps
    could not take its valuation.
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        if 0 in self.entries:
            raise ZeroEntryError("Witt class entries must be nonzero")

    def signature(self) -> int:
        return sum(1 if e > 0 else -1 for e in self.entries)


def witt_from_diagonal(entries) -> WittClassQ:
    """Normalize a diagonal rational form into a Witt class (relation R2)."""
    normalized = []
    for a in entries:
        if Fraction(a) == 0:
            raise ZeroEntryError("diagonal Witt entries must be nonzero")
        normalized.append(square_free_part(a))
    return WittClassQ(entries=tuple(sorted(normalized)))


def witt_sum(c1: WittClassQ, c2: WittClassQ) -> WittClassQ:
    return WittClassQ(entries=tuple(sorted(c1.entries + c2.entries)))


def witt_negate(c: WittClassQ) -> WittClassQ:
    # R1: -<a> = <-a>
    return WittClassQ(entries=tuple(sorted(-e for e in c.entries)))


def rational_witt_class(f: IntegerSymmetricForm) -> WittClassQ:
    """Witt class over Q of the diagonal D_k / D_(k-1) of f's minors."""
    m = f.minors
    return witt_from_diagonal(Fraction(b, a) for a, b in zip(m, m[1:]))


@dataclass(frozen=True)
class FiniteWittClass:
    """Canonical element of the Witt group of the prime field F_p.

    ``disc_is_square`` stores the square class of the signed discriminant
    (-1)^(r(r-1)/2) * det, a genuine Witt invariant; it is None for p = 2,
    where the rank parity is a complete invariant.
    """

    prime: int
    rank_parity: int
    disc_is_square: bool | None

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
    units = [u % p for u in units]
    if any(u == 0 for u in units):
        raise NotCoprimeError("diagonal units must be prime to p")
    r = len(units)
    if p == 2:
        return FiniteWittClass(prime=2, rank_parity=r % 2, disc_is_square=None)
    d = 1
    for u in units:
        d = d * u % p
    d = d * pow(-1, r * (r - 1) // 2, p) % p
    return FiniteWittClass(prime=p, rank_parity=r % 2,
                           disc_is_square=quadratic_residue(d, p))


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
    units = []
    for e in entries:
        frac = Fraction(e)
        vn, num = _split(frac.numerator, p)
        vd, den = _split(frac.denominator, p)
        if (vn - vd) % 2:
            units.append(num * den % p)
    return finite_witt_from_units(p, units)


def relevant_primes(c: WittClassQ) -> list[int]:
    """Primes that can carry a nonzero residue: those dividing some entry.

    Entries are square-free, so any prime with odd valuation in some entry
    divides that entry; every other prime maps the class to zero.  2 is
    always included and computed rather than assumed.
    """
    primes = {2}
    for e in c.entries:
        if abs(e) > 1:
            primes.update(factorize(e).primes())
    return sorted(primes)


def boundary_is_zero(c: WittClassQ) -> bool:
    return all(boundary_at_prime(c, p).zero for p in relevant_primes(c))


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


def witt_q_is_zero(c: WittClassQ) -> bool:
    """Zero in W(Q): signature zero and zero residue at every prime."""
    return c.signature() == 0 and boundary_is_zero(c)


def witt_q_equal(c1: WittClassQ, c2: WittClassQ) -> bool:
    return witt_q_is_zero(witt_sum(c1, witt_negate(c2)))
