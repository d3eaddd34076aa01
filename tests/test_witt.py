import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import (NINE_ONE_SYM, pretzel_window, random_mixed_even_rows,
                      reference_square_free_part, witt_zero_bruteforce)
from wittlink import (WittClassQ, boundary_at_prime, boundary_is_zero,
                      boundary_zero_from_minors, factorize,
                      finite_witt_add, finite_witt_from_units,
                      finite_witt_is_zero, finite_witt_zero, form_from_rows,
                      is_prime, pivot_minors, quadratic_residue,
                      rational_witt_class, relevant_primes,
                      square_free_part, witt_from_diagonal, witt_negate,
                      witt_q_equal, witt_q_is_zero, witt_sum)
from wittlink.errors import (NotCoprimeError, NotPrimeError,
                             PrimeMismatchError, ZeroEntryError)

NINE_ONE_DIAGONAL = [Fraction(-(k + 2), k + 1) for k in range(8)]


def test_witt_from_diagonal_examples():
    assert witt_from_diagonal([8]).entries == (2,)
    assert witt_from_diagonal([Fraction(-3, 2)]).entries == (-6,)
    c = witt_from_diagonal(NINE_ONE_DIAGONAL)
    assert sorted(c.entries) == sorted([-2, -6, -3, -5, -30, -42, -14, -2])
    with pytest.raises(ZeroEntryError):
        witt_from_diagonal([2, 0])


def test_witt_class_refuses_a_zero_entry():
    """A zero entry has no valuation, so the residue maps would never end
    on it.  Each call runs in a child process under a timeout, which fails
    the test, rather than the suite hanging, if the class is accepted."""
    src = Path(__file__).resolve().parents[1] / "src"
    for call in ("boundary_at_prime(WittClassQ((0, 3)), 3)",
                 "boundary_is_zero(WittClassQ((0,)))"):
        code = ("import sys\n"
                "from wittlink import WittClassQ, boundary_at_prime, "
                "boundary_is_zero\n"
                "from wittlink.errors import ZeroEntryError\n"
                f"try:\n    {call}\n"
                "except ZeroEntryError:\n    sys.exit(0)\n"
                "sys.exit(1)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=10,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, (call, proc.stderr)
    with pytest.raises(ZeroEntryError):
        WittClassQ(entries=(Fraction(0), 3))


def test_boundary_at_prime_nine_one():
    c = witt_from_diagonal(NINE_ONE_DIAGONAL)
    for p in (3, 5, 7):
        assert boundary_at_prime(c, p).zero
    assert boundary_at_prime(c, 2).zero
    assert boundary_at_prime(c, 11).zero


def test_boundary_even_valuation():
    assert boundary_at_prime(witt_from_diagonal([9]), 3).zero
    assert boundary_at_prime(WittNine := witt_from_diagonal([Fraction(1, 9)]), 3).zero
    with pytest.raises(NotPrimeError):
        boundary_at_prime(witt_from_diagonal([3]), 6)


def test_boundary_respects_unnormalized_input():
    # <a/b * p^n> contributes <ab mod p> exactly when n is odd
    raw = WittClassQ(entries=(Fraction(-3, 2), Fraction(27, 5)))
    k = boundary_at_prime(raw, 3)
    # -3/2 has valuation 1 (unit -1/2 -> class of -2); 27/5 valuation 3 (unit 1/5 -> 5)
    expect = finite_witt_from_units(3, [-2 % 3, 5 % 3])
    assert k == expect


def test_finite_witt_add_examples():
    one_f5 = finite_witt_from_units(5, [1])
    minus_f5 = finite_witt_from_units(5, [-1])
    assert finite_witt_add(one_f5, minus_f5).zero

    one_f3 = finite_witt_from_units(3, [1])
    two = finite_witt_add(one_f3, one_f3)
    assert not two.zero
    # brute force: x^2 + y^2 = 0 mod 3 has no nonzero solution
    sols = [(x, y) for x in range(3) for y in range(3)
            if (x * x + y * y) % 3 == 0 and (x, y) != (0, 0)]
    assert sols == []

    four = finite_witt_add(two, two)
    assert four.zero  # <1> has order 4 in W(F_3)

    with pytest.raises(PrimeMismatchError):
        finite_witt_add(one_f3, one_f5)


def test_finite_witt_is_zero_examples():
    assert finite_witt_is_zero(finite_witt_zero(7))
    assert finite_witt_is_zero(finite_witt_from_units(7, [1, -1]))
    f5 = finite_witt_from_units(5, [1, 1])
    assert finite_witt_is_zero(f5)
    assert (1 * 1 + 1 * 2 * 2) % 5 == 0  # isotropic vector (1,2)


def test_finite_witt_against_bruteforce_oracle():
    for p in (2, 3, 5, 7):
        units = {1} if p == 2 else {1, next(u for u in range(2, p)
                                            if pow(u, (p - 1) // 2, p) != 1)}
        import itertools
        for rank in range(0, 4):
            for combo in itertools.combinations_with_replacement(sorted(units), rank):
                cls = finite_witt_from_units(p, combo)
                assert cls.zero == witt_zero_bruteforce(list(combo), p), (p, combo)


def test_quadratic_residue():
    assert quadratic_residue(2, 7)
    assert quadratic_residue(1, 11)
    assert not quadratic_residue(3, 7)
    assert {u for u in range(1, 7) if quadratic_residue(u, 7)} == {1, 2, 4}
    with pytest.raises(NotCoprimeError):
        quadratic_residue(14, 7)
    with pytest.raises(NotPrimeError):
        quadratic_residue(2, 9)


def test_residue_does_not_prove_its_prime_again(monkeypatch):
    """``_residue`` serves primes that come out of a proved factorization,
    so it, and ``boundary_is_zero`` through it, answer by Euler's criterion
    with no Miller-Rabin run; the public entry points still refuse a
    composite."""
    from wittlink import witt

    c = rational_witt_class(form_from_rows(NINE_ONE_SYM))
    entries = c.entries + (Fraction(-7, 3), 5 * 7 ** 3, Fraction(11, 49))
    primes = relevant_primes(WittClassQ(entries=entries))
    want = [boundary_at_prime(WittClassQ(entries=entries), p) for p in primes]
    zero = boundary_is_zero(WittClassQ(entries=entries))

    def refuse(n):
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(witt, "is_prime", refuse)
    assert [witt._residue(entries, p) for p in primes] == want
    assert boundary_is_zero(WittClassQ(entries=entries)) == zero
    assert len(primes) > 2
    monkeypatch.undo()
    with pytest.raises(NotPrimeError):
        finite_witt_from_units(9, [2])
    with pytest.raises(NotPrimeError):
        finite_witt_from_units(15, [])
    with pytest.raises(NotCoprimeError):
        finite_witt_from_units(7, [14])


@pytest.mark.parametrize("p", (0, 1))
def test_finite_witt_from_units_checks_p_first(p):
    """p is refused before the units are reduced mod p: at 0 that would
    divide by zero, and mod 1 every unit is 0."""
    with pytest.raises(NotPrimeError):
        finite_witt_from_units(p, [1])


def test_factorize():
    assert factorize(81).factors == ((3, 4),)
    assert factorize(1).factors == ()
    assert factorize(-1).factors == ()
    n = 1000003 * 998117
    f = factorize(n)
    assert f.factors == ((998117, 1), (1000003, 1))
    assert f.magnitude() == n
    with pytest.raises(ZeroEntryError):
        factorize(0)


def test_factorize_past_trial_division():
    """Cofactors above the trial-division limit go to Pollard rho: two
    distinct primes, a square and three primes, all above 10^6."""
    from wittlink.witt import _TRIAL_LIMIT, _pollard_rho
    p, q, r = 1000003, 1000033, 1000117
    assert min(p, q, r) > _TRIAL_LIMIT
    assert _pollard_rho(p * q) in (p, q)
    assert factorize(p * q).factors == ((p, 1), (q, 1))
    assert factorize(p * p).factors == ((p, 2),)
    assert factorize(p * q * r).factors == ((p, 1), (q, 1), (r, 1))


def test_trial_division_proves_the_cofactor_it_stops_below(monkeypatch):
    """Trial division that stops at d^2 > n has divided out every prime
    below d, so the cofactor n > 1 is prime and Miller-Rabin is not run
    on it: 997 in 2 * 3 * 997, 613 in 613 * 13 * 236."""
    from wittlink import witt

    def refuse(n):
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(witt, "is_prime", refuse)
    witt._factor_magnitude.cache_clear()
    assert witt._factor_magnitude(2 * 3 * 997) == ((2, 1), (3, 1), (997, 1))
    assert witt._factor_magnitude(613 * 13 * 236) == (
        (2, 2), (13, 1), (59, 1), (613, 1))
    monkeypatch.undo()
    witt._factor_magnitude.cache_clear()


def test_rho_tries_the_next_polynomial_when_a_block_ends_at_n():
    """On 703 = 19 * 37 and on 25, y^2 + 1 ends a block with gcd n and its
    one-step walk again reaches n, so rho moves on to y^2 + 2, which
    splits both."""
    from wittlink.witt import _pollard_rho
    assert _pollard_rho(703) in (19, 37)
    assert _pollard_rho(25) == 5


def test_rho_budget_ends_in_certification_bound(monkeypatch):
    """Pollard rho counts its steps over every polynomial it tries; once
    ``_RHO_STEPS`` are used up, a composite it has not split is refused with
    certification_bound, and with the default budget it splits."""
    from wittlink import witt
    from wittlink.errors import CertificationBoundError
    n = 1000003 * 1000033
    monkeypatch.setattr(witt, "_RHO_STEPS", 10)
    witt._factor_magnitude.cache_clear()
    with pytest.raises(CertificationBoundError, match=str(n)):
        factorize(n)
    monkeypatch.undo()
    witt._factor_magnitude.cache_clear()
    assert factorize(n).factors == ((1000003, 1), (1000033, 1))


def test_factorize_agrees_with_sympy(rng):
    """factorize equals sympy.factorint on seeded products of two or three
    primes, each below about 10^4 or above 10^6, and on one product above
    the Miller-Rabin certification bound.  The high primes are drawn above
    10^6 whatever the trial-division limit, so they always reach rho."""
    sympy = pytest.importorskip("sympy")
    from wittlink.witt import _MR_CERTIFIED_BELOW
    sides = set()
    for _ in range(12):
        n = 1
        for _ in range(rng.randint(2, 3)):
            high = rng.random() < 0.5
            sides.add(high)
            low = 10 ** 6 if high else 2
            n *= sympy.nextprime(rng.randint(low, 10 * low + 10 ** 4))
        assert dict(factorize(n).factors) == sympy.factorint(n), n
    assert sides == {False, True}
    # a witness refutes the cofactor left by trial division, and rho splits
    # it into two primes below the bound
    small = sympy.nextprime(rng.randint(10 ** 6, 10 ** 7))
    n = small * sympy.nextprime(_MR_CERTIFIED_BELOW // small
                                + rng.randint(0, 10 ** 6))
    assert n >= _MR_CERTIFIED_BELOW
    assert dict(factorize(n).factors) == sympy.factorint(n), n


def test_is_prime():
    assert is_prime(2) and is_prime(998117) and is_prime(1000003)
    assert not is_prime(1) and not is_prime(561) and not is_prime(10 ** 6)
    # strong pseudoprimes: to the bases 2, 3, 5 and 7, and to every base
    # through 31, so only the base 37 rejects the second
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)


def test_primality_certification_bound():
    from wittlink.errors import CertificationBoundError
    # 2^89 - 1 is beyond the deterministic-base certification range and has
    # no factor below the trial-division limit: refuse rather than guess
    with pytest.raises(CertificationBoundError):
        is_prime(2 ** 89 - 1)
    # a composite beyond it is refuted by a witness (base 2) all the same,
    # and factored, with no prime factor below the trial-division limit
    p = 4000000000000000037
    assert not is_prime(1000003 * p)
    assert factorize(1000003 * p).factors == ((1000003, 1), (p, 1))


# The least strong pseudoprimes to the first 12 and to the first 13 prime
# bases (Sorenson and Webster, Math. Comp. 86 (2017)).
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_refutes_psi_12():
    """psi_12 is below the certification bound and passes every base
    through 37: only the base 41 refutes it."""
    assert not is_prime(PSI_12)
    assert factorize(PSI_12).factors == ((399165290221, 1),
                                         (798330580441, 1))


def test_psi_13_is_refused_at_the_certification_bound():
    """psi_13 passes all 13 bases: it is the bound itself, where is_prime
    refuses rather than answer True."""
    from wittlink.errors import CertificationBoundError
    from wittlink.witt import _MR_CERTIFIED_BELOW
    assert _MR_CERTIFIED_BELOW == PSI_13
    with pytest.raises(CertificationBoundError):
        is_prime(PSI_13)


def test_is_prime_agrees_with_sympy_on_the_pseudoprimes():
    """Both are composite: is_prime says so of psi_12 and refuses psi_13."""
    sympy = pytest.importorskip("sympy")
    from wittlink.errors import CertificationBoundError
    assert is_prime(PSI_12) is sympy.isprime(PSI_12) is False
    assert sympy.isprime(PSI_13) is False
    with pytest.raises(CertificationBoundError):
        is_prime(PSI_13)


def test_square_free_part():
    assert square_free_part(8) == 2
    assert square_free_part(Fraction(-3, 2)) == -6
    assert square_free_part(Fraction(-9, 8)) == -2
    assert square_free_part(1) == 1


def test_square_classes_match_the_product_reference(rng):
    """square_free_part, witt_from_diagonal and relevant_primes factor a
    reduced numerator and denominator apart; the reference factors their
    product.  Draws carry squares on both sides and primes above the
    trial-division limit."""
    def draw():
        x = rng.choice((1, rng.randint(2, 400), rng.choice((1000003, 1000033))))
        return x * rng.randint(1, 40) ** rng.randint(1, 3)

    for _ in range(300):
        values = [Fraction(rng.choice((-1, 1)) * draw(), draw())
                  for _ in range(rng.randint(0, 5))] + [-draw()]
        parts = [reference_square_free_part(a) for a in values]
        assert [square_free_part(a) for a in values] == parts
        c = witt_from_diagonal(values)
        assert c.entries == tuple(sorted(parts))
        primes = sorted({2}.union(*(factorize(e).primes() for e in parts)))
        assert relevant_primes(c) == primes
        assert relevant_primes(WittClassQ(tuple(values))) == primes


def test_square_classes_of_unreduced_pairs_match_the_fraction_route(rng):
    """_square_classes takes (numerator, denominator) int pairs as they come,
    such as consecutive pivot minors: it divides out their gcd and takes the
    sign from both.  On pairs with shared factors (squares and primes above
    10^6 among them) and negative denominators, and on the minors of random
    forms, the parts equal reference_square_free_part of the Fraction and
    the primes are those of the parts, with 2."""
    from wittlink.witt import _square_classes

    def side():
        return rng.choice((-1, 1)) * rng.randint(1, 500)

    batches = []
    for _ in range(200):
        pairs = []
        for _ in range(rng.randint(1, 5)):
            shared = rng.choice((1, rng.randint(2, 60), 1000003))
            shared *= rng.randint(1, 30) ** rng.randint(0, 2)
            pairs.append((side() * shared, side() * shared))
        batches.append(pairs)
    for _ in range(40):
        m = form_from_rows(random_mixed_even_rows(rng, max_rank=10)).minors
        batches.append(list(zip(m[1:], m)))
    negative = shared = 0
    for pairs in batches:
        parts = [reference_square_free_part(Fraction(x, y)) for x, y in pairs]
        entries, primes = _square_classes(pairs)
        assert entries == tuple(sorted(parts)), pairs
        assert primes == sorted({2}.union(
            *(factorize(e).primes() for e in parts)))
        negative += any(y < 0 for _, y in pairs)
        shared += any(abs(math.gcd(x, y)) > 1 for x, y in pairs)
    assert negative >= 100 and shared >= 150


def test_square_classes_refuse_a_zero_entry():
    with pytest.raises(ZeroEntryError):
        square_free_part(0)
    with pytest.raises(ZeroEntryError):
        witt_from_diagonal([Fraction(3, 2), 0])
    with pytest.raises(ZeroEntryError):
        relevant_primes(SimpleNamespace(entries=(3, 0)))


def test_boundary_is_zero_examples():
    assert boundary_is_zero(witt_from_diagonal(NINE_ONE_DIAGONAL))
    assert not boundary_is_zero(witt_from_diagonal([3]))
    pretzel = witt_from_diagonal([3, 7, 6, 126])
    assert not boundary_is_zero(pretzel)
    assert not boundary_at_prime(pretzel, 7).zero


def test_witt_q_is_zero_examples():
    for a in (2, 3, Fraction(5, 7)):
        assert witt_q_is_zero(witt_from_diagonal([a, -a]))
    assert not witt_q_is_zero(witt_from_diagonal([1, 1]))
    assert not witt_q_is_zero(witt_from_diagonal([2, 2]))


def _random_nonzero_rational(rng):
    num = 0
    while num == 0:
        num = rng.randint(-30, 30)
    return Fraction(num, rng.randint(1, 30))


def test_relation_r3(rng):
    checked = 0
    while checked < 50:
        a = _random_nonzero_rational(rng)
        b = _random_nonzero_rational(rng)
        if a + b == 0:
            continue
        lhs = witt_from_diagonal([a, b])
        rhs = witt_from_diagonal([a + b, a * b * (a + b)])
        assert witt_q_equal(lhs, rhs), (a, b)
        checked += 1


def test_relation_r2_boundary_invariance(rng):
    for _ in range(40):
        a = _random_nonzero_rational(rng)
        t = _random_nonzero_rational(rng)
        c1 = witt_from_diagonal([a])
        c2 = witt_from_diagonal([a * t * t])
        assert c1 == c2
        for p in (2, 3, 5, 7, 11, 13):
            assert boundary_at_prime(c1, p) == boundary_at_prime(c2, p)


def test_relation_r1(rng):
    for _ in range(20):
        a = _random_nonzero_rational(rng)
        assert witt_q_is_zero(witt_from_diagonal([a, -a]))
        assert not witt_q_is_zero(witt_from_diagonal([a, a]))


def test_boundary_additive(rng):
    for _ in range(25):
        c1 = witt_from_diagonal([_random_nonzero_rational(rng)
                                 for _ in range(rng.randint(1, 3))])
        c2 = witt_from_diagonal([_random_nonzero_rational(rng)
                                 for _ in range(rng.randint(1, 3))])
        for p in (2, 3, 5, 7):
            assert boundary_at_prime(witt_sum(c1, c2), p) == \
                finite_witt_add(boundary_at_prime(c1, p), boundary_at_prime(c2, p))


def test_signature_splitting_consistency(rng):
    from conftest import random_even_form_rows
    from wittlink import signature
    for _ in range(10):
        f = form_from_rows(random_even_form_rows(rng, rng.randint(1, 5)))
        assert rational_witt_class(f).signature() == signature(f)


def test_negate():
    c = witt_from_diagonal([2, -6])
    assert witt_negate(c).entries == (-2, 6)
    assert witt_q_is_zero(witt_sum(c, witt_negate(c)))


def test_boundary_from_minors_matches_residue_test(rng):
    """The full square-free residue test stays the reference."""
    vanishing = square_only = 0
    for _ in range(220):
        f = form_from_rows(random_mixed_even_rows(rng, max_rank=10))
        minors = pivot_minors(f)
        expected = boundary_is_zero(rational_witt_class(f))
        assert boundary_zero_from_minors(minors) == expected
        vanishing += expected
        adet = abs(minors[-1])
        square_only += not expected and math.isqrt(adet) ** 2 == adet
    # both outcomes of the residue test behind the square gate are seen
    assert vanishing >= 30 and square_only >= 5
    assert boundary_zero_from_minors(pivot_minors(form_from_rows([])))
    assert boundary_zero_from_minors(pivot_minors(form_from_rows(NINE_ONE_SYM)))


def test_factor_cache_is_bounded():
    from wittlink.witt import _factor_magnitude
    limit = _factor_magnitude.cache_info().maxsize
    assert limit is not None
    for n in range(10 ** 6, 10 ** 6 + limit + 100):
        factorize(n)
    assert _factor_magnitude.cache_info().currsize <= limit


def test_rational_witt_class_matches_diagonalize(rng):
    # The entries come from the pivot minors; the Fraction diagonalization
    # is the reference.
    from conftest import fraction_diagonalize
    for _ in range(150):
        f = form_from_rows(random_mixed_even_rows(rng, max_rank=10))
        expected = witt_from_diagonal(fraction_diagonalize(f.rows()).entries)
        assert rational_witt_class(f).entries == expected.entries


def test_decide_guards_the_signature_it_is_given():
    """One decision core for a presentation that is not even: the Goeritz
    form G = [[p+q, -q], [-q, q+r]] of P(p, q, r) presents the linking form
    of the knot, whose signature is sigma(G) - (p + q) (Gordon-Litherland).
    Over p, q odd in [-15, 15], r even in [-30, 30], r, p + q != 0, G's
    boundary vanishes on 306 triples; guarding the knot's signature
    applies the theorem on all of them without a contradiction, while
    guarding sigma(G) raises on exactly the 142 with det G = +m^2."""
    from wittlink.forms import signature_from_minors
    from wittlink.witt import _decide
    zero = raised = 0
    for p, q, r in pretzel_window(15, 30):
        if r == 0 or p + q == 0:
            continue
        minors = form_from_rows([[p + q, -q], [-q, q + r]]).minors
        if not boundary_zero_from_minors(minors):
            continue
        zero += 1
        sig = signature_from_minors(minors)
        assert (sig - (p + q)) % 8 == 0, (p, q, r)
        assert _decide(minors, sig - (p + q), True) == (True, True)
        try:
            _decide(minors, sig, True)
        except ArithmeticError as exc:
            assert "contradicts a proved theorem" in str(exc)
            assert minors[-1] > 0, (p, q, r)
            raised += 1
        else:
            assert minors[-1] < 0, (p, q, r)
    assert (zero, raised) == (306, 142)
