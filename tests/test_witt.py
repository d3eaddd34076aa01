import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import NINE_ONE_SYM, random_mixed_even_rows, witt_zero_bruteforce
from wittlink import (WittClassQ, boundary_at_prime, boundary_is_zero,
                      boundary_zero_from_minors, factorize,
                      finite_witt_add, finite_witt_from_units,
                      finite_witt_is_zero, finite_witt_zero, form_from_rows,
                      is_prime, pivot_minors, quadratic_residue,
                      rational_witt_class,
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


def test_is_prime():
    assert is_prime(2) and is_prime(998117) and is_prime(1000003)
    assert not is_prime(1) and not is_prime(561) and not is_prime(10 ** 6)


def test_primality_certification_bound():
    from wittlink.errors import CertificationBoundError
    # 2^89 - 1 is beyond the deterministic-base certification range and has
    # no factor below the trial-division limit: refuse rather than guess
    with pytest.raises(CertificationBoundError):
        is_prime(2 ** 89 - 1)


def test_square_free_part():
    assert square_free_part(8) == 2
    assert square_free_part(Fraction(-3, 2)) == -6
    assert square_free_part(Fraction(-9, 8)) == -2
    assert square_free_part(1) == 1


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
