from enum import IntEnum
from fractions import Fraction

import pytest

from conftest import (A8_NEG, E8, HYPERBOLIC, NINE_ONE_SYM, alt_pivot_signs,
                      bareiss_det, cofactor_det, fraction_diagonalize,
                      is_rational_square, random_dense_even_rows,
                      random_even_form_rows, random_mixed_even_rows)
from wittlink import (determinant, diagonalize, direct_sum, form_from_rows,
                      forms, is_even, pivot_minors, report, signature)
from wittlink._mat import identity
from wittlink.errors import (DegenerateError, NotIntegerError, NotSquareError,
                             NotSymmetricError)


def test_form_from_rows_examples():
    assert form_from_rows([[2]]).n == 1
    assert form_from_rows(NINE_ONE_SYM).n == 8
    f = form_from_rows(HYPERBOLIC)
    assert determinant(f) == -1 and is_even(f)


def test_form_from_rows_errors():
    with pytest.raises(NotSquareError):
        form_from_rows([[1, 2]])
    with pytest.raises(NotSymmetricError):
        form_from_rows([[1, 2], [3, 4]])
    with pytest.raises(NotIntegerError):
        form_from_rows([[1, Fraction(1, 2)], [Fraction(1, 2), 1]])
    with pytest.raises(DegenerateError):
        form_from_rows([[1, 1], [1, 1]])
    # Each of these fails the fast type test; the loop names the first bad
    # entry in row-major order, and types are checked before symmetry.
    for bad, shown in ((True, "True"), (2.0, "2.0"), (0.5, "0.5"),
                       (Fraction(2), "Fraction(2, 1)"), ("2", "'2'"),
                       (None, "None")):
        for rows in ([[2, 1, 0], [1, bad, 3], [0, 3, 2]],
                     [[2, 1, 0], [1, bad, 3], [0, 5, None]]):
            with pytest.raises(NotIntegerError) as err:
                form_from_rows(rows)
            assert str(err.value) == f"non-integer Gram entry {shown}"
    with pytest.raises(NotIntegerError) as err:
        form_from_rows([[2, 1.5], [None, 2]])
    assert str(err.value) == "non-integer Gram entry 1.5"
    with pytest.raises(NotSquareError) as err:
        form_from_rows([[2, 1], [1, 2, 0]])
    assert str(err.value) == "expected 2 columns, got 3"
    # the first asymmetric pair (i, j), i < j, in row-major order
    with pytest.raises(NotSymmetricError) as err:
        form_from_rows([[0, 1, 2, 7], [1, 0, 3, 0], [5, 4, 0, 0], [9, 0, 0, 0]])
    assert str(err.value) == "gram[0][2] = 2 != gram[2][0] = 5"
    with pytest.raises(NotSymmetricError) as err:
        form_from_rows([[0, 1, 2], [1, 0, 3], [2, 4, 0]])
    assert str(err.value) == "gram[1][2] = 3 != gram[2][1] = 4"


def test_form_from_rows_int_subclass():
    """An int subclass is accepted and stored as an exact int."""
    class Entry(IntEnum):
        MINUS = -1
        TWO = 2

    f = form_from_rows([[Entry.TWO, Entry.MINUS], [-1, 2]])
    assert f.gram == ((2, -1), (-1, 2))
    assert all(type(x) is int for row in f.gram for x in row)
    assert determinant(f) == 3


def test_empty_form():
    f = form_from_rows([])
    assert determinant(f) == 1
    assert signature(f) == 0
    assert is_even(f)
    assert diagonalize(f).entries == ()


def test_determinant_examples():
    assert determinant(form_from_rows(HYPERBOLIC)) == -1
    assert cofactor_det(NINE_ONE_SYM) == 9
    assert determinant(form_from_rows(NINE_ONE_SYM)) == 9
    assert cofactor_det(A8_NEG) == 9
    assert determinant(form_from_rows(A8_NEG)) == 9


def test_determinant_matches_cofactor_oracle(rng):
    for _ in range(25):
        rank = rng.randint(1, 5)
        rows = random_even_form_rows(rng, rank)
        assert determinant(form_from_rows(rows)) == cofactor_det(rows)


def test_signature_examples():
    assert signature(form_from_rows([[2]])) == 1
    assert signature(form_from_rows(NINE_ONE_SYM)) == -8
    assert signature(form_from_rows(A8_NEG)) == -8
    assert signature(form_from_rows(E8)) == 8


def test_is_even_examples():
    assert is_even(form_from_rows([[2, 1], [1, 2]]))
    assert not is_even(form_from_rows([[1]]))
    assert is_even(form_from_rows(NINE_ONE_SYM))


def test_diagonalize_nine_one_golden():
    d = diagonalize(form_from_rows(NINE_ONE_SYM))
    assert d.entries == tuple(Fraction(-(k + 2), k + 1) for k in range(8))


def test_diagonalize_hyperbolic():
    d = diagonalize(form_from_rows(HYPERBOLIC))
    pos = [e for e in d.entries if e > 0]
    neg = [e for e in d.entries if e < 0]
    assert len(pos) == 1 and len(neg) == 1
    assert is_rational_square(-pos[0] * neg[0])


def test_diagonalize_small_golden():
    d = diagonalize(form_from_rows([[2, 1], [1, 2]]))
    assert d.entries == (Fraction(2), Fraction(3, 2))


def test_diagonalize_repeated_zero_diagonal():
    # two hyperbolic blocks: the zero-pivot repair has to fire twice
    rows = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 3], [0, 0, 3, 0]]
    d = diagonalize(form_from_rows(rows))
    assert all(e != 0 for e in d.entries)
    assert sum(1 if e > 0 else -1 for e in d.entries) == 0
    _check_transition(rows, d)


def _check_transition(rows, d):
    n = len(rows)
    p = d.transition
    pb = [[sum(p[i][a] * rows[a][b] for a in range(n)) for b in range(n)]
          for i in range(n)]
    for i in range(n):
        for j in range(n):
            val = sum(x * y for x, y in zip(pb[i], p[j]))
            assert val == (d.entries[i] if i == j else 0)


def test_transition_is_exact_congruence(rng):
    fixtures = [NINE_ONE_SYM, A8_NEG, E8, HYPERBOLIC,
                [[0, 2], [2, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, 3]]]
    for rows in fixtures:
        _check_transition(rows, diagonalize(form_from_rows(rows)))
    for _ in range(15):
        rows = random_even_form_rows(rng, rng.randint(1, 5))
        _check_transition(rows, diagonalize(form_from_rows(rows)))
    rows = random_dense_even_rows(rng, 24)
    _check_transition(rows, diagonalize(form_from_rows(rows)))


def test_det_class_invariance(rng):
    for _ in range(15):
        rows = random_even_form_rows(rng, rng.randint(1, 5))
        f = form_from_rows(rows)
        prod = Fraction(1)
        for e in diagonalize(f).entries:
            prod *= e
        assert is_rational_square(Fraction(determinant(f)) / prod)


def test_signature_pivot_order_independent(rng):
    fixtures = [NINE_ONE_SYM, A8_NEG, E8, HYPERBOLIC]
    for rows in fixtures:
        assert signature(form_from_rows(rows)) == alt_pivot_signs(rows)
    for _ in range(20):
        rows = random_even_form_rows(rng, rng.randint(1, 5))
        assert signature(form_from_rows(rows)) == alt_pivot_signs(rows)


def test_signature_bounds(rng):
    for _ in range(20):
        rank = rng.randint(1, 5)
        f = form_from_rows(random_even_form_rows(rng, rank))
        sig = signature(f)
        assert abs(sig) <= rank
        assert (sig - rank) % 2 == 0


def test_direct_sum_examples():
    f = direct_sum(form_from_rows([[2]]), form_from_rows([[-2]]))
    assert f.gram == ((2, 0), (0, -2))


def test_direct_sum_properties(rng):
    empty = form_from_rows([])
    for _ in range(10):
        f1 = form_from_rows(random_even_form_rows(rng, rng.randint(1, 4)))
        f2 = form_from_rows(random_even_form_rows(rng, rng.randint(1, 4)))
        assert direct_sum(f1, empty) == direct_sum(empty, f1) == f1
        assert direct_sum(empty, empty) == empty
        s = direct_sum(f1, f2)
        assert s.gram == tuple(r + (0,) * f2.n for r in f1.gram) + tuple(
            (0,) * f1.n + r for r in f2.gram)
        assert signature(s) == signature(f1) + signature(f2)
        assert determinant(s) == determinant(f1) * determinant(f2)
        assert is_even(s) == (is_even(f1) and is_even(f2))


def test_report():
    rep = report(form_from_rows(A8_NEG))
    assert (rep.rank, rep.determinant, rep.signature, rep.is_even) == (8, 9, -8, True)


def test_pivot_minors_match_diagonalize(rng):
    """The Fraction diagonalization stays the reference: entry k is
    D_k / D_(k-1), det is D_n and the signature counts the positive
    entries."""
    zero_diagonal = 0
    for _ in range(250):
        f = form_from_rows(random_mixed_even_rows(rng))
        minors = pivot_minors(f)
        entries = fraction_diagonalize(f.rows()).entries
        assert minors[0] == 1 and len(minors) == f.n + 1
        assert tuple(Fraction(b, a) for a, b in zip(minors, minors[1:])) == entries
        assert minors[-1] == determinant(f)
        assert signature(f) == sum(1 if e > 0 else -1 for e in entries)
        zero_diagonal += all(f.gram[i][i] == 0 for i in range(f.n))
    assert zero_diagonal >= 30  # the e_k -> e_k + e_j branch is exercised


def test_diagonalize_matches_fraction_oracle(rng):
    """The fraction-free pass on an identity gives exactly the entries and
    the transition matrix of the Fraction elimination."""
    zero_diagonal = 0
    for _ in range(260):
        rows = random_mixed_even_rows(rng)
        assert diagonalize(form_from_rows(rows)) == fraction_diagonalize(rows)
        zero_diagonal += all(rows[i][i] == 0 for i in range(len(rows)))
    assert zero_diagonal >= 30  # the e_k -> e_k + e_j branch is exercised
    for rank in (24, 32):
        rows = random_dense_even_rows(rng, rank)
        assert diagonalize(form_from_rows(rows)) == fraction_diagonalize(rows)
    assert diagonalize(form_from_rows([])) == fraction_diagonalize([])


def test_pivot_minors_small_cases():
    assert pivot_minors(form_from_rows([])) == (1,)
    assert pivot_minors(form_from_rows(HYPERBOLIC)) == (1, 2, -1)
    assert pivot_minors(form_from_rows(A8_NEG)) == (1, -2, 3, -4, 5, -6, 7, -8, 9)


def test_form_from_rows_rejects_exactly_the_singular(rng):
    """Validation is the symmetric elimination: it raises DegenerateError
    exactly when the cofactor determinant is 0.  Two draws in three are made
    singular by a duplicated row and column; one in three has a zero
    diagonal, so pivoting starts with e_k -> e_k + e_j, and the others start
    with a swap whenever the first diagonal entry is 0."""
    seen = {"singular": 0, "regular": 0, "add_first": 0, "swap_first": 0}
    for draw in range(300):
        n = rng.randint(2, 6)
        zero_diagonal = draw % 3 == 0
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 0 if zero_diagonal else rng.randint(-1, 1)
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(-2, 2)
        if draw % 3 != 2:
            i, j = rng.sample(range(n), 2)
            rows[j] = list(rows[i])
            for row in rows:
                row[j] = row[i]
        det = cofactor_det(rows)
        if det == 0:
            seen["singular"] += 1
            with pytest.raises(DegenerateError,
                               match="^Gram matrix has determinant 0$"):
                form_from_rows(rows)
        else:
            seen["regular"] += 1
            assert determinant(form_from_rows(rows)) == det
        if rows[0][0] == 0 and any(rows[k][k] for k in range(1, n)):
            seen["swap_first"] += det == 0
        elif zero_diagonal and any(rows[0][1:]):
            seen["add_first"] += det == 0
    assert min(seen.values()) >= 30, seen


# e_0 swaps with e_2 (row 0 trades entry 1 with column 2's, 1 != 2), then
# e_3 -> e_3 + e_5 (column 5 adds a nonzero entry at row 4, row 5 one at 6)
TWO_FAR_REPAIRS = [[0, 1, 3, 0, 0, 0, 0],
                   [1, 0, 2, 0, 0, 0, 0],
                   [3, 2, 2, 0, 0, 0, 0],
                   [0, 0, 0, 0, 0, 1, 0],
                   [0, 0, 0, 0, 0, 1, 1],
                   [0, 0, 0, 1, 1, 0, 1],
                   [0, 0, 0, 0, 1, 1, 0]]


def test_eliminate_reads_and_writes_only_the_upper_triangle(rng):
    """With every strictly lower entry None and an identity appended, the
    elimination gives the minors and the transition tails of the full rows
    and leaves the None entries in place."""
    samples = [TWO_FAR_REPAIRS] + [random_mixed_even_rows(rng, 9)
                                   for _ in range(40)]
    for rows in samples:
        n = len(rows)
        full = [[*r, *e] for r, e in zip(rows, identity(n))]
        upper = [[x if j >= i else None for j, x in enumerate(r)]
                 for i, r in enumerate(full)]
        assert forms._eliminate(upper) == forms._eliminate(full)
        assert [r[n:] for r in upper] == [r[n:] for r in full]
        assert all(r[j] is None for i, r in enumerate(upper) for j in range(i))
    d = diagonalize(form_from_rows(TWO_FAR_REPAIRS))
    assert d == fraction_diagonalize(TWO_FAR_REPAIRS)
    assert pivot_minors(form_from_rows(TWO_FAR_REPAIRS)) == (
        1, 2, -4, 10, 20, -10, -20, 10)


def test_sparse_forms_match_fraction_oracle(rng):
    """2000 sparse symmetric forms of rank 0-9, diagonals mostly zero, so
    that both zero-pivot repairs fire often and far from the pivot: each
    nonsingular one diagonalizes as the Fraction elimination does, and
    each singular one (by an unsymmetric Bareiss determinant) is refused."""
    singular = 0
    for _ in range(2000):
        n = rng.randint(0, 9)
        density = rng.random()
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            if rng.random() < 0.3:
                rows[i][i] = rng.randint(-4, 4)
            for j in range(i + 1, n):
                if rng.random() < density:
                    rows[i][j] = rows[j][i] = rng.randint(-3, 3)
        if bareiss_det(rows) == 0:
            singular += 1
            with pytest.raises(DegenerateError):
                form_from_rows(rows)
        else:
            assert diagonalize(form_from_rows(rows)) == fraction_diagonalize(rows)
    assert 500 <= singular <= 1500, singular
