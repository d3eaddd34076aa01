import json
from enum import IntEnum
from fractions import Fraction

import pytest

from conftest import (NINE_ONE_SEIFERT, NINE_ONE_SYM, SEIFERT_6_3,
                      SEIFERT_8_1, TREFOIL_SEIFERT, bareiss_det,
                      permutation_pfaffian, random_seifert_rows)
from wittlink import (PretzelKnot, analyze_knot, boundary_is_zero, is_even,
                      knot_determinant, knot_signature, murasugi_check,
                      pretzel_determinant, pretzel_signature,
                      pretzel_witt_class, rational_witt_class,
                      seifert_block_sum, seifert_from_rows, symmetrize,
                      witt_q_equal, witt_sum)
from wittlink.errors import (DegenerateParameterError, InvalidSeifertError,
                             NotSquareError)
from wittlink.knots import _pfaffian


def test_seifert_validation(tmp_path, capsys):
    from wittlink import cli
    seifert_from_rows(TREFOIL_SEIFERT)
    with pytest.raises(InvalidSeifertError):
        seifert_from_rows([[1, 0], [0, 1]])  # symmetric: det(S-S^T) = 0
    with pytest.raises(InvalidSeifertError):
        seifert_from_rows([[0, 2], [0, 0]])  # det(S-S^T) = 4
    with pytest.raises(NotSquareError):
        seifert_from_rows([[1, 2]])
    # det(S - S^T) = 1 holds for both, so only the entry check rejects them
    for i, rows in enumerate(([[0.5, 1], [0, 1.9]], [[True, 1], [0, -1]])):
        with pytest.raises(InvalidSeifertError, match="non-integer"):
            seifert_from_rows(rows)
        path = tmp_path / f"s{i}.json"
        path.write_text(json.dumps({"seifert": rows}))
        assert cli.main(["knot", "--seifert", str(path)]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "invalid_seifert", err
    # Each of these fails the fast type test; the loop names the first bad
    # entry in row-major order.
    for bad, shown in ((True, "True"), (1.0, "1.0"),
                       (Fraction(1), "Fraction(1, 1)"), ("1", "'1'"),
                       (None, "None")):
        for rows in ([[0, bad], [0, 0]], [[0, bad], [0.5, None]]):
            with pytest.raises(InvalidSeifertError) as err:
                seifert_from_rows(rows)
            assert str(err.value) == f"non-integer Seifert entry {shown}"
    with pytest.raises(NotSquareError) as err:
        seifert_from_rows([[0, 1], [0]])
    assert str(err.value) == "expected 2 columns, got 1"


def test_seifert_pfaffian_sign_and_value():
    """det(S - S^T) = Pf^2 = 1 accepts Pf = -1 and rejects Pf = +-2, +-3."""
    assert seifert_from_rows([[0, 0], [1, 0]]).entries == ((0, 0), (1, 0))
    # zero A[0][1]: the elimination swaps index 2 into place first
    assert seifert_from_rows(
        [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]).n == 4
    for rows in ([[0, 2], [0, 0]], [[0, 0], [3, 0]], [[0, 3], [0, 0]],
                 [[0, 0, 2, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
                 [[0, 1, 0], [0, 0, 1], [0, 0, 0]]):
        with pytest.raises(InvalidSeifertError) as err:
            seifert_from_rows(rows)
        assert str(err.value) == "det(S - S^T) must be 1"


def test_seifert_int_subclass():
    class Entry(IntEnum):
        MINUS = -1
        ONE = 1

    s = seifert_from_rows([[Entry.MINUS, Entry.ONE], [0, -1]])
    assert s.entries == tuple(map(tuple, TREFOIL_SEIFERT))
    assert all(type(x) is int for row in s.entries for x in row)
    assert all(type(x) is int for row in symmetrize(s).gram for x in row)


def _random_skew(rng, n, bound=2, zeros=0.0):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() >= zeros:
                a[i][j] = rng.randint(-bound, bound)
                a[j][i] = -a[i][j]
    return a


def test_pfaffian_squares_to_bareiss_det(rng):
    """Pf^2 = det on random skew matrices of size 0-12: dense, sparse (zero
    pivots force swaps, and many are singular), with a zero row, and of
    lower rank (B J B^T)."""
    seen = {"zero": 0, "unit": 0}
    for n in range(13):
        cases = [_random_skew(rng, n) for _ in range(6)]
        cases += [_random_skew(rng, n, bound=1, zeros=z)
                  for z in (0.5, 0.7, 0.85) for _ in range(4)]
        if n:
            zero_row = _random_skew(rng, n)
            k = rng.randrange(n)
            for i in range(n):
                zero_row[k][i] = zero_row[i][k] = 0
            cases.append(zero_row)
        for r in range(0, n, 2):
            b = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)]
            cases.append([[sum(b[i][t] * b[j][t + 1] - b[i][t + 1] * b[j][t]
                               for t in range(0, r, 2)) for j in range(n)]
                          for i in range(n)])
        if n >= 4 and n % 2 == 0:
            swap = _random_skew(rng, n)
            for k in range(0, n - 1, 2):
                swap[k][k + 1] = swap[k + 1][k] = 0
            cases.append(swap)
        for a in cases:
            pf = _pfaffian([list(row) for row in a])
            assert pf * pf == bareiss_det(a), a
            if n % 2:
                assert pf == 0
            seen["zero"] += pf == 0
            seen["unit"] += abs(pf) == 1
    assert seen["zero"] > 50 and seen["unit"] > 5, seen


def test_pfaffian_sign_matches_definition(rng):
    for n in range(7):
        for zeros in (0.0, 0.4, 0.7):
            for _ in range(3):
                a = _random_skew(rng, n, bound=3, zeros=zeros)
                assert _pfaffian([list(row) for row in a]) == \
                    permutation_pfaffian(a), a
    # a[0][1] = 0 swaps index 2 into place; Pf = a03 a12 - a02 a13
    a = [[0, 0, 2, 5], [0, 0, 3, 7], [-2, -3, 0, 0], [-5, -7, 0, 0]]
    assert _pfaffian([list(row) for row in a]) == permutation_pfaffian(a) == 1


def test_symmetrize_examples():
    assert symmetrize(seifert_from_rows(TREFOIL_SEIFERT)).gram == \
        ((-2, 1), (1, -2))
    s91 = seifert_from_rows(NINE_ONE_SEIFERT)
    assert symmetrize(s91).gram == tuple(tuple(r) for r in NINE_ONE_SYM)
    unknot = seifert_from_rows([])
    assert symmetrize(unknot).n == 0
    assert knot_signature(unknot) == 0
    assert knot_determinant(unknot) == 1


def test_knot_signature_determinant():
    t = seifert_from_rows(TREFOIL_SEIFERT)
    assert knot_signature(t) == -2
    assert knot_determinant(t) == 3
    s91 = seifert_from_rows(NINE_ONE_SEIFERT)
    assert knot_signature(s91) == -8
    assert knot_determinant(s91) == 9


def test_murasugi_examples():
    assert murasugi_check(seifert_from_rows(TREFOIL_SEIFERT))
    assert murasugi_check(seifert_from_rows(NINE_ONE_SEIFERT))


def test_symmetrize_even_and_odd_det(rng):
    for _ in range(30):
        s = seifert_from_rows(random_seifert_rows(rng, rng.randint(1, 3)))
        f = symmetrize(s)
        assert is_even(f)
        assert knot_determinant(s) % 2 == 1


def test_murasugi_random(rng):
    for _ in range(30):
        s = seifert_from_rows(random_seifert_rows(rng, rng.randint(1, 3)))
        assert murasugi_check(s)


def test_analyze_nine_one():
    rep = analyze_knot(seifert_from_rows(NINE_ONE_SEIFERT))
    assert rep.boundary_zero
    assert rep.signature == -8
    assert rep.signature_mod_8 == 0


def test_analyze_trefoil():
    rep = analyze_knot(seifert_from_rows(TREFOIL_SEIFERT))
    assert not rep.boundary_zero
    assert rep.signature_mod_8 is None
    assert rep.murasugi_class == 2


def test_analyze_knot_raises_on_a_theorem_contradiction(tmp_path, capsys,
                                                       monkeypatch):
    """A vanishing boundary with the trefoil's signature -2 contradicts the
    theorem; knot reports it as analyze does, as an internal error."""
    from wittlink import cli, knots
    monkeypatch.setattr(knots, "boundary_zero_from_minors", lambda m: True)
    message = ("signature -2 not divisible by 8 on a form satisfying the "
               "vanishing hypothesis; this contradicts a proved theorem")
    with pytest.raises(ArithmeticError) as err:
        analyze_knot(seifert_from_rows(TREFOIL_SEIFERT))
    assert str(err.value) == message
    path = tmp_path / "trefoil.json"
    path.write_text(json.dumps({"seifert": TREFOIL_SEIFERT}))
    assert cli.main(["knot", "--seifert", str(path)]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "internal", "message": message}


def test_analyze_connected_sum_six_three_eight_one():
    s63 = seifert_from_rows(SEIFERT_6_3)
    s81 = seifert_from_rows(SEIFERT_8_1)
    # individually both fail the vanishing hypothesis at p = 13...
    assert not analyze_knot(s63).boundary_zero
    assert not analyze_knot(s81).boundary_zero
    assert abs(knot_determinant(s63)) == 13
    assert abs(knot_determinant(s81)) == 13
    # ...but the connected sum satisfies it, with signature 0
    rep = analyze_knot(seifert_block_sum(s63, s81))
    assert rep.boundary_zero
    assert rep.signature == 0
    assert rep.signature_mod_8 == 0


def test_connected_sum_additivity(rng):
    unknot = seifert_from_rows([])
    for _ in range(10):
        s1 = seifert_from_rows(random_seifert_rows(rng, rng.randint(1, 2)))
        s2 = seifert_from_rows(random_seifert_rows(rng, rng.randint(1, 2)))
        assert seifert_block_sum(s1, unknot) == \
            seifert_block_sum(unknot, s1) == s1
        total = seifert_block_sum(s1, s2)
        assert knot_signature(total) == knot_signature(s1) + knot_signature(s2)
        assert knot_determinant(total) == \
            knot_determinant(s1) * knot_determinant(s2)
        lhs = rational_witt_class(symmetrize(total))
        rhs = witt_sum(rational_witt_class(symmetrize(s1)),
                       rational_witt_class(symmetrize(s2)))
        assert witt_q_equal(lhs, rhs)


def test_pretzel_validation():
    with pytest.raises(DegenerateParameterError):
        PretzelKnot(2, 3, 4)
    with pytest.raises(DegenerateParameterError):
        PretzelKnot(3, 5, 1)
    # odd*odd + even terms is odd, so the determinant is never zero and
    # r = 0 is fine at the type level (only the Witt class rejects it)
    PretzelKnot(1, -1, 0)


def test_pretzel_determinant():
    assert pretzel_determinant(PretzelKnot(3, 7, 6)) == 81
    assert pretzel_determinant(PretzelKnot(3, -5, -8)) == 1
    assert pretzel_determinant(PretzelKnot(3, 5, -2)) == -1


def test_pretzel_witt_class():
    c = pretzel_witt_class(PretzelKnot(3, 5, -2))
    assert c.entries == tuple(sorted([3, 5, -2, -30]))
    assert boundary_is_zero(c)

    c = pretzel_witt_class(PretzelKnot(3, 7, 6))
    assert c.entries == tuple(sorted([3, 7, 6, 14]))  # 126 = 14 * 9
    assert not boundary_is_zero(c)

    c = pretzel_witt_class(PretzelKnot(1, 1, 2))
    assert c.entries == (1, 1, 2, 2)

    with pytest.raises(DegenerateParameterError):
        pretzel_witt_class(PretzelKnot(1, -1, 0))


def test_pretzel_signature():
    assert pretzel_signature(PretzelKnot(3, 5, -2)) == -8
    assert pretzel_signature(PretzelKnot(3, 7, 6)) == -8
    assert pretzel_signature(PretzelKnot(-3, -5, 2)) == 8
    with pytest.raises(DegenerateParameterError):
        pretzel_signature(PretzelKnot(3, -3, 2))
