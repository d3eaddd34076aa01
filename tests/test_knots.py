import json

import pytest

from conftest import (NINE_ONE_SEIFERT, NINE_ONE_SYM, SEIFERT_6_3,
                      SEIFERT_8_1, TREFOIL_SEIFERT, random_seifert_rows)
from wittlink import (PretzelKnot, analyze_knot, boundary_is_zero, is_even,
                      knot_determinant, knot_signature, murasugi_check,
                      pretzel_determinant, pretzel_signature,
                      pretzel_witt_class, rational_witt_class,
                      seifert_block_sum, seifert_from_rows, symmetrize,
                      witt_q_equal, witt_sum)
from wittlink.errors import (DegenerateParameterError, InvalidSeifertError,
                             NotSquareError)


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
    for _ in range(10):
        s1 = seifert_from_rows(random_seifert_rows(rng, rng.randint(1, 2)))
        s2 = seifert_from_rows(random_seifert_rows(rng, rng.randint(1, 2)))
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
