"""Forms with known answers: finite-index sublattices M = A L A^T of the even
unimodular L = E8^a + (-E8)^b + U^c (``conftest.known_answer_rows``).

sigma(M) = 8(a - b), |det M| = n^2 and L/M is a metabolizer, so every
verdict below is known before the program runs.  Two sizes of n are left
out because the program refuses them today, with ``certification_bound``,
though the answer is true:

- n = 5577949203839327427117513531973, a prime above the Miller-Rabin
  certification bound, which ``is_prime`` cannot prove (a Pocklington
  certificate from n - 1 would);
- n = (10^18 + 3)(2 10^18 + 57), whose two factors Pollard rho does not
  separate within its step budget (the elliptic curve method would).
"""

import json
import math
import random

import pytest

from conftest import (E8, HYPERBOLIC, block_sum_rows, chain_shear,
                      known_answer_rows)
from wittlink import discriminant_form, form_from_rows
from wittlink.discriminant import overlattice_from_metabolizer
from wittlink.forms import determinant, signature

PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441


def _run(tmp_path, capsys, cmd, rows, *flags):
    from wittlink import cli
    path = tmp_path / f"{cmd}{len(list(tmp_path.iterdir()))}.json"
    path.write_text(json.dumps({"gram": rows}))
    assert cli.main([cmd, "--gram", str(path), *flags]) == 0
    return json.loads(capsys.readouterr().out)


def _check_overlattice(rows, metabolizer, sig, n):
    """The paper's proof: the metabolizer spans a unimodular overlattice of
    index n and the same signature."""
    f = form_from_rows(rows)
    f1, index = overlattice_from_metabolizer(f, discriminant_form(f),
                                             metabolizer)
    assert (abs(determinant(f1)), signature(f1), index) == (1, sig, n)


def test_known_answer_sweep(tmp_path, capsys):
    """On random (a, b, c, n) and shears, analyze gives sigma = 8(a - b),
    |det| = n^2, a vanishing boundary, and theorem_applies exactly for odd
    n; disc's orders multiply to n^2 and it prints analyze's metabolizer,
    which spans a unimodular overlattice of index n and the same
    signature."""
    r = random.Random(17)
    printed = 0
    for seed in range(24):
        a, b, c = r.randint(0, 2), r.randint(0, 2), r.randint(0, 2)
        if a + b + c == 0:
            c = 1
        n = r.choice((r.randint(2, 99), r.randint(10 ** 3, 10 ** 6)))
        rows = known_answer_rows(a, b, c, n, shears=r.randint(0, 12),
                                 seed=seed)
        case = (a, b, c, n, seed)
        rep = _run(tmp_path, capsys, "analyze", rows)
        assert rep["signature"] == 8 * (a - b), case
        assert abs(rep["det"]) == n * n, case
        assert rep["boundary_zero"] is True, case
        assert rep["theorem_applies"] is (n % 2 == 1), case
        assert rep["conclusion_holds"] is True, case
        disc = _run(tmp_path, capsys, "disc", rows)
        assert math.prod(disc["orders"]) == n * n, case
        assert disc["metabolizer"] == rep["metabolizer"], case
        if n * n <= 10 ** 4:
            assert rep["metabolizer"] is not None, case
            _check_overlattice(rows, rep["metabolizer"], 8 * (a - b), n)
            printed += 1
    assert printed >= 8


def test_known_answers_at_chosen_sizes(tmp_path, capsys):
    """E8 + U^2 at n = 97 gets a metabolizer; E8^2 + U at n = 105 (|G| =
    11025) gets none at the default group bound and one under
    --bound-group 100000; E8^3 + -E8 + U at n = 10^18 + 3, rank 34, and
    E8^2 + U at psi_12, a composite that passes 12 Miller-Rabin bases, get
    sigma 16 and theorem_applies."""
    rows = known_answer_rows(1, 0, 2, 97)
    rep = _run(tmp_path, capsys, "analyze", rows)
    assert (rep["signature"], rep["det"], rep["theorem_applies"]) == (
        8, 97 ** 2, True)
    _check_overlattice(rows, rep["metabolizer"], 8, 97)

    rows = known_answer_rows(2, 0, 1, 105)
    rep = _run(tmp_path, capsys, "analyze", rows)
    assert (rep["signature"], rep["det"], rep["metabolizer"]) == (
        16, -105 ** 2, None)
    assert rep["theorem_applies"] is True
    rep = _run(tmp_path, capsys, "analyze", rows, "--bound-group", "100000")
    _check_overlattice(rows, rep["metabolizer"], 16, 105)

    for a, b, n, rank in ((3, 1, 10 ** 18 + 3, 34), (2, 0, PSI_12, 18)):
        rep = _run(tmp_path, capsys, "analyze",
                   known_answer_rows(a, b, 1, n))
        assert (rep["rank"], rep["signature"], rep["det"]) == (
            rank, 16, -n * n)
        assert rep["boundary_zero"] is True and rep["theorem_applies"] is True


def test_known_answers_on_chain_sheared_inputs(tmp_path, capsys):
    """Dense inputs from chain_shear: A12 + -A12 (rank 24, det 13^2) gets a
    metabolizer from its Smith form, and E8^3 + -E8 + U, sheared on both
    sides of diag(n, 1, ..., 1) for n = 10^18 + 3 (rank 34), gets sigma 16,
    det -n^2, a vanishing boundary and theorem_applies."""
    a12 = [[2 * (i == j) - (abs(i - j) == 1) for j in range(12)]
           for i in range(12)]
    minus = [[-x for x in row] for row in a12]
    rep = _run(tmp_path, capsys, "analyze",
               chain_shear(block_sum_rows(a12, minus)))
    assert (rep["det"], rep["signature"], rep["theorem_applies"]) == (
        169, 0, True)
    assert rep["metabolizer"]

    n = 10 ** 18 + 3
    minus = [[-x for x in row] for row in E8]
    rows = chain_shear(block_sum_rows(E8, E8, E8, minus, HYPERBOLIC))
    rows[0] = [n * x for x in rows[0]]
    for row in rows:
        row[0] *= n
    rep = _run(tmp_path, capsys, "analyze", chain_shear(rows))
    assert (rep["rank"], rep["signature"], rep["det"]) == (34, 16, -n * n)
    assert rep["boundary_zero"] is True and rep["theorem_applies"] is True


@pytest.mark.parametrize("k", [1, 2, 5])
def test_known_answer_plus_x_plus_x_has_a_residue(tmp_path, capsys, k):
    """M + X + X, X = [[2, 1], [1, 2k]] of prime det l = 4k - 1 = 3 mod 4:
    |det| = (97 l)^2 is a square, but -1 is not a square mod l, so the
    residue at l is nonzero and nothing applies."""
    x = [[2, 1], [1, 2 * k]]
    rows = block_sum_rows(known_answer_rows(1, 0, 2, 97), x, x)
    rep = _run(tmp_path, capsys, "analyze", rows)
    assert (rep["det"], rep["signature"]) == ((97 * (4 * k - 1)) ** 2, 12)
    assert rep["boundary_zero"] is False
    assert rep["theorem_applies"] is False
    assert rep["metabolizer"] is None
