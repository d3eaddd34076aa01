import cmath
import itertools
import json
import math
import operator
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (A8_NEG, E8, HYPERBOLIC, NINE_ONE_SYM, bareiss_det,
                      cofactor_det, convolve, dense_histogram,
                      enumerate_gauss_terms, fsum_gauss_value,
                      linking_radical_is_trivial, random_dense_even_rows,
                      random_even_form_rows, random_mixed_even_rows,
                      reference_smith_normal_form,
                      unpruned_metabolizer)
from wittlink import (DiscriminantForm, GaussSumValue, boundary_is_zero,
                      determinant, diagonalize, direct_sum, discriminant_form,
                      find_metabolizer,
                      form_from_rows, gauss_sum, gauss_sum_check,
                      gauss_sum_matches, is_even,
                      linking_is_nondegenerate, linking_value,
                      overlattice_from_metabolizer, rational_witt_class,
                      signature, smith_normal_form, verify_main_theorem,
                      quadratic_residue, witt_from_diagonal)
from wittlink._mat import mat_mul
from wittlink.discriminant import DEFAULT_GROUP_BOUND
from wittlink.errors import (DegenerateError, DeterminantTooLargeError,
                             GroupTooLargeError, LengthMismatchError,
                             NotEvenError)

DIAG_2_M2 = [[2, 0], [0, -2]]
A2 = [[2, -1], [-1, 2]]
D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]


def _block_sum(*blocks):
    f = form_from_rows(blocks[0])
    for x in blocks[1:]:
        f = direct_sum(f, form_from_rows(x))
    return f


def _is_unimodular(m):
    return abs(bareiss_det(m)) == 1


def _is_divisor_chain(d):
    return (all(x >= 0 for x in d)
            and all(b % a == 0 if a else b == 0 for a, b in zip(d, d[1:])))


def _smith_w(rows, d, v):
    """W = M V D^-1 for the Smith form (d, V) of a nonsingular square M,
    asserted integral."""
    mv = mat_mul(rows, v)
    assert all(x % dj == 0 for row in mv for x, dj in zip(row, d))
    return [[x // dj for x, dj in zip(row, d)] for row in mv]


def _check_square_smith(rows):
    """(d, V) equal the reference oracle's; M V = W D with V and
    W = M V D^-1 integral and unimodular, d a divisor chain and
    |det M| = prod d."""
    d, v = smith_normal_form(rows)
    assert (d, v) == reference_smith_normal_form(rows)
    w = _smith_w(rows, d, v)
    assert _is_unimodular(v) and _is_unimodular(w)
    assert _is_divisor_chain(d) and all(d)
    assert math.prod(d) == abs(cofactor_det(rows))
    return d


def test_smith_normal_form_basic():
    # det -8, invariant factors 2 | 4
    assert _check_square_smith([[2, 4], [6, 8]]) == [2, 4]
    assert _check_square_smith([]) == []


def test_smith_normal_form_random(rng):
    for _ in range(40):
        n = rng.randint(1, 7)
        _check_square_smith(random_even_form_rows(
            rng, n, entry_bound=rng.choice((5, 40))))


def test_smith_normal_form_at_decide_ranks(rng):
    """(d, V) equal the reference oracle's on the forms of ranks up to 24
    that decide hands the Smith form, and on dense rank-32 forms: the
    sizes at which long runs of unit pivots and pivot columns that are
    mostly zero occur, so the unit-pivot stop of the scan and the pass over
    the rows with a nonzero pivot-column entry alone are exercised.  d is
    a divisor chain whose product is |det|."""
    forms = [random_mixed_even_rows(rng, max_rank=24) for _ in range(40)]
    forms += [random_dense_even_rows(rng, 32) for _ in range(3)]
    units = []
    for rows in forms:
        d, v = smith_normal_form(rows)
        assert (d, v) == reference_smith_normal_form(rows)
        assert _is_divisor_chain(d) and all(d)
        assert math.prod(d) == abs(form_from_rows(rows).minors[-1])
        units.append(d.count(1))
    assert max(map(len, forms)) == 32 and max(units) >= 24, units


def _determinantal_divisors(rows):
    """D_i, the gcd of the i x i minors of ``rows``, for i = 1 .. min shape."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    out = []
    for i in range(1, min(nr, nc) + 1):
        g = 0
        for rs, cs in itertools.product(itertools.combinations(range(nr), i),
                                        itertools.combinations(range(nc), i)):
            g = math.gcd(g, bareiss_det([[rows[r][c] for c in cs]
                                         for r in rs]))
            if g == 1:
                break
        out.append(g)
    return out


def test_overlattice_refuses_generators_that_are_not_isotropic():
    """The generator of the discriminant group Z/3 of A_2 links with itself
    to 2/3, so the lattice it spans with L is not integral."""
    f = form_from_rows([[2, 1], [1, 2]])
    d = discriminant_form(f)
    assert d.orders == (3,)
    with pytest.raises(ArithmeticError, match="^generators do not span an "
                       "integral overlattice; not a metabolizer$"):
        overlattice_from_metabolizer(f, d, [(1,)])


def _caller_smith_inputs(monkeypatch):
    """The non-Gram matrices handed to smith_normal_form on small forms
    with a metabolizer: [A; diag(d)] from linking_is_nondegenerate and the
    transposed generator rows from overlattice_from_metabolizer."""
    from wittlink import discriminant
    seen = []

    def record(rows):
        seen.append([list(r) for r in rows])
        return smith_normal_form(rows)

    a2_minus_a2 = [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, -2, 1], [0, 0, 1, -2]]
    for rows in (DIAG_2_M2, [[2, 1], [1, -4]], a2_minus_a2):
        f = form_from_rows(rows)
        d = discriminant_form(f)
        meta = find_metabolizer(d)
        assert meta
        with monkeypatch.context() as mp:
            mp.setattr(discriminant, "smith_normal_form", record)
            linking_is_nondegenerate(d)
            overlattice_from_metabolizer(f, d, meta)
    return seen


def test_smith_normal_form_rectangular(rng, monkeypatch):
    """On 0 x 0 to 7 x 7 matrices of both shapes with entries up to 40,
    some with zero rows and zero columns, and on the non-Gram matrices the
    library builds: (d, V) equal the reference oracle's, d_1 ... d_i is
    the gcd of the i x i minors, V is unimodular, and column j of M V is
    d_j times an integer column, zero where d_j = 0 or j is past the
    diagonal, so M V = W D with W unimodular."""
    callers = _caller_smith_inputs(monkeypatch)
    assert len(callers) == 6
    fixtures = [[], [[0]], [[0, 0, 0]], [[0], [0]], [[0, 2], [0, 4], [0, 6]],
                [[2, 4, 6]], [[6], [10], [15]]] + callers
    shapes, zeros = set(), 0
    for _ in range(200):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        bound = rng.choice((6, 40))
        dead_rows = {i for i in range(nr) if rng.random() < 0.2}
        dead_cols = {j for j in range(nc) if rng.random() < 0.2}
        zeros += bool(dead_rows or dead_cols)
        fixtures.append([[0 if i in dead_rows or j in dead_cols
                          else rng.randint(-bound, bound) for j in range(nc)]
                         for i in range(nr)])
    for rows in fixtures:
        nr, nc = len(rows), len(rows[0]) if rows else 0
        shapes.add((nr > nc) - (nr < nc))
        d, v = smith_normal_form(rows)
        assert (d, v) == reference_smith_normal_form(rows)
        assert len(d) == min(nr, nc) and len(v) == nc
        assert _is_unimodular(v) and _is_divisor_chain(d)
        assert (list(itertools.accumulate(d, operator.mul))
                == _determinantal_divisors(rows))
        mv = mat_mul(rows, v)
        for j in range(nc):
            dj = d[j] if j < len(d) else 0
            assert all(row[j] % dj == 0 if dj else row[j] == 0 for row in mv)
    assert shapes == {-1, 0, 1} and zeros >= 20


def test_discriminant_form_e8_trivial():
    d = discriminant_form(form_from_rows(E8))
    assert d.orders == ()
    assert d.group_order() == 1


def test_discriminant_form_a8_neg():
    d = discriminant_form(form_from_rows(A8_NEG))
    assert d.orders == (9,)
    # linking form of the lens space L(9,1): lambda(g,g) = q k^2 / 9 mod 1
    # for a unit k, with q = 1 here; squares of units mod 9 are 1, 4, 7.
    val = d.linking[0][0]
    assert val in (Fraction(1, 9), Fraction(4, 9), Fraction(7, 9))
    # quad_diag refines the diagonal linking value from Q/Z to Q/2Z
    assert (d.quad_diag[0] - val) % 1 == 0
    assert linking_is_nondegenerate(d)


def test_discriminant_form_diag_2_m2():
    d = discriminant_form(form_from_rows(DIAG_2_M2))
    assert d.orders == (2, 2)
    assert d.linking[0][0] == Fraction(1, 2)
    assert d.linking[1][1] == Fraction(1, 2)
    assert d.linking[0][1] == 0


def test_discriminant_group_order_and_consistency(rng):
    for _ in range(15):
        f = form_from_rows(random_even_form_rows(rng, rng.randint(1, 4),
                                                 entry_bound=5))
        d = discriminant_form(f)
        assert d.group_order() == abs(determinant(f))
        k = len(d.orders)
        for i in range(k):
            # order annihilates the linking row; quad_diag lifts the
            # diagonal linking value to Q/2Z
            for j in range(k):
                assert (d.orders[i] * d.linking[i][j]) % 1 == 0
            assert (d.quad_diag[i] - d.linking[i][i]) % 1 == 0
        assert linking_is_nondegenerate(d)


def test_linking_is_nondegenerate_detects_a_radical():
    """Hand-built linking forms: <0> on Z/2 and the Z/2 + Z/2 form with a
    zero second row are degenerate; <1/2> and the hyperbolic form on
    Z/2 + Z/2 are not.  Every generator is the vector of halves, the
    column of ones over d_i = 2."""
    def form(orders, link):
        return DiscriminantForm(
            orders=orders, denominator=2, link=link, quad=tuple(
                row[i] for i, row in enumerate(link)),
            columns=tuple((1,) * len(orders) for _ in orders))

    assert not linking_is_nondegenerate(form((2,), ((0,),)))
    assert not linking_is_nondegenerate(form((2, 2), ((1, 0), (0, 0))))
    assert linking_is_nondegenerate(form((2,), ((1,),)))
    assert linking_is_nondegenerate(form((2, 2), ((0, 1), (1, 0))))


def _linking_table(orders, link):
    """A hand-built discriminant form on Z/d_1 + ... + Z/d_k over N = d_k;
    only the orders and the linking table are meaningful.  Generator i is
    the vector of 1/d_i, the column of ones over d_i."""
    return DiscriminantForm(
        orders=orders, denominator=orders[-1], link=link,
        quad=tuple(row[i] for i, row in enumerate(link)),
        columns=tuple((1,) * len(orders) for _ in orders))


def _link_choices(orders):
    """The index pairs i <= j and, for each, the allowed values of
    N b(g_i, g_j) mod N, N = d_k: the multiples of N / gcd(d_i, d_j)."""
    k, n = len(orders), orders[-1]
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    return pairs, [range(0, n, n // math.gcd(orders[i], orders[j]))
                   for i, j in pairs]


def _table_from(orders, pairs, values):
    k = len(orders)
    link = [[0] * k for _ in range(k)]
    for (i, j), x in zip(pairs, values):
        link[i][j] = link[j][i] = x
    return _linking_table(orders, tuple(map(tuple, link)))


def test_linking_is_nondegenerate_matches_radical_search(rng):
    """Invariant factors against the brute-force radical search: every
    linking table on small orders, both answers on each, then random tables
    and discriminant forms with |G| <= 2000."""
    for orders in [(2,), (4,), (2, 4), (3, 9), (2, 2), (4, 8), (3, 3, 9)]:
        pairs, choices = _link_choices(orders)
        answers = set()
        for values in itertools.product(*choices):
            d = _table_from(orders, pairs, values)
            answer = linking_radical_is_trivial(d)
            assert linking_is_nondegenerate(d) == answer, (orders, values)
            answers.add(answer)
        assert answers == {False, True}, orders
    answers = Counter()
    while sum(answers.values()) < 60:
        orders = [rng.randint(2, 6)]
        for _ in range(rng.randint(0, 3)):
            orders.append(orders[-1] * rng.randint(1, 3))
        if math.prod(orders) > 2000:
            continue
        pairs, choices = _link_choices(orders)
        d = _table_from(tuple(orders), pairs,
                        [rng.choice(c) for c in choices])
        answer = linking_radical_is_trivial(d)
        assert linking_is_nondegenerate(d) == answer, d
        answers[answer] += 1
    assert answers[False] >= 5 and answers[True] >= 5, answers
    checked = 0
    while checked < 40:
        d = discriminant_form(form_from_rows(random_mixed_even_rows(
            rng, max_rank=8)))
        if d.group_order() <= 2000:
            assert linking_is_nondegenerate(d)
            assert linking_radical_is_trivial(d)
            checked += 1


def test_linking_value():
    d = discriminant_form(form_from_rows(A8_NEG))
    assert linking_value(d, (0,), (5,)) == 0
    assert linking_value(d, (3,), (3,)) == 0  # the metabolizer direction
    assert linking_value(d, (1,), (1,)) == d.linking[0][0]
    with pytest.raises(LengthMismatchError):
        linking_value(d, (1, 2), (1,))


def test_linking_bilinearity(rng):
    d = discriminant_form(form_from_rows(DIAG_2_M2))
    k = len(d.orders)
    for _ in range(20):
        x = tuple(rng.randrange(4) for _ in range(k))
        x2 = tuple(rng.randrange(4) for _ in range(k))
        y = tuple(rng.randrange(4) for _ in range(k))
        lhs = linking_value(d, tuple(a + b for a, b in zip(x, x2)), y)
        rhs = (linking_value(d, x, y) + linking_value(d, x2, y)) % 1
        assert lhs == rhs


def test_find_metabolizer_examples():
    assert find_metabolizer(discriminant_form(form_from_rows(E8))) == []
    assert find_metabolizer(discriminant_form(form_from_rows(A8_NEG))) == [(3,)]
    assert find_metabolizer(discriminant_form(form_from_rows([[3]]))) is None
    assert find_metabolizer(discriminant_form(form_from_rows(DIAG_2_M2))) == [(1, 1)]
    with pytest.raises(GroupTooLargeError):
        find_metabolizer(discriminant_form(form_from_rows(A8_NEG)), bound=5)


def test_find_metabolizer_lex_first_outputs():
    """The first metabolizer in lexicographic search order, pinned."""
    a1 = [[2]]
    cases = [
        (_block_sum(*[a1] * 8), [(0, 0, 0, 0, 0, 0, 1, 1),
                                 (0, 0, 0, 0, 1, 1, 0, 0),
                                 (0, 0, 1, 1, 0, 0, 0, 0),
                                 (1, 1, 0, 0, 0, 0, 0, 0)]),
        (_block_sum(*[D4] * 4), [(0, 0, 0, 0, 0, 0, 0, 1),
                                 (0, 0, 0, 0, 0, 1, 0, 0),
                                 (0, 0, 0, 1, 0, 0, 0, 0),
                                 (0, 1, 0, 0, 0, 0, 0, 0)]),
        (_block_sum(*[D4] * 5), [(0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
                                 (0, 0, 0, 0, 0, 0, 0, 1, 0, 0),
                                 (0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
                                 (0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
                                 (0, 1, 0, 0, 0, 0, 0, 0, 0, 0)]),
        # orders (6, 6, 6, 6): a 2-primary and a 3-primary metabolizer
        (_block_sum([[2, 0], [0, 6]], [[-2, 0], [0, -6]], A2, _neg(A2)),
         [(0, 0, 3, 3), (3, 3, 0, 0), (0, 0, 2, 2), (2, 2, 0, 0)]),
        # square |G| without a metabolizer: <6> + <54> and <-54> + <-54>
        (_block_sum([[6]], [[54]]), None),
        (_block_sum([[-54]], [[-54]]), None),
        # two or three primes, generators mapped back to Smith coordinates:
        # orders (2, 450), (6, 216), (10, 90) and (90, 90)
        (_block_sum([[-18]], [[50]]), [(0, 225), (0, 150), (0, 90)]),
        (_block_sum([[-24]], [[54]]),
         [(0, 108), (3, 54), (0, 72), (2, 24)]),
        (_block_sum([[-10]], [[90]]), [(5, 45), (0, 30), (2, 36)]),
        (_block_sum([[-90]], [[90]]),
         [(45, 45), (0, 30), (30, 0), (18, 18)]),
        # odd forms, where b(u, u) mod 2 is no invariant: orders (17, 17)
        # and (3, 12)
        (_block_sum([[-17]], [[17]]), [(1, 1)]),
        (_block_sum([[3]], [[12]]), None),
    ]
    for f, want in cases:
        d = discriminant_form(f)
        assert find_metabolizer(d) == want == unpruned_metabolizer(d), f


def test_find_metabolizer_matches_the_unpruned_search(rng):
    """The one pass returns what the whole lexicographic depth-first search
    returns, on 300 forms with square |det| <= 3000: random mixed and random
    even forms, and <+-2a> + <+-b>, odd forms among them."""
    found = set()
    count = 0
    while count < 300:
        kind = count % 3
        if kind == 0:
            rows = random_mixed_even_rows(rng, max_rank=6)
        elif kind == 1:
            rows = [[rng.choice((-2, 2)) * rng.randint(1, 60), 0],
                    [0, rng.choice((-1, 1)) * rng.randint(1, 120)]]
        else:
            rows = random_even_form_rows(rng, rng.randint(2, 4),
                                         max_abs_det=3000)
        f = form_from_rows(rows)
        g = abs(f.minors[-1])
        if not 1 < g <= 3000 or math.isqrt(g) ** 2 != g:
            continue
        count += 1
        d = discriminant_form(f)
        got = find_metabolizer(d)
        assert got == unpruned_metabolizer(d), rows
        found.add(got is None)
    assert found == {False, True}


def test_find_metabolizer_matches_the_unpruned_search_on_prime_powers():
    """<x> + <y> for x, y = +-p^a u, p in {2, 3, 5, 7}, a <= 6 and u in {1,
    2, 3, 5, 7}, with square |xy| <= 10^4: cyclic components of every
    exponent, paired with a unit, a square class or an order of their own."""
    values = sorted({s * p ** a * u for p in (2, 3, 5, 7) for a in range(7)
                     for u in (1, 2, 3, 5, 7) for s in (1, -1)})
    count = 0
    for x, y in itertools.product(values, repeat=2):
        g = abs(x * y)
        if g <= 10 ** 4 and math.isqrt(g) ** 2 == g:
            d = discriminant_form(form_from_rows([[x, 0], [0, y]]))
            assert find_metabolizer(d) == unpruned_metabolizer(d), (x, y)
            count += 1
    assert count == 1228


def test_find_metabolizer_on_elementary_3_groups():
    """(Z/3)^8 with linking form 3^-1 (7<1> + <-1>) has none, and is past
    what a search of its subgroups can do; 3^-1 (6<1> + 2<-1>) has one of
    order 81, on which the linking form vanishes."""
    assert find_metabolizer(discriminant_form(
        form_from_rows([[(-3 if i == 7 else 3) * (i == j) for j in range(8)]
                        for i in range(8)]))) is None
    d = discriminant_form(form_from_rows(
        [[(-3 if i > 5 else 3) * (i == j) for j in range(8)]
         for i in range(8)]))
    meta = find_metabolizer(d)
    assert all(linking_value(d, x, y) == 0 for x in meta for y in meta)
    span = {tuple(sum(c * x[i] for c, x in zip(cs, meta)) % o
                  for i, o in enumerate(d.orders))
            for cs in itertools.product(range(3), repeat=len(meta))}
    assert len(span) == 81


def test_find_metabolizer_multi_prime():
    # |G| = 36 is a square but the 3-primary part (Z/3)^2 with diagonal
    # linking 2(a^2+b^2)/3 has no nonzero isotropic element: no metabolizer
    assert find_metabolizer(discriminant_form(form_from_rows(
        [[6, 0], [0, 6]]))) is None
    assert not boundary_is_zero(rational_witt_class(form_from_rows(
        [[6, 0], [0, 6]])))

    # h + (-h) always has the diagonal as a metabolizer; |G| = 144 = 16 * 9
    # exercises combination across the 2- and 3-primary components
    f = form_from_rows([[2, 0, 0, 0], [0, 6, 0, 0],
                        [0, 0, -2, 0], [0, 0, 0, -6]])
    d = discriminant_form(f)
    meta = find_metabolizer(d)
    assert meta is not None
    f1, index = overlattice_from_metabolizer(f, d, meta)
    assert index == 12
    assert abs(determinant(f1)) == 1
    assert boundary_is_zero(rational_witt_class(f))


def test_isotropic_elements_match_the_direct_filter():
    """Each primary component's table has orders p^v_p(d_i) on the d_i that
    p divides, and its walk gives N b(x, x), x_i = c_i d_i / p^e_i, as its
    value S(c) times 2N / size, mod 2N on even forms and mod N on odd ones
    such as <5> + <25>; the nonzero c at which the walk at modulus size/(2,
    size) is zero are those with N b(x, x) = 0 mod N on the Smith tables, in
    lexicographic order: on cyclic and mixed 2-primary groups, on mixed and
    homogeneous odd ones, on two primes at once, on A1^8 and on D4^4."""
    from wittlink import discriminant
    cases = [([[4]], (4,)), ([[8]], (8,)), ([[2, 0], [0, 4]], (2, 4)),
             ([[4, 0], [0, 4]], (4, 4)),
             (_block_sum([[2]], [[6]], [[-2]], [[-6]]).rows(), (2, 2, 6, 6)),
             (_block_sum(A2, A8_NEG).rows(), (3, 9)),
             (_block_sum(A8_NEG, A8_NEG).rows(), (9, 9)),
             ([[5, 0], [0, 25]], (5, 25)),
             (_block_sum(*[[[2]]] * 8).rows(), (2,) * 8),
             (_block_sum(D4, D4, D4, D4).rows(), (2,) * 8)]
    for rows, orders in cases:
        form = form_from_rows(rows)
        d = discriminant_form(form)
        assert d.orders == orders
        n = d.denominator
        for p, idx, sub, size, quad, link2 in (
                discriminant._primary_components(d)):
            assert idx == [i for i, di in enumerate(orders) if di % p == 0]
            assert sub == [math.gcd(orders[i], p ** orders[i]) for i in idx]
            assert size == sub[-1] * (2 if p == 2 else 1)
            values = []
            discriminant._walk(quad, link2, sub, size, values.extend)
            want = []
            for c, value in zip(itertools.product(*map(range, sub)), values):
                x = [0] * len(orders)
                for i, ci, o in zip(idx, c, sub):
                    x[i] = ci * orders[i] // o
                qx = sum(x[i] * (x[i] * d.quad[i] + 2 * sum(
                    x[j] * d.link[i][j] for j in range(i + 1, len(x))))
                    for i in range(len(x))) % (2 * n)
                # b(x, x) mod 2 is an invariant of even forms only
                assert (value * (2 * n // size) - qx) % (
                    2 * n if is_even(form) else n) == 0, (orders, p, c)
                if any(c) and qx % n == 0:
                    want.append(c)
            # the metabolizer search's filter: S(c) = 0 mod size/(2, size)
            halves = []
            discriminant._walk(quad, link2, sub, size // math.gcd(2, size),
                               halves.extend)
            got = [c for c, v in zip(itertools.product(*map(range, sub)),
                                     halves) if any(c) and not v]
            assert got == want, (orders, p)


def test_pipeline_rank_sixteen():
    from wittlink import direct_sum
    f = direct_sum(form_from_rows(A8_NEG), form_from_rows(E8))
    assert determinant(f) == 9
    assert signature(f) == 0
    rep = verify_main_theorem(f)
    assert rep.theorem_applies and rep.conclusion_holds
    assert gauss_sum_check(f)
    assert abs(gauss_sum(f).approx() - 3) < 1e-9


def test_metabolizer_implies_boundary_zero(rng):
    found = 0
    for _ in range(40):
        f = form_from_rows(random_even_form_rows(rng, rng.randint(1, 4),
                                                 entry_bound=5,
                                                 max_abs_det=400))
        meta = find_metabolizer(discriminant_form(f))
        if meta is not None:
            found += 1
            assert boundary_is_zero(rational_witt_class(f))
    assert found >= 3  # the sample must actually exercise the implication


def test_gauss_sum_examples():
    g = gauss_sum(form_from_rows(E8))
    assert g.terms == ((0, 1),)
    assert g.total_count() == 1

    g = gauss_sum(form_from_rows(A8_NEG))
    assert g.total_count() == 9
    assert abs(g.approx() - 3) < 1e-12

    g = gauss_sum(form_from_rows(DIAG_2_M2))
    assert g.total_count() == 4
    assert abs(g.approx() - 2) < 1e-12


def test_gauss_sum_errors():
    with pytest.raises(NotEvenError):
        gauss_sum(form_from_rows([[1]]))
    with pytest.raises(DeterminantTooLargeError):
        gauss_sum(form_from_rows(A8_NEG), enum_bound=5)


def test_gauss_sum_check_fixtures():
    assert gauss_sum_check(form_from_rows(E8))
    assert gauss_sum_check(form_from_rows(A8_NEG))
    assert gauss_sum_check(form_from_rows(DIAG_2_M2))
    assert gauss_sum_check(form_from_rows(NINE_ONE_SYM))
    assert gauss_sum_check(form_from_rows(HYPERBOLIC))


def test_gauss_sum_check_exact_complex_values():
    # square determinant with signature 2 mod 8: G = 2i, and with -2: G = -2i;
    # both run through the exact cyclotomic comparison
    f = form_from_rows([[2, 0], [0, 2]])
    assert abs(gauss_sum(f).approx() - 2j) < 1e-12
    assert gauss_sum_check(f)
    f = form_from_rows([[-2, 0], [0, -2]])
    assert abs(gauss_sum(f).approx() + 2j) < 1e-12
    assert gauss_sum_check(f)


def test_gauss_sum_check_exact_composite_order():
    # h + (-h) with det(h) = 15: group of order 225, exponent 15, so the
    # exact comparison happens in the cyclotomic ring of order lcm(8, 30)
    h = [[4, 1], [1, 4]]
    rows = [[4, 1, 0, 0], [1, 4, 0, 0], [0, 0, -4, -1], [0, 0, -1, -4]]
    f = form_from_rows(rows)
    assert determinant(f) == 225
    g = gauss_sum(f)
    assert g.total_count() == 225
    assert gauss_sum_check(f)
    assert abs(g.approx() - 15) < 1e-9  # signature 0


def test_gauss_sum_check_random(rng):
    for _ in range(10):
        f = form_from_rows(random_even_form_rows(rng, rng.randint(1, 4),
                                                 entry_bound=6,
                                                 max_abs_det=2000))
        assert gauss_sum_check(f)


def test_gauss_sum_check_fails_when_either_half_fails(monkeypatch):
    """The check needs both halves: on A8 (Z/9, in closed form), a
    signature off by one with counts that still add up to |det|, and one
    count too many at index 0 with the phase still right, each make it
    false; so does a walked component with no Milgram phase, on the
    (Z/2)^2 of <2> + <-2>."""
    from wittlink import discriminant
    real_sig = discriminant.signature_from_minors
    real_counts = discriminant._homogeneous_counts

    def one_more(*args):
        counts, phase = real_counts(*args)
        return [counts[0] + 1] + list(counts[1:]), phase

    for rows, name, fake in (
            (A8_NEG, "signature_from_minors", lambda m: real_sig(m) + 1),
            (A8_NEG, "_homogeneous_counts", one_more),
            (DIAG_2_M2, "_component_phase", lambda *args: None)):
        f = form_from_rows(rows)
        assert gauss_sum_check(f)
        monkeypatch.setattr(discriminant, name, fake)
        assert not gauss_sum_check(f), name
        monkeypatch.undo()


def test_exact_and_numeric_paths_agree(rng):
    # square determinant: run the numeric comparison alongside the exact one
    import cmath
    for rows in (A8_NEG, NINE_ONE_SYM, DIAG_2_M2, E8):
        f = form_from_rows(rows)
        adet = abs(determinant(f))
        m = math.isqrt(adet)
        assert m * m == adet
        assert gauss_sum_check(f)
        g = gauss_sum(f)
        predicted = math.sqrt(adet) * cmath.exp(2j * math.pi * signature(f) / 8)
        assert abs(g.approx() - predicted) < 1e-9


def test_overlattice_a8():
    f = form_from_rows(A8_NEG)
    d = discriminant_form(f)
    meta = find_metabolizer(d)
    f1, index = overlattice_from_metabolizer(f, d, meta)
    assert index == 3
    assert abs(determinant(f1)) == 1
    from wittlink import is_even
    assert is_even(f1)
    assert gauss_sum(f1).terms == ((0, 1),)

    f = form_from_rows([])
    d = discriminant_form(f)
    meta = find_metabolizer(d)
    assert meta == []
    assert overlattice_from_metabolizer(f, d, meta) == (f, 1)


def test_overlattice_even_when_det_odd(rng):
    checked = 0
    for _ in range(40):
        f = form_from_rows(random_even_form_rows(rng, 2 * rng.randint(1, 2),
                                                 entry_bound=5, odd_det=True,
                                                 max_abs_det=400))
        d = discriminant_form(f)
        meta = find_metabolizer(d)
        if meta is None:
            continue
        f1, index = overlattice_from_metabolizer(f, d, meta)
        from wittlink import is_even
        assert is_even(f1)
        assert index * index * abs(determinant(f1)) == abs(determinant(f))
        checked += 1
    assert checked >= 2


def test_verify_main_theorem_fixtures():
    rep = verify_main_theorem(form_from_rows(A8_NEG))
    assert rep.theorem_applies and rep.conclusion_holds
    assert rep.signature == -8 and rep.det == 9
    assert rep.metabolizer == ((3,),)

    rep = verify_main_theorem(form_from_rows(NINE_ONE_SYM))
    assert rep.theorem_applies and rep.conclusion_holds
    assert rep.signature == -8

    rep = verify_main_theorem(form_from_rows([[2, 1], [1, 2]]))
    assert not rep.theorem_applies
    assert not rep.boundary_zero


def test_main_theorem_evenness_hypothesis_is_necessary():
    # <1> is unimodular with vanishing residues but odd, and sigma = 1
    rep = verify_main_theorem(form_from_rows([[1]]))
    assert rep.boundary_zero and rep.det_odd
    assert not rep.is_even
    assert not rep.theorem_applies
    assert rep.signature_mod_8 == 1


def test_main_theorem_odd_det_hypothesis_is_necessary():
    # diag(2,2,2,2) is even with vanishing residues (rank parity 0 at p = 2)
    # yet sigma = 4: only the even determinant keeps the statement intact
    rep = verify_main_theorem(form_from_rows(
        [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]))
    assert rep.is_even and rep.boundary_zero
    assert not rep.det_odd
    assert not rep.theorem_applies
    assert rep.signature_mod_8 == 4


def _gauss_exponents_by_direct_enumeration(f):
    """Oracle: exponent multiset {b(u,u) mod 2} from the rational generator
    vectors v_i / d_i and the Gram matrix directly, no precomputed tables."""
    d = discriminant_form(f)
    b = f.rows()
    gens = [[Fraction(x, di) for x in v] for v, di in zip(d.columns, d.orders)]
    counts = {}
    for coeffs in itertools.product(*(range(o) for o in d.orders)):
        vec = [Fraction(0)] * f.n
        for c, gen in zip(coeffs, gens):
            for i in range(f.n):
                vec[i] += c * gen[i]
        bv = [sum(b[i][j] * vec[j] for j in range(f.n)) for i in range(f.n)]
        val = sum(x * y for x, y in zip(vec, bv)) % 2
        counts[val] = counts.get(val, 0) + 1
    return counts


def test_gauss_sum_matches_direct_enumeration(rng):
    # [[0,4],[4,0]] pins the case where every realized exponent has a
    # smaller denominator than the linking table (1/4 only occurs doubled).
    # Unimodular forms have no cyclic factor to walk; A1^6, D4 + D4 and
    # A2^3 have k >= 3 factors; [[4,0],[0,12]] has the unequal chain 4 | 12.
    fixtures = [A8_NEG, DIAG_2_M2, [[2, 0], [0, 2]], NINE_ONE_SYM,
                [[0, 4], [4, 0]], [], HYPERBOLIC, E8,
                _block_sum(*[[[2]]] * 6).rows(), _block_sum(D4, D4).rows(),
                _block_sum(A2, A2, A2).rows(), [[4, 0], [0, 12]]]
    for _ in range(5):
        fixtures.append(random_even_form_rows(rng, rng.randint(1, 3),
                                              entry_bound=5, max_abs_det=200))
    mixed = 0
    while mixed < 20:
        rows = random_mixed_even_rows(rng, max_rank=8)
        if abs(determinant(form_from_rows(rows))) <= 2000:
            fixtures.append(rows)
            mixed += 1
    factors = set()
    for rows in fixtures:
        f = form_from_rows(rows)
        g = gauss_sum(f)
        d = discriminant_form(f)
        factors.add(len(d.orders))
        assert g.denominator == d.denominator
        got = {}
        for r, c in g.terms:
            key = Fraction(r, g.denominator) % 2
            got[key] = got.get(key, 0) + c
        assert got == _gauss_exponents_by_direct_enumeration(f)
    assert {0, 2, 3, 4, 6} <= factors


def test_gauss_sum_check_hyperbolic_scaled():
    f = form_from_rows([[0, 4], [4, 0]])
    assert gauss_sum_check(f)
    assert abs(gauss_sum(f).approx() - 4) < 1e-12  # sqrt(16) * e^0


def _inverse(m):
    """Exact inverse by Gauss-Jordan elimination over Fractions."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                a[r] = [x - a[r][col] * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def test_discriminant_generators_match_inverse_oracle(rng):
    """Generator i, v_i / d_i for the integer column v_i the form holds, is
    column i of B^-1 U^-1 for U B V = D, where U^-1 is the W = B V D^-1 of
    the Smith form (d, V); the linking and quadratic values are
    b(g_i, g_j) mod 1 and b(g_i, g_i) mod 2.  Every field holds ints."""
    for _ in range(200):
        rows = random_mixed_even_rows(rng, max_rank=8)
        n = len(rows)
        d, v = smith_normal_form(rows)
        uinv = _smith_w(rows, d, v)
        assert _is_unimodular(uinv)
        binv = _inverse(rows)
        expected = [tuple(sum(binv[r][c] * uinv[c][i] for c in range(n))
                          for r in range(n)) for i in range(n) if d[i] != 1]
        disc = discriminant_form(form_from_rows(rows))
        ints = [disc.denominator, *disc.orders, *disc.quad,
                *itertools.chain.from_iterable(disc.link + disc.columns)]
        assert {type(x) for x in ints} <= {int}
        assert [tuple(Fraction(x, di) for x in v)
                for v, di in zip(disc.columns, disc.orders)] == expected
        assert disc.orders == tuple(x for x in d if x != 1)

        def b(x, y):
            return sum(x[i] * rows[i][j] * y[j]
                       for i in range(n) for j in range(n))
        values = []
        for i, gi in enumerate(expected):
            values.append(b(gi, gi) % 2)
            assert disc.quad_diag[i] == values[-1]
            for j, gj in enumerate(expected):
                values.append(b(gi, gj) % 1)
                assert disc.linking[i][j] == values[-1]
        assert disc.denominator == math.lcm(*(x.denominator for x in values))
        assert disc.denominator == max(disc.orders, default=1)
        # coefficients in [-2N, 2N]: negative ones and ones >= d_i included
        big = 2 * disc.denominator
        for _ in range(3):
            x, y = ([rng.randint(-big, big) for _ in expected] for _ in "xy")
            gx, gy = ([sum(c * g[r] for c, g in zip(z, expected))
                       for r in range(n)] for z in (x, y))
            assert linking_value(disc, x, y) == b(gx, gy) % 1


def test_metabolizer_skip_agrees_with_exhaustive_search():
    """For odd det, verify_main_theorem skips the search when the residue
    test fails; find_metabolizer finds nothing on those forms either."""
    five = [[2, 1], [1, 3]]

    def neg(x):
        return [[-v for v in row] for row in x]

    skipped = 0
    for x in (A2, five):
        for blocks in ((x, x), (x, neg(x)), (x, x, x, neg(x)),
                       (x, x, neg(x), neg(x)), (x, x, x, x)):
            f = _block_sum(*blocks)
            rep = verify_main_theorem(f)
            found = find_metabolizer(discriminant_form(f))
            assert rep.det_odd
            assert rep.boundary_zero == (found is not None)
            assert rep.metabolizer == (tuple(found) if found is not None else None)
            skipped += not rep.boundary_zero
    assert skipped >= 2


def _gate_form(rng):
    """A random form of rank 1-4, odd or even, with 0 < |det| <= 5000:
    dense, or X + X or X + (-X) for a dense X of rank 1 or 2, whose |det|
    is a square of either parity, scrambled by symmetric shears."""
    def dense(n):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-6, 6)
        return rows

    while True:
        if rng.random() < 0.5:
            rows = dense(rng.randint(1, 4))
        else:
            m, sign = rng.randint(1, 2), rng.choice((-1, 1))
            x = dense(m)
            rows = [row + [0] * m for row in x]
            rows += [[0] * m + [sign * v for v in row] for row in x]
            for _ in range(3):
                i, j = rng.sample(range(2 * m), 2)
                rows[i] = [a + b for a, b in zip(rows[i], rows[j])]
                for row in rows:
                    row[i] += row[j]
        try:
            f = form_from_rows(rows)
        except DegenerateError:
            continue
        if abs(determinant(f)) <= 5000:
            return f


def test_metabolizer_gate_is_the_residue_verdict(rng, tmp_path, capsys):
    """A metabolic linking form is Witt-zero, so f's residues all vanish:
    on seeded forms of both det parities, and on even square dets with a
    nonzero boundary, find_metabolizer finds one only where
    boundary_zero_from_minors holds, and analyze (verify_main_theorem) and
    disc, which search only there, print exactly its answer.  For odd
    |det| a metabolizer exists iff the boundary vanishes."""
    from wittlink import boundary_zero_from_minors, cli
    # even square dets with and without a metabolizer, and <2, 2>, <2, -2>
    # or <4> (even) or H (odd) plus X + X with a nonzero residue at 3 or 7
    targeted = [DIAG_2_M2, [[2, 0], [0, 8]],
                [[(3 if i < 6 else 2) * (i == j)
                  for j in range(8)] for i in range(8)]]
    for block in ([[2, 0], [0, 2]], [[2, 0], [0, -2]], [[4]], HYPERBOLIC):
        for x in ([[3]], [[7]], A2, [[1, 0], [0, 1]]):
            targeted.append(_block_sum(block, x, x).rows())
    forms = [form_from_rows(rows) for rows in targeted]
    forms += [_gate_form(rng) for _ in range(2500)]
    seen = Counter()
    for i, f in enumerate(forms):
        det = determinant(f)
        assert abs(det) <= DEFAULT_GROUP_BOUND
        found = find_metabolizer(discriminant_form(f))
        zero = boundary_zero_from_minors(f.minors)
        assert found is None or zero, f
        if det % 2:
            assert (found is not None) == zero, f
        want = tuple(found) if found is not None else None
        assert verify_main_theorem(f).metabolizer == want, f
        path = tmp_path / f"f{i}.json"
        path.write_text(json.dumps({"gram": f.rows()}))
        assert cli.main(["disc", "--gram", str(path)]) == 0
        got = json.loads(capsys.readouterr().out)["metabolizer"]
        assert got == (None if want is None else [list(g) for g in want]), f
        square = math.isqrt(abs(det)) ** 2 == abs(det)
        seen[det % 2, square, found is not None, zero] += 1
    # metabolizers at both parities, and even square dets whose boundary
    # does not vanish
    assert seen[0, True, True, True] >= 100 <= seen[1, True, True, True]
    assert seen[0, True, False, False] >= 50


def test_gauss_sum_matches_takes_computed_value():
    for rows in (E8, A8_NEG, DIAG_2_M2, HYPERBOLIC, [[2, 1], [1, 4]]):
        f = form_from_rows(rows)
        assert gauss_sum_matches(f, gauss_sum(f)) == gauss_sum_check(f)
    wrong = gauss_sum(form_from_rows([[2, 1], [1, 2]]))
    assert not gauss_sum_matches(form_from_rows(A8_NEG), wrong)


def test_gauss_sum_matches_reads_only_the_value():
    """Whether a value matches f depends on f and the value's two fields
    alone.  The sum g of h has the complex value Milgram's formula gives
    for f, sqrt 4 e^(2 pi i 0 / 8) = 2, yet it is not f's Gauss sum: it
    does not match, and neither does the equal value built by hand.  Nor
    does the hand-built value 9 match A8-, whose Gauss sum is 3."""
    f = form_from_rows([[4, -2], [-2, 0]])
    h = form_from_rows([[-4, 2, 1, 0], [2, 2, -1, 0], [1, -1, -2, -2],
                        [0, 0, -2, -2]])
    g = gauss_sum(h)
    bare = GaussSumValue(g.denominator, g.terms)
    assert bare == g and _milgram_by_fsum(f, g)
    assert gauss_sum_matches(f, g) is gauss_sum_matches(f, bare) is False
    assert gauss_sum_matches(h, g) is gauss_sum_matches(h, bare) is True
    assert not gauss_sum_matches(form_from_rows(A8_NEG),
                                 GaussSumValue(9, ((0, 9),)))


def test_gauss_sum_matches_compares_every_term():
    """A value with one count moved to the next term, so that the counts
    still add up to |det|, does not match, nor do the terms cut short or
    lengthened; nor, as in a comparison of tuples, the same terms as a
    list or as lists."""
    f = form_from_rows([[2, 1], [1, 50]])
    g = gauss_sum(f)
    n, terms = g
    assert gauss_sum_matches(f, g) is True and len(terms) > 2
    for i in range(len(terms) - 1):
        (r, c), (r2, c2) = terms[i:i + 2]
        moved = terms[:i] + ((r, c - 1), (r2, c2 + 1)) + terms[i + 2:]
        assert GaussSumValue(n, moved).total_count() == g.total_count()
        assert gauss_sum_matches(f, GaussSumValue(n, moved)) is False
    for other in (terms[:-1], terms + ((2 * n, 1),), (), list(terms),
                  tuple(map(list, terms))):
        assert gauss_sum_matches(f, GaussSumValue(n, other)) is False
    assert gauss_sum_matches(f, GaussSumValue(n + 1, terms)) is False


def _neg(rows):
    return [[-x for x in row] for row in rows]


def _gauss_fixture_rows(rng):
    """Forms whose discriminant groups cover the shapes the per-prime walk
    and the closed form serve, then random mixed forms with |det| <= 3000."""
    x15 = [[4, 1], [1, 4]]
    x12 = [[4, 2], [2, 4]]
    fixed = [[], E8, HYPERBOLIC, D4, _block_sum(D4, D4).rows(),
             [[2, 0], [0, 8]], A8_NEG, [[2, 1], [1, 14]], [[2, 1], [1, -12]],
             _block_sum(A2, A8_NEG).rows(),
             _block_sum([[2]], A2, [[2, 1], [1, -2]]).rows(),
             _block_sum(x15, x15).rows(), _block_sum(x15, _neg(x15)).rows(),
             _block_sum(x12, x12).rows(), _block_sum(x12, _neg(x12)).rows(),
             # the walk: 2-primary (4, 4), (2, 4, 8) and cyclic (16,), and
             # mixed odd (5, 25) in <10> + <50> and (9, 27) in
             # A8 + [[2, 1], [1, 14]]
             [[4, 0], [0, 4]], _block_sum([[2]], [[4]], [[8]]).rows(),
             [[16]], [[10, 0], [0, 50]],
             _block_sum(A8_NEG, [[2, 1], [1, 14]]).rows(),
             # the closed form: A2^3 and A2^4 have ranks 3 and 4 at 3, and
             # <50> + <50> has the homogeneous 5-primary component (25, 25)
             # beside (2, 2)
             _block_sum(A2, A2, A2).rows(), _block_sum(A2, A2, A2, A2).rows(),
             [[50, 0], [0, 50]]]
    fixed += [_block_sum(*[[[2]]] * k).rows() for k in range(1, 9)]
    mixed = []
    while len(mixed) < 200:
        rows = random_mixed_even_rows(rng, max_rank=8)
        if abs(determinant(form_from_rows(rows))) <= 3000:
            mixed.append(rows)
    return fixed + mixed


def _homogeneous_tables(rng, p, a, k, nonsquare):
    """The table (quad, link2) of a component (Z/p^a)^k, in its own units
    mod p^a, whose form S(c) = c^T A c mod p^a has A = U diag(u) U^T, U a
    random integer unimodular matrix and u random units with det A a
    non-square mod p iff ``nonsquare``."""
    size = p ** a
    units = [rng.choice([x for x in range(1, size) if x % p])
             for _ in range(k)]
    if quadratic_residue(math.prod(units), p) == nonsquare:
        t = next(t for t in range(2, p) if not quadratic_residue(t, p))
        units[-1] = units[-1] * t % size
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(3 * k if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        c = rng.randint(-3, 3)
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    form = [[sum(u[i][t] * units[t] * u[j][t] for t in range(k)) % size
             for j in range(k)] for i in range(k)]
    return ([form[i][i] for i in range(k)],
            [[2 * form[i][j] % size for j in range(k)] for i in range(k)])


def test_homogeneous_counts_agree_with_the_walk(rng):
    """The closed-form histogram of an odd component whose orders all equal
    p^a, a dense table of length p^a, is the walk's, count for count, for
    p = 1 and 3 mod 4, exponents 1 to 3, ranks 1 to 4, both classes of
    det A and non-diagonal tables.  Groups beyond 2 * 10^4 elements are
    left out, since the walk is the oracle; every exponent and every rank
    still meets both residues of p mod 4 and both classes of det A.  The
    deep exponents, 4 to 9 at p = 3 and 4 to 6 at p = 5 for rank 1 and 4
    at p = 3 for rank 2, take the step to the multiples of p^2 two to four
    times over."""
    from wittlink import discriminant
    shallow = itertools.product((3, 5, 7, 11, 13), (1, 2, 3), (1, 2, 3, 4))
    deep = ([(3, a, 1) for a in range(4, 10)]
            + [(5, a, 1) for a in range(4, 7)] + [(3, 4, 2)])
    cases = set()
    for p, a, k in itertools.chain(shallow, deep):
        if p ** (a * k) > 2 * 10 ** 4:
            continue
        for nonsquare, _ in itertools.product((False, True), range(3)):
            quad, link2 = _homogeneous_tables(rng, p, a, k, nonsquare)
            walk = Counter()
            discriminant._walk(quad, link2, [p ** a] * k, p ** a,
                               walk.update)
            closed, _ = discriminant._homogeneous_counts(quad, link2, p, a)
            assert list(closed) == [walk[x] for x in range(p ** a)], (
                p, a, k, quad, link2)
            cases.add((p % 4, a, k, nonsquare))
    assert {(r, a, s) for r, a, _, s in cases} == set(
        itertools.product((1, 3), (1, 2, 3), (False, True))).union(
        itertools.product((3,), range(4, 10), (False, True)),
        itertools.product((1,), range(4, 7), (False, True)))
    assert {(r, k, s) for r, _, k, s in cases} == set(
        itertools.product((1, 3), (1, 2, 3, 4), (False, True)))
    assert {(r, a, k) for r, a, k, _ in cases if a >= 4} == {
        (3, a, 1) for a in range(4, 10)} | {
        (1, a, 1) for a in range(4, 7)} | {(3, 4, 2)}


def test_homogeneous_phase_agrees_with_the_ring_check(rng):
    """The phase that _homogeneous_counts reads from eta, p mod 4, the rank
    and the exponent is the one the exact ring check reads off its
    histogram, for p from 3 to 23, exponents 1 to 4, ranks 1 to 5 and both
    classes of det A; every (p mod 4, a mod 2, rank mod 2, eta) is met."""
    from wittlink import discriminant
    cases = set()
    for p, a, k, nonsquare in itertools.product(
            (3, 5, 7, 11, 13, 17, 19, 23), (1, 2, 3, 4), (1, 2, 3, 4, 5),
            (False, True)):
        quad, link2 = _homogeneous_tables(rng, p, a, k, nonsquare)
        counts, phase = discriminant._homogeneous_counts(quad, link2, p, a)
        assert phase == discriminant._component_phase(counts, p, k * a), (
            p, a, quad, link2)
        cases.add((p % 4, a % 2, k % 2, nonsquare))
    assert cases == set(itertools.product((1, 3), (0, 1), (0, 1),
                                          (False, True)))


def test_homogeneous_counts_build_the_table_once():
    """On the lone prime 599999 of [[600, 1], [1, 1000]] the closed form
    peaks at its result, a bytearray of 0.6 MiB; as a list of 4.6 MiB it
    once held the row, a copy of it and the table at once, near 18.3 MiB.
    On the cyclic 3^12 of [[2, 731], [731, 1460]] it peaks below 1.3
    tables: a strided store of the common count of the multiples of 3
    peaked at 1.667."""
    import sys
    import tracemalloc
    from wittlink import discriminant
    for rows, prime, a, bound in (([[600, 1], [1, 1000]], 599999, 1, 1.1),
                                  ([[2, 731], [731, 1460]], 3, 12, 1.3)):
        d = discriminant_form(form_from_rows(rows))
        [(p, _, orders, _, quad, link2)] = discriminant._primary_components(d)
        assert (p, orders) == (prime, [prime ** a])
        tracemalloc.start()
        try:
            counts, _ = discriminant._homogeneous_counts(quad, link2, p, a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(counts) == p ** a
        assert peak < bound * sys.getsizeof(counts), (rows, peak)


def test_tables_are_bytearrays_exactly_when_every_count_fits():
    """A dense Gauss table holds one byte per count, as a bytearray, exactly
    when its largest count is below 256, and is a list otherwise; either
    way it equals its list oracle entry by entry.  Each builder is met on
    both sides of 256:
    - the closed form, against the walk: Z/1999 of [[2, 1], [1, 1000]]
      (counts up to 2) and (Z/991)^2 of X + X, X of det 991 (count 992 at
      every index but 0);
    - walked 2-parts, as the whole table, against the whole-group
      enumeration: (Z/2)^2 of <2> + <-2> and (Z/2)^12 of A1^12, whose
      counts are near 1024;
    - _merge of a bytearray with a list, against a[x] b[y] placed at
      n x + m y mod m n: Z/1999's table with [1, 3, 0, 0] (top 6) and with
      the list of A1^12 (top 2 * 1056)."""
    from wittlink import discriminant
    x991 = [[4, 1], [1, 248]]
    a1x12 = [[2 * (i == j) for j in range(12)] for i in range(12)]
    tops = {}
    for f in (_block_sum([[2, 1], [1, 1000]]), _block_sum(x991, x991)):
        d = discriminant_form(f)
        [(p, _, orders, size, quad, link2)] = (
            discriminant._primary_components(d))
        closed, _ = discriminant._homogeneous_counts(quad, link2, p, 1)
        walk = Counter()
        discriminant._walk(quad, link2, orders, size, walk.update)
        assert list(closed) == [walk[x] for x in range(size)], f.rows()
        tops["closed", max(closed)] = type(closed)
    for rows in (DIAG_2_M2, a1x12):
        n, table, _, _ = discriminant._gauss_table(form_from_rows(rows),
                                                   10 ** 6)
        want = dict(enumerate_gauss_terms(rows))
        step = 2 * n // len(table)
        assert list(table) == [want.get(x * step, 0)
                               for x in range(len(table))], rows
        tops["walked", max(table)] = type(table)
    z1999 = discriminant._gauss_table(
        form_from_rows([[2, 1], [1, 1000]]), 10 ** 6)[1]
    a1 = discriminant._gauss_table(form_from_rows(a1x12), 10 ** 6)[1]
    for b in ([1, 3, 0, 0], a1):
        assert (type(z1999), type(b)) == (bytearray, list)
        out = discriminant._merge(z1999, b)
        m, n = len(b), len(z1999)
        want = [0] * (m * n)
        for x, y in itertools.product(range(m), range(n)):
            want[(n * x + m * y) % (m * n)] = b[x] * z1999[y]
        assert list(out) == want
        tops["merged", max(out)] = type(out)
    assert {(kind, top < 256) for kind, top in tops} == set(
        itertools.product(("closed", "walked", "merged"), (True, False)))
    for (kind, top), table_type in tops.items():
        assert table_type is (bytearray if top < 256 else list), (kind, top)


def _binary_of_prime_det(rng, p):
    """A random even binary form [[2a, b], [b, 2c]] of |det| = p, b odd:
    det = 4ac - b^2 is 3 mod 4, so det = p or -p as p = 3 or 1 mod 4."""
    det = p if p % 4 == 3 else -p
    b = rng.randrange(1, 60, 2)
    ac = (det + b * b) // 4  # nonzero: p is not a square
    a = rng.choice([x for x in range(1, abs(ac) + 1) if ac % x == 0])
    a *= rng.choice((1, -1))
    return [[2 * a, b], [b, 2 * (ac // a)]]


def test_term_slices_are_the_terms_in_key_order(monkeypatch, rng):
    """The texts of _term_texts, read as JSON, are the nonzero entries of
    the dense table in order, each text those of one slice of r in
    [K 10^D, (K + 1) 10^D) that holds a term; _terms gives the same pairs.
    The first text starts with r = 0 and each later one with ", [", so the
    texts joined are the body of the terms array.
    With D = 1, 2, 3 and back to 1, on tables of step 2 (A8, the trivial
    group of U, the primes 1999 and 599999 and the merged 601199) and of
    step 1 (<2> + <-2>, and diag(2, 2048), whose r cross 10^D), slices cut
    tables mid-way, some hold no term, heads K >= 10 and K >= 100 occur, and
    the offsets are never those cached for another D.

    On (Z/p)^k, p odd and k = 1 or even, _gauss_table also gives the count
    that every nonzero entry after index 0 shares, and the texts written
    with it, one join per slice K >= 1, are those written without it: on
    Z/1999 for +-[[2, 1], [1, 1000]] (the count is 2 even where the table
    has no entry at 1), Z/599999, X + (-X) and X + X for X of det 991, and
    pairs of random binary forms of one random prime det p < 1000, where
    that count is p - 1 or p + 1.  On every other group there is none."""
    from wittlink import discriminant
    x991 = [[4, 1], [1, 248]]
    x31 = [[4, 1], [1, 8]]
    a1x12 = [[2 * (i == j) for j in range(12)] for i in range(12)]
    forms = [form_from_rows(rows) for rows in (
        A8_NEG, HYPERBOLIC, DIAG_2_M2, [[2, 0], [0, 2048]],
        [[2, 1], [1, 1000]], _neg([[2, 1], [1, 1000]]),
        [[600, 1], [1, 1002]], [[600, 1], [1, 1000]])]
    forms += [_block_sum(x991, _neg(x991)), _block_sum(x991, x991)]
    primes = [p for p in range(3, 1000) if all(p % q for q in range(2, p))]
    picked = rng.sample(primes, 6)
    forms += [_block_sum(_binary_of_prime_det(rng, p),
                         _binary_of_prime_det(rng, p)) for p in picked]
    shares = []
    seen = set()
    for f in forms:
        n, table, _, shared = discriminant._gauss_table(f, 10 ** 6)
        shares.append(shared)
        step = 2 * n // len(table)
        want = [(x * step, c) for x, c in enumerate(table) if c]
        for digits in (1, 2, 3, 1):
            monkeypatch.setattr(discriminant, "_DIGITS", digits)
            texts = list(discriminant._term_texts(n, table))
            assert list(discriminant._term_texts(n, table, shared)) == texts
            assert texts[0].startswith("[0, ")
            assert all(text.startswith(", [") for text in texts[1:])
            slices = [json.loads("[" + text.removeprefix(", ") + "]")
                      for text in texts]
            for flat in slices:
                heads = {str(r // 10 ** digits) for r, _ in flat}
                assert len(heads) == 1, (f.rows(), digits)
                seen.add(len(heads.pop()))
            width = 10 ** digits // step
            if len(texts) < -(-len(table) // width):
                seen.add("empty" if shared is None else "empty, shared")
            if len(table) > width:
                seen.add("cut")
            assert [tuple(t) for flat in slices for t in flat] == want
            assert [tuple(t) for t in json.loads(
                "[" + "".join(texts) + "]")] == want
            assert list(discriminant._terms(n, table)) == want
            monkeypatch.undo()
    assert {"empty", "empty, shared", "cut", 2, 3} <= seen
    assert shares[:10] == [None, None, None, None, 2, 2, None, 2, 990, 992]
    assert all(c in (p - 1, p + 1) for p, c in zip(picked, shares[10:]))
    for f in (_block_sum(x31, x31, x31), _block_sum([[2, 1], [1, -60]]),
              _block_sum([[2, 1], [1, 14]]), _block_sum(a1x12)):
        assert discriminant._gauss_table(f, 10 ** 6)[3] is None


def test_merge_agrees_with_the_convolution(rng):
    """The CRT merge of dense Gauss tables is the residue-addition
    convolution of their histograms, on random tables with zero entries
    whose coprime lengths are 1, 2^(a+1), p^a and products of these, and
    three-way merges give one table in every order and grouping."""
    from wittlink import discriminant
    powers = {2: (2, 4, 8, 16), 3: (3, 9, 27), 5: (5, 25), 7: (7,),
              11: (11,), 13: (13,)}

    def table(size):
        return [rng.choice((0, 0, 1, 2, 3, 7)) for _ in range(size)]

    lengths = set()
    for _ in range(300):
        parts = [1, 1, 1]
        for p in rng.sample(sorted(powers), rng.randint(0, 4)):
            parts[rng.randrange(3)] *= rng.choice(powers[p])
        tables = [table(size) for size in parts]
        lengths.update(parts)
        mod = math.prod(parts) * rng.choice((1, 2, 3, 10))
        hists = [dense_histogram(t, mod) for t in tables]
        want = convolve(convolve(hists[0], hists[1], mod), hists[2], mod)
        assert dense_histogram(discriminant._merge(*tables[:2]), mod) == (
            convolve(*hists[:2], mod)), (tables[:2], mod)
        merged = set()
        for a, b, c in itertools.permutations(tables):
            for out in (discriminant._merge(discriminant._merge(a, b), c),
                        discriminant._merge(a, discriminant._merge(b, c))):
                assert len(out) == math.prod(parts)
                assert dense_histogram(out, mod) == want, (tables, mod)
                merged.add(tuple(out))
        assert len(merged) == 1
    assert {1, 2, 16, 3, 27, 25, 13} <= lengths
    assert any(x % 6 == 0 for x in lengths)
    assert any(x % 35 == 0 for x in lengths)


def _milgram_by_fsum(f, g):
    predicted = math.sqrt(abs(determinant(f))) * cmath.exp(
        2j * math.pi * signature(f) / 8)
    return abs(fsum_gauss_value(g) - predicted) < 1e-9


def test_gauss_sum_agrees_with_whole_group_enumeration_and_fsum(rng):
    """terms equal the one-loop enumeration over all of G, and the exact
    check equals Milgram's formula evaluated with fsum, on every form; a
    form paired with the sums of two others matches just those equal to
    its own (mostly none), whatever their complex values."""
    fixtures = _gauss_fixture_rows(rng)
    forms = [form_from_rows(rows) for rows in fixtures]
    sums = [gauss_sum(f) for f in forms]
    orders = {discriminant_form(f).orders for f in forms}
    assert {(), (2, 2), (2, 8), (9,), (27,), (25,), (3, 9), (30,),
            (15, 15), (2, 2, 6, 6), (2,) * 8, (4, 4), (2, 4, 8), (3, 3, 3),
            (10, 50), (3, 3, 3, 3), (50, 50), (16,), (9, 27)} <= orders
    mismatched = 0
    for i, (rows, f, g) in enumerate(zip(fixtures, forms, sums)):
        assert g.terms == enumerate_gauss_terms(rows), rows
        assert g.denominator == discriminant_form(f).denominator
        assert gauss_sum_matches(f, g) is _milgram_by_fsum(f, g) is True
        for other in (sums[i - 1], sums[i - 5]):
            got = gauss_sum_matches(f, other)
            assert got is (other == g), (rows, other)
            mismatched += not got
    assert mismatched >= 300


def test_gauss_sum_on_generated_binary_blocks():
    """On one or two even blocks [[2a, b], [b, 2c]] with 1 <= |det| <=
    2 * 10^4 in all, terms equal the one-loop enumeration and the exact
    check equals Milgram's formula evaluated with fsum.  Pairs draw smaller
    entries, so that about half the examples are pairs within the bound."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def block(bound):
        entry = st.integers(-bound, bound)
        return st.tuples(entry, entry, entry).map(
            lambda t: [[2 * t[0], t[1]], [t[1], 2 * t[2]]])

    @hypothesis.settings(derandomize=True, deadline=None, database=None)
    @hypothesis.given(st.tuples(block(60)) | st.tuples(block(12), block(12)))
    def check(blocks):
        hypothesis.assume(0 < abs(math.prod(
            x[0][0] * x[1][1] - x[0][1] ** 2 for x in blocks)) <= 2 * 10 ** 4)
        rows = _block_sum(*blocks).rows()
        f = form_from_rows(rows)
        g = gauss_sum(f)
        assert g.terms == enumerate_gauss_terms(rows)
        assert gauss_sum_matches(f, g) is _milgram_by_fsum(f, g) is True

    check()


def test_gauss_check_rejects_a_moved_count(monkeypatch):
    """A hand-built value with one count moved, also off the residues a
    component can take, is not the Gauss sum; and in the exact ring check,
    every component's dense table, walked (p = 2 and orders (3, 9)) or in
    closed form (p = 3 and 5), has its phase, and loses it with one count
    moved to any other index or with the counts at two indices swapped."""
    from wittlink import discriminant
    fixtures = [A8_NEG, [[2, 1], [1, 14]], [[2, 0], [0, 8]],
                _block_sum(A2, A8_NEG).rows(),
                _block_sum([[2]], A2, [[2, 1], [1, -2]]).rows(),
                _block_sum([[4, 1], [1, 4]], [[4, 1], [1, 4]]).rows(),
                _block_sum(D4, [[2, 1], [1, -12]]).rows(),
                _block_sum(*[[[2, 1], [1, -2]]] * 3).rows()]
    calls = []
    real = discriminant._component_phase
    real_closed = discriminant._homogeneous_counts

    def record(table, p, e):
        k = real(table, p, e)
        calls.append((list(table), (p, e), k))
        return k

    def record_closed(quad, link2, p, a):
        counts, k = real_closed(quad, link2, p, a)
        calls.append((list(counts), (p, len(quad) * a), k))
        return counts, k

    for rows in fixtures:
        f = form_from_rows(rows)
        g = gauss_sum(f)
        two_n = 2 * g.denominator
        for r, _ in g.terms:
            moved = dict(g.terms)
            moved[r] -= 1
            to = (r + 1) % two_n
            moved[to] = moved.get(to, 0) + 1
            terms = tuple(sorted((x, y) for x, y in moved.items() if y))
            assert not gauss_sum_matches(f, GaussSumValue(g.denominator,
                                                          terms))
        assert gauss_sum_matches(f, GaussSumValue(g.denominator, g.terms))
    monkeypatch.setattr(discriminant, "_component_phase", record)
    monkeypatch.setattr(discriminant, "_homogeneous_counts", record_closed)
    for rows in fixtures:
        gauss_sum(form_from_rows(rows))
    assert {rest[0] for _, rest, _ in calls} == {2, 3, 5}
    for counts, rest, k in calls:
        assert real(counts, *rest) == k is not None
        for r in filter(counts.__getitem__, range(len(counts))):
            for to in range(len(counts)):
                if to == r:
                    continue
                moved = list(counts)
                moved[r] -= 1
                moved[to] += 1
                swapped = list(counts)
                swapped[r], swapped[to] = counts[to], counts[r]
                for bad in (moved, swapped):
                    if bad != counts:
                        assert real(bad, *rest) != k, (counts, r, to, bad)


def _walked_phase_by_floats(table, p, e):
    """The k whose sqrt(p^e) e^(2 pi i k / 8) is the cmath value of the
    table's sum, or None."""
    size = len(table)
    z = sum(c * cmath.exp(2j * math.pi * x / size)
            for x, c in enumerate(table) if c)
    ks = [k for k in range(8) if abs(z - math.sqrt(p ** e) * cmath.exp(
        2j * math.pi * k / 8)) < 1e-7 * max(1, abs(z))]
    assert len(ks) <= 1
    return ks[0] if ks else None


def test_walked_phases_agree_with_floats(rng):
    """On every walked component of 500 random even forms of |det| <= 2 *
    10^4, block sums of U(2^a), V(2^a), <2^e u>, <2 3^i s> + <2 3^j t>,
    <10 s> + <50 t> and small random blocks, _component_phase is the phase
    of the cmath value of the table's sum.  With one count moved, the sum
    changes, so the phase does too, and it is again the float one: mostly
    None, but a small table can land on another candidate, such as the
    table [1, 1, 0, 0] of <1/2>, 1 + i, moved to [0, 1, 1, 0], i - 1."""
    from wittlink import discriminant
    from wittlink.witt import _split

    def block():
        kind = rng.randrange(6)
        a, u = rng.randint(0, 3), rng.choice((-3, -1, 1, 3, 5))
        if kind == 0:
            return [[0, 2 ** a], [2 ** a, 0]]
        if kind == 1:
            return [[2 ** (a + 1), 2 ** a], [2 ** a, 2 ** (a + 1)]]
        if kind == 2:
            return [[2 ** (a + 1) * u]]
        if kind == 3:
            i, j = rng.sample((1, 2, 3), 2)
            return _block_sum([[2 * 3 ** i * u]],
                              [[2 * 3 ** j * rng.choice((-1, 1))]]).rows()
        if kind == 4:
            return _block_sum([[10 * u]], [[50 * rng.choice((-1, 1))]]).rows()
        return random_even_form_rows(rng, rng.randint(1, 3), entry_bound=6)

    seen, moved_phases = Counter(), Counter()
    forms = 0
    while forms < 500:
        f = _block_sum(*(block() for _ in range(rng.randint(1, 3))))
        if abs(f.minors[-1]) > 2 * 10 ** 4:
            continue
        forms += 1
        d = discriminant_form(f)
        for p, _, orders, size, quad, link2 in (
                discriminant._primary_components(d)):
            if orders[0] == size:  # odd p, equal orders: closed form
                continue
            e = _split(math.prod(orders), p)[0]
            walk = Counter()
            discriminant._walk(quad, link2, orders, size, walk.update)
            table = [walk[x] for x in range(size)]
            k = discriminant._component_phase(table, p, e)
            assert k is not None and k == _walked_phase_by_floats(
                table, p, e), (p, orders, table)
            seen[(p, tuple(orders), k)] += 1
            moved = list(table)
            x = rng.choice([x for x, c in enumerate(table) if c])
            moved[x] -= 1
            moved[rng.choice([y for y in range(size) if y != x])] += 1
            got = discriminant._component_phase(moved, p, e)
            assert got != k and got == _walked_phase_by_floats(
                moved, p, e), (p, orders, moved)
            moved_phases[got] += 1
    walked = {(p, orders) for p, orders, _ in seen}
    assert {(2, (2,)), (2, (4,)), (2, (8,)), (2, (16,)), (2, (2, 2)),
            (2, (4, 4)), (3, (3, 9)), (3, (3, 27)), (5, (5, 25))} <= walked
    # U(2) and V(2) sum to 2 and -2 on (Z/2)^2
    assert (2, (2, 2), 0) in seen and (2, (2, 2), 4) in seen
    assert moved_phases[None] > sum(moved_phases.values()) / 2
