from itertools import repeat

import pytest

from conftest import naive_window_search
from wittlink import (PretzelKnot, SearchWindow, SolutionRecord,
                      boundary_is_zero, pretzel_signature, pretzel_witt_class,
                      residue_prefilter, search, symmetric_window,
                      verify_negative_restriction,
                      witness_both_positive_residues)
from wittlink.diophantine import _parity_values, _solve, csv_chunks
from wittlink.errors import NotFoundError


def test_search_finds_reference_rows():
    w = symmetric_window(9, 10, 11)
    rows = {(r.p, r.q, r.r): (r.m, r.p_plus_q_mod_8) for r in search(w, 1)}
    assert rows[(3, 7, 6)] == (9, 2)
    assert rows[(-9, 3, -6)] == (3, 2)
    assert rows[(-7, -3, -10)] == (11, 6)
    assert rows[(3, -5, -8)] == (1, 6)


def test_search_negative_example():
    w = symmetric_window(5, 4, 3)
    recs = {(r.p, r.q, r.r): r for r in search(w, -1)}
    rec = recs[(3, 5, -2)]
    assert rec.m == 1 and rec.p_plus_q_mod_8 == 0


def test_search_matches_naive_oracle():
    for bound, sign in ((12, -1), (12, 1), (25, -1)):
        w = symmetric_window(bound, bound, bound)
        got = [(r.p, r.q, r.r, r.m) for r in search(w, sign)]
        assert got == naive_window_search(bound, sign, bound)


def test_search_dedupe():
    w = symmetric_window(9, 10, 11)
    deduped = search(w, 1, dedupe=True)
    assert all(r.p <= r.q for r in deduped)
    full = {(r.p, r.q) for r in search(w, 1)}
    assert {(r.p, r.q) for r in deduped} == {pq for pq in full if pq[0] <= pq[1]}


def test_verify_negative_restriction():
    assert verify_negative_restriction(symmetric_window(15, 16, 15))
    # vacuous windows
    assert verify_negative_restriction(SearchWindow((3, 3), (3, 3), (2, 2), 1))
    assert verify_negative_restriction(SearchWindow((1, 1), (1, 1), (2, 2), 9))


def test_residue_prefilter():
    assert residue_prefilter(-1) == {0, 4}
    assert residue_prefilter(1) == {2, 6}
    with pytest.raises(ValueError):
        residue_prefilter(2)


def test_records_lie_in_prefilter():
    for sign in (1, -1):
        allowed = residue_prefilter(sign)
        for rec in search(symmetric_window(11, 12, 13), sign):
            assert rec.p_plus_q_mod_8 in allowed


def test_witness_both_positive_residues():
    two, six = witness_both_positive_residues(symmetric_window(9, 10, 11))
    assert two.p_plus_q_mod_8 == 2 and six.p_plus_q_mod_8 == 6
    assert two.sign == 1 and six.sign == 1
    with pytest.raises(NotFoundError):
        witness_both_positive_residues(SearchWindow((1, 1), (1, 1), (0, 0), 1))


def test_witness_is_first_search_record_of_each_residue():
    for w in (symmetric_window(9, 10, 11), symmetric_window(25, 4, 7),
              SearchWindow((-13, 7), (-5, 15), (-9, 12), 11)):
        recs = search(w, 1)
        assert witness_both_positive_residues(w) == tuple(
            next(x for x in recs if x.p_plus_q_mod_8 == k) for k in (2, 6))


def test_negative_solutions_bridge_to_pretzels():
    for rec in search(symmetric_window(11, 12, 11), -1):
        k = PretzelKnot(rec.p, rec.q, rec.r)
        if rec.r != 0:
            assert boundary_is_zero(pretzel_witt_class(k))
        if rec.p + rec.q != 0:
            assert pretzel_signature(k) == -(rec.p + rec.q)
            assert (rec.p + rec.q) % 8 == 0


def test_window_validation():
    with pytest.raises(ValueError):
        SearchWindow((5, 3), (1, 1), (0, 0), 1)
    with pytest.raises(ValueError):
        SearchWindow((1, 1), (1, 1), (0, 0), 0)
    with pytest.raises(ValueError):
        search(symmetric_window(3, 2, 1), 0)


# (p_range, q_range, r_range, m_max): asymmetric windows, m_max below and
# above the window, with and without pairs p + q = 0.  The later ones probe
# the scan's offsets: rows of p > q_hi that dedupe leaves empty, s = p + q
# ranges that exclude 0 on either side, no even r, m_max = 1, no odd q.
# The last three have q_lo < p_lo and rows of p > q_hi; their pairs
# p + q = 0 have |p| on both sides of m_max.  Some windows have equal p
# and q ranges, some ranges closed under negation, most neither.
ORACLE_WINDOWS = [
    ((-13, 7), (-5, 15), (-9, 12), 11),
    ((-13, 7), (-5, 15), (-9, 12), 3),
    ((1, 15), (3, 17), (-20, 4), 31),
    ((-15, -3), (-11, -1), (-6, 18), 25),
    ((-7, 9), (-9, 7), (2, 14), 5),
    ((-9, 9), (-9, 9), (-12, -2), 45),
    ((4, 4), (-11, 11), (-10, 10), 13),
    ((-5, 21), (-9, 9), (-14, 14), 27),
    ((6, 20), (-8, 2), (-16, 12), 23),
    ((5, 19), (-3, 1), (-12, 12), 21),
    ((-19, -5), (-1, 3), (-12, 12), 21),
    ((-9, 9), (-9, 9), (3, 3), 15),
    ((-9, 9), (-7, 11), (-10, 10), 1),
    ((-9, 9), (2, 2), (-10, 10), 9),
    ((-11, 13), (-15, 11), (-4, 8), 7),
    ((-9, 17), (-17, 5), (-10, 10), 11),
    ((-21, 21), (-23, 19), (-8, 8), 13),
]


def test_search_matches_naive_oracle_on_asymmetric_windows():
    for p_range, q_range, r_range, m_max in ORACLE_WINDOWS:
        w = SearchWindow(p_range, q_range, r_range, m_max)
        for sign in (1, -1):
            want = naive_window_search(None, sign, m_max, p_range=p_range,
                                       q_range=q_range, r_range=r_range)
            got = [(r.p, r.q, r.r, r.m) for r in search(w, sign)]
            assert got == want
            deduped = [(r.p, r.q, r.r, r.m)
                       for r in search(w, sign, dedupe=True)]
            assert deduped == [row for row in want if row[0] <= row[1]]


def swap_only_twin(bound, r_bound, m_max):
    """The window of ``symmetric_window(bound, r_bound, m_max)``'s pairs
    and even r whose r range is not closed under negation: its upper end
    is odd, one past or one short of r_bound.  So ``_solve`` uses the swap
    alone on it, and negation as well on the symmetric window."""
    r_hi = r_bound + 1 if r_bound % 2 == 0 else r_bound - 1
    return SearchWindow((-bound, bound), (-bound, bound), (-r_bound, r_hi),
                        m_max)


def counted_moduli(monkeypatch):
    """The list that the moduli of every product looked up go to."""
    import operator
    import types

    from wittlink import diophantine
    moduli = []

    def mod(x, n):
        moduli.append(n)
        return x % n

    monkeypatch.setattr(diophantine, "operator", types.SimpleNamespace(
        mod=mod, itemgetter=operator.itemgetter))
    return moduli


def test_each_unordered_pair_is_looked_up_once(monkeypatch):
    """With the swap alone the lookup pass reduces the product of each
    unordered live pair {p, q} of the window once, modulo 2|p + q| (1 at
    p + q = 0): a pair (p, q) with q < p comes from the row that solved
    (q, p)."""
    moduli = counted_moduli(monkeypatch)
    for bound in (9, 15):
        odd = range(-bound, bound + 1, 2)
        w = swap_only_twin(bound, bound, bound)
        for sign, (k, c) in ((-1, (8, 0)), (1, (4, 2))):
            moduli.clear()
            got = [(r.p, r.q, r.r, r.m) for r in search(w, sign)]
            assert got == naive_window_search(bound, sign, bound)
            assert sorted(moduli) == sorted(
                2 * abs(p + q) or 1 for p in odd for q in odd
                if p <= q and (p + q - c) % k == 0)


def solved(w, sign, live):
    """The (p, q, r, m) of _solve's rows in class ``live``, with None, the
    rows at s = 0, expanded as search expands it."""
    evens = _parity_values(*w.r_range, 0)
    return [(p, q, r, m) for p, pairs in _solve(w, sign, live=live)
            for q, rows in pairs
            for r, m in rows or zip(evens, repeat(abs(p)))]


def test_each_orbit_is_looked_up_once(monkeypatch):
    """On a window closed under p <-> q and under negation, the lookup pass
    reduces the product of each orbit {(p, q), (q, p), (-p, -q), (-q, -p)}
    of live pairs once, from its member with p < 0 and p <= q <= -p:
    about half of the unordered pairs.  The verify classes are closed
    under negation too."""
    moduli = counted_moduli(monkeypatch)
    for bound in (9, 15):
        odd = range(-bound, bound + 1, 2)
        w = symmetric_window(bound, bound, bound)
        for sign, (k, c) in ((-1, (8, 0)), (1, (4, 2)), (-1, (4, 2)),
                             (-1, (8, 4))):
            moduli.clear()
            got = solved(w, sign, (k, c))
            assert got == [row for row in naive_window_search(bound, sign,
                                                              bound)
                           if (row[0] + row[1] - c) % k == 0]
            assert sorted(moduli) == sorted(
                2 * abs(p + q) or 1 for p in odd for q in odd
                if p < 0 and p <= q <= -p and (p + q - c) % k == 0)


def odd_values(lo, hi):
    return range(lo + 1 - lo % 2, hi + 1, 2)


def test_windows_without_the_swap_look_up_each_pair_once(monkeypatch):
    """On a window whose three ranges are closed under negation but whose p
    and q ranges differ, the lookup pass reduces the product of each live
    pair with p < 0 once, with and without dedupe: the pair (-p, -q) comes
    from it, and so does every pair with p > 0.  On a window closed under
    neither symmetry it reduces that of each live pair once, and under
    dedupe only those with q >= p."""
    moduli = counted_moduli(monkeypatch)
    for p_range, q_range, r_range, m_max in (
            ((-9, 9), (-15, 15), (-10, 10), 11),
            ((-14, 14), (-5, 5), (-7, 7), 13),
            ((-1, 1), (-12, 12), (0, 0), 9),
            ((-13, 7), (-5, 15), (-9, 12), 11),
            ((-9, 9), (-15, 15), (-10, 12), 11),
            ((5, 19), (-3, 1), (-12, 12), 21),
            ((-21, 21), (-23, 19), (-8, 8), 13)):
        w = SearchWindow(p_range, q_range, r_range, m_max)
        neg = all(lo == -hi for lo, hi in (p_range, q_range, r_range))
        for sign, (k, c) in ((-1, (8, 0)), (1, (4, 2))):
            want = naive_window_search(None, sign, m_max, p_range=p_range,
                                       q_range=q_range, r_range=r_range)
            for dedupe in (False, True):
                moduli.clear()
                got = [(r.p, r.q, r.r, r.m) for r in search(w, sign, dedupe)]
                assert got == [row for row in want
                               if row[0] <= row[1] or not dedupe]
                assert sorted(moduli) == sorted(
                    2 * abs(p + q) or 1 for p in odd_values(*p_range)
                    for q in odd_values(*q_range)
                    if (p < 0 if neg else p <= q or not dedupe)
                    and (p + q - c) % k == 0)


def test_each_root_table_is_built_once(monkeypatch):
    """Each _solve call builds the root table of each distinct modulus
    2|s| of its scanned class once, before the first row, and none for
    s = 0, whose entry (modulus 1) is a sentinel: it is empty at sign +1
    and on a window with no even r, so no row has p + q = 0 there."""
    from wittlink import diophantine
    built = []
    odd_roots = diophantine._odd_roots

    def counted(mod, odds, squares):
        built.append(mod)
        return odd_roots(mod, odds, squares)

    monkeypatch.setattr(diophantine, "_odd_roots", counted)
    cases = [(symmetric_window(bound, bound, bound), sign, live)
             for bound in (9, 15)
             for sign, live in ((-1, (8, 0)), (1, (4, 2)), (-1, (4, 2)),
                                (-1, (8, 4)))]
    cases += [(SearchWindow((-13, 7), (-5, 15), (-9, 12), 11), sign, live)
              for sign, live in ((-1, (8, 0)), (1, (4, 2)))]
    for w, sign, (k, c) in cases:
        built.clear()
        next(_solve(w, sign, live=(k, c)), None)  # all built by row one
        assert sorted(built) == sorted(
            {2 * abs(p + q) for p in odd_values(*w.p_range)
             for q in odd_values(*w.q_range)
             if p + q and (p + q - c) % k == 0})
        assert 1 not in built
    # s = 0 is scanned in every case below; only the last has s = 0 rows
    for w, sign, zero_rows in (
            (symmetric_window(9, 10, 9), 1, False),
            (SearchWindow((-9, 9), (-9, 9), (1, 1), 9), -1, False),
            (SearchWindow((-9, 9), (-9, 9), (-1, 1), 9), -1, True)):
        qs = [q for p, pairs in _solve(w, sign, live=(8, 0))
              for q, _ in pairs if p + q == 0]
        assert bool(qs) == zero_rows


def test_random_negation_only_windows_match_naive_oracle(rng):
    """On 100 random windows closed under negation, with p and q ranges that
    mostly differ, search and csv_chunks of both signs, with and without
    dedupe, give the naive triple loop's rows, and verify holds iff every
    naive -m^2 solution has p + q = 0 mod 8.  Under dedupe a pair with
    0 < p < q comes from (-p, -q), whose q < p: a scan that looked up only
    q >= p there would miss it."""
    for _ in range(100):
        p_range, q_range, r_range = [(-b, b) for b in (
            rng.randint(0, 13), rng.randint(0, 13), rng.randint(0, 12))]
        m_max = rng.randint(1, 29)
        w = SearchWindow(p_range, q_range, r_range, m_max)
        for sign in (1, -1):
            want = naive_window_search(None, sign, m_max, p_range=p_range,
                                       q_range=q_range, r_range=r_range)
            deduped = [row for row in want if row[0] <= row[1]]
            assert [(r.p, r.q, r.r, r.m) for r in search(w, sign)] == want
            assert [(r.p, r.q, r.r, r.m)
                    for r in search(w, sign, dedupe=True)] == deduped
            assert "".join(csv_chunks(w, sign)) == naive_csv(want, sign)
            assert "".join(csv_chunks(w, sign, dedupe=True)) == naive_csv(
                deduped, sign)
        assert verify_negative_restriction(w) == all(
            (p + q) % 8 == 0 for p, q, _, _ in want)


# (bound, r_bound, m_max) of symmetric windows: bounds 0 and 1, m_max below
# and above the bound, so that pairs p + q = 0 drop out or stay, and r
# bounds 0 and 1, where r = 0 is the only even r.
SYMMETRIC_WINDOWS = [(bound, r_bound, m_max)
                     for bound in (0, 1, 3, 5, 8, 11)
                     for r_bound in (0, 1, 6, 13)
                     for m_max in sorted({1, max(1, bound - 2), bound + 2,
                                          2 * bound + 5})]


def test_orbit_path_matches_naive_oracle_and_swap_only_path():
    """On symmetric windows, where both symmetries serve, _solve yields what
    the naive triple loop finds and what the swap alone yields, for both
    signs, with and without dedupe, in every live class that negation
    keeps: the two verify classes and that of every even s as well.
    Negation does not keep the class s = 2 (mod 8), so there the swap
    alone serves."""
    for bound, r_bound, m_max in SYMMETRIC_WINDOWS:
        w = symmetric_window(bound, r_bound, m_max)
        twin = swap_only_twin(bound, r_bound, m_max)
        for sign in (1, -1):
            want = naive_window_search(bound, sign, m_max, r_bound)
            got = [(r.p, r.q, r.r, r.m) for r in search(w, sign)]
            assert got == want, (bound, r_bound, m_max, sign)
            assert [(r.p, r.q, r.r, r.m)
                    for r in search(w, sign, dedupe=True)] == [
                row for row in want if row[0] <= row[1]]
            for dedupe in (False, True):
                assert "".join(csv_chunks(w, sign, dedupe)) == "".join(
                    csv_chunks(twin, sign, dedupe))
            for k, c in ((4, 2), (8, 4), (2, 0), (8, 2)):
                got = solved(w, sign, (k, c))
                assert got == [row for row in want
                               if (row[0] + row[1] - c) % k == 0]
                assert list(_solve(w, sign, live=(k, c))) == list(
                    _solve(twin, sign, live=(k, c)))
        assert verify_negative_restriction(w)


def test_witness_stops_the_orbit_path_like_the_swap_only_path():
    """witness_both_positive_residues stops part-way through the stream,
    while images of negation still wait for later rows: on symmetric
    windows it finds the first record of each residue, as with the swap
    alone."""
    for bound, r_bound, m_max in SYMMETRIC_WINDOWS:
        w = symmetric_window(bound, r_bound, m_max)
        positive = naive_window_search(bound, 1, m_max, r_bound)
        firsts = tuple(next((SolutionRecord(p, q, r, m, 1, k)
                             for p, q, r, m in positive if (p + q) % 8 == k),
                            None)
                       for k in (2, 6))
        if None in firsts:
            for window in (w, swap_only_twin(bound, r_bound, m_max)):
                with pytest.raises(NotFoundError):
                    witness_both_positive_residues(window)
        else:
            assert witness_both_positive_residues(w) == firsts
            assert witness_both_positive_residues(
                swap_only_twin(bound, r_bound, m_max)) == firsts


def naive_csv(rows, sign):
    return "p,q,r,m,sign,p_plus_q_mod_8\n" + "".join(
        f"{p},{q},{r},{m},{sign},{(p + q) % 8}\n" for p, q, r, m in rows)


def test_csv_chunks_match_naive_oracle_on_asymmetric_windows():
    # in these windows the mirror (q, p) of a solved pair often falls
    # outside, so the chunks of both kinds of pair are checked
    for p_range, q_range, r_range, m_max in ORACLE_WINDOWS:
        w = SearchWindow(p_range, q_range, r_range, m_max)
        for sign in (1, -1):
            want = naive_window_search(None, sign, m_max, p_range=p_range,
                                       q_range=q_range, r_range=r_range)
            assert "".join(csv_chunks(w, sign)) == naive_csv(want, sign)
            assert "".join(csv_chunks(w, sign, dedupe=True)) == naive_csv(
                [row for row in want if row[0] <= row[1]], sign)


def test_csv_chunks_hold_one_row_each():
    """csv_chunks writes the header line alone, then one chunk per row p,
    holding the lines of that p alone, in strictly increasing p; _solve
    yields the same rows, each p once, with its pairs in strictly
    increasing q."""
    windows = [SearchWindow(*args) for args in ORACLE_WINDOWS] + [
        symmetric_window(*args) for args in SYMMETRIC_WINDOWS]
    for w in windows:
        for sign in (1, -1):
            for dedupe in (False, True):
                chunks = csv_chunks(w, sign, dedupe)
                assert next(chunks) == "p,q,r,m,sign,p_plus_q_mod_8\n"
                ps = []
                for chunk in chunks:
                    (p,) = {int(line.split(",")[0])
                            for line in chunk.splitlines()}
                    ps.append(p)
                assert ps == sorted(set(ps))
                rows = list(_solve(w, sign, dedupe))
                assert [p for p, _ in rows] == ps
                for _, pairs in rows:
                    qs = [q for q, _ in pairs]
                    assert qs and qs == sorted(set(qs))


def test_verify_and_witness_match_their_search_definitions():
    for p_range, q_range, r_range, m_max in ORACLE_WINDOWS:
        w = SearchWindow(p_range, q_range, r_range, m_max)
        ranges = {"p_range": p_range, "q_range": q_range, "r_range": r_range}
        negative = naive_window_search(None, -1, m_max, **ranges)
        assert verify_negative_restriction(w) == all(
            (p + q) % 8 == 0 for p, q, _, _ in negative)
        positive = naive_window_search(None, 1, m_max, **ranges)
        firsts = tuple(next((SolutionRecord(p, q, r, m, 1, k)
                             for p, q, r, m in positive if (p + q) % 8 == k),
                            None)
                       for k in (2, 6))
        if None in firsts:
            with pytest.raises(NotFoundError):
                witness_both_positive_residues(w)
        else:
            assert witness_both_positive_residues(w) == firsts


def test_search_separate_r_bound_matches_naive_oracle():
    for bound, r_bound, m_max in ((11, 4, 21), (7, 20, 9)):
        for sign in (1, -1):
            got = [(r.p, r.q, r.r, r.m)
                   for r in search(symmetric_window(bound, r_bound, m_max),
                                   sign)]
            assert got == naive_window_search(bound, sign, m_max, r_bound)


def test_verify_agrees_with_search_on_random_windows(rng):
    """On 100 random asymmetric windows, search of both signs, with and
    without dedupe, is the naive triple loop's, and verify holds iff every
    naive -m^2 solution has p + q = 0 mod 8."""
    for _ in range(100):
        p_range, q_range, r_range = [
            tuple(sorted((rng.randint(-12, 12), rng.randint(-12, 12))))
            for _ in range(3)]
        m_max = rng.randint(1, 25)
        w = SearchWindow(p_range, q_range, r_range, m_max)
        for sign in (1, -1):
            want = naive_window_search(None, sign, m_max, p_range=p_range,
                                       q_range=q_range, r_range=r_range)
            assert [(r.p, r.q, r.r, r.m) for r in search(w, sign)] == want
            assert [(r.p, r.q, r.r, r.m)
                    for r in search(w, sign, dedupe=True)] == [
                row for row in want if row[0] <= row[1]]
        # want now holds the naive -m^2 solutions
        assert verify_negative_restriction(w) == all(
            (p + q) % 8 == 0 for p, q, _, _ in want)
