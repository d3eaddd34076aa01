"""Window searches for pq + pr + qr = (+-)m^2 with p, q, m odd and r even.

Write s = p + q and sign for the +-1.  For s != 0 the equation reads
r = (sign*m^2 - pq)/s, and r is an even integer exactly when
m^2 = sign*pq (mod 2|s|).  Since p is odd, ps = s (mod 2s), so
pq = ps - p^2 = s - p^2 and the congruence reads

    m^2 + sign*p^2 = sign*s  (mod 2|s|).

Here s is even, odd squares are 1 mod 8, and 8 divides 2|s| when 4
divides s.

- sign = -1: the left side is 0 mod 8.  With s = 2 mod 4 it gives
  0 = 2 (mod 4), and with s = 4 mod 8 it gives 0 = 4 (mod 8), so
  s = 0 (mod 8).  This is the paper's restriction: the even form behind
  the equation has vanishing linking form, so its signature -(p+q) is a
  multiple of 8.
- sign = +1: the left side is 2 mod 8.  With 4 | s it would give
  s = 2 (mod 8), which 4 does not divide, so s = 2 (mod 4); the searches
  realize both 2 and 6 mod 8.

For s = 0 the equation reads -p^2 = sign*m^2, solved for every even r by
m = |p| when sign = -1 and never when sign = +1; 0 lies in the class
0 mod 8.  So each sign has one live class of s, and the searches scan
only it, each p-row with a stride of 8 or 4 in q.  Searches are
exhaustive over finite windows: each pair (p, q) is one lookup in a table
of odd square roots modulo 2|p + q|, and each p-row of pairs is looked up
in one C-level pass.  The equation is symmetric in p and q, and
homogeneous of degree 2, so (p, q, r) -> (-p, -q, -r) maps solutions to
solutions with the same m; it keeps pq and the modulus 2|s|, and maps
each live class of s to itself.  The window decides which symmetries the
search uses: p <-> q when the p and q ranges are equal, negation when
every range is closed under it.  Each orbit of pairs under those is
looked up once, and its other members wait in per-row lists; every
``symmetric_window`` has both.  ``verify_negative_restriction`` scans
every other class of s of the negative sign, which checks this argument
by exhaustion.
"""

from __future__ import annotations

import operator
from collections import defaultdict, namedtuple
from itertools import compress, repeat

from .errors import NotFoundError, NotIntegerError


class SearchWindow(namedtuple("SearchWindow",
                              "p_range q_range r_range m_max")):
    """Inclusive parameter ranges, each an int pair (lo, hi), and the int
    m_max; parity is enforced during iteration."""

    __slots__ = ()

    def __new__(cls, p_range, q_range, r_range, m_max):
        for x in (*p_range, *q_range, *r_range, m_max):
            if not isinstance(x, int) or isinstance(x, bool):
                raise NotIntegerError(f"non-integer window bound {x!r}")
        for lo, hi in (p_range, q_range, r_range):
            if lo > hi:
                raise ValueError("empty range")
        if m_max < 1:
            raise ValueError("m_max must be at least 1")
        return super().__new__(cls, p_range, q_range, r_range, m_max)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: check it too
        return cls(*iterable)


def symmetric_window(pq_bound: int, r_bound: int, m_max: int) -> SearchWindow:
    return SearchWindow(p_range=(-pq_bound, pq_bound),
                        q_range=(-pq_bound, pq_bound),
                        r_range=(-r_bound, r_bound), m_max=m_max)


class SolutionRecord(namedtuple("SolutionRecord",
                                "p q r m sign p_plus_q_mod_8")):
    """One solution of pq + pr + qr = sign * m^2, all ints."""

    __slots__ = ()


# The class (k, c), s = c (mod k), of s = p + q that holds every solution
# of each sign (module docstring).
_LIVE = {-1: (8, 0), 1: (4, 2)}


def _parity_values(lo: int, hi: int, parity: int):
    start = lo if lo % 2 == parity % 2 else lo + 1
    return range(start, hi + 1, 2)


def _odd_roots(mod: int, odds: range,
               squares: list[int]) -> dict[int, list[int]]:
    """Map each residue x mod ``mod`` to the m of ``odds`` with m^2 = x;
    ``squares`` lists their squares."""
    table = {}
    for m, x in zip(odds, squares):
        table.setdefault(x % mod, []).append(m)
    return table


def _solve(w: SearchWindow, sign: int, dedupe: bool = False, live=None,
           render=list):
    """Yield (p, pairs) once for each odd p with a solution in w: pairs
    lists the (q, rows) of every solved pair of row p, in increasing q.

    Only pairs whose s = p + q lies in the class ``live`` = (k, c), that
    is s = c (mod k), are scanned: by default the live class of ``sign``.
    For s != 0 a pair is one lookup of sign*pq mod 2|s| in the table of
    odd roots modulo 2|s| (module docstring).  Before the first row, one
    table is built per distinct modulus from one list of odd squares.
    Only s = 0 has modulus 1, and its entry is a sentinel that every
    product hits at sign -1 when the window has an even r, else empty.
    Tables and moduli are indexed by (s - s_min)/k.  Along one p, sign*pq
    is an arithmetic progression in q of step k*sign*p, so a whole row of
    pairs is looked up in one C-level pass and only the hits run Python.

    rows are the (r, m) of the pair in increasing r, passed through
    ``render`` (``list`` by default, which keeps them) when s != 0.  None
    stands for the rows at s = 0, (r, |p|) for every even r, built only
    when yielded, by the caller: at sign +1 the s = 0 entry is empty and
    the verify classes hold no s = 0, so
    ``witness_both_positive_residues`` never sees None.  The window
    decides which symmetries save lookups: ``swap`` when its p and q
    ranges are equal, and ``neg`` when all three ranges are closed under
    negation and so is the class (2c = 0 mod k).  Row p looks up one
    interval of q: from max(p, q_lo) under swap, or under dedupe without
    neg, else from q_lo (under dedupe, a pair 0 < p < q is the image of
    (-p, -q), whose q < p); up to -p under both, else up to q_hi; and rows
    p > 0 look up nothing under neg.  Each solved pair appends its images
    to the list of their row in ``later``, each once and under dedupe only
    those with p <= q: itself, (q, p) under swap, (-p, -q) under neg and
    (-q, -p) under both, the last two with r negated and the rows
    reversed.  Every image lands in a later row or is the pair itself, so
    row p is complete after its lookups and yields its list, sorted by q
    in place: rows come in increasing p.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    k, c = live or _LIVE[sign]
    p_lo, p_hi = w.p_range
    q_lo, q_hi = w.q_range
    r_lo, r_hi = w.r_range
    evens = _parity_values(r_lo, r_hi, 0)
    ps = _parity_values(p_lo, p_hi, 1)
    qs = _parity_values(q_lo, q_hi, 1)
    if not ps or not qs:
        return
    swap = w.p_range == w.q_range
    neg = (p_lo == -p_hi and q_lo == -q_hi and r_lo == -r_hi
           and 2 * c % k == 0)
    s_min = ps[0] + qs[0]
    s_min += (c - s_min) % k
    odds = range(1, w.m_max + 1, 2)
    squares = [m * m for m in odds]
    mods = [2 * abs(s) or 1 for s in range(s_min, ps[-1] + qs[-1] + 1, k)]
    roots = {mod: _odd_roots(mod, odds, squares) for mod in set(mods) - {1}}
    roots[1] = {0: True} if sign == -1 and evens else {}
    tables = [roots[mod] for mod in mods]
    later = defaultdict(list)
    for p in ps:
        lo = max(p, q_lo) if swap or dedupe and not neg else q_lo
        hi = -p if swap and neg else q_hi
        row = range(lo + (c - p - lo) % k, hi + 1, k)
        if row and not (neg and p > 0):
            a = (p + row[0] - s_min) // k
            b = a + len(row)
            step = k * sign * p
            products = range(sign * p * row[0],
                             sign * p * row[-1] + step, step)
            hits = list(map(dict.get, tables[a:b],
                            map(operator.mod, products, mods[a:b])))
            for q, ms in zip(compress(row, hits), filter(None, hits)):
                s = p + q
                if s:
                    pq = p * q
                    rows = [(r, m) for m in ms
                            if r_lo <= (r := (sign * m * m - pq) // s) <= r_hi]
                    if not rows:
                        continue
                    if sign * s < 0:
                        rows.reverse()
                    if neg:
                        negs = render([(-r, m) for r, m in reversed(rows)])
                    rows = render(rows)
                elif abs(p) <= w.m_max:
                    rows = negs = None
                else:
                    continue
                if p <= q or not dedupe:
                    later[p].append((q, rows))
                if swap and p < q and not dedupe:
                    later[q].append((p, rows))
                if swap and neg and q < -p:
                    later[-q].append((-p, negs))
                # under swap, (-p, -q) is (-q, -p) at q = p, (q, p) at q = -p
                if (neg and (p < q < -p or not swap)
                        and (q <= p or not dedupe)):
                    later[-p].append((-q, negs))
        if pairs := later.pop(p, None):
            pairs.sort(key=operator.itemgetter(0))
            yield p, pairs


def search(w: SearchWindow, sign: int,
           dedupe: bool = False) -> list[SolutionRecord]:
    """All (p,q,r) in the window with pq+pr+qr = sign*m^2, m odd <= m_max.

    Records come in lexicographic (p,q,r) order because ``_solve`` yields
    them that way: rows p in increasing p, each with its pairs sorted by q
    and each pair's (r, m) in increasing r, with no sort of the records.
    ``csv_chunks`` streams the same rows from the same solver.  With
    ``dedupe`` only representatives with p <= q are kept.
    """
    evens = _parity_values(*w.r_range, 0)
    return [SolutionRecord(p, q, r, m, sign, (p + q) % 8)
            for p, pairs in _solve(w, sign, dedupe) for q, rows in pairs
            for r, m in rows or zip(evens, repeat(abs(p)))]


def _rm_lines(rows) -> str:
    """The (r, m) rows of one pair as "r,m" lines joined by newlines."""
    return "\n".join(map("%d,%d".__mod__, rows))


def csv_chunks(w: SearchWindow, sign: int, dedupe: bool = False):
    """Yield the CSV of ``search(w, sign, dedupe)``: the header line, then
    the rows, one chunk per p.

    Each chunk holds the rows "p,q,r,m,sign,p_plus_q_mod_8" of one row p
    of ``_solve``, in the same order as ``search``, so memory grows only
    with that row and the images whose row is still to come: each waits
    as one string of "r,m" lines, from which the pairs that share it are
    written, each line ending in one of eight ",sign,s mod 8" tails built
    once.  A pair with p + q = 0, whose rows ``_solve`` leaves as
    None, has a row for every even r of the window with m = |p|; those
    rows are joined from one list of r strings built once per window.
    """
    even_rs = list(map(str, _parity_values(*w.r_range, 0)))
    tails = [f",{sign},{s8}\n" for s8 in range(8)]
    yield "p,q,r,m,sign,p_plus_q_mod_8\n"
    for p, pairs in _solve(w, sign, dedupe, render=_rm_lines):
        chunk = []
        for q, rows in pairs:
            head = f"{p},{q},"
            if rows is None:
                tail = f",{abs(p)},{sign},0\n"
                chunk.append(head + (tail + head).join(even_rs) + tail)
            else:
                tail = tails[(p + q) % 8]
                chunk.append(head + rows.replace("\n", tail + head) + tail)
        yield "".join(chunk)


def verify_negative_restriction(w: SearchWindow) -> bool:
    """Every solution of pq+pr+qr = -m^2 in the window has p+q = 0 mod 8.

    The check of the module docstring's argument, by exhaustion: it scans
    the classes s = 2 (mod 4) and s = 4 (mod 8) of p + q, every pair that
    could violate the restriction, and the first solution found answers
    False.  A window where the restriction holds has no hit at all.
    """
    return not any(next(_solve(w, -1, live=live), None)
                   for live in ((4, 2), (8, 4)))


def residue_prefilter(sign: int) -> set[int]:
    """Residues of p+q mod 8 surviving the elementary coarse filter.

    Brute force over residue tuples (p,q,r,m) mod 8 with the parity
    constraints, testing the equation modulo 4 (r(p+q) is 0 mod 4 and
    m^2 is 1, so only pq mod 4 constrains anything at this level).  This
    is the cheap screen: {0,4} for the -m^2 equation, {2,6} for +m^2.
    The same congruence taken modulo 2|p+q| (module docstring) cuts
    {0,4} down to {0}; {2,6} is already the live class of +m^2.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    odd = (1, 3, 5, 7)
    even = (0, 2, 4, 6)
    out = set()
    for p in odd:
        for q in odd:
            for r in even:
                for m in odd:
                    if (p * q + p * r + q * r - sign * m * m) % 4 == 0:
                        out.add((p + q) % 8)
    return out


def witness_both_positive_residues(w: SearchWindow):
    """One solution of pq+pr+qr = +m^2 with p+q = 2 mod 8 and one with 6.

    Each is the first such record of ``search(w, 1)`` in (p, q, r) order.
    The solver runs lazily over the live class s = 2 (mod 4), which is
    s = 2 or 6 (mod 8), and stops once both residues are found.
    """
    found = {}
    for p, pairs in _solve(w, 1):
        for q, rows in pairs:
            k = (p + q) % 8
            if k not in found:
                found[k] = SolutionRecord(p, q, *rows[0], 1, k)
                if len(found) == 2:
                    return found[2], found[6]
    raise NotFoundError("window contains no witness pair for residues 2 and 6")
