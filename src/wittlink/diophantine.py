"""Window searches for pq + pr + qr = (+-)m^2 with p, q, m odd and r even.

The negative-sign equation forces p + q = 0 mod 8 (the underlying even
form satisfies the vanishing hypothesis, so its signature -(p+q) is a
multiple of 8); the positive-sign variant only forces p + q to 2 or 6
mod 8 and realizes both.  Searches are exhaustive over finite windows:
each pair (p, q) is one lookup in a table of odd square roots modulo
2|p + q|, and each p-row of pairs is looked up in one C-level pass.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from itertools import compress

from .errors import NotFoundError


class SearchWindow(namedtuple("SearchWindow",
                              "p_range q_range r_range m_max")):
    """Inclusive parameter ranges, each an int pair (lo, hi), and the int
    m_max; parity is enforced during iteration."""

    __slots__ = ()

    def __new__(cls, p_range, q_range, r_range, m_max):
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


def _parity_values(lo: int, hi: int, parity: int):
    start = lo if lo % 2 == parity % 2 else lo + 1
    return range(start, hi + 1, 2)


def _odd_roots(mod: int, m_max: int) -> dict[int, list[int]]:
    """Map each residue x mod ``mod`` to the odd m <= m_max with m^2 = x."""
    table = {}
    for m in range(1, m_max + 1, 2):
        table.setdefault(m * m % mod, []).append(m)
    return table


def _solve(w: SearchWindow, sign: int, dedupe: bool = False, keep=None):
    """Yield (p, q, [(r, m), ...]) for each odd pair with a solution in w.

    For s = p + q != 0 the equation reads r = (sign*m^2 - pq)/s, and r is
    an even integer exactly when m^2 = sign*pq (mod 2|s|).  For s = 0 it
    reads -p^2 = sign*m^2, which holds for every r when sign = -1 and
    m = |p|.  The tables of odd roots (one per modulus 2|s|) and the
    moduli are laid out once, indexed by (s - s_min)/2: s = 0 gets a
    sentinel table that every product hits, and each s that ``keep``
    rejects an empty one.  Along one p, sign*pq is an arithmetic
    progression in q, so a whole row of pairs is looked up in one C-level
    pass and only the hits run Python code.  Pairs come in (p, q) order,
    with p <= q under ``dedupe``, and rows in increasing r.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    r_lo, r_hi = w.r_range
    q_lo, q_hi = w.q_range
    evens = _parity_values(r_lo, r_hi, 0)
    ps = _parity_values(*w.p_range, 1)
    qs = _parity_values(q_lo, q_hi, 1)
    if not ps or not qs:
        return
    s_min = ps[0] + qs[0]
    roots = {}
    tables = []
    mods = []
    for s in range(s_min, ps[-1] + qs[-1] + 1, 2):
        mod = 2 * abs(s) or 1
        if keep is not None and not keep(s):
            table = {}
        elif s:
            table = roots.get(mod)
            if table is None:
                table = roots[mod] = _odd_roots(mod, w.m_max)
        else:
            table = {0: True} if sign == -1 and evens else {}
        tables.append(table)
        mods.append(mod)
    for p in ps:
        row = _parity_values(max(p, q_lo) if dedupe else q_lo, q_hi, 1)
        if not row:
            continue
        a = (p + row[0] - s_min) // 2
        b = a + len(row)
        products = range(sign * p * row[0], sign * p * (row[-1] + 2),
                         2 * sign * p)
        hits = list(map(dict.get, tables[a:b],
                        map(operator.mod, products, mods[a:b])))
        for q, ms in zip(compress(row, hits), filter(None, hits)):
            s = p + q
            if not s:
                if abs(p) <= w.m_max:
                    yield p, q, list(zip(evens, [abs(p)] * len(evens)))
                continue
            pq = p * q
            rows = [(r, m) for m in ms
                    if r_lo <= (r := (sign * m * m - pq) // s) <= r_hi]
            if rows:
                if sign * s < 0:
                    rows.reverse()
                yield p, q, rows


def search(w: SearchWindow, sign: int,
           dedupe: bool = False) -> list[SolutionRecord]:
    """All (p,q,r) in the window with pq+pr+qr = sign*m^2, m odd <= m_max.

    Records come in lexicographic (p,q,r) order because ``_solve`` yields
    them that way: pairs in order and rows in increasing r, with no sort
    afterwards.  ``csv_chunks`` streams the same rows from the same
    solver.  With ``dedupe`` only representatives with p <= q are kept.
    """
    return [SolutionRecord(p, q, r, m, sign, (p + q) % 8)
            for p, q, rows in _solve(w, sign, dedupe)
            for r, m in rows]


def csv_chunks(w: SearchWindow, sign: int, dedupe: bool = False):
    """Yield the CSV rows of ``search(w, sign, dedupe)``, one chunk per pair.

    Each chunk holds the rows "p,q,r,m,sign,p_plus_q_mod_8" of one solved
    (p, q), in the same order as ``search``, so memory does not grow with
    the number of rows.  A pair with p + q = 0 has a row for every even r
    of the window with m = |p|; those rows are joined from one list of
    r strings built once.
    """
    even_rs = None
    for p, q, rows in _solve(w, sign, dedupe):
        s = p + q
        head = f"{p},{q},"
        if not s:
            if even_rs is None:
                even_rs = [str(r) for r, _ in rows]
            tail = f",{abs(p)},{sign},0\n"
            yield head + (tail + head).join(even_rs) + tail
        else:
            tail = f",{sign},{s % 8}\n"
            yield "".join([f"{head}{r},{m}{tail}" for r, m in rows])


def verify_negative_restriction(w: SearchWindow) -> bool:
    """Every solution of pq+pr+qr = -m^2 in the window has p+q = 0 mod 8.

    Only pairs with p + q != 0 mod 8 can violate it, so the tables of
    every other s are empty: a window where the restriction holds is
    scanned without a hit, and the first solution found answers False.
    """
    return next(_solve(w, -1, keep=lambda s: s % 8), None) is None


def residue_prefilter(sign: int) -> set[int]:
    """Residues of p+q mod 8 surviving the elementary coarse filter.

    Brute force over residue tuples (p,q,r,m) mod 8 with the parity
    constraints, testing the equation modulo 4 (r(p+q) is 0 mod 4 and
    m^2 is 1, so only pq mod 4 constrains anything at this level).  This
    is the cheap screen: {0,4} for the -m^2 equation, {2,6} for +m^2.
    Only the deeper vanishing argument cuts {0,4} down to {0}.
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
    The solver runs lazily, scans only the s = 2, 6 mod 8 tables and
    stops once both residues are found.
    """
    found = {}
    for p, q, rows in _solve(w, 1, keep=lambda s: s % 8 in (2, 6)):
        k = (p + q) % 8
        if k not in found:
            found[k] = SolutionRecord(p, q, *rows[0], 1, k)
            if len(found) == 2:
                return found[2], found[6]
    raise NotFoundError("window contains no witness pair for residues 2 and 6")
