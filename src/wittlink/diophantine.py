"""Window searches for pq + pr + qr = (+-)m^2 with p, q, m odd and r even.

The negative-sign equation forces p + q = 0 mod 8 (the underlying even
form satisfies the vanishing hypothesis, so its signature -(p+q) is a
multiple of 8); the positive-sign variant only forces p + q to 2 or 6
mod 8 and realizes both.  Searches are exhaustive over finite windows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotFoundError


@dataclass(frozen=True)
class SearchWindow:
    """Inclusive parameter ranges; parity is enforced during iteration."""

    p_range: tuple[int, int]
    q_range: tuple[int, int]
    r_range: tuple[int, int]
    m_max: int

    def __post_init__(self):
        for lo, hi in (self.p_range, self.q_range, self.r_range):
            if lo > hi:
                raise ValueError("empty range")
        if self.m_max < 1:
            raise ValueError("m_max must be at least 1")


def symmetric_window(pq_bound: int, r_bound: int, m_max: int) -> SearchWindow:
    return SearchWindow(p_range=(-pq_bound, pq_bound),
                        q_range=(-pq_bound, pq_bound),
                        r_range=(-r_bound, r_bound), m_max=m_max)


@dataclass(frozen=True)
class SolutionRecord:
    p: int
    q: int
    r: int
    m: int
    sign: int
    p_plus_q_mod_8: int


def _parity_values(lo: int, hi: int, parity: int):
    start = lo if lo % 2 == parity % 2 else lo + 1
    return range(start, hi + 1, 2)


def _odd_roots(mod: int, m_max: int) -> dict[int, list[int]]:
    """Map each residue x mod ``mod`` to the odd m <= m_max with m^2 = x."""
    table = {}
    for m in range(1, m_max + 1, 2):
        table.setdefault(m * m % mod, []).append(m)
    return table


def _solve(w: SearchWindow, sign: int, pairs):
    """Yield (p, q, [(r, m), ...]) for each pair with a solution in w.

    For s = p + q != 0 the equation reads r = (sign*m^2 - pq)/s, and r is
    an even integer exactly when m^2 = sign*pq (mod 2|s|): each pair is one
    lookup in a table of odd roots built once per modulus 2|s|.  For s = 0
    it reads -p^2 = sign*m^2, which holds for every r when sign = -1 and
    m = |p|.  Pairs keep their order and rows come in increasing r.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    r_lo, r_hi = w.r_range
    evens = _parity_values(r_lo, r_hi, 0)
    tables = {}
    for p, q in pairs:
        s = p + q
        if not s:
            if sign == -1 and abs(p) <= w.m_max and evens:
                yield p, q, list(zip(evens, [abs(p)] * len(evens)))
            continue
        mod = 2 * abs(s)
        table = tables.get(mod)
        if table is None:
            table = tables[mod] = _odd_roots(mod, w.m_max)
        ms = table.get(sign * p * q % mod)
        if not ms:
            continue
        pq = p * q
        rows = [(r, m) for m in ms
                if r_lo <= (r := (sign * m * m - pq) // s) <= r_hi]
        if rows:
            if sign * s < 0:
                rows.reverse()
            yield p, q, rows


def _pairs(w: SearchWindow, dedupe: bool = False):
    """The odd pairs (p, q) of the window in order; p <= q with ``dedupe``."""
    q_lo, q_hi = w.q_range
    return ((p, q) for p in _parity_values(*w.p_range, 1)
            for q in _parity_values(max(p, q_lo) if dedupe else q_lo,
                                    q_hi, 1))


def search(w: SearchWindow, sign: int,
           dedupe: bool = False) -> list[SolutionRecord]:
    """All (p,q,r) in the window with pq+pr+qr = sign*m^2, m odd <= m_max.

    Records come in lexicographic (p,q,r) order because ``_solve`` yields
    them that way: pairs in order and rows in increasing r, with no sort
    afterwards.  ``csv_chunks`` streams the same rows from the same
    solver.  With ``dedupe`` only representatives with p <= q are kept.
    """
    return [SolutionRecord(p, q, r, m, sign, (p + q) % 8)
            for p, q, rows in _solve(w, sign, _pairs(w, dedupe))
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
    for p, q, rows in _solve(w, sign, _pairs(w, dedupe)):
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

    Only pairs with p + q != 0 mod 8 can violate it, so only those are
    solved, and the first solution found answers False.
    """
    pairs = ((p, q) for p, q in _pairs(w) if (p + q) % 8)
    return next(_solve(w, -1, pairs), None) is None


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
    The solver runs lazily, skips pairs of a residue already witnessed and
    stops once both are found.
    """
    found = {}
    pairs = ((p, q) for p, q in _pairs(w)
             if (p + q) % 8 in (2, 6) and (p + q) % 8 not in found)
    for p, q, rows in _solve(w, 1, pairs):
        k = (p + q) % 8
        found[k] = SolutionRecord(p, q, *rows[0], 1, k)
        if len(found) == 2:
            return found[2], found[6]
    raise NotFoundError("window contains no witness pair for residues 2 and 6")
