"""Symmetric bilinear forms on integer lattices, with exact arithmetic.

A form is a symmetric nondegenerate integer Gram matrix.  Everything is
exact: one symmetric fraction-free (Bareiss) elimination validates a form
and gives the leading minors, which yield its determinant, signature and
rational diagonal; run on the rows with an identity appended, it gives
the transition matrix of that diagonal too.  No floating point anywhere.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import chain

from ._mat import identity
from .errors import (DegenerateError, NotIntegerError, NotSquareError,
                     NotSymmetricError)

_INT = frozenset((int,))


class IntegerSymmetricForm(namedtuple("IntegerSymmetricForm", "n gram")):
    """A nondegenerate symmetric Gram matrix ``gram``, a tuple of n tuples
    of n ints, of rank ``n``.

    Instances are immutable; build them through :func:`form_from_rows`,
    which validates squareness, integer entries, symmetry and
    nondegeneracy.  No ``__slots__``: the instance dict caches ``minors``.
    """

    def rows(self) -> list[list[int]]:
        return [list(r) for r in self.gram]

    @cached_property
    def minors(self) -> tuple[int, ...]:
        """:func:`pivot_minors` of the form, computed once, by validation."""
        return pivot_minors(self)


class DiagonalRationalForm(namedtuple("DiagonalRationalForm",
                                      "entries transition")):
    """Result of congruence diagonalization: P * B * P^T = diag(entries),
    for the Fractions of ``entries`` and of the rows P of ``transition``."""

    __slots__ = ()


class FormReport(namedtuple("FormReport",
                            "rank determinant signature is_even")):
    """rank, determinant and signature ints; is_even a bool."""

    __slots__ = ()


def form_from_rows(rows) -> IntegerSymmetricForm:
    """Validate a list of integer rows as a symmetric nondegenerate form.

    A 0x0 matrix is accepted and represents the empty (rank zero) form,
    with determinant 1 by convention.
    """
    f = _symmetric_form(rows)
    f.minors  # the elimination raises DegenerateError when det is 0
    return f


def _symmetric_form(rows) -> IntegerSymmetricForm:
    """``rows`` checked for all but det != 0, which its elimination checks."""
    gram = _int_rows(rows, NotIntegerError, "Gram")
    if gram != tuple(zip(*gram)):
        for i, row in enumerate(gram):
            for j in range(i + 1, len(gram)):
                if row[j] != gram[j][i]:
                    raise NotSymmetricError(
                        f"gram[{i}][{j}] = {row[j]} != gram[{j}][{i}] = {gram[j][i]}")
    return IntegerSymmetricForm(n=len(gram), gram=gram)


def _int_rows(rows, error, kind) -> tuple[tuple[int, ...], ...]:
    """``rows`` as a square tuple of tuples of exact ``int``s.

    Raises NotSquareError on a row of the wrong length, and ``error`` on the
    first entry, in row-major order, that is not an integer (a bool is
    not).  One C-level type test passes the common case; the loop runs only
    to name the bad entry or to convert int subclasses to ``int``.
    """
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise NotSquareError(f"expected {n} columns, got {len(row)}")
    t = tuple(map(tuple, rows))
    if _INT.issuperset(map(type, chain.from_iterable(t))):
        return t
    for row in t:
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise error(f"non-integer {kind} entry {x!r}")
    return tuple(tuple(map(int, row)) for row in t)


def determinant(f: IntegerSymmetricForm) -> int:
    return f.minors[-1]


def is_even(f: IntegerSymmetricForm) -> bool:
    # b(u,u) even for all u follows from even diagonal by bilinearity.
    return all(f.gram[i][i] % 2 == 0 for i in range(f.n))


def diagonalize(f: IntegerSymmetricForm) -> DiagonalRationalForm:
    """Diagonalize over Q: P * B * P^T = diag(entries), deterministically.

    Entry k is D_k / D_(k-1) and row k of P is Q_k / D_(k-1), for the ints
    of :func:`_transition`.  ``fractions`` is imported on the first call;
    no CLI command calls this, ``diag`` prints its "num/den" from the ints.
    """
    from fractions import Fraction
    minors, tails = _transition(f.gram)
    return DiagonalRationalForm(
        entries=tuple(Fraction(b, a) for a, b in zip(minors, minors[1:])),
        transition=tuple(tuple(Fraction(x, d) for x in row)
                         for row, d in zip(tails, minors)))


def _transition(rows) -> tuple[tuple[int, ...], list[list[int]]]:
    """The minors (1, D_1, ..., D_n) of ``rows``, checked as by
    :func:`form_from_rows`, and Q, whose row k is D_(k-1) times row k of
    the transition: one elimination, on the rows with I appended."""
    f = _symmetric_form(rows)
    a = [[*r, *e] for r, e in zip(f.gram, identity(f.n))]
    return _eliminate(a), [row[f.n:] for row in a]  # slices after it


def pivot_minors(f: IntegerSymmetricForm) -> tuple[int, ...]:
    """The leading minors (1, D_1, ..., D_n) of the diagonalization, in Z.

    Symmetric fraction-free (Bareiss) elimination, on the upper triangle
    only.  Pivot policy: at step k use the smallest-index nonzero diagonal
    entry among positions >= k, swapped into place.  If the whole remaining
    diagonal is zero, e_k -> e_k + e_j with the smallest j > k and
    b(e_k,e_j) != 0 makes b(e_k,e_k) = 2 b(e_k,e_j) nonzero first.  Entry k
    of the rational diagonalization is then D_k / D_(k-1), whose square
    class is that of the integer D_k * D_(k-1), and D_n is the determinant.
    After the pivot D_k the trailing block is D_k times the rational one,
    so every division is exact.  Raises DegenerateError exactly when det is
    0: every pivot kept is nonzero, and a trailing block with a zero row is
    singular.
    """
    return _eliminate(f.rows())


def _eliminate(a) -> tuple[int, ...]:
    """The elimination of :func:`pivot_minors` on the n rows ``a``, in place.

    Of the first n columns only the upper triangle, j >= i, is read or
    written.  Columns past n, if any, take the same row operations: the
    swap, the e_k -> e_k + e_j step and the exact update.  So with an
    identity appended, row k's tail, once row k is the pivot, is D_(k-1)
    times row k of the rational transition matrix.
    """
    n = len(a)
    minors = [1]
    for k in range(n):
        rk = a[k]
        if rk[k] == 0:
            j = next((j for j in range(k + 1, n) if a[j][j]), None)
            if j is not None:
                # swap e_k, e_j: row k trades with column j, then row j
                rj = a[j]
                rk[k], rj[j] = rj[j], rk[k]
                for m in range(k + 1, j):
                    rk[m], a[m][j] = a[m][j], rk[m]
                rk[j + 1:], rj[j + 1:] = rj[j + 1:], rk[j + 1:]
            else:
                j = next((j for j in range(k + 1, n) if rk[j]), None)
                if j is None:
                    raise DegenerateError("Gram matrix has determinant 0")
                # e_k -> e_k + e_j, where b(e_k,e_k) = b(e_j,e_j) = 0
                rk[k] = 2 * rk[j]
                for m in range(k + 1, j):
                    rk[m] += a[m][j]
                rk[j:] = [x + y for x, y in zip(rk[j:], a[j][j:])]
        piv, prev, width = rk[k], minors[-1], len(rk)
        for i in range(k + 1, n):
            ri, c = a[i], rk[i]
            for j in range(i, width):
                ri[j] = (ri[j] * piv - c * rk[j]) // prev
        minors.append(piv)
    return tuple(minors)


def signature_from_minors(minors) -> int:
    """Jacobi's rule: a diagonal entry D_k / D_(k-1) is positive exactly when
    consecutive minors have the same sign."""
    return sum(1 if (a > 0) == (b > 0) else -1
               for a, b in zip(minors, minors[1:]))


def signature(f: IntegerSymmetricForm) -> int:
    return signature_from_minors(f.minors)


def direct_sum(f1: IntegerSymmetricForm, f2: IntegerSymmetricForm) -> IntegerSymmetricForm:
    return form_from_rows(_block_rows(f1.gram, f2.gram))


def _block_rows(a, b) -> list[list[int]]:
    """The rows of the block-diagonal matrix of the square rows a and b."""
    pad_a, pad_b = [0] * len(b), [0] * len(a)
    return [[*row, *pad_a] for row in a] + [[*pad_b, *row] for row in b]


def report(f: IntegerSymmetricForm) -> FormReport:
    return FormReport(rank=f.n, determinant=determinant(f),
                      signature=signature(f), is_even=is_even(f))
