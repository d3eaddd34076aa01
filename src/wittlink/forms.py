"""Symmetric bilinear forms on integer lattices, with exact arithmetic.

A form is a symmetric nondegenerate integer Gram matrix.  Everything is
exact: one symmetric fraction-free (Bareiss) elimination validates a form
and gives the leading minors, which yield its determinant, signature and
rational diagonal.  The same elimination, run once more on an identity
matrix, gives the transition matrix of the diagonalization over Q for
display.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain

from ._mat import identity
from .errors import (DegenerateError, NotIntegerError, NotSquareError,
                     NotSymmetricError)

_INT = frozenset((int,))


@dataclass(frozen=True)
class IntegerSymmetricForm:
    """A nondegenerate symmetric integer Gram matrix of rank ``n``.

    Instances are immutable; build them through :func:`form_from_rows`,
    which validates squareness, integer entries, symmetry and
    nondegeneracy.
    """

    n: int
    gram: tuple[tuple[int, ...], ...]

    def rows(self) -> list[list[int]]:
        return [list(r) for r in self.gram]

    @cached_property
    def minors(self) -> tuple[int, ...]:
        """:func:`pivot_minors` of the form, computed once, by validation."""
        return pivot_minors(self)


@dataclass(frozen=True)
class DiagonalRationalForm:
    """Result of congruence diagonalization: P * B * P^T = diag(entries)."""

    entries: tuple[Fraction, ...]
    transition: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class FormReport:
    rank: int
    determinant: int
    signature: int
    is_even: bool


def form_from_rows(rows) -> IntegerSymmetricForm:
    """Validate a list of integer rows as a symmetric nondegenerate form.

    A 0x0 matrix is accepted and represents the empty (rank zero) form,
    with determinant 1 by convention.
    """
    gram = _int_rows(rows, NotIntegerError, "Gram")
    if gram != tuple(zip(*gram)):
        for i, row in enumerate(gram):
            for j in range(i + 1, len(gram)):
                if row[j] != gram[j][i]:
                    raise NotSymmetricError(
                        f"gram[{i}][{j}] = {row[j]} != gram[{j}][{i}] = {gram[j][i]}")
    f = IntegerSymmetricForm(n=len(gram), gram=gram)
    f.minors  # the elimination raises DegenerateError when det is 0
    return f


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

    Runs the elimination of :func:`pivot_minors` on an integer identity Q
    as well; entry k is D_k / D_(k-1) and row k of P is Q_k / D_(k-1).
    """
    q = identity(f.n)
    minors = _eliminate(f.rows(), q)
    return DiagonalRationalForm(
        entries=tuple(Fraction(b, a) for a, b in zip(minors, minors[1:])),
        transition=tuple(tuple(Fraction(x, d) for x in row)
                         for row, d in zip(q, minors)))


def pivot_minors(f: IntegerSymmetricForm) -> tuple[int, ...]:
    """The leading minors (1, D_1, ..., D_n) of the diagonalization, in Z.

    Symmetric fraction-free (Bareiss) elimination.  Pivot policy: at step k
    use the smallest-index nonzero diagonal entry among positions >= k,
    swapped into place.  If the whole remaining diagonal is zero, the
    replacement e_k -> e_k + e_j with the smallest j > k and b(e_k,e_j) != 0
    makes b(e_k,e_k) = 2 b(e_k,e_j) nonzero first.  Entry k of the rational
    diagonalization is then D_k / D_(k-1), whose square class is that of the
    integer D_k * D_(k-1), and D_n is the determinant.  After the pivot D_k
    the trailing block is D_k times the rational one, so every division is
    exact.  Raises DegenerateError exactly when det is 0: every pivot kept
    is nonzero, and a trailing block with a zero row is singular.
    """
    return _eliminate(f.rows())


def _eliminate(a, q=None) -> tuple[int, ...]:
    """The elimination of :func:`pivot_minors` on the rows ``a``, in place.

    When ``q`` is given, the same row operations act on it: the swaps, the
    e_k -> e_k + e_j step and the exact update, so its row k, once row k is
    the pivot, is D_(k-1) times row k of the rational transition matrix.
    """
    n = len(a)
    minors = [1]
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[j][j]), None)
            if j is not None:
                a[k], a[j] = a[j], a[k]
                for row in a[k:]:
                    row[k], row[j] = row[j], row[k]
                if q is not None:
                    q[k], q[j] = q[j], q[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j]), None)
                if j is None:
                    raise DegenerateError("Gram matrix has determinant 0")
                a[k] = [x + y for x, y in zip(a[k], a[j])]
                for row in a[k:]:
                    row[k] += row[j]
                if q is not None:
                    q[k] = [x + y for x, y in zip(q[k], q[j])]
        rk = a[k]
        piv, prev = rk[k], minors[-1]
        # Only the upper triangle is updated and mirrored; columns < k stay
        # stale and are never read again.
        for i in range(k + 1, n):
            ri, c = a[i], rk[i]
            for j in range(i, n):
                ri[j] = a[j][i] = (ri[j] * piv - c * rk[j]) // prev
        if q is not None:
            qk = q[k]
            for i in range(k + 1, n):
                c = rk[i]
                q[i] = [(x * piv - c * y) // prev for x, y in zip(q[i], qk)]
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
    n1, n2 = f1.n, f2.n
    rows = [[0] * (n1 + n2) for _ in range(n1 + n2)]
    for i in range(n1):
        for j in range(n1):
            rows[i][j] = f1.gram[i][j]
    for i in range(n2):
        for j in range(n2):
            rows[n1 + i][n1 + j] = f2.gram[i][j]
    return form_from_rows(rows)


def report(f: IntegerSymmetricForm) -> FormReport:
    return FormReport(rank=f.n, determinant=determinant(f),
                      signature=signature(f), is_even=is_even(f))
