"""Symmetric bilinear forms on integer lattices, with exact arithmetic.

A form is a symmetric nondegenerate integer Gram matrix.  Everything is
exact: one symmetric fraction-free (Bareiss) elimination validates a form
and gives the leading minors, which yield its determinant, signature and
rational diagonal; the diagonalization over Q, with its transition matrix,
is computed only for display.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from ._mat import identity
from .errors import DegenerateError, NotSquareError, NotSymmetricError


@dataclass(frozen=True)
class IntegerSymmetricForm:
    """A nondegenerate symmetric integer Gram matrix of rank ``n``.

    Instances are immutable; build them through :func:`form_from_rows`,
    which validates squareness, symmetry and nondegeneracy.
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
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise NotSquareError(f"expected {n} columns, got {len(row)}")
    for row in rows:
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise NotSymmetricError(f"non-integer Gram entry {x!r}")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise NotSymmetricError(
                    f"gram[{i}][{j}] = {rows[i][j]} != gram[{j}][{i}] = {rows[j][i]}")
    gram = tuple(tuple(int(x) for x in row) for row in rows)
    f = IntegerSymmetricForm(n=n, gram=gram)
    f.minors  # the elimination raises DegenerateError when det is 0
    return f


def determinant(f: IntegerSymmetricForm) -> int:
    return f.minors[-1]


def is_even(f: IntegerSymmetricForm) -> bool:
    # b(u,u) even for all u follows from even diagonal by bilinearity.
    return all(f.gram[i][i] % 2 == 0 for i in range(f.n))


def diagonalize(f: IntegerSymmetricForm) -> DiagonalRationalForm:
    """Diagonalize over Q by simultaneous symmetric row/column elimination.

    Pivot policy: at step k use the smallest-index nonzero diagonal entry
    among positions >= k (swapped into place).  If the whole remaining
    diagonal is zero, the replacement e_i -> e_i + e_j with b(e_i,e_j) != 0
    creates a nonzero diagonal first; such a pair exists by nondegeneracy.
    The output is deterministic.
    """
    n = f.n
    b = [[Fraction(x) for x in row] for row in f.gram]
    p = identity(n, one=Fraction(1))

    def swap(i, j):
        b[i], b[j] = b[j], b[i]
        for row in b:
            row[i], row[j] = row[j], row[i]
        p[i], p[j] = p[j], p[i]

    def add_row(i, j):
        # e_i -> e_i + e_j
        b[i] = [x + y for x, y in zip(b[i], b[j])]
        for row in b:
            row[i] = row[i] + row[j]
        p[i] = [x + y for x, y in zip(p[i], p[j])]

    for k in range(n):
        if b[k][k] == 0:
            for j in range(k + 1, n):
                if b[j][j] != 0:
                    swap(k, j)
                    break
            else:
                # Whole trailing diagonal is zero: row k still pairs with some
                # later basis vector (nondegeneracy), so e_k -> e_k + e_j gives
                # b[k][k] = 2*b[k][j] != 0.
                for j in range(k + 1, n):
                    if b[k][j] != 0:
                        add_row(k, j)
                        break
                else:
                    raise DegenerateError("trailing block is degenerate")
        for i in range(k + 1, n):
            if b[i][k] == 0:
                continue
            t = b[i][k] / b[k][k]
            b[i] = [x - t * y for x, y in zip(b[i], b[k])]
            for row in b:
                row[i] = row[i] - t * row[k]
            p[i] = [x - t * y for x, y in zip(p[i], p[k])]

    entries = tuple(b[i][i] for i in range(n))
    return DiagonalRationalForm(entries=entries,
                                transition=tuple(tuple(row) for row in p))


def pivot_minors(f: IntegerSymmetricForm) -> tuple[int, ...]:
    """The leading minors (1, D_1, ..., D_n) of the diagonalization, in Z.

    Symmetric fraction-free (Bareiss) elimination with the pivot policy of
    :func:`diagonalize`: the same swaps and the same e_k -> e_k + e_j step,
    so entry k of ``diagonalize(f)`` is exactly D_k / D_(k-1), whose square
    class is that of the integer D_k * D_(k-1), and D_n is the determinant.
    Entries of the trailing block are D_k times those of diagonalize's
    trailing block, so the pivot tests agree; every division is exact.
    Raises DegenerateError exactly when det is 0: every pivot kept is
    nonzero, and a trailing block with a zero row is singular.
    """
    n = f.n
    a = f.rows()
    minors = [1]
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[j][j]), None)
            if j is not None:
                a[k], a[j] = a[j], a[k]
                for row in a[k:]:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j]), None)
                if j is None:
                    raise DegenerateError("Gram matrix has determinant 0")
                a[k] = [x + y for x, y in zip(a[k], a[j])]
                for row in a[k:]:
                    row[k] += row[j]
        rk = a[k]
        piv, prev = rk[k], minors[-1]
        # Only the upper triangle is updated and mirrored; columns < k stay
        # stale and are never read again.
        for i in range(k + 1, n):
            ri, c = a[i], rk[i]
            for j in range(i, n):
                ri[j] = a[j][i] = (ri[j] * piv - c * rk[j]) // prev
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
