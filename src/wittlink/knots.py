"""Knot-theoretic front end: Seifert matrices and pretzel closed forms.

Seifert matrices are inputs (from tables or files), never derived from
diagrams.  A Seifert matrix S is valid when det(S - S^T) = 1, checked as
Pf(S - S^T) = +-1 by one fraction-free Pfaffian elimination, since the
determinant of a skew-symmetric matrix is the square of its Pfaffian.
Symmetrizing one yields an even integer form whose signature and
determinant are the knot signature and determinant; running the residue
maps on its diagonalization decides whether the knot satisfies the
vanishing hypothesis, in which case the signature is divisible by 8.

Pretzel knots P(p,q,r) with p, q odd and r even bypass Seifert matrices
entirely: determinant, rational Witt class (up to <+-1> summands, which all
residue maps kill) and signature have closed forms in the parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

from .discriminant import _check_theorem
from .errors import DegenerateParameterError, InvalidSeifertError
from .forms import (IntegerSymmetricForm, _block_rows, _int_rows,
                    determinant, form_from_rows, signature,
                    signature_from_minors)
from .witt import WittClassQ, boundary_zero_from_minors, witt_from_diagonal


@dataclass(frozen=True)
class SeifertMatrix:
    """An integer Seifert pairing; valid when det(S - S^T) = 1, that is
    when the Pfaffian Pf(S - S^T) is +-1."""

    n: int
    entries: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PretzelKnot:
    p: int
    q: int
    r: int

    def __post_init__(self):
        if self.p % 2 == 0 or self.q % 2 == 0:
            raise DegenerateParameterError("p and q must be odd")
        if self.r % 2 != 0:
            raise DegenerateParameterError("r must be even")
        if self.p * self.q + self.p * self.r + self.q * self.r == 0:
            raise DegenerateParameterError("pq + pr + qr must be nonzero")


@dataclass(frozen=True)
class KnotReport:
    signature: int
    determinant: int
    murasugi_class: int
    boundary_zero: bool
    signature_mod_8: int | None


def _pfaffian(a) -> int:
    """Pfaffian of the skew-symmetric integer rows ``a``, by fraction-free
    elimination in place; only the upper triangle is read or written.

    Step k pivots on the 2x2 block (k, k+1) with piv = a[k][k+1], after
    swapping the first j > k with a[k][j] != 0 into position k+1 (rows and
    columns, flipping the sign) when piv is 0; if there is none, Pf = 0.
    The trailing entries become piv * a_ij - a_ki * a_(k+1)j + a_kj * a_(k+1)i
    divided by the previous pivot.  The division is exact: each result is
    the Pfaffian of the principal submatrix on 0..k+1, i, j of the matrix
    as swapped so far (a 4x4 sub-Pfaffian at the first step).  The last
    pivot is the Pfaffian, and det = Pf^2.
    """
    n = len(a)
    if n % 2:
        return 0
    sign = prev = 1
    for k in range(0, n, 2):
        rk = a[k]
        if not rk[k + 1]:
            j = next((j for j in range(k + 2, n) if rk[j]), None)
            if j is None:
                return 0
            _swap_skew(a, k + 1, j)
            sign = -sign
        r1, piv = a[k + 1], rk[k + 1]
        for i in range(k + 2, n - 1):
            ri, c, d = a[i], rk[i], r1[i]
            ri[i + 1:] = [(piv * x - c * y + d * z) // prev for x, y, z
                          in zip(ri[i + 1:], r1[i + 1:], rk[i + 1:])]
        prev = piv
    return sign * prev


def _swap_skew(a, p, q):
    """Swap indices p < q of a skew-symmetric matrix kept in the upper
    triangle of rows p - 1 onwards: rows and columns both."""
    a[p - 1][p], a[p - 1][q] = a[p - 1][q], a[p - 1][p]
    rp, rq = a[p], a[q]
    for m in range(p + 1, q):
        rp[m], a[m][q] = -a[m][q], -rp[m]
    rp[q] = -rp[q]
    rp[q + 1:], rq[q + 1:] = rq[q + 1:], rp[q + 1:]


def seifert_from_rows(rows) -> SeifertMatrix:
    s = _int_rows(rows, InvalidSeifertError, "Seifert")
    anti = [list(map(sub, row, col)) for row, col in zip(s, zip(*s))]
    if abs(_pfaffian(anti)) != 1:
        raise InvalidSeifertError("det(S - S^T) must be 1")
    return SeifertMatrix(n=len(s), entries=s)


def seifert_block_sum(s1: SeifertMatrix, s2: SeifertMatrix) -> SeifertMatrix:
    """Seifert matrix of a connected sum: the block sum of the summands."""
    return seifert_from_rows(_block_rows(s1.entries, s2.entries))


def symmetrize(s: SeifertMatrix) -> IntegerSymmetricForm:
    """S + S^T: an even symmetric form with odd determinant."""
    e = s.entries
    return form_from_rows([list(map(add, row, col))
                           for row, col in zip(e, zip(*e))])


def knot_signature(s: SeifertMatrix) -> int:
    return signature(symmetrize(s))


def knot_determinant(s: SeifertMatrix) -> int:
    return determinant(symmetrize(s))


def murasugi_check(s: SeifertMatrix) -> bool:
    """Signature mod 4 is forced by the determinant: 0 when |det| = 1 mod 4,
    2 when |det| = 3 mod 4.  True for every valid Seifert matrix."""
    f = symmetrize(s)
    det, sig = determinant(f), signature(f)
    if abs(det) % 4 == 1:
        return sig % 4 == 0
    return sig % 4 == 2


def analyze_knot(s: SeifertMatrix) -> KnotReport:
    """Full pipeline: symmetrize, read the pivot minors its validation
    computed, residue-test, report; S + S^T is even with odd det, so the
    theorem check of :func:`verify_main_theorem` applies."""
    minors = symmetrize(s).minors
    sig = signature_from_minors(minors)
    bz = boundary_zero_from_minors(minors)
    _check_theorem(bz, sig)
    return KnotReport(signature=sig, determinant=minors[-1],
                      murasugi_class=sig % 4, boundary_zero=bz,
                      signature_mod_8=sig % 8 if bz else None)


def pretzel_determinant(k: PretzelKnot) -> int:
    return k.p * k.q + k.p * k.r + k.q * k.r


def pretzel_witt_class(k: PretzelKnot) -> WittClassQ:
    """<p> + <q> + <r> + <pqr>, normalized; <+-1> summands are dropped by
    normalization-free residue maps anyway and are not tracked."""
    if k.r == 0:
        raise DegenerateParameterError("r = 0 gives an undefined <0> entry")
    return witt_from_diagonal([k.p, k.q, k.r, k.p * k.q * k.r])


def _sign(x: int) -> int:
    if x == 0:
        raise DegenerateParameterError("sign of 0 is undefined")
    return 1 if x > 0 else -1


def pretzel_signature(k: PretzelKnot) -> int:
    """Closed-form signature of P(p,q,r); needs p+q != 0 and det != 0."""
    p, q, r = k.p, k.q, k.r
    if p + q == 0:
        raise DegenerateParameterError("signature formula needs p + q != 0")
    det = pretzel_determinant(k)
    return (-(p + q) + _sign(p) + _sign(q)
            - _sign(p * q * (p + q)) + _sign((p + q) * det))
