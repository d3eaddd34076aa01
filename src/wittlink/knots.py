"""Knot-theoretic front end: Seifert matrices and pretzel closed forms.

Seifert matrices are inputs (from tables or files), never derived from
diagrams.  Symmetrizing one yields an even integer form whose signature and
determinant are the knot signature and determinant; running the residue
maps on its diagonalization decides whether the knot satisfies the
vanishing hypothesis, in which case the signature is divisible by 8.

Pretzel knots P(p,q,r) with p, q odd and r even bypass Seifert matrices
entirely: determinant, rational Witt class (up to <+-1> summands, which all
residue maps kill) and signature have closed forms in the parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (DegenerateParameterError, InvalidSeifertError,
                     NotSquareError)
from .forms import (IntegerSymmetricForm, determinant, form_from_rows,
                    signature, signature_from_minors)
from .witt import WittClassQ, boundary_zero_from_minors, witt_from_diagonal


@dataclass(frozen=True)
class SeifertMatrix:
    """An integer Seifert pairing; valid when det(S - S^T) = 1."""

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


def _bareiss_det(rows) -> int:
    """Fraction-free determinant of an integer matrix, symmetric or not."""
    m = [list(row) for row in rows]
    sign = prev = 1
    for k in range(len(m)):
        i = next((i for i in range(k, len(m)) if m[i][k]), None)
        if i is None:
            return 0
        if i != k:
            m[k], m[i], sign = m[i], m[k], -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * prev


def seifert_from_rows(rows) -> SeifertMatrix:
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise NotSquareError(f"expected {n} columns, got {len(row)}")
    for row in rows:
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise InvalidSeifertError(f"non-integer Seifert entry {x!r}")
    anti = [[rows[i][j] - rows[j][i] for j in range(n)] for i in range(n)]
    if _bareiss_det(anti) != 1:
        raise InvalidSeifertError("det(S - S^T) must be 1")
    return SeifertMatrix(n=n, entries=tuple(tuple(int(x) for x in r) for r in rows))


def seifert_block_sum(s1: SeifertMatrix, s2: SeifertMatrix) -> SeifertMatrix:
    """Seifert matrix of a connected sum: the block sum of the summands."""
    n = s1.n + s2.n
    rows = [[0] * n for _ in range(n)]
    for i in range(s1.n):
        for j in range(s1.n):
            rows[i][j] = s1.entries[i][j]
    for i in range(s2.n):
        for j in range(s2.n):
            rows[s1.n + i][s1.n + j] = s2.entries[i][j]
    return seifert_from_rows(rows)


def symmetrize(s: SeifertMatrix) -> IntegerSymmetricForm:
    """S + S^T: an even symmetric form with odd determinant."""
    rows = [[s.entries[i][j] + s.entries[j][i] for j in range(s.n)]
            for i in range(s.n)]
    return form_from_rows(rows)


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
    computed, residue-test, report."""
    minors = symmetrize(s).minors
    sig = signature_from_minors(minors)
    bz = boundary_zero_from_minors(minors)
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
