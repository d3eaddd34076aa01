"""Small exact matrix helpers shared by the form and discriminant modules.

Matrices are plain lists of lists (rows) of ints; nothing here ever
touches floating point.
"""

from __future__ import annotations


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def mat_mul(a, b):
    if not a or not b:
        return []
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]
