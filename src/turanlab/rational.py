"""Exact square solves by one fraction-free integer elimination.

The LP's exact finish proves an optimal basis from its adjugate, and
periodic sets take their determinant and lattice membership from it.
"""
from __future__ import annotations

from operator import index


def adjugate(A) -> tuple[int, list[list[int]] | None]:
    """det(A) and the integer adj(A) = det(A) A^-1 of a square matrix of
    integers (a float is a TypeError, not truncated); (0, None) when A is
    singular.

    Gauss-Jordan elimination of [A | I] in Bareiss's fraction-free form
    (Math. Comp. 22, 1968): every entry is a minor of [A | I], so each
    ``//`` divides exactly and no Fraction is formed. Pivots are the first
    nonzero entry of each column, and every row swap flips det's sign.
    """
    n = len(A)
    M = [[index(a) for a in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(A)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if M[r][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        top = M[k]
        d = top[k]
        for i in range(n):
            m = M[i][k]
            # a row with m = 0 changes only when the pivot does
            if i != k and (m or d != prev):
                M[i] = [(d * a - m * b) // prev for a, b in zip(M[i], top)]
        prev = d
    return sign * prev, [[sign * a for a in row[n:]] for row in M]
