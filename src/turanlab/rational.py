"""Exact linear solves in Fraction arithmetic.

One Gaussian elimination serves every exact square solve in the
package: the LP's exact finish recomputes an optimal basis with it, and
periodic sets take their determinant and lattice membership from it.
"""
from __future__ import annotations

from fractions import Fraction


def solve_fractions(A, B) -> tuple[Fraction, list[list[Fraction]] | None]:
    """Determinant of the square matrix A and the solution X of A X = B.

    A (n x n) and B (n x k) are sequences of rows of ints or Fractions;
    X comes back as n rows of k Fractions, or None when A is singular.
    Elimination pivots on the first nonzero entry of each column.
    """
    n = len(A)
    # ints stay ints until a division makes them Fractions
    M = [list(a) + list(b) for a, b in zip(A, B)]
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c]), None)
        if piv is None:
            return Fraction(0), None
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        top = M[c]
        det *= top[c]
        tail = top[c + 1:]
        for r in range(c + 1, n):
            row = M[r]
            if row[c]:
                f = Fraction(row[c]) / top[c]
                row[c + 1:] = [a - f * b if b else a
                               for a, b in zip(row[c + 1:], tail)]
    k = len(M[0]) - n if n else 0
    X: list[list[Fraction]] = [[] for _ in range(n)]
    for i in range(n - 1, -1, -1):
        row = M[i]
        X[i] = [Fraction(row[n + j] - sum(row[l] * X[l][j]
                                          for l in range(i + 1, n) if row[l]))
                / row[i] for j in range(k)]
    return Fraction(det), X
