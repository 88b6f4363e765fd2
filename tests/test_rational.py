"""Fraction-free integer adjugate against a cofactor reference."""
from __future__ import annotations

import random

import numpy as np
import pytest

from turanlab.rational import adjugate


def _det(M):
    """Cofactor expansion along the first row; 1 for the empty matrix."""
    if not M:
        return 1
    return sum((-1) ** j * M[0][j] * _det(
        [row[:j] + row[j + 1:] for row in M[1:]]) for j in range(len(M)))


def _product(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def _random_matrix(rng, n):
    """Sparse small entries; some draws zero the leading pivot, which then
    needs a swap, or repeat a row, which makes the matrix singular."""
    A = [[rng.choice((0, 0, rng.randint(-6, 6))) for _ in range(n)]
         for _ in range(n)]
    if n >= 2:
        kind = rng.randrange(4)
        if kind == 0:
            A[0][0] = 0
        elif kind == 1:
            A[rng.randrange(1, n)] = list(A[0])
    return A


@pytest.mark.parametrize("n", range(8))
def test_adjugate_matches_cofactors(n):
    rng = random.Random(91800 + n)
    singular = 0
    for _ in range(60 if n < 7 else 15):
        A = _random_matrix(rng, n)
        det, adj = adjugate(A)
        assert det == _det(A), A
        if det == 0:
            assert adj is None
            singular += 1
            continue
        identity = [[det * (i == j) for j in range(n)] for i in range(n)]
        assert _product(adj, A) == identity, A
        assert _product(A, adj) == identity, A
    assert n < 2 or singular > 0


def test_adjugate_row_swap_flips_the_sign():
    assert adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
    assert adjugate([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == (
        -30, [[0, 0, -6], [0, -10, 0], [-15, 0, 0]])


def test_adjugate_edge_cases():
    assert adjugate([]) == (1, [])
    assert adjugate([[0]]) == (0, None)
    assert adjugate([[np.int64(3)]]) == (3, [[1]])
    # entries far past int64 stay exact
    big = 2 ** 80
    assert adjugate([[big, 1], [1, big]]) == (big * big - 1,
                                             [[big, -1], [-1, big]])


def test_adjugate_refuses_floats():
    with pytest.raises(TypeError):
        adjugate([[2.0]])
