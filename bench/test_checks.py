"""The benchmark's checks reject wrong outputs.

    python3 -m pytest bench/test_checks.py -q

Each test takes a correct output of the program on a tiny instance,
shows that the check accepts it, corrupts one thing and shows that the
check rejects it.
"""
from __future__ import annotations

import copy
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import turanlab as T  # noqa: E402
from checks import (CheckError, check_bracket, check_exact_lp,  # noqa: E402
                    check_float_lp, check_packing, check_periodic_packing,
                    check_spectrum, highs_value)

EX41 = [0, 1, 3, 4, 5, 7]


@pytest.fixture
def ex41():
    G = T.make_group([8])
    sol = T.turan_constant(G, T.symmetric_domain(G, EX41))
    return sol, set(EX41)


def test_float_lp_accepts_the_solution(ex41):
    sol, omega = ex41
    upper, lower = check_float_lp([8], omega, sol)
    assert abs(upper - 4) < 1e-9 and abs(lower - 4) < 1e-9
    assert abs(highs_value([8], omega) - 4) < 1e-9


@pytest.mark.parametrize("bump", [0.5, 1e-4])
def test_corrupted_dual_weight_is_rejected(ex41, bump):
    sol, omega = ex41
    bad = copy.copy(sol)
    bad.dual = np.array(sol.dual, dtype=float)
    bad.dual[1] += bump
    with pytest.raises(CheckError):
        check_float_lp([8], omega, bad)


def test_negative_dual_weight_is_rejected(ex41):
    sol, omega = ex41
    bad = copy.copy(sol)
    bad.dual = np.array(sol.dual, dtype=float)
    bad.dual[int(np.argmax(bad.dual))] *= -1
    with pytest.raises(CheckError, match="negative"):
        check_float_lp([8], omega, bad)


def test_witness_outside_the_domain_is_rejected(ex41):
    sol, omega = ex41
    bad = copy.copy(sol)
    vals = np.array(sol.f.values)
    # move the mass at 1 and 7 onto 2 and 6, which are not in the domain
    vals[2], vals[6], vals[1], vals[7] = vals[1], vals[7], 0.0, 0.0
    bad.f = T.GroupFunction(sol.f.group, vals)
    with pytest.raises(CheckError, match="leaves the domain"):
        check_float_lp([8], omega, bad)


def test_witness_with_negative_transform_is_rejected(ex41):
    sol, omega = ex41
    bad = copy.copy(sol)
    vals = np.array(sol.f.values)
    vals[4] += 0.5
    bad.f = T.GroupFunction(sol.f.group, vals)
    with pytest.raises(CheckError):
        check_float_lp([8], omega, bad)


def test_exact_certificate_is_rechecked_in_fractions():
    G = T.make_group([2] * 4)
    D = T.difference_set(G, [tuple(int(i == j) for j in range(4))
                             for i in range(4)])
    omega = {int("".join(map(str, x)), 2) for x in D.elements}
    sol = T.turan_constant(G, D, mode="exact-rational")
    assert check_exact_lp(4, omega, sol) == 4
    bad = copy.copy(sol)
    bad.dual = np.array(sol.dual, dtype=object)
    bad.dual[-1] += Fraction(1, 10 ** 12)
    with pytest.raises(CheckError):
        check_exact_lp(4, omega, bad)


def test_packing_with_a_clash_is_rejected():
    omega = [(x,) for x in EX41]
    assert check_packing([8], omega, [(0,), (2,)]) == 2
    with pytest.raises(CheckError, match="clash"):
        check_packing([8], omega, [(0,), (3,)])
    with pytest.raises(CheckError, match="repeats"):
        check_packing([8], omega, [(0,), (8,)])


def test_spectrum_must_be_orthogonal():
    H = [(0,), (1,), (4,), (5,)]
    check_spectrum([8], H, [(0,), (1,), (4,), (5,)])
    with pytest.raises(CheckError, match="orthogonal"):
        check_spectrum([8], H, [(0,), (2,), (4,), (6,)])
    with pytest.raises(CheckError):
        check_spectrum([8], H, [(0,), (1,), (4,)])


def test_periodic_packing_must_avoid_the_domain():
    # Lambda* for {0, +-1, +-4}: period 10, residues 0, 2, 5, 7
    pts = [(0,), (1,), (-1,), (4,), (-4,)]
    assert check_periodic_packing(pts, ((10,),), [(0,), (2,), (5,), (7,)]) \
        == Fraction(2, 5)
    with pytest.raises(CheckError):
        check_periodic_packing(pts, ((10,),), [(0,), (2,), (4,), (7,)])
    # example 4.5 in Z^2
    H = [(0, 0), (0, 1), (1, 0)]
    pts2 = {(a[0] - b[0], a[1] - b[1]) for a in H for b in H}
    assert check_periodic_packing(pts2, ((1, 1), (2, -1)), [(0, 0)]) \
        == Fraction(1, 3)
    with pytest.raises(CheckError):
        check_periodic_packing(pts2, ((1, 0), (0, 2)), [(0, 0)])


def test_upper_bounds_must_dominate_lower_bounds():
    check_bracket([4.0, 5.0], [3.0, 4.0])
    with pytest.raises(CheckError):
        check_bracket([4.0, 5.0], [4.1])
