"""Column LP core against a brute-force vertex oracle.

The solver minimizes sum cost_j lam_j subject to sum lam_j col_j = w,
lam >= 0. Its optimum equals the dual maximum of w.y over the polytope
col_j . y <= cost_j, and with the solver's box columns +-e_q of cost 1
the dual region sits inside [-1, 1]^p, so the oracle can enumerate all
p-subsets of constraints, solve each square system, and keep the best
feasible vertex.
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from turanlab.rational import solve_fractions
from turanlab.simplex import ColumnLPResult, solve_column_lp


def _unit_columns(p):
    """The box columns the solver adds itself, with its ids and order."""
    cols = []
    for q in range(p):
        plus = [0.0] * p
        plus[q] = 1.0
        minus = [0.0] * p
        minus[q] = -1.0
        cols.append((q, plus, 1.0))
        cols.append((p + q, minus, 1.0))
    return cols


def _det(M):
    n = len(M)
    if n == 1:
        return M[0][0]
    return sum((-1) ** j * M[0][j] * _det(
        [row[:j] + row[j + 1:] for row in M[1:]]) for j in range(n))


def _solve_square(A, b):
    """Cramer in exact arithmetic; None when singular."""
    det = _det(A)
    if det == 0:
        return None
    out = []
    for j in range(len(b)):
        Aj = [row[:] for row in A]
        for i in range(len(b)):
            Aj[i][j] = b[i]
        out.append(Fraction(_det(Aj), 1) / det)
    return out


def _dual_vertex_oracle(w, columns):
    """Best w.y over {y : col.y <= cost}, by enumerating vertices."""
    p = len(w)
    best = None
    for subset in itertools.combinations(range(len(columns)), p):
        A = [[Fraction(columns[i][1][q]) for q in range(p)] for i in subset]
        b = [Fraction(columns[i][2]) for i in subset]
        y = _solve_square(A, b)
        if y is None:
            continue
        feasible = all(
            sum(Fraction(vec[q]) * y[q] for q in range(p)) <= cost
            for _cid, vec, cost in columns)
        if not feasible:
            continue
        val = sum(Fraction(wq) * yq for wq, yq in zip(w, y))
        if best is None or val > best:
            best = val
    return best


def _random_instance(rng, p, extra, exact):
    cols = []
    for cid, vec, cost in _unit_columns(p):
        if exact:
            cols.append((cid, [Fraction(v) for v in vec], Fraction(1)))
        else:
            cols.append((cid, vec, cost))
    for j in range(extra):
        if exact:
            vec = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(p)]
            cost = Fraction(rng.randint(1, 12), rng.randint(1, 3))
        else:
            vec = [rng.uniform(-3, 3) for _ in range(p)]
            cost = rng.uniform(0.1, 4.0)
        cols.append((100 + j, vec, cost))
    if exact:
        w = [Fraction(rng.randint(-5, 5)) for _ in range(p)]
    else:
        w = [rng.uniform(-5, 5) for _ in range(p)]
    return w, cols


def _floats(w, columns):
    return (np.array([float(v) for v in w]),
            [(cid, [float(v) for v in vec], float(cost))
             for cid, vec, cost in columns])


def _certify_basis(w, columns, basis):
    """Recompute a final basis in Fractions, the way exact mode does: the
    basic weights must be nonnegative and the multipliers feasible for
    every column. Returns the exact objective."""
    by_id = {cid: (vec, cost) for cid, vec, cost in columns}
    cols = [[Fraction(v) for v in by_id[b][0]] for b in basis]
    cB = [Fraction(by_id[b][1]) for b in basis]
    _det, x = solve_fractions(list(zip(*cols)), [[Fraction(v)] for v in w])
    assert x is not None, "final basis is singular"
    _det, y = solve_fractions(cols, [[c] for c in cB])
    x = [v for v, in x]
    y = [v for v, in y]
    assert all(v >= 0 for v in x), f"negative basic weight in {x}"
    for cid, vec, cost in columns:
        assert sum(Fraction(v) * yq for v, yq in zip(vec, y)) <= Fraction(cost), \
            f"column {cid} has negative reduced cost"
    return sum(c * v for c, v in zip(cB, x))


def _check_primal(result: ColumnLPResult, w, columns, tol):
    by_id = {cid: (vec, cost) for cid, vec, cost in columns}
    p = len(w)
    combo = [0.0] * p
    obj = 0.0
    for cid, lam in result.weights.items():
        assert lam >= -tol if tol else lam >= 0
        vec, cost = by_id[cid]
        for q in range(p):
            combo[q] += lam * vec[q]
        obj += lam * cost
    for q in range(p):
        assert abs(combo[q] - w[q]) <= max(tol, 1e-9)
    assert abs(obj - result.objective) <= max(tol, 1e-9)


def test_float_lps_match_vertex_oracle():
    rng = random.Random(90301)
    for case in range(300):
        p = rng.randint(1, 3)
        w, cols = _random_instance(rng, p, rng.randint(0, 7), exact=False)
        res = solve_column_lp(np.array(w), cols[2 * p:], lambda pi: [])
        assert res.status == "optimal", f"case {case}: {res.status}"
        want = _dual_vertex_oracle(w, cols)
        assert want is not None
        assert abs(res.objective - float(want)) <= 1e-6, \
            f"case {case}: p={p}, solver {res.objective} oracle {float(want)}"
        _check_primal(res, w, cols, 1e-7)
        # dual feasibility of the returned multipliers
        for _cid, vec, cost in cols:
            assert sum(v * y for v, y in zip(vec, res.pi)) <= cost + 1e-7


def test_exact_lps_match_vertex_oracle():
    rng = random.Random(90302)
    for case in range(120):
        p = rng.randint(1, 2)
        w, cols = _random_instance(rng, p, rng.randint(0, 5), exact=True)
        res = solve_column_lp(*_floats(w, cols[2 * p:]), lambda pi: [])
        assert res.status == "optimal", f"case {case}"
        assert len(res.basis) == p
        want = _dual_vertex_oracle(w, cols)
        got = _certify_basis(w, cols, res.basis)
        assert got == want, f"case {case}: basis {got} oracle {want}"
        assert abs(res.objective - float(want)) <= 1e-9


def test_budget_exceeded_keeps_feasible_point(monkeypatch):
    import turanlab.simplex as simplex

    monkeypatch.setattr(simplex, "LP_PIVOT_CAP", 0)
    rng = random.Random(90303)
    w, cols = _random_instance(rng, 2, 5, exact=False)
    res = solve_column_lp(np.array(w), cols[4:], lambda pi: [])
    assert res.status == "budget-exceeded"
    assert res.pivots == 0
    _check_primal(res, w, cols, 1e-7)


def test_unbounded_direction_reported_infeasible():
    # a zero column with negative cost enters and never leaves
    res = solve_column_lp(np.array([1.0]), [(100, [0.0], -1.0)],
                          lambda pi: [])
    assert res.status == "infeasible"


def test_start_basis_follows_the_signs_of_w():
    # +e_0 (id 0) for w_0 >= 0 and -e_1 (id p + 1 = 3) for w_1 < 0
    res = solve_column_lp(np.array([1.0, -2.0]), [], lambda pi: [])
    assert res.status == "optimal"
    assert res.basis == [0, 3]
    assert res.pivots == 0
    assert res.objective == pytest.approx(3.0)


def test_lazy_pricing_receives_multipliers():
    """Columns arriving through price() join the working set."""
    seen = []

    def price(pi):
        if not seen:
            seen.append(tuple(pi))
            return [(200, [1.0, 1.0], 0.5)]
        return []

    w = [1.0, 1.0]
    res = solve_column_lp(np.array(w), [], price)
    assert res.status == "optimal"
    assert seen, "pricing callback never ran"
    assert res.objective == pytest.approx(0.5)
    assert res.weights == {200: pytest.approx(1.0)}


def _circle_columns(k, exact):
    """k unit-cost columns at rational points near the unit circle."""
    num = Fraction if exact else float
    cols = []
    for j in range(k):
        a = 2 * math.pi * j / k
        vec = [num(Fraction(round(64 * math.cos(a)), 64)),
               num(Fraction(round(64 * math.sin(a)), 64))]
        cols.append((100 + j, vec, num(1)))
    return cols


def test_working_set_grows_over_pricing_rounds(monkeypatch):
    """One column per round, the least violated first, so that many rounds
    pass and the working set outgrows its first allocation."""
    import turanlab.simplex as simplex

    grown = []
    real_grown = simplex._Working._grown

    def spy(self, a):
        grown.append(a.shape[-1])
        return real_grown(self, a)

    monkeypatch.setattr(simplex._Working, "_grown", spy)
    w_exact = [Fraction(1), Fraction(3, 10)]
    exact_pool = _circle_columns(96, True)
    want = _dual_vertex_oracle(w_exact, _unit_columns(2) + exact_pool)
    pool = _circle_columns(96, False)
    unit = _unit_columns(2)
    offered = set()

    def price(pi):
        viol = [(cost - sum(v * y for v, y in zip(vec, pi)), cid, vec, cost)
                for cid, vec, cost in pool if cid not in offered]
        viol = [t for t in viol if t[0] < 0]
        if not viol:
            return []
        _rc, cid, vec, cost = max(viol)
        offered.add(cid)
        return [(cid, vec, cost)]

    w = np.array([float(v) for v in w_exact])
    res = solve_column_lp(w, [], price)
    assert res.status == "optimal"
    assert grown, "the working set never outgrew its first allocation"
    assert res.diagnostics["pricing_rounds"] > 16
    assert abs(res.objective - float(want)) <= 1e-9
    _check_primal(res, w, unit + pool, 1e-9)
    # the final basis, recomputed in Fractions over every column of the
    # pool (offered or not), is exactly optimal
    assert _certify_basis(w_exact, unit + exact_pool, res.basis) == want


def test_bland_enters_lowest_id_among_negative_reduced_costs(monkeypatch):
    # w = 0 makes every pivot degenerate, so with STALL_LIMIT 1 the second
    # pivot stalls and Bland's rule picks the third entering column. The
    # columns (v, c) have ratios c/v of 1, 0.5, 0.25, 0.1 and -0.1, and
    # rc = v (c/v - pi). Dantzig enters id 60 (rc -2), then id 70 (rc -0.25
    # against -0.2 for id 40). At pi = 0.25 the candidates are id 40
    # (rc -0.075) and id 20 (rc -0.035): Dantzig takes id 40, Bland id 20,
    # which is neither first in arrival order nor the most negative.
    # The box columns are id 0 (+e_0) and id 1 (-e_0).
    import turanlab.simplex as simplex

    cols = [(60, [4.0], 2.0), (70, [1.0], 0.25), (40, [0.5], 0.05),
            (20, [0.1], -0.01)]
    monkeypatch.setattr(simplex, "LP_PIVOT_CAP", 3)
    dantzig = solve_column_lp(np.array([0.0]), cols, lambda pi: [])
    assert dantzig.status == "budget-exceeded"
    assert dantzig.basis == [40]
    assert dantzig.diagnostics["bland_pivots"] == 0
    monkeypatch.setattr(simplex, "STALL_LIMIT", 1)
    bland = solve_column_lp(np.array([0.0]), cols, lambda pi: [])
    assert bland.basis == [20]
    assert bland.pivots == 3 and bland.diagnostics["bland_pivots"] == 1


class _DriftingNumpy:
    """numpy as the simplex sees it, except that every rank-one update of
    the basis inverse is off by a relative 1e-7, far above the rounding
    of a real update."""

    class multiply:
        @staticmethod
        def outer(a, b):
            return np.multiply.outer(a, b) * (1 + 1e-7)

    def __getattr__(self, name):
        return getattr(np, name)


def test_drifting_inverse_is_rebuilt_before_pricing(monkeypatch):
    import turanlab.simplex as simplex

    monkeypatch.setattr(simplex, "np", _DriftingNumpy())
    rng = random.Random(90304)
    for case in range(40):
        p = rng.randint(2, 3)
        w, cols = _random_instance(rng, p, rng.randint(3, 6), exact=False)
        pool = cols[2 * p:]

        def price(pi):
            return [(cid, vec, cost) for cid, vec, cost in pool
                    if cost - sum(v * y for v, y in zip(vec, pi)) < -1e-9]

        res = solve_column_lp(np.array(w), [], price)
        assert res.status == "optimal", f"case {case}"
        want = _dual_vertex_oracle(w, cols)
        assert abs(res.objective - float(want)) <= 1e-9, \
            f"case {case}: solver {res.objective} oracle {float(want)}"
        _check_primal(res, w, cols, 1e-9)
