"""Column LP core against a brute-force vertex oracle.

The solver minimizes sum cost_j lam_j subject to sum lam_j col_j = w,
lam >= 0. Its optimum equals the dual maximum of w.y over the polytope
col_j . y <= cost_j, and with signed unit columns of cost 1 present the
dual region sits inside [-1, 1]^p, so the oracle can enumerate all
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

from turanlab.simplex import ColumnLPResult, solve_column_lp


def _unit_columns(p):
    cols = []
    for q in range(p):
        plus = [0.0] * p
        plus[q] = 1.0
        minus = [0.0] * p
        minus[q] = -1.0
        cols.append((2 * q, plus, 1.0))
        cols.append((2 * q + 1, minus, 1.0))
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
        res = solve_column_lp(np.array(w), cols, lambda pi: [])
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
        res = solve_column_lp(w, cols, lambda pi: [], exact=True)
        assert res.status == "optimal", f"case {case}"
        want = _dual_vertex_oracle(w, cols)
        assert res.objective == want, \
            f"case {case}: solver {res.objective} oracle {want}"
        # exact primal reconstruction
        combo = [Fraction(0)] * p
        for cid, lam in res.weights.items():
            vec = dict((c, v) for c, v, _ in cols)[cid]
            assert lam >= 0
            for q in range(p):
                combo[q] += lam * vec[q]
        assert combo == list(w)


def test_budget_exceeded_keeps_feasible_point():
    rng = random.Random(90303)
    w, cols = _random_instance(rng, 2, 5, exact=False)
    res = solve_column_lp(np.array(w), cols, lambda pi: [], pivot_cap=0)
    assert res.status == "budget-exceeded"
    assert res.pivots == 0
    _check_primal(res, w, cols, 1e-7)


def test_unbounded_direction_reported_infeasible():
    # a zero column with negative cost enters and never leaves
    cols = _unit_columns(1) + [(100, [0.0], -1.0)]
    res = solve_column_lp(np.array([1.0]), cols, lambda pi: [])
    assert res.status == "infeasible"


def test_missing_start_column_raises():
    cols = [(0, [1.0], 1.0)]  # no -e column for a negative weight
    with pytest.raises(ValueError):
        solve_column_lp(np.array([-1.0]), cols, lambda pi: [])


def test_start_basis_override():
    cols = _unit_columns(2)
    res = solve_column_lp(np.array([1.0, -2.0]), cols, lambda pi: [],
                          start_basis=[0, 3])
    assert res.status == "optimal"
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
    res = solve_column_lp(np.array(w), _unit_columns(2), price)
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
    want = _dual_vertex_oracle(w_exact,
                               _unit_columns(2) + _circle_columns(96, True))
    for exact in (False, True):
        pool = _circle_columns(96, exact)
        num = Fraction if exact else float
        unit = [(c, [num(v) for v in vec], num(1)) for c, vec, _ in _unit_columns(2)]
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

        grown.clear()
        w = w_exact if exact else np.array([float(v) for v in w_exact])
        res = solve_column_lp(w, unit, price, exact=exact)
        assert res.status == "optimal"
        assert grown, "the working set never outgrew its first allocation"
        assert res.diagnostics["pricing_rounds"] > 16
        if exact:
            assert res.objective == want
        else:
            assert abs(res.objective - float(want)) <= 1e-9
        _check_primal(res, w, unit + pool, 0 if exact else 1e-9)


def test_bland_enters_lowest_id_among_negative_reduced_costs():
    # at the start pi = [1]: reduced costs -6 (id 50), -2 (id 30) and
    # -0.5 (id 20), so Dantzig takes id 50 and Bland id 20, which is
    # neither first in arrival order nor the most negative
    def columns(num):
        return [(0, [num(1)], num(1)), (1, [num(-1)], num(1)),
                (50, [num(1)], num(-5)), (30, [num(1)], num(-1)),
                (20, [num(1)], num(1) / 2)]

    bland = solve_column_lp([Fraction(1)], columns(Fraction), lambda pi: [],
                            exact=True, pivot_cap=1)
    assert bland.status == "budget-exceeded"
    assert bland.weights == {20: 1}
    dantzig = solve_column_lp(np.array([1.0]), columns(float), lambda pi: [],
                              pivot_cap=1)
    assert dantzig.weights == {50: 1.0}
