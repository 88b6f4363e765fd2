"""Column LP core against a brute-force vertex oracle.

Every column costs 1: the solver minimizes sum lam_j subject to
sum lam_j col_j = w, lam >= 0. Its optimum equals the dual maximum of
w.y over the polytope col_j . y <= 1, and with the solver's box columns
+-e_q the dual region sits inside [-1, 1]^p, so the oracle can
enumerate all p-subsets of constraints, solve each square system, and
keep the best feasible vertex. A random column with cost c is a column
of cost 1 once its vector is divided by c, so the instances draw a
vector and a positive scale per column.
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
    """The box columns the solver adds itself, with its ids and order."""
    cols = []
    for q in range(p):
        plus = [0.0] * p
        plus[q] = 1.0
        minus = [0.0] * p
        minus[q] = -1.0
        cols.append((q, plus))
        cols.append((p + q, minus))
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
    """Best w.y over {y : col.y <= 1}, by enumerating vertices."""
    p = len(w)
    best = None
    for subset in itertools.combinations(range(len(columns)), p):
        A = [[Fraction(columns[i][1][q]) for q in range(p)] for i in subset]
        y = _solve_square(A, [Fraction(1)] * p)
        if y is None:
            continue
        feasible = all(
            sum(Fraction(vec[q]) * y[q] for q in range(p)) <= 1
            for _cid, vec in columns)
        if not feasible:
            continue
        val = sum(Fraction(wq) * yq for wq, yq in zip(w, y))
        if best is None or val > best:
            best = val
    return best


def _random_instance(rng, p, extra, exact):
    cols = []
    for cid, vec in _unit_columns(p):
        cols.append((cid, [Fraction(v) for v in vec] if exact else vec))
    for j in range(extra):
        if exact:
            vec = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(p)]
            scale = Fraction(rng.randint(1, 12), rng.randint(1, 3))
        else:
            vec = [rng.uniform(-3, 3) for _ in range(p)]
            scale = rng.uniform(0.1, 4.0)
        cols.append((100 + j, [v / scale for v in vec]))
    if exact:
        w = [Fraction(rng.randint(-5, 5)) for _ in range(p)]
    else:
        w = [rng.uniform(-5, 5) for _ in range(p)]
    return w, cols


def _floats(w, columns):
    return (np.array([float(v) for v in w]),
            [(cid, [float(v) for v in vec]) for cid, vec in columns])


def _certify_basis(w, columns, basis):
    """Recompute a final basis in Fractions by Cramer's rule, independent
    of the package's elimination: the basic weights must be nonnegative
    and the multipliers feasible for every column. Returns the exact
    objective."""
    by_id = dict(columns)
    cols = [[Fraction(v) for v in by_id[b]] for b in basis]
    x = _solve_square([list(r) for r in zip(*cols)], [Fraction(v) for v in w])
    assert x is not None, "final basis is singular"
    y = _solve_square(cols, [Fraction(1)] * len(cols))
    assert all(v >= 0 for v in x), f"negative basic weight in {x}"
    for cid, vec in columns:
        assert sum(Fraction(v) * yq for v, yq in zip(vec, y)) <= 1, \
            f"column {cid} has negative reduced cost"
    return sum(x)


def _check_primal(result: ColumnLPResult, w, columns, tol):
    by_id = dict(columns)
    p = len(w)
    combo = [0.0] * p
    obj = 0.0
    for cid, lam in result.weights.items():
        assert lam >= -tol if tol else lam >= 0
        vec = by_id[cid]
        for q in range(p):
            combo[q] += lam * vec[q]
        obj += lam
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
        for _cid, vec in cols:
            assert sum(v * y for v, y in zip(vec, res.pi)) <= 1 + 1e-7


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


def test_direction_below_pivot_tol_reported_infeasible(monkeypatch):
    # a unit-cost program is never unbounded, so infeasible means that no
    # basis direction cleared PIVOT_TOL: from +e_0 (pi = 1) the column 2
    # enters with reduced cost -1, and its direction 2 is below 5
    import turanlab.simplex as simplex

    monkeypatch.setattr(simplex, "PIVOT_TOL", 5.0)
    res = solve_column_lp(np.array([1.0]), [(100, [2.0])], lambda pi: [])
    assert res.status == "infeasible"
    assert res.objective is None and res.pi is None
    assert res.diagnostics["entering"] == 100


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
            return [(200, [2.0, 2.0])]
        return []

    w = [1.0, 1.0]
    res = solve_column_lp(np.array(w), [], price)
    assert res.status == "optimal"
    assert seen == [(1.0, 1.0)], "pricing callback never ran"
    assert res.objective == pytest.approx(0.5)
    assert res.weights == {200: pytest.approx(0.5)}


def _circle_columns(k, exact):
    """k columns at rational points near the unit circle."""
    num = Fraction if exact else float
    cols = []
    for j in range(k):
        a = 2 * math.pi * j / k
        vec = [num(Fraction(round(64 * math.cos(a)), 64)),
               num(Fraction(round(64 * math.sin(a)), 64))]
        cols.append((100 + j, vec))
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
        viol = [(1 - sum(v * y for v, y in zip(vec, pi)), cid, vec)
                for cid, vec in pool if cid not in offered]
        viol = [t for t in viol if t[0] < 0]
        if not viol:
            return []
        _rc, cid, vec = max(viol)
        offered.add(cid)
        return [(cid, vec)]

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
    # pivot stalls and Bland's rule picks the third entering column. Every
    # column costs 1, so rc = 1 - v . pi. From pi = (1, 1) Dantzig enters
    # id 70 (rc -13/2), then at pi = (-5/8, 1) id 60 (rc -17/8). At
    # pi = (-2/27, 10/27) the candidates are id 40 (rc -1/27), id 20
    # (rc -5/27) and id 50 (rc -7/27): Dantzig takes id 50, Bland id 20,
    # which is neither first in arrival order nor the most negative.
    # The box columns are ids 0, 1 (+e_q) and 2, 3 (-e_q).
    import turanlab.simplex as simplex

    cols = [(60, [-1.0, 2.5]), (70, [4.0, 3.5]), (40, [1.0, 3.0]),
            (20, [1.5, 3.5]), (50, [3.0, 4.0])]
    monkeypatch.setattr(simplex, "LP_PIVOT_CAP", 2)
    two = solve_column_lp(np.zeros(2), cols, lambda pi: [])
    assert two.basis == [70, 60]
    assert two.pi.tolist() == pytest.approx([-2 / 27, 10 / 27])
    monkeypatch.setattr(simplex, "LP_PIVOT_CAP", 3)
    dantzig = solve_column_lp(np.zeros(2), cols, lambda pi: [])
    assert dantzig.status == "budget-exceeded"
    assert dantzig.basis == [50, 60]
    assert dantzig.diagnostics["bland_pivots"] == 0
    monkeypatch.setattr(simplex, "STALL_LIMIT", 1)
    bland = solve_column_lp(np.zeros(2), cols, lambda pi: [])
    assert bland.basis == [70, 20]
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
            return [(cid, vec) for cid, vec in pool
                    if 1 - sum(v * y for v, y in zip(vec, pi)) < -1e-9]

        res = solve_column_lp(np.array(w), [], price)
        assert res.status == "optimal", f"case {case}"
        want = _dual_vertex_oracle(w, cols)
        assert abs(res.objective - float(want)) <= 1e-9, \
            f"case {case}: solver {res.objective} oracle {float(want)}"
        _check_primal(res, w, cols, 1e-9)
