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


def test_working_set_grows_over_pricing_rounds():
    """One column per round, the least violated first, so that many rounds
    pass and the working set grows by one column at a time."""
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
    assert res.diagnostics["pricing_rounds"] > 16
    assert abs(res.objective - float(want)) <= 1e-9
    _check_primal(res, w, unit + pool, 1e-9)
    # the final basis, recomputed in Fractions over every column of the
    # pool (offered or not), is exactly optimal
    assert _certify_basis(w_exact, unit + exact_pool, res.basis) == want


def test_a_stall_lifts_the_basic_values_and_ends_on_the_true_w(monkeypatch):
    # w with zero entries starts from a degenerate basis, so pivots stall,
    # and with STALL_LIMIT 1 the second pivot without progress lifts the
    # basic values off zero. Each solve must still end optimal with weights
    # that solve B x = w on the true w, at the oracle's value, and its
    # final basis must be exactly optimal.
    import turanlab.simplex as simplex

    monkeypatch.setattr(simplex, "STALL_LIMIT", 1)
    rng = random.Random(90305)
    lifted = 0
    for case in range(20):
        p = 3
        w = [Fraction(rng.choice([0, 0, 1, 2, -1])) for _ in range(p)]
        pool = [(100 + j, [Fraction(rng.randint(-2, 3)) for _ in range(p)])
                for j in range(rng.randint(4, 8))]
        cols = _unit_columns(p) + pool
        res = solve_column_lp(*_floats(w, pool), lambda pi: [])
        assert res.status == "optimal", f"case {case}"
        by_id = dict(cols)
        for q in range(p):
            combo = sum(lam * float(by_id[cid][q])
                        for cid, lam in res.weights.items())
            assert abs(combo - float(w[q])) <= 1e-12, f"case {case}"
        want = _dual_vertex_oracle(w, cols)
        assert abs(res.objective - float(want)) <= 1e-9, f"case {case}"
        assert _certify_basis(w, cols, res.basis) == want, f"case {case}"
        lifted += res.diagnostics["lifts"] >= 1
    assert lifted >= 5, f"only {lifted} of 20 solves lifted"


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


class _FailingLinalg:
    """np.linalg whose inv fails as ``how`` says on the calls that
    ``fails(calls)`` picks: "negated" returns -B^-1, so B^-1 w has
    negative entries, and "singular" raises LinAlgError."""

    LinAlgError = np.linalg.LinAlgError

    def __init__(self, how, fails):
        self.how, self.fails, self.calls = how, fails, []

    def inv(self, B):
        self.calls.append(len(B))
        if not self.fails(len(self.calls)):
            return np.linalg.inv(B)
        if self.how == "singular":
            raise np.linalg.LinAlgError("forced")
        return -np.linalg.inv(B)


def _failing_numpy(monkeypatch, how, fails):
    """The drifting numpy of the simplex, with a failing inv."""
    import turanlab.simplex as simplex

    class Numpy(_DriftingNumpy):
        linalg = _FailingLinalg(how, fails)

    monkeypatch.setattr(simplex, "np", Numpy())
    return Numpy.linalg.calls


@pytest.mark.parametrize("how", ["negated", "singular"])
def test_an_infeasible_reinversion_restarts_and_keeps_the_working_set(
        monkeypatch, how):
    """The inverse drifts as above, and the first re-inversion fails: it
    comes back negated, so B^-1 w has negative entries, or it finds the
    basis singular. The solve must neither clip nor raise: it restarts
    from the start basis, keeps the columns it holds, and still ends at
    the oracle's value although each pool column is offered only once."""
    import turanlab.simplex as simplex

    calls = _failing_numpy(monkeypatch, how, lambda n: n == 1)
    rng = random.Random(90306)
    restarted = 0
    for case in range(40):
        p = rng.randint(2, 3)
        w, cols = _random_instance(rng, p, rng.randint(3, 6), exact=False)
        pool = cols[2 * p:]
        offered = set()

        def price(pi):
            out = [(cid, vec) for cid, vec in pool if cid not in offered
                   and 1 - sum(v * y for v, y in zip(vec, pi)) < -1e-9]
            offered.update(cid for cid, _vec in out)
            return out

        del calls[:]
        res = simplex.solve_column_lp(np.array(w), [], price)
        assert res.status == "optimal", f"case {case}"
        assert res.diagnostics["basis_restarts"] == min(len(calls), 1)
        want = _dual_vertex_oracle(w, cols)
        assert abs(res.objective - float(want)) <= 1e-9, \
            f"case {case}: solver {res.objective} oracle {float(want)}"
        _check_primal(res, w, cols, 1e-9)
        restarted += res.diagnostics["basis_restarts"]
    assert restarted >= 10, f"only {restarted} of 40 solves restarted"


@pytest.mark.parametrize("how", ["negated", "singular"])
def test_a_restart_that_repeats_the_last_one_lifts_at_once(monkeypatch, how):
    """The inverse drifts, and the first two re-inversions fail. Every
    column is given at the start, so the second restart finds the working
    set of the first: its path would lead back to the same failure, and
    it lifts the start basis at once. The first restart does not lift.
    Each solve still ends at the oracle's value on the true w."""
    import turanlab.simplex as simplex

    calls = _failing_numpy(monkeypatch, how, lambda n: n <= 2)
    rng = random.Random(90308)
    repeated = 0
    for case in range(40):
        p = rng.randint(2, 3)
        w, cols = _random_instance(rng, p, rng.randint(3, 6), exact=False)
        del calls[:]
        res = simplex.solve_column_lp(np.array(w), cols[2 * p:],
                                      lambda pi: [])
        assert res.status == "optimal", f"case {case}"
        restarts = res.diagnostics["basis_restarts"]
        assert restarts == min(len(calls), 2), f"case {case}"
        assert res.diagnostics["lifts"] == max(restarts - 1, 0), f"case {case}"
        want = _dual_vertex_oracle(w, cols)
        assert abs(res.objective - float(want)) <= 1e-9, f"case {case}"
        _check_primal(res, w, cols, 1e-9)
        repeated += restarts == 2
    assert repeated >= 10, f"only {repeated} of 40 solves restarted twice"


@pytest.mark.parametrize("how", ["negated", "singular"])
def test_the_pivot_cap_falls_back_to_the_start_basis(monkeypatch, how):
    """The inverse drifts, and every re-inversion fails, so each one
    restarts from the start basis. With a cap of 2 pivots, a solve that
    pivots at all is cut on a drifted iterate or at a restart, and must
    end budget-exceeded at the start basis: weights that solve B x = w,
    x >= 0, and objective sum |w|. With a cap of 200, restarts repeat
    until the cap, which ends them as a status. The working set never
    grows, so every restart but the first and the one at the cap lifts
    the start basis at once."""
    import turanlab.simplex as simplex

    calls = _failing_numpy(monkeypatch, how, lambda n: True)
    rng = random.Random(90307)
    cut = 0
    for cap in (2, 200):
        monkeypatch.setattr(simplex, "LP_PIVOT_CAP", cap)
        for case in range(40):
            p = rng.randint(2, 3)
            w, cols = _random_instance(rng, p, rng.randint(3, 6), exact=False)
            del calls[:]
            res = simplex.solve_column_lp(np.array(w), cols[2 * p:],
                                          lambda pi: [])
            if res.pivots == 0:
                # the start basis is optimal, and nothing is inverted
                assert res.status == "optimal" and not calls
                continue
            assert res.status == "budget-exceeded", f"case {case}"
            restarts = res.diagnostics["basis_restarts"]
            assert res.pivots == cap and restarts
            if cap == 200:
                assert res.diagnostics["lifts"] == restarts - 2, f"case {case}"
            by_id = dict(cols)
            for q in range(p):
                combo = sum(lam * by_id[cid][q]
                            for cid, lam in res.weights.items())
                assert abs(combo - w[q]) <= 1e-12, f"case {case}"
            assert min(res.weights.values()) >= 0.0
            if cap == 2:
                assert res.objective == sum(abs(v) for v in w), f"case {case}"
            cut += 1
    assert cut >= 40, f"only {cut} of 80 solves were cut"


def test_dantzig_ratio_tie_leaves_by_largest_direction_then_lowest_id():
    # w = (1, -2, 2) starts from the basis ids (0, 4, 2) with xB = (1, 2, 2)
    # and Binv = diag(1, -1, 1). Column 100 = w enters (rc 1 - 5 = -4)
    # with d = (1, 2, 2), so all three rows tie at ratio 1. Rows 1 and 2
    # share the largest |d|, and row 2 holds the lower basis id; row 0
    # holds the lowest id of all but a smaller |d|.
    res = solve_column_lp(np.array([1.0, -2.0, 2.0]), [(100, [1.0, -2.0, 2.0])],
                          lambda pi: [])
    assert res.status == "optimal" and res.pivots == 1
    assert res.basis == [0, 4, 100]
    assert res.weights == {100: 1.0}


def test_working_set_takes_a_batch_as_one_block():
    """Ids already held and ids repeated within a batch are skipped, and
    the first copy of a repeat is the one the solve uses. Each skipped
    vector would lower the optimum 1/3 that the kept columns give."""
    batches = [[(10, [1.0, 2.0]), (0, [9.0, 9.0]), (11, [3.0, 4.0]),
                (10, [8.0, 8.0]), (12, [5.0, 6.0])],
               [(12, [7.0, 7.0]), (13, [0.5, -0.5])]]
    kept = [(10, [1, 2]), (11, [3, 4]), (12, [5, 6]), (13, [0.5, -0.5])]

    def price(pi):
        return batches.pop(0) if batches else []

    w = [1, 1]
    res = solve_column_lp(np.array(w, dtype=float), [], price)
    want = _dual_vertex_oracle(w, _unit_columns(2) + kept)
    assert want == Fraction(1, 3)
    for skipped in [(0, [9, 9]), (10, [8, 8]), (12, [7, 7])]:
        assert _dual_vertex_oracle(w, _unit_columns(2) + kept
                                   + [skipped]) < want
    assert res.status == "optimal"
    assert res.diagnostics["columns"] == 8
    assert res.diagnostics["pricing_rounds"] == 3
    assert abs(res.objective - float(want)) <= 1e-12
    _check_primal(res, w, _unit_columns(2) + kept, 1e-12)
