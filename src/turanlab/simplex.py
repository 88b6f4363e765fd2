"""Dense revised simplex on an equality-form LP with lazy columns.

Solves   min  sum_j cost_j lam_j
         s.t. sum_j lam_j col_j = w,   lam >= 0,

where the initial columns are signed unit vectors (so the starting basis
is diagonal and feasible) and further columns arrive on demand from a
pricing callback. The basis inverse is maintained explicitly; it is a
p x p matrix where p is the number of equality rows, so the numerics stay
well conditioned regardless of how many columns the caller generates.

Pivoting: Dantzig entering with a largest-pivot tie-break by default;
Bland's anti-cycling rule (lowest column id) takes over after a stall and
is the permanent rule in exact (Fraction) mode, where every comparison is
performed at tolerance zero.

Termination statuses:
    optimal          pricing found nothing below tolerance
    infeasible       an entering column had no positive basis direction
                     (the minimization is unbounded, so the problem this
                     is dual to has no feasible point)
    budget-exceeded  pivot cap hit; current iterate is still feasible
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .config import LP_PIVOT_CAP

# a priced column: (column id, coefficient vector, cost)
Column = tuple[int, Sequence, object]


@dataclass
class ColumnLPResult:
    status: str
    objective: object                  # float or Fraction
    pi: object                         # row multipliers (optimal y), array or tuple
    weights: dict[int, object]         # basic lam by column id
    pivots: int
    diagnostics: dict = field(default_factory=dict)


class _Working:
    """Growing working set of columns (id, vector, cost)."""

    def __init__(self, p: int, exact: bool):
        self.p = p
        self.exact = exact
        self.ids: list[int] = []
        self.cols: list = []
        self.costs: list = []
        self.pos_of: dict[int, int] = {}
        self._mat = None

    def add(self, cid: int, vec, cost):
        if cid in self.pos_of:
            return
        self.pos_of[cid] = len(self.ids)
        self.ids.append(cid)
        self.cols.append(np.asarray(vec, dtype=object if self.exact else float))
        self.costs.append(cost)
        self._mat = None

    def matrix(self):
        if self._mat is None:
            dt = object if self.exact else float
            self._mat = np.empty((self.p, len(self.cols)), dtype=dt)
            for j, v in enumerate(self.cols):
                self._mat[:, j] = v
        return self._mat


class SingularBasisError(RuntimeError):
    """The float basis inverse degraded to non-finite entries."""


def solve_column_lp(
    w,
    initial_columns: list[Column],
    price: Callable,
    *,
    exact: bool = False,
    entering_tol: float = 1e-9,
    pivot_tol: float = 1e-11,
    pivot_cap: int = LP_PIVOT_CAP,
    stall_limit: int = 300,
    start_basis: list[int] | None = None,
) -> ColumnLPResult:
    """price(pi) must return new Columns with negative reduced cost, or []."""
    p = len(w)
    zero = Fraction(0) if exact else 0.0
    one = Fraction(1) if exact else 1.0
    if exact:
        entering_tol = Fraction(0)
        pivot_tol = Fraction(0)
    dt = object if exact else float

    work = _Working(p, exact)
    for cid, vec, cost in initial_columns:
        work.add(cid, vec, cost)

    # starting basis: for each row q a signed unit column matching sgn(w_q)
    basis: list[int] = []
    Binv = np.zeros((p, p), dtype=dt)
    xB = np.empty(p, dtype=dt)
    for q in range(p):
        want = -one if w[q] < zero else one
        if start_basis is not None:
            cid = start_basis[q]
            vec = work.cols[work.pos_of[cid]]
        else:
            cid = None
            for c, vec0, _cost in initial_columns:
                nz = np.flatnonzero(np.asarray(vec0, dtype=float))
                if len(nz) == 1 and nz[0] == q and (one if vec0[q] > zero else -one) == want:
                    cid, vec = c, vec0
                    break
            if cid is None:
                raise ValueError(f"no signed unit starting column for row {q}")
        if vec[q] != want:
            raise ValueError(f"start column for row {q} is not the signed unit")
        basis.append(cid)
        Binv[q, q] = want
        xB[q] = w[q] * want
    for q in range(p):
        if exact:
            xB[q] = Fraction(xB[q])
        if xB[q] < zero:
            raise ValueError("starting basis is infeasible")

    costs_by_id = {cid: cost for cid, _vec, cost in initial_columns}

    pivots = 0
    bland_pivots = 0
    pricing_rounds = 0
    bland = exact
    stall = 0
    last_obj = None

    def objective():
        return sum(costs_by_id[basis[i]] * xB[i] for i in range(p))

    def multipliers():
        cB = np.array([costs_by_id[b] for b in basis], dtype=dt)
        return cB @ Binv

    while True:
        pi = multipliers()
        mat = work.matrix()
        costs = np.array(work.costs, dtype=dt)
        rc = costs - pi @ mat
        if bland:
            enter_pos = -1
            for j in sorted(range(len(work.ids)), key=lambda j: work.ids[j]):
                if rc[j] < -entering_tol:
                    enter_pos = j
                    break
        else:
            j = int(np.argmin(rc))
            enter_pos = j if rc[j] < -entering_tol else -1
        if enter_pos < 0:
            pricing_rounds += 1
            fresh = price(pi)
            if not fresh:
                lam = {basis[i]: xB[i] for i in range(p) if xB[i] != zero}
                return ColumnLPResult(
                    "optimal", objective(), pi, lam, pivots,
                    {"bland_pivots": bland_pivots, "pricing_rounds": pricing_rounds,
                     "columns": len(work.ids)})
            for cid, vec, cost in fresh:
                work.add(cid, vec, cost)
                costs_by_id[cid] = cost
            continue

        if pivots >= pivot_cap:
            lam = {basis[i]: xB[i] for i in range(p) if xB[i] != zero}
            return ColumnLPResult(
                "budget-exceeded", objective(), multipliers(), lam, pivots,
                {"bland_pivots": bland_pivots, "pricing_rounds": pricing_rounds,
                 "columns": len(work.ids)})

        enter_id = work.ids[enter_pos]
        d = Binv @ work.cols[enter_pos].astype(dt)
        eligible = [i for i in range(p) if d[i] > pivot_tol]
        if not eligible:
            return ColumnLPResult(
                "infeasible", None, None, {}, pivots,
                {"entering": enter_id, "bland_pivots": bland_pivots,
                 "pricing_rounds": pricing_rounds, "columns": len(work.ids)})
        ratios = {i: xB[i] / d[i] for i in eligible}
        rmin = min(ratios.values())
        if exact:
            ties = [i for i in eligible if ratios[i] == rmin]
        else:
            window = rmin * (1 + 1e-9) + 1e-15
            ties = [i for i in eligible if ratios[i] <= window]
        if bland or exact:
            leave = min(ties, key=lambda i: basis[i])
        else:
            leave = max(ties, key=lambda i: (abs(d[i]), -basis[i]))

        # pivot: replace basis[leave] by enter_id
        theta = ratios[leave]
        if exact:
            xB = xB - d * theta
        else:
            xB = xB - d * theta
            xB[np.abs(xB) < 1e-13] = 0.0
            np.maximum(xB, 0.0, out=xB)
        xB[leave] = theta
        piv = d[leave]
        Binv[leave, :] = Binv[leave, :] / piv
        dcol = d.copy()
        dcol[leave] = zero
        Binv = Binv - np.outer(dcol, Binv[leave, :])
        basis[leave] = enter_id
        pivots += 1
        if bland:
            bland_pivots += 1

        if not exact:
            if pivots % 128 == 0 and not (
                np.isfinite(Binv).all() and np.isfinite(xB).all()
            ):
                raise SingularBasisError("basis inverse lost finiteness")
            obj = float(objective())
            if last_obj is not None and obj >= last_obj - 1e-12:
                stall += 1
                if stall >= stall_limit:
                    bland = True
            else:
                stall = 0
                bland = False
            last_obj = obj
