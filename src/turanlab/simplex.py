"""Dense revised simplex on an equality-form LP with lazy columns.

Solves   min  sum_j cost_j lam_j
         s.t. sum_j lam_j col_j = w,   lam >= 0,

where the initial columns are signed unit vectors (so the starting basis
is diagonal and feasible) and further columns arrive on demand from a
pricing callback. The basis inverse is maintained explicitly; it is a
p x p matrix where p is the number of equality rows, so the numerics stay
well conditioned regardless of how many columns the caller generates.

All state lives in numpy arrays, on one code path for float mode and
exact mode (``object`` arrays of Fractions):
    working set  a preallocated p x capacity matrix, with ``ids`` and
                 ``costs`` arrays beside it. The first n slots are in use
                 and the capacity doubles when they fill up, so adding a
                 column copies only that column; the loop reads the
                 matrix and the costs as views of the used slots.
    basis        the basic column ids and their costs ``cB``, both
                 overwritten at the leaving position on each pivot. The
                 multipliers are ``cB @ Binv``; the objective is the
                 left-to-right running sum of ``cB * xB``.

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
    """Growing working set of columns (id, vector, cost).

    Slots ``0 .. n-1`` of the preallocated arrays hold the columns in
    arrival order; a full set doubles its capacity.
    """

    def __init__(self, p: int, dtype, capacity: int):
        self.n = 0
        self.pos_of: dict[int, int] = {}
        self._mat = np.empty((p, capacity), dtype=dtype)
        self._ids = np.empty(capacity, dtype=np.int64)
        self._costs = np.empty(capacity, dtype=dtype)

    def add(self, cid: int, vec, cost):
        if cid in self.pos_of:
            return
        n = self.n
        if n == len(self._ids):
            self._mat, self._ids, self._costs = (
                self._grown(a) for a in (self._mat, self._ids, self._costs))
        self._mat[:, n] = vec
        self._ids[n] = cid
        self._costs[n] = cost
        self.pos_of[cid] = n
        self.n = n + 1

    def _grown(self, a: np.ndarray) -> np.ndarray:
        out = np.empty(a.shape[:-1] + (2 * a.shape[-1],), dtype=a.dtype)
        out[..., :self.n] = a[..., :self.n]
        return out

    def matrix(self) -> np.ndarray:
        return self._mat[:, :self.n]

    def column(self, pos: int) -> np.ndarray:
        return self._mat[:, pos]

    @property
    def ids(self) -> np.ndarray:
        return self._ids[:self.n]

    @property
    def costs(self) -> np.ndarray:
        return self._costs[:self.n]


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

    work = _Working(p, dt, max(16, 2 * len(initial_columns)))
    for cid, vec, cost in initial_columns:
        work.add(cid, vec, cost)

    # starting basis: for each row q a signed unit column matching sgn(w_q)
    basis = np.empty(p, dtype=np.int64)
    cB = np.empty(p, dtype=dt)
    Binv = np.zeros((p, p), dtype=dt)
    xB = np.empty(p, dtype=dt)
    for q in range(p):
        want = -one if w[q] < zero else one
        if start_basis is not None:
            cid = start_basis[q]
            vec = work.column(work.pos_of[cid])
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
        basis[q] = cid
        cB[q] = work.costs[work.pos_of[cid]]
        Binv[q, q] = want
        xB[q] = w[q] * want
    for q in range(p):
        if exact:
            xB[q] = Fraction(xB[q])
        if xB[q] < zero:
            raise ValueError("starting basis is infeasible")

    pivots = 0
    bland_pivots = 0
    pricing_rounds = 0
    bland = exact
    stall = 0
    last_obj = None

    def objective():
        # the running sum adds the products left to right, like a loop
        return np.cumsum(cB * xB)[-1] if p else zero

    def weights():
        return {b: x for b, x in zip(basis.tolist(), xB) if x != zero}

    def diagnostics(**extra):
        return {**extra, "bland_pivots": bland_pivots,
                "pricing_rounds": pricing_rounds, "columns": work.n}

    while True:
        pi = cB @ Binv
        rc = work.costs - pi @ work.matrix()
        if bland:
            cand = (rc < -entering_tol).nonzero()[0]
            enter = int(cand[work.ids[cand].argmin()]) if len(cand) else -1
        else:
            enter = int(rc.argmin())
            if not rc[enter] < -entering_tol:
                enter = -1
        if enter < 0:
            pricing_rounds += 1
            fresh = price(pi)
            if not fresh:
                return ColumnLPResult("optimal", objective(), pi, weights(),
                                      pivots, diagnostics())
            for cid, vec, cost in fresh:
                work.add(cid, vec, cost)
            continue

        if pivots >= pivot_cap:
            return ColumnLPResult("budget-exceeded", objective(), pi, weights(),
                                  pivots, diagnostics())

        d = Binv @ work.column(enter)
        eligible = (d > pivot_tol).nonzero()[0]
        if not len(eligible):
            return ColumnLPResult("infeasible", None, None, {}, pivots,
                                  diagnostics(entering=int(work.ids[enter])))
        ratios = xB[eligible] / d[eligible]
        rmin = ratios.min()
        if exact:
            ties = eligible[ratios == rmin]
        else:
            ties = eligible[ratios <= rmin * (1 + 1e-9) + 1e-15]
        if bland:
            leave = int(ties[basis[ties].argmin()])
        else:
            # largest |d|, then the lowest basis id
            size = np.abs(d[ties])
            top = ties[size == size.max()]
            leave = int(top[basis[top].argmin()])

        # pivot: replace basis[leave] by the entering column
        theta = xB[leave] / d[leave]
        xB -= d * theta
        if not exact:
            xB[np.abs(xB) < 1e-13] = 0.0
            np.maximum(xB, 0.0, out=xB)
        xB[leave] = theta
        Binv[leave] /= d[leave]
        d[leave] = zero
        Binv -= np.multiply.outer(d, Binv[leave])
        basis[leave] = work.ids[enter]
        cB[leave] = work.costs[enter]
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
