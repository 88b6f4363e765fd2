"""Dense revised simplex on a unit-cost equality-form LP with lazy columns.

Solves   min  sum_j lam_j
         s.t. sum_j lam_j col_j = w,   lam >= 0,

every column at cost 1, over the box columns +e_q (id q) and -e_q
(id p + q), which the solver adds itself pair by pair, then the
caller's initial columns, and further columns that arrive on demand
from a pricing callback. The start basis takes +e_q where w_q >= 0 and
-e_q otherwise, so it is diagonal and feasible. The basis inverse is
maintained explicitly; it is a p x p matrix where p is the number of
equality rows, so the numerics stay well conditioned regardless of how
many columns the caller generates.

All state lives in float numpy arrays:
    working set  a preallocated p x capacity matrix with an ``ids``
                 array beside it. The first n slots are in use and the
                 capacity doubles when they fill up, so adding a column
                 copies only that column; the loop reads the matrix as a
                 view of the used slots.
    basis        the basic column ids and their working-set slots, both
                 overwritten at the leaving position on each pivot. The
                 multipliers are ``ones @ Binv``; the objective is the
                 left-to-right running sum of ``xB``.

Pivoting: Dantzig entering with a largest-pivot tie-break; Bland's
anti-cycling rule (lowest column id) takes over after a stall of
``STALL_LIMIT`` pivots without progress and hands back at the next
strict decrease. A leaving row needs a basis direction above
``PIVOT_TOL``: smaller entries are within the rounding of the updated
inverse, and Bland's lowest-id tie-break would otherwise pivot on such
a rounded zero and make the basis singular.

Drift: the product-form updates of ``Binv`` and ``xB`` accumulate
rounding. Before each pricing round that follows a pivot, the residuals
max|B xB - w| and max|pi B - 1| are measured against the basic
columns; when either exceeds ``entering_tol``, ``Binv`` is re-inverted
and ``xB`` recomputed from them. A singular basis raises
``SingularBasisError``. The final basis ids are returned, so a caller
can recompute that basis in exact arithmetic.

Termination statuses:
    optimal          pricing found nothing below tolerance
    infeasible       an entering column had no basis direction above
                     ``PIVOT_TOL``. With unit costs the minimum is never
                     unbounded (lam >= 0 gives sum lam >= 0), so this
                     only reports a numerically unusable direction
    budget-exceeded  ``LP_PIVOT_CAP`` pivots done; an iterate that drifted
                     from its basis is re-solved from the basis columns,
                     or replaced by the start basis when they give no
                     nonnegative solution, so the weights are feasible
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .config import LP_PIVOT_CAP

# smallest basis direction a leaving row may have
PIVOT_TOL = 1e-9
# pivots without progress before Bland's rule takes over
STALL_LIMIT = 300

# a priced column, of cost 1: (column id, coefficient vector)
Column = tuple[int, Sequence]


@dataclass
class ColumnLPResult:
    status: str
    objective: float | None
    pi: np.ndarray | None              # row multipliers (optimal y)
    weights: dict[int, float]          # basic lam by column id
    pivots: int
    diagnostics: dict = field(default_factory=dict)
    basis: list[int] = field(default_factory=list)  # basic column ids by row


class _Working:
    """Growing working set of columns (id, vector).

    Slots ``0 .. n-1`` of the preallocated arrays hold the columns in
    arrival order; a full set doubles its capacity. The set starts with
    the box columns +e_q (id q) and -e_q (id p + q), pair by pair.
    """

    def __init__(self, p: int, capacity: int):
        q = np.arange(p)
        self.n = 2 * p
        self._mat = np.zeros((p, capacity))
        self._mat[q, 2 * q] = 1.0
        self._mat[q, 2 * q + 1] = -1.0
        self._ids = np.empty(capacity, dtype=np.int64)
        self._ids[:2 * p] = np.column_stack((q, p + q)).ravel()
        self.pos_of = dict(zip(self._ids[:2 * p].tolist(), range(2 * p)))

    def add(self, cid: int, vec):
        if cid in self.pos_of:
            return
        n = self.n
        if n == len(self._ids):
            self._mat, self._ids = self._grown(self._mat), self._grown(self._ids)
        self._mat[:, n] = vec
        self._ids[n] = cid
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


class SingularBasisError(RuntimeError):
    """The float basis inverse degraded to non-finite entries."""


def _clean(xB: np.ndarray) -> None:
    """Zero the negative and rounding-level basic values."""
    xB[xB < 1e-13] = 0.0


def solve_column_lp(
    w,
    initial_columns: list[Column],
    price: Callable,
    *,
    entering_tol: float = 1e-9,
) -> ColumnLPResult:
    """price(pi) must return new Columns with negative reduced cost, or [].

    ``initial_columns`` join the working set after the box columns.
    """
    w = np.asarray(w, dtype=float)
    p = len(w)

    work = _Working(p, max(16, 2 * (2 * p + len(initial_columns))))
    for cid, vec in initial_columns:
        work.add(cid, vec)

    # start basis, kept whole: for each row q the box column of sign sgn(w_q)
    q = np.arange(p)
    neg = w < 0.0
    sign = np.where(neg, -1.0, 1.0)
    start = np.where(neg, p + q, q), 2 * q + neg, np.diag(sign), w * sign
    basis, slot, Binv, xB = (a.copy() for a in start)
    # the multipliers are ones @ Binv: Binv.sum(axis=0) adds in another order
    ones = np.ones(p)

    pivots = 0
    bland_pivots = 0
    pricing_rounds = 0
    bland = False
    stall = 0
    last_obj = None
    checked = True  # Binv checked for drift since the last pivot

    def objective():
        # the running sum adds the basic values left to right, like a loop
        return np.cumsum(xB)[-1] if p else 0.0

    def weights():
        # a column can enter the basis twice; its weights add up
        ids, at = np.unique(basis, return_inverse=True)
        sums = np.bincount(at, xB, len(ids))
        return {b: x for b, x in zip(ids.tolist(), sums) if x != 0.0}

    def diagnostics(**extra):
        return {**extra, "bland_pivots": bland_pivots,
                "pricing_rounds": pricing_rounds, "columns": work.n}

    def result(status):
        return ColumnLPResult(status, objective(), pi, weights(), pivots,
                              diagnostics(), basis.tolist())

    while True:
        pi = ones @ Binv
        rc = 1.0 - pi @ work.matrix()
        if bland:
            cand = (rc < -entering_tol).nonzero()[0]
            enter = int(cand[work.ids[cand].argmin()]) if len(cand) else -1
        else:
            enter = int(rc.argmin())
            if not rc[enter] < -entering_tol:
                enter = -1
        if enter < 0:
            if not checked:
                checked = True
                B = work.matrix()[:, slot]
                drift = max(np.abs(B @ xB - w).max(initial=0.0),
                            np.abs(pi @ B - 1.0).max(initial=0.0))
                if drift > entering_tol:
                    try:
                        Binv = np.linalg.inv(B)
                    except np.linalg.LinAlgError as e:
                        raise SingularBasisError("basis matrix is singular") from e
                    xB = Binv @ w
                    _clean(xB)
                    continue
            pricing_rounds += 1
            fresh = price(pi)
            if not fresh:
                return result("optimal")
            for cid, vec in fresh:
                work.add(cid, vec)
            continue

        if pivots >= LP_PIVOT_CAP:
            # re-solve a drifted iterate from its basis, by pseudo-inverse
            # since a column may sit in it twice; else the start basis
            B = work.matrix()[:, slot]
            if np.abs(B @ xB - w).max(initial=0.0) > entering_tol:
                Binv = np.linalg.pinv(B)
                xB = Binv @ w
                if not ((xB >= -entering_tol).all() and np.abs(
                        B @ xB - w).max(initial=0.0) <= entering_tol):
                    basis, slot, Binv, xB = start
                _clean(xB)
                pi = ones @ Binv
            return result("budget-exceeded")

        d = Binv @ work.column(enter)
        eligible = (d > PIVOT_TOL).nonzero()[0]
        if not len(eligible):
            return ColumnLPResult("infeasible", None, None, {}, pivots,
                                  diagnostics(entering=int(work.ids[enter])))
        ratios = xB[eligible] / d[eligible]
        rmin = ratios.min()
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
        _clean(xB)
        xB[leave] = theta
        Binv[leave] /= d[leave]
        d[leave] = 0.0
        Binv -= np.multiply.outer(d, Binv[leave])
        basis[leave] = work.ids[enter]
        slot[leave] = enter
        pivots += 1
        if bland:
            bland_pivots += 1

        checked = False
        if pivots % 128 == 0 and not (
            np.isfinite(Binv).all() and np.isfinite(xB).all()
        ):
            raise SingularBasisError("basis inverse lost finiteness")
        obj = float(objective())
        if last_obj is not None and obj >= last_obj - 1e-12:
            stall += 1
            if stall >= STALL_LIMIT:
                bland = True
        else:
            stall = 0
            bland = False
        last_obj = obj
