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

All state lives in numpy arrays:
    working set  the matrix ``M`` of the columns in arrival order, with
                 their ``ids`` beside it. A pricing batch, less the ids
                 already held, is appended as one block.
    basis        ``slot``, the working-set position of the basic column
                 of each row, overwritten at the leaving row on each
                 pivot; the basic ids are ``ids[slot]``. The multipliers
                 are ``ones @ Binv``; the objective is the left-to-right
                 running sum of ``xB``.

Pivoting: Dantzig entering with a largest-|d|, then lowest-basis-id
tie-break on the leaving row. A basic column's reduced cost is zeroed
before the entering choice: it is 0 in exact arithmetic, and drift would
otherwise let a column enter the basis a second time. A leaving row
needs a basis direction above ``PIVOT_TOL``: smaller entries are within
the rounding of the updated inverse, and pivoting on such a rounded zero
would make the basis singular.

Lift: a stall of ``STALL_LIMIT`` pivots without progress lifts the
basic values off their degenerate zeros (Wolfe's ad hoc perturbation,
J. SIAM 11, 1963): ``xB += delta`` with ``delta = LIFT_SCALE * (1 + u) *
max(1, max|w|)``, ``u`` uniform from a generator seeded once per solve,
and the working right-hand side moves to ``rhs + B delta``, so the
current basis stays feasible and exact. The lift is kept small, as in
the EXPAND procedure of Gill, Murray, Saunders & Wright (Math. Prog. 45,
1989). The costs never move, so the multipliers of a basis are the same
on the lifted and the true right-hand side.

Drift: the product-form updates of ``Binv`` and ``xB`` accumulate
rounding. Before each pricing round that follows a pivot, the residuals
max|B xB - rhs| and max|pi B - 1| are measured against the basic
columns and the working right-hand side; when either exceeds
``entering_tol``, ``Binv`` is re-inverted and ``xB`` recomputed from
them; every 128 pivots, a ``Binv`` or ``xB`` with a non-finite entry
is re-inverted too. Re-inversion is the one recovery: a singular basis,
or one whose ``B^-1 rhs`` has an entry below ``-entering_tol``, is not
clipped or patched, and the solve restarts from the start basis on the
true ``w``, keeping its working set. A restart whose working set has not
grown since the last restart would retrace the path that led to it, so
it lifts the start basis at once. The final basis ids are returned, so a
caller can recompute that basis in exact arithmetic.

Termination statuses:
    optimal          pricing found nothing below tolerance. After a
                     lift, the final basis is first re-inverted and
                     solved on the true ``w``; a feasible one is priced
                     again there, an infeasible one restarts as above
    infeasible       an entering column had no basis direction above
                     ``PIVOT_TOL``. With unit costs the minimum is never
                     unbounded (lam >= 0 gives sum lam >= 0), so this
                     only reports a numerically unusable direction
    budget-exceeded  ``LP_PIVOT_CAP`` pivots done; an iterate off the
                     true ``w`` (drifted or lifted) is re-inverted on
                     ``w``, so a singular or infeasible basis ends at the
                     start basis and the weights are feasible

``diagnostics`` counts the pricing rounds, the working-set columns, the
lifts and the basis restarts.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .config import LP_PIVOT_CAP

# smallest basis direction a leaving row may have
PIVOT_TOL = 1e-9
# pivots without progress before the basic values are lifted
STALL_LIMIT = 300
# size of a lift, relative to max(1, max|w|)
LIFT_SCALE = 1e-7

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


def solve_column_lp(
    w,
    initial_columns: list[Column],
    price: Callable,
    *,
    entering_tol: float = 1e-9,
) -> ColumnLPResult:
    """price(pi) must return new Columns with negative reduced cost, or [].

    ``initial_columns`` join the working set after the box columns. A
    column whose id the working set already holds is skipped, and so is
    every copy of an id after the first within one batch.
    """
    w = np.asarray(w, dtype=float)
    p = len(w)

    # the working set: the box columns +e_q (id q) and -e_q (id p + q),
    # pair by pair, then every column taken in, in arrival order
    q = np.arange(p)
    M = np.zeros((p, 2 * p))
    M[q, 2 * q] = 1.0
    M[q, 2 * q + 1] = -1.0
    ids = np.column_stack((q, p + q)).ravel()

    def intake(columns):
        """Append the columns whose ids are new, as one block."""
        nonlocal M, ids
        held = set(ids.tolist())
        new = {}
        for cid, vec in columns:
            if cid not in held:
                new.setdefault(cid, vec)
        if new:
            M = np.concatenate(
                (M, np.array(list(new.values()), dtype=float).T), axis=1)
            ids = np.concatenate((ids, list(new)))

    intake(initial_columns)

    # start basis, kept whole: for each row q the box column of sign sgn(w_q)
    neg = w < 0.0
    sign = np.where(neg, -1.0, 1.0)
    start = 2 * q + neg, np.diag(sign), w * sign
    slot, Binv, xB = (a.copy() for a in start)
    # the multipliers are ones @ Binv: Binv.sum(axis=0) adds in another order
    ones = np.ones(p)

    pivots = 0
    pricing_rounds = 0
    lifts = 0
    basis_restarts = 0
    rng = None  # the lift's generator, seeded at the first lift
    rhs = w  # the working right-hand side: w until a lift moves it
    stall = 0
    last_obj = None
    checked = True  # Binv checked for drift since the last pivot
    restart_columns = None  # working-set size at the last restart
    repeat = False  # a restart found the working set of the one before

    def objective():
        # the running sum adds the basic values left to right, like a loop
        return xB.cumsum()[-1]

    def weights():
        return {b: x for b, x in zip(ids[slot].tolist(), xB) if x != 0.0}

    def diagnostics(**extra):
        return {**extra, "pricing_rounds": pricing_rounds, "columns": len(ids),
                "lifts": lifts, "basis_restarts": basis_restarts}

    def result(status):
        return ColumnLPResult(status, objective(), pi, weights(), pivots,
                              diagnostics(), ids[slot].tolist())

    def reinvert(B):
        """Solve the basis B on rhs afresh, or restart from the start
        basis on w when B is singular or that solution is infeasible."""
        nonlocal slot, Binv, xB, rhs, stall, last_obj, basis_restarts
        nonlocal restart_columns, repeat
        try:
            Binv = np.linalg.inv(B)
            xB = Binv @ rhs
        except np.linalg.LinAlgError:
            xB = None
        # a non-finite xB fails the test as well
        if xB is None or not xB.min() >= -entering_tol:
            slot, Binv, xB = (a.copy() for a in start)
            rhs, stall, last_obj = w, 0, None
            basis_restarts += 1
            repeat = restart_columns == len(ids)
            restart_columns = len(ids)
        else:
            xB[xB < 1e-13] = 0.0

    def lift():
        """Move the basic values off their degenerate zeros; the basis
        stays exact on the moved right-hand side."""
        nonlocal rng, xB, rhs, lifts, stall
        if rng is None:
            rng = np.random.default_rng(0)
        delta = LIFT_SCALE * (1.0 + rng.random(p)) * max(
            1.0, np.abs(w).max())
        xB += delta
        rhs = rhs + M[:, slot] @ delta
        lifts += 1
        stall = 0

    while True:
        if repeat:
            # a restart with no new column since the last one would take
            # the same path back to it: lift the start basis at once
            repeat = False
            lift()
        pi = ones @ Binv
        rc = 1.0 - pi @ M
        # a basic column's reduced cost is 0 up to drift, and it never
        # enters again
        rc[slot] = 0.0
        enter = int(rc.argmin())
        if not rc[enter] < -entering_tol:
            if not checked:
                checked = True
                B = M[:, slot]
                drift = max(np.abs(B @ xB - rhs).max(initial=0.0),
                            np.abs(pi @ B - 1.0).max(initial=0.0))
                if drift > entering_tol:
                    reinvert(B)
                    continue
            pricing_rounds += 1
            fresh = price(pi)
            if fresh:
                intake(fresh)
            elif rhs is w:
                return result("optimal")
            else:
                # optimal on the lifted right-hand side: solve the basis
                # on the true w, then price it there
                rhs = w
                reinvert(M[:, slot])
            continue

        if pivots >= LP_PIVOT_CAP:
            # solve an iterate off w (drifted or lifted) on w afresh
            if rhs is not w or np.abs(
                    M[:, slot] @ xB - w).max(initial=0.0) > entering_tol:
                rhs = w
                reinvert(M[:, slot])
                pi = ones @ Binv
            return result("budget-exceeded")

        d = Binv @ M[:, enter]
        eligible = (d > PIVOT_TOL).nonzero()[0]
        if not len(eligible):
            return ColumnLPResult("infeasible", None, None, {}, pivots,
                                  diagnostics(entering=int(ids[enter])))
        ratios = xB[eligible] / d[eligible]
        rmin = ratios.min()
        ties = eligible[ratios <= rmin * (1 + 1e-9) + 1e-15]
        if len(ties) == 1:
            leave = int(ties[0])
        else:
            # largest |d|, then the lowest basis id
            size = np.abs(d[ties])
            top = ties[size == size.max()]
            leave = int(top[ids[slot[top]].argmin()])

        # pivot: the entering column takes the leaving row's slot
        dl = d[leave]
        theta = xB[leave] / dl
        xB -= d * theta
        # zero the negative and rounding-level basic values
        xB[xB < 1e-13] = 0.0
        xB[leave] = theta
        row = Binv[leave]
        row /= dl
        d[leave] = 0.0
        Binv -= np.multiply.outer(d, row)
        slot[leave] = enter
        pivots += 1

        checked = False
        if pivots % 128 == 0 and not (
            np.isfinite(Binv).all() and np.isfinite(xB).all()
        ):
            reinvert(M[:, slot])
        obj = float(xB.cumsum()[-1])
        if last_obj is not None and obj >= last_obj - 1e-12:
            stall += 1
            if stall >= STALL_LIMIT:
                lift()
                obj = float(xB.cumsum()[-1])
        else:
            stall = 0
        last_obj = obj
