"""Extremal sums of positive definite functions on finite abelian groups.

For a group G and a symmetric domain Omega (contains 0, closed under
negation), the constant computed here is the largest possible value of
sum_x f(x) / f(0) over positive definite f supported inside Omega.

Restricting to real even f loses nothing, so the unknowns are one value
per negation pair {x, -x} of Omega minus 0, with f(0) = 1 substituted
out. Positive definiteness is equivalent to nonnegativity of the
transform, one linear constraint per negation pair of characters, and
the whole problem is a linear program.

The LP is attacked through its dual, a minimum-cost column program:
box columns encode |f(x)| <= f(0) (valid for every positive definite f)
and character columns are generated lazily, priced by one transform of
the current iterate per round. Every feasible point of the column
program is an upper bound for the constant, so even a budget-truncated
run returns something rigorous.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .bounds import BoundReport
from .config import DEFAULT_TOLERANCES, LP_GROUP_ORDER_CAP, Tolerances
from .errors import (CertificateInvalidError, InvalidHomomorphismError,
                     WitnessRejectedError)
from .groups import (Element, FiniteAbelianGroup, Subgroup, SymmetricDomain,
                     digits, direct_product, flat, image_domain,
                     negation_pairs, quotient_group, subgroup_as_group,
                     symmetric_domain)
from .harmonic import (GroupFunction, _axis_transform, _root_table,
                       is_positive_definite)
from .rational import solve_fractions
from .simplex import SingularBasisError, solve_column_lp


@dataclass
class LPProblem:
    """Data of the pair-reduced program for one (group, domain) instance.

    Variables: one per negation pair of ``domain`` minus 0, weight = pair
    size. Rows: one per negation pair of characters (the trivial character
    first), entries sum Re gamma(x) over the variable's pair. Row r states
    1 + sum_q a[r,q] y_q >= 0, which is f(0) = 1 substituted out.

    Rows are evaluated from integer phases, never from a transform: with
    N = lcm(moduli) and the pair representatives' coordinates scaled to N
    (``phase_x``), entry (r, q) is
    ``sizes[q] * cos_table[(phase_x[q] . dual_coords[r]) % N]``, where
    ``cos_table`` holds Re exp(2 pi i k / N) exact at quarter turns. For
    moduli in {1, 2, 4} every entry is therefore an exact float; exact
    mode (moduli in {1, 2}) reads the same float rows, whose entries are
    the integers +-sizes[q]. The flat indices ``pair_index``,
    ``pair_neg_index`` and ``dual_index`` place the pairs and dual pairs
    in the group's enumeration for the whole-group transforms of pricing,
    the certificate and the witness; the exact finish runs the same
    transforms on Fractions.
    """

    group: FiniteAbelianGroup
    domain: SymmetricDomain
    pairs: list[tuple[Element, int]]
    sizes: np.ndarray = field(kw_only=True, repr=False)
    phase_x: np.ndarray = field(kw_only=True, repr=False)
    pair_index: np.ndarray = field(kw_only=True, repr=False)
    pair_neg_index: np.ndarray = field(kw_only=True, repr=False)
    dual_coords: np.ndarray = field(kw_only=True, repr=False)
    dual_sizes: np.ndarray = field(kw_only=True, repr=False)
    dual_index: np.ndarray = field(kw_only=True, repr=False)
    cos_table: np.ndarray = field(kw_only=True, repr=False)

    @property
    def n_vars(self) -> int:
        return len(self.pairs)

    @property
    def n_rows(self) -> int:
        return len(self.dual_index)

    @cached_property
    def dual_pairs(self) -> list[tuple[Element, int]]:
        """(representative, pair size) per row, the trivial character first."""
        return [(self.group.element(i), s) for i, s in
                zip(self.dual_index.tolist(), self.dual_sizes.tolist())]

    def _cos(self, phases: np.ndarray) -> np.ndarray:
        return self.cos_table[phases % len(self.cos_table)]

    def row(self, r: int) -> np.ndarray:
        """Constraint row a_r with entries sum over pair q of Re gamma_r."""
        return self.sizes * self._cos(self.phase_x @ self.dual_coords[r])

    def dual_reals(self, q: int) -> np.ndarray:
        """Re gamma_t(x_q) for every dual pair t, pair sizes not applied."""
        return self._cos(self.dual_coords @ self.phase_x[q])


def build_lp_problem(group: FiniteAbelianGroup,
                     domain: SymmetricDomain) -> LPProblem:
    if domain.group != group:
        raise ValueError("domain belongs to a different group")
    mods = group.moduli
    N = math.lcm(*mods)
    pairs = domain.pair_representatives()
    pair_coords = np.array([x for x, _s in pairs],
                           dtype=np.int64).reshape(len(pairs), len(mods))
    # dual pairs by the rule of pair_representatives, the trivial one first
    reps, sizes = negation_pairs(mods, np.arange(group.order))
    dual_index = np.concatenate(([0], reps))
    scale = np.array([N // m for m in mods], dtype=np.int64)
    return LPProblem(
        group, domain, pairs,
        sizes=np.array([s for _x, s in pairs], dtype=np.int64),
        phase_x=pair_coords * scale,
        pair_index=flat(mods, pair_coords),
        pair_neg_index=flat(mods, -pair_coords),
        # solutions keep their problem; the narrowest dtype keeps this small
        dual_coords=digits(mods, dual_index).astype(
            np.min_scalar_type(max(mods, default=1))),
        dual_sizes=np.concatenate(([1], sizes)),
        dual_index=dual_index,
        cos_table=np.ascontiguousarray(_root_table(N).real))


@dataclass
class LPSolution:
    """Outcome of one solve.

    status ``optimal``: value is the certified optimum, gap tiny.
    status ``budget-exceeded``: value is still a valid upper bound and f a
    valid witness, only the two need not meet; a group over
    ``LP_GROUP_ORDER_CAP`` is not solved, and f is None.
    status ``infeasible``: the simplex found no feasible point; value/f/dual
    are absent.
    ``exact_value``: in exact mode, the optimum proven in Fractions from
    the final basis; None when that proof failed, with the reason under
    ``diagnostics["exact_check"]``.
    """

    status: str
    value: float
    f: GroupFunction | None
    dual: np.ndarray | None
    gap: float
    problem: LPProblem | None = None
    exact_value: Fraction | None = None
    diagnostics: dict = field(default_factory=dict)


def _fold_box_weight(problem: LPProblem, lam, q: int, mu, sign: int) -> None:
    """Eliminate a box column's weight into character-row weights.

    The box constraint f(0) -+ f(x_q) >= 0 is the average of character
    rows with coefficients (1 -+ Re gamma(x_q)) / |G|, all nonnegative,
    so its dual weight mu spreads over the rows without changing either
    feasibility or the objective. The arithmetic is that of ``lam``: for
    Fraction weights the +-1 character values are read as ints.
    """
    re = problem.dual_reals(q)
    if lam.dtype == object:
        re = re.astype(int)
    lam += (mu / problem.group.order) * problem.dual_sizes * (1 - sign * re)


def _certificate_from_weights(problem: LPProblem, weights: dict, exact: bool):
    """Nonnegative weight per constraint row, from the basic column weights
    (Fractions when ``exact``, floats otherwise)."""
    p = problem.n_vars
    if exact:
        lam = np.array([Fraction(0)] * problem.n_rows, dtype=object)
    else:
        lam = np.zeros(problem.n_rows)
    for cid, mu in weights.items():
        if mu == 0:
            continue
        if cid >= 2 * p:
            lam[cid - 2 * p] += mu
        elif cid < p:
            _fold_box_weight(problem, lam, cid, mu, +1)
        else:
            _fold_box_weight(problem, lam, cid - p, mu, -1)
    return lam


def verify_dual_certificate(problem: LPProblem, row_weights,
                            tolerances: Tolerances = DEFAULT_TOLERANCES):
    """Check a per-row weight vector and return the upper bound it proves.

    Requirements: weights nonnegative, and the weighted rows add up to
    minus the objective vector. ``Fraction`` weights are checked exactly
    and prove a ``Fraction`` bound; any other weights are checked in
    float, within feasibility tolerance scaled by |G|. The certified bound
    is then 1 + sum_r weight_r, by weak duality.
    """
    G = problem.group
    if len(row_weights) != problem.n_rows:
        raise CertificateInvalidError("one weight per constraint row required")
    exact = all(isinstance(v, Fraction) for v in row_weights)
    tol = 0 if exact else tolerances.feasibility
    lam = np.asarray(row_weights, dtype=object if exact else float)
    negative = np.flatnonzero(lam < -tol)
    if negative.size:
        raise CertificateInvalidError(f"negative weight on row {negative[0]}")
    # sum_r lam_r Re gamma_{t_r}(x) for all x at once: transform of the
    # weight vector laid out on the character side
    u = np.zeros(G.order, dtype=lam.dtype)
    u[problem.dual_index] = lam
    spread = _axis_transform(u, G.moduli, False).real
    s = problem.sizes
    resid = np.abs(s * spread[problem.pair_index] + s).max(initial=0)
    if resid > tol * max(1.0, float(G.order)):
        raise CertificateInvalidError(
            f"row combination misses objective by {float(resid):.3e}")
    total = np.dot(lam, np.ones_like(lam))
    return Fraction(1) + total if exact else 1.0 + float(total)


def _embed(problem: LPProblem, y) -> np.ndarray:
    """Full value table of the even function with f(0)=1, f(+-x_q)=y_q,
    in the number type of y."""
    y = np.asarray(y)
    vals = np.zeros(problem.group.order, dtype=y.dtype)
    vals[0] = 1
    vals[problem.pair_index] = y
    vals[problem.pair_neg_index] = y
    return vals


def _mixed_witness(problem: LPProblem, y) -> tuple[GroupFunction, float]:
    """Project the iterate to a genuinely feasible witness.

    Mixing with a small multiple of the unit impulse lifts any slightly
    negative transform values to zero and keeps the support inside the
    domain; the cost is a proportional shrink of the ratio.
    """
    G = problem.group
    vals = _embed(problem, np.asarray(y, dtype=float))
    fhat = _axis_transform(vals, G.moduli, False).real
    s = max(0.0, -float(fhat.min()))
    if s > 0.0:
        vals = vals / (1.0 + s)
        vals[0] += s / (1.0 + s)
    f = GroupFunction(G, vals)
    return f, float(vals.sum())


def _exact_basis(problem: LPProblem, basis: list[int]):
    """Recompute the simplex's final basis in Fractions and prove it optimal.

    Box column q is +e_q (id q) or -e_q (id p + q) and character column r
    is -row(r) (id 2p + r), all of cost 1; on moduli {1, 2} the float rows
    hold exact integers. Eliminations of B and of its transpose give the
    basic weights xB = B^-1 w and the multipliers pi = 1 B^-1. The basis
    is optimal when xB >= 0 and no column has negative reduced cost:
    |pi_q| <= 1 for the box columns, and transform(embed(pi)) >= 0 on
    every dual pair for the character columns. Returns the weights by
    column id, the objective sum(xB) and pi; raises
    CertificateInvalidError on the first failed check.
    """
    p = problem.n_vars
    cols = []
    for b in basis:
        if b < 2 * p:
            col = [0] * p
            col[b % p] = 1 if b < p else -1
            cols.append(col)
        else:
            cols.append([-int(v) for v in problem.row(b - 2 * p).tolist()])
    _det, xB = solve_fractions(list(zip(*cols)),
                               [[s] for s in problem.sizes.tolist()])
    if xB is None:
        raise CertificateInvalidError("final basis is singular")
    xB = [x for x, in xB]
    neg = next((j for j, x in enumerate(xB) if x < 0), None)
    if neg is not None:
        raise CertificateInvalidError(
            f"basic weight of column {basis[neg]} is {xB[neg]} < 0")
    _det, pi = solve_fractions(cols, [[1]] * len(cols))
    pi = np.array([y for y, in pi], dtype=object)
    over = np.flatnonzero(abs(pi) > 1)
    if over.size:
        raise CertificateInvalidError(
            f"multiplier of pair {over[0]} is {pi[over[0]]}, beyond [-1, 1]")
    fhat = _axis_transform(_embed(problem, pi), problem.group.moduli, False)
    rc = fhat[problem.dual_index]
    bad = np.flatnonzero(rc < 0)
    if bad.size:
        raise CertificateInvalidError(
            f"row {bad[0]} has reduced cost {rc[bad[0]]} < 0")
    weights = {b: x for b, x in zip(basis, xB) if x}
    return weights, sum(xB), pi


def solve_lp(problem: LPProblem, mode: str = "float",
             tolerances: Tolerances = DEFAULT_TOLERANCES) -> LPSolution:
    """Solve a built problem in ``float`` or ``exact-rational`` mode.

    Both modes run the same float simplex; exact mode then proves its
    final basis optimal in Fractions, which needs every modulus in {1, 2}.
    """
    if mode not in ("float", "exact-rational"):
        raise ValueError("mode must be 'float' or 'exact-rational'")
    exact = mode == "exact-rational"
    G = problem.group
    if exact and any(m not in (1, 2) for m in G.moduli):
        raise ValueError("exact mode needs every modulus in {1, 2}")
    p = problem.n_vars

    if p == 0:
        f = GroupFunction(G, _embed(problem, []))
        lam = _certificate_from_weights(problem, {}, exact)
        return LPSolution("optimal", 1.0, f, lam, 0.0, problem,
                          Fraction(1) if exact else None)

    w = problem.sizes.astype(float)
    tol = tolerances.feasibility
    offered = np.zeros(problem.n_rows, dtype=bool)

    def price(pi):
        fhat = _axis_transform(_embed(problem, pi), G.moduli, False).real
        rc = fhat[problem.dual_index]
        # violated rows not offered yet, by (rc, r): a stable sort of the
        # ascending candidate indices breaks rc ties by the lower row
        cand = np.flatnonzero((rc < -tol) & ~offered)
        take = cand[np.argsort(rc[cand], kind="stable")][:32]
        offered[take] = True
        return [(2 * p + r, -problem.row(r), 1.0) for r in take.tolist()]

    # the simplex holds the box columns itself
    try:
        res = solve_column_lp(w, [], price, entering_tol=tol)
        restarts = 0
    except SingularBasisError:
        # deterministic tiny perturbation of the objective, then re-solve;
        # the certificate check against the unperturbed data still applies
        wp = np.array([w[q] * (1.0 + 1e-9 * (q + 1) / p) for q in range(p)])
        offered[:] = False
        res = solve_column_lp(wp, [], price, entering_tol=tol)
        restarts = 1

    diag = {"pivots": res.pivots, "perturbed_restarts": restarts}
    diag.update(res.diagnostics)

    if res.status == "infeasible":
        return LPSolution("infeasible", float("nan"), None, None,
                          float("nan"), problem, None, diag)

    weights, pi, exact_value = res.weights, res.pi, None
    if exact and res.status == "optimal":
        try:
            weights, objective, pi = _exact_basis(problem, res.basis)
            exact_value = 1 + objective
        except CertificateInvalidError as e:
            diag["exact_check"] = f"failed: {e}"
    lam = _certificate_from_weights(problem, weights, exact_value is not None)
    upper = verify_dual_certificate(problem, lam, tolerances)
    f, primal = _mixed_witness(problem, pi)
    gap = abs(float(upper) - primal)
    return LPSolution(res.status, float(upper), f, lam, gap, problem,
                      exact_value, diag)


def turan_constant(group: FiniteAbelianGroup, domain: SymmetricDomain,
                   mode: str = "float",
                   tolerances: Tolerances = DEFAULT_TOLERANCES) -> LPSolution:
    """Largest sum/f(0) ratio over positive definite f supported in domain.

    Groups of order above ``LP_GROUP_ORDER_CAP`` are not solved; the
    trivial estimate |domain| comes back with status budget-exceeded and
    f None. Its gap is to the trivial lower bound 1, which the unit
    impulse attains, so no table of |G| values is built.
    """
    if domain.group != group:
        raise ValueError("domain belongs to a different group")
    if group.order > LP_GROUP_ORDER_CAP:
        return LPSolution("budget-exceeded", float(domain.size), None, None,
                          float(domain.size) - 1.0, None, None,
                          {"reason": f"group order {group.order} over cap "
                                     f"{LP_GROUP_ORDER_CAP}"})
    return solve_lp(build_lp_problem(group, domain), mode, tolerances)


def witness_ratio(f: GroupFunction, domain: SymmetricDomain) -> BoundReport:
    """Certified lower bound sum f / f(0) from an explicit witness."""
    G = f.group
    if domain.group != G:
        raise ValueError("witness and domain live on different groups")
    if abs(f(G.identity())) == 0:
        raise WitnessRejectedError("witness has f(0) = 0", offender=G.identity())
    for x in f.support():
        if x not in domain:
            raise WitnessRejectedError(
                f"witness support leaks outside the domain at {x}", offender=x)
    report = is_positive_definite(f)
    if not report.flag:
        fhat = _axis_transform(f.values, G.moduli, False).real
        worst = G.element(int(np.argmin(fhat)))
        raise WitnessRejectedError(
            f"witness transform dips to {report.min_real:.3e} at character {worst}",
            offender=worst)
    ratio = f.total() / f(G.identity())
    return BoundReport(ratio, "witness", "lower", {"f": f})


def subgroup_bound(group: FiniteAbelianGroup, domain: SymmetricDomain,
                   K: Subgroup) -> BoundReport:
    """Upper bound (|G|/|K|) * constant of (K, domain intersect K)."""
    if K.group != group or domain.group != group:
        raise ValueError("subgroup and domain must belong to the group")
    Ks, to_sub, _from_sub = subgroup_as_group(K)
    inner_elems = [to_sub[x] for x in domain.elements if x in K]
    sol = turan_constant(Ks, symmetric_domain(Ks, inner_elems))
    value = float(Fraction(group.order, K.order)) * sol.value
    return BoundReport(value, "subgroup", "upper",
                       {"K": sorted(K.elements), "inner": sol})


def quotient_bound(group: FiniteAbelianGroup, domain: SymmetricDomain,
                   K: Subgroup) -> BoundReport:
    """Upper bound constant(G/K, projected domain) * constant(K, domain in K)."""
    if K.group != group or domain.group != group:
        raise ValueError("subgroup and domain must belong to the group")
    Q, project = quotient_group(group, K)
    theta = symmetric_domain(Q, {project(x) for x in domain.elements})
    outer = turan_constant(Q, theta)
    inner_elems = [x for x in domain.elements if x in K]
    cert = {"K": sorted(K.elements), "outer": outer}
    if len(inner_elems) == 1:
        value = outer.value
        cert["inner"] = None
    else:
        Ks, to_sub, _ = subgroup_as_group(K)
        inner = turan_constant(
            Ks, symmetric_domain(Ks, [to_sub[x] for x in inner_elems]))
        value = outer.value * inner.value
        cert["inner"] = inner
    return BoundReport(value, "quotient", "upper", cert)


def automorphism_image_constant(group: FiniteAbelianGroup,
                                domain: SymmetricDomain, images) -> LPSolution:
    """Solve on the automorphic image of the domain (the value is preserved)."""
    mapped = image_domain(domain, images)  # raises if not bijective
    return turan_constant(group, mapped)


def product_constant(g1: FiniteAbelianGroup, d1: SymmetricDomain,
                     g2: FiniteAbelianGroup, d2: SymmetricDomain) -> LPSolution:
    """Solve on the direct product domain d1 x d2 inside g1 x g2."""
    if d1.group != g1 or d2.group != g2:
        raise ValueError("domains must match their groups")
    G = direct_product(g1, g2)
    elems = [x + y for x in d1.elements for y in d2.elements]
    return turan_constant(G, symmetric_domain(G, elems))
