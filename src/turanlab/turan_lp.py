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

import dataclasses
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .bounds import BoundReport
from .config import (DEFAULT_TOLERANCES, LP_GROUP_ORDER_CAP, LP_PIVOT_CAP,
                     Tolerances)
from .errors import (CertificateInvalidError, InvalidHomomorphismError,
                     WitnessRejectedError)
from .groups import (Element, FiniteAbelianGroup, Subgroup, SymmetricDomain,
                     digits, direct_product, flat, image_domain,
                     quotient_group, subgroup_as_group, symmetric_domain)
from .harmonic import (GroupFunction, _axis_transform, is_positive_definite,
                       root_of_unity)
from .rational import solve_fractions
from .simplex import SingularBasisError, solve_column_lp


@lru_cache(maxsize=64)
def _cos_table(N: int) -> np.ndarray:
    """Re exp(2 pi i k / N) for k < N, exact at quarter turns (read-only,
    since every problem with this N shares it)."""
    table = np.array([root_of_unity(Fraction(k, N)).real for k in range(N)])
    table.flags.writeable = False
    return table


@dataclass
class LPProblem:
    """Data of the pair-reduced program for one (group, domain) instance.

    Variables: one per negation pair of ``domain`` minus 0, weight = pair
    size. Rows: one per negation pair of characters (the trivial character
    first), entries sum Re gamma(x) over the variable's pair. Row r states
    constants[r] + sum_q a[r,q] y_q >= 0; the default constants are all 1,
    which is f(0) substituted out. Other constants are allowed (that is
    how malformed, unsatisfiable rows are expressed) and make the program
    potentially infeasible.

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
    constants: np.ndarray
    exact: bool = False
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

    def weight_vector(self) -> np.ndarray:
        return self.sizes.astype(float)

    def _cos(self, phases: np.ndarray) -> np.ndarray:
        return self.cos_table[phases % len(self.cos_table)]

    def row(self, r: int) -> np.ndarray:
        """Constraint row a_r with entries sum over pair q of Re gamma_r."""
        return self.sizes * self._cos(self.phase_x @ self.dual_coords[r])

    def dual_reals(self, q: int) -> np.ndarray:
        """Re gamma_t(x_q) for every dual pair t, pair sizes not applied."""
        return self._cos(self.dual_coords @ self.phase_x[q])


def build_lp_problem(
    group: FiniteAbelianGroup,
    domain: SymmetricDomain,
    constants=None,
    exact: bool = False,
) -> LPProblem:
    if domain.group != group:
        raise ValueError("domain belongs to a different group")
    if exact and any(m not in (1, 2) for m in group.moduli):
        raise ValueError("exact mode needs every modulus in {1, 2}")
    mods = group.moduli
    N = math.lcm(*mods)
    pairs = domain.pair_representatives()
    pair_coords = np.array([x for x, _s in pairs],
                           dtype=np.int64).reshape(len(pairs), len(mods))
    # dual pairs: the smaller flat index of each {t, -t} represents it,
    # which is the enumeration-order choice of pair_representatives
    idx = np.arange(group.order, dtype=np.int64)
    coords = digits(mods, idx)
    neg = flat(mods, -coords)
    dual_index = np.concatenate(([0], np.flatnonzero((idx <= neg) & (idx > 0))))
    dual_sizes = np.where(idx[dual_index] == neg[dual_index], 1, 2)
    n = len(dual_index)
    if constants is None:
        consts = np.ones(n)
    else:
        consts = np.asarray(constants, dtype=float)
        if consts.shape != (n,):
            raise ValueError(f"constants must have length {n}")
    scale = np.array([N // m for m in mods], dtype=np.int64)
    return LPProblem(
        group, domain, pairs, consts, exact,
        sizes=np.array([s for _x, s in pairs], dtype=np.int64),
        phase_x=pair_coords * scale,
        pair_index=flat(mods, pair_coords),
        pair_neg_index=flat(mods, -pair_coords),
        # solutions keep their problem; the narrowest dtype keeps this small
        dual_coords=coords[dual_index].astype(np.min_scalar_type(max(mods, default=1))),
        dual_sizes=dual_sizes,
        dual_index=dual_index,
        cos_table=_cos_table(N))


@dataclass
class LPSolution:
    """Outcome of one solve.

    status ``optimal``: value is the certified optimum, gap tiny.
    status ``budget-exceeded``: value is still a valid upper bound and f a
    valid witness, only the two need not meet.
    status ``infeasible``: no function satisfies the rows; value/f/dual
    are absent. Only reachable through hand-built constants.
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
    feasibility or (for unit constants) the objective.
    """
    G = problem.group
    re = problem.dual_reals(q)
    if lam.dtype == object:
        inv = Fraction(1, G.order)
        for r, s in enumerate(problem.dual_sizes.tolist()):
            lam[r] += mu * s * (1 - sign * int(re[r])) * inv
    else:
        lam += (mu / G.order) * problem.dual_sizes * (1.0 - sign * re)


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
    minus the objective vector (within feasibility tolerance scaled by
    |G|; exactly, in exact mode). The certified bound is then
    1 + sum_r weight_r * constants_r, by weak duality.
    """
    G = problem.group
    if len(row_weights) != problem.n_rows:
        raise CertificateInvalidError("one weight per constraint row required")
    exact = problem.exact and all(isinstance(v, (int, Fraction)) for v in row_weights)
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
    if exact:
        consts = [Fraction(c) for c in problem.constants.tolist()]
        return Fraction(1) + np.dot(lam, np.array(consts, dtype=object))
    return 1.0 + float(np.dot(lam, problem.constants))


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

    Box column q is +e_q (id q) or -e_q (id p + q), both of cost 1, and
    character column r is -row(r) (id 2p + r) of cost constants[r]; on
    moduli {1, 2} the float rows hold exact integers. Eliminations of B
    and of its transpose give the basic weights xB = B^-1 w and the
    multipliers pi = cB B^-1. The basis is optimal when xB >= 0 and no
    column has negative reduced cost: |pi_q| <= 1 for the box columns,
    and constants - 1 + transform(embed(pi)) >= 0 on every dual pair for
    the character columns. Returns the weights by column id, the
    objective cB . xB and pi; raises CertificateInvalidError on the
    first failed check.
    """
    p = problem.n_vars
    consts = [Fraction(c) for c in problem.constants.tolist()]
    cols, cB = [], []
    for b in basis:
        if b < 2 * p:
            col = [0] * p
            col[b % p] = 1 if b < p else -1
            cols.append(col)
            cB.append(Fraction(1))
        else:
            cols.append([-int(v) for v in problem.row(b - 2 * p).tolist()])
            cB.append(consts[b - 2 * p])
    _det, xB = solve_fractions(list(zip(*cols)),
                               [[s] for s in problem.sizes.tolist()])
    if xB is None:
        raise CertificateInvalidError("final basis is singular")
    xB = [x for x, in xB]
    neg = next((j for j, x in enumerate(xB) if x < 0), None)
    if neg is not None:
        raise CertificateInvalidError(
            f"basic weight of column {basis[neg]} is {xB[neg]} < 0")
    _det, pi = solve_fractions(cols, [[c] for c in cB])
    pi = np.array([y for y, in pi], dtype=object)
    over = np.flatnonzero(abs(pi) > 1)
    if over.size:
        raise CertificateInvalidError(
            f"multiplier of pair {over[0]} is {pi[over[0]]}, beyond [-1, 1]")
    fhat = _axis_transform(_embed(problem, pi), problem.group.moduli, False)
    rc = np.array(consts, dtype=object) - 1 + fhat[problem.dual_index]
    bad = np.flatnonzero(rc < 0)
    if bad.size:
        raise CertificateInvalidError(
            f"row {bad[0]} has reduced cost {rc[bad[0]]} < 0")
    weights = {b: x for b, x in zip(basis, xB) if x}
    return weights, sum(c * x for c, x in zip(cB, xB)), pi


def _solve_core(problem: LPProblem, tolerances: Tolerances,
                pivot_cap: int) -> LPSolution:
    G = problem.group
    p = problem.n_vars

    if p == 0:
        f = GroupFunction(G, _embed(problem, []))
        lam = _certificate_from_weights(problem, {}, problem.exact)
        return LPSolution("optimal", 1.0, f, lam, 0.0, problem,
                          Fraction(1) if problem.exact else None)

    w = problem.weight_vector()
    consts = np.asarray(problem.constants, dtype=float)
    initial = []
    for q in range(p):
        e = np.zeros(p)
        e[q] = 1.0
        initial.append((q, e, 1.0))
        e2 = np.zeros(p)
        e2[q] = -1.0
        initial.append((p + q, e2, 1.0))

    tol = tolerances.feasibility
    offered = np.zeros(problem.n_rows, dtype=bool)
    row_cache: dict[int, np.ndarray] = {}

    def char_column(r: int) -> np.ndarray:
        if r not in row_cache:
            row_cache[r] = -problem.row(r)
        return row_cache[r]

    def price(pi):
        fhat = _axis_transform(_embed(problem, pi), G.moduli, False).real
        rc = consts - 1 + fhat[problem.dual_index]
        # violated rows not offered yet, by (rc, r): a stable sort of the
        # ascending candidate indices breaks rc ties by the lower row
        cand = np.flatnonzero((rc < -tol) & ~offered)
        take = cand[np.argsort(rc[cand], kind="stable")][:32]
        offered[take] = True
        return [(2 * p + r, char_column(r), consts[r]) for r in take.tolist()]

    start = list(range(p))  # every weight is positive, so box+ columns
    try:
        res = solve_column_lp(
            w, initial, price, entering_tol=tol,
            pivot_cap=pivot_cap, start_basis=start)
        restarts = 0
    except SingularBasisError:
        # deterministic tiny perturbation of the objective, then re-solve;
        # the certificate check against the unperturbed data still applies
        wp = np.array([w[q] * (1.0 + 1e-9 * (q + 1) / p) for q in range(p)])
        offered[:] = False
        res = solve_column_lp(
            wp, initial, price, entering_tol=tol,
            pivot_cap=pivot_cap, start_basis=start)
        restarts = 1

    diag = {"pivots": res.pivots, "perturbed_restarts": restarts}
    diag.update(res.diagnostics)

    if res.status == "infeasible":
        return LPSolution("infeasible", float("nan"), None, None,
                          float("nan"), problem, None, diag)

    weights, pi, exact_value = res.weights, res.pi, None
    if problem.exact and res.status == "optimal":
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


def solve_lp(problem: LPProblem, mode: str = "float",
             tolerances: Tolerances = DEFAULT_TOLERANCES,
             pivot_cap: int = LP_PIVOT_CAP) -> LPSolution:
    """Solve a built problem in ``float`` or ``exact-rational`` mode."""
    if mode not in ("float", "exact-rational"):
        raise ValueError("mode must be 'float' or 'exact-rational'")
    want_exact = mode == "exact-rational"
    if want_exact and any(m not in (1, 2) for m in problem.group.moduli):
        raise ValueError("exact-rational mode needs every modulus in {1, 2}")
    if want_exact != problem.exact:
        problem = dataclasses.replace(problem, exact=want_exact)
    return _solve_core(problem, tolerances, pivot_cap)


def turan_constant(group: FiniteAbelianGroup, domain: SymmetricDomain,
                   mode: str = "float",
                   tolerances: Tolerances = DEFAULT_TOLERANCES,
                   pivot_cap: int = LP_PIVOT_CAP,
                   order_cap: int = LP_GROUP_ORDER_CAP) -> LPSolution:
    """Largest sum/f(0) ratio over positive definite f supported in domain.

    Groups beyond ``order_cap`` are not solved; the trivial estimate |domain|
    comes back with status budget-exceeded together with the unit impulse,
    which is always a feasible witness.
    """
    if domain.group != group:
        raise ValueError("domain belongs to a different group")
    if group.order > order_cap:
        vals = np.zeros(group.order)
        vals[0] = 1.0
        f = GroupFunction(group, vals)
        return LPSolution("budget-exceeded", float(domain.size), f, None,
                          float(domain.size) - 1.0, None, None,
                          {"reason": f"group order {group.order} over cap {order_cap}"})
    problem = build_lp_problem(group, domain, exact=(mode == "exact-rational"))
    return solve_lp(problem, mode, tolerances, pivot_cap)


def witness_ratio(f: GroupFunction, domain: SymmetricDomain,
                  tolerances: Tolerances = DEFAULT_TOLERANCES) -> BoundReport:
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
                   K: Subgroup, **solve_kwargs) -> BoundReport:
    """Upper bound (|G|/|K|) * constant of (K, domain intersect K)."""
    if K.group != group or domain.group != group:
        raise ValueError("subgroup and domain must belong to the group")
    Ks, to_sub, _from_sub = subgroup_as_group(K)
    inner_elems = [to_sub[x] for x in domain.elements if x in K]
    inner = symmetric_domain(Ks, inner_elems)
    sol = turan_constant(Ks, inner, **solve_kwargs)
    factor = Fraction(group.order, K.order)
    value = float(factor) * sol.value
    if sol.exact_value is not None:
        value = factor * sol.exact_value
    return BoundReport(value, "subgroup", "upper",
                       {"K": sorted(K.elements), "inner": sol})


def quotient_bound(group: FiniteAbelianGroup, domain: SymmetricDomain,
                   K: Subgroup, **solve_kwargs) -> BoundReport:
    """Upper bound constant(G/K, projected domain) * constant(K, domain in K)."""
    if K.group != group or domain.group != group:
        raise ValueError("subgroup and domain must belong to the group")
    Q, project = quotient_group(group, K)
    theta = symmetric_domain(Q, {project(x) for x in domain.elements})
    outer = turan_constant(Q, theta, **solve_kwargs)
    inner_elems = [x for x in domain.elements if x in K]
    cert = {"K": sorted(K.elements), "outer": outer}
    if len(inner_elems) == 1:
        value = outer.value
        cert["inner"] = None
    else:
        Ks, to_sub, _ = subgroup_as_group(K)
        inner = turan_constant(
            Ks, symmetric_domain(Ks, [to_sub[x] for x in inner_elems]),
            **solve_kwargs)
        value = outer.value * inner.value
        cert["inner"] = inner
    return BoundReport(value, "quotient", "upper", cert)


def automorphism_image_constant(group: FiniteAbelianGroup,
                                domain: SymmetricDomain, images,
                                **solve_kwargs) -> LPSolution:
    """Solve on the automorphic image of the domain (the value is preserved)."""
    mapped = image_domain(domain, images)  # raises if not bijective
    return turan_constant(group, mapped, **solve_kwargs)


def product_constant(g1: FiniteAbelianGroup, d1: SymmetricDomain,
                     g2: FiniteAbelianGroup, d2: SymmetricDomain,
                     **solve_kwargs) -> LPSolution:
    """Solve on the direct product domain d1 x d2 inside g1 x g2."""
    if d1.group != g1 or d2.group != g2:
        raise ValueError("domains must match their groups")
    G = direct_product(g1, g2)
    elems = [x + y for x in d1.elements for y in d2.elements]
    return turan_constant(G, symmetric_domain(G, elems), **solve_kwargs)
