"""Extremal sums of positive definite functions on finite abelian groups.

For a group G and a symmetric domain Omega (contains 0, closed under
negation), the constant computed here is the largest possible value of
sum_x f(x) / f(0) over positive definite f supported inside Omega.

Averaging a feasible f over the automorphisms that fix Omega keeps it
feasible and keeps its value. The automorphisms used are -1 and the
coordinate swaps between equal moduli that map Omega onto itself, so
the unknowns are one value per orbit of Omega minus 0 under the group
they generate, with f(0) = 1 substituted out. Positive definiteness is
equivalent to nonnegativity of the transform, and the transform of a
symmetric f is constant on the orbits of characters: one linear
constraint per character orbit, and the whole problem is a linear
program. With no swap fixing Omega the orbits are the negation pairs.

The LP is attacked through its dual, a unit-cost column program:
box columns encode |f(x)| <= f(0) (valid for every positive definite f)
and character columns are generated lazily, priced by one transform of
the current iterate per round. Every feasible point of the column
program is an upper bound for the constant, so even a budget-truncated
run returns something rigorous. Certificates stay in the full space of
negation pairs: two linear maps, an indexed add for the character
columns and one product for the box columns, turn the basic weights
into one weight per character pair, and that certificate is checked as
it would be without the reduction.

The character side of a problem, the character pairs, their orbits
and the cosine table, depends only on the moduli and the kept swaps.
It is built once per such group (``CHARACTER_CACHE_SIZE`` groups are
kept) and shared read-only by every problem on it; a build computes
only the domain side. ``LPProblem.row`` takes one row index or an
array of them, so a pricing round builds all the rows it offers at
once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .bounds import BoundReport
from .config import DEFAULT_TOLERANCES, LP_GROUP_ORDER_CAP, Tolerances
from .errors import (CertificateInvalidError, InvalidHomomorphismError,
                     WitnessRejectedError)
from .groups import (Element, FiniteAbelianGroup, Subgroup, SymmetricDomain,
                     digits, direct_product, exponent_two,
                     fixing_transpositions, flat, image_domain, member_mask,
                     negation_pairs, orbit_labels, quotient_group,
                     subgroup_as_group, symmetric_domain)
from .harmonic import (GroupFunction, _axis_transform, _root_table,
                       is_positive_definite)
from .rational import adjugate
from .simplex import solve_column_lp


@dataclass
class LPProblem:
    """Data of the orbit-reduced program for one (group, domain) instance.

    The symmetry group is generated by -1 and the coordinate swaps that
    map the domain onto itself (``groups.fixing_transpositions``); every
    orbit is a union of negation pairs, labelled by its least flat index
    (``groups.orbit_labels``).

    Variables: one per orbit O of ``domain`` minus 0, weight |O|. The
    negation pairs of the domain (flat index ``pair_index`` of the
    representative, pair size ``sizes``) are grouped by orbit, in
    ascending label order and ascending within an orbit; orbit o holds
    the pairs from ``orbit_start[o]`` to the next start. Rows: one per
    orbit of characters, the trivial one first, then by ascending label.
    Row r states 1 + sum_o a[r, o] y_o >= 0, which is f(0) = 1
    substituted out; its entry for orbit o sums Re gamma(x) over the
    elements of o for the row's least character gamma.

    Rows are evaluated from integer phases, never from a transform: with
    N = lcm(moduli) and the pair representatives' coordinates scaled to N
    (``phase_x``), the entry of pair q is
    ``sizes[q] * cos_table[(phase_x[q] . dual_coords[r]) % N]``, where
    ``cos_table`` holds Re exp(2 pi i k / N) exact at quarter turns, and
    each orbit adds its pairs' entries in pair order. For moduli in
    {1, 2, 4} every entry is therefore an exact float; exact mode
    (moduli in {1, 2}) reads the same float rows, whose entries are
    integers.

    Certificates stay in pair space. ``dual_index``, ``dual_sizes`` and
    ``dual_coords`` describe the negation pairs of characters (the
    trivial one first, then ascending), and a certificate holds one
    weight per character pair; row r covers the character pairs
    ``row_order[row_start[r]:]`` up to the next row's start, and its
    weight spreads over them in proportion to ``dual_sizes``. The flat
    indices ``pair_index``, ``pair_neg_index`` and ``row_index`` place
    the pairs and the rows' least characters in the group's enumeration
    for the whole-group transforms of pricing, the certificate and the
    witness; the exact finish runs the same transforms on Python ints.

    The character-side arrays, ``dual_coords``, ``dual_sizes``,
    ``dual_index``, ``row_order``, ``row_start`` and ``cos_table``, are
    shared by every problem on the same moduli and kept swaps, and are
    read-only. ``row`` takes a row index or an array of row indices.
    """

    group: FiniteAbelianGroup
    domain: SymmetricDomain
    sizes: np.ndarray = field(kw_only=True, repr=False)
    phase_x: np.ndarray = field(kw_only=True, repr=False)
    pair_index: np.ndarray = field(kw_only=True, repr=False)
    pair_neg_index: np.ndarray = field(kw_only=True, repr=False)
    orbit_start: np.ndarray = field(kw_only=True, repr=False)
    dual_coords: np.ndarray = field(kw_only=True, repr=False)
    dual_sizes: np.ndarray = field(kw_only=True, repr=False)
    dual_index: np.ndarray = field(kw_only=True, repr=False)
    row_order: np.ndarray = field(kw_only=True, repr=False)
    row_start: np.ndarray = field(kw_only=True, repr=False)
    cos_table: np.ndarray = field(kw_only=True, repr=False)

    @property
    def n_vars(self) -> int:
        return len(self.orbit_start)

    @property
    def n_rows(self) -> int:
        return len(self.row_start)

    @cached_property
    def orbit_sizes(self) -> np.ndarray:
        """|O| per variable orbit: its elements, the sum of its pair sizes."""
        return np.add.reduceat(self.sizes, self.orbit_start)

    @cached_property
    def pair_orbit(self) -> np.ndarray:
        """The variable orbit of each pair."""
        return np.repeat(np.arange(self.n_vars),
                         np.diff(self.orbit_start, append=len(self.sizes)))

    @cached_property
    def row_rep(self) -> np.ndarray:
        """The character pair of each row's least character."""
        return self.row_order[self.row_start]

    @cached_property
    def row_index(self) -> np.ndarray:
        """Flat index of each row's least character."""
        return self.dual_index[self.row_rep]

    @cached_property
    def row_sizes(self) -> np.ndarray:
        """|R| per row: its characters, the sum of its pair sizes."""
        return np.add.reduceat(self.dual_sizes[self.row_order], self.row_start)

    @cached_property
    def dual_pairs(self) -> list[tuple[Element, int]]:
        """(representative, pair size) per character pair, the trivial
        character first."""
        return [(self.group.element(i), s) for i, s in
                zip(self.dual_index.tolist(), self.dual_sizes.tolist())]

    def _cos(self, phases: np.ndarray) -> np.ndarray:
        return self.cos_table[phases % len(self.cos_table)]

    def row(self, r) -> np.ndarray:
        """Constraint row a_r: per variable orbit, the sum over its pairs of
        pair size times Re gamma_r; an orbit of one pair keeps its entry.
        An array of row indices gives one row per entry, each with the
        bits of its own ``row(r)``."""
        per_pair = self.sizes * self._cos(
            self.dual_coords[self.row_rep[r]] @ self.phase_x.T)
        return np.add.reduceat(per_pair, self.orbit_start, axis=-1)


def _orbits(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group positions by label: the positions in ascending label order
    (stable) and the start of each label's segment."""
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return order, np.flatnonzero(first)


# groups whose character side stays built; a bounds round meets 22
CHARACTER_CACHE_SIZE = 64


@lru_cache(maxsize=CHARACTER_CACHE_SIZE)
def _character_side(moduli: tuple[int, ...],
                    swaps: tuple[tuple[int, int], ...]) -> dict:
    """The fields of ``LPProblem`` that depend only on the group and the
    kept swaps: the character pairs, their rows and the cosine table.
    Every problem on that group and symmetry shares them, so the arrays
    are read-only."""
    N = math.lcm(*moduli)
    # character pairs by the rule of negation_pairs, the trivial one first
    dual_reps, dual_sizes = negation_pairs(moduli, np.arange(math.prod(moduli)))
    dual_index = np.concatenate(([0], dual_reps))
    row_order, row_start = _orbits(orbit_labels(moduli, swaps, dual_index))
    side = dict(
        # solutions keep their problem; the narrowest dtype keeps this small
        dual_coords=digits(moduli, dual_index).astype(
            np.min_scalar_type(max(moduli, default=1))),
        dual_sizes=np.concatenate(([1], dual_sizes)),
        dual_index=dual_index,
        row_order=row_order,
        row_start=row_start,
        cos_table=np.ascontiguousarray(_root_table(N).real))
    for a in side.values():
        a.flags.writeable = False
    return side


def build_lp_problem(group: FiniteAbelianGroup,
                     domain: SymmetricDomain) -> LPProblem:
    if domain.group != group:
        raise ValueError("domain belongs to a different group")
    mods = group.moduli
    N = math.lcm(*mods)
    omega = domain.indices
    swaps = fixing_transpositions(mods, omega)
    reps, sizes = negation_pairs(mods, omega)
    order, orbit_start = _orbits(orbit_labels(mods, swaps, reps))
    reps, sizes = reps[order], sizes[order]
    pair_coords = digits(mods, reps)
    scale = np.array([N // m for m in mods], dtype=np.int64)
    return LPProblem(
        group, domain,
        sizes=sizes,
        phase_x=pair_coords * scale,
        pair_index=reps,
        pair_neg_index=flat(mods, -pair_coords),
        orbit_start=orbit_start,
        **_character_side(mods, tuple(map(tuple, swaps.tolist()))))


@dataclass
class LPSolution:
    """Outcome of one solve.

    status ``optimal``: value is the certified optimum, gap tiny.
    status ``budget-exceeded``: value is still a valid upper bound and f a
    valid witness, only the two need not meet; a group over
    ``LP_GROUP_ORDER_CAP`` is not solved, and f is None.
    status ``infeasible``: no basis direction of an entering column cleared
    the simplex's pivot tolerance; value/f/dual are absent.
    ``dual``: the certificate, one weight per character pair of
    ``problem.dual_index``.
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


def _certificate_from_weights(problem: LPProblem, weights: dict, exact: bool):
    """Nonnegative weight per character pair from the basic column weights,
    in Fractions when ``exact`` and floats otherwise, by two linear maps.

    Character column r gives pair t of row r the weight mu * dual_sizes[t]
    / |R|; rows are disjoint, so one indexed add serves them all. Box
    column o (id o, or p + o for the minus sign) gives pair q of orbit o
    the weight c_q = mu * sizes[q] / |O|, and the box constraint
    f(0) -+ f(x_q) >= 0 is the average of the character constraints with
    coefficients (1 -+ Re gamma(x_q)) / |G| >= 0, so one product with the
    cosines of every box pair folds them all, the +-1 cosines read as ints
    for Fractions. Either way the weights still sum to mu.
    """
    p = problem.n_vars
    zero = Fraction(0) if exact else 0.0
    lam = np.full(len(problem.dual_index), zero, object if exact else float)
    dtype = lam.dtype
    col = np.full(2 * p + problem.n_rows, zero, dtype)
    basic = {cid: mu for cid, mu in weights.items() if mu != 0}
    col[list(basic)] = list(basic.values())

    rows = col[2 * p:]
    on = rows != 0
    counts = np.diff(problem.row_start, append=len(problem.row_order))
    # every pair t of every row r that has a weight, in row order
    t = problem.row_order[np.repeat(on, counts)]
    r = np.repeat(np.flatnonzero(on), counts[on])
    lam[t] += (rows[r] * problem.dual_sizes[t].astype(dtype)
               / problem.row_sizes[r].astype(dtype))

    boxes = col[:2 * p].reshape(2, p)
    qs = np.flatnonzero((boxes != 0).any(axis=0)[problem.pair_orbit])
    if qs.size:
        o = problem.pair_orbit[qs]
        c = (boxes[:, o] * problem.sizes[qs].astype(dtype)
             / problem.orbit_sizes[o].astype(dtype))
        re = problem._cos(problem.phase_x[qs] @ problem.dual_coords.T)
        if exact:
            re = re.astype(int)
        lam += (problem.dual_sizes.astype(dtype) * (c.sum() - (c[0] - c[1]) @ re)
                / problem.group.order)
    return lam


def verify_dual_certificate(problem: LPProblem, row_weights,
                            tolerances: Tolerances = DEFAULT_TOLERANCES):
    """Check a weight per character pair and return the upper bound it proves.

    Requirements: weights nonnegative, and the weighted pair rows add up
    to minus the objective vector, pair by pair of the domain.
    ``Fraction`` weights are checked exactly, as integer numerators over
    their common denominator D, and prove a ``Fraction`` bound; any other
    weights are checked in float, within feasibility tolerance scaled by
    |G|. The certified bound is then 1 + sum_r weight_r, by weak duality.
    """
    G = problem.group
    if len(row_weights) != len(problem.dual_index):
        raise CertificateInvalidError("one weight per character pair required")
    exact = all(isinstance(v, Fraction) for v in row_weights)
    if exact:
        D = math.lcm(*(v.denominator for v in row_weights))
        lam = np.array([v.numerator * (D // v.denominator)
                        for v in row_weights], dtype=object)
        # Python ints, which a large D cannot overflow
        s, tol = problem.sizes.astype(object), 0
    else:
        D, s, tol = 1, problem.sizes, tolerances.feasibility
        lam = np.asarray(row_weights, dtype=float)
    negative = np.flatnonzero(lam < -tol)
    if negative.size:
        raise CertificateInvalidError(f"negative weight on row {negative[0]}")
    # sum_r lam_r Re gamma_{t_r}(x) for all x at once: transform of the
    # weight vector laid out on the character side
    u = np.zeros(G.order, dtype=lam.dtype)
    u[problem.dual_index] = lam
    spread = _axis_transform(u, G.moduli, False).real
    resid = np.abs(s * spread[problem.pair_index] + s * D).max(initial=0)
    if resid > tol * max(1.0, float(G.order)):
        raise CertificateInvalidError(
            f"row combination misses objective by {float(resid / D):.3e}")
    total = np.dot(lam, np.ones_like(lam))
    return Fraction(1) + Fraction(total, D) if exact else 1.0 + float(total)


def _embed(problem: LPProblem, y) -> np.ndarray:
    """Full value table of the symmetric function with f(0)=1 and f = y_o
    on orbit o, in the number type of y."""
    y = np.asarray(y)[problem.pair_orbit]
    vals = np.zeros(problem.group.order, dtype=y.dtype)
    vals[0] = 1
    vals[problem.pair_index] = y
    vals[problem.pair_neg_index] = y
    return vals


def _mixed_witness(problem: LPProblem, y,
                   fhat: np.ndarray | None = None) -> tuple[GroupFunction, float]:
    """Project the iterate to a genuinely feasible witness.

    Mixing with a small multiple of the unit impulse lifts any slightly
    negative transform values to zero and keeps the support inside the
    domain; the cost is a proportional shrink of the ratio. ``fhat`` is
    the real part of the transform of ``_embed(problem, y)`` in float
    when the caller already has it (the last pricing round of an optimal
    float solve); otherwise it is computed here.
    """
    G = problem.group
    vals = _embed(problem, np.asarray(y, dtype=float))
    if fhat is None:
        fhat = _axis_transform(vals, G.moduli, False).real
    s = max(0.0, -float(fhat.min()))
    if s > 0.0:
        vals = vals / (1.0 + s)
        vals[0] += s / (1.0 + s)
    f = GroupFunction(G, vals)
    return f, float(vals.sum())


def _exact_basis(problem: LPProblem, basis: list[int]):
    """Recompute the simplex's final basis exactly and prove it optimal.

    Box column o is +e_o (id o) or -e_o (id p + o) and character column r
    is -row(r) (id 2p + r), all of cost 1; on moduli {1, 2} the float rows
    hold exact integers. One fraction-free elimination of B gives d =
    det(B) and adj(B) = d B^-1, hence the basic weights xB = adj w / d, w
    the orbit sizes, and the multipliers pi = 1 adj / d. The basis is
    optimal when xB >= 0 and no column has negative reduced cost:
    |pi_o| <= 1 for the box columns, and transform(embed(pi)) >= 0 at
    every row's least character, read off the integer |d| embed(pi).
    Returns the weights by column id, the objective sum(xB) and pi, in
    Fractions; raises CertificateInvalidError on the first failed check.
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
    d, adj = adjugate(list(zip(*cols)))
    if adj is None:
        raise CertificateInvalidError("final basis is singular")
    # numerators over |d|, so a sign test reads them directly
    sign, d = (1 if d > 0 else -1), abs(d)
    w = problem.orbit_sizes.tolist()
    xB = [Fraction(sign * sum(a * s for a, s in zip(row, w)), d)
          for row in adj]
    neg = next((j for j, x in enumerate(xB) if x < 0), None)
    if neg is not None:
        raise CertificateInvalidError(
            f"basic weight of column {basis[neg]} is {xB[neg]} < 0")
    num = [sign * sum(col) for col in zip(*adj)]
    pi = np.array([Fraction(y, d) for y in num], dtype=object)
    over = np.flatnonzero(abs(pi) > 1)
    if over.size:
        raise CertificateInvalidError(
            f"multiplier of orbit {over[0]} is {pi[over[0]]}, beyond [-1, 1]")
    vals = _embed(problem, np.array(num, dtype=object))
    vals[0] = d
    rc = _axis_transform(vals, problem.group.moduli, False)[problem.row_index]
    bad = np.flatnonzero(rc < 0)
    if bad.size:
        raise CertificateInvalidError(
            f"row {bad[0]} has reduced cost {Fraction(rc[bad[0]], d)} < 0")
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
    if exact and not exponent_two(G.moduli):
        raise ValueError("exact mode needs every modulus in {1, 2}")
    p = problem.n_vars

    if p == 0:
        f = GroupFunction(G, _embed(problem, []))
        lam = _certificate_from_weights(problem, {}, exact)
        return LPSolution("optimal", 1.0, f, lam, 0.0, problem,
                          Fraction(1) if exact else None)

    w = problem.orbit_sizes.astype(float)
    tol = tolerances.feasibility
    offered = np.zeros(problem.n_rows, dtype=bool)
    # rows offered per pricing round: twice the simplex's row count, and
    # at least 32
    batch = max(32, 2 * p)
    # the multipliers of the last pricing round and their transform
    priced = {}

    def price(pi):
        fhat = _axis_transform(_embed(problem, pi), G.moduli, False).real
        priced.update(pi=pi, fhat=fhat)
        rc = fhat[problem.row_index]
        # violated rows not offered yet, by (rc, r): a stable sort of the
        # ascending candidate indices breaks rc ties by the lower row. Only
        # rows with rc up to the batch-th smallest can be offered, and
        # keeping just those keeps their order
        cand = np.flatnonzero((rc < -tol) & ~offered)
        if len(cand) > batch:
            cand = cand[rc[cand] <= np.partition(rc[cand], batch - 1)[batch - 1]]
        take = cand[np.argsort(rc[cand], kind="stable")][:batch]
        offered[take] = True
        return list(zip((2 * p + take).tolist(), -problem.row(take)))

    # the simplex holds the box columns itself
    res = solve_column_lp(w, [], price, entering_tol=tol)
    diag = {"pivots": res.pivots, **res.diagnostics}

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
    # an optimal float solve stops on the multipliers its last pricing
    # round transformed, and the witness reuses that transform
    f, primal = _mixed_witness(problem, pi,
                               priced.get("fhat") if pi is priced.get("pi") else None)
    # a proven basis makes embed(pi) an exact witness: its transform is
    # >= 0 and its ratio 1 + pi . w = 1 + sum(xB) is the exact value, so
    # only the float copy f carries rounding, not the bracket
    gap = 0.0 if exact_value is not None else abs(float(upper) - primal)
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
    support = np.flatnonzero(f.values)
    outside = support[~member_mask(domain.indices, support)]
    if outside.size:
        x = G.element(int(outside[0]))
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
    return next(_subgroup_and_quotient_bounds(group, domain, K))


def quotient_bound(group: FiniteAbelianGroup, domain: SymmetricDomain,
                   K: Subgroup) -> BoundReport:
    """Upper bound constant(G/K, projected domain) * constant(K, domain in K)."""
    points = _points_in(group, domain, K)
    inner = _inner_constant(K, points) if len(points) > 1 else None
    return _quotient_report(group, domain, K, inner)


def _subgroup_and_quotient_bounds(group: FiniteAbelianGroup,
                                  domain: SymmetricDomain, K: Subgroup):
    """The subgroup bound, then the quotient bound, from one solve of the
    constant of domain intersect K. A generator: the caller holds the
    subgroup bound before the quotient is solved, and ``subgroup_bound``
    takes it alone."""
    points = _points_in(group, domain, K)
    inner = _inner_constant(K, points)
    value = float(Fraction(group.order, K.order)) * inner.value
    yield BoundReport(value, "subgroup", "upper",
                      {"K": sorted(K.elements), "inner": inner})
    yield _quotient_report(group, domain, K,
                           inner if len(points) > 1 else None)


def _points_in(group: FiniteAbelianGroup, domain: SymmetricDomain,
               K: Subgroup) -> list[Element]:
    """The domain's points in K, once K and the domain are seen to belong
    to the group."""
    if K.group != group or domain.group != group:
        raise ValueError("subgroup and domain must belong to the group")
    return [x for x in domain.elements if x in K]


def _inner_constant(K: Subgroup, points: list[Element]) -> LPSolution:
    """The constant of the domain's ``points`` in K, solved in K as a
    group of its own."""
    Ks, to_sub, _from_sub = subgroup_as_group(K)
    inner = symmetric_domain(Ks, [to_sub[x] for x in points])
    return turan_constant(Ks, inner)


def _quotient_report(group: FiniteAbelianGroup, domain: SymmetricDomain,
                     K: Subgroup, inner: LPSolution | None) -> BoundReport:
    """The quotient bound; ``inner`` is None when domain intersect K is {0},
    whose constant is 1."""
    Q, project = quotient_group(group, K)
    theta = symmetric_domain(Q, {project(x) for x in domain.elements})
    outer = turan_constant(Q, theta)
    value = outer.value if inner is None else outer.value * inner.value
    return BoundReport(value, "quotient", "upper",
                       {"K": sorted(K.elements), "outer": outer,
                        "inner": inner})


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
