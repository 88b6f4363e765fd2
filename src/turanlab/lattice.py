"""Integer-lattice machinery: torus reductions, periodic packings, greedy
window constructions, and the dispersed-domain witnesses.

The extremal constant on Z^d is approached from two sides. From above,
any modulus M that keeps the finite domain injective wraps the problem
onto Z_M^d, where the finite LP applies; any periodic packing set of
density rho certifies 1/rho as well. From below, a finite H with
H - H inside the domain certifies |H| through its autocorrelation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import index

import numpy as np

from .bounds import BoundReport
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (CertificateInvalidError, DomainNotSymmetricError,
                     MTooSmallError, WitnessRejectedError)
from .groups import (FiniteAbelianGroup, SymmetricDomain, _element_coords,
                     make_group, symmetric_domain)
from .packing import greedy_scan
from .rational import adjugate
from .turan_lp import turan_constant

Point = tuple[int, ...]


def _canon_point(x, d: int) -> Point:
    p = tuple(int(c) for c in _element_coords(x))
    if len(p) != d:
        raise ValueError(f"point {x!r} does not have dimension {d}")
    return p


@dataclass(frozen=True)
class LatticeDomain:
    """Finite symmetric subset of Z^d containing 0."""

    d: int
    elements: frozenset[Point]

    def sorted_elements(self) -> list[Point]:
        return sorted(self.elements)

    def max_abs(self) -> int:
        return max((max(abs(c) for c in x) for x in self.elements), default=0)

    def __contains__(self, x) -> bool:
        try:
            return _canon_point(x, self.d) in self.elements
        except ValueError:
            return False


def lattice_domain(d: int, elements) -> LatticeDomain:
    pts = {_canon_point(x, d) for x in elements}
    zero = (0,) * d
    if zero not in pts:
        raise DomainNotSymmetricError("domain must contain 0", offender=zero)
    for x in pts:
        nx = tuple(-c for c in x)
        if nx not in pts:
            raise DomainNotSymmetricError(
                f"domain misses the negation of {x}", offender=x)
    return LatticeDomain(d, frozenset(pts))


def interval_domain(N: int) -> LatticeDomain:
    """[-N, N] in Z."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    return lattice_domain(1, range(-N, N + 1))


def omega_N_domain(N: int) -> LatticeDomain:
    """The dispersed three-pair domain {0, +-1, +-N}."""
    if N < 2:
        raise ValueError("N must be at least 2")
    return lattice_domain(1, [0, 1, -1, N, -N])


# ---------------------------------------------------------------------------
# torus reduction and LP upper bounds


def torus_reduction(domain: LatticeDomain, M: int) -> tuple[FiniteAbelianGroup, SymmetricDomain]:
    """Wrap the domain onto Z_M^d; valid only when no two points collide."""
    if M < 1:
        raise ValueError("modulus must be positive")
    G = make_group([M] * domain.d)
    seen: dict[Point, Point] = {}
    for x in domain.sorted_elements():
        r = G.canon(x)
        if r in seen:
            raise MTooSmallError(
                f"modulus {M} identifies {seen[r]} and {x}",
                collision=(seen[r], x))
        seen[r] = x
    return G, symmetric_domain(G, seen.keys())


def default_m_schedule(domain: LatticeDomain) -> list[int]:
    """Moduli used by upper_bound_z when none are given (d=1 shapes).

    Intervals [-N,N] get the single modulus 10(N+1). The dispersed
    domains {0,+-1,+-N} with N=2n get the first three multiples of
    2(2n+1), which puts the known binding frequency on the grid.
    Anything else, {0,+-1,+-N} with odd N included, gets b, b+2 and b+4
    with b the least multiple of 4 past the diameter 2N: 2N+2, 2N+4 and
    2N+6 for odd N.
    """
    if domain.d != 1:
        raise ValueError("schedules are defined for d=1 only")
    xs = {x[0] for x in domain.elements}
    N = max(xs)
    # xs is symmetric with largest point N, so 2N + 1 points fill [-N, N]
    if len(xs) == 2 * N + 1:
        return [10 * (N + 1)]
    if N >= 2 and N % 2 == 0 and xs == {0, 1, -1, N, -N}:
        period = 2 * (N + 1)
        return [period, 2 * period, 3 * period]
    base = 2 * N + 2 if N % 2 == 1 else 2 * N + 4
    return [base, base + 2, base + 4]


def upper_bound_z(domain: LatticeDomain, Ms=None,
                  tolerances: Tolerances = DEFAULT_TOLERANCES) -> BoundReport:
    """Best finite-torus LP value over a modulus schedule.

    A torus solve that ends budget-exceeded (a torus above the LP order
    cap, or the pivot cap) still returns a valid upper bound, so it stays
    in the schedule with its status; the certificate then carries
    ``budget_exhausted: True``.
    """
    if Ms is None:
        Ms = default_m_schedule(domain)
    if not Ms:
        raise ValueError("at least one modulus is required")
    trace = []
    best = math.inf
    for M in Ms:
        G, image = torus_reduction(domain, M)
        sol = turan_constant(G, image, tolerances=tolerances)
        if sol.status == "infeasible":
            raise CertificateInvalidError(
                f"torus solve for modulus {M} ended {sol.status}")
        best = min(best, sol.value)
        entry = {"M": M, "value": sol.value, "running_min": best}
        if sol.status != "optimal":
            entry["status"] = sol.status
        trace.append(entry)
    cert = {"schedule": trace}
    if any("status" in e for e in trace):
        cert["budget_exhausted"] = True
    return BoundReport(best, "torus-lp", "upper", cert)


@dataclass
class OmegaNWitness:
    """Closed-form extremal cosine polynomial data for {0,+-1,+-N}, N=2n.

    p(x) = 1 + 2 f1 cos x + 2 f2n cos(2n x) stays nonnegative and its
    value at 0 realizes the constant 1 + 1/cos(pi/(2n+1)); the zero at
    x = pi + pi/(2n+1) is what pins optimality. ``grid_min`` is the least
    value of p on 100 000 equally spaced points of [0, 2 pi).
    """

    n: int
    f0: float
    f1: float
    f2n: float
    total: float
    closed_form: float
    grid_min: float
    binding_value: float


def explicit_witness_omega_N(n: int) -> OmegaNWitness:
    if n < 1:
        raise ValueError("n must be at least 1")
    c = math.cos(math.pi / (2 * n + 1))
    f1 = n / ((2 * n + 1) * c)
    f2n = 1 / (2 * (2 * n + 1) * c)
    xs = np.linspace(0.0, 2.0 * math.pi, 100_000, endpoint=False)
    p = 1.0 + 2 * f1 * np.cos(xs) + 2 * f2n * np.cos(2 * n * xs)
    z0 = math.pi + math.pi / (2 * n + 1)
    binding = 1.0 + 2 * f1 * math.cos(z0) + 2 * f2n * math.cos(2 * n * z0)
    return OmegaNWitness(
        n=n, f0=1.0, f1=f1, f2n=f2n,
        total=1.0 + 2 * f1 + 2 * f2n,
        closed_form=1.0 + 1.0 / c,
        grid_min=float(p.min()),
        binding_value=binding)


# ---------------------------------------------------------------------------
# periodic packing sets


@dataclass(frozen=True)
class PeriodicSet:
    """Union of residues + (integer spans of the basis rows).

    Each row of ``basis`` is one generator, so the sublattice is
    {sum_i z_i basis[i]}. Membership is decided exactly: with B holding
    the generators as columns, v lies in the sublattice iff B^{-1} v is
    integral, that is iff adj(B) v vanishes mod det(B). Both come from
    one fraction-free integer elimination of B (``rational.adjugate``).
    """

    d: int
    basis: tuple[tuple[int, ...], ...]
    residues: tuple[Point, ...]

    def __post_init__(self):
        if len(self.basis) != self.d or any(len(r) != self.d for r in self.basis):
            raise ValueError("basis must be a d x d integer matrix")
        if self.det == 0:
            raise ValueError("basis is singular")
        if not self.residues:
            raise ValueError("residues must be nonempty")
        if len(set(self.residues)) != len(self.residues):
            raise ValueError("residues repeat")
        for i, r1 in enumerate(self.residues):
            for r2 in self.residues[:i]:
                if self._in_lattice(tuple(a - b for a, b in zip(r1, r2))):
                    raise ValueError(
                        f"residues {r1} and {r2} coincide modulo the lattice")

    @cached_property
    def _adjugate(self) -> tuple[int, list[list[int]] | None]:
        """det(B) and the integer matrix adj(B) = det(B) B^{-1}, with the
        generators as the columns of B (None when B is singular)."""
        return adjugate(list(zip(*self.basis)))

    @property
    def det(self) -> int:
        return self._adjugate[0]

    @property
    def density(self) -> Fraction:
        return Fraction(len(self.residues), abs(self.det))

    def _in_lattice(self, v: Point) -> bool:
        det, adj = self._adjugate
        return all(sum(a * c for a, c in zip(row, v)) % det == 0 for row in adj)

    def __contains__(self, x) -> bool:
        try:
            v = _canon_point(x, self.d)
        except ValueError:
            return False
        return any(
            self._in_lattice(tuple(a - b for a, b in zip(v, r)))
            for r in self.residues)


def periodic_set(d: int, basis, residues) -> PeriodicSet:
    """Basis rows of Python or numpy integers; anything else, a float such
    as 2.0 included, is a ValueError rather than truncated."""
    try:
        B = tuple(tuple(index(c) for c in row) for row in basis)
    except TypeError as e:
        raise ValueError(f"basis must be a d x d integer matrix: {e}") from None
    R = tuple(_canon_point(r, d) for r in residues)
    return PeriodicSet(d, B, R)


def omega_N_packing(n: int) -> PeriodicSet:
    """The best periodic packing for {0,+-1,+-2n}: period 4n+2 with the
    even residues below 2n and the odd ones from 2n+1 on. Density
    n/(2n+1), so the certified bound is 2 + 1/n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    residues = list(range(0, 2 * n - 1, 2)) + list(range(2 * n + 1, 4 * n, 2))
    return periodic_set(1, [[4 * n + 2]], [(r,) for r in residues])


def check_packing_periodic(domain: LatticeDomain,
                           lam: PeriodicSet) -> tuple[bool, Point | None]:
    """Does the domain avoid all nonzero differences of the periodic set?

    Differences form residues r1 - r2 shifted by the sublattice, so each
    domain point is tested with the exact membership rule; no reach
    truncation is involved.
    """
    if domain.d != lam.d:
        raise ValueError("dimension mismatch")
    zero = (0,) * domain.d
    for x in domain.sorted_elements():
        if x == zero:
            continue
        for r1 in lam.residues:
            for r2 in lam.residues:
                # x = (r1 + B z1) - (r2 + B z2)  <=>  x - r1 + r2 in B Z^d
                if lam._in_lattice(tuple(a - b + c for a, b, c in zip(x, r1, r2))):
                    return False, x
    return True, None


def density_bound_zd(domain: LatticeDomain, lam: PeriodicSet) -> BoundReport:
    """Upper bound 1/density from a verified periodic packing set."""
    ok, violation = check_packing_periodic(domain, lam)
    if not ok:
        raise CertificateInvalidError(
            f"periodic set rejected: {violation} is a difference of members")
    value = 1 / lam.density
    return BoundReport(value, "periodic-packing", "upper",
                       {"basis": lam.basis, "residues": lam.residues,
                        "density": lam.density})


# ---------------------------------------------------------------------------
# greedy window construction


@dataclass
class GreedyRun:
    L: int
    selected: tuple[Point, ...]
    achieved: int
    floor: Fraction
    window_size: int


def greedy_packing_window(domain: LatticeDomain, L: int) -> GreedyRun:
    """Greedy packing inside the window [0, 2L] x [-L, L]^{d-1}.

    Scanning in lexicographic order (first coordinate major), every point
    not yet covered is selected and its forward shadow p + Omega+ marked,
    where Omega+ is the closed upper half of the domain. Each selection
    covers at most |Omega+| window points, giving the floor
    |window| / |Omega+|; and differences of selections always fall outside
    the domain, because a later selection inside an earlier shadow is
    impossible and the scan order rules out the mirrored case.

    The window is flattened in C order, which is the lexicographic scan
    order, into a table of shadows that ``packing.greedy_scan`` scans.
    """
    d = domain.d
    diam = 2 * domain.max_abs()
    if L < diam:
        raise ValueError(f"window parameter {L} below domain diameter {diam}")
    omega_plus = [x for x in domain.sorted_elements() if x[0] >= 0]
    shape = (2 * L + 1,) * d
    window_size = math.prod(shape)
    coords = np.indices(shape).reshape(d, window_size)
    # shadow[k, i]: flat index of point i + omega_plus[k], window_size
    # where that point leaves the window
    shadow = np.empty((len(omega_plus), window_size), dtype=np.int64)
    for k, w in enumerate(omega_plus):
        q = coords + np.array(w)[:, None]
        inside = ((q >= 0) & (q < 2 * L + 1)).all(axis=0)
        shadow[k] = np.where(
            inside, np.ravel_multi_index(tuple(q), shape, mode="clip"),
            window_size)
    lows = np.array((0,) + (-L,) * (d - 1))
    picked = coords[:, greedy_scan(shadow)].T + lows
    run = GreedyRun(L, tuple(map(tuple, picked.tolist())), len(picked),
                    Fraction(window_size, len(omega_plus)), window_size)
    _verify_window_packing(domain, run)
    return run


def _verify_window_packing(domain: LatticeDomain, run: GreedyRun) -> None:
    """Reject a selection in which two points differ by a nonzero domain
    point. The pair named is the first clash in lexicographic order: the
    least point p that clashes with a later one, and its least partner.

    The sorted selection gets a first-position array over its bounding box,
    padded by the domain's reach, and p + x is looked up for each
    lexicographically positive domain point x: O(|selection| |domain|)
    time plus the box.
    """
    pts = sorted(run.selected)
    if not pts:
        return
    reach = domain.max_abs()
    P = np.array(pts, dtype=np.int64)
    lo = P.min(axis=0) - reach
    shape = tuple((P.max(axis=0) + reach - lo + 1).tolist())
    at = np.ravel_multi_index(tuple((P - lo).T), shape)
    first = np.full(math.prod(shape), len(pts), dtype=np.int64)
    values, where = np.unique(at, return_index=True)
    first[values] = where
    strides = np.array([math.prod(shape[i + 1:]) for i in range(domain.d)])
    zero = (0,) * domain.d
    partner = np.full(len(pts), len(pts), dtype=np.int64)
    for x in domain.sorted_elements():
        if x > zero:
            np.minimum(partner, first[at + int(np.dot(x, strides))],
                       out=partner)
    bad = np.flatnonzero(partner < len(pts))
    if bad.size:
        p, q = pts[bad[0]], pts[partner[bad[0]]]
        raise CertificateInvalidError(
            f"greedy output is not a packing: {q} - {p} in domain")


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque scalar per row of an int64 matrix, equal iff rows are."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))
                     ).ravel()


def witness_zd(H, domain: LatticeDomain) -> BoundReport:
    """Lower bound |H| from a finite H with H - H inside the domain.

    The autocorrelation of the indicator of H is positive definite,
    supported in H - H, and has sum |H|^2 against height |H|.
    """
    pts = [_canon_point(x, domain.d) for x in H]
    if len(set(pts)) != len(pts):
        raise WitnessRejectedError("witness set repeats elements",
                                   offender=None)
    if not pts:
        raise WitnessRejectedError("witness set is empty", offender=None)
    # rows of H shifted to the corner of its bounding box, so differences
    # are formed exactly in int64; domain points outside the box of
    # differences cannot match and are left out of the lookup
    lo = [min(c) for c in zip(*pts)]
    P = np.array([[c - m for c, m in zip(p, lo)] for p in pts],
                 dtype=np.int64)
    span = P.max(axis=0).tolist()
    keys = _row_keys(np.array(
        [x for x in domain.sorted_elements()
         if all(abs(c) <= s for c, s in zip(x, span))], dtype=np.int64))
    # the differences a - b in the order a over H, then b over H, one a at
    # a time, so memory stays O(|H|)
    for i, a in enumerate(pts):
        outside = np.flatnonzero(~np.isin(_row_keys(P[i] - P), keys))
        if outside.size:
            diff = tuple(x - y for x, y in zip(a, pts[outside[0]]))
            raise WitnessRejectedError(
                f"difference {diff} escapes the domain", offender=diff)
    return BoundReport(float(len(pts)), "autocorrelation-witness", "lower",
                       {"H": sorted(pts)})
