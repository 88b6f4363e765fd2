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
from fractions import Fraction
from itertools import product

import numpy as np

from .bounds import BoundReport
from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (CertificateInvalidError, DomainNotSymmetricError,
                     MTooSmallError, WitnessRejectedError)
from .groups import FiniteAbelianGroup, SymmetricDomain, make_group, symmetric_domain
from .turan_lp import turan_constant

Point = tuple[int, ...]


def _canon_point(x, d: int) -> Point:
    p = (int(x),) if isinstance(x, int) else tuple(int(c) for c in x)
    if len(p) != d:
        raise ValueError(f"point {x!r} does not have dimension {d}")
    return p


@dataclass(frozen=True)
class LatticeDomain:
    """Finite symmetric subset of Z^d containing 0."""

    d: int
    elements: frozenset[Point]

    @property
    def m(self) -> int:
        return len(self.elements)

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
    domains {0,+-1,+-N} get three multiples of 2(N+1) for odd N (even
    moduli past 2N) and of 2(2n+1) for N=2n, which puts the known
    binding frequency on the grid. Anything else gets the first three
    even moduli past the diameter.
    """
    if domain.d != 1:
        raise ValueError("schedules are defined for d=1 only")
    xs = {x[0] for x in domain.elements}
    N = max(xs)
    if xs == set(range(-N, N + 1)):
        return [10 * (N + 1)]
    if N >= 2 and xs == {0, 1, -1, N, -N}:
        if N % 2 == 1:
            base = 2 * N + 2
            return [base, base + 2, base + 4]
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
    x = pi + pi/(2n+1) is what pins optimality.
    """

    n: int
    f0: float
    f1: float
    f2n: float
    total: float
    closed_form: float
    grid_min: float
    binding_value: float


def explicit_witness_omega_N(n: int, grid: int = 100_000) -> OmegaNWitness:
    if n < 1:
        raise ValueError("n must be at least 1")
    c = math.cos(math.pi / (2 * n + 1))
    f1 = n / ((2 * n + 1) * c)
    f2n = 1 / (2 * (2 * n + 1) * c)
    xs = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
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


def _int_det(M: list[list[int]]) -> int:
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * M[0][j] * _int_det(minor)
    return total


def _adjugate(M: list[list[int]]) -> list[list[int]]:
    n = len(M)
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[M[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            adj[j][i] = (-1) ** (i + j) * _int_det(minor)
    return adj


@dataclass(frozen=True)
class PeriodicSet:
    """Union of residues + (integer spans of the basis rows).

    Each row of ``basis`` is one generator, so the sublattice is
    {sum_i z_i basis[i]}. Membership is decided exactly: with B holding
    the generators as columns, v lies in the sublattice iff adj(B) v
    vanishes mod det(B), since adj(B) = det(B) B^{-1}.
    """

    d: int
    basis: tuple[tuple[int, ...], ...]
    residues: tuple[Point, ...]

    def __post_init__(self):
        B = [list(row) for row in self.basis]
        if len(B) != self.d or any(len(r) != self.d for r in B):
            raise ValueError("basis must be a d x d integer matrix")
        det = _int_det(B)
        if det == 0:
            raise ValueError("basis is singular")
        if len(set(self.residues)) != len(self.residues):
            raise ValueError("residues repeat")
        for i, r1 in enumerate(self.residues):
            for r2 in self.residues[:i]:
                if self._in_lattice(tuple(a - b for a, b in zip(r1, r2))):
                    raise ValueError(
                        f"residues {r1} and {r2} coincide modulo the lattice")

    @property
    def det(self) -> int:
        return _int_det([list(r) for r in self.basis])

    @property
    def density(self) -> Fraction:
        return Fraction(len(self.residues), abs(self.det))

    def _in_lattice(self, v: Point) -> bool:
        # generators are the rows, so transpose into column form first
        B = [[self.basis[j][i] for j in range(self.d)]
             for i in range(self.d)]
        det = _int_det(B)
        adj = _adjugate(B)
        return all(
            sum(adj[i][k] * v[k] for k in range(self.d)) % det == 0
            for i in range(self.d))

    def __contains__(self, x) -> bool:
        v = _canon_point(x, self.d)
        return any(
            self._in_lattice(tuple(a - b for a, b in zip(v, r)))
            for r in self.residues)


def periodic_set(d: int, basis, residues) -> PeriodicSet:
    B = tuple(tuple(int(c) for c in row) for row in basis)
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
    """
    d = domain.d
    diam = 2 * domain.max_abs()
    if L < diam:
        raise ValueError(f"window parameter {L} below domain diameter {diam}")
    omega_plus = [x for x in domain.sorted_elements() if x[0] >= 0]
    shape = (2 * L + 1,) + (2 * L + 1,) * (d - 1)
    lows = (0,) + (-L,) * (d - 1)
    covered = np.zeros(shape, dtype=bool)
    selected: list[Point] = []
    for offset in np.ndindex(*shape):
        if covered[offset]:
            continue
        p = tuple(o + lo for o, lo in zip(offset, lows))
        selected.append(p)
        for w in omega_plus:
            q = tuple(o + c for o, c in zip(offset, w))
            if all(0 <= qi < si for qi, si in zip(q, shape)):
                covered[q] = True
    window_size = int(np.prod(shape))
    run = GreedyRun(L, tuple(selected), len(selected),
                    Fraction(window_size, len(omega_plus)), window_size)
    _verify_window_packing(domain, run)
    return run


def _verify_window_packing(domain: LatticeDomain, run: GreedyRun) -> None:
    """Pairwise check restricted to nearby pairs (differences are bounded
    by the domain's reach, so distant pairs cannot collide)."""
    reach = domain.max_abs()
    pts = sorted(run.selected)
    zero = (0,) * domain.d
    for i, p in enumerate(pts):
        j = i + 1
        while j < len(pts) and pts[j][0] - p[0] <= reach:
            diff = tuple(a - b for a, b in zip(pts[j], p))
            if diff != zero and diff in domain:
                raise CertificateInvalidError(
                    f"greedy output is not a packing: {pts[j]} - {p} in domain")
            j += 1


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
    for a in pts:
        for b in pts:
            diff = tuple(x - y for x, y in zip(a, b))
            if diff not in domain:
                raise WitnessRejectedError(
                    f"difference {diff} escapes the domain", offender=diff)
    return BoundReport(float(len(pts)), "autocorrelation-witness", "lower",
                       {"H": sorted(pts)})
