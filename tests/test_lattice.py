"""Integer-lattice domains: torus reduction, periodic packings, greedy
windows, finite witnesses.

The window greedy, its packing check and the witness check run on flat
arrays; the point-by-point scans they replaced are kept here as the
references they must match.
"""
from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from turanlab import (
    CertificateInvalidError,
    DomainNotSymmetricError,
    MTooSmallError,
    WitnessRejectedError,
    check_packing_periodic,
    default_m_schedule,
    density_bound_zd,
    explicit_witness_omega_N,
    greedy_packing_window,
    interval_domain,
    lattice_domain,
    omega_N_domain,
    omega_N_packing,
    periodic_set,
    torus_reduction,
    upper_bound_z,
    witness_zd,
)
from turanlab.lattice import GreedyRun, _verify_window_packing


def _reference_window(domain, L):
    """Lexicographic scan of the window point by point: select each point
    not yet covered and cover its forward shadow."""
    d = domain.d
    omega_plus = [x for x in domain.sorted_elements() if x[0] >= 0]
    shape = (2 * L + 1,) * d
    lows = (0,) + (-L,) * (d - 1)
    covered = np.zeros(shape, dtype=bool)
    selected = []
    for offset in np.ndindex(*shape):
        if covered[offset]:
            continue
        selected.append(tuple(o + lo for o, lo in zip(offset, lows)))
        for w in omega_plus:
            q = tuple(o + c for o, c in zip(offset, w))
            if all(0 <= qi < si for qi, si in zip(q, shape)):
                covered[q] = True
    size = math.prod(shape)
    return tuple(selected), len(selected), Fraction(size, len(omega_plus)), size


def _reference_window_clash(domain, selected):
    """Pairwise scan of the sorted selection, over partners within the
    domain's reach: the first (later, earlier) pair whose difference is a
    nonzero domain point, or None."""
    reach = domain.max_abs()
    pts = sorted(selected)
    zero = (0,) * domain.d
    for i, p in enumerate(pts):
        j = i + 1
        while j < len(pts) and pts[j][0] - p[0] <= reach:
            diff = tuple(a - b for a, b in zip(pts[j], p))
            if diff != zero and diff in domain:
                return f"{pts[j]} - {p} in domain"
            j += 1
    return None


def _reference_witness_offender(H, domain):
    """Pairwise scan: the first difference a - b outside the domain."""
    for a in H:
        for b in H:
            diff = tuple(x - y for x, y in zip(a, b))
            if diff not in domain:
                return diff
    return None


def _random_lattice_domain(rng, d, reach):
    pts = {(0,) * d}
    for _ in range(rng.randint(1, 4)):
        x = tuple(rng.randint(-reach, reach) for _ in range(d))
        pts.update((x, tuple(-c for c in x)))
    return lattice_domain(d, pts)


def test_lattice_domain_validation():
    dom = lattice_domain(1, [0, 2, -2])
    assert (2,) in dom and (1,) not in dom
    with pytest.raises(DomainNotSymmetricError):
        lattice_domain(1, [1, -1])
    with pytest.raises(DomainNotSymmetricError):
        lattice_domain(2, [(0, 0), (1, 2)])


def test_interval_and_omega_domains():
    assert interval_domain(2).sorted_elements() == \
        [(-2,), (-1,), (0,), (1,), (2,)]
    assert set(omega_N_domain(4).elements) == {(0,), (1,), (-1,), (4,), (-4,)}
    with pytest.raises(ValueError):
        omega_N_domain(1)
    with pytest.raises(ValueError):
        interval_domain(-1)


def test_torus_reduction_hand_case():
    G, image = torus_reduction(omega_N_domain(3), 10)
    assert G.moduli == (10,)
    assert image.sorted_elements() == [(0,), (1,), (3,), (7,), (9,)]
    with pytest.raises(MTooSmallError):
        torus_reduction(omega_N_domain(3), 6)  # 3 and -3 collide


def test_default_m_schedule_shapes():
    assert default_m_schedule(interval_domain(4)) == [50]
    assert default_m_schedule(omega_N_domain(5)) == [12, 14, 16]
    assert default_m_schedule(omega_N_domain(4)) == [10, 20, 30]
    # dispersed but not an omega shape
    assert default_m_schedule(lattice_domain(1, [0, 2, -2, 5, -5])) == \
        [12, 14, 16]
    with pytest.raises(ValueError):
        default_m_schedule(lattice_domain(2, [(0, 0)]))


def test_default_m_schedule_costs_nothing_for_a_far_point():
    # a three-point domain with a far point is not an interval; telling
    # so must not build the 2N + 1 points of [-N, N]
    dom = lattice_domain(1, [0, 10**6, -10**6])
    tracemalloc.start()
    try:
        schedule = default_m_schedule(dom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert schedule == [2 * 10**6 + 4, 2 * 10**6 + 6, 2 * 10**6 + 8]
    assert peak < 1_000_000


def test_upper_bound_z_interval():
    rep = upper_bound_z(interval_domain(3))
    assert rep.method == "torus-lp"
    assert rep.as_float() == pytest.approx(4.0, abs=1e-6)
    assert rep.certificate["schedule"][0]["M"] == 40


def test_upper_bound_z_odd_omega():
    # A(2n+1) = 2 at every even modulus past 2N
    for M in (8, 10, 14, 20):
        rep = upper_bound_z(omega_N_domain(3), [M])
        assert rep.as_float() == pytest.approx(2.0, abs=1e-6), f"M={M}"


def test_upper_bound_z_even_omega_closed_form():
    for n in (1, 2, 3):
        N = 2 * n
        closed = 1.0 + 1.0 / math.cos(math.pi / (2 * n + 1))
        rep = upper_bound_z(omega_N_domain(N), [2 * (2 * n + 1)])
        assert rep.as_float() == pytest.approx(closed, abs=1e-6), f"n={n}"


def test_upper_bound_z_budget_overrun_keeps_valid_bounds():
    plus = lattice_domain(2, [(0, 0), (0, 1), (0, -1), (1, 0), (-1, 0)])
    rep = upper_bound_z(plus, [6, 100])  # Z_100^2 is above the order cap
    assert rep.as_float() == pytest.approx(2.0, abs=1e-6)
    assert rep.certificate["budget_exhausted"] is True
    first, second = rep.certificate["schedule"]
    assert set(first) == {"M", "value", "running_min"}
    assert second["status"] == "budget-exceeded"
    assert second["value"] == 5.0 and second["running_min"] == rep.value
    # a schedule that solves optimally throughout carries no overrun keys
    ok = upper_bound_z(plus, [6])
    assert set(ok.certificate) == {"schedule"}
    assert set(ok.certificate["schedule"][0]) == {"M", "value", "running_min"}


def test_explicit_witness_omega_N():
    for n in (1, 2, 3):
        wit = explicit_witness_omega_N(n)
        assert wit.total == pytest.approx(wit.closed_form, abs=1e-12)
        assert wit.grid_min >= -1e-9
        assert abs(wit.binding_value) < 1e-12
    with pytest.raises(ValueError):
        explicit_witness_omega_N(0)


# grid_min of the 100 000-point grid, bit for bit: the values at points
# past pi are their mirror images', and for these n the least value is
# the same in every bit either way
_GRID_MIN = {1: "0x1.e24e4c0000000p-32", 2: "-0x1.0000000000000p-55",
             3: "0x1.09c24e0000000p-32", 4: "0x1.acb898c000000p-29"}


@pytest.mark.parametrize("n", sorted(_GRID_MIN))
def test_explicit_witness_grid_min_bits(n):
    wit = explicit_witness_omega_N(n)
    assert wit.grid_min.hex() == _GRID_MIN[n]
    # the least value over the whole grid, every point evaluated
    xs = np.linspace(0.0, 2.0 * math.pi, 100_000, endpoint=False)
    full = 1.0 + 2 * wit.f1 * np.cos(xs) + 2 * wit.f2n * np.cos(2 * n * xs)
    assert float(full.min()).hex() == _GRID_MIN[n]


def test_periodic_set_membership():
    lam = periodic_set(2, [[1, 1], [2, -1]], [(0, 0)])
    assert lam.det == -3
    assert lam.density == Fraction(1, 3)
    assert (1, 1) in lam and (3, 0) in lam and (2, -1) in lam
    assert (1, 0) not in lam and (0, 1) not in lam


def test_periodic_set_validation():
    with pytest.raises(ValueError, match="singular"):
        periodic_set(2, [[1, 1], [2, 2]], [(0, 0)])
    with pytest.raises(ValueError, match="coincide"):
        periodic_set(1, [[4]], [(0,), (4,)])
    with pytest.raises(ValueError, match="repeat"):
        periodic_set(1, [[4]], [(0,), (0,)])


@pytest.mark.parametrize("basis", [[[2.5]], [[2.0]], [[np.float64(2)]],
                                   [["2"]], 5, [5]],
                         ids=["fraction", "integral-float", "np-float",
                              "string", "scalar", "scalar-row"])
def test_periodic_set_refuses_a_non_integer_basis(basis):
    # 2.5 used to run as the lattice 2Z, which the caller never named
    with pytest.raises(ValueError, match="basis"):
        periodic_set(1, basis, [(0,)])


def test_periodic_set_accepts_numpy_integers():
    lam = periodic_set(2, np.array([[1, 1], [2, -1]]), [(0, 0)])
    assert lam.basis == ((1, 1), (2, -1)) and lam.det == -3
    assert all(type(c) is int for row in lam.basis for c in row)


def test_periodic_set_needs_a_residue():
    # no residues would be density 0, and the bound 1/density undefined
    with pytest.raises(ValueError, match="nonempty"):
        periodic_set(1, [[2]], [])


def test_check_packing_periodic_paper_case():
    H = [(0, 0), (1, 0), (0, 1)]
    dom = lattice_domain(2, [tuple(a - b for a, b in zip(x, y))
                             for x in H for y in H])
    lam = periodic_set(2, [[1, 1], [2, -1]], [(0, 0)])
    ok, violation = check_packing_periodic(dom, lam)
    assert ok and violation is None
    rep = density_bound_zd(dom, lam)
    assert rep.value == Fraction(3)
    assert rep.exact


def test_density_bound_rejects_bad_packing():
    dom = lattice_domain(1, [0, 1, -1])
    lam = periodic_set(1, [[3]], [(0,), (1,)])  # 1 - 0 hits the domain
    ok, violation = check_packing_periodic(dom, lam)
    assert not ok and violation in {(1,), (-1,)}
    with pytest.raises(CertificateInvalidError):
        density_bound_zd(dom, lam)


def _reference_periodic_check(domain, lam):
    """The per-point scan that ``check_packing_periodic`` replaced: each
    nonzero domain point in order against every residue pair, by the
    exact membership rule."""
    zero = (0,) * domain.d
    for x in domain.sorted_elements():
        if x == zero:
            continue
        for r1 in lam.residues:
            for r2 in lam.residues:
                if lam._in_lattice(tuple(a - b + c
                                         for a, b, c in zip(x, r1, r2))):
                    return False, x
    return True, None


def _random_periodic_case(rng, d, big):
    """A periodic set with a random basis and residues, and a random
    symmetric domain; with ``big``, coordinates and basis entries go far
    past int64."""
    scale = 10 ** 25 if big else 1
    while True:
        basis = [[rng.randint(-5, 5) * scale + rng.randint(-2, 2)
                  for _ in range(d)] for _ in range(d)]
        try:
            lam = periodic_set(d, basis, [tuple(rng.randint(-9, 9) * scale
                                                + rng.randint(-3, 3)
                                                for _ in range(d))])
        except ValueError:  # singular
            continue
        break
    residues = list(lam.residues)
    for _ in range(rng.randint(0, 4)):
        r = tuple(rng.randint(-9, 9) * scale + rng.randint(-3, 3)
                  for _ in range(d))
        try:
            lam = periodic_set(d, lam.basis, residues + [r])
            residues.append(r)
        except ValueError:  # repeats or coincides modulo the lattice
            pass
    pts = [tuple(rng.randint(-6, 6) * rng.choice([1, scale])
                 + rng.randint(-2, 2) for _ in range(d))
           for _ in range(rng.randint(0, 6))]
    dom = lattice_domain(d, [(0,) * d] + pts + [tuple(-c for c in x)
                                               for x in pts])
    return dom, lam


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("big", [False, True], ids=["small", "beyond-int64"])
def test_check_packing_periodic_matches_the_per_point_scan(d, big):
    rng = random.Random(90711 + 2 * d + big)
    verdicts = set()
    for case in range(150):
        dom, lam = _random_periodic_case(rng, d, big)
        got = check_packing_periodic(dom, lam)
        assert got == _reference_periodic_check(dom, lam), f"case {case}"
        verdicts.add(got[0])
    assert verdicts == {True, False}
    # a domain of 0 alone has no nonzero point to clash
    assert check_packing_periodic(lattice_domain(d, [(0,) * d]), lam) == (
        True, None)


def test_check_packing_periodic_with_a_huge_determinant():
    # det(B) = 10^50: the values of phi are Python ints, not int64
    lam = periodic_set(2, [[10 ** 25, 0], [0, 10 ** 25]],
                       [(0, 0), (1, 10 ** 30 + 1)])
    dom = lattice_domain(2, [(0, 0), (1, 1), (-1, -1), (10 ** 25, 0),
                             (-10 ** 25, 0)])
    # (+-10^25, 0) lie in the lattice, and (1, 1) is (1, 10^30 + 1) - 0
    # modulo it
    assert check_packing_periodic(dom, lam) == (False, (-10 ** 25, 0))
    near = lattice_domain(2, [(0, 0), (1, 1), (-1, -1)])
    assert check_packing_periodic(near, lam) == (False, (-1, -1))
    far = lattice_domain(2, [(0, 0), (2, 3), (-2, -3)])
    assert check_packing_periodic(far, lam) == (True, None)


def test_omega_N_packing_density():
    for n in range(1, 5):
        lam = omega_N_packing(n)
        assert lam.density == Fraction(n, 2 * n + 1)
        ok, _ = check_packing_periodic(omega_N_domain(2 * n), lam)
        assert ok
        bound = density_bound_zd(omega_N_domain(2 * n), lam)
        assert bound.value == Fraction(2 * n + 1, n)


def test_periodic_membership_against_cramer():
    """Row-generator membership vs a direct Cramer solve for z."""
    rng = random.Random(90701)
    for case in range(200):
        r0 = [rng.randint(-4, 4), rng.randint(-4, 4)]
        r1 = [rng.randint(-4, 4), rng.randint(-4, 4)]
        det = r0[0] * r1[1] - r0[1] * r1[0]
        if det == 0:
            continue
        lam = periodic_set(2, [r0, r1], [(0, 0)])
        for _ in range(25):
            v = (rng.randint(-30, 30), rng.randint(-30, 30))
            # v = i r0 + j r1 has the integer solution below iff member
            i_num = v[0] * r1[1] - r1[0] * v[1]
            j_num = r0[0] * v[1] - v[0] * r0[1]
            want = i_num % det == 0 and j_num % det == 0
            assert (v in lam) == want, f"case {case}: {r0} {r1} {v}"


def test_greedy_packing_window_interval():
    run = greedy_packing_window(interval_domain(3), 30)
    # scan picks 0, 4, 8, ... so the count is floor(60/4) + 1
    assert run.achieved == 16
    assert run.achieved >= run.floor
    assert run.window_size == 61


def test_greedy_packing_window_validates():
    with pytest.raises(ValueError):
        greedy_packing_window(interval_domain(3), 4)


def test_greedy_packing_window_2d():
    dom = lattice_domain(2, [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])
    run = greedy_packing_window(dom, 6)
    assert run.achieved >= run.floor
    assert len(run.selected) == run.achieved


def test_window_matches_reference_scan_and_check():
    rng = random.Random(90702)
    for case in range(24):
        d = case % 3 + 1
        dom = _random_lattice_domain(rng, d, 2 if d == 3 else 3)
        L = 2 * dom.max_abs() + rng.randint(0, 5 if d < 3 else 1)
        run = greedy_packing_window(dom, L)
        assert (run.selected, run.achieved, run.floor, run.window_size) == \
            _reference_window(dom, L), f"case {case}: {sorted(dom.elements)}"
        # corrupt the selection with translates by domain points: the
        # check names the pair the pairwise scan meets first
        for _ in range(3):
            bad = list(run.selected)
            for _ in range(rng.randint(1, 3)):
                p = rng.choice(run.selected)
                x = rng.choice(dom.sorted_elements())
                bad.append(tuple(a + b for a, b in zip(p, x)))
            rng.shuffle(bad)
            want = _reference_window_clash(dom, bad)
            corrupted = GreedyRun(L, tuple(bad), len(bad), run.floor,
                                  run.window_size)
            if want is None:
                _verify_window_packing(dom, corrupted)
            else:
                with pytest.raises(CertificateInvalidError) as err:
                    _verify_window_packing(dom, corrupted)
                assert str(err.value).endswith(want), f"case {case}"


def test_witness_zd_matches_pairwise_check():
    rng = random.Random(90703)
    rejected = 0
    for case in range(150):
        d = rng.randint(1, 3)
        # H - H for a random H, sometimes with points dropped
        H = list({tuple(rng.randint(-4, 4) for _ in range(d))
                  for _ in range(rng.randint(1, 6))})
        diffs = {tuple(a - b for a, b in zip(x, y)) for x in H for y in H}
        keep = [x for x in diffs if rng.random() < 0.9 or not any(x)]
        dom = lattice_domain(d, set(keep) | {tuple(-c for c in x)
                                             for x in keep})
        # shifted far from 0, and sometimes with a stray point added
        shift = [rng.randint(-10 ** 12, 10 ** 12) for _ in range(d)]
        H = [tuple(a + s for a, s in zip(x, shift)) for x in H]
        if rng.random() < 0.3:
            H.insert(rng.randint(0, len(H)),
                     tuple(a + rng.randint(-9, 9) for a in H[0]))
            if len(set(H)) != len(H):
                continue
        want = _reference_witness_offender(H, dom)
        if want is None:
            assert witness_zd(H, dom).value == len(H)
        else:
            rejected += 1
            with pytest.raises(WitnessRejectedError) as err:
                witness_zd(H, dom)
            assert err.value.offender == want, f"case {case}"
    assert rejected >= 30


def test_witness_zd_fejer():
    for N in range(0, 5):
        rep = witness_zd([(k,) for k in range(N + 1)], interval_domain(N))
        assert rep.value == N + 1
        assert rep.direction == "lower"


def test_witness_zd_rejections():
    dom = interval_domain(2)
    with pytest.raises(WitnessRejectedError, match="escapes"):
        witness_zd([(0,), (3,)], dom)
    with pytest.raises(WitnessRejectedError, match="repeats"):
        witness_zd([(0,), (0,)], dom)
    with pytest.raises(WitnessRejectedError, match="empty"):
        witness_zd([], dom)


def test_witness_zd_paper_case():
    H = [(0, 0), (1, 0), (0, 1)]
    dom = lattice_domain(2, [tuple(a - b for a, b in zip(x, y))
                             for x in H for y in H])
    assert witness_zd(H, dom).value == 3.0
