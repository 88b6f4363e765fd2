"""Randomized invariant suites.

Shared between the per-suite property tests and the acceptance gate,
which runs every suite at full strength (>= 1000 cases). Each suite is
a plain function taking a case count and a seed and raising
AssertionError on the first violated invariant, so a failure pins the
case index and the group that produced it.

Both gates call ``run_suite``, which runs each (suite, cases) once per
test session and replays its outcome, pass or the AssertionError, to the
other gate.

Group shapes are drawn uniformly from all products of cyclic factors
with order at most 64 (16 for the brute-force oracle suite, where the
oracle builds a full Gram matrix).
"""
from __future__ import annotations

import math
import random
from functools import lru_cache

import numpy as np

import turanlab as tl

# keeps branch and bound cheap; an exhausted search still returns a
# valid packing, which is all the dominance suite needs
_SEARCH_BUDGET = tl.SearchBudget(node_limit=50_000)


@lru_cache(maxsize=None)
def _shapes(limit: int) -> tuple[tuple[int, ...], ...]:
    """All nondecreasing factor tuples (each >= 2) with product <= limit."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], lo: int, room: int) -> None:
        for m in range(lo, room + 1):
            out.append(prefix + (m,))
            if room // m >= m:
                rec(prefix + (m,), m, room // m)

    rec((), 2, limit)
    return tuple(out)


def random_group(rng: random.Random, max_order: int = 64) -> tl.FiniteAbelianGroup:
    moduli = list(rng.choice(_shapes(max_order)))
    rng.shuffle(moduli)
    return tl.make_group(moduli)


def random_domain(rng: random.Random, G: tl.FiniteAbelianGroup,
                  max_pairs: int = 8) -> tl.SymmetricDomain:
    nonzero = [x for x in G.elements() if x != G.identity()]
    k = min(len(nonzero), rng.randint(0, max_pairs))
    elems = {G.identity()}
    for x in rng.sample(nonzero, k):
        elems.add(x)
        elems.add(G.neg(x))
    return tl.symmetric_domain(G, elems)


def suite_trivial_bounds(cases: int = 1000, seed: int = 811001) -> None:
    """1 <= T <= |Omega|, optimal status, certified gap."""
    rng = random.Random(seed)
    for k in range(cases):
        G = random_group(rng)
        dom = random_domain(rng, G)
        sol = tl.turan_constant(G, dom)
        where = f"case {k}: {G.moduli}, |domain|={dom.size}"
        assert sol.status == "optimal", f"{where}: status {sol.status}"
        assert sol.value >= 1.0 - 1e-9, f"{where}: value {sol.value} < 1"
        assert sol.value <= dom.size + 1e-6, \
            f"{where}: value {sol.value} > |domain| {dom.size}"
        assert sol.gap <= 1e-6, f"{where}: certificate gap {sol.gap}"


def suite_monotonicity(cases: int = 1000, seed: int = 811002) -> None:
    """Growing the domain never shrinks the value."""
    rng = random.Random(seed)
    for k in range(cases):
        G = random_group(rng)
        small = random_domain(rng, G, max_pairs=5)
        extra = random_domain(rng, G, max_pairs=5)
        big = tl.symmetric_domain(G, set(small.elements) | set(extra.elements))
        lo = tl.turan_constant(G, small).value
        hi = tl.turan_constant(G, big).value
        assert lo <= hi + 1e-6, \
            f"case {k}: {G.moduli}, {lo} on {small.size} elements > " \
            f"{hi} on {big.size}"


def suite_product_rule(cases: int = 1000, seed: int = 811003) -> None:
    """T(Omega1 x Omega2) = T(Omega1) T(Omega2) on direct products."""
    rng = random.Random(seed)
    for k in range(cases):
        G1 = random_group(rng, max_order=8)
        G2 = random_group(rng, max_order=8)
        d1 = random_domain(rng, G1, max_pairs=3)
        d2 = random_domain(rng, G2, max_pairs=3)
        v1 = tl.turan_constant(G1, d1).value
        v2 = tl.turan_constant(G2, d2).value
        prod = tl.product_constant(G1, d1, G2, d2)
        assert prod.status == "optimal"
        assert abs(prod.value - v1 * v2) <= 1e-6, \
            f"case {k}: {G1.moduli}x{G2.moduli}: {prod.value} vs {v1}*{v2}"


def _random_automorphism(rng: random.Random, G: tl.FiniteAbelianGroup):
    """Diagonal units, occasionally a swap of equal factors or a shear."""
    images = []
    for i, m in enumerate(G.moduli):
        units = [u for u in range(1, m) if math.gcd(u, m) == 1]
        e = [0] * G.rank
        e[i] = rng.choice(units)
        images.append(e)
    same = [(i, j) for i in range(G.rank) for j in range(i + 1, G.rank)
            if G.moduli[i] == G.moduli[j]]
    if same and rng.random() < 0.4:
        i, j = rng.choice(same)
        images[i], images[j] = images[j], images[i]
    if G.rank > 1 and rng.random() < 0.4:
        i, j = rng.sample(range(G.rank), 2)
        # keep the shear a homomorphism: m_i * c = 0 mod m_j
        step = G.moduli[j] // math.gcd(G.moduli[i], G.moduli[j])
        c = step * rng.randrange(G.moduli[j] // step)
        sheared = [row[:] for row in images]
        sheared[i][j] = (sheared[i][j] + c) % G.moduli[j]
        if tl.is_automorphism(G, [tuple(r) for r in sheared]):
            images = sheared
    return [tuple(r) for r in images]


def suite_automorphism_invariance(cases: int = 1000, seed: int = 811004) -> None:
    rng = random.Random(seed)
    for k in range(cases):
        G = random_group(rng)
        dom = random_domain(rng, G, max_pairs=6)
        images = _random_automorphism(rng, G)
        assert tl.is_automorphism(G, images), f"case {k}: {G.moduli} {images}"
        base = tl.turan_constant(G, dom).value
        moved = tl.automorphism_image_constant(G, dom, images).value
        assert abs(base - moved) <= 1e-6, \
            f"case {k}: {G.moduli}, {base} vs {moved} under {images}"


def _coset_transversal(G: tl.FiniteAbelianGroup, K: tl.Subgroup) -> list:
    _Q, project = tl.quotient_group(G, K)
    reps: dict = {}
    for x in G.elements():
        reps.setdefault(project(x), x)
    return list(reps.values())


def suite_upper_bounds_dominate(cases: int = 1000, seed: int = 811005) -> None:
    """Every certified upper bound sits above the LP value."""
    rng = random.Random(seed)
    for k in range(cases):
        G = random_group(rng)
        dom = random_domain(rng, G, max_pairs=6)
        lp = tl.turan_constant(G, dom).value
        floor = lp - 1e-6
        where = f"case {k}: {G.moduli}, |domain|={dom.size}, lp={lp}"

        lam = tl.max_packing_set(G, dom, _SEARCH_BUDGET)
        pb = tl.packing_bound(G, dom, lam)
        assert pb.as_float() >= floor, f"{where}: packing {pb.value}"

        K = tl.subgroup_generated(G, rng.sample(G.elements(), rng.randint(1, 2)))
        sb = tl.subgroup_bound(G, dom, K)
        assert sb.as_float() >= floor, f"{where}: subgroup {sb.value}"
        qb = tl.quotient_bound(G, dom, K)
        assert qb.as_float() >= floor, f"{where}: quotient {qb.value}"

        # tiling and spectral certificates from a random subgroup tile:
        # the domain must live inside H - H = K2, so shrink it first
        K2 = tl.subgroup_generated(G, [rng.choice(G.elements())])
        inner = tl.symmetric_domain(G, [x for x in dom.elements if x in K2])
        lp2 = tl.turan_constant(G, inner).value
        H = sorted(K2.elements, key=G.index)
        tb = tl.tiling_bound(G, inner, H, _coset_transversal(G, K2))
        assert tb.as_float() >= lp2 - 1e-6, \
            f"{where}: tiling {tb.value} < {lp2} on |inner|={inner.size}"
        found = tl.find_spectrum(G, H, _SEARCH_BUDGET)
        assert found.candidate is not None, f"{where}: subgroup has no spectrum"
        spb = tl.spectral_bound(G, inner, H, found.candidate.T)
        assert spb.as_float() >= lp2 - 1e-6, f"{where}: spectral {spb.value}"


def suite_transform_round_trips(cases: int = 1000, seed: int = 811006) -> None:
    """Inverse transform round trips, Parseval, exact-sign agreement."""
    rng = random.Random(seed)
    for k in range(cases):
        G = random_group(rng)
        vals = np.array([rng.uniform(-5.0, 5.0) for _ in range(G.order)])
        f = tl.GroupFunction(G, vals)
        back = tl.idft(tl.dft(f))
        scale = max(1.0, float(np.abs(vals).sum()))
        assert np.abs(back.values - vals).max() <= 1e-9 * scale, \
            f"case {k}: {G.moduli} inverse round trip"
        assert tl.parseval_gap(f) <= 1e-9, f"case {k}: {G.moduli} parseval"

        # dual-side round trip on a hermitian spectrum
        raw = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(G.order)]
        F = np.empty(G.order, dtype=complex)
        for i, t in enumerate(G.elements()):
            F[i] = raw[i] + raw[G.index(G.neg(t))].conjugate()
        g = tl.idft(tl.DualFunction(G, F))
        again = tl.dft(g)
        assert np.abs(again.values - F).max() <= 1e-9 * max(1.0, float(np.abs(F).sum())), \
            f"case {k}: {G.moduli} dual round trip"

        # exact transform on a random 2-group agrees with the float path
        B = tl.make_group([2] * rng.randint(1, 6))
        ints = [rng.randint(-9, 9) for _ in range(B.order)]
        exact = tl.dft_exact_signs(B, ints)
        flo = tl.dft(tl.GroupFunction(B, np.array(ints, dtype=float)))
        diff = np.abs(np.array([float(v) for v in exact]) - flo.values.real).max()
        assert diff <= 1e-9 * max(1, sum(abs(v) for v in ints)), \
            f"case {k}: exact signs vs float on {B.moduli}"


def _gram_min_eig(f: tl.GroupFunction) -> float:
    """Smallest eigenvalue of the Gram matrix M[i,j] = f(x_i - x_j)."""
    G = f.group
    elems = G.elements()
    M = np.empty((G.order, G.order))
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            M[i, j] = f(G.sub(x, y))
    return float(np.linalg.eigvalsh((M + M.T) / 2.0).min())


def _even_from_spectrum(rng: random.Random, G: tl.FiniteAbelianGroup,
                        spectrum: np.ndarray) -> tl.GroupFunction:
    return tl.idft(tl.DualFunction(G, spectrum.astype(complex)))


def suite_pd_oracle_agreement(cases: int = 1000, seed: int = 811007) -> None:
    """Gram-matrix oracle vs the frequency-domain test, |G| <= 16."""
    rng = random.Random(seed)
    for k in range(cases):
        G = random_group(rng, max_order=16)
        where = f"case {k}: {G.moduli}"

        # autocorrelations are positive definite by construction
        raw = tl.GroupFunction(
            G, np.array([rng.uniform(-2, 2) for _ in range(G.order)]))
        f = tl.autocorrelation(raw)
        rep = tl.is_positive_definite(f)
        mn = _gram_min_eig(f)
        assert rep.flag, f"{where}: autocorrelation rejected ({rep})"
        assert mn >= -1e-7 * max(1.0, f.l1()), f"{where}: oracle min {mn}"

        # a spectrum with a planted dip must be rejected by both tests
        spec = np.array([rng.uniform(0.1, 3.0) for _ in range(G.order)])
        spec_even = np.empty(G.order)
        for i, t in enumerate(G.elements()):
            spec_even[i] = spec[min(i, G.index(G.neg(t)))]
        dip = rng.randrange(G.order)
        bad = spec_even.copy()
        bad[dip] = bad[G.index(G.neg(G.element(dip)))] = -rng.uniform(0.5, 2.0)
        g_bad = _even_from_spectrum(rng, G, bad)
        rep_bad = tl.is_positive_definite(g_bad)
        mn_bad = _gram_min_eig(g_bad)
        assert not rep_bad.flag and mn_bad < 0, \
            f"{where}: planted dip missed (flag={rep_bad.flag}, min={mn_bad})"

        # all-positive spectrum must be accepted by both tests, and the
        # reported transform minimum is the Gram minimum
        g_ok = _even_from_spectrum(rng, G, spec_even)
        rep_ok = tl.is_positive_definite(g_ok)
        mn_ok = _gram_min_eig(g_ok)
        assert rep_ok.flag and mn_ok > 0, \
            f"{where}: positive spectrum rejected (flag={rep_ok.flag}, min={mn_ok})"
        assert abs(rep_ok.min_real - mn_ok) <= 1e-6 * max(1.0, g_ok.l1()), \
            f"{where}: transform min {rep_ok.min_real} vs gram min {mn_ok}"


ALL_SUITES = [
    ("trivial-bounds", suite_trivial_bounds),
    ("monotonicity", suite_monotonicity),
    ("product-rule", suite_product_rule),
    ("automorphism-invariance", suite_automorphism_invariance),
    ("upper-bounds-dominate", suite_upper_bounds_dominate),
    ("transform-round-trips", suite_transform_round_trips),
    ("pd-oracle-agreement", suite_pd_oracle_agreement),
]


# (suite, cases) -> None for a pass, else the AssertionError it raised
_OUTCOMES: dict = {}


def run_suite(suite, cases: int = 1000) -> None:
    """Run ``suite(cases=cases)`` once per session; later calls re-raise
    the first run's AssertionError, or pass if it passed."""
    key = (suite, cases)
    if key not in _OUTCOMES:
        try:
            suite(cases=cases)
            _OUTCOMES[key] = None
        except AssertionError as exc:
            _OUTCOMES[key] = exc
    if _OUTCOMES[key] is not None:
        raise _OUTCOMES[key]
