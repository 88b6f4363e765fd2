"""The ten headline checks, one recorded summary line each.

Each test gathers its own evidence, records a pass/fail line for the
terminal summary (see conftest), and then asserts. Check 4 asserts what
the paper's example states: at n = 1 the domain {0, +-1, +-2} is the
interval [-2, 2], whose constant N + 1 = 3 the periodic-packing bound
2 + 1/n meets exactly, so the check pins that tie; for n >= 2 it demands
that the bound sit strictly above the limit value.
"""

import math
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import turanlab as tl
from conftest import record
from property_suites import ALL_SUITES, run_suite


@dataclass
class Score:
    ok: bool = False
    detail: str = ""


@contextmanager
def scored(name):
    s = Score()
    try:
        yield s
    except BaseException as e:
        record(name, False, s.detail or f"raised {type(e).__name__}: {e}")
        raise
    record(name, s.ok, s.detail)
    assert s.ok, f"{name}: {s.detail}"


def test_check_01_order8_squeeze():
    with scored("01 order-8 squeeze") as s:
        t0 = time.perf_counter()
        G = tl.make_group([8])
        dom = tl.symmetric_domain(G, [0, 1, 3, 4, 5, 7])
        sol = tl.turan_constant(G, dom)
        pk = tl.packing_bound(G, dom, [0, 2])
        tile = tl.tiling_bound(G, dom, [0, 1, 4, 5], [0, 2])
        wit = tl.witness_ratio(
            tl.autocorrelation(tl.indicator(G, [0, 1, 4, 5])), dom)
        elapsed = time.perf_counter() - t0
        s.ok = (sol.status == "optimal" and abs(sol.value - 4) <= 1e-6
                and pk.value == 4 and tile.value == 4
                and abs(wit.as_float() - 4) <= 1e-9
                and elapsed < 1.0)
        s.detail = (f"lp={sol.value:.9f} packing={pk.value} "
                    f"tiling={tile.value} witness={wit.as_float():.9f} "
                    f"in {elapsed:.3f}s")


def test_check_02_odd_sparse_domains():
    with scored("02 odd sparse domains reach 2") as s:
        worst = 0.0
        pairs = 0
        for N in (3, 5, 7):
            dom = tl.omega_N_domain(N)
            for M in (2 * N + 2, 2 * N + 4, 2 * N + 10, 4 * N + 6, 60):
                v = tl.upper_bound_z(dom, Ms=[M]).as_float()
                worst = max(worst, abs(v - 2.0))
                pairs += 1
        s.ok = worst <= 1e-6
        s.detail = f"max |value - 2| = {worst:.2e} over {pairs} (N, M) pairs"


def test_check_03_even_sparse_closed_form():
    with scored("03 even sparse domains hit 1 + 1/cos(pi/(2n+1))") as s:
        t0 = time.perf_counter()
        ok = True
        parts = []
        for n in (1, 2, 3):
            period = 2 * (2 * n + 1)
            closed = 1 + 1 / math.cos(math.pi / (2 * n + 1))
            vs = [tl.upper_bound_z(tl.omega_N_domain(2 * n),
                                   Ms=[k * period]).as_float()
                  for k in (1, 2)]
            w = tl.explicit_witness_omega_N(n)
            ok = ok and all(abs(v - closed) <= 1e-6 for v in vs)
            ok = ok and abs(w.total - closed) <= 1e-6
            ok = ok and w.grid_min >= -1e-9
            parts.append(f"n={n}: {vs[0]:.6f} vs {closed:.6f} "
                         f"(witness min {w.grid_min:.1e})")
        elapsed = time.perf_counter() - t0
        s.ok = ok and elapsed < 10.0
        s.detail = "; ".join(parts) + f" in {elapsed:.2f}s"


def test_check_04_periodic_packing_gap():
    with scored("04 periodic packing bound: tight at n = 1, strictly above "
                "the limit for n >= 2") as s:
        ok = True
        margins = []
        for n in range(1, 5):
            lam = tl.omega_N_packing(n)
            dom = tl.omega_N_domain(2 * n)
            good, _ = tl.check_packing_periodic(dom, lam)
            bound = tl.density_bound_zd(dom, lam)
            lp = tl.upper_bound_z(dom, Ms=[2 * (2 * n + 1)]).as_float()
            margin = float(bound.value) - lp
            margins.append(f"n={n}: {margin:+.2e}")
            ok = ok and good and lam.density == Fraction(n, 2 * n + 1)
            ok = ok and bound.value == Fraction(2 * n + 1, n)
            if n == 1:
                # [-2, 2]: the packing 3Z reaches the constant N + 1 = 3
                ok = ok and bound.value == Fraction(3) and abs(margin) <= 1e-6
            else:
                ok = ok and margin >= 1e-3
        s.ok = ok
        s.detail = ("bound - lp: " + ", ".join(margins)
                    + "; |margin| <= 1e-6 at n = 1, >= 1e-3 for n >= 2")


def test_check_05_hypercube_spectral_vs_packing():
    with scored("05 rank-12 hypercube: spectral 12 beats packing") as s:
        G = tl.make_group([2] * 12)
        H = [tuple(1 if j == i else 0 for j in range(12)) for i in range(12)]
        dom = tl.difference_set(G, H)
        t0 = time.perf_counter()
        search = tl.find_spectrum(G, H)
        spectrum_s = time.perf_counter() - t0
        cand = search.candidate
        ok = (cand is not None and cand.verified and len(cand.T) == 12
              and spectrum_s < 120.0)
        spect = tl.spectral_bound(G, dom, cand.H, cand.T)
        ok = ok and abs(spect.as_float() - 12) <= 1e-9
        sizes = []
        for budget in (tl.SearchBudget(node_limit=1),
                       tl.SearchBudget(node_limit=50_000)):
            lam = tl.max_packing_set(G, dom, budget)
            pk = tl.packing_bound(G, dom, lam.elements)
            sizes.append(lam.size)
            ok = (ok and lam.size <= 341
                  and pk.value >= Fraction(4096, 341) and pk.value > 12)
        sol = tl.turan_constant(G, dom)
        ok = (ok and sol.status == "optimal" and sol.value <= 12 + 1e-6
              and sol.problem.n_rows <= 4096)
        s.ok = ok
        s.detail = (f"|T|={0 if cand is None else len(cand.T)} "
                    f"in {spectrum_s:.2f}s; |Lambda|={max(sizes)} "
                    f"so packing >= 4096/341; lp={sol.value:.8f} "
                    f"({sol.problem.n_vars} vars, {sol.problem.n_rows} rows)")


def test_check_06_planar_density_squeeze():
    with scored("06 planar squeeze at exactly 3") as s:
        H = [(0, 0), (0, 1), (1, 0)]
        pts = {(a[0] - b[0], a[1] - b[1]) for a in H for b in H}
        dom = tl.lattice_domain(2, pts)
        lam = tl.periodic_set(2, ((1, 1), (2, -1)), [(0, 0)])
        good, _ = tl.check_packing_periodic(dom, lam)
        bound = tl.density_bound_zd(dom, lam)
        wit = tl.witness_zd(H, dom)
        s.ok = (good and lam.density == Fraction(1, 3) and bound.value == 3
                and wit.as_float() == float(bound.value))
        s.detail = (f"density={lam.density} bound={bound.value} "
                    f"witness={wit.as_float():g}")


def test_check_07_interval_brackets():
    with scored("07 punctured interval brackets") as s:
        narrow = tl.punctured_interval(Fraction(3, 2), 1)
        cert = tl.lattice_certificate(narrow, 1)
        tents = [tl.witness_in_domain(tl.tent_train(1 - eps, [0]),
                                      narrow).value
                 for eps in (Fraction(1, 10), Fraction(1, 100))]
        wide = tl.punctured_interval(3, 1)
        train = tl.witness_in_domain(tl.tent_train(1, [0, 2]), wide)
        s.ok = (cert.value == 1
                and tents == [Fraction(9, 10), Fraction(99, 100)]
                and train.value == 2)
        s.detail = (f"upper={cert.value}; tents {tents[0]} and {tents[1]}; "
                    f"wide lower={train.value} > 1")


def test_check_08_interval_reductions():
    with scored("08 interval constants N + 1") as s:
        worst = 0.0
        for N in range(1, 7):
            dom = tl.interval_domain(N)
            v = tl.upper_bound_z(dom, Ms=[10 * (N + 1)]).as_float()
            wit = tl.witness_zd([(k,) for k in range(N + 1)], dom)
            worst = max(worst, abs(v - (N + 1)),
                        abs(wit.as_float() - (N + 1)))
        s.ok = worst <= 1e-6
        s.detail = f"max deviation from N + 1: {worst:.2e} for N = 1..6"


def test_check_09_property_suites():
    with scored("09 randomized invariant suites") as s:
        done = 0
        for _, suite in ALL_SUITES:
            run_suite(suite, cases=1000)
            done += 1
        s.ok = done == len(ALL_SUITES)
        s.detail = f"{done} suites x 1000 cases"


def test_check_10_greedy_floor():
    with scored("10 greedy window floor") as s:
        rng = random.Random(912_024)
        t0 = time.perf_counter()
        finished = 0
        for _ in range(20):
            pos = rng.sample(range(1, 51), rng.randrange(2, 5))
            dom = tl.lattice_domain(1, [(0,)] + [(a,) for a in pos]
                                    + [(-a,) for a in pos])
            run = tl.greedy_packing_window(dom, 5000)
            assert run.achieved >= run.floor
            assert run.window_size == 10_001
            # independent pairwise re-check of the selected points
            pts = sorted(run.selected)
            reach = max(pos)
            banned = set(pos)
            for i, p in enumerate(pts):
                j = i + 1
                while j < len(pts) and pts[j][0] - p[0] <= reach:
                    assert pts[j][0] - p[0] not in banned
                    j += 1
            finished += 1
        elapsed = time.perf_counter() - t0
        s.ok = finished == 20 and elapsed < 30.0
        s.detail = (f"20 domains, window 10001, every floor met "
                    f"in {elapsed:.2f}s")
