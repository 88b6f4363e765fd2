"""The paper's worked examples: the instances that the demos and the
``verify-paper`` checks share, and those checks, each registered once in
``CHECKS`` as ``(name, expected, check)`` in report order. A check returns
its computed values as text and whether they pass. Solver functions are
called through their modules: ``bench/layers.py`` wraps a function where a
module binds it.
"""
from __future__ import annotations

import math
from fractions import Fraction

from . import lattice, packing, real_line, spectral, turan_lp
from .bounds import _decimal, best_lower
from .config import SearchBudget
from .groups import (difference_set, make_group, subgroup_generated,
                     symmetric_domain)
from .harmonic import autocorrelation, indicator

CHECKS = []

# Example 4.1: ORDER8_TILE tiles Z_8 along ORDER8_PACKING
ORDER8_TILE = [0, 1, 4, 5]
ORDER8_PACKING = [0, 2]

# Theorem 4.3: constant 1 on (-3/2, 3/2) minus +-1, more on (-3, 3) minus +-1
NARROW_INTERVAL = real_line.punctured_interval(Fraction(3, 2), 1)
WIDE_INTERVAL = real_line.punctured_interval(3, 1)


def order8():
    """Example 4.1: Z_8 and its symmetric domain {0, 1, 3, 4, 5, 7}."""
    G = make_group([8])
    return G, symmetric_domain(G, [0, 1, 3, 4, 5, 7])


def hypercube():
    """Tao's instance: Z_2^12, its unit vectors H and the domain H - H."""
    G = make_group([2] * 12)
    H = [tuple(1 if j == i else 0 for j in range(12)) for i in range(12)]
    return G, H, difference_set(G, H)


def omega_closed_form(n: int) -> float:
    """The constant of {0, +-1, +-2n} on the integers (Example 4.2)."""
    return 1 + 1 / math.cos(math.pi / (2 * n + 1))


def _check(name: str, expected: str):
    def register(fn):
        CHECKS.append((name, expected, fn))
        return fn
    return register


@_check("ex4.1", "lp = packing = tiling = witness = 4")
def _order8_squeeze():
    G, dom = order8()
    sol = turan_lp.turan_constant(G, dom)
    pk = packing.packing_bound(G, dom, ORDER8_PACKING)
    tl = packing.tiling_bound(G, dom, ORDER8_TILE, ORDER8_PACKING)
    wit = turan_lp.witness_ratio(autocorrelation(indicator(G, ORDER8_TILE)),
                                 dom)
    vals = [sol.value, float(pk.value), float(tl.value), wit.as_float()]
    ok = sol.status == "optimal" and all(abs(v - 4) <= 1e-6 for v in vals)
    return ("lp={} packing={} tiling={} witness={}".format(
        *map(_decimal, vals)), ok)


@_check("ex4.2-odd", "2 for N = 3, 5, 7")
def _odd_sparse():
    vals = [lattice.upper_bound_z(lattice.omega_N_domain(N), Ms=[2 * N + 2])
            .as_float() for N in (3, 5, 7)]
    ok = all(abs(v - 2) <= 1e-6 for v in vals)
    return " ".join(map(_decimal, vals)), ok


@_check("ex4.2-even", "1 + 1/cos(pi/(2n+1)) for n = 1, 2, 3; witness feasible")
def _even_sparse():
    ok = True
    parts = []
    for n in (1, 2, 3):
        closed = omega_closed_form(n)
        v = lattice.upper_bound_z(lattice.omega_N_domain(2 * n),
                                  Ms=[2 * (2 * n + 1)]).as_float()
        w = lattice.explicit_witness_omega_N(n)
        ok = ok and abs(v - closed) <= 1e-6 \
            and abs(w.total - w.closed_form) <= 1e-9 and w.grid_min >= -1e-9
        parts.append(f"{_decimal(v)} vs {_decimal(closed)}")
    return "; ".join(parts), ok


@_check("ex4.2-Lstar", "density n/(2n+1); bound 2 + 1/n above the exact "
        "value, strictly for n >= 2")
def _sparse_packing():
    ok = True
    parts = []
    for n in (1, 2, 3, 4):
        lam = lattice.omega_N_packing(n)
        dom = lattice.omega_N_domain(2 * n)
        good, _ = lattice.check_packing_periodic(dom, lam)
        bound = lattice.density_bound_zd(dom, lam)
        closed = omega_closed_form(n)
        ok = ok and good and lam.density == Fraction(n, 2 * n + 1) \
            and bound.value == Fraction(2 * n + 1, n) \
            and bound.as_float() - closed >= (1e-3 if n >= 2 else -1e-9)
        parts.append(f"n={n}: {bound.value} >= {_decimal(closed)}")
    return "; ".join(parts), ok


@_check("ex4.4", "lp = subgroup = quotient = packing = witness = 2")
def _order10_squeeze():
    G = make_group([10])
    dom = symmetric_domain(G, [0, 1, 3, 5, 7, 9])
    sol = turan_lp.turan_constant(G, dom)
    K = subgroup_generated(G, [2])
    sub = turan_lp.subgroup_bound(G, dom, K)
    quo = turan_lp.quotient_bound(G, dom, K)
    pk = packing.packing_bound(G, dom, [0, 2, 4, 6, 8])
    wit = turan_lp.witness_ratio(autocorrelation(indicator(G, [0, 5])), dom)
    vals = [sol.value, sub.as_float(), quo.as_float(), float(pk.value),
            wit.as_float()]
    return ("lp={} subgroup={} quotient={} packing={} witness={}".format(
        *map(_decimal, vals)), all(abs(v - 2) <= 1e-6 for v in vals))


@_check("ex4.5", "density bound 3 = witness 3")
def _planar_squeeze():
    H = [(0, 0), (0, 1), (1, 0)]
    dom = lattice.lattice_domain(2, {(a[0] - b[0], a[1] - b[1])
                                     for a in H for b in H})
    lam = lattice.periodic_set(2, ((1, 1), (2, -1)), [(0, 0)])
    good, _ = lattice.check_packing_periodic(dom, lam)
    bound = lattice.density_bound_zd(dom, lam)
    wit = lattice.witness_zd(H, dom)
    ok = good and lam.density == Fraction(1, 3) and bound.value == 3 \
        and abs(wit.as_float() - 3) <= 1e-9
    return f"bound={bound.value} witness={_decimal(wit.value)}", ok


@_check("thm4.3-certificate", "upper 1; tents reach 9/10 and 99/100")
def _narrow_bracket():
    cert = real_line.lattice_certificate(NARROW_INTERVAL, 1)
    lows = [real_line.witness_in_domain(real_line.tent_train(1 - eps, [0]),
                                        NARROW_INTERVAL).value
            for eps in (Fraction(1, 10), Fraction(1, 100))]
    ok = cert.value == 1 and lows == [Fraction(9, 10), Fraction(99, 100)]
    return f"upper={cert.value}; tents {lows[0]}, {lows[1]}", ok


@_check("thm4.3-sharpness", "tent train certifies 2 > b = 1")
def _wide_tents():
    low = real_line.witness_in_domain(real_line.tent_train(1, [0, 2]),
                                      WIDE_INTERVAL)
    return f"lower={low.value}", low.value == 2


@_check("tao-z2-12-spectrum", "found |T|=12")
def _hypercube_spectrum():
    G, H, _ = hypercube()
    cand = spectral.find_spectrum(G, H).candidate
    ok = cand is not None and cand.verified and len(cand.T) == 12
    return "none found" if cand is None else f"found |T|={len(cand.T)}", ok


@_check("tao-z2-12-comparison",
        "spectral 12 beats packing >= 4096/341; lp <= 12 + 1e-6")
def _hypercube_comparison():
    G, H, dom = hypercube()
    # a proof of maximality is not needed here, any found packing will do
    reports = spectral.compare_bounds(G, dom, {"H": [H]},
                                      budget=SearchBudget(node_limit=1_000))
    spect = [r for r in reports if r.method == "spectral"]
    pack = [r for r in reports if r.method == "packing"]
    lp = [r for r in reports if r.method == "lp"]
    low = best_lower(reports)
    ok = bool(spect) and abs(spect[0].as_float() - 12) <= 1e-9 and pack \
        and all(len(p.certificate["Lambda"]) <= 341 for p in pack) \
        and lp and lp[0].as_float() <= 12 + 1e-6 \
        and low is not None and low.as_float() >= 12 - 1e-6
    return "spectral={} packing={} lp={} lower={}".format(
        _decimal(spect[0].value) if spect else "-",
        _decimal(min(p.as_float() for p in pack)) if pack else "-",
        _decimal(lp[0].value) if lp else "-",
        _decimal(low.value) if low else "-"), ok


@_check("fejer-interval", "N + 1 for N = 1..6")
def _fejer_interval():
    ok = True
    parts = []
    for N in range(1, 7):
        dom, M = lattice.interval_domain(N), 10 * (N + 1)
        v = lattice.upper_bound_z(dom, Ms=[M]).as_float()
        Gm, Om = lattice.torus_reduction(dom, M)
        wit = turan_lp.witness_ratio(autocorrelation(
            indicator(Gm, list(range(N + 1)))), Om)
        ok = ok and abs(v - (N + 1)) <= 1e-6 \
            and abs(wit.as_float() - (N + 1)) <= 1e-9
        parts.append(_decimal(v))
    return " ".join(parts), ok


@_check("product-rule", "T(domain1 x domain2) = T1 * T2")
def _product_rule():
    g1, d1 = order8()
    g2 = make_group([4])
    d2 = symmetric_domain(g2, [0, 1, 3])
    s1 = turan_lp.turan_constant(g1, d1)
    s2 = turan_lp.turan_constant(g2, d2)
    sp = turan_lp.product_constant(g1, d1, g2, d2)
    return (f"{_decimal(sp.value)} vs {_decimal(s1.value * s2.value)}",
            abs(sp.value - s1.value * s2.value) <= 1e-6)


@_check("automorphism-invariance", "LP value preserved under x -> 5x on Z_12")
def _automorphism_invariance():
    G = make_group([12])
    dom = symmetric_domain(G, [0, 1, 3, 9, 11])
    base = turan_lp.turan_constant(G, dom)
    img = turan_lp.automorphism_image_constant(G, dom, [5])
    return (f"{_decimal(base.value)} vs {_decimal(img.value)}",
            abs(base.value - img.value) <= 1e-9)
