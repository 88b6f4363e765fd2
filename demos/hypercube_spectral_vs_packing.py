#!/usr/bin/env python3
"""A domain where the spectral certificate beats every packing bound.

On G = Z_2^12 take H = {e_1, ..., e_12} and the domain Omega = H - H:
the zero vector plus the 66 vectors e_i + e_j of Hamming weight 2, 67
elements. A packing set for Omega has no two points at Hamming distance
2, so the translates H + lambda are disjoint and
|Lambda| <= |G| / |H| = 4096/12, at most 341 points: packing bounds
never drop below 4096/341 = 12.012. A 12-element spectrum for H
certifies the sharper upper bound 12, and the LP confirms it is the
exact answer. The coordinate swaps fix Omega, so the LP has one
variable (the weight-2 orbit) and 13 rows (one per character weight).
"""

import time
from fractions import Fraction

from turanlab import (
    SearchBudget, find_spectrum, max_packing_set, packing_bound,
    spectral_bound, turan_constant,
)
from turanlab.examples import hypercube


def main() -> None:
    G, H, dom = hypercube()
    print(f"group Z_2^12 (order {G.order}), |domain| = {dom.size}")

    t0 = time.perf_counter()
    search = find_spectrum(G, H)
    cand = search.candidate
    print(f"\nspectrum search: {search.nodes} nodes, "
          f"{time.perf_counter() - t0:.3f}s")
    print(f"  found |T| = {len(cand.T)}, verified = {cand.verified}")
    spect = spectral_bound(G, dom, cand.H, cand.T)
    print(f"  spectral upper bound = {spect.as_float():g}")

    lam = max_packing_set(G, dom, SearchBudget(node_limit=1_000))
    pack = packing_bound(G, dom, lam.elements)
    print(f"\npacking search ({lam.maximality}): |Lambda| = {lam.size}")
    print(f"  packing upper bound = {pack.value} = {float(pack.value):g}")
    print(f"  best conceivable packing bound >= 4096/341 "
          f"= {float(Fraction(4096, 341)):.6f} > 12")

    t0 = time.perf_counter()
    sol = turan_constant(G, dom)
    print(f"\nlp on the full group: {sol.value:.9f} "
          f"(orbits: {sol.problem.n_vars} variable, "
          f"{sol.problem.n_rows} rows; {time.perf_counter() - t0:.3f}s)")
    print("the spectral certificate is optimal; no packing can match it")


if __name__ == "__main__":
    main()
