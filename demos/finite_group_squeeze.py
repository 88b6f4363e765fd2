#!/usr/bin/env python3
"""Pin a finite-group constant by squeezing it from four directions.

On Z_8 with the symmetric domain {0, 1, 3, 4, 5, 7} four independent
certificates meet at the same number:

  * the linear program itself (with a dual optimality certificate),
  * a packing set Lambda = {0, 2},
  * a tiling pair H = {0, 1, 4, 5}, Lambda = {0, 2},
  * the witness chi_H * chi_{-H}, a feasible function reaching 4.

Upper and lower bounds agree, so the constant is exactly 4 and every
certificate above is optimal.
"""

from turanlab import (
    autocorrelation, compare_bounds, indicator, packing_bound, tiling_bound,
    turan_constant, verify_dual_certificate, witness_ratio,
)
from turanlab.examples import ORDER8_PACKING, ORDER8_TILE, order8


def main() -> None:
    G, dom = order8()
    print(f"group Z_8, domain {dom.sorted_elements()}")

    sol = turan_constant(G, dom)
    print(f"\nlp value        {sol.value:.12f}  (status {sol.status}, "
          f"gap {sol.gap:.1e})")
    print(f"lp witness      {witness_ratio(sol.f, dom).as_float():.12f}  "
          "(the primal optimum is itself a feasible function)")
    dual = verify_dual_certificate(sol.problem, sol.dual)
    print(f"dual certifies  {dual:.12f}  (nonnegative row weights)")

    pack = packing_bound(G, dom, ORDER8_PACKING)
    print(f"\npacking bound   {pack.value}  via Lambda = {{0, 2}}: "
          "differences of Lambda avoid the domain, so |G|/|Lambda| caps "
          "the constant")

    tile = tiling_bound(G, dom, ORDER8_TILE, ORDER8_PACKING)
    print(f"tiling bound    {tile.value}  via H + Lambda = Z_8 exactly once "
          f"(tiles: {tile.certificate['tiles']})")

    wit = witness_ratio(autocorrelation(indicator(G, ORDER8_TILE)), dom)
    print(f"witness ratio   {wit.as_float():g}  from chi_H * chi_-H, "
          "positive definite by construction")

    print("\nranked comparison (winner first):")
    reports = compare_bounds(G, dom, {"H": [ORDER8_TILE],
                                      "Lambda": [ORDER8_PACKING]})
    for r in reports:
        star = "  <- minimum" if r.certificate.get("minimum") else ""
        print(f"  {r.direction:<6} {r.method:<12} {r.as_float():.9f}{star}")


if __name__ == "__main__":
    main()
