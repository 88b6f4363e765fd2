#!/usr/bin/env python3
"""Bound integer-lattice constants for the sparse domains {0, +-1, +-N}.

The answer splits by parity. For odd N the constant is 2, and torus
reductions at any admissible even modulus already return it. For
N = 2n the constant is 1 + 1/cos(pi/(2n+1)), reproduced here three
ways: by the torus LP, by an explicit nonnegative cosine polynomial,
and (as an upper bound only) by a periodic packing set of density
n/(2n+1). The packing route ties the true value at n = 1 and is
strictly worse for every larger n, which is why the LP matters.
"""

from turanlab import (
    check_packing_periodic, density_bound_zd, explicit_witness_omega_N,
    omega_N_domain, omega_N_packing, upper_bound_z,
)
from turanlab.examples import omega_closed_form


def main() -> None:
    print("odd N: the constant is 2 at every admissible even modulus")
    for N in (3, 5, 7):
        vals = [upper_bound_z(omega_N_domain(N), Ms=[M]).as_float()
                for M in (2 * N + 2, 2 * N + 4, 60)]
        print(f"  N={N}: " + "  ".join(f"{v:.9f}" for v in vals))

    print("\neven N = 2n: torus LP vs the closed form 1 + 1/cos(pi/(2n+1))")
    for n in (1, 2, 3):
        closed = omega_closed_form(n)
        v = upper_bound_z(omega_N_domain(2 * n),
                          Ms=[2 * (2 * n + 1)]).as_float()
        w = explicit_witness_omega_N(n)
        print(f"  n={n}: lp {v:.9f}  closed {closed:.9f}  "
              f"witness total {w.total:.9f} (grid min {w.grid_min:+.1e}, "
              f"binding value {w.binding_value:+.1e})")

    print("\nperiodic packing upper bound 2 + 1/n against the same limit")
    for n in range(1, 5):
        dom = omega_N_domain(2 * n)
        lam = omega_N_packing(n)
        good, _ = check_packing_periodic(dom, lam)
        bound = density_bound_zd(dom, lam)
        closed = omega_closed_form(n)
        margin = float(bound.value) - closed
        note = "ties the limit" if margin < 1e-9 else "strictly worse"
        print(f"  n={n}: packing ok={good} density={lam.density} "
              f"bound={bound.value} margin={margin:+.3e}  ({note})")


if __name__ == "__main__":
    main()
