#!/usr/bin/env python3
"""Bracket real-line constants for punctured intervals with exact rationals.

The domain is (-a, a) with the two points +-b removed. For a < 2b the
lattice bZ certifies the upper bound b, while single tents of height
b - eps approach it from below, so the constant is exactly b there.
Widening to a = 3, b = 1 breaks that ceiling: a train of two unit
tents centered at 0 and 2 is still supported inside the domain and
certifies a lower bound of 2 > b. All arithmetic is exact.
"""

from fractions import Fraction

from turanlab import (
    halving_bound, lattice_certificate, tent_train, witness_in_domain,
)
from turanlab.examples import NARROW_INTERVAL, WIDE_INTERVAL


def main() -> None:
    narrow = NARROW_INTERVAL
    print(f"narrow domain (-3/2, 3/2) minus {{+-1}}, "
          f"measure {narrow.measure}")
    cert = lattice_certificate(narrow, 1)
    print(f"  lattice certificate at c=1: upper bound {cert.value}")
    for eps in (Fraction(1, 10), Fraction(1, 100)):
        train = tent_train(1 - eps, [0])
        low = witness_in_domain(train, narrow)
        print(f"  tent of width {1 - eps}: lower bound {low.value}")
    print("  the bracket closes onto b = 1")

    wide = WIDE_INTERVAL
    print(f"\nwide domain (-3, 3) minus {{+-1}}, measure {wide.measure}")
    print(f"  halving bound: upper {halving_bound(wide).value}")
    train = tent_train(1, [0, 2])
    print(f"  tent train c=1, D={{0, 2}}: f(0) = {train.f0}, "
          f"integral = {train.integral}")
    for lo, hi in train.support.pieces:
        print(f"    supported on ({lo}, {hi})")
    low = witness_in_domain(train, wide)
    print(f"  lower bound {low.value} > 1: removing two points no longer "
          "pins the constant")
    print(f"  transform at 0 equals the integral: "
          f"{train.transform_value(0.0):.6f}")


if __name__ == "__main__":
    main()
