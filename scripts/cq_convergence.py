#!/usr/bin/env python3
"""Tabulate the normalization constant c(q) against sqrt(2*pi) as q -> 1.

The gap closes roughly linearly in 1-q, while the number of series terms
needed grows like 1/(1-q); budgets below are sized accordingly.
"""

import argparse
from fractions import Fraction

from qfj.qcalc import TruncationPolicy
from qfj.qcore import QParam
from qfj.qgauss import SQRT_TWO_PI, c_of_q

GRID = [
    (Fraction(1, 2), 512),
    (Fraction(3, 4), 512),
    (Fraction(9, 10), 512),
    (Fraction(95, 100), 512),
    (Fraction(99, 100), 512),
    (Fraction(995, 1000), 1024),
    (Fraction(999, 1000), 2048),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--extreme", action="store_true",
                        help="append q = 0.9999 (needs ~8600 terms, about 0.7 s on 2 CPUs)")
    args = parser.parse_args()

    grid = list(GRID)
    if args.extreme:
        grid.append((Fraction(9999, 10000), 16384))

    print(f"{'q':>10}  {'max_terms':>9}  {'terms':>6}  {'c(q)':>20}  {'|c - sqrt(2pi)|':>16}")
    for qv, budget in grid:
        result = c_of_q(QParam(qv), TruncationPolicy(max_terms=budget))
        gap = abs(result.float_value - SQRT_TWO_PI)
        print(f"{str(qv):>10}  {budget:>9}  {result.terms_used:>6}  "
              f"{result.float_value:>20.15f}  {gap:>16.3e}")
    print(f"{'limit':>10}  {'':>9}  {'':>6}  {SQRT_TWO_PI:>20.15f}")


if __name__ == "__main__":
    main()
