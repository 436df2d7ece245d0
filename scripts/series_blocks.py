#!/usr/bin/env python3
"""Show how the g^2 coefficient stabilizes as correction blocks accumulate.

Each block adds the contributions with c powers of the kernel correction;
blocks decay geometrically, so the running total settles well before the
truncation depth. Near q = 1 the total approaches the classical value 5/24.
"""

import argparse
from fractions import Fraction

from qfj.fseries import fj_blocks
from qfj.qcore import QParam

CLASSICAL = 5.0 / 24.0


def show(qv: Fraction, order: int, max_c: int):
    q = QParam(qv)
    blocks = fj_blocks(order, q, max_c)
    print(f"g^{order} blocks at q = {qv}")
    print(f"{'c':>3}  {'block':>14}  {'running total':>16}")
    total = 0.0
    for c, block in enumerate(blocks):
        total += float(block)
        print(f"{c:>3}  {float(block):>14.6e}  {total:>16.12f}")
    print(f"classical limit of the g^2 coefficient: {CLASSICAL:.12f}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=2,
                        help="even series order to decompose (default 2)")
    parser.add_argument("--max-c", type=int, default=14, dest="max_c",
                        help="largest correction depth (default 14)")
    args = parser.parse_args()
    if args.order % 2:
        parser.error("odd orders vanish; pick an even order")

    for qv in (Fraction(1, 2), Fraction(999, 1000)):
        show(qv, args.order, args.max_c)


if __name__ == "__main__":
    main()
