#!/usr/bin/env python3
"""Self-check of the benchmark's closed-form oracle on values the dfw README
prints.  Imports neither dfw nor sympy; exits 1 on a mismatch.

    python3 perfbench/oracle_selfcheck.py
"""

import sys

from oracle import exterior2, l1_sp2, normal_form, relation_orders, render, sym, tor

CASES = [
    ("Tor(Z/4, Z/6)", render(normal_form(tor([4], [6]))), "Z/2"),
    ("L1SP^2(Z/2 + Z/4)", render(normal_form(l1_sp2([2, 4]))), "Z/2"),
    ("SP^3(Z/2 + Z)", render(normal_form(sym(3, [2, 0]))), "Z + Z/2 + Z/2 + Z/2"),
    # README library example: Tor(p, p) for Z/2 + Z/4
    ("Tor(Z/2 + Z/4, Z/2 + Z/4)", render(normal_form(tor([2, 4], [2, 4]))), "Z/2 + Z/2 + Z/2 + Z/4"),
    # README --relations example: rows "2 0" and "0 4"
    ("relations [[2, 0], [0, 4]]", render(normal_form(relation_orders([[2, 0], [0, 4]], 2))), "Z/2 + Z/4"),
    # primary decomposition: Z/4 + Z/6 = Z/2 + Z/12
    ("Z/4 + Z/6", render(normal_form([4, 6])), "Z/2 + Z/12"),
    ("Lambda^2(Z + Z/6 + Z/4)", render(normal_form(exterior2([0, 6, 4]))), "Z/2 + Z/2 + Z/12"),
    ("relations of Z^2 + Z/3 on two relators", render(normal_form(relation_orders([[1, 2], [0, 3], [0, 0], [0, 0]], 2))), "Z^2 + Z/3"),
]


def main() -> int:
    bad = 0
    for name, got, want in CASES:
        ok = got == want
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name} = {got}" + ("" if ok else f" (want {want})"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
