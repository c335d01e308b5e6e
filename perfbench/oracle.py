"""Closed forms for the benchmark's checks, written apart from dfw.

A finite sum of cyclic groups is a list of orders: 0 stands for Z, n >= 2
for Z/n, and 1 for the trivial group.  The functor values below follow from
additivity and the cross-effect formulas on such sums; the results are
reduced to invariant factors by primary decomposition and printed in the
same text form as ``dfw eval``.  Integer relation matrices (small ones) are
reduced by determinantal divisors: the k-th divisor is the gcd of all k x k
minors, and the invariant factors are their successive quotients.

Nothing here imports dfw or sympy.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import Dict, List, Sequence, Tuple

Form = Tuple[int, Tuple[int, ...]]  # (free rank, invariant factors d1 | d2 | ...)


def _prime_powers(n: int) -> Dict[int, int]:
    out: Dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 1) * p
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 1) * n
    return out


def normal_form(orders: Sequence[int]) -> Form:
    """Free rank and invariant factors of the sum of cyclic groups."""
    free = sum(1 for n in orders if n == 0)
    by_prime: Dict[int, List[int]] = {}
    for n in orders:
        if n >= 2:
            for p, q in _prime_powers(n).items():
                by_prime.setdefault(p, []).append(q)
    length = max((len(qs) for qs in by_prime.values()), default=0)
    factors = [1] * length
    for qs in by_prime.values():
        qs.sort(reverse=True)
        for i, q in enumerate(qs):
            factors[length - 1 - i] *= q
    return free, tuple(factors)


def render(form: Form) -> str:
    free, torsion = form
    parts = [] if free == 0 else ["Z" if free == 1 else f"Z^{free}"]
    parts.extend(f"Z/{d}" for d in torsion)
    return " + ".join(parts) or "0"


def tor(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Tor of two sums of cyclics: Tor(Z/m, Z/n) = Z/gcd(m, n), Tor(Z, .) = 0."""
    return [gcd(x, y) for x in a for y in b if x and y]


def exterior2(a: Sequence[int]) -> List[int]:
    """Lambda^2 of a sum of cyclics: the pairwise tensor products.  With 0
    for Z, C_a (x) C_b has order gcd(a, b): Z (x) Z = Z, Z (x) Z/n = Z/n."""
    return [gcd(x, y) for x, y in itertools.combinations(a, 2)]


def sym(n: int, a: Sequence[int]) -> List[int]:
    """SP^n of a sum of cyclics: one summand per distribution of the degree,
    the tensor product of SP^k(C) = C (k >= 1) over the summands used (the
    empty product is Z, order 0)."""
    out = []
    for split in itertools.product(range(n + 1), repeat=len(a)):
        if sum(split) == n:
            order = 0
            for k, x in zip(split, a):
                if k:
                    order = gcd(order, x)
            out.append(order)
    return out


def l1_sp2(a: Sequence[int]) -> List[int]:
    """L1SP^2 of a sum of cyclics: the cross-effect Tor(C_i, C_j), i < j;
    L1SP^2 of one cyclic group is 0."""
    return [gcd(x, y) for x, y in itertools.combinations(a, 2) if x and y]


def _det(m: List[List[int]]) -> int:
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j, v in enumerate(m[0]):
        if v:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * v * _det(minor)
    return total


def relation_orders(rows: Sequence[Sequence[int]], ncols: int) -> List[int]:
    """Cyclic orders of Z^len(rows) modulo the column span of the matrix."""
    nrows = len(rows)
    divisors = [1]
    for k in range(1, min(nrows, ncols) + 1):
        d = 0
        for ri in itertools.combinations(range(nrows), k):
            for ci in itertools.combinations(range(ncols), k):
                d = gcd(d, _det([[rows[i][j] for j in ci] for i in ri]))
        if d == 0:
            break
        divisors.append(d)
    factors = [divisors[k] // divisors[k - 1] for k in range(1, len(divisors))]
    return [f for f in factors if f > 1] + [0] * (nrows - len(factors))
