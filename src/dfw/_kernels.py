"""The integer-matrix kernels, in plain Python.

These routines are the hot loops of the whole package: everything
upstream (canonical forms, kernels of homomorphisms, homology) reduces to
them.  Callers reach them as attributes of this module
(``_k.hermite_cols``), so tools that rebind them, such as a tracer, see
every call.

mat_mul and hermite_cols take their inputs as flat column-major
sequences of Python ints, the storage of dfw.linalg.IntMatrix (column j
of a rows x cols matrix is a[j * rows:(j + 1) * rows]), and return
matrices as lists of column lists.  eliminate_units and
local_valuations take sparse columns, dicts {row: entry}, the form in
which functors.FreeComplex stores a differential, and eliminate_units
returns its remainder in that form: linalg.local_torsion hands it as it
is to the local_valuations sweeps, whose entries stay below p^e, and
linalg.smith_diagonal_uncached lays it out dense for the Hermite
passes.  Smith forms are built in dfw.linalg from alternating
hermite_cols passes, so no kernel works on rows, and none keeps a
transform: dfw.linalg stacks an identity block under a matrix instead.
Arbitrary precision is non-negotiable: intermediate reduction entries
routinely outgrow 64 bits even for small inputs.

mat_mul and hermite_cols find nonzero entries with itertools.compress
over an index range and the matching slice, so the scan over the zeros runs in C and only
the nonzeros reach Python code.
"""

from itertools import compress

BACKEND = "pure"


def mat_mul(a, b, n, m, k):
    """Product of an n*m and an m*k matrix, both flat column-major;
    returns the k columns of the product."""
    # the nonzero entries of column t of a, listed when first needed
    a_nz = [None] * m
    n_range, m_range = range(n), range(m)
    out = []
    for j in range(k):
        col = [0] * n
        bj = b[j * m:(j + 1) * m]
        for t in compress(m_range, bj):
            w = bj[t]
            nz = a_nz[t]
            if nz is None:
                at = a[t * n:(t + 1) * n]
                nz = a_nz[t] = [(i, at[i]) for i in compress(n_range, at)]
            for i, v in nz:
                col[i] += v * w
        out.append(col)
    return out


def hermite_cols(a, rows, cols):
    """Column-style Hermite reduction.

    a is the flat column-major rows x cols input.  Returns
    (h, None, pivot_rows) where h is a list of columns, a @ V == H for a
    unimodular V, column j < len(pivot_rows) of H has its first nonzero
    entry (positive pivot) at row pivot_rows[j], entries to the left of a
    pivot in its row are reduced into [0, pivot), and all columns from
    len(pivot_rows) on are zero.  V is never built: dfw.linalg reads
    coordinates off the bottom block of a pass over [a span; I 0]
    (linalg.preimage_basis).  The None slot stays only because the trace
    hook of perfbench/spans.py unpacks three values.
    """
    h = [list(a[j * rows:(j + 1) * rows]) for j in range(cols)]
    pivot_rows = []
    piv = 0
    for row in range(rows):
        if piv == cols:
            break
        placed = False
        while True:
            # Bring the minimal absolute value at this row into position piv.
            j0 = -1
            best = -1
            for j in range(piv, cols):
                e = h[j][row]
                if e:
                    if e < 0:
                        e = -e
                    if best < 0 or e < best:
                        best = e
                        j0 = j
                        if best == 1:
                            break
            if j0 < 0:
                break
            if j0 != piv:
                h[piv], h[j0] = h[j0], h[piv]
            hp = h[piv]
            if hp[row] < 0:
                for i in range(row, rows):
                    hp[i] = -hp[i]
            p = hp[row]
            # Column operations touch only the nonzero entries of the pivot
            # column, which is sparse for the structured matrices of dfw.
            hnz = [(i, hp[i]) for i in compress(range(row, rows), hp[row:])]
            clean = True
            for j in range(piv + 1, cols):
                hj = h[j]
                e = hj[row]
                if e:
                    q = e // p
                    if q:
                        for i, x in hnz:
                            hj[i] -= q * x
                    if hj[row]:
                        clean = False
            if clean:
                placed = True
                break
        if placed:
            pivot_rows.append(row)
            piv += 1
            # Reduce entries left of the new pivot into [0, pivot); p and
            # hnz are those of the final, clean pass.
            for j in range(piv - 1):
                q = h[j][row] // p
                if q:
                    hj = h[j]
                    for i, x in hnz:
                        hj[i] -= q * x
    return h, None, pivot_rows


def _occupancy(col, rows):
    """For each of rows rows, the set of the indices of the dict columns
    col that hold an entry there."""
    occ = [set() for _ in range(rows)]
    for j, cj in enumerate(col):
        for i in cj:
            occ[i].add(j)
    return occ


def eliminate_units(columns, rows):
    """Sparse elimination of +-1 pivots (Dumas, Saunders and Villard,
    JSC 2001).

    columns are the columns of a rows x len(columns) matrix as dicts
    {row: entry}; zero entries may be present.  They are copied without
    their zeros and never modified.  The columns are swept in order of
    increasing nonzero count; in each, the +-1 entry whose row has the
    fewest nonzeros is the pivot (a Markowitz-style choice that limits
    fill-in).  Column operations clear the rest of the pivot row, after
    which the pivot row and column split off as a 1 x 1 block.

    Returns (k, rest, rest_rows): k pivots were split off and rest is
    the remainder as dict columns of its nonzero entries, rest_rows x
    len(rest): its empty columns are dropped, the others keep their
    order, and its zero rows are dropped and the others renumbered in
    order.  The nonzero Smith invariants of the matrix are k ones
    followed by those of rest, and its rank is k + rank(rest).
    """
    # the nonzero entries of each column, and for each row the set of
    # columns that are nonzero there
    col = [{i: x for i, x in c.items() if x} for c in columns]
    occ = _occupancy(col, rows)
    k = 0
    for j in sorted(range(len(col)), key=lambda j: len(col[j])):
        cj = col[j]
        pivot = -1
        fewest = 0
        for i, x in cj.items():
            if x == 1 or x == -1:
                n = len(occ[i])
                if pivot < 0 or n < fewest:
                    pivot, fewest = i, n
                    if n == 1:
                        break
        if pivot < 0:
            continue
        v = cj.pop(pivot)
        others = list(cj.items())
        for c in occ[pivot]:
            if c == j:
                continue
            cc = col[c]
            # column c -= (e / v) column j clears row pivot; 1 / v == v
            q = cc.pop(pivot) * v
            for i, x in others:
                y = cc.get(i)
                if y is None:
                    cc[i] = -q * x
                    occ[i].add(c)
                else:
                    y -= q * x
                    if y:
                        cc[i] = y
                    else:
                        del cc[i]
                        occ[i].discard(c)
        for i in cj:
            occ[i].discard(j)
        occ[pivot] = set()
        col[j] = {}
        k += 1
    live = [i for i in range(rows) if occ[i]]
    at = {i: n for n, i in enumerate(live)}
    return k, [{at[i]: x for i, x in cj.items()} for cj in col if cj], len(live)


def local_valuations(columns, rows, p, e):
    """p-valuations below e of the Smith invariants of the rows x
    len(columns) matrix with the dict columns {row: entry}, by
    elimination over Z/p^e with pivots of minimal valuation (Dumas,
    Saunders and Villard, JSC 2001).

    columns, such as the remainder of eliminate_units, are copied
    reduced mod p^e, without the entries that vanish, and never
    modified; p is a prime.  The sweep is that of eliminate_units with
    "unit" read as "entry prime to p": level t sweeps the columns in
    order of increasing nonzero count, the unit of the sparsest row in a
    column is its pivot, column operations clear the pivot row, and the
    pivot splits off as an invariant factor of valuation t.  A cleared
    column keeps every entry divisible by p if it had them, so after the
    sweep every entry is, and the whole is divided by p for level t + 1.
    Returns the valuations found, in increasing order: one for each
    invariant factor not divisible by p^e.  For e = 1 their number is
    the rank of the matrix mod p.
    """
    m = p ** e
    col = [{i: y for i, x in c.items() if (y := x % m)} for c in columns]
    occ = _occupancy(col, rows)
    live = {j for j, cj in enumerate(col) if cj}
    out = []
    t = 0
    while live and t < e:
        for j in sorted(live, key=lambda j: len(col[j])):
            cj = col[j]
            pivot = -1
            fewest = 0
            for i, x in cj.items():
                if x % p:
                    n = len(occ[i])
                    if pivot < 0 or n < fewest:
                        pivot, fewest = i, n
                        if n == 1:
                            break
            if pivot < 0:
                continue
            inv = pow(cj.pop(pivot), -1, m)
            others = list(cj.items())
            for c in occ[pivot]:
                if c == j:
                    continue
                cc = col[c]
                # column c -= f column j clears row pivot
                f = cc.pop(pivot) * inv % m
                for i, x in others:
                    y = (cc.get(i, 0) - f * x) % m
                    if y:
                        if i not in cc:
                            occ[i].add(c)
                        cc[i] = y
                    elif i in cc:
                        del cc[i]
                        occ[i].discard(c)
            for i in cj:
                occ[i].discard(j)
            occ[pivot] = set()
            col[j] = {}
            live.discard(j)
            out.append(t)
        m //= p
        t += 1
        for j in list(live):
            cj = col[j]
            if cj:
                for i in cj:
                    cj[i] //= p
            else:
                live.discard(j)
    return out
