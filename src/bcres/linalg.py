"""Exact linear algebra over the rationals.

Ranks go through the integer kernel: each column is scaled once to
coprime integers (integer_primitive), which keeps its span, and
_kernel.rank_int eliminates fraction-free.  linear_matroid ranks its
column subsets that way; column_rank serves arrangement essentiality and
column-space bases.  rref, nullspace and solve still work on Fraction
matrices, for circuit dependency coefficients and small exact solves.
Everything is dense and small.
"""

from fractions import Fraction
from math import gcd, lcm

from ._kernel import rank_int


def column_rank(cols):
    """Rank of a collection of rational column vectors.

    Scaling a column to coprime integers keeps the rank, and the rank of
    the columns taken as rows is their column rank.
    """
    return rank_int([integer_primitive(col) for col in cols])


def rref(rows):
    """Reduced row echelon form over the rationals; returns (matrix, pivot columns)."""
    m = [[Fraction(v) for v in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    pr = 0
    for pc in range(nc):
        piv = None
        for i in range(pr, nr):
            if m[i][pc]:
                piv = i
                break
        if piv is None:
            continue
        m[pr], m[piv] = m[piv], m[pr]
        pv = m[pr][pc]
        m[pr] = [v / pv for v in m[pr]]
        for i in range(nr):
            if i != pr and m[i][pc]:
                f = m[i][pc]
                m[i] = [a - f * b for a, b in zip(m[i], m[pr])]
        pivots.append(pc)
        pr += 1
        if pr == nr:
            break
    return m, pivots


def nullspace(rows):
    """Basis of the right kernel of a rational matrix, as Fraction column vectors."""
    if not rows:
        return []
    nc = len(rows[0])
    m, pivots = rref(rows)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * nc
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        basis.append(vec)
    return basis


def solve(rows, rhs):
    """One exact solution x of rows * x = rhs, or None if inconsistent."""
    if not rows:
        return [] if not any(rhs) else None
    nc = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    m, pivots = rref(aug)
    for r in range(len(m)):
        if all(v == 0 for v in m[r][:nc]) and m[r][nc] != 0:
            return None
    x = [Fraction(0)] * nc
    for r, pc in enumerate(pivots):
        if pc == nc:
            return None
        x[pc] = m[r][nc]
    return x


def integer_primitive(vec):
    """Scale a rational vector to coprime integers with positive first nonzero entry."""
    fracs = [Fraction(v) for v in vec]
    den = lcm(*(f.denominator for f in fracs))
    ints = [int(f * den) for f in fracs]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v:
            if v < 0:
                ints = [-w for w in ints]
            break
    return ints
