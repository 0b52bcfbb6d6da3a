"""Exact linear algebra over the rationals (Fraction matrices).

Used for linear matroid construction, arrangement essentiality, circuit
dependency coefficients and small exact solves.  Everything is dense and
small; exactness, not speed, is the point here.
"""

from fractions import Fraction
from math import gcd, lcm

from ._kernel import rank_int


def _clear_rows(rows):
    """Scale each row by its denominator lcm so integer-kernel rank applies."""
    out = []
    for row in rows:
        den = lcm(*(Fraction(v).denominator for v in row))
        out.append([int(Fraction(v) * den) for v in row])
    return out


def rank_rational(rows):
    """Rank of a matrix given as rows of rationals (Fraction/int)."""
    if not rows or not rows[0]:
        return 0
    return rank_int(_clear_rows(rows))


def column_rank(cols):
    """Rank of a collection of column vectors."""
    if not cols:
        return 0
    rows = [[col[i] for col in cols] for i in range(len(cols[0]))]
    return rank_rational(rows)


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
