"""Exact linear algebra over the rationals, eliminated over the integers.

Each rational vector is scaled once to coprime integers
(integer_primitive), which keeps its span.  Ranks go through the
fraction-free kernel _kernel.rank_int: linear_matroid ranks its whole
matrix that way, and column_rank serves arrangement essentiality.
echelon_residue reduces one vector against rows in echelon form, which
is how linear_matroid grows a basis along its independent-set walk.
echelon is the one full reduced form, an integer Gauss-Jordan elimination
whose every division is exact (Bareiss); nullspace reads integer kernel
vectors off it, and detect_product reads a column basis and coordinates.
No elimination runs over Fraction: Fraction appears only in parsed input
and in the coordinates of product factors.  Everything is dense and small.
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


def echelon(rows):
    """Integer reduced row echelon form of a rational matrix: (matrix, pivot columns, d).

    The rows are scaled to integers, then each Gauss-Jordan step
    multiplies by the new pivot and divides exactly by the previous one,
    so entries stay minors of the scaled matrix.  Every pivot ends equal
    to d, and matrix / d is the reduced row echelon form over the
    rationals.
    """
    m = [integer_primitive(row) for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    d = 1
    for pc in range(nc):
        r = len(pivots)
        piv = next((i for i in range(r, nr) if m[i][pc]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][pc]
        for i in range(nr):
            if i != r:
                f = m[i][pc]
                m[i] = [(p * a - f * b) // d for a, b in zip(m[i], m[r])]
        d = p
        pivots.append(pc)
    return m, pivots, d


def echelon_residue(col, basis):
    """(pivot, row) of col reduced against echelon rows (pivot, row), or None if it is in their span.

    Each step is fraction-free, and the residue is divided by its gcd.
    """
    for p, row in basis:
        if col[p]:
            f, g = row[p], col[p]
            col = [f * a - g * b for a, b in zip(col, row)]
    g = gcd(*col)
    if not g:
        return None
    col = [a // g for a in col]
    return next(i for i, a in enumerate(col) if a), col


def nullspace(rows):
    """Basis of the right kernel of a rational matrix, as integer column vectors.

    The vector of a free column has d there and minus that column of the
    reduced matrix at the pivot columns.
    """
    if not rows:
        return []
    m, pivots, d = echelon(rows)
    basis = []
    for fc in range(len(m[0])):
        if fc in pivots:
            continue
        vec = [0] * len(m[0])
        vec[fc] = d
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        basis.append(vec)
    return basis


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
