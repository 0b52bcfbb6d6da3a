"""Exact linear algebra over the rationals, eliminated over the integers.

Each rational vector is scaled once to coprime integers
(integer_primitive), which keeps its span; its entries are
numbers.Rational (int or Fraction), scaled through their numerators and
denominators with no Fraction built per entry.  All elimination is the one
fraction-free step _kernel.echelon_residue.  column_rank folds column
vectors through it as the rows of _kernel.rank_int and serves
arrangement essentiality.  column_relations folds the columns of a
matrix with unit coordinates appended: a residue that vanishes on the
matrix part is an integer relation among the columns.  nullspace returns
these relations, and detect_product reads a column basis and coordinates
off them.  No elimination runs over Fraction: Fraction appears only in
parsed input and in the coordinates of product factors.  Everything is
dense and small.
"""

from math import gcd, lcm

from ._kernel import echelon_residue, rank_int


def column_rank(cols):
    """Rank of a collection of rational column vectors.

    Scaling a column to coprime integers keeps the rank, and the rank of
    the columns taken as rows is their column rank.
    """
    return rank_int([integer_primitive(col) for col in cols])


def column_relations(rows):
    """(kept, relations) of the columns of a rational matrix, folded left to right.

    The rows are scaled to integers, which keeps every column relation.
    Column j, with the unit vector e_j appended, is reduced against the
    rows of the columns kept before it.  A residue nonzero on the matrix
    part keeps column j: kept lists the greedy basis of the column span.
    Otherwise the appended part of the residue is a primitive integer
    vector a with sum_b a_b col_b = 0, nonzero at j and zero outside j and
    the kept columns before it.  relations maps each other column j to its
    a; they form a basis of the right kernel, and -a_b / a_j over the kept
    b are the coordinates of column j in the greedy basis.
    """
    m = [integer_primitive(row) for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    kept = []
    relations = {}
    basis = []
    for j in range(nc):
        unit = [0] * nc
        unit[j] = 1
        lead, residue = echelon_residue([row[j] for row in m] + unit, basis)
        if lead < nr:
            kept.append(j)
            basis.append((lead, residue))
        else:
            relations[j] = residue[nr:]
    return kept, relations


def nullspace(rows):
    """Basis of the right kernel of a rational matrix, as integer column vectors.

    These are the column relations, one per column outside the greedy
    basis, in column order.
    """
    return list(column_relations(rows)[1].values())


def integer_primitive(vec):
    """Scale a rational vector to coprime integers with positive first nonzero entry.

    The entries are numbers.Rational (int or Fraction): their numerators
    are scaled by the lcm of their denominators, and no Fraction is built.
    """
    den = lcm(*(v.denominator for v in vec))
    ints = [v.numerator * (den // v.denominator) for v in vec]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v:
            if v < 0:
                ints = [-w for w in ints]
            break
    return ints
