"""Integer elimination: column relations and nullspace against the Fraction route.

The oracle is the Fraction route the integer elimination replaced: a
reduced row echelon form over the rationals, the kernel read off it, and
one exact solution of a linear system.  test_hilbert and test_arrangements
import it as the reference for the routes built on it before.
"""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from bcres.linalg import column_rank, column_relations, integer_primitive, nullspace


# -- the Fraction route ----------------------------------------------------------


def fraction_rref(rows):
    """Reduced row echelon form over the rationals; returns (matrix, pivot columns)."""
    m = [[Fraction(v) for v in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    pr = 0
    for pc in range(nc):
        piv = next((i for i in range(pr, nr) if m[i][pc]), None)
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


def fraction_nullspace(rows):
    nc = len(rows[0])
    m, pivots = fraction_rref(rows)
    basis = []
    for fc in range(nc):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * nc
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        basis.append(vec)
    return basis


def fraction_integer_primitive(vec):
    """Coprime integers with positive first nonzero entry, scaled through Fraction."""
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


def fraction_solve(rows, rhs):
    """One exact solution x of rows * x = rhs, or None if inconsistent."""
    if not rows:
        return [] if not any(rhs) else None
    nc = len(rows[0])
    m, pivots = fraction_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if nc in pivots:
        return None
    x = [Fraction(0)] * nc
    for r, pc in enumerate(pivots):
        x[pc] = m[r][nc]
    return x


# -- integer route against it ------------------------------------------------------

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def rational_matrices(draw, max_rows=5, max_cols=6):
    nr = draw(st.integers(1, max_rows))
    nc = draw(st.integers(1, max_cols))
    # small entries and repeated rows make rank deficiency common
    pool = draw(st.lists(st.lists(rationals, min_size=nc, max_size=nc), min_size=1, max_size=3))
    return [
        draw(st.one_of(st.sampled_from(pool), st.lists(rationals, min_size=nc, max_size=nc)))
        for _ in range(nr)
    ]


@settings(max_examples=150)
@given(rational_matrices())
def test_column_relations_match_the_fraction_rref(rows):
    kept, relations = column_relations(rows)
    ref, ref_pivots = fraction_rref(rows)
    nc = len(rows[0])
    assert kept == ref_pivots
    assert len(kept) == column_rank([list(col) for col in zip(*rows)])
    assert sorted(kept + list(relations)) == list(range(nc))
    for j, a in relations.items():
        assert len(a) == nc and all(isinstance(v, int) for v in a)
        assert a[j]
        assert not any(a[b] for b in range(nc) if b != j and b not in kept)
        # column j over the greedy basis: RREF column j
        assert [Fraction(-a[b], a[j]) for b in kept] == [ref[t][j] for t in range(len(kept))]


@settings(max_examples=150)
@given(rational_matrices())
def test_nullspace_matches_fraction_route(rows):
    got = nullspace(rows)
    want = fraction_nullspace(rows)
    assert all(isinstance(v, int) for vec in got for v in vec)
    assert [integer_primitive(v) for v in got] == [integer_primitive(v) for v in want]
    for vec in got:
        assert all(sum(Fraction(a) * b for a, b in zip(row, vec)) == 0 for row in rows)


@settings(max_examples=300)
@given(st.lists(st.one_of(st.integers(-10**20, 10**20), rationals, st.fractions(max_denominator=10**6)), max_size=6))
def test_integer_primitive_matches_the_fraction_route(vec):
    got = integer_primitive(vec)
    assert got == fraction_integer_primitive(vec)
    assert all(type(v) is int for v in got)


def test_integer_primitive_empty_and_zero():
    assert integer_primitive([]) == []
    assert integer_primitive([0, Fraction(0), 0]) == [0, 0, 0]
    assert integer_primitive([Fraction(-2, 3), 0, Fraction(4, 9)]) == [3, 0, -2]


def test_column_relations_empty_and_zero():
    assert column_relations([]) == ([], {})
    assert column_relations([[0, 0], [0, 0]]) == ([], {0: [1, 0], 1: [0, 1]})
    assert nullspace([[0, 0]]) == [[1, 0], [0, 1]]
