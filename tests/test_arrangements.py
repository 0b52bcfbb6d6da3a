"""Arrangements: associated matroids, coning, products, OS/OT generators, Koszul reports."""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_linalg import fraction_solve

from bcres.arrangements import (
    Arrangement,
    cone_arrangement,
    detect_product,
    koszul_report,
    os_ot_generators,
)
from bcres.errors import InputError
from bcres.linalg import column_rank, nullspace
from bcres.matroid import direct_sum, linear_matroid, uniform_matroid

GENERIC4 = Arrangement([(1, 0), (0, 1), (1, 1), (1, -1)])
COORD3 = Arrangement([(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_matroid_of_generic_lines(u24):
    assert GENERIC4.matroid == u24


def test_matroid_of_coordinates():
    assert COORD3.matroid == uniform_matroid(3, 3)


def test_repeated_hyperplane_two_circuit():
    a = Arrangement([(1, 0), (2, 0), (0, 1)])
    m = a.matroid
    assert frozenset({1, 2}) in m.circuits
    assert not m.is_simple


def test_zero_column_rejected():
    with pytest.raises(InputError):
        Arrangement([(0, 0), (1, 0)])


def test_cone_adds_boolean_summand(u24):
    cone = cone_arrangement(GENERIC4)
    assert cone.dimension == 3 and cone.size == 5
    expected = direct_sum([u24, uniform_matroid(1, 1)])
    assert cone.matroid == expected


def test_cone_coordinate_stays_coordinate():
    cone = cone_arrangement(COORD3)
    assert cone.matroid == uniform_matroid(4, 4)


def test_double_cone(u24):
    cc = cone_arrangement(cone_arrangement(GENERIC4))
    m = cc.matroid
    expected = direct_sum([u24, uniform_matroid(1, 1), uniform_matroid(1, 1)])
    assert m == expected


def test_detect_product_cone():
    cone = cone_arrangement(GENERIC4)
    factors = detect_product(cone)
    sizes = sorted(f.size for f in factors)
    assert sizes == [1, 4]
    big = next(f for f in factors if f.size == 4)
    assert big.dimension == 2
    assert big.matroid.circuits == GENERIC4.matroid.circuits


def test_detect_product_coordinate():
    factors = detect_product(COORD3)
    assert len(factors) == 3
    assert all(f.size == 1 and f.dimension == 1 for f in factors)


def test_detect_product_connected_single_factor():
    factors = detect_product(GENERIC4)
    assert len(factors) == 1


def test_product_factors_multiply(u24):
    cone = cone_arrangement(GENERIC4)
    factors = detect_product(cone)
    product = direct_sum([f.matroid for f in factors])
    whole = cone.matroid
    # same circuit structure up to the relabeling of the direct sum
    assert sorted(len(c) for c in product.circuits) == sorted(len(c) for c in whole.circuits)
    assert product.rank == whole.rank


def solve_route_factors(arrangement):
    """Factors as (labels, normals) by the greedy column basis and one solve per column."""
    components, _ = arrangement.matroid.components_and_coloops()
    by_label = dict(zip(arrangement.labels, arrangement.normals))
    factors = []
    for comp in components:
        labels = tuple(lab for lab in arrangement.labels if lab in comp)
        cols = [by_label[lab] for lab in labels]
        basis = []
        for col in cols:
            if column_rank(basis + [col]) > len(basis):
                basis.append(col)
        coords = [
            tuple(fraction_solve([[b[i] for b in basis] for i in range(len(col))], list(col)))
            for col in cols
        ]
        factors.append((labels, tuple(coords)))
    return factors


small = st.integers(-2, 2)
NONZERO = {d: [v for v in product((0, 1, -1, 2, -2), repeat=d) if any(v)] for d in (1, 2)}


@st.composite
def essential_arrangements(draw):
    """Block-diagonal normals (so products occur) seen through a random change of basis.

    Each block's columns are nonzero, and a plane block has two independent
    ones, so every block is spanned; the change of basis is unit lower- times
    unit upper-triangular, hence invertible.  The normals are then nonzero
    and essential by construction, and nothing is assumed.
    """
    dims = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    dim = sum(dims)
    cols = []
    top = 0
    for d in dims:
        block = [draw(st.sampled_from(NONZERO[d]))]
        if d == 2:
            u = block[0]
            block.append(draw(st.sampled_from([v for v in NONZERO[2] if u[0] * v[1] != u[1] * v[0]])))
        block = draw(st.permutations(block + draw(st.lists(st.sampled_from(NONZERO[d]), max_size=4 - d))))
        cols += [[0] * top + list(part) + [0] * (dim - top - d) for part in block]
        top += d
    lower = [[draw(small) if k < i else int(k == i) for k in range(dim)] for i in range(dim)]
    upper = [[draw(small) if k > i else int(k == i) for k in range(dim)] for i in range(dim)]
    change = [[sum(lower[i][t] * upper[t][k] for t in range(dim)) for k in range(dim)] for i in range(dim)]
    arrangement = Arrangement([[sum(change[i][k] * col[k] for k in range(dim)) for i in range(dim)] for col in cols])
    assert arrangement.is_essential
    return arrangement


@settings(max_examples=150)
@given(essential_arrangements())
def test_detect_product_matches_solve_route(arrangement):
    got = [(f.labels, f.normals) for f in detect_product(arrangement)]
    assert got == solve_route_factors(arrangement)


@settings(max_examples=150)
@given(essential_arrangements())
def test_factor_matroid_is_the_linear_matroid_of_its_coordinates(arrangement):
    # a factor carries the restriction of the whole matroid; rebuilding it
    # from the factor's own coordinates is the oracle
    for factor in detect_product(arrangement):
        assert factor.matroid == linear_matroid(factor.normals, factor.labels)


def test_os_ot_generators_triple():
    # three concurrent lines with alpha_1 - alpha_2 + alpha_3 = 0
    a = Arrangement([(1, 0), (1, 1), (0, 1)])
    gens = os_ot_generators(a)
    assert len(gens["orlik_solomon"]) == 1
    ot = gens["orlik_terao"][0]
    assert ot["circuit"] == (1, 2, 3)
    assert ot["dependency"] == (1, -1, 1)
    # signs (-1)^(j-1) a_j: all +1 here
    assert [t["coefficient"] for t in ot["terms"]] == [1, 1, 1]
    assert [t["monomial"] for t in ot["terms"]] == [(2, 3), (1, 3), (1, 2)]


def test_os_ot_boolean_empty():
    assert os_ot_generators(COORD3) == {"orlik_solomon": [], "orlik_terao": []}


@st.composite
def fraction_arrangements(draw):
    """Nonzero Fraction normals of height 1-3, with an element order drawn over them."""
    dim = draw(st.integers(1, 3))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    column = st.lists(entry, min_size=dim, max_size=dim).filter(any)
    arrangement = Arrangement(draw(st.lists(column, min_size=1, max_size=6)))
    return arrangement, draw(st.permutations(arrangement.labels))


@settings(max_examples=150)
@given(fraction_arrangements())
def test_ot_dependency_identity(drawn):
    # the recorded dependency kills the normals, and it is the relation the
    # circuit's own Fraction columns give, before the rows were cleared once
    arrangement, order = drawn
    gens = os_ot_generators(arrangement, order)
    position = {lab: k for k, lab in enumerate(order)}
    for g in gens["orlik_terao"]:
        circuit = g["circuit"]
        dep = g["dependency"]
        assert list(circuit) == sorted(circuit, key=position.get)
        assert gcd(*dep) == 1 and dep[0] > 0 and all(dep)
        cols = [arrangement.normals[lab - 1] for lab in circuit]
        assert all(sum(d * c[i] for d, c in zip(dep, cols)) == 0 for i in range(arrangement.dimension))
        (kernel,) = nullspace([[c[i] for c in cols] for i in range(arrangement.dimension)])
        assert list(dep) == (kernel if kernel[0] > 0 else [-c for c in kernel])


def test_os_generator_count_matches_circuits():
    gens = os_ot_generators(GENERIC4)
    assert len(gens["orlik_solomon"]) == 4  # all 3-subsets of 4 generic lines


def test_koszul_generic_cone():
    # cone of 4 generic lines: U_{2,4} + U_{1,1}, the s=2 pattern
    rep = koszul_report(cone_arrangement(GENERIC4))
    assert rep["two_term_s2"] is True
    assert rep["verdict"].startswith("Koszul")


def test_koszul_boolean_trivial():
    rep = koszul_report(COORD3)
    assert rep["verdict"] == "Koszul (zero ideals)"


def test_koszul_report_two_term_internal_identity():
    for arr in (GENERIC4, COORD3, cone_arrangement(GENERIC4)):
        rep = koszul_report(arr)
        cert = rep["two_term"]
        assert rep["two_term_s2"] == (cert is not None and cert["s"] == 2)


def test_koszul_golden_realization(golden):
    # rational realization of the parallel-connection matroid via graph incidence
    verts = 5
    edges = [(1, 4), (4, 5), (5, 3), (1, 2), (2, 3), (1, 3)]
    cols = []
    for u, v in edges:
        col = [Fraction(0)] * (verts - 1)
        # coordinates in the quotient by the all-ones vector: drop vertex 5
        if u != 5:
            col[u - 1] += 1
        if v != 5:
            col[v - 1] -= 1
        cols.append(tuple(col))
    a = Arrangement(cols)
    m = a.matroid
    assert set(m.circuits) == set(golden.circuits)
    rep = koszul_report(a)
    assert rep["two_term_s2"] is False
    assert rep["verdict"] == "graded-Koszul (stratified decomposition)"
    assert rep["ci_broken_circuits"] is False


@pytest.mark.parametrize(
    "normals, strata",
    [
        ([(1, 0), (2, 0), (0, 1)], [[1, 2, 3]]),  # U_{1,2} + U_{1,1}: s = 1
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], [[1, 2, 3, 4]]),  # U_{3,4}: s = 3
        # U_{2,3} + U_{1,2} has circuits of two sizes, so it peels twice
        ([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (0, 0, 2)], [[1, 2, 3, 4], [5]]),
    ],
    ids=["s1", "s3", "two-sizes"],
)
def test_koszul_stratified_verdict_pinned(normals, strata):
    rep = koszul_report(Arrangement(normals))
    assert rep["two_term_s2"] is False
    assert [s["elements"] for s in rep["stratification"]["strata"]] == strata
    assert rep["verdict"] == "graded-Koszul (stratified decomposition)"


@settings(max_examples=100)
@given(essential_arrangements())
def test_koszul_verdict_without_s2_is_stratified(arrangement):
    # stratify cannot fail within its bound, so every arrangement with a
    # circuit and no s = 2 decomposition reads graded-Koszul
    rep = koszul_report(arrangement)
    if not arrangement.matroid.circuit_masks:
        assert rep["verdict"] == "Koszul (zero ideals)"
    elif rep["two_term_s2"]:
        assert rep["verdict"] == "Koszul (s=2 uniform decomposition)"
    else:
        assert rep["verdict"] == "graded-Koszul (stratified decomposition)"


def test_koszul_iterated_cone_family():
    # U_{2, n-r+2} + U_{r-2, r-2} via coning a generic planar arrangement
    base = Arrangement([(1, 0), (0, 1), (1, 1), (1, 2), (1, 3)])
    arr = base
    for _ in range(2):
        arr = cone_arrangement(arr)
    rep = koszul_report(arr)
    assert rep["two_term_s2"] is True
    assert rep["verdict"].startswith("Koszul")
