"""Cycle matroids, r-cycle graph construction, complete-intersection reports.

Oracle for the gnr facet ideal: the one-edge-per-cycle choices themselves,
whose maximal complements gnr_report reads off the bases instead.
"""

import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcres import util
from bcres.complexes import SimplicialComplex
from bcres.errors import BoundError, InputError
from bcres.graphs import Graph, build_gnr, cycle_matroid, gnr_report
from bcres.ideals import MonomialIdeal, broken_circuit_ideal, facet_ideal
from bcres.matroid import uniform_matroid
from bcres.util import bits


def test_cycle_matroid_triangle():
    g = Graph([(1, 2), (2, 3), (1, 3)])
    assert cycle_matroid(g) == uniform_matroid(2, 3)


def test_cycle_matroid_two_triangles():
    g = build_gnr([3, 3])
    m = cycle_matroid(g)
    assert set(m.circuits) == {frozenset({1, 2, 3}), frozenset({4, 5, 6})}


def test_cycle_matroid_tree_free():
    g = Graph([(1, 2), (2, 3), (3, 4)])
    m = cycle_matroid(g)
    assert m.circuits == ()


def test_cycle_matroid_rank_invariant():
    for g in (build_gnr([3, 4]), build_gnr([3, 3], [2]), Graph([(1, 2), (2, 3), (1, 3), (3, 4)])):
        m = cycle_matroid(g)
        comps = _graph_components(g)
        assert m.rank == len(g.vertices) - comps


def _graph_components(g):
    parent = {v: v for v in g.vertices}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for _, u, v in g.edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in g.vertices})


def test_build_gnr_disjoint():
    g = build_gnr([3, 3])
    assert len(g.edges) == 6
    assert len(cycle_matroid(g).circuits) == 2


def test_build_gnr_bridged():
    g = build_gnr([3, 4], [2])
    assert len(g.edges) == 3 + 4 + 2
    m = cycle_matroid(g)
    assert len(m.circuits) == 2  # bridges add no cycles
    assert {len(c) for c in m.circuits} == {3, 4}


def test_build_gnr_single_triangle():
    g = build_gnr([3])
    assert len(g.edges) == 3
    assert len(cycle_matroid(g).circuits) == 1


def test_build_gnr_validation():
    with pytest.raises(InputError):
        build_gnr([])
    with pytest.raises(InputError):
        build_gnr([3, 3], [1, 2])
    # a negative length would silently build the one-edge bridge
    with pytest.raises(InputError):
        build_gnr([3, 3], [-1])


def test_gnr_report_two_triangles():
    rep = gnr_report(cycle_matroid(build_gnr([3, 3])))
    assert rep["cycles"] == 2
    assert rep["broken_circuit_ideal"] == "(x2*x3, x5*x6)"
    assert rep["complete_intersection"] is True
    assert rep["cohen_macaulay"] is True


def test_gnr_report_single_cycle():
    rep = gnr_report(cycle_matroid(build_gnr([3])))
    assert rep["complete_intersection"] is True
    assert rep["broken_circuit_ideal"] == "(x2*x3)"


def test_gnr_report_families():
    for sizes in ([3], [3, 3], [3, 4], [4, 4, 4]):
        rep = gnr_report(cycle_matroid(build_gnr(sizes)))
        assert rep["cycles"] == len(sizes)
        assert rep["complete_intersection"] is True
        assert rep["cohen_macaulay"] is True


def test_gnr_report_shared_edge_boundary_case(golden):
    # 3-cycle and 4-cycle sharing one edge: three cycles, CI fails
    g = Graph([(1, 4), (4, 5), (5, 3), (1, 2), (2, 3), (1, 3)])
    m = cycle_matroid(g)
    assert set(m.circuits) == set(golden.circuits)
    rep = gnr_report(m)
    assert rep["cycles"] == 3
    assert rep["complete_intersection"] is False


def test_gnr_facet_ideal_identity_reported():
    rep = gnr_report(cycle_matroid(build_gnr([3, 3])))
    # the one-edge-per-cycle facet ideal has degree n - r generators, so the
    # claimed identity with the broken-circuit ideal is refuted per instance
    assert rep["facet_ideal_equals_bc_ideal"] is False
    assert rep["facet_ideal_degree"] == 4


def test_gnr_bc_ideal_matches_broken_circuits():
    from bcres.complexes import bc_complex
    from bcres.ideals import stanley_reisner_ideal

    for sizes, bridges in ([(3, 3), None], [(3, 4), [1]], [(4, 4, 4), None]):
        g = build_gnr(sizes, bridges)
        m = cycle_matroid(g)
        ideal = stanley_reisner_ideal(bc_complex(m))
        bcs = m.broken_circuits()
        assert len(ideal.gens) == len(bcs)
        supports = {frozenset("x%d" % e for e in bc) for bc in bcs}
        got = {
            frozenset(ideal.names[i] for i in g.support) for g in ideal.gens
        }
        assert got == supports
        assert gnr_report(m)["broken_circuit_ideal"] == ideal.render()


def test_gnr_pairwise_disjoint_implies_ci():
    for sizes in ([3, 3], [3, 4], [4, 4, 4], [3, 3, 3, 3]):
        g = build_gnr(sizes)
        m = cycle_matroid(g)
        bcs = m.broken_circuits()
        disjoint = all(a.isdisjoint(b) for i, a in enumerate(bcs) for b in bcs[i + 1 :])
        rep = gnr_report(m)
        assert disjoint
        assert rep["complete_intersection"] is True


def test_selfloop_report():
    rep = gnr_report(cycle_matroid(Graph([(1, 1), (1, 2)])))
    assert rep["verdict"].startswith("not applicable")


def gnr_facet_oracle(matroid):
    """The brute force that gnr_report no longer runs: the facet ideal of the maximal
    sets E - T, over every choice T of one element in each circuit."""
    choices = {0}  # the sets T chosen so far, as masks
    for c in matroid.circuit_masks:
        choices = {t | 1 << i for t in choices for i in bits(c)}
    full = (1 << len(matroid.ground)) - 1
    return facet_ideal(SimplicialComplex.from_masks(matroid.ground, [full ^ t for t in choices]))


def _assert_facet_ideal_is_the_oracles(matroid):
    rep = gnr_report(matroid)
    oracle = gnr_facet_oracle(matroid)
    # what gnr_report reads its three entries off
    assert MonomialIdeal.from_masks(oracle.names, matroid.basis_masks()) == oracle
    assert rep["facet_ideal_generators"] == len(oracle.masks)
    assert rep["facet_ideal_degree"] == oracle.maxdeg()
    assert rep["facet_ideal_equals_bc_ideal"] == (oracle == broken_circuit_ideal(matroid))
    return rep


@st.composite
def loopless_multigraphs(draw):
    """At most 9 edges on 1-4 components, each a random spanning tree plus random
    further edges, parallel ones allowed."""
    edges = []
    base = 0
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(1, min(4, 10 - len(edges))))
        for j in range(1, size):
            edges.append((base + draw(st.integers(0, j - 1)), base + j))
        if size > 1:
            ends = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)).filter(lambda e: e[0] != e[1])
            edges += [(base + u, base + v) for u, v in draw(st.lists(ends, max_size=9 - len(edges)))]
        base += size
    return Graph(edges)


@given(loopless_multigraphs())
@settings(max_examples=80, deadline=None)
def test_gnr_facet_ideal_is_the_edge_choice_oracles(graph):
    matroid = cycle_matroid(graph)
    if matroid.circuits:  # a forest has no choice to make; the report holds None
        _assert_facet_ideal_is_the_oracles(matroid)


def test_gnr_report_bounds_the_cycle_product():
    # K5 has 37 cycles and 125 spanning trees; the edge choices number about 1.5e22
    start = time.perf_counter()
    rep = _assert_facet_ideal_is_the_oracles(cycle_matroid(Graph(list(combinations(range(5), 2)))))
    assert time.perf_counter() - start < 5.0
    assert rep["facet_ideal_generators"] == 125
    assert rep["facet_ideal_degree"] == 4
    assert rep["facet_ideal_equals_bc_ideal"] is False


def test_gnr_report_on_twelve_two_cycles():
    rep = _assert_facet_ideal_is_the_oracles(cycle_matroid(build_gnr([2] * 12)))
    assert rep["facet_ideal_generators"] == 2**12
    assert rep["facet_ideal_degree"] == 12


def test_gnr_report_basis_bound_is_inclusive(monkeypatch):
    k5 = cycle_matroid(Graph(list(combinations(range(5), 2))))
    monkeypatch.setattr(util, "ENUMERATION_LIMIT", 125)
    assert gnr_report(k5)["facet_ideal_generators"] == 125
    monkeypatch.setattr(util, "ENUMERATION_LIMIT", 124)
    with pytest.raises(BoundError, match="^a rank-4 matroid on 10 elements has more than 124 bases$"):
        gnr_report(k5)


def ladder(rungs):
    """A ladder with `rungs` rungs: 2 * rungs vertices, cycle space of dimension rungs - 1."""
    return Graph([(2 * i, 2 * i + 1) for i in range(rungs)] + [(i, i + 2) for i in range(2 * rungs - 2)])


def test_gnr_refusal_names_the_limit_not_the_product():
    # a 17-rung ladder: 136 cycles whose lengths multiply to a 150-digit number,
    # and millions of spanning trees
    with pytest.raises(BoundError) as err:
        gnr_report(cycle_matroid(ladder(17)))
    assert str(err.value) == "a rank-33 matroid on 49 elements has more than 20000 bases"


def test_gnr_report_many_edges_few_cycles():
    # five edge-disjoint 4-cycles: 20 edges, so the ideal must not come from
    # a pass over all 2^20 edge subsets
    start = time.perf_counter()
    rep = gnr_report(cycle_matroid(build_gnr([4] * 5)))
    assert time.perf_counter() - start < 2.0
    assert rep["edges"] == 20
    assert rep["complete_intersection"] is True
