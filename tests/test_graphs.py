"""Cycle matroids, r-cycle graph construction, complete-intersection reports."""

import time
from itertools import combinations

import pytest

from bcres import graphs
from bcres.errors import BoundError, InputError
from bcres.graphs import Graph, build_gnr, check_cycle_space, cycle_matroid, gnr_complex, gnr_report
from bcres.matroid import uniform_matroid


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


def test_gnr_report_bounds_the_cycle_product():
    # K5 has 37 cycles; one facet per edge choice would be about 1.5e22 facets
    k5 = Graph(list(combinations(range(5), 2)))
    start = time.perf_counter()
    with pytest.raises(BoundError, match="edge choices"):
        gnr_report(cycle_matroid(k5))
    assert time.perf_counter() - start < 5.0


def test_gnr_refusal_names_the_limit_not_the_product():
    # a 17-rung ladder: 136 cycles whose lengths multiply to a 150-digit number
    ladder = Graph([(2 * i, 2 * i + 1) for i in range(17)] + [(i, i + 2) for i in range(32)])
    with pytest.raises(BoundError) as err:
        gnr_report(cycle_matroid(ladder))
    assert str(err.value) == "136 cycles give more than %d edge choices" % graphs.GNR_FACET_LIMIT


def ladder(rungs):
    """A ladder with `rungs` rungs: 2 * rungs vertices, cycle space of dimension rungs - 1."""
    return Graph([(2 * i, 2 * i + 1) for i in range(rungs)] + [(i, i + 2) for i in range(2 * rungs - 2)])


def test_check_cycle_space_admits_exactly_the_limit():
    assert graphs.GNR_FACET_LIMIT == 2**11
    check_cycle_space(ladder(12))  # d = 11
    check_cycle_space(build_gnr([2] * 11))  # 11 components, d = 11
    with pytest.raises(BoundError, match="^a cycle space of dimension 12 gives at least 2\\^12 edge choices"):
        check_cycle_space(ladder(13))
    with pytest.raises(BoundError, match="dimension 12"):
        check_cycle_space(build_gnr([2] * 12))
    # a self-loop keeps the not-applicable route, however large the cycle space
    check_cycle_space(Graph(ladder(17).edges + ((0, 5, 5),)))


@pytest.mark.parametrize(
    "graph",
    [
        build_gnr([3, 3]),
        build_gnr([3, 4], [2]),
        Graph(list(combinations(range(4), 2))),
        Graph([(0, 1), (0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]),
        Graph([(1, 2), (2, 3)]),
    ],
    ids=["two-triangles", "bridged", "K4", "multigraph-two-components", "path"],
)
def test_check_cycle_space_dimension_is_the_nullity(graph, monkeypatch):
    # the bound is 2^d for d = |E| - rank of the cycle matroid
    d = len(graph.edges) - cycle_matroid(graph).rank
    monkeypatch.setattr(graphs, "GNR_FACET_LIMIT", 2**d)
    check_cycle_space(graph)
    monkeypatch.setattr(graphs, "GNR_FACET_LIMIT", 2**d - 1)
    with pytest.raises(BoundError, match="dimension %d" % d):
        check_cycle_space(graph)


def test_gnr_report_many_edges_few_cycles():
    # five edge-disjoint 4-cycles: 20 edges, so the ideal must not come from
    # a pass over all 2^20 edge subsets
    start = time.perf_counter()
    rep = gnr_report(cycle_matroid(build_gnr([4] * 5)))
    assert time.perf_counter() - start < 2.0
    assert rep["edges"] == 20
    assert rep["complete_intersection"] is True


def test_gnr_complex_limit_is_inclusive(monkeypatch):
    g = build_gnr([3, 3])
    cycles = cycle_matroid(g).circuits
    monkeypatch.setattr(graphs, "GNR_FACET_LIMIT", 9)
    assert len(gnr_complex(g.edge_labels, cycles).facets) == 9
    monkeypatch.setattr(graphs, "GNR_FACET_LIMIT", 8)
    with pytest.raises(BoundError):
        gnr_complex(g.edge_labels, cycles)
