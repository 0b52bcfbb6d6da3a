"""Graph front-end: cycle matroids, construction of n-edge r-cycle graphs,
their facet complexes, and the complete-intersection report.

The r-cycle construction realizes the requested cycles edge-disjoint
(optionally chained by bridge paths), which is the regime where the
minimal broken circuits of the cycle matroid are pairwise disjoint.
"""

from itertools import product
from math import prod

from .complexes import SimplicialComplex
from .errors import BoundError, InputError
from .ideals import broken_circuit_ideal, facet_ideal
from .matroid import Matroid, simple_cycle_edge_sets


class Graph:
    """Multigraph with labeled edges."""

    __slots__ = ("vertices", "edges")

    def __init__(self, edges, vertices=None):
        norm = []
        labels = set()
        for e in edges:
            if len(e) == 3:
                lab, u, v = e
            else:
                u, v = e
                lab = len(norm) + 1
            if lab in labels:
                raise InputError("duplicate edge label %r" % (lab,))
            labels.add(lab)
            norm.append((lab, u, v))
        seen = []
        for _, u, v in norm:
            for w in (u, v):
                if w not in seen:
                    seen.append(w)
        if vertices is not None:
            vertices = tuple(vertices)
            if set(seen) - set(vertices):
                raise InputError("edge endpoints outside the vertex list")
        else:
            vertices = tuple(seen)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", tuple(norm))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def edge_labels(self):
        return tuple(lab for lab, _, _ in self.edges)

    @property
    def is_simple(self):
        pairs = set()
        for _, u, v in self.edges:
            if u == v:
                return False
            key = (u, v) if repr(u) <= repr(v) else (v, u)
            if key in pairs:
                return False
            pairs.add(key)
        return True

    def __repr__(self):
        return "Graph(vertices=%d, edges=%s)" % (len(self.vertices), list(self.edges))


def cycle_matroid(graph):
    """Matroid on the edge labels whose circuits are the simple cycles."""
    cycles = simple_cycle_edge_sets(list(graph.edges))
    return Matroid(graph.edge_labels, cycles, origin="graphic", validate=False)


def build_gnr(cycle_sizes, bridges=None):
    """Graph with the given edge-disjoint cycles, optionally joined by bridge paths.

    bridges[i] is the number of bridge edges between consecutive cycles
    (0, the default, leaves them as separate components).  The result has
    sum(sizes) + sum(bridges) edges and exactly len(sizes) simple cycles.
    """
    sizes = list(cycle_sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise InputError("cycle sizes must be positive")
    if bridges is None:
        bridges = [0] * (len(sizes) - 1)
    bridges = list(bridges)
    if len(bridges) != len(sizes) - 1:
        raise InputError("need one bridge length per consecutive cycle pair")
    edges = []
    vertex = 0
    anchors = []
    for size in sizes:
        ring = [vertex + i for i in range(size)]
        vertex += size
        for i in range(size):
            edges.append((ring[i], ring[(i + 1) % size]))
        anchors.append(ring[0])
    for i, blen in enumerate(bridges):
        if blen == 0:
            continue
        chain = [anchors[i]] + [vertex + j for j in range(blen - 1)] + [anchors[i + 1]]
        vertex += max(blen - 1, 0)
        for a, b in zip(chain, chain[1:]):
            edges.append((a, b))
    return Graph(edges)


# facets of gnr_complex, one per choice of an edge in every cycle; the facet
# ideal's minimalization is quadratic in their number
GNR_FACET_LIMIT = 2048


def gnr_complex(graph, cycles):
    """Facet family from removing one edge of every cycle, over all choices.

    The choices number the product of the cycle lengths; above
    GNR_FACET_LIMIT this raises BoundError before enumerating any.
    """
    choices = prod(len(c) for c in cycles)
    if choices > GNR_FACET_LIMIT:
        raise BoundError(
            "%d cycles give %d edge choices, above the limit %d"
            % (len(cycles), choices, GNR_FACET_LIMIT)
        )
    labels = graph.edge_labels
    all_edges = set(labels)
    facets = []
    for choice in product(*[sorted(c, key=repr) for c in cycles]):
        facets.append(all_edges - set(choice))
    return SimplicialComplex(labels, facets)


def gnr_report(graph, order=None):
    """Complete-intersection report for an r-cycle graph.

    Builds the cycle matroid, its broken-circuit ideal and the CI verdict;
    separately builds the one-edge-per-cycle facet complex and reports
    whether its facet ideal coincides with the broken-circuit ideal (an
    identity that is checked per instance, never assumed).  The
    Cohen-Macaulay flag is the standard consequence of CI.
    """
    from .ideals import complete_intersection_check

    matroid = cycle_matroid(graph)
    cycles = matroid.circuits
    report = {
        "edges": len(graph.edge_labels),
        "cycles": len(cycles),
        "cycle_edge_sets": [sorted(c, key=repr) for c in cycles],
        "simple": matroid.is_simple,
    }
    if not matroid.is_loopless:
        report["verdict"] = "not applicable: graph has a self-loop"
        return report
    ideal = broken_circuit_ideal(matroid, order)
    report["broken_circuit_ideal"] = ideal.render()
    ci = complete_intersection_check(ideal)
    report["complete_intersection"] = ci
    report["cohen_macaulay"] = ci  # CI implies CM; flagged only as the consequence
    if cycles:
        fideal = facet_ideal(gnr_complex(graph, cycles))
        report["facet_ideal_generators"] = len(fideal.gens)
        report["facet_ideal_degree"] = fideal.maxdeg()
        report["facet_ideal_equals_bc_ideal"] = fideal == ideal
    else:
        report["facet_ideal_equals_bc_ideal"] = None
    return report
