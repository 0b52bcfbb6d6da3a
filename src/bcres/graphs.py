"""Graph front-end: cycle matroids, construction of n-edge r-cycle graphs,
their facet complexes, and the complete-intersection report.

The r-cycle construction realizes the requested cycles edge-disjoint
(optionally chained by bridge paths), which is the regime where the
minimal broken circuits of the cycle matroid are pairwise disjoint.
"""

from itertools import product

from .complexes import SimplicialComplex
from .errors import BoundError, InputError
from .ideals import broken_circuit_ideal, complete_intersection_check, facet_ideal
from .matroid import graphic_matroid
from .util import Frozen, connected_unions


class Graph(Frozen):
    """Multigraph with labeled edges."""

    __slots__ = ("vertices", "edges")

    def __init__(self, edges):
        norm = []
        labels = set()
        for e in edges:
            if len(e) == 3:
                lab, u, v = e
            elif len(e) == 2:
                u, v = e
                lab = len(norm) + 1
            else:
                raise InputError("edge %r must be [u, v] or [label, u, v]" % (list(e),))
            if lab in labels:
                raise InputError("duplicate edge label %r" % (lab,))
            labels.add(lab)
            norm.append((lab, u, v))
        object.__setattr__(self, "vertices", tuple(dict.fromkeys(w for _, u, v in norm for w in (u, v))))
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def edge_labels(self):
        return tuple(lab for lab, _, _ in self.edges)

    def __repr__(self):
        return "Graph(vertices=%d, edges=%s)" % (len(self.vertices), list(self.edges))


def cycle_matroid(graph):
    """Matroid on the edge labels whose circuits are the simple cycles."""
    return graphic_matroid([(u, v) for _, u, v in graph.edges], graph.edge_labels)


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
    if any(b < 0 for b in bridges):
        raise InputError("bridge lengths must be nonnegative")
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
        vertex += blen - 1
        for a, b in zip(chain, chain[1:]):
            edges.append((a, b))
    return Graph(edges)


# facets of gnr_complex, one per choice of an edge in every cycle; the facet
# ideal's minimalization is quadratic in their number
GNR_FACET_LIMIT = 2048


def check_cycle_space(graph):
    """BoundError, before any cycle walk, when the gnr facets of a loopless graph pass GNR_FACET_LIMIT.

    The d = |E| - |V| + (components) fundamental cycles are distinct
    simple cycles of at least two edges, so gnr_complex has at least 2^d
    edge choices.  A graph with a self-loop passes: gnr_report builds no
    facets for it.
    """
    index = {v: i for i, v in enumerate(graph.vertices)}
    ends = [1 << index[u] | 1 << index[v] for _, u, v in graph.edges]
    if any(e.bit_count() == 1 for e in ends):
        return
    d = len(ends) - len(index) + len(connected_unions(ends))
    if 1 << d > GNR_FACET_LIMIT:
        raise BoundError(
            "a cycle space of dimension %d gives at least 2^%d edge choices, above the limit %d"
            % (d, d, GNR_FACET_LIMIT)
        )


def gnr_complex(labels, cycles):
    """Facet family from removing one edge of every cycle, over all choices.

    The choices number the product of the cycle lengths; once that product
    passes GNR_FACET_LIMIT this raises BoundError, before enumerating any
    and without forming the rest of the product.
    """
    choices = 1
    for c in cycles:
        choices *= len(c)
        if choices > GNR_FACET_LIMIT:
            raise BoundError(
                "%d cycles give more than %d edge choices" % (len(cycles), GNR_FACET_LIMIT)
            )
    all_edges = set(labels)
    facets = []
    for choice in product(*[sorted(c, key=repr) for c in cycles]):
        facets.append(all_edges - set(choice))
    return SimplicialComplex(labels, facets)


def gnr_report(matroid, order=None):
    """Complete-intersection report for the cycle matroid of an r-cycle graph.

    Builds the broken-circuit ideal and the CI verdict;
    separately builds the one-edge-per-cycle facet complex and reports
    whether its facet ideal coincides with the broken-circuit ideal (an
    identity that is checked per instance, never assumed).  The
    Cohen-Macaulay flag copies the CI answer, so it reads False on
    Cohen-Macaulay rings that are not complete intersections, although
    every broken-circuit complex is shellable, so its ring is Cohen-Macaulay.
    """
    cycles = matroid.circuits
    report = {
        "edges": len(matroid.ground),
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
    report["cohen_macaulay"] = ci  # the CI answer, not a CM test: False misses CM rings
    if cycles:
        fideal = facet_ideal(gnr_complex(matroid.ground, cycles))
        report["facet_ideal_generators"] = len(fideal.masks)
        report["facet_ideal_degree"] = fideal.maxdeg()
        report["facet_ideal_equals_bc_ideal"] = fideal == ideal
    else:
        report["facet_ideal_equals_bc_ideal"] = None
    return report
