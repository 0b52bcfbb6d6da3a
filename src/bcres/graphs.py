"""Graph front-end: cycle matroids, construction of n-edge r-cycle graphs,
and the complete-intersection report with its one-edge-per-cycle facet ideal.

The r-cycle construction realizes the requested cycles edge-disjoint
(optionally chained by bridge paths), which is the regime where the
minimal broken circuits of the cycle matroid are pairwise disjoint.
"""

from .errors import InputError
from .ideals import MonomialIdeal, broken_circuit_ideal, complete_intersection_check
from .matroid import graphic_matroid
from .util import Frozen


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


def gnr_report(matroid, order=None):
    """Complete-intersection report for the cycle matroid of an r-cycle graph.

    Builds the broken-circuit ideal and the CI verdict, and reports whether
    the facet ideal of the one-edge-per-cycle complex (the maximal sets
    E - T, over every choice T of one edge in each cycle) coincides with
    the broken-circuit ideal (an identity that is checked per instance,
    never assumed).  Those maximal sets are the bases of the cycle matroid,
    so the facet ideal is read off Matroid.basis_masks:

    * E - T contains no circuit, because T meets every circuit; so every
      E - T is independent.
    * Every basis B is E - T for the choice T = E - B: each circuit meets
      T, since B holds none, and the fundamental circuit C(e, B) of each e
      in T meets T in e alone, so it must choose e.
    * Therefore the maximal sets E - T are the bases.

    The Cohen-Macaulay flag copies the CI answer, so it reads False on
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
        fideal = MonomialIdeal.from_masks(ideal.names, matroid.basis_masks())
        report["facet_ideal_generators"] = len(fideal.masks)
        report["facet_ideal_degree"] = fideal.maxdeg()
        report["facet_ideal_equals_bc_ideal"] = fideal == ideal
    else:
        report["facet_ideal_equals_bc_ideal"] = None
    return report
