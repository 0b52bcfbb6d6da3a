"""Simplicial complexes: broken-circuit and independence complexes, f/h-vectors,
induced subcomplexes and exact reduced homology ranks.

Complexes are stored by their facet antichain over an ordered vertex list.
Vertices missing from every facet are legal (ghost vertices); the empty
complex {()} and the void complex (no faces at all) are distinguished
because reduced homology in dimension -1 matters downstream.
"""

from itertools import combinations

from . import _kernel
from .errors import InputError, LoopError
from .matroid import normalize_order
from .util import antichain_maximal, binom, minimal_transversals, sorted_sets


class SimplicialComplex:
    """Facet-listed complex; facets=[frozenset()] is the empty complex, [] the void one."""

    __slots__ = ("vertices", "facets", "_pos")

    def __init__(self, vertices, facets):
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise InputError("duplicate vertices")
        known = set(vertices)
        fam = []
        for f in facets:
            fs = frozenset(f)
            if not fs <= known:
                raise InputError("facet %r uses unknown vertices" % (sorted(f),))
            fam.append(fs)
        fam = antichain_maximal(fam) if fam else []
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "facets", sorted_sets(fam))
        object.__setattr__(self, "_pos", {v: i for i, v in enumerate(vertices)})

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    @property
    def is_void(self):
        return not self.facets

    @property
    def dim(self):
        """Dimension: max facet size - 1; -1 for the empty complex, None for the void one."""
        if self.is_void:
            return None
        return max(len(f) for f in self.facets) - 1

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.vertices == other.vertices
            and self.facets == other.facets
        )

    def __hash__(self):
        return hash((self.vertices, self.facets))

    def __repr__(self):
        return "SimplicialComplex(vertices=%r, facets=%s)" % (
            list(self.vertices),
            [sorted(f, key=repr) for f in self.facets],
        )

    def has_face(self, subset):
        subset = frozenset(subset)
        return any(subset <= f for f in self.facets)

    def faces_by_size(self):
        """Faces grouped by vertex count, deduplicated per size (lazy per dimension)."""
        if self.is_void:
            return []
        top = self.dim + 1
        out = []
        for size in range(top + 1):
            level = set()
            for f in self.facets:
                if len(f) >= size:
                    level.update(map(frozenset, combinations(sorted(f, key=repr), size)))
            out.append(sorted_sets(level))
        return out

    def face_masks_by_size(self):
        """Same as faces_by_size but as bitmasks over vertex positions (kernel input)."""
        pos = self._pos
        out = []
        for level in self.faces_by_size():
            masks = []
            for f in level:
                m = 0
                for v in f:
                    m |= 1 << pos[v]
                masks.append(m)
            out.append(sorted(masks))
        return out

    def ghost_vertices(self):
        covered = set()
        for f in self.facets:
            covered |= f
        return frozenset(v for v in self.vertices if v not in covered)


class FHVectors:
    """Face counts f_-1..f_d and the h-vector h_0..h_{d+1} of a complex."""

    __slots__ = ("f", "h", "dim")

    def __init__(self, f, h, dim):
        object.__setattr__(self, "f", tuple(f))
        object.__setattr__(self, "h", tuple(h))
        object.__setattr__(self, "dim", dim)

    def __setattr__(self, name, value):
        raise AttributeError("FHVectors is immutable")

    def __eq__(self, other):
        return isinstance(other, FHVectors) and (self.f, self.h, self.dim) == (
            other.f,
            other.h,
            other.dim,
        )

    def __repr__(self):
        return "FHVectors(f=%s, h=%s)" % (self.f, self.h)


def complex_from_nonfaces(vertices, nonfaces):
    """Complex whose faces are the subsets containing none of the given sets.

    Facets are the complements of the minimal transversals of the
    (minimal) nonface family.
    """
    vertices = tuple(vertices)
    vset = set(vertices)
    nonfaces = [frozenset(nf) for nf in nonfaces]
    if any(not nf for nf in nonfaces):
        return SimplicialComplex(vertices, [])  # the empty set is a nonface: void
    facets = [vset - t for t in minimal_transversals(nonfaces, vertices)]
    return SimplicialComplex(vertices, facets)


def bc_complex(matroid, order=None):
    """Broken-circuit complex: all subsets containing no broken circuit."""
    if not matroid.is_loopless:
        raise LoopError("broken-circuit complex needs a loopless matroid")
    bcs = matroid.broken_circuits(normalize_order(matroid, order))
    return complex_from_nonfaces(matroid.ground, bcs)


def independence_complex(matroid):
    """Complex of independent sets: facets are the bases."""
    return SimplicialComplex(matroid.ground, matroid.bases())


def induced_subcomplex(complex_, sigma):
    """Faces of the complex contained in sigma, on the vertex set sigma."""
    sigma = frozenset(sigma)
    unknown = sigma - set(complex_.vertices)
    if unknown:
        raise InputError("unknown vertices %r" % sorted(unknown, key=repr))
    vertices = tuple(v for v in complex_.vertices if v in sigma)
    if complex_.is_void:
        return SimplicialComplex(vertices, [])
    return SimplicialComplex(vertices, [f & sigma for f in complex_.facets])


def f_h_vectors(complex_):
    """Face counts by dimension and the standard binomial transform h of f."""
    if complex_.is_void:
        raise InputError("void complex has no f-vector")
    f = [len(level) for level in complex_.faces_by_size()]
    return FHVectors(f, f_to_h(f, complex_.dim), complex_.dim)


def f_to_h(f, dim):
    return tuple(
        sum((-1) ** (k - i) * binom(dim + 1 - i, k - i) * f[i] for i in range(k + 1))
        for k in range(dim + 2)
    )


def h_to_f(h, dim):
    return tuple(
        sum(binom(dim + 1 - i, k - i) * h[i] for i in range(k + 1)) for k in range(dim + 2)
    )


def reduced_homology_ranks(complex_, characteristic=0):
    """Ranks of reduced simplicial homology in dimensions -1..dim over an exact field.

    Returns a list whose entry c is the rank in dimension c - 1 (so the
    first entry is dimension -1).  Characteristic 0 uses fraction-free
    integer elimination; a prime p uses GF(p) arithmetic.
    """
    _check_characteristic(characteristic)
    if complex_.is_void:
        return []
    return _kernel.homology_ranks(complex_.face_masks_by_size(), characteristic)


def _check_characteristic(characteristic):
    if characteristic == 0:
        return
    if not isinstance(characteristic, int) or characteristic < 2:
        raise InputError("characteristic must be 0 or a prime")
    n = characteristic
    k = 2
    while k * k <= n:
        if n % k == 0:
            raise InputError("characteristic must be 0 or a prime")
        k += 1
