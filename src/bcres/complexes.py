"""Simplicial complexes: broken-circuit and independence complexes, f/h-vectors,
induced subcomplexes and exact reduced homology ranks.

A complex is its vertex tuple plus its facets as bitmasks over vertex
positions; faces are the facets' submasks, so no 2^n table is built.
Vertices missing from every facet are legal (ghost vertices); the empty
complex {()} and the void complex (no faces at all) are distinguished
because reduced homology in dimension -1 matters downstream.  Both
Stanley-Reisner directions are one Alexander-duality step through
util.minimal_transversals: facets are the complements of the minimal
transversals of the minimal nonfaces, and minimal nonfaces are the minimal
transversals of the facet complements.  The Betti route builds its own
face lists with util.nonface_sieve: it starts from generator supports, not
facets, and is capped by HOCHSTER_VARIABLE_LIMIT.
"""

from . import _kernel
from .errors import InputError, LoopError
from .util import binom, bits, minimal_transversals, sorted_sets


class SimplicialComplex:
    """Facet-listed complex; facets=[frozenset()] is the empty complex, [] the void one."""

    __slots__ = ("vertices", "facet_masks")

    def __init__(self, vertices, facets):
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise InputError("duplicate vertices")
        pos = {v: i for i, v in enumerate(vertices)}
        masks = []
        for f in facets:
            f = frozenset(f)
            if not f <= pos.keys():
                raise InputError("facet %r uses unknown vertices" % (sorted(f),))
            masks.append(sum(1 << pos[v] for v in f))
        self._init(vertices, masks)

    @classmethod
    def from_masks(cls, vertices, masks):
        """Complex on the given vertices whose facets are the maximal given masks."""
        complex_ = object.__new__(cls)
        complex_._init(tuple(vertices), masks)
        return complex_

    def _init(self, vertices, masks):
        keep = []
        for m in sorted(set(masks), key=int.bit_count, reverse=True):
            if not any(m & k == m for k in keep):
                keep.append(m)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "facet_masks", tuple(sorted(keep)))

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    @property
    def facets(self):
        """Facets as vertex frozensets, smallest first, ties by repr-sorted labels."""
        return sorted_sets(frozenset(self.vertices[i] for i in bits(m)) for m in self.facet_masks)

    @property
    def is_void(self):
        return not self.facet_masks

    @property
    def dim(self):
        """Dimension: max facet size - 1; -1 for the empty complex, None for the void one."""
        if self.is_void:
            return None
        return max(m.bit_count() for m in self.facet_masks) - 1

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.vertices == other.vertices
            and self.facet_masks == other.facet_masks
        )

    def __hash__(self):
        return hash((self.vertices, self.facet_masks))

    def __repr__(self):
        return "SimplicialComplex(vertices=%r, facets=%s)" % (
            list(self.vertices),
            [sorted(f, key=repr) for f in self.facets],
        )

    def face_masks_by_size(self):
        """Faces as bitmasks over vertex positions, grouped by vertex count and
        sorted (kernel input): the submasks of the facets."""
        if self.is_void:
            return []
        faces = set()
        for f in self.facet_masks:
            sub = f
            while sub:
                faces.add(sub)
                sub = (sub - 1) & f
        out = [[0]] + [[] for _ in range(self.dim + 1)]
        for m in sorted(faces):
            out[m.bit_count()].append(m)
        return out

    def ghost_vertices(self):
        covered = 0
        for f in self.facet_masks:
            covered |= f
        return frozenset(v for i, v in enumerate(self.vertices) if not covered >> i & 1)


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
    """Complex whose faces contain none of the nonface masks (an empty nonface: void)."""
    full = (1 << len(vertices)) - 1
    facets = [full ^ t for t in minimal_transversals(nonfaces)]
    return SimplicialComplex.from_masks(vertices, facets)


def bc_complex(matroid, order=None):
    """Broken-circuit complex: all subsets containing no broken circuit."""
    if not matroid.is_loopless:
        raise LoopError("broken-circuit complex needs a loopless matroid")
    return complex_from_nonfaces(matroid.ground, matroid.broken_circuit_masks(order))


def independence_complex(matroid):
    """Complex of independent sets: facets are the bases."""
    return SimplicialComplex.from_masks(matroid.ground, matroid.basis_masks())


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
    f = [len(level) for level in complex_.face_masks_by_size()]
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
