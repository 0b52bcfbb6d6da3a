"""Simplicial complexes: broken-circuit and independence complexes, f/h-vectors,
induced subcomplexes and exact reduced homology ranks.

A complex is its vertex tuple plus antichains of bitmasks over vertex
positions: its facets, its minimal nonfaces when it was built from them
(complex_from_nonfaces: Stanley-Reisner complexes of ideals), or both
(broken-circuit complexes, whose facets are the nbc bases).  Faces are the
facets' submasks, so no 2^n table is built.  Vertices missing from every
facet are legal (ghost vertices); the empty complex {()} and the void
complex (no faces at all) are distinguished because reduced homology in
dimension -1 matters downstream.
Both Stanley-Reisner directions are one Alexander-duality step through
util.minimal_transversals: facets are the complements of the minimal
transversals of the minimal nonfaces, and minimal nonfaces are the minimal
transversals of the facet complements.  A complex held as nonfaces alone
takes that step only when its facets are read; its f- and h-vectors come
from the K-polynomial of the nonfaces (util.k_polynomial) without it.  Reduced
homology hands the facets to the kernel, which strongly collapses them
before listing faces.  The Betti route needs no complex at all: it hands
the generator supports, the minimal nonfaces, straight to the kernel.
"""

from itertools import accumulate

from . import _kernel
from .errors import BoundError, InputError, LoopError
from .util import Frozen, binom, bits, faces_by_size, k_polynomial, minimal_masks, minimal_transversals, sorted_sets


class SimplicialComplex(Frozen):
    """Complex on a vertex tuple; facets=[frozenset()] is the empty complex, [] the void one.

    Built from facets, or (complex_from_nonfaces) from minimal nonfaces,
    whose facets, unless given, are then derived on first read and cached.
    """

    __slots__ = ("vertices", "_facet_masks", "_nonface_masks")

    def __init__(self, vertices, facets):
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise InputError("duplicate vertices")
        pos = {v: i for i, v in enumerate(vertices)}
        masks = []
        for f in facets:
            f = frozenset(f)
            if not f <= pos.keys():
                raise InputError("facet %r uses unknown vertices" % (sorted(f, key=repr),))
            masks.append(sum(1 << pos[v] for v in f))
        self._init(vertices, masks)

    @classmethod
    def from_masks(cls, vertices, masks):
        """Complex on the given vertices whose facets are the maximal given masks."""
        complex_ = object.__new__(cls)
        complex_._init(tuple(vertices), masks)
        return complex_

    def _init(self, vertices, masks):
        full = (1 << len(vertices)) - 1  # maximal masks: complements of the minimal complements
        keep = [full ^ m for m in minimal_masks([full ^ m for m in masks])]
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "_facet_masks", tuple(sorted(keep)))
        object.__setattr__(self, "_nonface_masks", None)

    @property
    def facet_masks(self):
        """Facets as bitmasks over vertex positions, ascending."""
        if self._facet_masks is None:
            full = (1 << len(self.vertices)) - 1
            facets = sorted(full ^ t for t in minimal_transversals(self._nonface_masks))
            object.__setattr__(self, "_facet_masks", tuple(facets))
        return self._facet_masks

    @property
    def nonface_masks(self):
        """Minimal nonfaces as bitmasks: those the complex was built from, or
        the minimal transversals of the facet complements ((0,) if void)."""
        if self._nonface_masks is not None:
            return self._nonface_masks
        full = (1 << len(self.vertices)) - 1
        return tuple(minimal_transversals([full ^ f for f in self._facet_masks]))

    @property
    def facets(self):
        """Facets as vertex frozensets, smallest first, ties by repr-sorted labels."""
        return sorted_sets(frozenset(self.vertices[i] for i in bits(m)) for m in self.facet_masks)

    @property
    def is_void(self):
        if self._facet_masks is None:
            return 0 in self._nonface_masks
        return not self._facet_masks

    @property
    def dim(self):
        """Dimension: max facet size - 1; -1 for the empty complex, None for the void one."""
        if self.is_void:
            return None
        return max(m.bit_count() for m in self.facet_masks) - 1

    def _identity(self):
        return (self.vertices, self.facet_masks)  # facets are derived on first read; nonfaces a cache

    def __repr__(self):
        return "SimplicialComplex(vertices=%r, facets=%s)" % (
            list(self.vertices),
            [sorted(f, key=repr) for f in self.facets],
        )


class FHVectors(Frozen):
    """Face counts f_-1..f_d and the h-vector h_0..h_{d+1} of a complex."""

    __slots__ = ("f", "h", "dim")

    def __init__(self, f, h, dim):
        object.__setattr__(self, "f", tuple(f))
        object.__setattr__(self, "h", tuple(h))
        object.__setattr__(self, "dim", dim)

    def __repr__(self):
        return "FHVectors(f=%s, h=%s)" % (self.f, self.h)


def complex_from_nonfaces(vertices, nonfaces, facets=None):
    """Complex whose faces contain none of the nonface masks (an empty nonface: void).

    The complex keeps the minimal nonfaces; its facets, unless given, are found only when read.
    """
    complex_ = object.__new__(SimplicialComplex)
    object.__setattr__(complex_, "vertices", tuple(vertices))
    object.__setattr__(complex_, "_facet_masks", None if facets is None else tuple(sorted(facets)))
    object.__setattr__(complex_, "_nonface_masks", tuple(minimal_masks(nonfaces)))
    return complex_


def bc_complex(matroid, order=None):
    """Broken-circuit complex: all subsets containing no broken circuit.  It holds the
    minimal broken circuits as its nonfaces and the nbc bases as its facets."""
    if not matroid.is_loopless:
        raise LoopError("broken-circuit complex needs a loopless matroid")
    return complex_from_nonfaces(matroid.ground, matroid.broken_circuit_masks(order), matroid.nbc_basis_masks(order))


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
    """Face counts by dimension and the standard binomial transform h of f.

    A complex built from its minimal nonfaces lists no face: its K-polynomial
    K(t) = h(t) (1-t)^codim comes from util.k_polynomial, codim is the
    multiplicity of the root t = 1, and f follows from h.  A complex built
    from facets (independence_complex, explicit facet lists) counts the
    facets' submasks; the library's own In(X) counts skip the complex and
    read Matroid.independence_profile, which lists no face either.
    """
    if complex_.is_void:
        raise InputError("void complex has no f-vector")
    if complex_._nonface_masks is None:
        f = [len(level) for level in faces_by_size(complex_.facet_masks)]
        return FHVectors(f, f_to_h(f, complex_.dim), complex_.dim)
    h = k_polynomial(complex_.nonface_masks)
    codim = 0
    while sum(h) == 0:  # divide by (1 - t): prefix sums, the last one is 0
        h = list(accumulate(h))[:-1]
        codim += 1
    dim = len(complex_.vertices) - codim - 1
    h = h + [0] * (dim + 2 - len(h))
    return FHVectors(h_to_f(h, dim), h, dim)


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
    first entry is dimension -1); [] for the void complex.  The kernel
    strongly collapses the facets, then ranks what is left by sparse
    elimination: unit pivots over the integers in characteristic 0, GF(p)
    arithmetic for a prime p.  BoundError if what is left could have more
    than util.ENUMERATION_LIMIT faces (2^vertices, or the sum of 2^|F| over
    its facets, whichever is smaller).
    """
    _check_characteristic(characteristic)
    return _kernel.homology_ranks(complex_.facet_masks, characteristic)


def _check_characteristic(characteristic):
    """InputError unless the characteristic is 0 or a prime, decided by Miller-Rabin on
    the prime bases up to 37, which is exact below 318665857834031151167461 (Sorenson-
    Webster, Math. Comp. 86 (2017)); BoundError for a larger characteristic."""
    if characteristic == 0:
        return
    if isinstance(characteristic, int) and characteristic >= 318665857834031151167461:
        raise BoundError("primality is decided only below 318665857834031151167461, got %d" % characteristic)
    if not isinstance(characteristic, int) or characteristic < 2 or not _strong_probable_prime(characteristic):
        raise InputError("characteristic must be 0 or a prime")


def _strong_probable_prime(n):
    """Whether n >= 2 passes Miller-Rabin on every prime base up to 37."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % a == 0:
            return n == a
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << k, n) != n - 1 for k in range(s)):
            return False  # a witnesses that n is composite
    return True
