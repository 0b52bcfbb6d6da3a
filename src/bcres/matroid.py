"""Matroids stored as circuit bitmasks.

A matroid is an ordered ground tuple plus the antichain of its circuits
(minimal dependent sets) as bitmasks over ground positions, fewest
elements first, then by value.  Explicit circuit lists are validated by
Matroid(ground, circuits); every other construction route (uniform,
graphic, linear over the rationals, direct sums) and every minor builds
the masks directly and passes them to Matroid.from_masks.  Rank, minors,
connectivity, broken circuits and bases come from the masks, and the
dual, Tutte polynomial and independence counts from the bases by one
exchange test.  Labels enter only through Matroid(ground, circuits) and
leave only through the label views (circuits, broken_circuits, bases,
repr), which sort by labels when read (util.sorted_sets).
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

from . import util
from ._kernel import echelon_residue, rank_int
from .complexes import h_to_f
from .errors import BoundError, CircuitAxiomError, InputError, LoopError
from .linalg import integer_primitive
from .util import Frozen, bits, check_enumeration, connected_unions, minimal_masks
from .util import nonface_sieve, pairwise_disjoint, sorted_sets

ELIMINATION_EXHAUSTIVE_LIMIT = 12
# edge tests the simple-cycle walk may make: 2^d combinations of a cycle basis
# of dimension d, each testing at most one edge per vertex (longer ones are skipped)
CYCLE_WALK_LIMIT = 4000000


class TuttePolynomial(Frozen):
    """Two-variable integer polynomial, stored as {(x_exp, y_exp): coeff}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        object.__setattr__(self, "coeffs", {k: v for k, v in (coeffs or {}).items() if v})

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return TuttePolynomial(out)

    def __mul__(self, other):
        out = {}
        for (i, j), a in self.coeffs.items():
            for (k, l), b in other.coeffs.items():
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + a * b
        return TuttePolynomial(out)

    def _identity(self):
        return frozenset(self.coeffs.items())

    def evaluate(self, x, y):
        return sum(c * x**i * y**j for (i, j), c in self.coeffs.items())

    def items(self):
        """Terms in canonical order: descending x exponent, then descending y."""
        return sorted(self.coeffs.items(), key=lambda kv: (-kv[0][0], -kv[0][1]))

    def __repr__(self):
        return "TuttePolynomial(%s)" % self.render()

    def render(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j), c in self.items():
            vars_ = "".join(
                ("%s^%d" % (v, e)) if e > 1 else v
                for v, e in (("x", i), ("y", j))
                if e
            )
            if not vars_:
                parts.append(str(c))
            elif c == 1:
                parts.append(vars_)
            else:
                parts.append("%d%s" % (c, vars_))
        return " + ".join(parts)


class Matroid(Frozen):
    """Immutable matroid on an ordered ground set, stored as its circuit bitmasks."""

    __slots__ = ("ground", "circuit_masks", "rank", "_pos", "_by_elem")

    def __init__(self, ground, circuits, validate=True):
        ground = tuple(ground)
        pos = _positions(ground)
        labelled = set()
        for c in circuits:
            c = list(c)
            cs = frozenset(c)
            if not cs:
                raise InputError("empty circuit")
            if not cs <= pos.keys():
                unknown = [e for e in c if e not in pos]
                raise InputError("circuit %r uses unknown labels %r" % (c, unknown))
            labelled.add(cs)
        # checked in the canonical label order, so a refusal names the same pair for any input order
        masks = [sum(1 << pos[e] for e in c) for c in sorted_sets(labelled)]
        self._init(ground, pos, masks)
        if validate:
            self._check_antichain(masks)
            self._check_elimination(masks)

    @classmethod
    def from_masks(cls, ground, masks):
        """Matroid whose circuits are the given bitmasks over ground positions (trusted)."""
        ground = tuple(ground)
        matroid = object.__new__(cls)
        matroid._init(ground, _positions(ground), set(masks))
        return matroid

    def _init(self, ground, pos, masks):
        masks = tuple(sorted(sorted(masks), key=int.bit_count))  # fewest elements first, as _holds_one needs
        by_elem = [[m for m in masks if m >> i & 1] for i in range(len(ground))]
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "circuit_masks", masks)
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_by_elem", by_elem)
        object.__setattr__(self, "rank", self._greedy_rank(range(len(ground))))

    @property
    def circuits(self):
        """Circuits as label frozensets, smallest first, ties by repr-sorted labels."""
        return sorted_sets(self._labels(m) for m in self.circuit_masks)

    def _labels(self, mask):
        return frozenset(self.ground[i] for i in bits(mask))

    def _label_list(self, mask):
        """Labels of a mask in ground order: labels of mixed types need not compare."""
        return [self.ground[i] for i in bits(mask)]

    # -- construction checks ---------------------------------------------

    def _check_antichain(self, masks):
        for a, b in combinations(masks, 2):
            if a & b in (a, b):
                raise InputError(
                    "circuits %r and %r are nested" % (self._label_list(a), self._label_list(b))
                )

    def _check_elimination(self, masks):
        """Check elimination exactly on every pair of circuits, or raise BoundError.

        Past the limit the subset sieve is too large, and a sample of pairs
        can accept a family that is not a matroid.
        """
        if pairwise_disjoint(masks):
            return  # no two circuits meet, so elimination holds vacuously
        n = len(self.ground)
        if n > ELIMINATION_EXHAUSTIVE_LIMIT:
            raise BoundError(
                "circuit validation limited to %d elements, got %d" % (ELIMINATION_EXHAUSTIVE_LIMIT, n)
            )
        # one byte per subset says whether it contains a circuit
        sieve = nonface_sieve(n, masks)
        for a, b in combinations(masks, 2):
            for i in bits(a & b):
                if not sieve[(a | b) ^ (1 << i)]:
                    raise CircuitAxiomError(self._label_list(a), self._label_list(b), self.ground[i])

    # -- basic queries -----------------------------------------------------

    def _mask(self, items):
        m = 0
        for e in items:
            m |= 1 << self._pos[e]
        return m

    def _validated(self, subset):
        subset = set(subset)
        for e in subset:
            if e not in self._pos:
                raise InputError("unknown element label %r" % (e,))
        return subset

    def _greedy_rank(self, positions):
        mask = 0
        count = 0
        for i in positions:
            cand = mask | 1 << i
            if not _holds_one(self._by_elem[i], cand):
                mask = cand
                count += 1
        return count

    def rank_of(self, subset):
        """Rank of a subset: size of any maximal independent subset of it."""
        return self._greedy_rank(bits(self._mask(self._validated(subset))))

    @property
    def size(self):
        return len(self.ground)

    @property
    def is_loopless(self):
        return all(m.bit_count() >= 2 for m in self.circuit_masks)

    @property
    def is_simple(self):
        return all(m.bit_count() >= 3 for m in self.circuit_masks)

    def loops(self):
        return frozenset(self.ground[bits(m)[0]] for m in self.circuit_masks if m.bit_count() == 1)

    def coloops(self):
        return frozenset(e for e, through in zip(self.ground, self._by_elem) if not through)

    def _identity(self):
        return (self.ground, self.circuit_masks)  # the other slots derive from these

    def __repr__(self):
        return "Matroid(n=%d, r=%d, circuits=%s)" % (
            len(self.ground),
            self.rank,
            list(sorted_sets(self._label_list(m) for m in self.circuit_masks)),
        )

    # -- broken circuits ---------------------------------------------------

    def broken_circuit_masks(self, order=None, minimal=True):
        """Broken circuits C - min(C) under the given element order, as ground-position masks.

        With minimal=True (the default used for ideal generation) only the
        inclusion-minimal broken circuits are returned; otherwise the full
        deduplicated family.
        """
        by_order = [self._pos[e] for e in normalize_order(self, order)]
        if not self.is_loopless:
            raise LoopError("broken circuits need a loopless matroid")
        bcs = {m ^ next(1 << i for i in by_order if m >> i & 1) for m in self.circuit_masks}
        return minimal_masks(bcs) if minimal else sorted(bcs)

    def broken_circuits(self, order=None, minimal=True):
        """Broken circuits as label frozensets, in the canonical set order."""
        return sorted_sets(self._labels(b) for b in self.broken_circuit_masks(order, minimal))

    # -- minors, duals, sums ------------------------------------------------

    def restrict(self, subset):
        """Restriction X|S: circuits of X contained in S, ground order inherited."""
        keep = self._mask(self._validated(subset))
        pack = _packer(len(self.ground), keep)
        return Matroid.from_masks(
            [self.ground[i] for i in bits(keep)], [pack(m) for m in self.circuit_masks if m & keep == m]
        )

    def delete(self, subset):
        gone = self._mask(self._validated(subset))
        return self.restrict(e for i, e in enumerate(self.ground) if not gone >> i & 1)

    def contract(self, subset):
        """Contraction X/T: minimal nonempty traces C - T of circuits of X."""
        n = len(self.ground)
        keep = ((1 << n) - 1) ^ self._mask(self._validated(subset))
        pack = _packer(n, keep)
        traces = [pack(m) for m in self.circuit_masks if m & keep]
        return Matroid.from_masks([self.ground[i] for i in bits(keep)], minimal_masks(traces))

    def minor(self, deleted=(), contracted=()):
        deleted = self._validated(deleted)
        contracted = self._validated(contracted)
        if deleted & contracted:
            overlap = [e for e in self.ground if e in deleted & contracted]
            raise InputError("deletion and contraction sets overlap: %r" % (overlap,))
        return self.delete(deleted).contract(contracted)

    def basis_masks(self):
        """All maximal independent sets, as ground-position masks; BoundError past util.ENUMERATION_LIMIT."""
        return self._rank_faces(self._by_elem, "bases")

    def nbc_basis_masks(self, order=None):
        """The bases holding no broken circuit under the order: the facets of the
        broken-circuit complex, which is pure of dimension rank - 1 (Bjorner 1992).
        A set holding no broken circuit holds no circuit, so the basis walk finds
        them with the minimal broken circuits as the forbidden sets."""
        bcs = self.broken_circuit_masks(order)  # fewest elements first, as the walk needs
        return self._rank_faces([[m for m in bcs if m >> i & 1] for i in range(len(self.ground))], "nbc bases")

    def _rank_faces(self, through, what):
        """The rank-many-element sets holding none of the forbidden masks, where
        through[i] lists those through position i, fewest elements first."""
        out = []
        n = len(self.ground)
        r = self.rank
        limit = util.ENUMERATION_LIMIT  # read per walk, so a test may lower it

        def extend(start, mask, size):
            if size == r:
                out.append(mask)
                if len(out) > limit:
                    raise BoundError("a rank-%d matroid on %d elements has more than %d %s" % (r, n, limit, what))
                return
            for i in range(start, n - (r - size) + 1):
                cand = mask | 1 << i
                if not _holds_one(through[i], cand):
                    extend(i + 1, cand, size + 1)

        extend(0, 0, 0)
        return out

    def bases(self):
        """All maximal independent sets, as frozensets."""
        return sorted_sets(self._labels(b) for b in self.basis_masks())

    def dual(self):
        """Dual matroid: its circuits are the fundamental cocircuits {v} + {e outside B : B - v + e is a basis},
        v in a basis B; every cocircuit C* is one (extend a basis of E - C* by v in C* to B: only C* avoids B - v)."""
        bases = self.basis_masks()
        lookup = set(bases)
        full = (1 << len(self.ground)) - 1
        cocircuits = set()
        for b in bases:
            for v in bits(b):
                cocircuit, base, rest = 1 << v, b ^ 1 << v, full ^ b
                while e := _exchange(lookup, base, rest):
                    cocircuit |= e
                    rest &= -e << 1  # the candidates above e
                cocircuits.add(cocircuit)
        return Matroid.from_masks(self.ground, cocircuits)

    def components_and_coloops(self):
        """Connected components (transitive closure of circuit co-membership) and coloops;
        each element joins as a one-bit mask, so a coloop is a component of its own."""
        unions = connected_unions([*self.circuit_masks, *(1 << i for i in range(len(self.ground)))])
        return sorted_sets(self._labels(u) for u in unions), self.coloops()

    def independence_profile(self):
        """Counts (I_0, ..., I_r) of independent subsets by size, from h of the lexicographic
        shelling of the bases (Bjorner 1992): h_i counts the bases with i internally passive
        elements, which make up the restriction set R(B).  No face is listed."""
        bases = self.basis_masks()
        lookup = set(bases)
        h = [0] * (self.rank + 1)
        for b in bases:
            h[_internally_passive(lookup, b)] += 1
        return h_to_f(h, self.rank - 1)

    def tutte_polynomial(self):
        """T(x, y) = sum over the bases B of x^i(B) y^e(B) (Tutte 1954; Crapo 1969): v in B is internally
        active unless B - v + e is a basis for some e < v outside B, and f outside B externally active unless
        B - e + f is one for some e < f in B, that is, f is internally passive in E - B among the dual's bases."""
        bases, n, r, full = self.basis_masks(), len(self.ground), self.rank, (1 << len(self.ground)) - 1
        lookup, co_lookup = set(bases), {full ^ b for b in bases}
        passive = ((_internally_passive(lookup, b), _internally_passive(co_lookup, full ^ b)) for b in bases)
        return TuttePolynomial(Counter((r - i, n - r - e) for i, e in passive))


def _exchange(lookup, base, candidates):
    """The lowest bit e of candidates for which base ^ e is one of the bases in lookup, or 0."""
    while candidates:
        e = candidates & -candidates
        if base ^ e in lookup:
            return e
        candidates ^= e
    return 0


def _internally_passive(lookup, b):
    """How many v in the basis b have b - v + e in lookup for some e < v outside b."""
    count = 0
    for v in bits(b):
        below = ~b & (1 << v) - 1
        if below and _exchange(lookup, b ^ 1 << v, below):
            count += 1
    return count


def _holds_one(masks, cand):
    """Whether cand (a set holding none of the masks, plus i) holds one of the masks through
    i, listed fewest elements first, so the scan stops at the first larger than cand."""
    size = cand.bit_count()
    for m in masks:
        if m.bit_count() > size:
            return False
        if m & cand == m:
            return True
    return False


def _positions(ground):
    pos = {e: i for i, e in enumerate(ground)}
    if len(pos) != len(ground):
        raise InputError("duplicate element labels in %r" % (ground,))
    return pos


def _packer(n, keep):
    """Function moving a mask's bits at the positions in keep to 0, 1, ... in order.

    The gaps are closed from the top down, so lower gaps keep their
    positions; a bit in a gap drops out.
    """
    lows = [(1 << i) - 1 for i in reversed(range(n)) if not keep >> i & 1]

    def pack(mask):
        for low in lows:
            mask = mask & low | mask >> 1 & ~low
        return mask

    return pack


def normalize_order(matroid, order):
    """Validate an element order (permutation of the ground set); None means ground order."""
    if order is None:
        return matroid.ground
    order = tuple(order)
    if sorted(order, key=repr) != sorted(matroid.ground, key=repr) or len(order) != len(
        matroid.ground
    ):
        raise InputError("order %r is not a permutation of the ground set" % (order,))
    return order


# -- constructors -----------------------------------------------------------


def uniform_matroid(p, n):
    """U_{p,n} on labels 1..n: independents are the subsets of size at most p."""
    if not 0 <= p <= n:
        raise InputError("uniform matroid needs 0 <= p <= n")
    check_enumeration("U(%d,%d)" % (p, n), "elements", n)
    check_enumeration("U(%d,%d)" % (p, n), "circuits", comb(n, p + 1))
    return Matroid.from_masks(range(1, n + 1), [sum(1 << i for i in c) for c in combinations(range(n), p + 1)])


def circuit_matroid(n, circuits):
    """Matroid from an explicit circuit family on labels 1..n (validated)."""
    if n < 0:
        raise InputError("circuit matroid needs n >= 0, got %d" % n)
    check_enumeration("a circuit matroid", "elements", n)
    return Matroid(range(1, n + 1), circuits)


def graphic_matroid(edges, labels=None):
    """Cycle matroid of a graph given as a list of vertex pairs."""
    edges = list(edges)
    if labels is None:
        labels = tuple(range(1, len(edges) + 1))
    labels = tuple(labels)
    if len(labels) != len(edges):
        raise InputError("edge label count mismatch")
    return Matroid.from_masks(labels, simple_cycle_edge_sets(edges))


def linear_matroid(columns, labels=None):
    """Matroid of rational column vectors: circuits are minimal dependent column sets.

    Each column is scaled to coprime integers once, which leaves the
    matroid unchanged.  One depth-first walk visits the independent column
    sets in increasing column order, reducing each next column against a
    fraction-free echelon basis of the chosen ones; a basis of r rows ends
    the branch.  Every circuit C is I + j for the independent I = C - max C
    and j = max C, so the circuits are the dependent sets I + j met on the
    walk whose every other one-element deletion is independent.  Each
    (I, j) is a distinct subset of at most r + 1 columns, which bounds the
    walk before it starts; the only rank computed is the whole matrix's.
    """
    cols = [integer_primitive(col) for col in columns]
    if any(len(c) != len(cols[0]) for c in cols):
        raise InputError("non-rectangular matrix")
    ground = tuple(labels) if labels is not None else tuple(range(1, len(cols) + 1))
    if len(ground) != len(cols):
        raise InputError("label count does not match column count")
    # the rank of the columns taken as rows is their column rank
    rank = rank_int(cols)
    ranked = sum(comb(len(cols), size) for size in range(1, rank + 2))
    check_enumeration("a rank-%d matrix of %d columns" % (rank, len(cols)), "column subsets to rank", ranked)
    independent = {0}
    dependent = []

    def walk(chosen, basis, start):
        for j in range(start, len(cols)):
            cand = chosen | 1 << j
            row = echelon_residue(cols[j], basis) if len(basis) < rank else None
            if row:
                independent.add(cand)
                walk(cand, basis + [row], j + 1)
            else:
                dependent.append(cand)

    walk(0, [], 0)
    return Matroid.from_masks(
        ground, [c for c in dependent if all(c ^ 1 << i in independent for i in bits(c))]
    )


def direct_sum(parts):
    """Direct sum; ground sets are relabeled 1..n in block order to stay disjoint."""
    masks = []
    offset = 0
    ranks = 0
    for part in parts:
        masks.extend(m << offset for m in part.circuit_masks)
        offset += len(part.ground)
        ranks += part.rank
    m = Matroid.from_masks(range(1, offset + 1), masks)
    assert m.rank == ranks
    return m


def parse_rational(value, field):
    """Exact rational from a JSON number or a 'p/q' string; InputError names the field."""
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise InputError("field %r: %r is not an exact rational (use 'p/q')" % (field, value))


def _int_field(spec, key):
    value = spec[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError("field %r must be an integer, got %r" % (key, value))
    return value


def _rows_of_scalars(value, field):
    """A JSON list of lists of scalars (numbers, strings), else InputError."""
    if not isinstance(value, list) or not all(
        isinstance(row, list) and not any(isinstance(v, (list, dict)) for v in row) for row in value
    ):
        raise InputError("field %r must be a list of lists of scalars" % field)
    return value


def build_matroid(spec):
    """Dispatch a construction description dict (the CLI payload schema)."""
    kind = spec.get("type")
    if kind == "uniform":
        return uniform_matroid(_int_field(spec, "p"), _int_field(spec, "n"))
    if kind == "circuits":
        circuits = _rows_of_scalars(spec["circuits"], "circuits")
        return circuit_matroid(_int_field(spec, "n"), circuits)
    if kind == "graphic":
        edges = [tuple(e) for e in _rows_of_scalars(spec["edges"], "edges")]
        widths = {len(e) for e in edges}
        if widths == {3}:
            return graphic_matroid([(u, v) for _, u, v in edges], [lab for lab, _, _ in edges])
        if widths - {2}:
            raise InputError("edges must all be [u, v] or all be [label, u, v]")
        return graphic_matroid(edges)
    if kind == "linear":
        rows = [
            [parse_rational(v, "matrix[%d]" % i) for v in row]
            for i, row in enumerate(_rows_of_scalars(spec["matrix"], "matrix"))
        ]
        if not rows:
            raise InputError("empty matrix")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise InputError("non-rectangular matrix")
        cols = [[rows[i][j] for i in range(len(rows))] for j in range(width)]
        return linear_matroid(cols)
    if kind == "direct_sum":
        parts = spec["parts"]
        if not isinstance(parts, list) or not all(isinstance(p, dict) for p in parts):
            raise InputError("field 'parts' must be a list of matroid payloads")
        return direct_sum([build_matroid(p) for p in parts])
    raise InputError("unknown matroid construction %r" % (kind,))


# -- graph cycle enumeration --------------------------------------------------


def simple_cycle_edge_sets(edges):
    """Edge sets of all simple cycles of a multigraph, as masks over edge positions.

    edges is a list of (u, v).  The cycle space is the GF(2) kernel of the
    incidence map: each edge's vector (the bits of its two end vertices,
    0 for a self-loop) is reduced against the pivots of earlier edges,
    carrying the mask of edges combined, and an edge whose vector reduces
    to 0 contributes that mask as a basis cycle.  Every simple cycle is an
    XOR combination of basis cycles, walked in Gray-code order: one basis
    cycle XOR-ed in per step.  A cycle-space element has even degrees, so
    it is a simple cycle iff it is connected and touches as many vertices
    as it has edges; one with more edges than the graph has vertices is
    skipped.  Self-loops and parallel edges yield 1- and 2-element
    circuits.  The walk's 2^d * |V| edge tests are checked against
    CYCLE_WALK_LIMIT before it starts.
    """
    vertex = {}
    pivots = {}  # leading vertex bit -> (reduced vector, edge mask)
    ends = []  # the vertex mask of each edge
    basis = []
    for i, (u, v) in enumerate(edges):
        vec = 1 << vertex.setdefault(u, len(vertex)) ^ 1 << vertex.setdefault(v, len(vertex))
        ends.append(1 << vertex[u] | 1 << vertex[v])
        mask = 1 << i
        while vec:
            top = vec.bit_length() - 1
            if top not in pivots:
                pivots[top] = (vec, mask)
                break
            pivot_vec, pivot_mask = pivots[top]
            vec ^= pivot_vec
            mask ^= pivot_mask
        else:
            basis.append(mask)
    nverts = len(vertex)
    tests = (1 << len(basis)) * nverts
    if tests > CYCLE_WALK_LIMIT:
        raise BoundError(
            "cycle walk needs 2^%d x %d vertices = %d edge tests, limit %d"
            % (len(basis), nverts, tests, CYCLE_WALK_LIMIT)
        )
    cycles = []
    mask = 0
    for step in range(1, 1 << len(basis)):
        mask ^= basis[(step & -step).bit_length() - 1]
        size = mask.bit_count()
        if size > nverts:
            continue
        unions = connected_unions([ends[i] for i in bits(mask)])
        if len(unions) == 1 and unions[0].bit_count() == size:
            cycles.append(mask)
    return sorted(cycles)
