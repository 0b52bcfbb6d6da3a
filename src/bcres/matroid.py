"""Matroids in circuit normal form.

A matroid is stored as an ordered ground tuple plus the antichain of its
circuits (minimal dependent sets).  Every construction route (uniform,
explicit circuits, graphic, linear over the rationals, direct sums)
normalizes to this form; rank, minors, duality, connectivity, Tutte
polynomials and independence counts are all computed from it.
"""

import random
from fractions import Fraction
from itertools import combinations

from .errors import BoundError, CircuitAxiomError, InputError, LoopError
from .linalg import column_rank
from .util import antichain_minimal, bits, minimal_transversals, sorted_sets

ELIMINATION_EXHAUSTIVE_LIMIT = 12
ELIMINATION_SAMPLES = 1000
CYCLE_SPACE_LIMIT = 20


class TuttePolynomial:
    """Two-variable integer polynomial, stored as {(x_exp, y_exp): coeff}."""

    def __init__(self, coeffs=None):
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v}

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    def shifted(self, dx, dy):
        return TuttePolynomial({(i + dx, j + dy): c for (i, j), c in self.coeffs.items()})

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

    def __eq__(self, other):
        return isinstance(other, TuttePolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

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


class Matroid:
    """Immutable matroid on an ordered ground set, normalized to its circuit list."""

    __slots__ = ("ground", "circuits", "rank", "origin", "_pos", "_masks", "_by_elem")

    def __init__(self, ground, circuits, origin="circuits", validate=True):
        ground = tuple(ground)
        if len(set(ground)) != len(ground):
            raise InputError("duplicate element labels in %r" % (ground,))
        known = set(ground)
        normalized = []
        for c in circuits:
            cs = frozenset(c)
            if not cs:
                raise InputError("empty circuit")
            if not cs <= known:
                raise InputError("circuit %r uses unknown labels" % (sorted(c),))
            normalized.append(cs)
        normalized = list(set(normalized))
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "circuits", sorted_sets(normalized))
        object.__setattr__(self, "origin", origin)
        pos = {e: i for i, e in enumerate(ground)}
        object.__setattr__(self, "_pos", pos)
        masks = tuple(self._mask(c) for c in self.circuits)
        object.__setattr__(self, "_masks", masks)
        by_elem = {e: [] for e in ground}
        for c, m in zip(self.circuits, masks):
            for e in c:
                by_elem[e].append(m)
        object.__setattr__(self, "_by_elem", by_elem)
        if validate:
            self._check_antichain()
            self._check_elimination()
        object.__setattr__(self, "rank", self._greedy_rank(ground))
        if validate and self._greedy_rank(tuple(reversed(ground))) != self.rank:
            raise InputError("greedy ranks disagree; circuit family is not a matroid")

    def __setattr__(self, name, value):
        raise AttributeError("Matroid is immutable")

    # -- construction checks ---------------------------------------------

    def _check_antichain(self):
        for a, b in combinations(self.circuits, 2):
            if a <= b or b <= a:
                raise InputError("circuits %r and %r are nested" % (sorted(a), sorted(b)))

    def _check_elimination(self):
        pairs = [
            (a, b)
            for a, b in combinations(range(len(self.circuits)), 2)
            if self.circuits[a] & self.circuits[b]
        ]
        if len(self.ground) > ELIMINATION_EXHAUSTIVE_LIMIT and len(pairs) > ELIMINATION_SAMPLES:
            rng = random.Random(0)
            pairs = rng.sample(pairs, ELIMINATION_SAMPLES)
        for ia, ib in pairs:
            c1, c2 = self.circuits[ia], self.circuits[ib]
            for e in c1 & c2:
                target = (c1 | c2) - {e}
                tm = self._mask(target)
                if not any(m & tm == m for m in self._masks):
                    raise CircuitAxiomError(c1, c2, e)

    # -- basic queries -----------------------------------------------------

    def _mask(self, items):
        m = 0
        for e in items:
            m |= 1 << self._pos[e]
        return m

    def _independent_mask(self, mask):
        return not any(c & mask == c for c in self._masks)

    def is_independent(self, subset):
        return self._independent_mask(self._mask(self._validated(subset)))

    def _validated(self, subset):
        subset = set(subset)
        for e in subset:
            if e not in self._pos:
                raise InputError("unknown element label %r" % (e,))
        return subset

    def _greedy_rank(self, order, subset=None):
        allowed = self._mask(subset) if subset is not None else (1 << len(self.ground)) - 1
        mask = 0
        count = 0
        for e in order:
            bit = 1 << self._pos[e]
            if not allowed & bit:
                continue
            cand = mask | bit
            if not any(m & cand == m for m in self._by_elem[e]):
                mask = cand
                count += 1
        return count

    def rank_of(self, subset):
        """Rank of a subset: size of any maximal independent subset of it."""
        subset = self._validated(subset)
        return self._greedy_rank(self.ground, subset)

    @property
    def size(self):
        return len(self.ground)

    @property
    def is_loopless(self):
        return all(len(c) >= 2 for c in self.circuits)

    @property
    def is_simple(self):
        return all(len(c) >= 3 for c in self.circuits)

    def loops(self):
        return frozenset(e for c in self.circuits if len(c) == 1 for e in c)

    def coloops(self):
        return frozenset(e for e in self.ground if not self._by_elem[e])

    def __eq__(self, other):
        return (
            isinstance(other, Matroid)
            and self.ground == other.ground
            and self.circuits == other.circuits
        )

    def __hash__(self):
        return hash((self.ground, self.circuits))

    def __repr__(self):
        return "Matroid(n=%d, r=%d, circuits=%s, origin=%s)" % (
            len(self.ground),
            self.rank,
            [sorted(c) for c in self.circuits],
            self.origin,
        )

    # -- broken circuits ---------------------------------------------------

    def broken_circuits(self, order=None, minimal=True):
        """Broken circuits C - min(C) under the given element order.

        With minimal=True (the default used for ideal generation) only the
        inclusion-minimal broken circuits are returned; otherwise the full
        deduplicated family.
        """
        order = normalize_order(self, order)
        if not self.is_loopless:
            raise LoopError("broken circuits need a loopless matroid")
        rank_in_order = {e: i for i, e in enumerate(order)}
        bcs = [c - {min(c, key=rank_in_order.get)} for c in self.circuits]
        if minimal:
            return sorted_sets(antichain_minimal(bcs))
        return sorted_sets(set(bcs))

    # -- minors, duals, sums ------------------------------------------------

    def restrict(self, subset):
        """Restriction X|S: circuits of X contained in S, ground order inherited."""
        subset = self._validated(subset)
        ground = tuple(e for e in self.ground if e in subset)
        circuits = [c for c in self.circuits if c <= subset]
        return Matroid(ground, circuits, origin=self.origin, validate=False)

    def delete(self, subset):
        subset = self._validated(subset)
        return self.restrict(set(self.ground) - subset)

    def contract(self, subset):
        """Contraction X/T: minimal nonempty traces C - T of circuits of X."""
        subset = self._validated(subset)
        ground = tuple(e for e in self.ground if e not in subset)
        traces = [c - subset for c in self.circuits if c - subset]
        return Matroid(ground, antichain_minimal(traces), origin=self.origin, validate=False)

    def minor(self, deleted=(), contracted=()):
        deleted = self._validated(deleted)
        contracted = self._validated(contracted)
        if deleted & contracted:
            raise InputError("deletion and contraction sets overlap: %r" % sorted(deleted & contracted))
        return self.delete(deleted).contract(contracted)

    def bases(self):
        """All maximal independent sets, as frozensets."""
        out = []
        n = len(self.ground)
        r = self.rank

        def extend(start, mask, chosen):
            if len(chosen) == r:
                out.append(frozenset(chosen))
                return
            for i in range(start, n):
                if n - i < r - len(chosen):
                    break
                e = self.ground[i]
                bit = 1 << i
                cand = mask | bit
                if not any(m & cand == m for m in self._by_elem[e]):
                    chosen.append(e)
                    extend(i + 1, cand, chosen)
                    chosen.pop()

        extend(0, 0, [])
        return sorted_sets(out)

    def dual(self):
        """Dual matroid: bases are the complements of bases; involutive."""
        # a set is dependent in the dual iff it meets every basis, so the
        # dual circuits are the minimal transversals of the basis family
        cocircuits = minimal_transversals([self._mask(b) for b in self.bases()])
        cocircuits = [[self.ground[i] for i in bits(t)] for t in cocircuits]
        return Matroid(self.ground, cocircuits, origin="dual", validate=False)

    def components_and_coloops(self):
        """Connected components (transitive closure of circuit co-membership) and coloops."""
        parent = {e: e for e in self.ground}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for c in self.circuits:
            it = iter(c)
            first = find(next(it))
            for e in it:
                parent[find(e)] = first
        comps = {}
        for e in self.ground:
            comps.setdefault(find(e), []).append(e)
        partition = sorted_sets(frozenset(v) for v in comps.values())
        return partition, self.coloops()

    def independence_profile(self):
        """Counts (I_0, ..., I_r) of independent subsets by size."""
        counts = [0] * (self.rank + 1)
        n = len(self.ground)

        def extend(start, mask, depth):
            counts[depth] += 1
            for i in range(start, n):
                e = self.ground[i]
                bit = 1 << i
                cand = mask | bit
                if not any(m & cand == m for m in self._by_elem[e]):
                    extend(i + 1, cand, depth + 1)

        extend(0, 0, 0)
        return tuple(counts)

    def tutte_polynomial(self):
        """Tutte polynomial by deletion-contraction with memoization on canonical circuit form."""
        memo = {}

        def key(m):
            pos = {e: i for i, e in enumerate(m.ground)}
            return (
                len(m.ground),
                tuple(sorted(tuple(sorted(pos[e] for e in c)) for c in m.circuits)),
            )

        def rec(m):
            if not m.ground:
                return TuttePolynomial.one()
            k = key(m)
            got = memo.get(k)
            if got is not None:
                return got
            e = m.ground[0]
            if frozenset((e,)) in m.circuits:
                result = rec(m.delete({e})).shifted(0, 1)
            elif not m._by_elem[e]:
                result = rec(m.delete({e})).shifted(1, 0)
            else:
                result = rec(m.delete({e})) + rec(m.contract({e}))
            memo[k] = result
            return result

        return rec(self)


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


def uniform_matroid(p, n, labels=None):
    """U_{p,n}: independents are the subsets of size at most p."""
    if not 0 <= p <= n:
        raise InputError("uniform matroid needs 0 <= p <= n")
    ground = tuple(labels) if labels is not None else tuple(range(1, n + 1))
    if len(ground) != n:
        raise InputError("label count does not match n")
    circuits = [] if p == n else list(combinations(ground, p + 1))
    return Matroid(ground, circuits, origin="uniform", validate=False)


def circuit_matroid(n, circuits, labels=None):
    """Matroid from an explicit circuit family on labels 1..n (validated)."""
    ground = tuple(labels) if labels is not None else tuple(range(1, n + 1))
    return Matroid(ground, circuits, origin="circuits", validate=True)


def graphic_matroid(edges, labels=None):
    """Cycle matroid of a graph given as a list of vertex pairs."""
    edges = list(edges)
    if labels is None:
        labels = tuple(range(1, len(edges) + 1))
    labels = tuple(labels)
    if len(labels) != len(edges):
        raise InputError("edge label count mismatch")
    cycles = simple_cycle_edge_sets([(lab, u, v) for lab, (u, v) in zip(labels, edges)])
    return Matroid(labels, cycles, origin="graphic", validate=False)


def linear_matroid(columns, labels=None):
    """Matroid of rational column vectors: circuits are minimal dependent column sets."""
    cols = [tuple(Fraction(v) for v in col) for col in columns]
    if not cols:
        return Matroid((), (), origin="linear", validate=False)
    height = len(cols[0])
    if any(len(c) != height for c in cols):
        raise InputError("non-rectangular matrix")
    ground = tuple(labels) if labels is not None else tuple(range(1, len(cols) + 1))
    if len(ground) != len(cols):
        raise InputError("label count does not match column count")
    by_label = dict(zip(ground, cols))
    circuits = []
    for size in range(1, len(ground) + 1):
        for sub in combinations(ground, size):
            ss = set(sub)
            if any(c <= ss for c in circuits):
                continue
            if column_rank([by_label[e] for e in sub]) < size:
                circuits.append(frozenset(sub))
    return Matroid(ground, circuits, origin="linear", validate=False)


def direct_sum(parts):
    """Direct sum; ground sets are relabeled 1..n in block order to stay disjoint."""
    ground = []
    circuits = []
    offset = 0
    ranks = 0
    for part in parts:
        relabel = {e: offset + i + 1 for i, e in enumerate(part.ground)}
        ground.extend(relabel[e] for e in part.ground)
        circuits.extend(frozenset(relabel[e] for e in c) for c in part.circuits)
        offset += len(part.ground)
        ranks += part.rank
    m = Matroid(tuple(ground), circuits, origin="direct-sum", validate=False)
    assert m.rank == ranks
    return m


def build_matroid(spec):
    """Dispatch a construction description dict (the CLI payload schema)."""
    kind = spec.get("type")
    if kind == "uniform":
        return uniform_matroid(spec["p"], spec["n"])
    if kind == "circuits":
        return circuit_matroid(spec["n"], [frozenset(c) for c in spec["circuits"]])
    if kind == "graphic":
        edges = [tuple(e) for e in spec["edges"]]
        if edges and len(edges[0]) == 3:
            return graphic_matroid([(u, v) for _, u, v in edges], [lab for lab, _, _ in edges])
        return graphic_matroid(edges)
    if kind == "linear":
        rows = [[Fraction(str(v)) for v in row] for row in spec["matrix"]]
        if not rows:
            raise InputError("empty matrix")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise InputError("non-rectangular matrix")
        cols = [[rows[i][j] for i in range(len(rows))] for j in range(width)]
        return linear_matroid(cols)
    if kind == "direct_sum":
        return direct_sum([build_matroid(p) for p in spec["parts"]])
    raise InputError("unknown matroid construction %r" % (kind,))


# -- graph cycle enumeration --------------------------------------------------


def simple_cycle_edge_sets(labeled_edges):
    """Edge sets of all simple cycles of a multigraph.

    labeled_edges is a list of (label, u, v).  Every simple cycle is an
    XOR combination of fundamental cycles of a spanning forest, so the
    combinations are enumerated and filtered down to connected 2-regular
    edge sets.  Self-loops and parallel edges yield 1- and 2-element
    circuits.
    """
    index = {lab: i for i, (lab, _, _) in enumerate(labeled_edges)}
    parent = {}

    def find(a):
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    tree = []
    nontree = []
    adjacency = {}
    for lab, u, v in labeled_edges:
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.append((lab, u, v))
            adjacency.setdefault(u, []).append((v, lab))
            adjacency.setdefault(v, []).append((u, lab))
        else:
            nontree.append((lab, u, v))
    if len(nontree) > CYCLE_SPACE_LIMIT:
        raise BoundError(
            "cycle space dimension %d exceeds limit %d" % (len(nontree), CYCLE_SPACE_LIMIT)
        )

    def tree_path(u, v):
        if u == v:
            return []
        seen = {u: None}
        queue = [u]
        while queue:
            cur = queue.pop(0)
            for nxt, lab in adjacency.get(cur, ()):
                if nxt not in seen:
                    seen[nxt] = (cur, lab)
                    if nxt == v:
                        path = []
                        node = v
                        while seen[node] is not None:
                            prev, lab2 = seen[node]
                            path.append(lab2)
                            node = prev
                        return path
                    queue.append(nxt)
        raise AssertionError("spanning forest misses a path")

    fundamentals = []
    for lab, u, v in nontree:
        mask = 1 << index[lab]
        for plab in tree_path(u, v):
            mask |= 1 << index[plab]
        fundamentals.append(mask)

    ends = {index[lab]: (u, v) for lab, u, v in labeled_edges}
    label_of = {index[lab]: lab for lab, _, _ in labeled_edges}
    cycles = set()
    for combo in range(1, 1 << len(fundamentals)):
        mask = 0
        c = combo
        i = 0
        while c:
            if c & 1:
                mask ^= fundamentals[i]
            c >>= 1
            i += 1
        if not mask or mask in cycles:
            continue
        degree = {}
        verts = set()
        bit = mask
        pos = 0
        ok = True
        while bit:
            if bit & 1:
                u, v = ends[pos]
                degree[u] = degree.get(u, 0) + 1
                degree[v] = degree.get(v, 0) + 1
                verts.add(u)
                verts.add(v)
            bit >>= 1
            pos += 1
        if any(d != 2 for d in degree.values()):
            ok = False
        if ok:
            # connectivity over the chosen edges
            chosen = [ends[p] for p in range(len(labeled_edges)) if mask >> p & 1]
            seen = {chosen[0][0]}
            changed = True
            while changed:
                changed = False
                for u, v in chosen:
                    if (u in seen) != (v in seen):
                        seen.update((u, v))
                        changed = True
            ok = verts <= seen
        if ok:
            cycles.add(mask)
    out = []
    for mask in cycles:
        out.append(frozenset(label_of[p] for p in range(len(labeled_edges)) if mask >> p & 1))
    return sorted_sets(out)
