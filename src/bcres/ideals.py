"""Monomial ideals: Stanley-Reisner, broken-circuit and facet ideals, colon
ideals, quotient linearity search, complete-intersection test, polarization,
degree components and powers.

Monomials are dense exponent tuples over the ideal's named variables;
generator lists are kept minimal (no generator divides another) under
every operation, since all the linearity criteria are phrased on minimal
generators.
"""

from itertools import combinations, combinations_with_replacement

from .complexes import complex_from_nonfaces
from .errors import InputError

EXHAUSTIVE_QUOTIENT_LIMIT = 9
_COPY_SUFFIX = "abcdefghijklmnopqrstuvwxyz"


class Monomial:
    """Monomial as a dense exponent tuple; index i belongs to the ideal's i-th variable."""

    __slots__ = ("exps", "degree")

    def __init__(self, exps):
        exps = tuple(int(e) for e in exps)
        if any(e < 0 for e in exps):
            raise InputError("negative exponent")
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "degree", sum(exps))

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        return "Monomial(%r)" % (self.exps,)

    def divides(self, other):
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def lcm(self, other):
        return Monomial(tuple(max(a, b) for a, b in zip(self.exps, other.exps)))

    def gcd(self, other):
        return Monomial(tuple(min(a, b) for a, b in zip(self.exps, other.exps)))

    def mul(self, other):
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def div(self, other):
        if not other.divides(self):
            raise InputError("inexact monomial division")
        return Monomial(tuple(a - b for a, b in zip(self.exps, other.exps)))

    @property
    def support(self):
        return frozenset(i for i, e in enumerate(self.exps) if e)

    @property
    def is_squarefree(self):
        return all(e <= 1 for e in self.exps)

    @property
    def is_one(self):
        return self.degree == 0

    def render(self, names):
        if self.is_one:
            return "1"
        parts = []
        for i, e in enumerate(self.exps):
            if e == 1:
                parts.append(names[i])
            elif e > 1:
                parts.append("%s^%d" % (names[i], e))
        return "*".join(parts)


def _word(m):
    """Variable indices with multiplicity; gives the conventional generator order."""
    return tuple(i for i, e in enumerate(m.exps) for _ in range(e))


def minimalize(monomials):
    """Minimal generators: drop every monomial divisible by another."""
    by_degree = sorted(set(monomials), key=lambda m: (m.degree, _word(m)))
    keep = []
    lower = 0  # keep[:lower] are the kept monomials of lower degree than m
    for m in by_degree:
        while lower < len(keep) and keep[lower].degree < m.degree:
            lower += 1
        # a distinct monomial of the same degree never divides m
        if not any(k.divides(m) for k in keep[:lower]):
            keep.append(m)
    return tuple(keep)


class MonomialIdeal:
    """Finitely generated monomial ideal with an eagerly minimalized generator list."""

    __slots__ = ("names", "gens")

    def __init__(self, names, generators):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise InputError("duplicate variable names")
        gens = []
        for g in generators:
            if not isinstance(g, Monomial):
                g = Monomial(g)
            if len(g.exps) != len(names):
                raise InputError("generator arity does not match variable count")
            gens.append(g)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "gens", minimalize(gens))

    def __setattr__(self, name, value):
        raise AttributeError("MonomialIdeal is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.names == other.names
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.names, self.gens))

    def __repr__(self):
        return "MonomialIdeal(%s)" % self.render()

    def render(self):
        if not self.gens:
            return "(0)"
        return "(%s)" % ", ".join(g.render(self.names) for g in self.gens)

    @property
    def nvars(self):
        return len(self.names)

    @property
    def is_zero(self):
        return not self.gens

    @property
    def is_unit(self):
        return any(g.is_one for g in self.gens)

    @property
    def squarefree(self):
        return all(g.is_squarefree for g in self.gens)

    def indeg(self):
        return min((g.degree for g in self.gens), default=None)

    def maxdeg(self):
        return max((g.degree for g in self.gens), default=None)

    def contains(self, monomial):
        return any(g.divides(monomial) for g in self.gens)

    def support_masks(self):
        out = []
        for g in self.gens:
            m = 0
            for i in g.support:
                m |= 1 << i
            out.append(m)
        return out

    def monomials_of_degree(self, d):
        """All degree-d monomials of the ideal (dense enumeration; small d and nvars only)."""
        out = []
        for exps in _compositions(d, self.nvars):
            m = Monomial(exps)
            if self.contains(m):
                out.append(m)
        return out


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def ideal_from_supports(names, supports):
    """Squarefree ideal generated by the given variable-index sets."""
    names = tuple(names)
    gens = []
    for s in supports:
        exps = [0] * len(names)
        for i in s:
            exps[i] = 1
        gens.append(Monomial(exps))
    return MonomialIdeal(names, gens)


def var_name(label):
    """Variable name for a complex vertex; string vertices are already names."""
    return label if isinstance(label, str) else "x%s" % (label,)


def stanley_reisner_ideal(complex_):
    """Squarefree ideal of the minimal non-faces of a complex."""
    names = tuple(var_name(v) for v in complex_.vertices)
    verts = complex_.vertices
    if complex_.is_void:
        return MonomialIdeal(names, [Monomial((0,) * len(names))])  # unit ideal
    nonfaces = []
    for size in range(1, len(verts) + 1):
        for sub in combinations(verts, size):
            s = frozenset(sub)
            if any(nf <= s for nf in nonfaces):
                continue
            if not complex_.has_face(s):
                nonfaces.append(s)
    index = {v: i for i, v in enumerate(verts)}
    return ideal_from_supports(names, [{index[v] for v in nf} for nf in nonfaces])


def broken_circuit_ideal(matroid, order=None):
    """Stanley-Reisner ideal of the broken-circuit complex, straight from the
    minimal broken circuits (its minimal nonfaces), one variable per element."""
    index = {e: i for i, e in enumerate(matroid.ground)}
    return ideal_from_supports(
        [var_name(e) for e in matroid.ground],
        [{index[e] for e in b} for b in matroid.broken_circuits(order)],
    )


def facet_ideal(complex_):
    """Squarefree ideal generated by the facets."""
    names = tuple(var_name(v) for v in complex_.vertices)
    index = {v: i for i, v in enumerate(complex_.vertices)}
    return ideal_from_supports(names, [{index[v] for v in f} for f in complex_.facets])


def complex_of_ideal(ideal):
    """Stanley-Reisner correspondence inverse: faces are the squarefree monomials not in the ideal."""
    if not ideal.squarefree:
        raise InputError("Stanley-Reisner complexes need a squarefree ideal")
    vertices = ideal.names
    return complex_from_nonfaces(
        vertices, [frozenset(ideal.names[i] for i in g.support) for g in ideal.gens]
    )


def colon_ideal(ideal, monomial):
    """(I : m), generated by g / gcd(g, m) over the generators g."""
    if not isinstance(monomial, Monomial):
        monomial = Monomial(monomial)
    if len(monomial.exps) != ideal.nvars:
        raise InputError("monomial arity mismatch")
    return MonomialIdeal(ideal.names, [g.div(g.gcd(monomial)) for g in ideal.gens])


def complete_intersection_check(ideal):
    """Monomial complete intersection: minimal generators with pairwise disjoint supports."""
    masks = ideal.support_masks()
    return all(a & b == 0 for a, b in combinations(masks, 2))


def polarize(ideal):
    """Betti-preserving squarefree reduction: exponent k of a variable becomes k copies.

    Variables with top exponent 1 keep their name; higher ones get letter
    suffixes (x^2 -> xa*xb).  Squarefree ideals come back unchanged.
    """
    if ideal.squarefree:
        return ideal
    tops = [max((g.exps[i] for g in ideal.gens), default=0) for i in range(ideal.nvars)]
    tops = [max(t, 1) for t in tops]
    if max(tops) > len(_COPY_SUFFIX):
        raise InputError("polarization exponent above %d" % len(_COPY_SUFFIX))
    names = []
    slot = []  # slot[i] = first new index for copies of variable i
    for i, name in enumerate(ideal.names):
        slot.append(len(names))
        if tops[i] == 1:
            names.append(name)
        else:
            names.extend("%s%s" % (name, _COPY_SUFFIX[k]) for k in range(tops[i]))
    gens = []
    for g in ideal.gens:
        exps = [0] * len(names)
        for i, e in enumerate(g.exps):
            for k in range(e):
                exps[slot[i] + k] = 1
        gens.append(Monomial(exps))
    return MonomialIdeal(names, gens)


def component_ideal(ideal, d):
    """Ideal generated by every degree-d monomial of the ideal."""
    if d < 0:
        raise InputError("degree must be nonnegative")
    return MonomialIdeal(ideal.names, ideal.monomials_of_degree(d))


def power_ideal(ideal, k):
    """Minimal generators of the k-th power."""
    if k < 1:
        raise InputError("power must be >= 1")
    if ideal.is_zero:
        return ideal
    products = set()
    for combo in combinations_with_replacement(ideal.gens, k):
        m = combo[0]
        for g in combo[1:]:
            m = m.mul(g)
        products.add(m)
    return MonomialIdeal(ideal.names, products)


# -- linear quotients ---------------------------------------------------------


def _colon_generated_linearly(prefix, nxt, graded):
    """True when ((prefix) : nxt) is generated in degree 1 (graded: has indeg 1)."""
    if not prefix:
        return True
    quotients = minimalize([g.div(g.gcd(nxt)) for g in prefix])
    if graded:
        return quotients[0].degree == 1
    return all(q.degree == 1 for q in quotients)


def _exhaustive_quotient_order(gens, graded):
    """DFS over prefix sets: whether some ordering makes every colon ideal linear.

    The colon ideal (a_1..a_{l-1} : a_l) depends only on the prefix set,
    so failed prefix sets can be memoized and the search is 2^m, not m!.
    """
    m = len(gens)
    dead = set()

    def extend(chosen_mask, order):
        if len(order) == m:
            return list(order)
        if chosen_mask in dead:
            return None
        prefix = [gens[i] for i in range(m) if chosen_mask >> i & 1]
        for i in range(m):
            if chosen_mask >> i & 1:
                continue
            if _colon_generated_linearly(prefix, gens[i], graded):
                order.append(i)
                got = extend(chosen_mask | (1 << i), order)
                if got is not None:
                    return got
                order.pop()
        dead.add(chosen_mask)
        return None

    return extend(0, [])


def _greedy_quotient_order(gens, graded):
    """Smallest-degree-first greedy with single-level backtracking; may be inconclusive."""
    m = len(gens)
    ranked = sorted(range(m), key=lambda i: (gens[i].degree, gens[i].exps))
    order = []
    chosen = set()
    for step in range(m):
        prefix = [gens[i] for i in order]
        placed = False
        for i in ranked:
            if i in chosen:
                continue
            if _colon_generated_linearly(prefix, gens[i], graded):
                # single-level lookahead: some continuation must exist
                if step == m - 1 or any(
                    j not in chosen
                    and j != i
                    and _colon_generated_linearly(prefix + [gens[i]], gens[j], graded)
                    for j in ranked
                ):
                    order.append(i)
                    chosen.add(i)
                    placed = True
                    break
        if not placed:
            return None
    return order


def quotients_analysis(ideal):
    """Search generator orderings for linear and graded linear quotients.

    Exhaustive (prefix-set DFS) up to EXHAUSTIVE_QUOTIENT_LIMIT generators;
    greedy with backtracking beyond, where a failed search is reported as
    inconclusive rather than absent.
    """
    report = {}
    gens = list(ideal.gens)
    exhaustive = len(gens) <= EXHAUSTIVE_QUOTIENT_LIMIT
    for key, graded in (("linear_quotients", False), ("graded_linear_quotients", True)):
        if len(gens) <= 1:
            report[key] = {
                "status": "found",
                "order": [g.render(ideal.names) for g in gens],
                "order_indices": list(range(len(gens))),
            }
            continue
        if exhaustive:
            order = _exhaustive_quotient_order(gens, graded)
            status = "found" if order is not None else "none"
        else:
            order = _greedy_quotient_order(gens, graded)
            status = "found" if order is not None else "inconclusive"
        report[key] = {
            "status": status,
            "order": [gens[i].render(ideal.names) for i in order] if order is not None else None,
        }
        if order is not None:
            report[key]["order_indices"] = list(order)
    report["search"] = "exhaustive" if exhaustive else "greedy"
    return report


def ordered_colon_ideals(ideal, order_indices):
    """The successive colon ideals J_l for a given generator order (l >= 2)."""
    gens = [ideal.gens[i] for i in order_indices]
    out = []
    for l in range(1, len(gens)):
        out.append(MonomialIdeal(ideal.names, [g.div(g.gcd(gens[l])) for g in gens[:l]]))
    return out
