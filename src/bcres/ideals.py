"""Monomial ideals: Stanley-Reisner, broken-circuit and facet ideals, colon
ideals, quotient linearity search, complete-intersection test, polarization,
degree components and powers.

Monomials are dense exponent tuples over the ideal's named variables;
generator lists are kept minimal (no generator divides another) under
every operation, since all the linearity criteria are phrased on minimal
generators.
"""

from functools import cache
from itertools import combinations_with_replacement

from .complexes import complex_from_nonfaces
from .errors import InputError
from .util import Frozen, binom, bits, check_enumeration, pairwise_disjoint

EXHAUSTIVE_QUOTIENT_LIMIT = 9
_COPY_SUFFIX = "abcdefghijklmnopqrstuvwxyz"


class Monomial(Frozen):
    """Monomial as a dense exponent tuple; index i belongs to the ideal's i-th variable."""

    __slots__ = ("exps", "degree")

    def __init__(self, exps):
        exps = tuple(int(e) for e in exps)
        if any(e < 0 for e in exps):
            raise InputError("negative exponent")
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "degree", sum(exps))

    def _identity(self):
        return self.exps  # the degree is their sum

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


class MonomialIdeal(Frozen):
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
        """All degree-d monomials of the ideal, by listing the C(d + n - 1, d) exponent vectors."""
        check_enumeration("degree %d on %d variables" % (d, self.nvars), "monomials", binom(d + self.nvars - 1, d))
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
    """Squarefree ideal of the minimal nonfaces of a complex (a void complex
    gives the unit ideal)."""
    return ideal_from_supports(
        [var_name(v) for v in complex_.vertices], [bits(t) for t in complex_.nonface_masks]
    )


def broken_circuit_ideal(matroid, order=None):
    """Stanley-Reisner ideal of the broken-circuit complex, straight from the
    minimal broken circuits (its minimal nonfaces), one variable per element."""
    return ideal_from_supports(
        [var_name(e) for e in matroid.ground],
        [bits(b) for b in matroid.broken_circuit_masks(order)],
    )


def facet_ideal(complex_):
    """Squarefree ideal generated by the facets."""
    return ideal_from_supports(
        [var_name(v) for v in complex_.vertices], [bits(f) for f in complex_.facet_masks]
    )


def complex_of_ideal(ideal):
    """Stanley-Reisner correspondence inverse: faces are the squarefree monomials not in the ideal."""
    if not ideal.squarefree:
        raise InputError("Stanley-Reisner complexes need a squarefree ideal")
    return complex_from_nonfaces(ideal.names, ideal.support_masks())


def colon_ideal(ideal, monomial):
    """(I : m), generated by g / gcd(g, m) over the generators g."""
    if not isinstance(monomial, Monomial):
        monomial = Monomial(monomial)
    if len(monomial.exps) != ideal.nvars:
        raise InputError("monomial arity mismatch")
    return MonomialIdeal(ideal.names, [g.div(g.gcd(monomial)) for g in ideal.gens])


def complete_intersection_check(ideal):
    """Monomial complete intersection: minimal generators with pairwise disjoint supports."""
    return pairwise_disjoint(ideal.support_masks())


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
    """Minimal generators of the k-th power, from the C(n + k - 1, k) products of k of the n generators."""
    if k < 1:
        raise InputError("power must be >= 1")
    if ideal.is_zero:
        return ideal
    n = len(ideal.gens)
    check_enumeration("power %d of %d generators" % (k, n), "products", binom(n + k - 1, k))
    products = set()
    for combo in combinations_with_replacement(ideal.gens, k):
        m = combo[0]
        for g in combo[1:]:
            m = m.mul(g)
        products.add(m)
    return MonomialIdeal(ideal.names, products)


# -- linear quotients ---------------------------------------------------------


def _colon_generated_linearly(prefix, nxt, graded):
    """True when ((prefix) : nxt) is generated in degree 1 (graded: has indeg 1).

    The colon is generated by q_g = max(g - nxt, 0), never 1 for minimal
    generators.  Its minimal generators are linear iff every q_g is divisible
    by a linear one x_i; it has indeg 1 iff some q_g is linear.
    """
    if not prefix:
        return True
    b = nxt.exps
    supports = []
    linear = set()
    for g in prefix:
        support = [i for i, (a, c) in enumerate(zip(g.exps, b)) if a > c]
        if len(support) == 1 and g.exps[support[0]] - b[support[0]] == 1:
            linear.add(support[0])
        supports.append(support)
    if graded:
        return bool(linear)
    return all(not linear.isdisjoint(support) for support in supports)


def _first_fit_order(gens, candidates, graded):
    """First fit: append the first candidate whose colon is linear (graded: contains a
    variable), or return None when none fits.

    Graded, it is exact when candidates[0] has minimal degree.  Say h -> k when
    h / gcd(h, k) has degree 1: (prefix) : k contains a variable iff some h in the
    prefix has h -> k, so a generator that fits once fits every larger prefix, and an
    order exists iff some root reaches all generators along arrows.  Arrows never lower
    the degree and run both ways between equal degrees, so if there is a root, every
    generator of minimal degree is one, and a walk from it never has to be undone.

    Linear, a miss proves nothing, but a found order is the one _exhaustive_quotient_order
    returns over the same candidates.  That search takes the first candidate that fits
    and has a completion; first fit takes the first that fits, and when it completes,
    the rest of its order completes each choice, so by induction both choose alike.
    """
    order, rest = [], list(candidates)
    while rest:
        prefix = [gens[i] for i in order]
        i = next((i for i in rest if _colon_generated_linearly(prefix, gens[i], graded)), None)
        if i is None:
            return None
        order.append(i)
        rest.remove(i)
    return order


def _exhaustive_quotient_order(gens, candidates):
    """DFS for an order whose colon ideals are all linear, or None; each colon depends
    only on its prefix set, so memoizing on that set makes the search 2^m, not m!."""

    @cache
    def completion(mask):
        if mask == (1 << len(gens)) - 1:
            return ()
        prefix = [gens[i] for i in candidates if mask >> i & 1]
        for i in candidates:
            if not mask >> i & 1 and _colon_generated_linearly(prefix, gens[i], False):
                rest = completion(mask | 1 << i)
                if rest is not None:
                    return (i,) + rest
        return None

    return completion(0)


def quotients_analysis(ideal):
    """Search generator orderings for linear and graded linear quotients.

    The graded walk is exact, and a linear order is a graded one, so the linear walk
    runs only when it finds one; the exhaustive search certifies a linear miss up to
    EXHAUSTIVE_QUOTIENT_LIMIT generators.  Past it any miss, even graded, is inconclusive.
    """
    gens, m = ideal.gens, len(ideal.gens)
    exhaustive = m <= EXHAUSTIVE_QUOTIENT_LIMIT
    # the generators come sorted by degree, so both orders start at a minimal one
    ranked = range(m) if exhaustive else sorted(range(m), key=lambda i: (gens[i].degree, gens[i].exps))
    graded = _first_fit_order(gens, ranked, True)
    linear = None if graded is None else _first_fit_order(gens, ranked, False)
    if linear is None and graded is not None and exhaustive:
        linear = _exhaustive_quotient_order(gens, ranked)
    report = {}
    for key, order in (("linear_quotients", linear), ("graded_linear_quotients", graded)):
        if order is None:
            report[key] = {"status": "none" if exhaustive else "inconclusive", "order": None}
        else:
            rendered = [gens[i].render(ideal.names) for i in order]
            report[key] = {"status": "found", "order": rendered, "order_indices": list(order)}
    report["search"] = "exhaustive" if exhaustive else "greedy"
    return report


def ordered_colon_ideals(ideal, order_indices):
    """The successive colon ideals J_l for a given generator order (l >= 2)."""
    gens = [ideal.gens[i] for i in order_indices]
    out = []
    for l in range(1, len(gens)):
        out.append(MonomialIdeal(ideal.names, [g.div(g.gcd(gens[l])) for g in gens[:l]]))
    return out
