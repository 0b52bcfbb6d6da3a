"""Monomial ideals: Stanley-Reisner, broken-circuit and facet ideals, colon
ideals, quotient linearity search, complete-intersection test, polarization,
degree components and powers.

Generator lists are kept minimal (no generator divides another) under
every operation, since all the linearity criteria are phrased on minimal
generators.  A squarefree monomial is a vertex subset, so a squarefree
ideal is held as the support masks of its minimal generators (bit i =
variable i), and any other ideal as their exponent tuples.  Every ideal
reads the same way through exponents(), dense exponent tuples over its
named variables, and polarize, powers and degree components I_<d> are
built from that view.  Polarization is the one path from exponents to
masks: colon ideals of a squarefree ideal and every quotient walk are mask
operations, the walks on the masks of the polarized ideal.  Monomial is the
API's value type; no ideal stores one, and gens builds them on each read.
"""

from functools import cache
from itertools import combinations_with_replacement, count, islice
from operator import le

from .complexes import complex_from_nonfaces
from .errors import InputError
from .util import Frozen, binom, bits, check_enumeration, minimal_masks, pairwise_disjoint

EXHAUSTIVE_QUOTIENT_LIMIT = 9


class Monomial(Frozen):
    """Monomial as a dense exponent tuple; index i belongs to the ideal's i-th variable."""

    __slots__ = ("exps", "degree")

    def __init__(self, exps):
        object.__setattr__(self, "exps", _exponents_of(exps))
        object.__setattr__(self, "degree", sum(self.exps))

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
        return _is_squarefree(self.exps)

    def render(self, names):
        return _render(self.exps, names)


def _exponents_of(monomial):
    """The exponent tuple of a Monomial, or of a sequence of nonnegative integers."""
    if isinstance(monomial, Monomial):
        return monomial.exps
    exps = tuple(map(int, monomial))
    if any(e < 0 for e in exps):
        raise InputError("negative exponent")
    return exps


def _render(exps, names):
    return "*".join(names[i] if e == 1 else "%s^%d" % (names[i], e) for i, e in enumerate(exps) if e) or "1"


def _word(exps):
    """Variable indices with multiplicity; gives the conventional generator order."""
    return tuple(i for i, e in enumerate(exps) for _ in range(e))


def minimalize(exps):
    """Minimal generators of exponent tuples, in generator order: by degree, then _word;
    every tuple another one divides is dropped."""
    keep = []
    lower = 0  # keep[:lower] are the kept tuples of lower degree than e
    for degree, _, e in sorted((sum(e), _word(e), e) for e in set(exps)):
        while lower < len(keep) and keep[lower][0] < degree:
            lower += 1
        # a distinct tuple of the same degree never divides e
        if not any(all(map(le, k, e)) for _, k in keep[:lower]):
            keep.append((degree, e))
    return tuple(e for _, e in keep)


class MonomialIdeal(Frozen):
    """Finitely generated monomial ideal with an eagerly minimalized generator list.

    Generators are Monomials or exponent sequences.  masks holds the minimal
    generators' supports (bit i = variable i) when every minimal generator is
    squarefree, else None, and _exps then holds their exponent tuples; both
    are set once, at construction.  No slot holds a Monomial: gens builds
    them from exponents() on each read.
    """

    __slots__ = ("names", "masks", "_exps")

    def __init__(self, names, generators):
        names = _checked_names(names)
        exps = [_exponents_of(g) for g in generators]
        if any(len(e) != len(names) for e in exps):
            raise InputError("generator arity does not match variable count")
        if not all(map(_is_squarefree, exps)):
            exps = minimalize(exps)
            if not all(map(_is_squarefree, exps)):
                object.__setattr__(self, "names", names)
                object.__setattr__(self, "masks", None)
                object.__setattr__(self, "_exps", exps)
                return
        self._init(names, map(_support_mask, exps))

    @classmethod
    def from_masks(cls, names, masks):
        """Squarefree ideal generated by the given support masks, without building a Monomial."""
        ideal = object.__new__(cls)
        ideal._init(_checked_names(names), masks)
        return ideal

    def _init(self, names, masks):
        # minimalize's order: by degree, then by the variable indices compared as lists
        keep = sorted(minimal_masks(masks), key=lambda m: (m.bit_count(), bits(m)))
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "masks", tuple(keep))
        object.__setattr__(self, "_exps", None)

    def _identity(self):
        return (self.names, self._exps if self.masks is None else self.masks)

    @property
    def gens(self):
        """Minimal generators as Monomials of exponents(), in minimalize's order, built on each read."""
        return tuple(map(Monomial, self.exponents()))

    def exponents(self):
        """Minimal generators as exponent tuples, in generator order, without building a Monomial."""
        if self.masks is None:
            return list(self._exps)
        n = len(self.names)
        return [tuple(m >> i & 1 for i in range(n)) for m in self.masks]

    def __repr__(self):
        return "MonomialIdeal(%s)" % self.render()

    def render_generators(self):
        """Each minimal generator as text, in generator order."""
        if self.masks is None:
            return [_render(e, self.names) for e in self._exps]
        return ["*".join(self.names[i] for i in bits(m)) or "1" for m in self.masks]

    def render(self):
        if self.is_zero:
            return "(0)"
        return "(%s)" % ", ".join(self.render_generators())

    @property
    def nvars(self):
        return len(self.names)

    @property
    def is_zero(self):
        return self.masks == ()

    @property
    def is_unit(self):
        return self.masks == (0,)  # 1 divides every other generator

    @property
    def squarefree(self):
        return self.masks is not None

    def degrees(self):
        """Generator degrees, in generator order (ascending)."""
        if self.masks is None:
            return [sum(e) for e in self._exps]
        return [m.bit_count() for m in self.masks]

    def indeg(self):
        return self.degrees()[0] if not self.is_zero else None

    def maxdeg(self):
        return self.degrees()[-1] if not self.is_zero else None

    def contains(self, monomial):
        return any(all(map(le, g, monomial.exps)) for g in self.exponents())

    def support_masks(self):
        if self.masks is None:
            return [_support_mask(e) for e in self._exps]
        return list(self.masks)

    def monomials_of_degree(self, d):
        """All degree-d monomials of the ideal, in increasing exponent-tuple order.

        Those of degree t are the degree-t generators and those of degree t - 1
        times one more variable, built up from the initial degree.
        """
        check_enumeration("degree %d on %d variables" % (d, self.nvars), "monomials", binom(d + self.nvars - 1, d))
        if self.is_zero:
            return []
        n = self.nvars
        gens = list(zip(self.degrees(), self.exponents()))
        level = set()
        for t in range(self.indeg(), d + 1):
            level = {e[:i] + (e[i] + 1,) + e[i + 1 :] for e in level for i in range(n)}
            level.update(g for degree, g in gens if degree == t)
        return [Monomial(e) for e in sorted(level)]


def _checked_names(names):
    names = tuple(names)
    if len(set(names)) != len(names):
        raise InputError("duplicate variable names")
    return names


def _support_mask(exps):
    return sum(1 << i for i, e in enumerate(exps) if e)


def _is_squarefree(exps):
    return all(e <= 1 for e in exps)


def ideal_from_supports(names, supports):
    """Squarefree ideal generated by the given variable-index sets."""
    return MonomialIdeal.from_masks(names, [sum(1 << i for i in s) for s in supports])


def var_name(label):
    """Variable name for a complex vertex; string vertices are already names."""
    return label if isinstance(label, str) else "x%s" % (label,)


def stanley_reisner_ideal(complex_):
    """Squarefree ideal of the minimal nonfaces of a complex (a void complex
    gives the unit ideal)."""
    return MonomialIdeal.from_masks([var_name(v) for v in complex_.vertices], complex_.nonface_masks)


def broken_circuit_ideal(matroid, order=None):
    """Stanley-Reisner ideal of the broken-circuit complex, straight from the
    minimal broken circuits (its minimal nonfaces), one variable per element."""
    return MonomialIdeal.from_masks([var_name(e) for e in matroid.ground], matroid.broken_circuit_masks(order))


def facet_ideal(complex_):
    """Squarefree ideal generated by the facets."""
    return MonomialIdeal.from_masks([var_name(v) for v in complex_.vertices], complex_.facet_masks)


def complex_of_ideal(ideal):
    """Stanley-Reisner correspondence inverse: faces are the squarefree monomials not in the ideal."""
    if not ideal.squarefree:
        raise InputError("Stanley-Reisner complexes need a squarefree ideal")
    return complex_from_nonfaces(ideal.names, ideal.support_masks())


def colon_ideal(ideal, monomial):
    """(I : m), generated by g / gcd(g, m) over the generators g."""
    b = _exponents_of(monomial)
    if len(b) != ideal.nvars:
        raise InputError("monomial arity mismatch")
    if ideal.squarefree:  # g / gcd(g, m) keeps the variables of g outside the support of m
        return _colon(ideal.names, ideal.masks, _support_mask(b))
    return _colon(ideal.names, ideal.exponents(), b)


def _colon(names, gens, nxt):
    """((gens) : nxt) on exponent tuples, where g / gcd(g, nxt) is g - min(g, nxt), or on
    support masks, where it is g & ~nxt."""
    if isinstance(nxt, int):
        return MonomialIdeal.from_masks(names, [g & ~nxt for g in gens])
    return MonomialIdeal(names, [tuple(a - min(a, b) for a, b in zip(g, nxt)) for g in gens])


def complete_intersection_check(ideal):
    """Monomial complete intersection: minimal generators with pairwise disjoint supports."""
    return pairwise_disjoint(ideal.support_masks())


def _polarized_tops(exps):
    """The number of copies of each variable in the polarization: max(1, top exponent)."""
    return [max(1, *column) for column in zip(*exps)]


def polarized_nvars(ideal):
    """The variable count of polarize(ideal), without building the polarization."""
    return ideal.nvars if ideal.squarefree else sum(_polarized_tops(ideal.exponents()))


def polarize(ideal):
    """Betti-preserving squarefree reduction: exponent e of a variable becomes e copies.

    A variable with top exponent 1 keeps its name; one with top exponent t > 1 becomes
    t copies, named by it and the first t suffixes a, ..., z, aa, ab, ... that no kept
    name or earlier copy has taken (x^2 -> xa*xb).  Past ENUMERATION_LIMIT variables
    in all it raises BoundError.  Squarefree ideals come back unchanged.
    """
    if ideal.squarefree:
        return ideal
    exps = ideal.exponents()
    tops = _polarized_tops(exps)
    check_enumeration("polarization", "copy variables", sum(tops))
    taken = {name for name, top in zip(ideal.names, tops) if top == 1}
    names, slot = [], []  # slot[i] = first new index for copies of variable i
    for name, top in zip(ideal.names, tops):
        slot.append(len(names))
        if top == 1:
            names.append(name)
        else:
            free = (copy for copy in map(name.__add__, map(_letters, count())) if copy not in taken)
            names.extend(islice(free, top))
            taken.update(names[slot[-1] :])
    # exponent e of variable i becomes the copies slot[i] .. slot[i] + e - 1
    return MonomialIdeal.from_masks(names, [sum(((1 << e) - 1) << s for e, s in zip(g, slot)) for g in exps])


def _letters(k):
    """The k-th word, from 0, of a, ..., z, aa, ab, ..., az, ba, ..."""
    return (_letters(k // 26 - 1) if k >= 26 else "") + "abcdefghijklmnopqrstuvwxyz"[k % 26]


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
    gens = ideal.exponents()
    n = len(gens)
    check_enumeration("power %d of %d generators" % (k, n), "products", binom(n + k - 1, k))
    products = {tuple(map(sum, zip(*combo))) for combo in combinations_with_replacement(gens, k)}
    return MonomialIdeal(ideal.names, products)


# -- linear quotients ---------------------------------------------------------


def _colon_generated_linearly(prefix, nxt, graded):
    """True when ((prefix) : nxt) is generated in degree 1 (graded: has indeg 1), on
    the support masks of a squarefree ideal.

    The colon is generated by q_g = g / gcd(g, nxt), never 1 for minimal generators.
    Its minimal generators are linear iff every q_g is divisible by a linear one x_i;
    it has indeg 1 iff some q_g is linear.  On masks q_g is g & ~nxt, linear when it
    has one bit.  Both tests answer alike on I and on I^pol: if g, h have exponents
    a, b, then g^pol & ~h^pol holds the copies b_i .. a_i - 1 of x_i wherever a_i > b_i.
    Its bit count is deg(g / gcd(g, h)), so it is one bit iff g / gcd(g, h) is a
    variable x_i, and that bit is copy b_i of x_i; it holds copy b_i iff x_i divides
    g / gcd(g, h).
    """
    if not prefix:
        return True
    quotients = [g & ~nxt for g in prefix]
    linear = 0
    for q in quotients:
        if not q & (q - 1):
            linear |= q
    return bool(linear) if graded else all(q & linear for q in quotients)


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
    No walk of polynomially many colon tests decides linear quotients unless P = NP:
    a complex is shellable iff the ideal of its Alexander dual has linear quotients,
    with shelling orders matching quotient orders (Herzog-Hibi-Zheng 2004), and
    shellability of 2-complexes is NP-complete (Goaoc-Patak-Patakova-Tancer-Wagner
    2019).  First fit makes at most m(m + 1)/2, so _exhaustive_quotient_order stays.
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

    The walks run on the masks of I^pol, which keeps each generator's degree and
    minimalize's order (the k-th copy of x_i sorts below every copy of x_j for j > i),
    so generator i of I is generator i of I^pol and both walks return the same indices.
    """
    gens = polarize(ideal).masks
    m = len(gens)
    exhaustive = m <= EXHAUSTIVE_QUOTIENT_LIMIT
    # the generators come sorted by degree, so both orders start at a minimal one; past
    # the limit they are ranked by degree, then exponent tuple: within a degree minimalize
    # orders the exponent tuples descending, so that is the reverse generator order
    degrees = ideal.degrees()
    ranked = range(m) if exhaustive else sorted(range(m), key=lambda i: (degrees[i], -i))
    graded = _first_fit_order(gens, ranked, True)
    linear = None if graded is None else _first_fit_order(gens, ranked, False)
    if linear is None and graded is not None and exhaustive:
        linear = _exhaustive_quotient_order(gens, ranked)
    report = {}
    for key, order in (("linear_quotients", linear), ("graded_linear_quotients", graded)):
        if order is None:
            report[key] = {"status": "none" if exhaustive else "inconclusive", "order": None}
        else:
            rendered = ideal.render_generators()
            report[key] = {"status": "found", "order": [rendered[i] for i in order], "order_indices": list(order)}
    report["search"] = "exhaustive" if exhaustive else "greedy"
    return report


def ordered_colon_ideals(ideal, order_indices):
    """The successive colon ideals J_l for a given generator order (l >= 2)."""
    gens = ideal.masks if ideal.squarefree else ideal.exponents()
    gens = [gens[i] for i in order_indices]
    return [_colon(ideal.names, gens[:l], gens[l]) for l in range(1, len(gens))]
