"""Shared helpers: the immutable-value base class, the enumeration bound,
binomials, set families, polynomial arithmetic."""

from .errors import BoundError

# items a constructor or an ideal operation may list before it refuses;
# every benchmark input lies far below it
ENUMERATION_LIMIT = 20000


class Frozen:
    """Base of the immutable value classes: constructors set their slots
    through object.__setattr__, and any later assignment raises.  Values of
    one type are equal when their _identity() is, and hash as it; the
    identity is the slots in __slots__ order unless a class overrides it."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def _identity(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return type(other) is type(self) and self._identity() == other._identity()

    def __hash__(self):
        return hash(self._identity())


def check_enumeration(what, items, count):
    """BoundError, naming the bound, when a routine would list more than ENUMERATION_LIMIT items."""
    if count > ENUMERATION_LIMIT:
        raise BoundError("%s has %d %s, limit %d" % (what, count, items, ENUMERATION_LIMIT))


def binom(a, b):
    """Combinatorial binomial: 1 for b == 0 (any a, including negative), else 0 outside 0 <= b <= a."""
    if b == 0:
        return 1
    if b < 0 or a < b:
        return 0
    num = 1
    for i in range(b):
        num = num * (a - i) // (i + 1)
    return num


def minimal_masks(masks):
    """Inclusion-minimal bitmasks of a family, deduplicated, fewest bits first."""
    keep = []
    lower = 0  # keep[:lower] have fewer bits than m; a distinct mask of as many never lies in m
    for m in sorted(set(masks), key=int.bit_count):
        size = m.bit_count()
        while lower < len(keep) and keep[lower].bit_count() < size:
            lower += 1
        if not any(k & m == k for k in keep[:lower]):
            keep.append(m)
    return keep


def _set_key(labels):
    return (len(labels), tuple(sorted(labels, key=repr)))


def _mixed_set_key(labels):
    """_set_key for labels of types that do not compare: each label as (type name, repr).

    The sorts below fall back to it only when _set_key raises, so every
    order of comparable labels stays as it was.
    """
    return (len(labels), tuple(sorted((type(v).__name__, repr(v)) for v in labels)))


def sorted_sets(sets):
    """Canonical deterministic ordering for a family of element sets."""
    try:
        return tuple(sorted(sets, key=_set_key))
    except TypeError:  # two sets first differ at labels that do not compare
        return tuple(sorted(sets, key=_mixed_set_key))


def sorted_masks(labels, masks):
    """Bitmasks over label positions, in the sorted_sets order of their label sets."""
    try:
        return sorted(masks, key=lambda m: _set_key([labels[i] for i in bits(m)]))
    except TypeError:  # two sets first differ at labels that do not compare
        return sorted(masks, key=lambda m: _mixed_set_key([labels[i] for i in bits(m)]))


def connected_unions(masks):
    """One union per connected group of nonzero masks, two masks joining when they share
    a bit.  The unions so far are disjoint, so each mask absorbs those it meets in one pass."""
    unions = []
    for m in masks:
        if not m:
            continue
        apart = []
        for u in unions:
            if u & m:
                m |= u
            else:
                apart.append(u)
        apart.append(m)
        unions = apart
    return unions


def pairwise_disjoint(masks):
    """Whether no two masks share a bit: their bit counts add up to that of their union."""
    union = total = 0
    for m in masks:
        union |= m
        total += m.bit_count()
    return union.bit_count() == total


def minimal_transversals(masks):
    """Inclusion-minimal bitmasks meeting every bitmask of the family.

    Berge expansion: fold the family in, extending each partial transversal
    that misses the new mask by each of its bits and re-minimalizing.
    Exponential in the worst case; inputs here are small.
    """
    trans = [0]
    for s in masks:
        new = set()
        for t in trans:
            if t & s:
                new.add(t)
            else:
                new.update(t | 1 << i for i in bits(s))
        trans = minimal_masks(new)
    return trans


def k_polynomial(masks):
    """K-polynomial of S/I for the squarefree ideal I on an antichain of
    support masks: the Hilbert series of S/I is K(t) / (1-t)^n.
    Coefficients lowest first.

    Generators that share no variable, even through others, form groups
    (connected_unions) whose K-polynomials multiply, S/I being the tensor
    product of theirs; one generator g gives 1 - t^|g|.  A connected group
    goes through Bigatti's pivot recursion, memoized within the call: with
    x the variable in the most generators, 0 -> S/(I : x)(-1) -> S/I ->
    S/(I + x) -> 0 gives K(I) = K(I + x) + t K(I : x), and K(I + x) =
    (1 - t) K(J) for J the generators without x, the only ones that can
    contain a shrunk generator of I : x.  The unit ideal gives 0.
    """
    memo = {}

    def k(gens):
        if len(gens) == 1:
            return [1] + [0] * (gens[0].bit_count() - 1) + [-1]
        groups = connected_unions(gens)
        if len(groups) != 1:
            out = [1]
            for group in groups:
                out = poly_mul(out, k([g for g in gens if g & group]))
            return out
        key = frozenset(gens)
        if key in memo:
            return memo[key]
        counts = {}  # variable bit -> generators holding it
        for g in gens:
            while g:
                low = g & (-g)
                counts[low] = counts.get(low, 0) + 1
                g ^= low
        x = max(counts, key=counts.get)
        without = [g for g in gens if not g & x]
        shrunk = [g ^ x for g in gens if g & x]
        colon = shrunk + [h for h in without if not any(s & h == s for s in shrunk)]
        memo[key] = out = poly_add(poly_mul([1, -1], k(without)), [0] + k(colon))
        return out

    return [0] if 0 in masks else k(list(masks))


def faces_by_size(facets):
    """Bitmask face lists, by vertex count, of the non-void complex with the
    given facets: every submask of every facet, listed once."""
    faces = set()
    for f in facets:
        sub = f
        while sub:
            faces.add(sub)
            sub = (sub - 1) & f
    levels = [[0]] + [[] for _ in range(max(f.bit_count() for f in facets))]
    for f in faces:
        levels[f.bit_count()].append(f)
    return levels


def nonface_sieve(nvars, masks):
    """One byte per vertex mask: 1 if the mask contains one of the given
    masks (a nonface, when they are generator supports), else 0.

    The masks are marked, then closed upwards one variable at a time.
    With the bytes packed into one integer, a single shift moves every mask
    without variable i onto the mask with it.
    """
    size = 1 << nvars
    marks = bytearray(size)
    for g in masks:
        marks[g] = 1
    sieve = int.from_bytes(marks, "little")
    for i in range(nvars):
        step = 1 << i
        without_i = int.from_bytes((b"\x01" * step + b"\x00" * step) * (size >> (i + 1)), "little")
        sieve |= (sieve & without_i) << 8 * step
    return sieve.to_bytes(size, "little")


def bits(mask):
    """Indices of the set bits of a mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# -- dense integer polynomials in one variable, lowest degree first ------------

def poly_trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return list(p)


def poly_add(p, q):
    out = [0] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] += b
    return poly_trim(out)


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(out)


def poly_pow(p, k):
    out = [1]
    for _ in range(k):
        out = poly_mul(out, p)
    return out


def poly_shift_basis(p):
    """Rewrite sum(p[i] * t^i) as coefficients in the (1-t)-power basis.

    Returns c with sum(c[i] * (1-t)^i) == p(t).
    """
    # substitute t = 1 - u and read off coefficients of u
    out = [0] * max(1, len(p))
    pow_u = [1]  # (1-u)^i
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(pow_u):
                out[j] += a * b
        pow_u = poly_mul(pow_u, [1, -1])
    return poly_trim(out)
