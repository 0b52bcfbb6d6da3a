"""Graded Betti tables of monomial ideals and linearity classification.

Two independent routes are kept side by side and are never merged:

* betti_hochster   - squarefree ideals; sums, over the lcm lattice, the
                     reduced homology ranks of the links of the Alexander
                     dual of the Stanley-Reisner complex (the dual form of
                     Hochster's formula; the hot path, kernel-backed),
                     each built from the generator supports, which are
                     the complex's minimal nonfaces; supports that share
                     no variable are ranked apart and multiplied.
* betti_taylor_oracle - any monomial ideal with few generators; homology
                     of the Taylor complex tensored down to the residue
                     field, split by multidegree.

Both report the table of the ideal itself (beta_0 counts minimal
generators), over characteristic 0 by default.
"""

from . import _kernel
from .complexes import _check_characteristic
from .errors import BoundError, InputError
from .ideals import MonomialIdeal, _first_fit_order, component_ideal, polarize, polarized_nvars
from .util import Frozen, bits, connected_unions

TAYLOR_GENERATOR_LIMIT = 12
HOCHSTER_VARIABLE_LIMIT = 14


class BettiTable(Frozen):
    """Sparse table {(homological index i, internal degree j): multiplicity}."""

    __slots__ = ("entries", "characteristic")

    def __init__(self, entries, characteristic=0):
        clean = {k: int(v) for k, v in entries.items() if v}
        if any(i < 0 or v < 0 for (i, _), v in clean.items()):
            raise InputError("Betti entries need i >= 0 and positive multiplicity")
        object.__setattr__(self, "entries", dict(sorted(clean.items())))
        object.__setattr__(self, "characteristic", characteristic)

    def _identity(self):
        return self.entries  # not the characteristic; the dict leaves tables unhashable

    def __repr__(self):
        return "BettiTable(%r)" % (self.entries,)

    def __bool__(self):
        return bool(self.entries)

    def get(self, i, j):
        return self.entries.get((i, j), 0)

    def rows(self):
        """Occupied slopes {j - i}."""
        return sorted({j - i for i, j in self.entries})

    def max_index(self):
        return max((i for i, _ in self.entries), default=-1)

    def regularity(self):
        return max((j - i for i, j in self.entries), default=None)

    def alternating_sum_poly(self):
        """Coefficients of sum (-1)^i beta_{i,j} t^j, lowest degree first; an
        oracle in tests/test_hilbert.py and tests/test_corpus.py, which src never calls."""
        top = max((j for _, j in self.entries), default=0)
        out = [0] * (top + 1)
        for (i, j), v in self.entries.items():
            out[j] += (-1) ** i * v
        return out


class LinearityVerdict(Frozen):
    """Shape of a Betti table: s-linear, graded-linear, zero, or none."""

    __slots__ = ("kind", "s", "row_set")

    def __init__(self, kind, s=None, row_set=()):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "row_set", tuple(row_set))

    @property
    def is_linear(self):
        return self.kind in ("s-linear", "zero")

    @property
    def is_graded_linear(self):
        return self.kind in ("s-linear", "graded-linear", "zero")

    def __repr__(self):
        if self.kind == "s-linear":
            return "LinearityVerdict(%d-linear)" % self.s
        if self.kind == "graded-linear":
            return "LinearityVerdict(graded-linear, rows=%s)" % (self.row_set,)
        return "LinearityVerdict(%s)" % self.kind


def classify_linearity(table):
    """Classify a Betti table; graded-linear needs consecutive rows and, inside
    each row, nonzero entries on consecutive homological indices."""
    if not table.entries:
        return LinearityVerdict("zero")
    rows = table.rows()
    if len(rows) == 1:
        return LinearityVerdict("s-linear", s=rows[0], row_set=rows)
    if rows != list(range(rows[0], rows[-1] + 1)):
        return LinearityVerdict("none", row_set=rows)
    for row in rows:
        idx = sorted(i for (i, j) in table.entries if j - i == row)
        if idx != list(range(idx[0], idx[-1] + 1)):
            return LinearityVerdict("none", row_set=rows)
    return LinearityVerdict("graded-linear", row_set=rows)


def rows_consecutive_only(table):
    """The weaker graded reading: occupied rows consecutive, no per-row condition."""
    if not table.entries:
        return True
    rows = table.rows()
    return rows == list(range(rows[0], rows[-1] + 1))


# -- Hochster route ------------------------------------------------------------


def _lcm_lattice_masks(support_masks):
    """All unions of generator supports: the only multidegrees carrying Betti numbers.

    Each support is folded in once, in ascending mask order: the unions of
    the supports so far, each joined with it, and the support itself.  The
    closure does not depend on the order, but in ascending order it stays
    small for longer, so fewer unions are formed.
    """
    closure = set()
    for s in sorted(support_masks):
        closure |= {u | s for u in closure}
        closure.add(s)
    return sorted(closure)


def betti_hochster(ideal, characteristic=0):
    """Graded Betti table of a squarefree monomial ideal via Hochster's formula.

    The generator supports of the minimal generating set are the minimal
    nonfaces of the Stanley-Reisner complex; they go to the kernel grouped
    by size, and no face of the complex is listed.  The summation runs over
    the lcm lattice of the generators only; every other vertex subset
    contributes zero.

    Supports that share no variable, even through others, form separate
    groups (util.connected_unions): then I = I_1 + ... + I_k in disjoint
    variables, the minimal resolution of S/I is the tensor product of those
    of the S/I_g (Miller-Sturmfels), and its Poincare series
    1 + sum beta_{i,j} s^(i+1) t^j is the product of theirs, in every
    characteristic.  Each group is ranked alone on its own lcm lattice, so
    the subsets visited add over the groups instead of multiplying.  The
    variable bound stays on the ideal's own variables.
    """
    _check_characteristic(characteristic)
    if not ideal.squarefree:
        raise InputError("betti_hochster needs a squarefree ideal (polarize first)")
    if ideal.nvars > HOCHSTER_VARIABLE_LIMIT:
        raise BoundError(
            "Hochster route limited to %d variables, got %d"
            % (HOCHSTER_VARIABLE_LIMIT, ideal.nvars)
        )
    if ideal.is_zero:
        return BettiTable({}, characteristic)
    if ideal.is_unit:
        return BettiTable({(0, 0): 1}, characteristic)  # the whole ring, free
    groups = connected_unions(ideal.masks)
    series = {(0, 0): 1}  # {(power of s, power of t): coefficient}
    for group in groups:
        part = _hochster_part(ideal.nvars, [g for g in ideal.masks if g & group], characteristic)
        factor = {(i + 1, j): v for (i, j), v in part.items()}
        factor[(0, 0)] = 1
        product = {}
        for (a, b), u in series.items():
            for (c, d), v in factor.items():
                key = (a + c, b + d)
                product[key] = product.get(key, 0) + u * v
        series = product
    return BettiTable({(i - 1, j): v for (i, j), v in series.items() if i}, characteristic)


def _hochster_part(nvars, masks, characteristic):
    """The kernel's Betti entries of the ideal with these generator supports, over their lcm lattice."""
    nonfaces = [[] for _ in range(max(m.bit_count() for m in masks) + 1)]
    for g in masks:
        nonfaces[g.bit_count()].append(g)
    return _kernel.hochster_betti(nvars, nonfaces, _lcm_lattice_masks(masks), characteristic)


# -- Taylor oracle ---------------------------------------------------------------


def betti_taylor_oracle(ideal, characteristic=0):
    """Independent Betti oracle: homology of the Taylor complex over the residue field.

    Cells are the nonempty generator subsets as masks, graded by their lcm:
    that of the mask without its lowest bit, joined with that bit's
    generator.  After tensoring with the residue field only the
    equal-multidegree part of the differential survives, so the complex
    splits by multidegree; a face (the mask less one bit) counts only at
    the same lcm, signed by the bit's place as in _boundary_rank.  Each
    piece is a dense matrix for rank_int or rank_mod_p, independent of the
    Hochster route's sparse kernel.
    """
    _check_characteristic(characteristic)
    if ideal.is_zero:
        return BettiTable({}, characteristic)
    gens = ideal.exponents()
    if len(gens) > TAYLOR_GENERATOR_LIMIT:
        raise BoundError(
            "Taylor oracle limited to %d generators, got %d"
            % (TAYLOR_GENERATOR_LIMIT, len(gens))
        )
    lcms = [(0,) * ideal.nvars] * (1 << len(gens))
    cells = {}
    for sub in range(1, 1 << len(gens)):
        low = sub & -sub
        lcms[sub] = exps = tuple(map(max, lcms[sub ^ low], gens[low.bit_length() - 1]))
        cells.setdefault(exps, {}).setdefault(sub.bit_count(), []).append(sub)
    entries = {}
    for exps, by_size in cells.items():
        ranks = {}
        for size, upper in by_size.items():
            lower = by_size.get(size - 1)
            if not lower:
                continue
            index = {s: r for r, s in enumerate(lower)}
            rows = [[0] * len(upper) for _ in lower]
            for col, sub in enumerate(upper):
                sign = 1
                rest = sub
                while rest:
                    low = rest & -rest
                    row = index.get(sub ^ low)
                    if row is not None:
                        rows[row][col] = sign
                    sign = -sign
                    rest ^= low
            if characteristic:
                ranks[size] = _kernel.rank_mod_p(rows, characteristic)
            else:
                ranks[size] = _kernel.rank_int(rows)
        for size, subs in by_size.items():
            h = len(subs) - ranks.get(size, 0) - ranks.get(size + 1, 0)
            if h:
                key = (size - 1, sum(exps))
                entries[key] = entries.get(key, 0) + h
    return BettiTable(entries, characteristic)


def betti_table(ideal, characteristic=0):
    """Betti table by the cheapest exact route: Hochster after polarization,
    Taylor when the generator count allows but the variables do not.

    The route is chosen before polarizing: the polarization has
    sum_i max(1, top exponent of x_i) variables (ideals.polarized_nvars),
    so an ideal past the Hochster bound goes to Taylor unpolarized.
    """
    if polarized_nvars(ideal) > HOCHSTER_VARIABLE_LIMIT:
        return betti_taylor_oracle(ideal, characteristic)
    return betti_hochster(ideal if ideal.squarefree else polarize(ideal), characteristic)


def linearity_verdict(ideal, characteristic=0):
    """classify_linearity(betti_table(ideal, characteristic)), with no table built
    when the ideal is generated in one degree d and, on the Hochster route, first fit
    orders its polarization by linear quotients (candidates in generator order).

    Such an ideal has a d-linear resolution in every characteristic (iterated mapping
    cones of Koszul complexes, Herzog-Takayama 2002), and the colon tests answer alike
    on I and I^pol (ideals._colon_generated_linearly).  A miss proves nothing
    (ideals._first_fit_order), so the polarization is ranked by betti_hochster.

    Past the Hochster bound betti_table goes to the Taylor oracle, and no walk runs, so
    every verdict is the one the table gives: U(4,8)^2 (357 generators on 15
    polarized variables) has linear quotients, yet the oracle refuses it.  Answering
    it there moves the xval-corpus digest and conclusive_ratio of perfbench, so that
    belongs with a benchmark change.
    """
    if polarized_nvars(ideal) > HOCHSTER_VARIABLE_LIMIT:
        return classify_linearity(betti_table(ideal, characteristic))
    polarized = ideal if ideal.squarefree else polarize(ideal)
    degrees = set(ideal.degrees())
    masks = polarized.masks
    if len(degrees) == 1 and _first_fit_order(masks, range(len(masks)), False) is not None:
        (d,) = degrees
        return LinearityVerdict("s-linear", s=d, row_set=(d,))
    return classify_linearity(betti_hochster(polarized, characteristic))


# -- componentwise linearity -------------------------------------------------------


def _components_verdict(components, characteristic, betti):
    """Every (d, nonzero component) pair must have a d-linear resolution.

    A bound hit degrades the verdict to inconclusive (None), never to
    False; the first component that is not d-linear settles False.
    """
    certificates = {}
    verdict = True
    for d, comp in components:
        try:
            v = classify_linearity(betti(comp, characteristic))
        except BoundError as exc:
            certificates[d] = "inconclusive: %s" % exc
            if verdict is True:
                verdict = None
            continue
        linear = v.kind == "s-linear" and v.s == d
        certificates[d] = "%d-linear" % d if linear else "not linear (%r)" % v
        if not linear:
            return False, certificates
    return verdict, certificates


def _squarefree_components(ideal):
    """{d: support masks of I_[d]} for d = indeg .. maxdeg of a squarefree ideal.

    I_[d] is generated by the degree-d vertex masks that contain the
    support mask of some generator: the degree-d generators and the masks
    of I_[d-1] extended by one vertex.
    """
    full = (1 << ideal.nvars) - 1
    comps = {}
    level = set()
    for d in range(ideal.indeg(), ideal.maxdeg() + 1):
        level = {m | 1 << i for m in level for i in bits(full ^ m)}
        level.update(g for g in ideal.masks if g.bit_count() == d)
        comps[d] = list(level)
    return comps


def _polarized_componentwise_check(ideal, characteristic=0):
    """Componentwise linearity of a nonzero monomial ideal through its full
    degree components I_<d>, d = indeg .. max(maxdeg, reg I), each
    polarized by betti_table; reg I is read off the ideal's table, which
    alone decides an ideal generated in one degree d: I_<d> = I, and if I
    is d-linear then reg I = d ends the range."""
    try:
        table = betti_table(ideal, characteristic)
    except BoundError as exc:
        return None, {"full_ideal": "inconclusive: %s" % exc}
    if ideal.indeg() == ideal.maxdeg():  # ranked above: I_<indeg> = I
        return _components_verdict([(ideal.indeg(), ideal)], characteristic, lambda comp, p: table)
    degrees = range(ideal.indeg(), max(ideal.maxdeg(), table.regularity()) + 1)
    components = ((d, component_ideal(ideal, d)) for d in degrees)
    return _components_verdict(components, characteristic, betti_table)


def componentwise_linear_check(ideal, characteristic=0):
    """Componentwise linearity: every degree component has a linear resolution.

    Returns (verdict, certificates keyed by degree); oracle limits degrade
    the verdict to inconclusive (None), never to False.  Two routes:

    * squarefree ideals (Herzog-Hibi 1999, Prop. 1.5): I is componentwise
      linear iff every squarefree component I_[d] has a d-linear resolution.
      d runs over indeg .. maxdeg, each I_[d] stays on the ideal's own
      variables and goes straight to betti_hochster.  Above maxdeg the
      Alexander dual of I_[d+1] is a skeleton of the dual of I_[d], and
      skeletons of Cohen-Macaulay complexes are Cohen-Macaulay
      (Eagon-Reiner), so higher degrees add nothing.
    * other ideals: every full degree component I_<d> for d = indeg ..
      max(maxdeg, reg I) is polarized and must be d-linear.
    """
    _check_characteristic(characteristic)
    if ideal.is_zero:
        return True, {}
    if not ideal.squarefree:
        return _polarized_componentwise_check(ideal, characteristic)
    if ideal.nvars > HOCHSTER_VARIABLE_LIMIT:  # every I_[d] stays on these variables
        return None, {
            "ideal": "inconclusive: squarefree components limited to %d variables, got %d"
            % (HOCHSTER_VARIABLE_LIMIT, ideal.nvars)
        }
    components = (
        (d, MonomialIdeal.from_masks(ideal.names, masks))
        for d, masks in _squarefree_components(ideal).items()
    )
    return _components_verdict(components, characteristic, betti_hochster)
