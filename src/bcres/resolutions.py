"""Graded Betti tables of monomial ideals and linearity classification.

Two independent routes are kept side by side and are never merged:

* betti_hochster   - squarefree ideals; sums, over the lcm lattice, the
                     reduced homology ranks of the links of the Alexander
                     dual of the Stanley-Reisner complex (the dual form of
                     Hochster's formula; the hot path, kernel-backed).
* betti_taylor_oracle - any monomial ideal with few generators; homology
                     of the Taylor complex tensored down to the residue
                     field, split by multidegree.

Both report the table of the ideal itself (beta_0 counts minimal
generators), over characteristic 0 by default.
"""

from itertools import combinations

from . import _kernel
from .complexes import _check_characteristic
from .errors import BoundError, InputError
from .ideals import component_ideal, ideal_from_supports, polarize

TAYLOR_GENERATOR_LIMIT = 12
HOCHSTER_VARIABLE_LIMIT = 14


class BettiTable:
    """Sparse table {(homological index i, internal degree j): multiplicity}."""

    __slots__ = ("entries", "characteristic", "subject")

    def __init__(self, entries, characteristic=0, subject="ideal"):
        clean = {k: int(v) for k, v in entries.items() if v}
        if any(i < 0 or v < 0 for (i, _), v in clean.items()):
            raise InputError("Betti entries need i >= 0 and positive multiplicity")
        object.__setattr__(self, "entries", dict(sorted(clean.items())))
        object.__setattr__(self, "characteristic", characteristic)
        object.__setattr__(self, "subject", subject)

    def __setattr__(self, name, value):
        raise AttributeError("BettiTable is immutable")

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

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

    def generator_degrees(self):
        """Degree -> count read off homological index 0."""
        return {j: v for (i, j), v in self.entries.items() if i == 0}

    def alternating_sum_poly(self):
        """Coefficients of sum (-1)^i beta_{i,j} t^j, lowest degree first."""
        top = max((j for _, j in self.entries), default=0)
        out = [0] * (top + 1)
        for (i, j), v in self.entries.items():
            out[j] += (-1) ** i * v
        return out


class LinearityVerdict:
    """Shape of a Betti table: s-linear, graded-linear, zero, or none."""

    __slots__ = ("kind", "s", "row_set")

    def __init__(self, kind, s=None, row_set=()):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "row_set", tuple(row_set))

    def __setattr__(self, name, value):
        raise AttributeError("LinearityVerdict is immutable")

    @property
    def is_linear(self):
        return self.kind in ("s-linear", "zero")

    @property
    def is_graded_linear(self):
        return self.kind in ("s-linear", "graded-linear", "zero")

    def __eq__(self, other):
        return isinstance(other, LinearityVerdict) and (
            self.kind,
            self.s,
            self.row_set,
        ) == (other.kind, other.s, other.row_set)

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


def _nonface_sieve(nvars, support_masks):
    """One byte per vertex mask: 1 if the mask contains a generator support
    (a nonface of the Stanley-Reisner complex), else 0.

    The supports are marked, then closed upwards one variable at a time.
    With the bytes packed into one integer, a single shift moves every mask
    without variable i onto the mask with it.
    """
    size = 1 << nvars
    marks = bytearray(size)
    for g in support_masks:
        marks[g] = 1
    sieve = int.from_bytes(marks, "little")
    for i in range(nvars):
        step = 1 << i
        without_i = int.from_bytes((b"\x01" * step + b"\x00" * step) * (size >> (i + 1)), "little")
        sieve |= (sieve & without_i) << 8 * step
    return sieve.to_bytes(size, "little")


def _faces_by_size_from_supports(nvars, support_masks):
    """Bitmask face lists of the Stanley-Reisner complex of a squarefree ideal."""
    nonface = _nonface_sieve(nvars, support_masks)
    faces = [[] for _ in range(nvars + 1)]
    for mask in range(1 << nvars):
        if not nonface[mask]:
            faces[mask.bit_count()].append(mask)
    while len(faces) > 1 and not faces[-1]:
        faces.pop()
    return faces


def _lcm_lattice_masks(support_masks):
    """All unions of generator supports: the only multidegrees carrying Betti numbers."""
    closure = set(support_masks)
    frontier = set(support_masks)
    while frontier:
        new = set()
        for u in frontier:
            for s in support_masks:
                w = u | s
                if w not in closure:
                    closure.add(w)
                    new.add(w)
        frontier = new
    return sorted(closure)


def betti_hochster(ideal, characteristic=0):
    """Graded Betti table of a squarefree monomial ideal via Hochster's formula.

    The summation runs over the lcm lattice of the generators only; every
    other vertex subset contributes zero.
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
    supports = ideal.support_masks()
    faces = _faces_by_size_from_supports(ideal.nvars, supports)
    entries = _kernel.hochster_betti(
        ideal.nvars, faces, _lcm_lattice_masks(supports), characteristic
    )
    return BettiTable(entries, characteristic)


# -- Taylor oracle ---------------------------------------------------------------


def betti_taylor_oracle(ideal, characteristic=0):
    """Independent Betti oracle: homology of the Taylor complex over the residue field.

    Cells are the nonempty generator subsets graded by their lcm; after
    tensoring with the residue field only the equal-multidegree part of the
    differential survives, so the complex splits by multidegree and each
    piece is finite exact linear algebra.
    """
    _check_characteristic(characteristic)
    if ideal.is_zero:
        return BettiTable({}, characteristic)
    gens = ideal.gens
    if len(gens) > TAYLOR_GENERATOR_LIMIT:
        raise BoundError(
            "Taylor oracle limited to %d generators, got %d"
            % (TAYLOR_GENERATOR_LIMIT, len(gens))
        )
    cells = {}
    for size in range(1, len(gens) + 1):
        for sub in combinations(range(len(gens)), size):
            m = gens[sub[0]]
            for i in sub[1:]:
                m = m.lcm(gens[i])
            cells.setdefault(m.exps, {}).setdefault(size, []).append(sub)
    entries = {}
    for exps, by_size in cells.items():
        degree = sum(exps)
        top = max(by_size)
        ranks = {}
        for size in range(1, top + 1):
            lower = by_size.get(size - 1, [])
            upper = by_size.get(size, [])
            if not lower or not upper:
                ranks[size] = 0
                continue
            index = {s: r for r, s in enumerate(lower)}
            rows = [[0] * len(upper) for _ in lower]
            for col, sub in enumerate(upper):
                for pos in range(len(sub)):
                    face = sub[:pos] + sub[pos + 1 :]
                    m = gens[face[0]]
                    for i in face[1:]:
                        m = m.lcm(gens[i])
                    if m.exps == exps:
                        rows[index[face]][col] = (-1) ** pos
            if characteristic:
                ranks[size] = _kernel.rank_mod_p(rows, characteristic)
            else:
                ranks[size] = _kernel.rank_int(rows)
        for size, subs in by_size.items():
            h = len(subs) - ranks.get(size, 0) - ranks.get(size + 1, 0)
            if h:
                key = (size - 1, degree)
                entries[key] = entries.get(key, 0) + h
    return BettiTable(entries, characteristic)


def betti_table(ideal, characteristic=0):
    """Betti table by the cheapest exact route: Hochster after polarization,
    Taylor when the generator count allows but the variables do not."""
    sf = ideal if ideal.squarefree else polarize(ideal)
    if sf.nvars <= HOCHSTER_VARIABLE_LIMIT:
        return betti_hochster(sf, characteristic)
    return betti_taylor_oracle(ideal, characteristic)


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
    """{d: generator supports of I_[d]} for d = indeg .. maxdeg of a squarefree ideal.

    I_[d] is generated by the degree-d vertex masks that contain the
    support mask of some generator.
    """
    n = ideal.nvars
    nonface = _nonface_sieve(n, ideal.support_masks())
    comps = {d: [] for d in range(ideal.indeg(), ideal.maxdeg() + 1)}
    for mask in range(1 << n):
        comp = comps.get(mask.bit_count())
        if comp is not None and nonface[mask]:
            comp.append([i for i in range(n) if mask >> i & 1])
    return comps


def _polarized_componentwise_check(ideal, characteristic=0):
    """Componentwise linearity of a nonzero monomial ideal through its full
    degree components I_<d>, d = indeg .. max(maxdeg, reg I), each
    polarized by betti_table."""
    try:
        reg = betti_table(ideal, characteristic).regularity()
    except BoundError as exc:
        return None, {"full_ideal": "inconclusive: %s" % exc}
    degrees = range(ideal.indeg(), max(ideal.maxdeg(), reg) + 1)
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
    if ideal.is_zero:
        return True, {}
    if not ideal.squarefree:
        return _polarized_componentwise_check(ideal, characteristic)
    if ideal.nvars > HOCHSTER_VARIABLE_LIMIT:  # before the 2^n mask enumeration
        return None, {
            "ideal": "inconclusive: squarefree components limited to %d variables, got %d"
            % (HOCHSTER_VARIABLE_LIMIT, ideal.nvars)
        }
    components = (
        (d, ideal_from_supports(ideal.names, supports))
        for d, supports in _squarefree_components(ideal).items()
    )
    return _components_verdict(components, characteristic, betti_hochster)
