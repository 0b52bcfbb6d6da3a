"""Uniform decompositions of matroids, f-vector bounds, stratifications, and
the cross-validation battery tying the Betti, Hilbert and decomposition
criteria together.

Stratification semantics: each step removes a stratum by restriction, the
stratum being the restriction of the current matroid to the removed
elements; a stratum qualifies when it splits as uniform-plus-free.  Both
the two-term decomposition and every stratum are tested on circuit masks
alone (_uniform_plus_free): the circuits of X|S are the circuits of X
inside S, so no restricted matroid is built.  StratumCertificate.verify
re-checks through Matroid.restrict, independently.
"""

from itertools import combinations

from .complexes import f_to_h
from .errors import BoundError, LoopError
from .hilbert import h_binomial_fit, hilbert_function, linear_value_criterion
from .ideals import (
    broken_circuit_ideal,
    ordered_colon_ideals,
    power_ideal,
    quotients_analysis,
)
from .matroid import normalize_order
from .resolutions import (
    betti_table,
    classify_linearity,
    componentwise_linear_check,
    linearity_verdict,
    rows_consecutive_only,
)
from .util import Frozen, binom, bits

STRATIFY_SIZE_LIMIT = 12


class StratumCertificate(Frozen):
    """One stratum: a restriction isomorphic to U_{s, m-f} + U_{f, f}."""

    __slots__ = ("elements", "s", "rank", "size", "uniform_part", "free_part")

    def __init__(self, elements, s, rank, size, uniform_part, free_part):
        object.__setattr__(self, "elements", frozenset(elements))
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "uniform_part", frozenset(uniform_part))
        object.__setattr__(self, "free_part", frozenset(free_part))

    def verify(self, matroid):
        """Re-check the certificate against the ambient matroid, independently."""
        stratum = matroid.restrict(self.elements)
        cert = two_term_decomposition(stratum)
        return (
            cert is not None
            and cert.s == self.s
            and cert.rank == self.rank
            and cert.free_part == self.free_part
        )

    def as_dict(self):
        return {
            "elements": sorted(self.elements, key=repr),
            "s": self.s,
            "rank": self.rank,
            "size": self.size,
            "uniform_part": sorted(self.uniform_part, key=repr),
            "free_part": sorted(self.free_part, key=repr),
        }


class Stratification(Frozen):
    """Nested restriction chain whose successive differences all decompose."""

    __slots__ = ("chain", "strata")

    def __init__(self, chain, strata):
        object.__setattr__(self, "chain", tuple(frozenset(e) for e in chain))
        object.__setattr__(self, "strata", tuple(strata))

    @property
    def depth(self):
        """Strata after the first; 0 for the empty matroid, which has none."""
        return max(len(self.strata) - 1, 0)

    def verify(self, matroid):
        if sum(s.size for s in self.strata) != len(matroid.ground):
            return False
        return all(s.verify(matroid) for s in self.strata)

    def rank_sum(self):
        return sum(s.rank for s in self.strata)

    def as_dict(self, matroid):
        return {
            "chain": [sorted(e, key=repr) for e in self.chain],
            "strata": [s.as_dict() for s in self.strata],
            "depth": self.depth,
            "rank_sum": self.rank_sum(),
            "rank_sum_equals_rank": self.rank_sum() == matroid.rank,
        }


def _uniform_plus_free(matroid, mask):
    """Certificate that X|S, S the ground positions in mask, is U_{s,m} + U_{f,f}, or None.

    The circuits of X|S are the circuits of X inside S.  Their union is the
    core and the rest of S is free (the coloops of X|S).  The core is
    uniform iff every circuit inside has the same size k = s + 1 and all
    C(|core|, k) of them occur; then the rank is s + |free|.
    """
    inside = [c for c in matroid.circuit_masks if c & mask == c]
    core = 0
    for c in inside:
        core |= c
    free = mask ^ core
    s = inside[0].bit_count() - 1 if inside else 0
    if len(inside) != binom(core.bit_count(), s + 1) or any(c.bit_count() != s + 1 for c in inside):
        return None
    labels = matroid._labels
    return StratumCertificate(
        labels(mask), s, s + free.bit_count(), mask.bit_count(), labels(core), labels(free)
    )


def two_term_decomposition(matroid):
    """Certificate that X is U_{s, n-r+s} + U_{r-s, r-s}, or None.

    The free part is forced to be the coloop set, so it suffices to check
    that the restriction to the non-coloops is uniform.
    """
    if not matroid.is_loopless:
        raise LoopError("two-term decomposition needs a loopless matroid")
    return _uniform_plus_free(matroid, (1 << len(matroid.ground)) - 1)


def expected_s(matroid):
    """The s of the paper's bounds: the smallest circuit size less one, or the rank
    when there is no circuit.

    No circuit then has at most s elements, so the precondition of
    fvector_bound_check holds.
    """
    min_circuit = min((c.bit_count() for c in matroid.circuit_masks), default=None)
    return (min_circuit - 1) if min_circuit else matroid.rank


def fvector_bound_check(matroid, s):
    """Independence-count lower bound sum_i C(n-r+i-1, i) C(r-i, k-i) for k = 0..r."""
    ground = matroid.ground
    n, r = len(ground), matroid.rank
    # precondition: every s-subset independent, i.e. no circuit of size <= s
    violated = [[e for e in ground if e in c] for c in matroid.circuits if len(c) <= s]
    if violated:
        raise BoundError("an s-subset is dependent: %s" % violated[0])
    profile = matroid.independence_profile()
    report = []
    for k in range(r + 1):
        bound = sum(binom(n - r + i - 1, i) * binom(r - i, k - i) for i in range(s))
        actual = profile[k]
        report.append(
            {"k": k, "independent": actual, "bound": bound, "holds": actual >= bound, "equal": actual == bound}
        )
    return report


def extremal_h_check(matroid, s):
    """h-vector of In(X) matches C(n-r+k-1, k) up to min(s, r) and vanishes after."""
    if not matroid.is_loopless:
        raise LoopError("extremal h-check needs a loopless matroid")
    n, r = len(matroid.ground), matroid.rank
    h = f_to_h(matroid.independence_profile(), r - 1)
    for k in range(min(s, r) + 1):
        if h[k] != binom(n - r + k - 1, k):
            return False
    for k in range(s + 1, r + 1):
        if h[k] != 0:
            return False
    return True


def generalized_bound_check(matroid, order=None):
    """Both readings of the stratified bound, reported side by side.

    The displayed inequality's indices are inconsistent in the source, so
    the literal right-hand side (with c_l read 1-indexed and the outer sum
    cut at the h-fit cutoff) and the h-vector fit are evaluated and
    reported without asserting either.  The h-vector of the broken-circuit
    complex is the Hilbert-series numerator of its Stanley-Reisner ring.
    """
    ideal = broken_circuit_ideal(matroid, order)
    n, r = len(matroid.ground), matroid.rank
    q = n - r
    hd = hilbert_function(ideal)
    hfit = {"c": None, "cutoff": None, "fits": False, "d": None}
    if q >= 1:
        hfit = h_binomial_fit(hd.numerator, q)
    if hd.coefficients is not None:
        c, source = list(hd.coefficients), "series"
    elif hfit["fits"]:
        c, source = list(hfit["c"]), "h-fit"
    else:
        c, source = None, None
    literal = None
    if c:
        cutoff = hfit["cutoff"] if hfit.get("cutoff") else len(c)
        profile = matroid.independence_profile()
        d = len(c)
        literal = []
        for j in range(1, r + 2):
            rhs = sum(
                c[l - 1] * binom(n - r + l - 1, l) * binom(r - i, j - i)
                for i in range(cutoff)
                for l in range(1, d + 1)
            )
            lhs = profile[j - 1]
            literal.append({"j": j, "independent": lhs, "rhs": rhs, "holds": lhs >= rhs})
    return {
        "coefficients": c or None,
        "coefficient_source": source if c else None,
        "literal_reading": literal,
        "h_fit_reading": hfit,
    }


def stratify(matroid):
    """Restriction chain whose strata all decompose, peeled off largest first.

    One element of a loopless matroid is always a stratum (U_{0,0} + U_{1,1}),
    so every nonempty rest has a stratum and the first one peeled always
    extends to a full chain: nothing is searched and nothing fails.  Each
    peel takes the largest stratum, and among strata of one size the one
    whose rest has the numerically largest mask, so the matroid's own
    decomposition is found at depth 0 when it exists.  A peel tests up to
    2^n candidates, hence STRATIFY_SIZE_LIMIT.
    """
    if not matroid.is_loopless:
        raise LoopError("stratification needs a loopless matroid")
    n = len(matroid.ground)
    if n > STRATIFY_SIZE_LIMIT:
        raise BoundError("stratification search limited to %d elements" % STRATIFY_SIZE_LIMIT)
    chain, strata = [], []
    mask = (1 << n) - 1
    while mask:
        chain.append(matroid._labels(mask))
        # rests of size k in reversed bit order come numerically largest first
        rests = (
            sum(1 << i for i in rest)
            for k in range(mask.bit_count())
            for rest in combinations(reversed(bits(mask)), k)
        )
        for rest in rests:
            cert = _uniform_plus_free(matroid, mask ^ rest)
            if cert is not None:
                break
        strata.append(cert)
        mask = rest
    return Stratification(chain, strata)


# -- cross validation ------------------------------------------------------------


def _verdict(flag):
    if flag is None:
        return "inconclusive"
    return "confirmed" if flag else "refuted"


def _iff(a, b):
    return _verdict(None if a is None or b is None else a == b)


def _implies(a, b):
    return _verdict(None if a is None else not a or b)


def _all_known(flags):
    """Whether all flags hold, or None when any of them is unknown."""
    return None if None in flags else all(flags)


def cross_validate(matroid, order=None, characteristic=0, max_power=3):
    """Run the full battery on one matroid and report a consistency matrix.

    Each criterion pair is marked confirmed, refuted, or inconclusive;
    component failures (oracle bounds) degrade to inconclusive instead of
    propagating.

    A power I^k of an s-linear bc ideal is generated in degree k * s, and
    resolutions.linearity_verdict reads it "(k * s)-linear" without a table when
    first fit orders it by linear quotients inside the Hochster bound; on a miss,
    or past the bound, it is ranked by its table, so every entry is the one the
    table gives.
    """
    order = normalize_order(matroid, order)
    report = {"n": len(matroid.ground), "rank": matroid.rank}
    ideal = broken_circuit_ideal(matroid, order)
    report["ideal"] = ideal.render()

    try:
        table = betti_table(ideal, characteristic)
        verdict = classify_linearity(table)
    except BoundError:
        table = None
        verdict = None
    report["betti"] = (
        {"%d,%d" % k: v for k, v in table.entries.items()} if table is not None else None
    )
    report["linearity"] = (
        {
            "kind": verdict.kind,
            "s": verdict.s,
            "rows": list(verdict.row_set),
            "rows_consecutive_only": rows_consecutive_only(table),
        }
        if verdict is not None
        else None
    )

    cert = two_term_decomposition(matroid)
    report["two_term_decomposition"] = cert.as_dict() if cert else None

    s_expected = expected_s(matroid)
    extremal = extremal_h_check(matroid, s_expected)
    report["extremal_h"] = {"s": s_expected, "holds": extremal}

    hd = hilbert_function(ideal) if not ideal.is_zero else None
    value_criterion = linear_value_criterion(ideal, hd.codim) if hd else None
    report["linear_value_criterion"] = value_criterion

    # a loopless matroid has a circuit iff q >= 1 iff its broken-circuit
    # ideal is nonzero; the Hilbert numerator is the bc complex's h-vector
    q = len(matroid.ground) - matroid.rank
    hfit = h_binomial_fit(hd.numerator, q) if q >= 1 else None
    report["h_fit"] = hfit
    report["hilbert_coefficients"] = list(hd.coefficients) if hd and hd.coefficients else None

    try:
        strat = stratify(matroid)
    except BoundError:
        strat = None  # bound exceeded, unknown
    report["stratification"] = strat.as_dict(matroid) if strat is not None else None

    powers = {}
    powers_ok = []
    if verdict is not None and verdict.kind in ("s-linear", "zero"):
        for k in range(2, max_power + 1):
            if ideal.is_zero:
                powers[k] = "zero"
                powers_ok.append(True)
                continue
            try:
                pk = power_ideal(ideal, k)
                pv = linearity_verdict(pk, characteristic)
                want = k * verdict.s
                ok = pv.kind == "s-linear" and pv.s == want
                powers[k] = "%d-linear" % want if ok else "not linear (%r)" % pv
                powers_ok.append(ok)
            except BoundError as exc:
                powers[k] = "inconclusive: %s" % exc
                powers_ok.append(None)
    report["powers"] = powers

    quotients = quotients_analysis(ideal)
    report["quotients"] = {
        "linear": quotients["linear_quotients"]["status"],
        "graded": quotients["graded_linear_quotients"]["status"],
    }

    is_lin = verdict.is_linear if verdict else None
    if ideal.indeg() == ideal.maxdeg():
        # zero, or generated in one degree d: componentwise linear iff d-linear
        componentwise = is_lin
    else:
        componentwise = componentwise_linear_check(ideal, characteristic)[0]
    report["componentwise_linear"] = componentwise

    colon_verdicts = None
    if quotients["graded_linear_quotients"]["status"] == "found":
        colon_verdicts = []
        idx = quotients["graded_linear_quotients"]["order_indices"]
        for colon in ordered_colon_ideals(ideal, idx):
            try:
                cv = classify_linearity(betti_table(colon, characteristic))
                colon_verdicts.append(cv.is_graded_linear)
            except BoundError:
                colon_verdicts.append(None)
    report["colon_graded_linear"] = colon_verdicts

    # consistency matrix; an unknown premise or conclusion leaves an entry
    # inconclusive, except that a false premise confirms an implication
    is_graded = verdict.is_graded_linear if verdict else None
    report["graded_linear"] = is_graded
    matrix = {
        "linearity_iff_two_term": _iff(is_lin, cert is not None),
        "linearity_iff_extremal_h": _iff(is_lin, extremal),
        "two_term_iff_extremal_h": _iff(cert is not None, extremal),
        "powers_linear": _implies(is_lin, _all_known(powers_ok)),
        "linearity_implies_value_criterion": _implies(
            verdict.kind == "s-linear" if verdict else None, value_criterion
        ),
        "h_fit_iff_graded_linear": (
            "inconclusive"
            if (is_graded is None or hfit is None)
            else ("consistent" if hfit["fits"] == is_graded else "divergent")
        ),
        # the next three read their premise as unknown, so a false one is
        # inconclusive, when stratify hit its bound, when no graded order
        # was found, and when the Betti table is unknown; _implies reads
        # its conclusion even then, so it must not touch a missing strat
        "graded_implies_stratification": _implies(
            is_graded if strat is not None else None,
            is_graded and strat is not None and strat.verify(matroid),
        ),
        "graded_quotients_imply_colon_graded": _implies(
            True if colon_verdicts is not None else None, _all_known(colon_verdicts or ())
        ),
        "componentwise_implies_graded": _implies(
            componentwise if verdict else None, is_graded
        ),
    }
    report["consistency"] = matrix
    return report
