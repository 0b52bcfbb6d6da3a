"""Uniform decompositions of matroids, f-vector bounds, stratifications, and
the cross-validation battery tying the Betti, Hilbert and decomposition
criteria together.

Stratification semantics: each step removes a stratum by restriction, the
stratum being the restriction of the current matroid to the removed
elements; a stratum qualifies when it splits as uniform-plus-free.
"""

from .complexes import bc_complex, f_h_vectors, independence_complex
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
    rows_consecutive_only,
)
from .util import binom

STRATIFY_SIZE_LIMIT = 12


class StratumCertificate:
    """One stratum: a restriction isomorphic to U_{s, m-f} + U_{f, f}."""

    __slots__ = ("elements", "s", "rank", "size", "uniform_part", "free_part")

    def __init__(self, elements, s, rank, size, uniform_part, free_part):
        object.__setattr__(self, "elements", frozenset(elements))
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "uniform_part", frozenset(uniform_part))
        object.__setattr__(self, "free_part", frozenset(free_part))

    def __setattr__(self, name, value):
        raise AttributeError("StratumCertificate is immutable")

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


class Stratification:
    """Nested restriction chain whose successive differences all decompose."""

    __slots__ = ("chain", "strata")

    def __init__(self, chain, strata):
        object.__setattr__(self, "chain", tuple(frozenset(e) for e in chain))
        object.__setattr__(self, "strata", tuple(strata))

    def __setattr__(self, name, value):
        raise AttributeError("Stratification is immutable")

    @property
    def depth(self):
        return len(self.strata) - 1

    def verify(self, matroid):
        if not self.strata:
            return False
        if sum(s.size for s in self.strata) != len(matroid.ground):
            return False
        return all(s.verify(matroid) for s in self.strata)

    def rank_sum(self):
        return sum(s.rank for s in self.strata)

    def as_dict(self, matroid=None):
        out = {
            "chain": [sorted(e, key=repr) for e in self.chain],
            "strata": [s.as_dict() for s in self.strata],
            "depth": self.depth,
            "rank_sum": self.rank_sum(),
        }
        if matroid is not None:
            out["rank_sum_equals_rank"] = self.rank_sum() == matroid.rank
        return out


def two_term_decomposition(matroid):
    """Certificate that X is U_{s, n-r+s} + U_{r-s, r-s}, or None.

    The free part is forced to be the coloop set, so it suffices to check
    that the restriction to the non-coloops is uniform.
    """
    if not matroid.is_loopless:
        raise LoopError("two-term decomposition needs a loopless matroid")
    free = matroid.coloops()
    core = [e for e in matroid.ground if e not in free]
    s = matroid.rank - len(free)
    m = len(core)
    if m == 0:
        return StratumCertificate(matroid.ground, 0, matroid.rank, len(matroid.ground), (), free)
    # uniform iff every circuit has s+1 elements and all of them occur
    if any(len(c) != s + 1 for c in matroid.circuits):
        return None
    if len(matroid.circuits) != binom(m, s + 1):
        return None
    return StratumCertificate(
        matroid.ground, s, matroid.rank, len(matroid.ground), core, free
    )


def fvector_bound_check(matroid, s):
    """Independence-count lower bound sum_i C(n-r+i-1, i) C(r-i, k-i) for k = 0..r."""
    ground = matroid.ground
    n, r = len(ground), matroid.rank
    # precondition: every s-subset independent, i.e. no circuit of size <= s
    violated = [sorted(c) for c in matroid.circuits if len(c) <= s]
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
    h = f_h_vectors(independence_complex(matroid)).h
    for k in range(min(s, r) + 1):
        if h[k] != binom(n - r + k - 1, k):
            return False
    for k in range(s + 1, r + 1):
        if h[k] != 0:
            return False
    return True


def generalized_bound_check(matroid, coefficients=None, order=None):
    """Both readings of the stratified bound, reported side by side.

    The displayed inequality's indices are inconsistent in the source, so
    the literal right-hand side (with c_l read 1-indexed and the outer sum
    cut at the h-fit cutoff) and the h-vector fit are evaluated and
    reported without asserting either.
    """
    bc = bc_complex(matroid, order)
    ideal = broken_circuit_ideal(matroid, order)
    n, r = len(matroid.ground), matroid.rank
    q = n - r
    h = f_h_vectors(bc).h
    hfit = h_binomial_fit(h, q) if q >= 1 else {"c": None, "cutoff": None, "fits": False, "d": None}
    c = coefficients
    source = "explicit"
    if c is None:
        hd = hilbert_function(ideal)
        if hd.coefficients is not None:
            c = list(hd.coefficients)
            source = "series"
        elif hfit["fits"]:
            c = list(hfit["c"])
            source = "h-fit"
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
            lhs = profile[j - 1] if j - 1 < len(profile) else 0
            literal.append({"j": j, "independent": lhs, "rhs": rhs, "holds": lhs >= rhs})
    return {
        "coefficients": list(c) if c else None,
        "coefficient_source": source if c else None,
        "literal_reading": literal,
        "h_fit_reading": hfit,
    }


def stratify(matroid):
    """Depth-first search for a restriction chain with decomposable strata.

    Larger strata are tried first, so the matroid's own decomposition is
    found at depth 0 when it exists; failed tail sets are memoized.
    Exhaustive for ground sets within STRATIFY_SIZE_LIMIT.
    """
    if not matroid.is_loopless:
        raise LoopError("stratification needs a loopless matroid")
    n = len(matroid.ground)
    if n > STRATIFY_SIZE_LIMIT:
        raise BoundError("stratification search limited to %d elements" % STRATIFY_SIZE_LIMIT)
    ground = list(matroid.ground)
    pos = {e: i for i, e in enumerate(ground)}
    dead = set()

    def subsets_desc(mask):
        """Proper submasks of mask, larger complements (strata) first."""
        subs = []
        sub = (mask - 1) & mask
        while True:
            subs.append(sub)
            if sub == 0:
                break
            sub = (sub - 1) & mask
        subs.sort(key=lambda s: bin(s).count("1"))
        return subs

    def unmask(mask):
        return frozenset(ground[i] for i in range(n) if mask >> i & 1)

    def search(mask):
        if mask == 0:
            return []
        if mask in dead:
            return None
        for nxt in subsets_desc(mask):
            stratum_elems = unmask(mask ^ nxt)
            stratum = matroid.restrict(stratum_elems)
            cert = two_term_decomposition(stratum)
            if cert is None:
                continue
            tail = search(nxt)
            if tail is not None:
                return [
                    StratumCertificate(
                        stratum_elems,
                        cert.s,
                        cert.rank,
                        len(stratum_elems),
                        cert.uniform_part,
                        cert.free_part,
                    )
                ] + tail
        dead.add(mask)
        return None

    full = (1 << n) - 1
    strata = search(full)
    if strata is None:
        return None
    chain = []
    remaining = set(matroid.ground)
    for s in strata:
        chain.append(frozenset(remaining))
        remaining -= s.elements
    return Stratification(chain, strata)


# -- cross validation ------------------------------------------------------------


def _verdict(flag):
    if flag is None:
        return "inconclusive"
    return "confirmed" if flag else "refuted"


def cross_validate(matroid, order=None, characteristic=0, max_power=3):
    """Run the full battery on one matroid and report a consistency matrix.

    Each criterion pair is marked confirmed, refuted, or inconclusive;
    component failures (oracle bounds) degrade to inconclusive instead of
    propagating.
    """
    order = normalize_order(matroid, order)
    report = {"n": len(matroid.ground), "rank": matroid.rank}
    bc = bc_complex(matroid, order)
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

    min_circuit = min((len(c) for c in matroid.circuits), default=None)
    s_expected = (min_circuit - 1) if min_circuit else matroid.rank
    extremal = extremal_h_check(matroid, s_expected)
    report["extremal_h"] = {"s": s_expected, "holds": extremal}

    value_criterion = linear_value_criterion(ideal) if not ideal.is_zero else None
    report["linear_value_criterion"] = value_criterion

    q = len(matroid.ground) - matroid.rank
    h_bc = f_h_vectors(bc).h
    hfit = h_binomial_fit(h_bc, q) if q >= 1 else None
    report["h_fit"] = hfit

    hd = hilbert_function(ideal) if not ideal.is_zero else None
    report["hilbert_coefficients"] = list(hd.coefficients) if hd and hd.coefficients else None

    try:
        strat = stratify(matroid)
    except BoundError:
        strat = False  # bound exceeded, unknown
    report["stratification"] = (
        strat.as_dict(matroid) if isinstance(strat, Stratification) else None
    )
    strat_known = strat is not False

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
                pv = classify_linearity(betti_table(pk, characteristic))
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

    componentwise, certificates = componentwise_linear_check(ideal, characteristic)
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

    # consistency matrix
    matrix = {}
    is_lin = verdict.is_linear if verdict else None
    matrix["linearity_iff_two_term"] = _verdict(
        None if is_lin is None else is_lin == (cert is not None)
    )
    matrix["linearity_iff_extremal_h"] = _verdict(
        None if is_lin is None else is_lin == extremal
    )
    matrix["two_term_iff_extremal_h"] = _verdict((cert is not None) == extremal)
    if is_lin is None:
        matrix["powers_linear"] = "inconclusive"
    elif is_lin:
        if any(v is None for v in powers_ok):
            matrix["powers_linear"] = "inconclusive"
        else:
            matrix["powers_linear"] = _verdict(all(powers_ok))
    else:
        matrix["powers_linear"] = "confirmed"  # I^1 itself is not linear
    if is_lin is None:
        matrix["linearity_implies_value_criterion"] = "inconclusive"
    elif is_lin and verdict.kind == "s-linear":
        matrix["linearity_implies_value_criterion"] = (
            "inconclusive" if value_criterion is None else _verdict(value_criterion)
        )
    else:
        matrix["linearity_implies_value_criterion"] = "confirmed"
    is_graded = verdict.is_graded_linear if verdict else None
    report["graded_linear"] = is_graded
    matrix["h_fit_iff_graded_linear"] = (
        "inconclusive"
        if (is_graded is None or hfit is None)
        else ("consistent" if hfit["fits"] == is_graded else "divergent")
    )
    if is_graded is None or not strat_known:
        matrix["graded_implies_stratification"] = "inconclusive"
    elif is_graded:
        found = isinstance(strat, Stratification)
        matrix["graded_implies_stratification"] = _verdict(found and strat.verify(matroid))
    else:
        matrix["graded_implies_stratification"] = "confirmed"
    if colon_verdicts is None:
        matrix["graded_quotients_imply_colon_graded"] = "inconclusive"
    elif any(v is None for v in colon_verdicts):
        matrix["graded_quotients_imply_colon_graded"] = "inconclusive"
    else:
        matrix["graded_quotients_imply_colon_graded"] = _verdict(all(colon_verdicts))
    if componentwise is None or is_graded is None:
        matrix["componentwise_implies_graded"] = "inconclusive"
    elif componentwise:
        matrix["componentwise_implies_graded"] = _verdict(is_graded)
    else:
        matrix["componentwise_implies_graded"] = "confirmed"
    report["consistency"] = matrix
    return report
