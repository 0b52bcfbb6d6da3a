"""Two-term decomposition, f-vector bounds, stratification, cross-validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_matroid import graphic_cases, linear_cases, sum_cases

from bcres.corpus import standard_corpus
from bcres.decomposition import (
    STRATIFY_SIZE_LIMIT,
    StratumCertificate,
    Stratification,
    _iff,
    _implies,
    _uniform_plus_free,
    cross_validate,
    extremal_h_check,
    fvector_bound_check,
    generalized_bound_check,
    stratify,
    two_term_decomposition,
)
from bcres.errors import BoundError, LoopError
from bcres.matroid import direct_sum, uniform_matroid
from bcres.util import bits


def test_two_term_u24(u24):
    cert = two_term_decomposition(u24)
    assert cert is not None
    assert cert.s == 2 and cert.free_part == frozenset()


def test_two_term_with_coloop(u24_plus_coloop):
    cert = two_term_decomposition(u24_plus_coloop)
    assert cert.s == 2
    assert cert.free_part == frozenset({5})
    assert cert.uniform_part == frozenset({1, 2, 3, 4})


def test_two_term_golden_none(golden):
    assert two_term_decomposition(golden) is None


def test_two_term_free():
    cert = two_term_decomposition(uniform_matroid(3, 3))
    assert cert.s == 0 and cert.free_part == frozenset({1, 2, 3})


def test_two_term_rejects_loops():
    with pytest.raises(LoopError):
        two_term_decomposition(uniform_matroid(0, 1))


def test_two_term_negative_nonuniform():
    # two parallel classes: not uniform after removing (zero) coloops
    m = direct_sum([uniform_matroid(1, 2), uniform_matroid(1, 2)])
    assert two_term_decomposition(m) is None


def test_fvector_bound_u24(u24):
    report = fvector_bound_check(u24, 2)
    by_k = {row["k"]: row for row in report}
    assert by_k[2]["independent"] == 6
    assert by_k[2]["bound"] == 3
    assert by_k[0]["independent"] == 1 and by_k[0]["bound"] == 1
    assert all(row["holds"] for row in report)


def test_fvector_bound_free():
    report = fvector_bound_check(uniform_matroid(3, 3), 3)
    from bcres.util import binom

    for row in report:
        assert row["independent"] == binom(3, row["k"])
        assert row["holds"]


def test_fvector_bound_precondition(golden):
    with pytest.raises(BoundError):
        fvector_bound_check(golden, 3)  # {4,5,6} is a dependent 3-subset


def test_fvector_bound_corpus_holds(golden):
    for m, s in [(golden, 2), (uniform_matroid(2, 6), 2), (uniform_matroid(3, 5), 3)]:
        assert all(row["holds"] for row in fvector_bound_check(m, s))


def test_extremal_h(u24, u24_plus_coloop, golden):
    assert extremal_h_check(u24, 2) is True
    assert extremal_h_check(u24_plus_coloop, 2) is True
    assert extremal_h_check(golden, 1) is False
    assert extremal_h_check(golden, 2) is False


def test_generalized_bound_u24(u24):
    rep = generalized_bound_check(u24)
    assert rep["h_fit_reading"]["fits"] is True
    assert rep["h_fit_reading"]["c"] == (1,)
    assert rep["h_fit_reading"]["cutoff"] == 2
    assert rep["literal_reading"] is not None


def test_generalized_bound_boolean():
    rep = generalized_bound_check(uniform_matroid(3, 3))
    assert rep["h_fit_reading"] is None or rep["h_fit_reading"]["fits"] in (True, False)


def test_generalized_bound_golden(golden):
    rep = generalized_bound_check(golden)
    assert rep["h_fit_reading"]["fits"] in (True, False)


def test_stratify_depth_one(u24_plus_coloop):
    s = stratify(u24_plus_coloop)
    assert isinstance(s, Stratification)
    assert s.depth == 0
    assert s.verify(u24_plus_coloop)


def test_stratify_free():
    s = stratify(uniform_matroid(3, 3))
    assert s.depth == 0
    assert s.strata[0].s == 0


def test_stratify_golden(golden):
    s = stratify(golden)
    assert s is not None
    assert s.verify(golden)
    assert sum(c.size for c in s.strata) == 6
    # restriction reading: the rank sum is reported, not assumed equal
    assert isinstance(s.rank_sum(), int)


def test_stratify_bound():
    with pytest.raises(BoundError):
        stratify(uniform_matroid(2, 13))


# -- the circuit-mask route against restricted matroids -------------------------
#
# The oracle builds the restricted matroid and decomposes it, as stratify
# did before it tested strata on circuit masks.


@settings(max_examples=150)
@given(st.one_of(linear_cases(), graphic_cases(), sum_cases()), st.data())
def test_uniform_plus_free_matches_restricted_decomposition(case, data):
    m = case[0]
    loops = sum(1 << i for i, e in enumerate(m.ground) if e in m.loops())
    mask = data.draw(st.integers(0, (1 << len(m.ground)) - 1)) & ~loops
    stratum = m.restrict(m.ground[i] for i in bits(mask))
    assert _uniform_plus_free(m, mask) == two_term_decomposition(stratum)


def restrict_route_stratify(matroid):
    """Stratification search testing every candidate stratum on its restricted matroid."""
    n = len(matroid.ground)
    ground = list(matroid.ground)
    dead = set()

    def subsets_desc(mask):
        subs = []
        sub = (mask - 1) & mask
        while True:
            subs.append(sub)
            if sub == 0:
                break
            sub = (sub - 1) & mask
        subs.sort(key=lambda s: bin(s).count("1"))
        return subs

    def search(mask):
        if mask == 0:
            return []
        if mask in dead:
            return None
        for nxt in subsets_desc(mask):
            elems = frozenset(ground[i] for i in range(n) if (mask ^ nxt) >> i & 1)
            cert = two_term_decomposition(matroid.restrict(elems))
            if cert is None:
                continue
            tail = search(nxt)
            if tail is not None:
                return [
                    StratumCertificate(
                        elems, cert.s, cert.rank, len(elems), cert.uniform_part, cert.free_part
                    )
                ] + tail
        dead.add(mask)
        return None

    strata = search((1 << n) - 1)
    if strata is None:
        return None
    chain = []
    remaining = set(matroid.ground)
    for s in strata:
        chain.append(frozenset(remaining))
        remaining -= s.elements
    return Stratification(chain, strata)


@settings(max_examples=150)
@given(st.one_of(linear_cases(), graphic_cases(), sum_cases()))
def test_stratify_peels_what_the_search_finds(case):
    # one element of a loopless matroid is a free stratum, so the peel
    # never fails; the search over restricted matroids is the oracle
    m = case[0]
    m = m.delete(m.loops())
    strat = stratify(m)
    assert isinstance(strat, Stratification) and strat.verify(m)
    assert strat == restrict_route_stratify(m)


def test_stratify_matches_restrict_route_on_corpus():
    for name, m in standard_corpus(0):
        if not m.is_loopless or len(m.ground) > STRATIFY_SIZE_LIMIT:
            continue
        assert stratify(m) == restrict_route_stratify(m), name


def test_cross_validate_u24(u24):
    rep = cross_validate(u24)
    assert rep["linearity"]["kind"] == "s-linear" and rep["linearity"]["s"] == 2
    assert rep["two_term_decomposition"] is not None
    assert rep["extremal_h"]["holds"] is True
    assert rep["linear_value_criterion"] is True
    assert rep["powers"][2] == "4-linear"
    assert rep["powers"][3] == "6-linear"
    m = rep["consistency"]
    assert m["linearity_iff_two_term"] == "confirmed"
    assert m["linearity_iff_extremal_h"] == "confirmed"
    assert m["powers_linear"] == "confirmed"
    assert m["linearity_implies_value_criterion"] == "confirmed"
    assert m["graded_implies_stratification"] == "confirmed"


def test_cross_validate_golden(golden):
    rep = cross_validate(golden)
    assert rep["linearity"]["kind"] == "graded-linear"
    assert rep["linearity"]["rows"] == [2, 3, 4]
    assert rep["two_term_decomposition"] is None
    assert rep["quotients"]["linear"] == "found"
    assert rep["componentwise_linear"] is True
    m = rep["consistency"]
    assert m["linearity_iff_two_term"] == "confirmed"  # not linear, no decomposition
    assert m["graded_implies_stratification"] == "confirmed"
    assert m["graded_quotients_imply_colon_graded"] == "confirmed"
    assert m["componentwise_implies_graded"] == "confirmed"


def test_cross_validate_boolean():
    rep = cross_validate(uniform_matroid(3, 3))
    assert rep["linearity"]["kind"] == "zero"
    assert all(
        v in ("confirmed", "consistent", "inconclusive") for v in rep["consistency"].values()
    )


def test_cross_validate_nonlinear_sum():
    # U_{2,3} + U_{4,5}: rows {2,4,5} are not consecutive: neither linear nor graded
    m = direct_sum([uniform_matroid(2, 3), uniform_matroid(4, 5)])
    rep = cross_validate(m)
    assert rep["linearity"]["kind"] == "none"
    assert rep["consistency"]["linearity_iff_two_term"] == "confirmed"
    assert rep["consistency"]["graded_implies_stratification"] == "confirmed"
    assert rep["h_fit"]["fits"] is False


@pytest.mark.parametrize(
    "a, b, iff, implies",
    [
        (True, True, "confirmed", "confirmed"),
        (True, False, "refuted", "refuted"),
        (True, None, "inconclusive", "inconclusive"),
        (False, True, "refuted", "confirmed"),
        (False, False, "confirmed", "confirmed"),
        (False, None, "inconclusive", "confirmed"),
        (None, True, "inconclusive", "inconclusive"),
        (None, False, "inconclusive", "inconclusive"),
        (None, None, "inconclusive", "inconclusive"),
    ],
)
def test_matrix_rule_truth_tables(a, b, iff, implies):
    assert _iff(a, b) == iff
    assert _implies(a, b) == implies


def test_cross_validate_past_the_stratify_bound():
    # an s-linear table is a true premise, and no stratification is known
    rep = cross_validate(uniform_matroid(2, 13), max_power=2)
    assert rep["linearity"]["kind"] == "s-linear" and rep["graded_linear"] is True
    assert rep["stratification"] is None
    assert rep["consistency"]["graded_implies_stratification"] == "inconclusive"


def _raise_bound(*args, **kwargs):
    raise BoundError("bound")


def test_matrix_false_premises_that_stay_inconclusive(monkeypatch):
    # U_{2,3} + U_{4,5} is neither graded linear nor componentwise linear,
    # and its ideal has no graded-linear quotient order
    m = direct_sum([uniform_matroid(2, 3), uniform_matroid(4, 5)])
    rep = cross_validate(m, max_power=2)
    assert rep["graded_linear"] is False and rep["componentwise_linear"] is False
    assert rep["quotients"]["graded"] == "none"
    assert rep["consistency"]["graded_implies_stratification"] == "confirmed"
    assert rep["consistency"]["componentwise_implies_graded"] == "confirmed"
    assert rep["consistency"]["graded_quotients_imply_colon_graded"] == "inconclusive"

    import bcres.decomposition

    monkeypatch.setattr(bcres.decomposition, "stratify", _raise_bound)
    rep = cross_validate(m, max_power=2)
    assert rep["graded_linear"] is False and rep["stratification"] is None
    assert rep["consistency"]["graded_implies_stratification"] == "inconclusive"

    monkeypatch.setattr(bcres.decomposition, "betti_table", _raise_bound)
    rep = cross_validate(m, max_power=2)
    assert rep["betti"] is None and rep["componentwise_linear"] is False
    assert rep["consistency"]["componentwise_implies_graded"] == "inconclusive"


def test_cube_past_the_enumeration_limit_is_inconclusive():
    # 56 broken circuits of size 3: the cube would form C(58, 3) = 30856 products
    rep = cross_validate(uniform_matroid(3, 9), max_power=3)
    assert rep["powers"][3] == "inconclusive: power 3 of 56 generators has 30856 products, limit 20000"
