"""Two-term decomposition, f-vector bounds, stratification, cross-validation."""

from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_matroid import graphic_cases, linear_cases, sum_cases

from bcres import decomposition, resolutions
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
from bcres.ideals import (
    _first_fit_order,
    broken_circuit_ideal,
    ideal_from_supports,
    polarize,
    polarized_nvars,
    power_ideal,
)
from bcres.matroid import direct_sum, uniform_matroid
from bcres.resolutions import (
    HOCHSTER_VARIABLE_LIMIT,
    TAYLOR_GENERATOR_LIMIT,
    betti_hochster,
    betti_taylor_oracle,
    classify_linearity,
    linearity_verdict,
)
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


# -- powers certified by linear quotients ----------------------------------------


@st.composite
def linear_ideal_powers(draw):
    """(I^k, k * s) for an ideal I generated in degree s: a squarefree Veronese ideal,
    the bc ideal of U(r, n) + free under a random order (both s-linear), or some of the
    s-subsets, whose powers need not be linear, so that a wrong certificate shows;
    k = 2, 3 on few enough variables that the certificate's Hochster bound mostly holds."""
    k = draw(st.sampled_from((2, 3)))
    kind = draw(st.sampled_from(("veronese", "bc", "subsets")))
    n = draw(st.integers(3 if kind != "subsets" else 4, 6 if k == 2 else 4))
    if kind == "bc":
        r = draw(st.integers(1, n - 1))
        m = direct_sum([uniform_matroid(r, n), uniform_matroid(2, 2)][: draw(st.integers(1, 2))])
        ideal = broken_circuit_ideal(m, draw(st.permutations(m.ground)))
    else:
        d = draw(st.integers(1, n - 1) if kind == "veronese" else st.integers(2, n - 2))
        supports = list(combinations(range(n), d))
        if kind == "subsets":  # sparse families, which are rarely linear
            rng = draw(st.randoms(use_true_random=False))
            supports = rng.sample(supports, rng.randint(2, len(supports) // 2 + 1))
        ideal = ideal_from_supports(["x%d" % i for i in range(n)], supports)
    return power_ideal(ideal, k), k * ideal.indeg()


# the square of the edge ideal of a path on 5 vertices has a graded order, but no
# linear resolution, so a certificate that only asked for a graded order fails here
PATH_SQUARE = power_ideal(
    ideal_from_supports(["x%d" % i for i in range(5)], [(4, 0), (0, 3), (3, 1), (1, 2)]), 2
)


def certified(power):
    """Whether linearity_verdict reads the power off a first-fit order, without a table."""
    if polarized_nvars(power) > HOCHSTER_VARIABLE_LIMIT:
        return False
    masks = polarize(power).masks
    return _first_fit_order(masks, range(len(masks)), False) is not None


@settings(max_examples=60, deadline=None)
@given(linear_ideal_powers())
@example((PATH_SQUARE, 4))
def test_linearity_verdict_is_the_tables_in_every_characteristic(case):
    # a certified power has the one row k * s; a miss falls back to the same table
    power, d = case
    assume(polarized_nvars(power) <= HOCHSTER_VARIABLE_LIMIT)
    one_row = certified(power)
    for characteristic in (0, 2, 32003):
        table = betti_hochster(polarize(power), characteristic)
        assert linearity_verdict(power, characteristic) == classify_linearity(table)
        if one_row:
            assert table.rows() == [d]
            if len(power.degrees()) <= TAYLOR_GENERATOR_LIMIT:
                assert betti_taylor_oracle(power, characteristic).rows() == [d]


def test_certificate_leaves_every_power_entry_as_the_table_reads_it(monkeypatch):
    found = []

    def recording(gens, candidates, graded):
        found.append(_first_fit_order(gens, candidates, graded) is not None)
        return [] if found[-1] else None

    monkeypatch.setattr(resolutions, "_first_fit_order", recording)
    with_certificate = [cross_validate(m, max_power=2)["powers"] for _, m in standard_corpus(0)]
    assert True in found  # a miss inside the bound is ranked as before: see the property above
    monkeypatch.setattr(resolutions, "_first_fit_order", lambda gens, candidates, graded: None)
    assert [cross_validate(m, max_power=2)["powers"] for _, m in standard_corpus(0)] == with_certificate


def test_square_past_the_hochster_bound_stays_inconclusive():
    # first fit would certify U(4,8)^2, but it has 15 polarized variables, and the
    # Taylor oracle refuses 357 generators
    power = power_ideal(broken_circuit_ideal(uniform_matroid(4, 8)), 2)
    assert polarized_nvars(power) == HOCHSTER_VARIABLE_LIMIT + 1
    masks = polarize(power).masks
    assert len(masks) == 357 and _first_fit_order(masks, range(357), False) is not None
    rep = cross_validate(uniform_matroid(4, 8), max_power=2)
    assert rep["powers"] == {2: "inconclusive: Taylor oracle limited to 12 generators, got 357"}
    assert rep["consistency"]["powers_linear"] == "inconclusive"


def test_certified_square_is_never_ranked(monkeypatch):
    # U(2,7)^2: 90 generators on 12 polarized variables, certified by first fit
    ideal = broken_circuit_ideal(uniform_matroid(2, 7))
    square = polarize(power_ideal(ideal, 2))
    ranked = []

    def counting(ideal_, characteristic=0):
        ranked.append(ideal_)
        return betti_hochster(ideal_, characteristic)

    monkeypatch.setattr(resolutions, "betti_hochster", counting)
    rep = cross_validate(uniform_matroid(2, 7), max_power=2)
    assert rep["powers"] == {2: "4-linear"}
    assert ideal in ranked and square not in ranked
