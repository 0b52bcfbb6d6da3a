"""Betti tables (Hochster vs Taylor, the dual routes), linearity verdicts,
componentwise linearity.

The two Betti routes are independent constructions; their entrywise
agreement over the squarefree corpus is the load-bearing oracle check.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcres.complexes import bc_complex
from bcres.corpus import standard_corpus
from bcres.decomposition import cross_validate
from bcres.errors import BoundError, InputError
from bcres.ideals import (
    Monomial,
    MonomialIdeal,
    ideal_from_supports,
    polarize,
    power_ideal,
    quotients_analysis,
    stanley_reisner_ideal,
)
from bcres.matroid import uniform_matroid
from bcres.resolutions import (
    BettiTable,
    _faces_by_size_from_supports,
    _nonface_sieve,
    _polarized_componentwise_check,
    betti_hochster,
    betti_table,
    betti_taylor_oracle,
    classify_linearity,
    componentwise_linear_check,
    rows_consecutive_only,
)

V4 = tuple("x%d" % i for i in range(1, 5))
V6 = tuple("x%d" % i for i in range(1, 7))


def ideal(names, *exp_tuples):
    return MonomialIdeal(names, [Monomial(e) for e in exp_tuples])


@pytest.fixture
def golden_ideal(golden):
    return stanley_reisner_ideal(bc_complex(golden))


def test_principal_ideal():
    i = ideal(("x1", "x2"), (1, 1))
    assert betti_hochster(i).entries == {(0, 2): 1}
    assert betti_taylor_oracle(i).entries == {(0, 2): 1}


def test_u24_ideal_table():
    i = ideal(V4, (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1))
    expected = {(0, 2): 3, (1, 3): 2}
    assert betti_hochster(i).entries == expected
    assert betti_taylor_oracle(i).entries == expected


def test_zero_ideal_empty_table():
    z = MonomialIdeal(V4, [])
    assert betti_hochster(z).entries == {}
    assert betti_taylor_oracle(z).entries == {}
    assert classify_linearity(betti_hochster(z)).kind == "zero"


def test_koszul_pair():
    i = ideal(V4, (1, 1, 0, 0), (0, 0, 1, 1))
    expected = {(0, 2): 2, (1, 4): 1}
    assert betti_hochster(i).entries == expected
    assert betti_taylor_oracle(i).entries == expected


def test_golden_ideal_table(golden_ideal):
    expected = {(0, 2): 1, (0, 3): 1, (0, 4): 1, (1, 4): 1, (1, 5): 1}
    assert betti_hochster(golden_ideal).entries == expected
    assert betti_taylor_oracle(golden_ideal).entries == expected


def test_maximal_ideal_koszul_table():
    m = ideal(("x1", "x2", "x3"), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    # Koszul complex of three variables
    expected = {(0, 1): 3, (1, 2): 3, (2, 3): 1}
    assert betti_hochster(m).entries == expected
    assert betti_taylor_oracle(m).entries == expected


def test_hochster_rejects_nonsquarefree():
    with pytest.raises(InputError):
        betti_hochster(ideal(("x1",), (2,)))


def test_taylor_generator_limit():
    gens = [tuple(1 if j == i else 0 for j in range(13)) for i in range(13)]
    big = MonomialIdeal(tuple("x%d" % i for i in range(13)), [Monomial(g) for g in gens])
    with pytest.raises(BoundError):
        betti_taylor_oracle(big)


def test_oracle_agreement_bc_ideals(golden):
    matroids = [
        uniform_matroid(2, 4),
        uniform_matroid(2, 5),
        uniform_matroid(3, 5),
        uniform_matroid(2, 6),
        uniform_matroid(4, 6),
        golden,
    ]
    for m in matroids:
        i = stanley_reisner_ideal(bc_complex(m))
        if len(i.gens) > 12 or i.nvars > 6:
            continue
        for p in (0, 2, 3):
            assert betti_hochster(i, p).entries == betti_taylor_oracle(i, p).entries


def test_oracle_agreement_random_squarefree():
    import random

    rng = random.Random(7)
    names = tuple("x%d" % i for i in range(1, 7))
    pool = [frozenset(s) for k in (2, 3) for s in combinations(range(6), k)]
    for _ in range(25):
        fam = rng.sample(pool, rng.randint(1, 6))
        i = ideal_from_supports(names, fam)
        if len(i.gens) > 10:
            continue
        assert betti_hochster(i).entries == betti_taylor_oracle(i).entries


def test_beta0_counts_generators(golden_ideal):
    for i in (golden_ideal, ideal(V4, (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1))):
        for table in (betti_hochster(i), betti_taylor_oracle(i)):
            degs = {}
            for g in i.gens:
                degs[g.degree] = degs.get(g.degree, 0) + 1
            assert table.generator_degrees() == degs


def test_polarization_preserves_betti():
    cases = [
        ideal(("x1", "x2"), (2, 0), (1, 1)),
        ideal(("x1", "x2"), (2, 2)),
        ideal(("x1", "x2", "x3"), (2, 1, 0), (0, 1, 2), (1, 0, 1)),
    ]
    for i in cases:
        assert betti_hochster(polarize(i)).entries == betti_taylor_oracle(i).entries


def test_classify_linearity(golden_ideal):
    t = betti_hochster(ideal(V4, (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1)))
    v = classify_linearity(t)
    assert v.kind == "s-linear" and v.s == 2 and v.is_linear and v.is_graded_linear
    g = classify_linearity(betti_hochster(golden_ideal))
    assert g.kind == "graded-linear"
    assert g.row_set == (2, 3, 4)
    assert not g.is_linear and g.is_graded_linear
    synthetic = BettiTable({(0, 2): 1, (1, 6): 1})
    assert classify_linearity(synthetic).kind == "none"
    assert not rows_consecutive_only(synthetic)


def test_classify_per_row_consecutive():
    # rows {2,3}, but row 3 occupied at i = 0 and i = 2 with a gap: strict verdict rejects
    broken = BettiTable({(0, 2): 1, (0, 3): 1, (2, 5): 1})
    assert classify_linearity(broken).kind == "none"
    assert rows_consecutive_only(broken)
    # single-entry rows are trivially consecutive
    ok = BettiTable({(0, 2): 1, (1, 3): 1, (2, 5): 1})
    assert classify_linearity(ok).kind == "graded-linear"


def test_mapping_cone_formula_linear_quotients(golden_ideal):
    # with linear quotients, beta_i = sum_l C(n_l, i) placed at degree deg(a_l) + i
    from bcres.ideals import ordered_colon_ideals
    from bcres.util import binom

    rep = quotients_analysis(golden_ideal)
    order = rep["linear_quotients"]["order_indices"]
    gens = [golden_ideal.gens[k] for k in order]
    colons = ordered_colon_ideals(golden_ideal, order)
    expected = {}
    for l, g in enumerate(gens):
        n_l = len(colons[l - 1].gens) if l else 0
        for i in range(n_l + 1):
            key = (i, g.degree + i)
            expected[key] = expected.get(key, 0) + binom(n_l, i)
    assert betti_hochster(golden_ideal).entries == expected


def test_componentwise_linear(golden_ideal):
    ok, certs = componentwise_linear_check(golden_ideal)
    assert ok is True
    assert certs[2] == "2-linear" and certs[3] == "3-linear" and certs[4] == "4-linear"
    ok2, _ = componentwise_linear_check(ideal(V4, (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1)))
    assert ok2 is True
    ok3, certs3 = componentwise_linear_check(ideal(V4, (1, 1, 0, 0), (0, 0, 1, 1)))
    assert ok3 is False


def test_componentwise_gap_case():
    # (x1x2, x1x3x4x5): computed verdict, no ground truth asserted
    names = tuple("x%d" % i for i in range(1, 6))
    i = ideal(names, (1, 1, 0, 0, 0), (1, 0, 1, 1, 1))
    ok, certs = componentwise_linear_check(i)
    assert ok in (True, False)
    assert set(certs) >= {2, 3, 4}


@st.composite
def squarefree_ideals(draw):
    n = draw(st.integers(2, 7))
    support = st.sets(st.integers(0, n - 1), min_size=1, max_size=4)
    supports = draw(st.lists(support, min_size=2, max_size=6))
    return ideal_from_supports(tuple("x%d" % i for i in range(1, n + 1)), supports)


@settings(max_examples=100, deadline=None)
@given(squarefree_ideals())
def test_nonface_sieve_matches_support_containment(i):
    supports = i.support_masks()
    sieve = _nonface_sieve(i.nvars, supports)
    nonfaces = [mask for mask in range(1 << i.nvars) if any(g & mask == g for g in supports)]
    assert [mask for mask, bit in enumerate(sieve) if bit] == nonfaces
    faces = [mask for level in _faces_by_size_from_supports(i.nvars, supports) for mask in level]
    assert sorted(faces) == sorted(set(range(1 << i.nvars)) - set(nonfaces))


@settings(max_examples=100, deadline=None)
@given(squarefree_ideals())
def test_squarefree_route_matches_polarized_route(i):
    old, _ = _polarized_componentwise_check(i)
    new, certs = componentwise_linear_check(i)
    assert new is not None
    assert sorted(certs) == list(range(i.indeg(), i.indeg() + len(certs)))
    if old is not None:
        assert new == old, i.render()


CORPUS = standard_corpus(0)

# Conclusive only on the squarefree route: from degree 4 on, the polarized
# I_<d> is past the Hochster variable limit and has too many generators for
# the Taylor oracle.  name -> (componentwise, Betti class, rows)
RELABELLED = {
    "U_2_3+U_4_5": (False, "none", None),
    "G5_13-14-15-24-25-35-45": (True, "graded-linear", (2, 3, 4)),
    "G5_14-15-23-24-25-35-45": (True, "graded-linear", (2, 3, 4)),
    "L4_8_17": (True, "graded-linear", (2, 3, 4)),
}


@pytest.mark.parametrize("name, matroid", CORPUS, ids=[name for name, _ in CORPUS])
def test_squarefree_route_matches_polarized_route_on_corpus(name, matroid):
    i = stanley_reisner_ideal(bc_complex(matroid))
    new, _ = componentwise_linear_check(i)
    if i.is_zero:
        assert new is True
        return
    old, _ = _polarized_componentwise_check(i)
    assert new is not None
    if name in RELABELLED:
        assert old is None
    else:
        assert old == new


@pytest.mark.parametrize("name", sorted(RELABELLED))
def test_relabelled_componentwise_verdicts(name):
    matroid = dict(CORPUS)[name]
    i = stanley_reisner_ideal(bc_complex(matroid))
    want, kind, rows = RELABELLED[name]
    assert componentwise_linear_check(i)[0] is want
    v = classify_linearity(betti_table(i))
    assert v.kind == kind
    if rows is not None:
        assert v.row_set == rows
    report = cross_validate(matroid, max_power=2)
    assert report["componentwise_linear"] is want
    assert report["consistency"]["componentwise_implies_graded"] == "confirmed"


def test_componentwise_nonsquarefree_uses_full_components():
    # (x1^2, x1x2) = x1 (x1, x2) is 2-linear, so reg = maxdeg = 2 ends the degrees
    i = ideal(("x1", "x2"), (2, 0), (1, 1))
    assert componentwise_linear_check(i) == (True, {2: "2-linear"})
    # (x1^2, x2^2): its Koszul syzygy sits in degree 4, off the 2-linear row
    ci = ideal(("x1", "x2"), (2, 0), (0, 2))
    assert componentwise_linear_check(ci)[0] is False


def test_componentwise_unit_and_zero():
    assert componentwise_linear_check(MonomialIdeal(V4, [])) == (True, {})
    assert componentwise_linear_check(ideal(V4, (0, 0, 0, 0))) == (True, {0: "0-linear"})


def test_componentwise_variable_bound_is_inconclusive():
    names = tuple("x%d" % i for i in range(15))
    i = ideal_from_supports(names, [{0, 1}])
    ok, certs = componentwise_linear_check(i)
    assert ok is None and "inconclusive" in certs["ideal"]


def test_alternating_sum_matches_power_route():
    # cross-route identity on a power ideal: Taylor on I^2 vs Hochster on its polarization
    tri = ideal(V4, (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1))
    p2 = power_ideal(tri, 2)
    assert betti_taylor_oracle(p2).entries == betti_hochster(polarize(p2)).entries


def test_betti_table_dispatch(golden_ideal):
    assert betti_table(golden_ideal).entries == betti_hochster(golden_ideal).entries
    sq = ideal(("x1", "x2"), (2, 2))
    assert betti_table(sq).entries == betti_taylor_oracle(sq).entries
