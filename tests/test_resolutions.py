"""Betti tables (Hochster vs Taylor, the dual routes), linearity verdicts,
componentwise linearity.

The two Betti routes are independent constructions; their entrywise
agreement over the squarefree corpus is the load-bearing oracle check.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcres import _kernel, resolutions
from bcres.complexes import bc_complex
from bcres.corpus import standard_corpus
from bcres.decomposition import cross_validate
from bcres.errors import BoundError, InputError
from bcres.graphs import Graph, cycle_matroid
from bcres.ideals import (
    Monomial,
    MonomialIdeal,
    broken_circuit_ideal,
    component_ideal,
    ideal_from_supports,
    polarize,
    power_ideal,
    quotients_analysis,
    stanley_reisner_ideal,
)
from bcres.matroid import direct_sum, uniform_matroid
from bcres.resolutions import (
    HOCHSTER_VARIABLE_LIMIT,
    TAYLOR_GENERATOR_LIMIT,
    BettiTable,
    _lcm_lattice_masks,
    _polarized_componentwise_check,
    _squarefree_components,
    betti_hochster,
    betti_table,
    betti_taylor_oracle,
    classify_linearity,
    componentwise_linear_check,
    rows_consecutive_only,
)
from bcres.util import connected_unions, nonface_sieve

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


def test_hochster_kernel_gets_generator_supports(monkeypatch):
    # 14 variables: a face list would hold thousands of masks, the supports are
    # five, in four groups that share no variable, so the kernel runs once per group
    names = tuple("x%d" % i for i in range(1, 15))
    i = ideal_from_supports(names, [{0, 1}, {1, 2}, {3, 4, 5}, {6, 7, 8, 9}, {10, 11, 12, 13}])
    calls = []
    real = _kernel.hochster_betti
    monkeypatch.setattr(_kernel, "hochster_betti", lambda *args: calls.append(args) or real(*args))
    table = betti_hochster(i)
    supports = [[g for level in args[1] for g in level] for args in calls]
    assert len(calls) == 4
    assert all(len(connected_unions(group)) == 1 for group in supports)
    assert [g for group in supports for g in group] == i.support_masks()
    assert all(args[2] == _lcm_lattice_masks(group) for args, group in zip(calls, supports))
    assert table == betti_taylor_oracle(i)


@pytest.mark.parametrize("p", [0, 2, 32003])
def test_sum_of_two_u24_is_the_squared_veronese_table(p):
    # the bc ideal of U(2,4) is the squarefree Veronese of degree 2 in 3
    # variables, with table C(3, 2+i) * C(1+i, i); the sum's is its square
    # as a Poincare series
    i = broken_circuit_ideal(direct_sum([uniform_matroid(2, 4), uniform_matroid(2, 4)]))
    assert len(connected_unions(i.masks)) == 2
    squared = {(0, 2): 6, (1, 3): 4, (1, 4): 9, (2, 5): 12, (3, 6): 4}
    assert betti_hochster(i, p).entries == squared
    assert betti_taylor_oracle(i, p).entries == squared


@st.composite
def disjoint_sums(draw):
    """2-3 random squarefree ideals on disjoint blocks of variables, at most 12 in all."""
    sizes = draw(st.lists(st.integers(2, 4), min_size=2, max_size=3))
    supports, start = [], 0
    for n in sizes:
        block = st.sets(st.integers(start, start + n - 1), min_size=1, max_size=3)
        supports += draw(st.lists(block, min_size=1, max_size=4))
        start += n
    return ideal_from_supports(tuple("x%d" % k for k in range(start)), supports)


@settings(max_examples=150, deadline=None)
@given(disjoint_sums(), st.sampled_from([0, 2, 32003]))
def test_split_table_matches_the_unsplit_kernel(i, p):
    nonfaces = [[g for g in i.masks if g.bit_count() == k] for k in range(i.maxdeg() + 1)]
    whole = _kernel.hochster_betti(i.nvars, nonfaces, _lcm_lattice_masks(i.masks), p)
    table = betti_hochster(i, p)
    assert table == BettiTable(whole)
    if len(i.masks) <= TAYLOR_GENERATOR_LIMIT:
        assert table == betti_taylor_oracle(i, p)


def test_taylor_generator_limit():
    gens = [tuple(1 if j == i else 0 for j in range(13)) for i in range(13)]
    big = MonomialIdeal(tuple("x%d" % i for i in range(13)), [Monomial(g) for g in gens])
    with pytest.raises(BoundError, match="^Taylor oracle limited to 12 generators, got 13$"):
        betti_taylor_oracle(big)
    # squares of 13 variables polarize to 26: past both routes, refused by Taylor's bound
    squares = MonomialIdeal(big.names, [tuple(2 * e for e in g) for g in gens])
    with pytest.raises(BoundError, match="^Taylor oracle limited to 12 generators, got 13$"):
        betti_table(squares)


def tuple_taylor_oracle(ideal, characteristic=0):
    """The Taylor oracle on index-tuple cells, recomputing the lcm of every face of every cell."""
    gens = ideal.gens
    cells = {}
    for size in range(1, len(gens) + 1):
        for sub in combinations(range(len(gens)), size):
            m = gens[sub[0]]
            for i in sub[1:]:
                m = m.lcm(gens[i])
            cells.setdefault(m.exps, {}).setdefault(size, []).append(sub)
    entries = {}
    for exps, by_size in cells.items():
        ranks = {}
        for size in range(1, max(by_size) + 1):
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
                key = (size - 1, sum(exps))
                entries[key] = entries.get(key, 0) + h
    return BettiTable(entries, characteristic)


@st.composite
def few_generator_ideals(draw):
    n = draw(st.integers(1, 5))
    top = draw(st.sampled_from([1, 3]))  # squarefree, or exponents up to 3
    exps = st.tuples(*[st.integers(0, top)] * n).filter(any)
    gens = draw(st.lists(exps, min_size=1, max_size=8))
    return MonomialIdeal(tuple("x%d" % i for i in range(1, n + 1)), gens)


@settings(max_examples=150)
@given(few_generator_ideals(), st.sampled_from([0, 2, 3]))
def test_taylor_oracle_matches_the_tuple_cells(i, p):
    assert betti_taylor_oracle(i, p) == tuple_taylor_oracle(i, p)


def test_taylor_oracle_matches_the_tuple_cells_on_corpus_ideals():
    # broken-circuit ideals and their squares with at most 8 generators:
    # many cells share one lcm, so the face signs decide the ranks
    seen = set()
    for _, m in standard_corpus(0):
        base = broken_circuit_ideal(m)
        for i in (base, power_ideal(base, 2)):
            if 0 < len(i.gens) <= 8 and i not in seen:
                seen.add(i)
                for p in (0, 2, 3):
                    assert betti_taylor_oracle(i, p) == tuple_taylor_oracle(i, p), (i, p)
    assert len(seen) > 150


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
            assert {j: v for (i, j), v in table.entries.items() if i == 0} == degs


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


@settings(max_examples=100)
@given(squarefree_ideals())
def test_nonface_sieve_matches_support_containment(i):
    supports = i.support_masks()
    sieve = nonface_sieve(i.nvars, supports)
    nonfaces = [mask for mask in range(1 << i.nvars) if any(g & mask == g for g in supports)]
    assert [mask for mask, bit in enumerate(sieve) if bit] == nonfaces


@settings(max_examples=100)
@given(squarefree_ideals())
def test_squarefree_components_match_support_containment(i):
    supports = i.support_masks()
    comps = _squarefree_components(i)
    assert sorted(comps) == list(range(i.indeg(), i.maxdeg() + 1))
    for d, component in comps.items():
        brute = [
            mask
            for mask in range(1 << i.nvars)
            if mask.bit_count() == d and any(g & mask == g for g in supports)
        ]
        assert sorted(component) == brute, (i.render(), d)


@settings(max_examples=200)
@given(st.lists(st.integers(0, 255), max_size=9))
def test_lcm_lattice_is_every_union_of_a_nonempty_subset(supports):
    unions = set()
    for sub in range(1, 1 << len(supports)):
        union = 0
        for k, s in enumerate(supports):
            if sub >> k & 1:
                union |= s
        unions.add(union)
    assert _lcm_lattice_masks(supports) == sorted(unions)


def beyond_both_routes(component):
    """True when betti_table can take the component by neither route."""
    return (
        polarize(component).nvars > HOCHSTER_VARIABLE_LIMIT
        and len(component.gens) > TAYLOR_GENERATOR_LIMIT
    )


@settings(max_examples=100)
@given(squarefree_ideals())
def test_squarefree_route_matches_polarized_route(i):
    new, certs = componentwise_linear_check(i)
    assert new is not None
    assert sorted(certs) == list(range(i.indeg(), i.indeg() + len(certs)))
    # A componentwise linear ideal has reg = maxdeg, so the polarized route
    # visits I_<d> for d = indeg..maxdeg; if one of them is beyond both
    # routes, it can only answer None, after Hochster sums near the
    # variable limit on the others.  Every case it can answer is kept.
    degrees = range(i.indeg(), i.maxdeg() + 1)
    if new and any(beyond_both_routes(component_ideal(i, d)) for d in degrees):
        return
    old, _ = _polarized_componentwise_check(i)
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


def test_componentwise_check_checks_the_characteristic_first():
    for i in (MonomialIdeal(V4, []), ideal(V4, (0, 0, 0, 0)), ideal(("x1", "x2"), (1, 1))):
        with pytest.raises(InputError, match="characteristic must be 0 or a prime"):
            componentwise_linear_check(i, 4)
        with pytest.raises(InputError, match="characteristic must be 0 or a prime"):
            betti_table(i, 4)


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


@pytest.mark.parametrize(
    "i, polarized",
    [
        (ideal(("x",), (20001,)), False),  # 20001 copies: past the enumeration limit
        (ideal(("x", "y"), (8, 0), (0, 8)), False),  # 16 copy variables
        (ideal(("x", "y"), (7, 0), (0, 7), (1, 1)), True),  # 14 copy variables
        (ideal(V4, (2, 0, 0, 0), (1, 1, 0, 0)), True),
    ],
)
def test_betti_table_polarizes_only_for_hochster(i, polarized, monkeypatch):
    seen = []
    real = polarize
    monkeypatch.setattr(resolutions, "polarize", lambda j: seen.append(j) or real(j))
    table = betti_table(i)
    assert seen == ([i] if polarized else [])
    assert table == betti_taylor_oracle(i)


def test_cross_validate_ranks_the_ideal_once(monkeypatch):
    # U(2,5)'s bc ideal is generated in one degree, so cross_validate reads
    # its componentwise entry off the verdict instead of ranking I again
    m = uniform_matroid(2, 5)
    i = broken_circuit_ideal(m)
    assert i.indeg() == i.maxdeg()
    ranked = []
    real = resolutions.betti_hochster
    monkeypatch.setattr(resolutions, "betti_hochster", lambda j, p=0: ranked.append(j) or real(j, p))
    report = cross_validate(m, max_power=2)
    assert ranked.count(i) == 1
    assert report["componentwise_linear"] is True


@pytest.mark.parametrize("p", [0, 2])
def test_cross_validate_componentwise_entry_matches_the_check(p):
    for _, m in CORPUS:
        want = componentwise_linear_check(broken_circuit_ideal(m), p)[0]
        assert cross_validate(m, characteristic=p, max_power=2)["componentwise_linear"] is want


@pytest.mark.parametrize(
    "i, want",
    [
        (ideal(("x", "y"), (2, 0), (0, 2)), (False, {2: "not linear (LinearityVerdict(graded-linear, rows=(2, 3)))"})),
        (ideal(("x", "y"), (2, 0), (1, 1), (0, 2)), (True, {2: "2-linear"})),
    ],
    ids=["complete-intersection", "square-of-the-maximal-ideal"],
)
def test_componentwise_check_ranks_an_ideal_in_one_degree_once(i, want, monkeypatch):
    ranked = []
    real = resolutions.betti_table
    monkeypatch.setattr(resolutions, "betti_table", lambda j, p=0: ranked.append(j) or real(j, p))
    assert componentwise_linear_check(i) == want
    assert ranked == [i]


def test_five_disjoint_triangles_get_an_exact_componentwise_entry():
    # 15 variables, past the squarefree components' bound, but 5 generators
    # for Taylor: I is a complete intersection of quadrics, not 2-linear
    edges = [(3 * k + a, 3 * k + b) for k in range(5) for a, b in ((0, 1), (1, 2), (0, 2))]
    m = cycle_matroid(Graph(edges))
    i = broken_circuit_ideal(m)
    assert (i.nvars, len(i.degrees()), i.indeg(), i.maxdeg()) == (15, 5, 2, 2)
    assert componentwise_linear_check(i)[0] is None
    report = cross_validate(m, max_power=2)
    assert report["componentwise_linear"] is False
    assert report["consistency"]["componentwise_implies_graded"] == "confirmed"


def test_betti_table_dispatch(golden_ideal):
    assert betti_table(golden_ideal).entries == betti_hochster(golden_ideal).entries
    sq = ideal(("x1", "x2"), (2, 2))
    assert betti_table(sq).entries == betti_taylor_oracle(sq).entries
