"""Monomial ideal operations against hand-checked and enumerated values."""

import json
from functools import reduce
from itertools import combinations, combinations_with_replacement, permutations
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bcres import ideals
from bcres.complexes import SimplicialComplex, bc_complex
from bcres.corpus import standard_corpus
from bcres.errors import BoundError, InputError
from bcres.ideals import (
    EXHAUSTIVE_QUOTIENT_LIMIT,
    Monomial,
    MonomialIdeal,
    _colon_generated_linearly,
    _exhaustive_quotient_order,
    _first_fit_order,
    broken_circuit_ideal,
    colon_ideal,
    complete_intersection_check,
    complex_of_ideal,
    component_ideal,
    facet_ideal,
    ideal_from_supports,
    minimalize,
    ordered_colon_ideals,
    polarize,
    polarized_nvars,
    power_ideal,
    quotients_analysis,
    stanley_reisner_ideal,
)
from bcres.matroid import direct_sum, graphic_matroid, uniform_matroid
from bcres.resolutions import _squarefree_components
from bcres.util import ENUMERATION_LIMIT


def ideal(names, *exp_tuples):
    return MonomialIdeal(names, [Monomial(e) for e in exp_tuples])


@pytest.fixture
def golden_ideal(golden):
    return stanley_reisner_ideal(bc_complex(golden))


V6 = tuple("x%d" % i for i in range(1, 7))
V4 = tuple("x%d" % i for i in range(1, 5))


def test_monomial_basics():
    m = Monomial((2, 0, 1))
    assert m.degree == 3
    assert m.support == frozenset({0, 2})
    assert not m.is_squarefree
    assert Monomial((1, 1, 0)).divides(Monomial((2, 1, 0)))
    assert Monomial((2, 1, 0)).lcm(Monomial((0, 3, 1))).exps == (2, 3, 1)
    assert Monomial((2, 1, 0)).gcd(Monomial((0, 3, 1))).exps == (0, 1, 0)
    assert Monomial((2, 1, 0)).div(Monomial((1, 1, 0))).exps == (1, 0, 0)


def test_minimal_generators_maintained():
    i = ideal(V4, (1, 1, 0, 0), (1, 1, 1, 0), (0, 0, 0, 1))
    assert len(i.gens) == 2


@settings(max_examples=200)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=12)
    )
)
def test_minimalize_matches_brute_force(exps):
    kept = minimalize(exps)
    monomials = [Monomial(e) for e in exps]
    brute = {m.exps for m in monomials if not any(n != m and n.divides(m) for n in monomials)}
    assert set(kept) == brute and len(kept) == len(brute)
    word = lambda e: tuple(i for i, k in enumerate(e) for _ in range(k))
    assert list(kept) == sorted(kept, key=lambda e: (sum(e), word(e)))


def minimal_monomials(monomials):
    """minimalize on the Monomials' exponent tuples, back as Monomials."""
    return tuple(map(Monomial, minimalize(m.exps for m in monomials)))


def colon_generated_linearly_oracle(prefix, nxt, graded):
    """Minimalize the colon generators g / gcd(g, nxt) and read their degrees."""
    if not prefix:
        return True
    quotients = minimal_monomials([g.div(g.gcd(nxt)) for g in prefix])
    if graded:
        return quotients[0].degree == 1
    return all(q.degree == 1 for q in quotients)


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=10)
    ),
    st.randoms(use_true_random=False),
)
def test_colon_linearity_matches_minimalize_route(exps, rng):
    # the mask test on the polarization answers as the oracle on the Monomials
    i = MonomialIdeal(["x%d" % v for v in range(len(exps[0]))], exps)
    pairs = list(zip(polarize(i).masks, i.gens))
    rng.shuffle(pairs)
    masks, gens = [p[0] for p in pairs], [p[1] for p in pairs]
    for l in range(len(gens)):
        for graded in (False, True):
            assert _colon_generated_linearly(masks[:l], masks[l], graded) == (
                colon_generated_linearly_oracle(gens[:l], gens[l], graded)
            )


def test_stanley_reisner_u24(u24):
    i = stanley_reisner_ideal(bc_complex(u24))
    assert i == ideal(V4, (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1))
    assert i.render() == "(x2*x3, x2*x4, x3*x4)"


def test_stanley_reisner_golden(golden_ideal):
    assert golden_ideal == ideal(
        V6, (0, 0, 0, 0, 1, 1), (0, 1, 1, 0, 0, 1), (0, 1, 1, 1, 1, 0)
    )
    assert golden_ideal.render() == "(x5*x6, x2*x3*x6, x2*x3*x4*x5)"


def test_stanley_reisner_full_simplex():
    c = SimplicialComplex((1, 2, 3), [{1, 2, 3}])
    assert stanley_reisner_ideal(c).is_zero


def test_broken_circuit_ideal_matches_stanley_reisner_route():
    for name, m in standard_corpus(0):
        for order in (None, tuple(reversed(m.ground))):
            assert broken_circuit_ideal(m, order) == stanley_reisner_ideal(bc_complex(m, order)), name


def test_facet_ideal():
    c = SimplicialComplex((1, 2, 3, 4), [{1, 2}, {1, 3}, {1, 4}])
    assert facet_ideal(c) == ideal(V4, (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1))
    single = SimplicialComplex((1, 2, 3), [{1, 2, 3}])
    assert facet_ideal(single).render() == "(x1*x2*x3)"


def test_complex_of_ideal_roundtrip(golden_ideal, u24):
    u24_ideal = stanley_reisner_ideal(bc_complex(u24))
    for i in (golden_ideal, u24_ideal, ideal(("x1", "x2"), (1, 1))):
        assert stanley_reisner_ideal(complex_of_ideal(i)) == i


def test_complex_of_ideal_examples():
    two_points = complex_of_ideal(ideal(("x1", "x2"), (1, 1)))
    assert set(two_points.facets) == {frozenset({"x1"}), frozenset({"x2"})}
    c = complex_of_ideal(ideal(V4, (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1)))
    assert set(c.facets) == {
        frozenset({"x1", "x2"}),
        frozenset({"x1", "x3"}),
        frozenset({"x1", "x4"}),
    }
    full = complex_of_ideal(MonomialIdeal(("x1", "x2", "x3"), []))
    assert full.facets == (frozenset({"x1", "x2", "x3"}),)


def test_complex_of_ideal_rejects_nonsquarefree():
    with pytest.raises(InputError):
        complex_of_ideal(ideal(("x1",), (2,)))


def test_roundtrip_exhaustive_small():
    # every squarefree ideal on 3 variables round-trips
    names = ("x1", "x2", "x3")
    supports = [frozenset(s) for k in range(1, 4) for s in combinations(range(3), k)]
    import itertools

    for r in range(4):
        for family in itertools.combinations(supports, r):
            i = ideal_from_supports(names, family)
            assert stanley_reisner_ideal(complex_of_ideal(i)) == i


def test_colon_examples(golden_ideal):
    g = golden_ideal
    c1 = colon_ideal(ideal(V6, (0, 0, 0, 0, 1, 1)), Monomial((0, 1, 1, 0, 0, 1)))
    assert c1 == ideal(V6, (0, 0, 0, 0, 1, 0))
    c2 = colon_ideal(
        ideal(V6, (0, 0, 0, 0, 1, 1), (0, 1, 1, 0, 0, 1)), Monomial((0, 1, 1, 1, 1, 0))
    )
    assert c2 == ideal(V6, (0, 0, 0, 0, 0, 1))
    assert colon_ideal(g, Monomial((0,) * 6)) == g


def test_colon_contains_and_unit(golden_ideal):
    g = golden_ideal
    for gen in g.gens:
        c = colon_ideal(g, gen)
        assert c.is_unit
    c = colon_ideal(g, Monomial((1, 0, 0, 0, 0, 0)))
    for gen in g.gens:
        assert c.contains(gen)


def test_quotients_golden(golden_ideal):
    rep = quotients_analysis(golden_ideal)
    assert rep["linear_quotients"]["status"] == "found"
    assert rep["graded_linear_quotients"]["status"] == "found"
    # the listed order works: J_2 = (x5), J_3 = (x6)
    colons = ordered_colon_ideals(golden_ideal, [0, 1, 2])
    assert colons[0] == ideal(V6, (0, 0, 0, 0, 1, 0))
    assert colons[1] == ideal(V6, (0, 0, 0, 0, 0, 1))


def test_quotients_u24_triangle():
    i = ideal(V4, (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1))
    rep = quotients_analysis(i)
    assert rep["linear_quotients"]["status"] == "found"
    assert rep["search"] == "exhaustive"


def test_quotients_principal_vacuous():
    i = ideal(("x1", "x2"), (1, 1))
    rep = quotients_analysis(i)
    assert rep["linear_quotients"]["status"] == "found"


@pytest.mark.parametrize(
    "exps, order", [([], []), ([(1, 0, 2)], ["x*z^2"])], ids=["zero", "principal"]
)
def test_quotients_of_at_most_one_generator(exps, order):
    found = {"status": "found", "order": order, "order_indices": list(range(len(exps)))}
    assert quotients_analysis(ideal(("x", "y", "z"), *exps)) == {
        "linear_quotients": found,
        "graded_linear_quotients": found,
        "search": "exhaustive",
    }


def test_quotients_negative():
    # two coprime quadrics: colon is a quadric either way
    i = ideal(V4, (1, 1, 0, 0), (0, 0, 1, 1))
    rep = quotients_analysis(i)
    assert rep["linear_quotients"]["status"] == "none"
    assert rep["graded_linear_quotients"]["status"] == "none"


# -- generator-order searches against brute force and the searches they replaced


def exhaustive_quotient_order_oracle(gens, graded):
    """The memoized prefix-set DFS that answered both questions up to the limit."""
    m = len(gens)
    dead = set()

    def extend(chosen_mask, order):
        if len(order) == m:
            return list(order)
        if chosen_mask in dead:
            return None
        prefix = [gens[i] for i in range(m) if chosen_mask >> i & 1]
        for i in range(m):
            if chosen_mask >> i & 1:
                continue
            if colon_generated_linearly_oracle(prefix, gens[i], graded):
                order.append(i)
                got = extend(chosen_mask | (1 << i), order)
                if got is not None:
                    return got
                order.pop()
        dead.add(chosen_mask)
        return None

    return extend(0, [])


def greedy_quotient_order_oracle(gens, graded):
    """The smallest-degree-first search with one step of lookahead that answered both past it."""
    m = len(gens)
    ranked = sorted(range(m), key=lambda i: (gens[i].degree, gens[i].exps))
    order = []
    chosen = set()
    for step in range(m):
        prefix = [gens[i] for i in order]
        placed = False
        for i in ranked:
            if i in chosen:
                continue
            if colon_generated_linearly_oracle(prefix, gens[i], graded):
                if step == m - 1 or any(
                    j not in chosen
                    and j != i
                    and colon_generated_linearly_oracle(prefix + [gens[i]], gens[j], graded)
                    for j in ranked
                ):
                    order.append(i)
                    chosen.add(i)
                    placed = True
                    break
        if not placed:
            return None
    return order


def quotients_report_oracle(ideal_):
    """The report as built from running both searches for both keys."""
    report = {}
    gens = list(ideal_.gens)
    exhaustive = len(gens) <= EXHAUSTIVE_QUOTIENT_LIMIT
    for key, graded in (("linear_quotients", False), ("graded_linear_quotients", True)):
        if exhaustive:
            order = exhaustive_quotient_order_oracle(gens, graded)
            status = "found" if order is not None else "none"
        else:
            order = greedy_quotient_order_oracle(gens, graded)
            status = "found" if order is not None else "inconclusive"
        report[key] = {
            "status": status,
            "order": [gens[i].render(ideal_.names) for i in order] if order is not None else None,
        }
        if order is not None:
            report[key]["order_indices"] = list(order)
    report["search"] = "exhaustive" if exhaustive else "greedy"
    return report


def monomial_ideals(nvars=st.integers(1, 6), degrees=st.integers(1, 4), raw_sizes=st.integers(1, 14)):
    """Ideals in n variables from k words of d or d + 1 variable indices, exponents capped
    at 2: close degrees keep most generators minimal, and mixed degrees still occur."""

    def with_shape(n, d, k):
        word = st.lists(st.integers(0, n - 1), min_size=d, max_size=d + 1)
        exps = word.map(lambda w: tuple(min(2, w.count(i)) for i in range(n)))
        return st.lists(exps, min_size=k, max_size=k).map(
            lambda gens: MonomialIdeal(["x%d" % i for i in range(n)], gens)
        )

    return st.tuples(nvars, degrees, raw_sizes).flatmap(lambda t: with_shape(*t))


def assert_order_passes(ideal_, entry, graded):
    """A found order lists every generator once, and each colon ideal along it is linear
    (graded: contains a variable), read off the minimal generators of the colon."""
    order = entry["order_indices"]
    assert sorted(order) == list(range(len(ideal_.gens)))
    assert entry["order"] == [ideal_.gens[i].render(ideal_.names) for i in order]
    for colon in ordered_colon_ideals(ideal_, order):
        degrees = [g.degree for g in colon.gens]
        assert (min(degrees) if graded else max(degrees)) == 1


def some_permutation_passes(gens, graded):
    """Brute force: whether any permutation passes the minimalize oracle at every colon."""
    fits = {}

    def fit(prefix, nxt):
        key = (frozenset(prefix), nxt)
        if key not in fits:
            fits[key] = colon_generated_linearly_oracle([gens[i] for i in prefix], gens[nxt], graded)
        return fits[key]

    return any(
        all(fit(p[:l], p[l]) for l in range(len(p))) for p in permutations(range(len(gens)))
    )


def graded_order_reaches_all(gens):
    """Subset DP: a set of generators has a graded order when one of them fits after the
    others (their colon contains a variable: some g / gcd(g, it) has degree 1) and the
    others have one."""
    m = len(gens)
    into = [
        sum(1 << h for h in range(m) if gens[h].div(gens[h].gcd(gens[k])).degree == 1)
        for k in range(m)
    ]
    reached = [False] * (1 << m)
    reached[0] = True
    for mask in range(1 << m):
        if reached[mask]:
            for k in range(m):
                if not mask >> k & 1 and (mask == 0 or into[k] & mask):
                    reached[mask | 1 << k] = True
    return reached[-1]


@settings(max_examples=300)
@given(
    st.one_of(
        monomial_ideals(),
        # 5 or 6 variables in degrees 2 to 4 keep most of 12 to 14 generators minimal
        monomial_ideals(st.integers(5, 6), st.integers(2, 3), st.integers(12, 14)),
    )
)
def test_quotients_report_matches_the_replaced_searches(ideal_):
    # the JSON text, key order included, on both sides of EXHAUSTIVE_QUOTIENT_LIMIT
    assert json.dumps(quotients_analysis(ideal_)) == json.dumps(quotients_report_oracle(ideal_))


def test_quotients_report_matches_the_replaced_searches_on_corpus():
    # the corpus holds the greedy route's found orders, which random ideals rarely have
    for name, m in standard_corpus(0):
        i = broken_circuit_ideal(m)
        assert json.dumps(quotients_analysis(i)) == json.dumps(quotients_report_oracle(i)), name


@settings(max_examples=150)
@given(monomial_ideals(raw_sizes=st.integers(1, 7)))
def test_quotient_statuses_match_brute_force_over_permutations(ideal_):
    rep = quotients_analysis(ideal_)
    assert rep["search"] == "exhaustive"
    for key, graded in (("linear_quotients", False), ("graded_linear_quotients", True)):
        found = rep[key]["status"] == "found"
        assert found == some_permutation_passes(ideal_.gens, graded)
        assert rep[key]["status"] == ("found" if found else "none")
        if found:
            assert_order_passes(ideal_, rep[key], graded)


@settings(max_examples=60)
@given(
    monomial_ideals(st.integers(5, 6), st.integers(2, 3), st.integers(16, 30)),
    st.randoms(use_true_random=False),
)
def test_graded_walk_matches_subset_dp(ideal_, rng):
    gens = rng.sample(ideal_.gens, min(13, len(ideal_.gens)))
    assume(len(gens) >= 10)
    sub = MonomialIdeal(ideal_.names, gens)
    exists = graded_order_reaches_all(sub.gens)
    rep = quotients_analysis(sub)
    assert rep["search"] == "greedy"
    graded = rep["graded_linear_quotients"]
    assert (graded["status"] == "found") == exists
    if exists:
        assert_order_passes(sub, graded, True)
    else:
        assert rep["linear_quotients"]["status"] == "inconclusive"
    if rep["linear_quotients"]["status"] == "found":
        assert_order_passes(sub, rep["linear_quotients"], False)
    # the walk is exact from any start of minimal degree, whatever order follows
    candidates = list(range(len(sub.gens)))
    rng.shuffle(candidates)
    first = min(candidates, key=lambda i: sub.gens[i].degree)
    candidates.remove(first)
    order = _first_fit_order(polarize(sub).masks, [first] + candidates, True)
    assert (order is not None) == exists


@settings(max_examples=200)
@given(
    st.one_of(
        monomial_ideals(raw_sizes=st.integers(1, 9)),
        # few variables in low degrees give linear orders of several generators
        monomial_ideals(st.integers(3, 5), st.integers(1, 2), st.integers(4, 12)),
    )
)
def test_linear_first_fit_order_is_the_exhaustive_order(ideal_):
    masks = polarize(ideal_).masks[:EXHAUSTIVE_QUOTIENT_LIMIT]
    order = _first_fit_order(masks, range(len(masks)), False)
    if order is not None:
        assert tuple(order) == _exhaustive_quotient_order(masks, range(len(masks)))
        gens = [ideal_.gens[k] for k in order]
        assert all(colon_generated_linearly_oracle(gens[:l], gens[l], False) for l in range(len(gens)))


def _exhaustive_search_forbidden(gens, candidates):
    raise AssertionError("exhaustive quotient search ran")


@pytest.mark.parametrize(
    "ideal_, linear",
    [
        (broken_circuit_ideal(uniform_matroid(2, 4)), "found"),
        (ideal(V4, (1, 1, 0, 0), (0, 0, 1, 1)), "none"),  # no graded order
        (broken_circuit_ideal(uniform_matroid(2, 6)), "found"),  # past the limit
        # 10 generators with a graded order, where a linear miss stays unproven
        (
            broken_circuit_ideal(
                graphic_matroid([(1, 3), (1, 6), (2, 3), (2, 5), (2, 6), (3, 6), (4, 5), (4, 6), (5, 6)])
            ),
            "inconclusive",
        ),
    ],
    ids=["u24", "coprime-quadrics", "u26", "graph-past-the-limit"],
)
def test_quotients_answer_without_the_exhaustive_search(monkeypatch, ideal_, linear):
    expected = quotients_analysis(ideal_)
    assert expected["linear_quotients"]["status"] == linear
    monkeypatch.setattr(ideals, "_exhaustive_quotient_order", _exhaustive_search_forbidden)
    assert quotients_analysis(ideal_) == expected


def test_exhaustive_search_certifies_a_linear_miss(monkeypatch):
    # the bc ideal of the graph with edges 12, 13, 14, 24, 25, 34, 35 has a graded order
    # but no linear one, so the linear first fit misses and only the search can say none
    graph = graphic_matroid([(1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 4), (3, 5)])
    i = broken_circuit_ideal(graph)
    assert i.render() == "(x3*x4, x3*x6, x2*x4*x6, x2*x5*x7, x5*x6*x7)"
    rep = quotients_analysis(i)
    assert rep["search"] == "exhaustive"
    assert rep["linear_quotients"] == {"status": "none", "order": None}
    assert rep["graded_linear_quotients"]["status"] == "found"
    assert not some_permutation_passes(i.gens, False)
    monkeypatch.setattr(ideals, "_exhaustive_quotient_order", _exhaustive_search_forbidden)
    with pytest.raises(AssertionError, match="exhaustive quotient search ran"):
        quotients_analysis(i)


def test_quotients_greedy_route_u26():
    i = broken_circuit_ideal(uniform_matroid(2, 6))
    assert len(i.gens) == EXHAUSTIVE_QUOTIENT_LIMIT + 1
    rep = quotients_analysis(i)
    assert rep["search"] == "greedy"
    assert rep["linear_quotients"]["status"] == "found"
    assert rep["graded_linear_quotients"]["status"] == "found"
    assert_order_passes(i, rep["linear_quotients"], False)
    assert_order_passes(i, rep["graded_linear_quotients"], True)


def test_quotients_greedy_route_miss_reads_inconclusive():
    # x8*x9, from the U(2,3) summand, shares no variable with the other ten generators,
    # so no colon into or out of it contains a variable: the subset DP proves there is no
    # graded order, hence no linear one, but past the limit a miss still reads inconclusive
    i = broken_circuit_ideal(direct_sum([uniform_matroid(2, 6), uniform_matroid(2, 3)]))
    assert len(i.gens) == 11
    assert not graded_order_reaches_all(i.gens)
    rep = quotients_analysis(i)
    assert rep["search"] == "greedy"
    for key in ("linear_quotients", "graded_linear_quotients"):
        assert rep[key] == {"status": "inconclusive", "order": None}


def test_complete_intersection():
    assert complete_intersection_check(ideal(V4, (1, 1, 0, 0), (0, 0, 1, 1)))
    assert not complete_intersection_check(ideal(V4, (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1)))


def test_complete_intersection_golden(golden_ideal):
    assert not complete_intersection_check(golden_ideal)


def test_polarize():
    p = polarize(ideal(("x1",), (2,)))
    assert p.names == ("x1a", "x1b")
    assert p.gens == (Monomial((1, 1)),)
    sf = ideal(V4, (1, 1, 0, 0))
    assert polarize(sf) is sf
    p2 = polarize(ideal(("x1", "x2"), (2, 0), (1, 1)))
    assert p2.names == ("x1a", "x1b", "x2")
    assert set(p2.gens) == {Monomial((1, 1, 0)), Monomial((1, 0, 1))}
    # a copy skips a name that is taken, and suffixes run on past z
    taken = polarize(ideal(("x", "xa"), (2, 0), (1, 1)))
    assert taken.names == ("xb", "xc", "xa") and taken.render() == "(xb*xc, xb*xa)"
    assert polarize(ideal(("x", "y"), (27, 0), (1, 1))).names[24:] == ("xy", "xz", "xaa", "y")
    # the count betti_table reads before it polarizes is the polarization's
    for i in (sf, ideal(("x1",), (2,)), ideal(("x", "y", "z"), (27, 0, 0), (1, 1, 0))):
        assert polarized_nvars(i) == polarize(i).nvars
    with pytest.raises(BoundError, match="^polarization has 20001 copy variables, limit 20000$"):
        polarize(ideal(("x", "y"), (20000, 0), (1, 1)))


def test_component_ideal(golden_ideal):
    g = golden_ideal
    assert component_ideal(g, 2) == ideal(V6, (0, 0, 0, 0, 1, 1))
    c3 = component_ideal(g, 3)
    expected = ideal(
        V6,
        (0, 1, 1, 0, 0, 1),
        (1, 0, 0, 0, 1, 1),
        (0, 1, 0, 0, 1, 1),
        (0, 0, 1, 0, 1, 1),
        (0, 0, 0, 1, 1, 1),
        (0, 0, 0, 0, 2, 1),
        (0, 0, 0, 0, 1, 2),
    )
    assert c3 == expected
    assert component_ideal(g, 1).is_zero


def test_component_past_the_enumeration_limit_is_refused():
    i = ideal(tuple("x%d" % v for v in range(1, 9)), (1,) + (0,) * 7)
    # C(9 + 7, 7) = 11440 is within the limit; the degree-9 multiples of x1 are
    # built from x1 one variable at a time
    assert len(component_ideal(i, 9).gens) == comb(8 + 7, 7)
    # C(12 + 7, 7) = 50388 are refused before any is listed
    with pytest.raises(BoundError, match="^degree 12 on 8 variables has 50388 monomials, limit 20000$"):
        component_ideal(i, 12)


def test_power_past_the_enumeration_limit_is_refused():
    # the maximal ideal of 40 variables: C(40 + 4 - 1, 4) = 123410 products
    i = ideal(tuple("x%d" % v for v in range(1, 41)), *[[int(v == w) for v in range(40)] for w in range(40)])
    with pytest.raises(BoundError, match="^power 4 of 40 generators has 123410 products, limit 20000$"):
        power_ideal(i, 4)


def test_power_ideal():
    sq = power_ideal(ideal(("x1", "x2"), (1, 1)), 2)
    assert sq.gens == (Monomial((2, 2)),)
    tri = ideal(V4, (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1))
    p2 = power_ideal(tri, 2)
    assert len(p2.gens) == 6
    assert all(g.degree == 4 for g in p2.gens)
    assert power_ideal(tri, 1) == tri


def test_power_membership_bruteforce():
    # every generator of I^2 is a product of two generators and vice versa
    tri = ideal(V4, (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1))
    p2 = power_ideal(tri, 2)
    products = {a.mul(b) for a in tri.gens for b in tri.gens}
    assert set(p2.gens) <= products
    for m in products:
        assert p2.contains(m)


# -- the exponent view against the Monomial route -------------------------------


def polarize_oracle(names, gens):
    """polarize as a loop over Monomials: exponent e of variable i becomes e copies."""
    tops = [max([g.exps[i] for g in gens] + [1]) for i in range(len(names))]
    new_names, slot = [], []
    for i, name in enumerate(names):
        slot.append(len(new_names))
        new_names.extend([name] if tops[i] == 1 else [name + c for c in "abcdefghijklmnopqrstuvwxyz"[: tops[i]]])
    polarized = []
    for g in gens:
        exps = [0] * len(new_names)
        for i, e in enumerate(g.exps):
            for k in range(e):
                exps[slot[i] + k] = 1
        polarized.append(Monomial(exps))
    return MonomialIdeal(new_names, polarized)


def compositions(total, parts):
    """Exponent vectors of the given degree, in increasing tuple order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def assert_exponent_view(i, gens):
    """exponents, polarize, powers and degree components of i against the Monomial
    route, given i's minimal generators as that route computes them."""
    n = i.nvars
    assert i.exponents() == [g.exps for g in gens]
    assert polarize(i) == polarize_oracle(i.names, gens)
    for k in (2, 3):
        products = (reduce(Monomial.mul, combo) for combo in combinations_with_replacement(gens, k))
        assert power_ideal(i, k).gens == minimal_monomials(products)
    indeg = gens[0].degree if gens else 0
    for d in range(max(indeg - 1, 0), indeg + 4):
        if comb(d + n - 1, d) > ENUMERATION_LIMIT:
            with pytest.raises(BoundError):
                i.monomials_of_degree(d)
            continue
        filtered = [m for m in map(Monomial, compositions(d, n)) if any(g.divides(m) for g in gens)]
        assert i.monomials_of_degree(d) == filtered


@settings(max_examples=100)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=8))
    )
)
@example((3, []))  # the zero ideal
@example((3, [(0, 0, 0), (2, 1, 0)]))  # the unit ideal
def test_exponent_view_matches_the_monomial_route(case):
    n, exps = case
    names = ["x%d" % v for v in range(n)]
    gens = minimal_monomials(map(Monomial, exps))
    i = MonomialIdeal(names, exps)
    assert i.gens == gens
    assert_exponent_view(i, gens)


@settings(max_examples=150)
@given(
    # names whose copies collide with other names unless polarize skips them
    st.lists(st.sampled_from(["x", "xa", "xb", "xaa", "y", "ya"]), min_size=1, max_size=6, unique=True).flatmap(
        lambda names: st.tuples(
            st.just(names),
            st.lists(st.tuples(*[st.integers(0, 4)] * len(names)), min_size=1, max_size=14),
            st.tuples(*[st.integers(0, 4)] * len(names)),
        )
    ),
    st.randoms(use_true_random=False),
)
def test_non_squarefree_ideal_walks_and_colons_as_the_monomial_route(case, rng):
    names, exps, divisor = case
    i = MonomialIdeal(names, exps)
    assume(not i.squarefree)
    polarized = polarize(i)
    assert len(set(polarized.names)) == len(polarized.names)
    tops = [max(column) for column in zip(*i.exponents())]
    assert {name for name, top in zip(names, tops) if top <= 1} <= set(polarized.names)
    report, polarized_report = quotients_analysis(i), quotients_analysis(polarized)
    assert report["search"] == polarized_report["search"]
    for key in ("linear_quotients", "graded_linear_quotients"):
        assert report[key]["status"] == polarized_report[key]["status"]
        assert report[key].get("order_indices") == polarized_report[key].get("order_indices")
    if report["search"] == "exhaustive":
        assert json.dumps(report) == json.dumps(quotients_report_oracle(i))
    gens = i.gens
    m = Monomial(divisor)
    assert colon_ideal(i, m).gens == minimal_monomials(g.div(g.gcd(m)) for g in gens)
    order = list(range(len(gens)))
    rng.shuffle(order)
    ordered = [gens[k] for k in order]
    assert [c.gens for c in ordered_colon_ideals(i, order)] == [
        minimal_monomials(g.div(g.gcd(ordered[l])) for g in ordered[:l]) for l in range(1, len(ordered))
    ]


# -- squarefree ideals on support masks against the Monomial route ------------


def monomial_of_mask(n, mask):
    return Monomial([mask >> i & 1 for i in range(n)])


def test_mask_order_is_minimalize_order_not_numeric():
    # a*e (mask 17) precedes b*c (mask 6): generators compare by their variable indices
    five_cycle = MonomialIdeal.from_masks("abcde", [3, 6, 12, 24, 17])
    assert five_cycle.masks == (3, 17, 6, 12, 24)
    assert five_cycle.render() == "(a*b, a*e, b*c, c*d, d*e)"
    assert five_cycle.gens == minimal_monomials(monomial_of_mask(5, m) for m in (3, 6, 12, 24, 17))


@settings(max_examples=150)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, (1 << n) - 1), max_size=12),
            st.tuples(*[st.integers(0, 2)] * n),
        )
    )
)
def test_mask_route_matches_the_monomial_route(case):
    n, masks, divisor = case
    names = ["x%d" % i for i in range(n)]
    gens = minimal_monomials(monomial_of_mask(n, m) for m in masks)  # the Monomial route's generators
    i = MonomialIdeal.from_masks(names, masks)
    assert i.squarefree and i.gens == gens
    assert i.render() == "(%s)" % ", ".join(g.render(names) for g in gens) if gens else i.render() == "(0)"
    assert i.support_masks() == [sum(1 << v for v in g.support) for g in gens]
    assert i.degrees() == [g.degree for g in gens]
    assert_exponent_view(i, gens)
    # equal and hashed alike however it is built: Monomials, or with a redundant
    # generator that is not squarefree, which sends the constructor through minimalize
    for other in (MonomialIdeal(names, gens), MonomialIdeal(names, list(gens) + [g.mul(g) for g in gens[:1]])):
        assert other == i and hash(other) == hash(i) and other.masks == i.masks
    m = Monomial(divisor)
    assert colon_ideal(i, m).gens == minimal_monomials(g.div(g.gcd(m)) for g in gens)
    for d, component in (_squarefree_components(i) if gens else {}).items():
        # I_[d]: the squarefree degree-d monomials some generator divides
        brute = [monomial_of_mask(n, s) for s in range(1 << n) if s.bit_count() == d]
        expected = minimal_monomials(b for b in brute if any(g.divides(b) for g in gens))
        assert MonomialIdeal.from_masks(names, component).gens == expected
    assert json.dumps(quotients_analysis(i)) == json.dumps(quotients_report_oracle(i))
    order = list(range(len(gens)))
    ordered = [gens[k] for k in order[::-1]]
    colons = ordered_colon_ideals(i, order[::-1])
    assert [c.gens for c in colons] == [
        minimal_monomials(g.div(g.gcd(ordered[l])) for g in ordered[:l]) for l in range(1, len(ordered))
    ]
