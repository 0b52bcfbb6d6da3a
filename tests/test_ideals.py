"""Monomial ideal operations against hand-checked and enumerated values."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcres.complexes import SimplicialComplex, bc_complex
from bcres.corpus import standard_corpus
from bcres.errors import InputError
from bcres.ideals import (
    Monomial,
    MonomialIdeal,
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
    power_ideal,
    quotients_analysis,
    stanley_reisner_ideal,
)


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


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=12)
    )
)
def test_minimalize_matches_brute_force(exps):
    monomials = [Monomial(e) for e in exps]
    kept = minimalize(monomials)
    brute = {m for m in monomials if not any(n != m and n.divides(m) for n in monomials)}
    assert set(kept) == brute and len(kept) == len(brute)
    word = lambda m: tuple(i for i, e in enumerate(m.exps) for _ in range(e))
    assert list(kept) == sorted(kept, key=lambda m: (m.degree, word(m)))


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


def test_quotients_negative():
    # two coprime quadrics: colon is a quadric either way
    i = ideal(V4, (1, 1, 0, 0), (0, 0, 1, 1))
    rep = quotients_analysis(i)
    assert rep["linear_quotients"]["status"] == "none"
    assert rep["graded_linear_quotients"]["status"] == "none"


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
