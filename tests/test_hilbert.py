"""Hilbert data: f-vector route vs brute-force monomial counting, binomial fits."""

import random
import time
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_linalg import fraction_solve

from bcres.complexes import bc_complex, f_h_vectors, f_to_h
from bcres.corpus import standard_corpus
from bcres.errors import InputError
from bcres.hilbert import (
    binomial_form_fit,
    h_binomial_fit,
    hilbert_function,
    ideal_monomial_count,
    linear_value_criterion,
    standard_monomial_count,
)
from bcres.ideals import (
    Monomial,
    MonomialIdeal,
    broken_circuit_ideal,
    complex_of_ideal,
    ideal_from_supports,
    power_ideal,
    stanley_reisner_ideal,
)
from bcres.matroid import uniform_matroid
from bcres.util import (
    binom,
    bits,
    faces_by_size,
    k_polynomial,
    minimal_masks,
    pairwise_disjoint,
    poly_add,
    poly_mul,
    poly_trim,
)

V4 = tuple("x%d" % i for i in range(1, 5))


def ideal(names, *exp_tuples):
    return MonomialIdeal(names, [Monomial(e) for e in exp_tuples])


@pytest.fixture
def u24_ideal(u24):
    return stanley_reisner_ideal(bc_complex(u24))


def test_u24_hilbert(u24_ideal):
    hd = hilbert_function(u24_ideal)
    assert hd.values[:5] == (1, 4, 7, 10, 13)
    assert hd.numerator == (1, 2)
    assert hd.dim == 2 and hd.codim == 2
    assert hd.coefficients == (3, -2)
    assert hd.width == 2


def test_zero_ideal_full_ring():
    z = MonomialIdeal(("x1", "x2", "x3"), [])
    hd = hilbert_function(z)
    assert hd.dim == 3 and hd.codim == 0
    for s, v in enumerate(hd.values):
        assert v == binom(s + 2, s)


def test_maximal_ideal():
    m = ideal(("x1", "x2"), (1, 0), (0, 1))
    hd = hilbert_function(m)
    assert hd.values[:4] == (1, 0, 0, 0)
    assert hd.dim == 0 and hd.codim == 2
    assert hd.numerator == (1,)


def test_values_match_bruteforce(golden, u24_ideal):
    golden_ideal = stanley_reisner_ideal(bc_complex(golden))
    for i in (u24_ideal, golden_ideal, stanley_reisner_ideal(bc_complex(uniform_matroid(3, 6)))):
        hd = hilbert_function(i, horizon=10)
        for s in range(11):
            assert hd.values[s] == standard_monomial_count(i, s)


def test_binomial_form_fit_u24(u24_ideal):
    fit = binomial_form_fit(hilbert_function(u24_ideal))
    assert fit["c"] == (3, -2)
    assert fit["d"] == 2
    assert fit["within_codim"] and fit["values_reproduce"]


def test_binomial_form_fit_trivial():
    m = ideal(("x1", "x2"), (1, 0), (0, 1))
    fit = binomial_form_fit(hilbert_function(m))
    # series 1 over (1-t)^2: numerator (1-t)^2, coefficients (0, 0, 1)
    assert fit["values_reproduce"]
    # numerator 1 at any denominator exponent >= dim: the 1/(1-t)^q shape
    one = hilbert_function(MonomialIdeal(("x1",), []))
    for q in (1, 2, 5):
        fit2 = binomial_form_fit(one, q=q)
        assert fit2["c_normalized"] == (1,) and fit2["values_reproduce"]


def test_binomial_form_fit_pole_error(golden):
    # golden: dim 4, codim 2; the series cannot be written over (1-t)^2
    gi = stanley_reisner_ideal(bc_complex(golden))
    hd = hilbert_function(gi)
    assert hd.coefficients is None
    with pytest.raises(InputError):
        binomial_form_fit(hd)


def test_series_pole_has_order_dim():
    # the numerator is an h-vector with h(1) > 0, so no power of (1-t)
    # divides it: the series fits over (1-t)^q exactly when q >= dim
    for name, m in standard_corpus(0):
        hd = hilbert_function(broken_circuit_ideal(m))
        for q in range(hd.dim):
            with pytest.raises(InputError):
                binomial_form_fit(hd, q)
        for q in range(hd.dim, hd.dim + 3):
            assert binomial_form_fit(hd, q)["values_reproduce"], (name, q)


def test_linear_value_criterion(u24_ideal):
    assert linear_value_criterion(u24_ideal, hilbert_function(u24_ideal).codim) is True
    assert ideal_monomial_count(u24_ideal, 2) == 3 == binom(3, 2)
    cross = ideal(V4, (1, 1, 0, 0), (0, 0, 1, 1))
    assert ideal_monomial_count(cross, 2) == 2
    assert linear_value_criterion(cross, hilbert_function(cross).codim) is False


def test_indeg_generator_count_matches_enumeration():
    # linear_value_criterion reads dim_k I_s at s = indeg off the generators.
    # Squares stop at 7 variables: of the 38 squares on 8, 3 list more monomials
    # than the enumeration bound allows, and the other 35 take ~4 s.
    ideals = set()
    for _, m in standard_corpus(0):
        base = broken_circuit_ideal(m)
        if not base.is_zero:
            ideals.add(base)
            if base.nvars <= 7:
                ideals.add(power_ideal(base, 2))
    for i in ideals:
        s = i.indeg()
        count = ideal_monomial_count(i, s)
        assert count == sum(1 for g in i.gens if g.degree == s), i
        radical = ideal_from_supports(i.names, [g.support for g in i.gens])
        q = i.nvars - complex_of_ideal(radical).dim - 1
        assert q == hilbert_function(radical).codim
        assert linear_value_criterion(i, q) == (count == binom(s + q - 1, s)), i


def test_linear_value_criterion_power_of_max():
    # m^s in n variables: dim I_s = C(s+n-1, s), q = n
    names = ("x1", "x2", "x3")
    from bcres.ideals import power_ideal

    m = ideal(names, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    for s in (1, 2, 3):
        p = power_ideal(m, s)
        assert linear_value_criterion(p, len(names)) is True


def test_h_binomial_fit_slinear_pattern(u24):
    fh = f_h_vectors(bc_complex(u24))
    fit = h_binomial_fit(fh.h, q=2)
    assert fit["c"] == (1,) and fit["cutoff"] == 2 and fit["fits"]


def test_h_binomial_fit_boolean():
    fit = h_binomial_fit((1, 0, 0), q=3)
    assert fit["c"] == (1,) and fit["cutoff"] == 1 and fit["fits"]


def test_h_binomial_fit_full_length():
    fit = h_binomial_fit((1, 2, 3), q=2)
    assert fit["c"] == (1,) and fit["cutoff"] == 3 and fit["fits"]


def test_h_binomial_fit_failure():
    # h of In(U_{2,3} + U_{4,5}) is (1,2,3,3,3,2,1): not a width-<=2 pattern
    fit = h_binomial_fit((1, 2, 3, 3, 3, 2, 1), q=2)
    assert fit["fits"] is False


def test_h_binomial_fit_reproduces_values():
    # whenever a fit exists it must reproduce every pre-cutoff value exactly
    for h, q in [((1, 2, 0), 2), ((1, 3, 6), 3), ((1, 1, 1, 1), 1)]:
        fit = h_binomial_fit(h, q)
        if not fit["fits"]:
            continue
        for k in range(fit["cutoff"]):
            val = sum(c * binom(k + q - l - 1, k) for l, c in enumerate(fit["c"]))
            assert val == h[k]


def solve_fit(h, q):
    """The fit by linear solves: the least d <= q whose binomial system has a solution."""
    h = list(h)
    cutoff = 0
    for k, v in enumerate(h):
        if v:
            cutoff = k + 1
    if cutoff == 0:
        return {"c": (), "cutoff": 0, "fits": True, "d": 0}
    target = h[:cutoff]
    for d in range(1, q + 1):
        rows = [[binom(k + q - l - 1, k) for l in range(d)] for k in range(cutoff)]
        solution = fraction_solve(rows, target)
        if solution is not None:
            return {
                "c": tuple(int(v) if v.denominator == 1 else v for v in solution),
                "cutoff": cutoff,
                "fits": True,
                "d": d,
            }
    return {"c": None, "cutoff": cutoff, "fits": False, "d": None}


@settings(max_examples=400)
@given(
    st.lists(st.integers(-4, 12), max_size=8),
    st.integers(0, 3),
    st.integers(0, 7),
)
def test_h_binomial_fit_matches_solve_route(head, zeros, q):
    h = head + [0] * zeros
    fit = h_binomial_fit(h, q)
    assert fit == solve_fit(h, q)
    assert fit["c"] is None or all(type(c) is int for c in fit["c"])


def test_h_binomial_fit_matches_solve_route_on_corpus():
    for _, m in standard_corpus(0):
        if not m.is_loopless:
            continue
        q = len(m.ground) - m.rank
        h = f_h_vectors(bc_complex(m)).h
        assert h_binomial_fit(h, q) == solve_fit(h, q)


def test_numerator_is_the_bc_h_vector_on_corpus():
    # cross_validate, generalized_bound_check and the hilbert command read
    # the h-vector off the numerator; the complex's face count is the oracle
    # (f_h_vectors runs the same K-polynomial route as hilbert_function)
    rng = random.Random(0)
    for name, m in standard_corpus(0):
        if not m.is_loopless:
            continue
        order = list(m.ground)
        rng.shuffle(order)
        numerator = hilbert_function(broken_circuit_ideal(m, order)).numerator
        c = bc_complex(m, order)
        h = f_to_h([len(level) for level in faces_by_size(c.facet_masks)], c.dim)
        assert list(numerator) == poly_trim(list(h)), name
        q = len(m.ground) - m.rank
        if q >= 1:
            assert h_binomial_fit(numerator, q) == h_binomial_fit(h, q), name


def test_hilbert_betti_euler_consistency(golden, u24_ideal):
    # numerator over (1-t)^n equals 1 - sum (-1)^i beta_{ij} t^j
    from bcres.resolutions import betti_hochster
    from bcres.util import poly_mul, poly_trim

    for i in (u24_ideal, stanley_reisner_ideal(bc_complex(golden))):
        hd = hilbert_function(i)
        full = poly_trim(
            poly_mul(list(hd.numerator), _one_minus_t_pow(i.nvars - hd.dim))
        )
        alt = betti_hochster(i).alternating_sum_poly()
        expected = [-v for v in alt]
        expected[0] += 1
        assert full == poly_trim(expected)


@settings(max_examples=300)
@given(st.lists(st.sets(st.integers(0, 7), max_size=5), max_size=8))
@example([])  # the zero ideal: K = 1
@example([set()])  # the unit ideal: K = 0
@example([{0, 1}, {1, 2}, {0, 1, 2}, {3}])  # minimalized before the pivot
def test_k_polynomial_is_the_inclusion_exclusion_sum(supports):
    # K(t) = sum over generator subsets S of (-1)^|S| t^|union S| (the Taylor
    # complex's Euler characteristic), for any generating set of I
    masks = [sum(1 << i for i in s) for s in supports]
    expected = [0] * 9
    for size in range(len(masks) + 1):
        for sub in combinations(masks, size):
            union = 0
            for m in sub:
                union |= m
            expected[union.bit_count()] += (-1) ** size
    assert k_polynomial(minimal_masks(masks)) == poly_trim(expected)


def pivot_only_k_polynomial(masks):
    """The K-polynomial recursion before generator groups were split off: it
    multiplies factors only when every generator is disjoint from the rest,
    and otherwise pivots on the variable in the most generators."""
    memo = {}

    def k(gens):
        if pairwise_disjoint(gens):
            out = [1]
            for g in gens:
                out = poly_mul(out, [1] + [0] * (g.bit_count() - 1) + [-1])
            return out
        key = frozenset(gens)
        if key in memo:
            return memo[key]
        counts = {}
        for g in gens:
            for i in bits(g):
                counts[i] = counts.get(i, 0) + 1
        x = 1 << max(counts, key=counts.get)
        without = [g for g in gens if not g & x]
        shrunk = [g ^ x for g in gens if g & x]
        colon = shrunk + [h for h in without if not any(s & h == s for s in shrunk)]
        memo[key] = out = poly_add(poly_mul([1, -1], k(without)), [0] + k(colon))
        return out

    return [0] if 0 in masks else k(list(masks))


@settings(max_examples=300)
@given(st.lists(st.sets(st.integers(0, 11), max_size=6), max_size=10))
@example([{0, 1}, {2, 3}, {1, 4}, {5}])  # two groups and a lone variable
def test_k_polynomial_matches_the_pivot_only_recursion(supports):
    masks = minimal_masks(sum(1 << i for i in s) for s in supports)
    assert k_polynomial(masks) == pivot_only_k_polynomial(masks)


def path_masks(vertices):
    return [3 << i for i in range(vertices - 1)]


def test_k_polynomial_of_a_long_path_is_quick():
    # the pivot-only recursion is exponential on a path: 2.9 s at 40 vertices
    n = 200
    start = time.perf_counter()
    k = k_polynomial(path_masks(n))
    assert time.perf_counter() - start < 2
    # K = sum_j f_j t^j (1-t)^(n-j), with C(n-j+1, j) independent j-sets on the path
    expected = [0]
    for j in range(n // 2 + 2):
        expected = poly_add(expected, poly_mul([0] * j + [binom(n - j + 1, j)], _one_minus_t_pow(n - j)))
    assert k == expected


def _one_minus_t_pow(k):
    from bcres.util import poly_mul

    out = [1]
    for _ in range(k):
        out = poly_mul(out, [1, -1])
    return out
