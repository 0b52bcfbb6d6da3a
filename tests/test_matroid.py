"""Matroid construction, minors, duality, Tutte polynomials.

The independent oracles here are brute-force subset enumeration (for rank
and independence counts), a depth-first walk over independent sets (for
the profile read off the bases), the corank-nullity sum (for Tutte) and the
minimal transversals of the bases (for the dual's circuits), so every
fast-path computation is checked against an exhaustive one.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import Options

from bcres import util
from bcres.cli import parse_input, run_command
from bcres.complexes import f_h_vectors, f_to_h, independence_complex
from bcres.corpus import standard_corpus
from bcres.decomposition import extremal_h_check
from bcres.errors import BoundError, CircuitAxiomError, InputError, LoopError
from bcres.matroid import (
    Matroid,
    TuttePolynomial,
    build_matroid,
    circuit_matroid,
    direct_sum,
    graphic_matroid,
    linear_matroid,
    simple_cycle_edge_sets,
    uniform_matroid,
)
from bcres.util import ENUMERATION_LIMIT, binom, bits, faces_by_size, minimal_transversals, sorted_sets


# -- oracles -------------------------------------------------------------


def dfs_independence_profile(matroid):
    """Counts of independent sets by size, by a depth-first walk that adds
    one element at a time and tests the circuits through it."""
    counts = [0] * (matroid.rank + 1)
    n = len(matroid.ground)

    def extend(start, mask, depth):
        counts[depth] += 1
        for i in range(start, n):
            cand = mask | 1 << i
            if not any(c & cand == c for c in matroid.circuit_masks if c >> i & 1):
                extend(i + 1, cand, depth + 1)

    extend(0, 0, 0)
    return tuple(counts)


def brute_rank(matroid, subset):
    best = 0
    subset = sorted(subset, key=repr)
    for k in range(len(subset), -1, -1):
        for sub in combinations(subset, k):
            if not any(c <= set(sub) for c in matroid.circuits):
                return k
    return best


def corank_nullity_tutte(matroid):
    """T(x,y) = sum over subsets A of (x-1)^(r-r(A)) (y-1)^(|A|-r(A))."""
    r = matroid.rank
    coeffs = {}
    ground = matroid.ground
    for k in range(len(ground) + 1):
        for sub in combinations(ground, k):
            ra = brute_rank(matroid, sub)
            poly = _binomial_expand(r - ra, k - ra)
            for key, c in poly.items():
                coeffs[key] = coeffs.get(key, 0) + c
    return TuttePolynomial(coeffs)


def _binomial_expand(a, b):
    """(x-1)^a (y-1)^b as {(i,j): coeff}."""
    from math import comb

    out = {}
    for i in range(a + 1):
        for j in range(b + 1):
            out[(i, j)] = comb(a, i) * (-1) ** (a - i) * comb(b, j) * (-1) ** (b - j)
    return out


# -- construction ---------------------------------------------------------


def test_uniform_24(u24):
    assert u24.rank == 2
    assert set(u24.circuits) == {frozenset(c) for c in combinations((1, 2, 3, 4), 3)}


def test_uniform_free():
    m = uniform_matroid(3, 3)
    assert m.circuits == ()
    assert m.rank == 3


def test_uniform_all_loops():
    m = uniform_matroid(0, 2)
    assert m.loops() == frozenset({1, 2})
    assert m.rank == 0


def test_golden_accepted_rank4(golden):
    assert golden.rank == 4
    assert len(golden.circuits) == 3


def test_circuit_axiom_violation_rejected():
    # {1,2} and {2,3} share 2 but no circuit inside {1,3}
    with pytest.raises(CircuitAxiomError):
        circuit_matroid(3, [{1, 2}, {2, 3}])


def test_nested_circuits_rejected():
    with pytest.raises(InputError):
        circuit_matroid(3, [{1, 2}, {1, 2, 3}])


def test_duplicate_labels_rejected():
    with pytest.raises(InputError):
        Matroid((1, 1, 2), [])


def test_unknown_label_rejected(u24):
    with pytest.raises(InputError):
        u24.rank_of({1, 9})


# -- rank -----------------------------------------------------------------


def test_rank_examples(u24, golden):
    assert u24.rank_of({1, 2, 3}) == 2
    assert u24.rank_of(set()) == 0
    assert golden.rank_of({4, 5, 6}) == 2


def test_rank_matches_bruteforce_on_small_corpus(golden, u24):
    for m in (golden, u24, uniform_matroid(3, 5), graphic_matroid([(1, 2), (2, 3), (1, 3), (3, 4)])):
        for k in range(len(m.ground) + 1):
            for sub in combinations(m.ground, k):
                assert m.rank_of(sub) == brute_rank(m, sub)


def test_rank_monotone_submodular():
    corpus = [
        uniform_matroid(2, 4),
        circuit_matroid(6, [{4, 5, 6}, {1, 2, 3, 6}, {1, 2, 3, 4, 5}]),
        graphic_matroid([(1, 2), (2, 3), (1, 3), (2, 4), (3, 4)]),
    ]
    for m in corpus:
        n = len(m.ground)
        assert n <= 7
        subsets = [set(s) for k in range(n + 1) for s in combinations(m.ground, k)]
        ranks = {frozenset(s): m.rank_of(s) for s in subsets}
        for a in subsets:
            for b in subsets:
                fa, fb = frozenset(a), frozenset(b)
                if fa <= fb:
                    assert ranks[fa] <= ranks[fb]
                assert ranks[frozenset(a | b)] + ranks[frozenset(a & b)] <= ranks[fa] + ranks[fb]


# -- broken circuits --------------------------------------------------------


def test_broken_circuits_u24(u24):
    assert set(u24.broken_circuits()) == {frozenset({2, 3}), frozenset({2, 4}), frozenset({3, 4})}


def test_broken_circuits_golden(golden):
    assert set(golden.broken_circuits()) == {
        frozenset({5, 6}),
        frozenset({2, 3, 6}),
        frozenset({2, 3, 4, 5}),
    }


def test_broken_circuits_free():
    assert uniform_matroid(3, 3).broken_circuits() == ()


def test_broken_circuits_respects_order(u24):
    # with 4 smallest, each 3-subset loses its min under 4<3<2<1
    bcs = u24.broken_circuits(order=(4, 3, 2, 1))
    assert set(bcs) == {frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})}


def test_broken_circuits_reject_loops():
    with pytest.raises(LoopError):
        uniform_matroid(0, 1).broken_circuits()


def test_order_must_be_permutation(u24):
    with pytest.raises(InputError):
        u24.broken_circuits(order=(1, 2, 3))


# -- duality ----------------------------------------------------------------


def test_dual_u24_self_dual(u24):
    assert u24.dual().circuits == u24.circuits


def test_dual_free_to_loops():
    d = uniform_matroid(3, 3).dual()
    assert d.rank == 0
    assert d.loops() == frozenset({1, 2, 3})


def test_dual_u13():
    d = uniform_matroid(1, 3).dual()
    assert d == uniform_matroid(2, 3)
    assert set(d.circuits) == {frozenset({1, 2, 3})}
    assert d.rank == 2


def test_dual_involution(golden, u24, u24_plus_coloop):
    for m in (golden, u24, u24_plus_coloop, uniform_matroid(0, 2), graphic_matroid([(1, 2), (1, 2)])):
        assert m.dual().dual() == m


# -- minors -------------------------------------------------------------------


def test_minor_deletion(u24):
    m = u24.minor(deleted={4})
    assert m.ground == (1, 2, 3)
    assert set(m.circuits) == {frozenset({1, 2, 3})}


def test_minor_contraction(u24):
    m = u24.minor(contracted={1})
    assert m.ground == (2, 3, 4)
    assert set(m.circuits) == {frozenset(c) for c in combinations((2, 3, 4), 2)}


def test_minor_identity(golden):
    assert golden.minor() == golden


def test_minor_overlap_rejected(u24):
    with pytest.raises(InputError):
        u24.minor(deleted={1}, contracted={1})


def test_contraction_rank_identity(golden):
    # r'(A) = r(A + T) - r(T) for every contraction set and subset
    for t_size in range(3):
        for t in combinations(golden.ground, t_size):
            m = golden.contract(set(t))
            rt = golden.rank_of(set(t))
            for k in range(len(m.ground) + 1):
                for a in combinations(m.ground, k):
                    assert m.rank_of(set(a)) == golden.rank_of(set(a) | set(t)) - rt


# -- sums, components ----------------------------------------------------------


def test_direct_sum_relabels(u24_plus_coloop):
    assert u24_plus_coloop.ground == (1, 2, 3, 4, 5)
    assert u24_plus_coloop.rank == 3
    assert all(5 not in c for c in u24_plus_coloop.circuits)


def test_direct_sum_u11_u11():
    m = direct_sum([uniform_matroid(1, 1), uniform_matroid(1, 1)])
    assert m == uniform_matroid(2, 2)


def test_direct_sum_parallel_pairs():
    m = direct_sum([uniform_matroid(1, 2), uniform_matroid(1, 2)])
    assert set(m.circuits) == {frozenset({1, 2}), frozenset({3, 4})}
    assert m.rank == 2


def test_components_and_coloops(u24_plus_coloop, golden):
    parts, coloops = u24_plus_coloop.components_and_coloops()
    assert set(parts) == {frozenset({1, 2, 3, 4}), frozenset({5})}
    assert coloops == frozenset({5})
    parts, coloops = golden.components_and_coloops()
    assert parts == (frozenset({1, 2, 3, 4, 5, 6}),)
    assert coloops == frozenset()
    parts, coloops = uniform_matroid(3, 3).components_and_coloops()
    assert len(parts) == 3
    assert coloops == frozenset({1, 2, 3})


def union_find_components(matroid):
    """Components by union-find over ground positions, merged along every circuit."""
    parent = list(range(len(matroid.ground)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for m in matroid.circuit_masks:
        first, *rest = bits(m)
        first = find(first)
        for i in rest:
            parent[find(i)] = first
    comps = {}
    for i, e in enumerate(matroid.ground):
        comps.setdefault(find(i), []).append(e)
    return sorted_sets(frozenset(v) for v in comps.values())


def random_circuit_matroids(count, seed=7):
    """Validated circuit matroids of random multigraphs: loops, parallel pairs and coloops included."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nverts = rng.randint(1, 6)
        edges = [(rng.randint(1, nverts), rng.randint(1, nverts)) for _ in range(rng.randint(1, 9))]
        out.append(circuit_matroid(len(edges), graphic_matroid(edges).circuits))
    return out


def test_components_match_union_find():
    matroids = [m for _, m in standard_corpus(0)] + random_circuit_matroids(80)
    for m in matroids:
        assert m.components_and_coloops()[0] == union_find_components(m), m


# -- graphic and linear ----------------------------------------------------------


def test_graphic_triangle_is_u23():
    assert graphic_matroid([(1, 2), (2, 3), (1, 3)]) == uniform_matroid(2, 3)


def test_graphic_two_triangles():
    m = graphic_matroid([(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert set(m.circuits) == {frozenset({1, 2, 3}), frozenset({4, 5, 6})}


def test_graphic_tree_is_free():
    m = graphic_matroid([(1, 2), (2, 3), (3, 4)])
    assert m.circuits == ()
    assert m.rank == 3


def test_graphic_selfloop_and_parallel():
    m = graphic_matroid([(1, 1), (1, 2), (1, 2)])
    assert frozenset({1}) in m.circuits
    assert frozenset({2, 3}) in m.circuits


def complete_graph(n):
    return [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]


def ladder(rungs):
    """Two paths of `rungs` vertices joined rung by rung: cycle space dimension rungs - 1."""
    rails = [(2 * i, 2 * i + 2) for i in range(rungs - 1)] + [(2 * i + 1, 2 * i + 3) for i in range(rungs - 1)]
    return [(2 * i, 2 * i + 1) for i in range(rungs)] + rails


def bouquet(triangles):
    """Triangles sharing vertex 0: cycle space dimension `triangles`."""
    return [e for i in range(triangles) for e in ((0, 2 * i + 1), (2 * i + 1, 2 * i + 2), (2 * i + 2, 0))]


def theta(paths, length):
    """`paths` internally disjoint paths of `length` edges from vertex 0 to vertex 1."""
    edges = []
    for k in range(paths):
        inner = [2 + k * (length - 1) + j for j in range(length - 1)]
        chain = [0, *inner, 1]
        edges.extend(zip(chain, chain[1:]))
    return edges


@pytest.mark.parametrize(
    "edges",
    [
        complete_graph(4),
        complete_graph(5),
        complete_graph(6),
        [(1, 1), (1, 2), (2, 1), (1, 2), (2, 3), (3, 3), (3, 1), (4, 5)],
        ladder(4),
        ladder(6),
        bouquet(2),
        bouquet(6),
        theta(4, 3),
        theta(7, 2),
    ],
    ids=["K4", "K5", "K6", "multigraph", "ladder-d3", "ladder-d5", "bouquet-d2", "bouquet-d6", "theta-d3", "theta-d6"],
)
def test_cycle_space_elimination_matches_brute_cycles(edges):
    got = {frozenset(bits(mask)) for mask in simple_cycle_edge_sets(edges)}
    assert got == set(brute_cycles(edges, range(len(edges))))


def test_cycle_space_past_the_limit_is_refused():
    with pytest.raises(BoundError, match="^cycle walk needs 2\\^21 x 8 vertices = 16777216 edge tests, limit 4000000$"):
        simple_cycle_edge_sets(complete_graph(8))


def test_graphic_golden_realization(golden):
    # square 1-4-5-3 on edges 1,2,3 plus shared edge 6; triangle 1,2,3 on edges 4,5,6
    g = graphic_matroid([(1, 4), (4, 5), (5, 3), (1, 2), (2, 3), (1, 3)])
    assert set(g.circuits) == set(golden.circuits)


def test_linear_generic_lines_u24(u24):
    m = linear_matroid([(1, 0), (0, 1), (1, 1), (1, -1)])
    assert m == u24


def test_linear_rationals_exact():
    m = linear_matroid([(Fraction(1, 3), 0), (0, Fraction(2, 7)), (Fraction(1, 2), Fraction(1, 2))])
    assert m == uniform_matroid(2, 3)


def test_linear_zero_column_is_loop():
    m = linear_matroid([(0, 0), (1, 0)])
    assert m.loops() == frozenset({1})


def test_linear_nonrectangular_rejected():
    with pytest.raises(InputError):
        linear_matroid([(1, 0), (1,)])


def test_build_matroid_dispatch(golden):
    assert build_matroid({"type": "uniform", "p": 2, "n": 4}) == uniform_matroid(2, 4)
    assert (
        build_matroid({"type": "circuits", "n": 6, "circuits": [[4, 5, 6], [1, 2, 3, 6], [1, 2, 3, 4, 5]]})
        == golden
    )
    m = build_matroid({"type": "linear", "matrix": [["1", "0", "1", "1"], ["0", "1", "1", "-1"]]})
    assert m == uniform_matroid(2, 4)
    s = build_matroid(
        {"type": "direct_sum", "parts": [{"type": "uniform", "p": 2, "n": 4}, {"type": "uniform", "p": 1, "n": 1}]}
    )
    assert s.rank == 3


# -- profiles and Tutte -----------------------------------------------------------


def test_independence_profile(u24, golden):
    assert u24.independence_profile() == (1, 4, 6)
    assert uniform_matroid(3, 3).independence_profile() == (1, 3, 3, 1)
    # basis count recomputed two independent ways: 11 spanning trees
    assert golden.independence_profile() == (1, 6, 15, 19, 11)


def test_profile_matches_bruteforce(golden):
    prof = golden.independence_profile()
    for k, expected in enumerate(prof):
        count = sum(
            1
            for sub in combinations(golden.ground, k)
            if not any(c <= set(sub) for c in golden.circuits)
        )
        assert count == expected


K6_EDGES = [list(e) for e in combinations(range(6), 2)]


def profile_cases():
    """standard_corpus(0) plus larger uniform and graphic matroids, an
    all-loop one and a looped graph, each with a bc-command document for
    the loopless ones (None otherwise)."""

    def circuits_doc(m):
        assert m.ground == tuple(range(1, m.size + 1))
        return {"type": "circuits", "n": m.size, "circuits": [sorted(c) for c in m.circuits]}

    cases = [(name, m, circuits_doc(m)) for name, m in standard_corpus(0)]
    cases += [
        ("U_2_26", uniform_matroid(2, 26), {"type": "uniform", "p": 2, "n": 26}),
        ("U_5_12", uniform_matroid(5, 12), {"type": "uniform", "p": 5, "n": 12}),
        ("K6", graphic_matroid(K6_EDGES), {"type": "graphic", "edges": K6_EDGES}),
        ("U_0_3", uniform_matroid(0, 3), None),
        ("looped", graphic_matroid([(1, 2), (2, 3), (1, 3), (1, 1), (2, 2)]), None),
    ]
    return cases


def test_independence_profile_matches_dfs_walk():
    for name, m, _ in profile_cases():
        assert m.independence_profile() == dfs_independence_profile(m), name


def test_in_counts_match_the_independence_complex_route():
    for name, m, payload in profile_cases():
        fh = f_h_vectors(independence_complex(m))
        assert f_to_h(m.independence_profile(), m.rank - 1) == fh.h, name
        if payload is None:
            continue
        for s in range(m.rank + 2):
            old = all(fh.h[k] == binom(m.size - m.rank + k - 1, k) for k in range(min(s, m.rank) + 1))
            old = old and not any(fh.h[s + 1 : m.rank + 1])
            assert extremal_h_check(m, s) == old, (name, s)
        doc = parse_input(json.dumps({"kind": "matroid", "payload": payload}))
        result = run_command("bc", doc, Options())["result"]
        assert result["f_vector_independence"] == list(fh.f), name
        assert result["h_vector_independence"] == list(fh.h), name


def test_tutte_single_elements():
    assert uniform_matroid(1, 1).tutte_polynomial() == TuttePolynomial({(1, 0): 1})
    assert uniform_matroid(0, 1).tutte_polynomial() == TuttePolynomial({(0, 1): 1})


def test_tutte_u24(u24):
    t = u24.tutte_polynomial()
    assert t == TuttePolynomial({(2, 0): 1, (1, 0): 2, (0, 1): 2, (0, 2): 1})
    assert t.render() == "x^2 + 2x + y^2 + 2y"


def test_tutte_matches_corank_nullity(u24, golden, u24_plus_coloop):
    for m in (u24, golden, u24_plus_coloop, graphic_matroid([(1, 2), (2, 3), (1, 3), (1, 1)])):
        assert m.tutte_polynomial() == corank_nullity_tutte(m)


def test_tutte_deletion_contraction_consistency(golden):
    t = golden.tutte_polynomial()
    coloops = golden.coloops()
    loops = golden.loops()
    for e in golden.ground:
        if e in coloops or e in loops:
            continue
        assert t == golden.delete({e}).tutte_polynomial() + golden.contract({e}).tutte_polynomial()


def test_basis_bound_is_inclusive(u24, monkeypatch):
    monkeypatch.setattr(util, "ENUMERATION_LIMIT", 6)
    assert len(u24.basis_masks()) == 6
    monkeypatch.setattr(util, "ENUMERATION_LIMIT", 5)
    for query in (u24.basis_masks, u24.bases, u24.dual, u24.independence_profile, u24.tutte_polynomial):
        with pytest.raises(BoundError, match="^a rank-2 matroid on 4 elements has more than 5 bases$"):
            query()


def test_tutte_basis_count(u24, golden):
    for m in (u24, golden):
        prof = m.independence_profile()
        assert m.tutte_polynomial().evaluate(1, 1) == prof[m.rank]


def test_tutte_direct_sum_multiplicative(u24):
    other = uniform_matroid(1, 2)
    s = direct_sum([u24, other])
    assert s.tutte_polynomial() == u24.tutte_polynomial() * other.tutte_polynomial()


def test_tutte_coefficients_nonnegative(golden, u24):
    for m in (golden, u24):
        assert all(c > 0 for c in m.tutte_polynomial().coeffs.values())


# -- the mask route against the frozenset route ---------------------------------
#
# The oracle below is the label-set route the masks replaced: circuits as
# frozensets, minors and broken circuits by set algebra, the dual and the
# bases by enumeration, and the canonical order written out again.  The
# circuits it starts from come from brute force over every subset (Fraction
# rank for matrices, connected 2-regular edge sets for graphs), never from
# the library.

# labels whose repr order differs from their numeric order (10 < 2 as text)
LABEL_POOL = (2, 10, 1, 12, 3, 20, 5)


def canonical(sets):
    return tuple(sorted(sets, key=lambda s: (len(s), tuple(sorted(s, key=repr)))))


def minimal_sets(sets):
    out = []
    for s in sorted(set(sets), key=len):
        if not any(t <= s for t in out):
            out.append(s)
    return out


def fraction_rank(vectors):
    """Rank by Gaussian elimination over Fraction; a vector list and its transpose agree."""
    rows = [[Fraction(v) for v in vec] for vec in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] / rows[rank][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def brute_linear_circuits(cols, labels):
    dependent = [
        frozenset(labels[i] for i in sub)
        for k in range(1, len(cols) + 1)
        for sub in combinations(range(len(cols)), k)
        if fraction_rank([cols[i] for i in sub]) < k
    ]
    return canonical(minimal_sets(dependent))


def brute_cycles(edges, labels):
    out = []
    for k in range(1, len(edges) + 1):
        for sub in combinations(range(len(edges)), k):
            degree = {}
            for i in sub:
                for w in edges[i]:
                    degree[w] = degree.get(w, 0) + 1
            if any(d != 2 for d in degree.values()):
                continue
            seen = {edges[sub[0]][0]}
            for _ in sub:
                seen |= {w for i in sub if seen & set(edges[i]) for w in edges[i]}
            if seen == degree.keys():
                out.append(frozenset(labels[i] for i in sub))
    return canonical(out)


def oracle_rank(ground, circuits, subset):
    chosen = set()
    for e in ground:
        if e in subset and not any(c <= chosen | {e} for c in circuits):
            chosen.add(e)
    return len(chosen)


def oracle_bases(ground, circuits):
    r = oracle_rank(ground, circuits, set(ground))
    return canonical(
        frozenset(b) for b in combinations(ground, r) if not any(c <= set(b) for c in circuits)
    )


def oracle_dual(ground, circuits):
    bases = oracle_bases(ground, circuits)
    meets_all = [
        frozenset(s)
        for k in range(1, len(ground) + 1)
        for s in combinations(ground, k)
        if all(b & set(s) for b in bases)
    ]
    return canonical(minimal_sets(meets_all))


def oracle_broken(circuits, order, minimal):
    rank_in_order = {e: i for i, e in enumerate(order)}
    bcs = {c - {min(c, key=rank_in_order.get)} for c in circuits}
    return canonical(minimal_sets(bcs) if minimal else bcs)


def oracle_tutte(ground, circuits):
    r = oracle_rank(ground, circuits, set(ground))
    coeffs = {}
    for k in range(len(ground) + 1):
        for sub in combinations(ground, k):
            ra = oracle_rank(ground, circuits, set(sub))
            for key, c in _binomial_expand(r - ra, k - ra).items():
                coeffs[key] = coeffs.get(key, 0) + c
    return TuttePolynomial(coeffs)


small_ints = st.integers(-2, 2)


@st.composite
def linear_cases(draw, max_cols=7):
    height = draw(st.integers(1, 3))
    n = draw(st.integers(1, max_cols))
    cols = [tuple(draw(small_ints) for _ in range(height)) for _ in range(n)]
    labels = draw(st.permutations(LABEL_POOL))[:n]
    return linear_matroid(cols, labels), labels, brute_linear_circuits(cols, labels)


@st.composite
def graphic_cases(draw, max_edges=7):
    vertex = st.integers(1, 4)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=max_edges))
    labels = draw(st.permutations(LABEL_POOL))[: len(edges)]
    return graphic_matroid(edges, labels), labels, brute_cycles(edges, labels)


@st.composite
def sum_cases(draw):
    parts = draw(
        st.lists(st.one_of(linear_cases(max_cols=4), graphic_cases(max_edges=4)), min_size=2, max_size=3)
    )
    circuits = []
    offset = 0
    for _, labels, part_circuits in parts:
        relabel = {e: offset + i + 1 for i, e in enumerate(labels)}
        circuits.extend(frozenset(relabel[e] for e in c) for c in part_circuits)
        offset += len(labels)
    ground = tuple(range(1, offset + 1))
    return direct_sum([m for m, _, _ in parts]), ground, canonical(circuits)


@settings(max_examples=150)
@given(st.one_of(linear_cases(), graphic_cases(), sum_cases()), st.data())
def test_mask_route_matches_frozenset_oracle(case, data):
    m, ground, circuits = case
    ground = tuple(ground)
    assert m.ground == ground
    assert m.circuits == circuits
    assert all(m.rank_of(s) == oracle_rank(ground, circuits, set(s)) for s in _some_subsets(ground))
    order = data.draw(st.permutations(ground))
    if any(len(c) == 1 for c in circuits):
        with pytest.raises(LoopError):
            m.broken_circuits(order)
    else:
        for minimal in (True, False):
            assert m.broken_circuits(order, minimal) == oracle_broken(circuits, order, minimal)
    subset = set(data.draw(st.sets(st.sampled_from(ground))))
    inside = [e for e in ground if e in subset]
    assert m.restrict(subset).ground == tuple(inside)
    assert m.restrict(subset).circuits == canonical(c for c in circuits if c <= subset)
    traces = [c - subset for c in circuits if c - subset]
    assert m.contract(subset).circuits == canonical(minimal_sets(traces))
    assert m.dual().circuits == oracle_dual(ground, circuits)
    assert m.bases() == oracle_bases(ground, circuits)
    if len(ground) <= 8:
        assert m.tutte_polynomial() == oracle_tutte(ground, circuits)


@settings(max_examples=200)
@given(st.one_of(linear_cases(), graphic_cases(), sum_cases()))
def test_independence_profile_matches_the_faces_of_the_bases(case):
    m = case[0]
    assert m.independence_profile() == tuple(len(level) for level in faces_by_size(m.basis_masks()))


@settings(max_examples=120)
@given(st.one_of(linear_cases(max_cols=5), graphic_cases(max_edges=5)), st.integers(0, 2), st.integers(0, 2), st.data())
def test_tutte_and_dual_read_off_the_bases_match_their_oracles(case, loops, coloops, data):
    # loops and coloops join the drawn matroid at drawn positions of the ground order
    total = direct_sum([case[0], uniform_matroid(0, loops), uniform_matroid(coloops, coloops)])
    m = Matroid(data.draw(st.permutations(total.ground)), total.circuits)
    assert m.tutte_polynomial() == corank_nullity_tutte(m)
    assert m.dual() == Matroid.from_masks(m.ground, minimal_transversals(m.basis_masks()))
    assert m.dual().dual() == m


def test_dual_of_a_uniform_matroid_reads_its_bases_once():
    # Berge's transversal expansion over the 6435 bases of U(7,15) took seconds
    start = time.perf_counter()
    assert uniform_matroid(7, 15).dual() == uniform_matroid(8, 15)
    assert time.perf_counter() - start < 1


def test_independence_profile_of_a_free_matroid_lists_no_face():
    # U(26,26) has one basis, whose 2^26 subsets the face listing held at once
    start = time.perf_counter()
    assert uniform_matroid(26, 26).independence_profile() == tuple(binom(26, k) for k in range(27))
    assert time.perf_counter() - start < 1


def _some_subsets(ground):
    """Every subset of a ground set up to 8 elements, else those of size <= 3 or >= n - 1."""
    n = len(ground)
    sizes = range(n + 1) if n <= 8 else [*range(4), n - 1, n]
    return [s for k in sizes for s in combinations(ground, k)]


rationals = st.sampled_from([Fraction(v) for v in (0, 1, -1, 2)] + [Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)])


@settings(max_examples=150)
@given(st.integers(1, 3).flatmap(lambda h: st.lists(st.tuples(*[rationals] * h), min_size=1, max_size=7)))
def test_linear_matroid_matches_fraction_rank(cols):
    """Every column subset: matroid rank equals Fraction rank; circuits are the minimal dependent sets."""
    m = linear_matroid(cols)
    labels = m.ground
    for k in range(len(cols) + 1):
        for sub in combinations(range(len(cols)), k):
            assert m.rank_of(labels[i] for i in sub) == fraction_rank([cols[i] for i in sub])
    assert m.circuits == brute_linear_circuits(cols, labels)


@st.composite
def walk_columns(draw):
    """Up to 9 columns of height 1-5, with zero, repeated and scaled columns drawn on purpose."""
    height = draw(st.integers(1, 5))
    cols = []
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(["fresh", "zero", "scaled"] if cols else ["fresh", "zero"]))
        if kind == "fresh":
            cols.append(tuple(draw(small_ints) for _ in range(height)))
        elif kind == "zero":
            cols.append((0,) * height)
        else:
            scale = draw(st.sampled_from([1, -1, 2, Fraction(-3, 2)]))
            cols.append(tuple(scale * v for v in draw(st.sampled_from(cols))))
    return cols


@settings(max_examples=150)
@given(walk_columns())
def test_independent_set_walk_matches_brute_force_circuits(cols):
    m = linear_matroid(cols)
    assert m.circuits == brute_linear_circuits(cols, m.ground)
    assert m.rank == fraction_rank(cols)


def test_linear_matroid_ranks_only_the_whole_matrix(monkeypatch):
    import bcres.matroid

    calls = []
    real = bcres.matroid.rank_int
    monkeypatch.setattr(bcres.matroid, "rank_int", lambda rows: calls.append(len(rows)) or real(rows))
    assert linear_matroid([[1, t, t * t, t**3] for t in range(11)]) == uniform_matroid(4, 11)
    assert calls == [11]


# -- circuit elimination: the subset sieve against the circuit scan ------------


def scanning_witness(ground, circuits):
    """First (circuit, circuit, element) failing elimination, scanning every circuit per target."""
    for a, b in combinations(circuits, 2):
        for e in sorted(a & b, key=ground.index):
            target = (a | b) - {e}
            if not any(c <= target for c in circuits):
                return sorted(a, key=ground.index), sorted(b, key=ground.index), e
    return None


@st.composite
def circuit_families(draw):
    """Antichains on at most 8 labels: random ones, and matroids' circuits with one dropped."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        ground = tuple(range(1, n + 1))
        sets = draw(st.lists(st.frozensets(st.sampled_from(ground), min_size=1), min_size=1, max_size=8))
        return ground, canonical(minimal_sets(sets))
    m, ground, circuits = draw(st.one_of(linear_cases(), graphic_cases()))
    if circuits and draw(st.booleans()):
        drop = draw(st.integers(0, len(circuits) - 1))
        circuits = circuits[:drop] + circuits[drop + 1 :]
    return tuple(ground), circuits


@settings(max_examples=300)
@given(circuit_families())
def test_elimination_witness_matches_circuit_scan(family):
    ground, circuits = family
    expected = scanning_witness(ground, circuits)
    try:
        Matroid(ground, circuits, validate=True)
    except CircuitAxiomError as exc:
        assert exc.witness == expected
    else:
        assert expected is None


def test_u5_12_validates_quickly():
    import time

    start = time.perf_counter()
    m = circuit_matroid(12, [set(c) for c in combinations(range(1, 13), 6)])
    assert m == uniform_matroid(5, 12)
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("dropped", [(3, 4, 5), (5, 7, 8)])
def test_unvalidatable_family_is_refused_not_sampled(dropped):
    # not a matroid: with {3,4,5} gone, {3,4,6} and {3,5,6} share 6 but
    # {3,4,5} holds no circuit.  Past the exhaustive limit a sample of
    # pairs used to miss this; now the family is refused outright.
    circuits = [set(c) for c in combinations(range(1, 12), 3) if c != dropped] + [{12, 13}]
    with pytest.raises(BoundError):
        Matroid(range(1, 14), circuits)


@settings(max_examples=300)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.frozensets(st.integers(1, n), min_size=1), max_size=8).map(
        lambda sets: (tuple(range(1, n + 1)), canonical(minimal_sets(sets)))
    )
))
def test_accepted_antichain_has_one_greedy_rank(family):
    # the circuit axioms make every greedy order reach the same rank, so
    # construction needs no second greedy pass to reject a family
    ground, circuits = family
    try:
        m = Matroid(ground, circuits)
    except InputError:
        return
    positions = range(len(ground))
    assert m._greedy_rank(positions) == m._greedy_rank(reversed(positions)) == brute_rank(m, ground)


def value_class_pairs(golden):
    """One value of each immutable class, each with a copy rebuilt independently."""
    from bcres.arrangements import Arrangement
    from bcres.complexes import SimplicialComplex, bc_complex, f_h_vectors
    from bcres.decomposition import stratify
    from bcres.graphs import Graph
    from bcres.hilbert import hilbert_function
    from bcres.ideals import Monomial, MonomialIdeal, broken_circuit_ideal
    from bcres.resolutions import betti_table, classify_linearity

    ideal = broken_circuit_ideal(golden)
    table = betti_table(ideal)
    complex_ = bc_complex(golden)  # from its minimal nonfaces; the copy from its facets
    return [
        (Arrangement([[1, 0], [0, 1]]), Arrangement([[1, 0], [0, 1]])),
        (complex_, SimplicialComplex(golden.ground, bc_complex(golden).facets)),
        (f_h_vectors(complex_), f_h_vectors(SimplicialComplex(golden.ground, complex_.facets))),
        (stratify(uniform_matroid(2, 4)).strata[0], stratify(uniform_matroid(2, 4)).strata[0]),
        (stratify(uniform_matroid(2, 4)), stratify(uniform_matroid(2, 4))),
        (Graph([(1, 2)]), Graph([(1, 1, 2)])),
        (hilbert_function(ideal), hilbert_function(broken_circuit_ideal(golden))),
        (ideal.gens[0], Monomial(list(ideal.gens[0].exps))),
        (ideal, MonomialIdeal(ideal.names, [g.exps for g in reversed(ideal.gens)])),
        (golden, Matroid(golden.ground, golden.circuits)),
        (table, betti_table(ideal, characteristic=2)),
        (classify_linearity(table), classify_linearity(betti_table(ideal, characteristic=2))),
        (golden.tutte_polynomial(), TuttePolynomial(dict(golden.tutte_polynomial().items()))),
    ]


def test_value_classes_refuse_assignment(golden):
    values = [value for value, _ in value_class_pairs(golden)]
    assert len({type(v).__name__ for v in values}) == 13
    for value in values:
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError, match="^%s is immutable$" % type(value).__name__):
            value.rank = 0


def test_value_classes_compare_and_hash_by_their_fields(golden):
    from bcres.decomposition import Stratification
    from bcres.graphs import Graph

    pairs = value_class_pairs(golden)
    values = [value for value, _ in pairs]
    for value, copy in pairs:
        assert copy is not value and copy == value and not copy != value
        # no value equals one of another class
        assert [other == value for other in values] == [other is value for other in values]
        if type(value).__name__ == "BettiTable":
            # equal across characteristics, and unhashable: the entries are a dict
            assert (value.characteristic, copy.characteristic) == (0, 2)
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(copy) == hash(value)
    by_class = {type(v).__name__: v for v in values}
    monomial, ideal, matroid, complex_, tutte = (
        by_class[name] for name in ("Monomial", "MonomialIdeal", "Matroid", "SimplicialComplex", "TuttePolynomial")
    )
    assert hash(monomial) == hash(monomial.exps)
    assert hash(ideal) == hash((ideal.names, ideal.masks))
    assert hash(matroid) == hash((matroid.ground, matroid.circuit_masks))
    assert hash(complex_) == hash((complex_.vertices, complex_.facet_masks))
    assert hash(tutte) == hash(frozenset(tutte.coeffs.items()))
    assert TuttePolynomial({(1, 0): 1}) != TuttePolynomial({(0, 1): 1})
    assert golden != Matroid(golden.ground, [{4, 5, 6}])
    # both identities are ((), ()): only the type tells them apart
    assert Graph([]) != Stratification([], [])


# -- enumeration bounds and labels of mixed types ------------------------------


def test_uniform_and_linear_constructors_refuse_past_the_limit():
    with pytest.raises(BoundError, match="^U\\(6,40\\) has 18643560 circuits, limit %d$" % ENUMERATION_LIMIT):
        uniform_matroid(6, 40)
    with pytest.raises(BoundError, match="elements, limit"):
        uniform_matroid(10**9, 10**9)
    with pytest.raises(BoundError, match="elements, limit"):
        circuit_matroid(10**9, [{1, 2}])
    # 30 generic columns of rank 4: every subset of at most 5 columns is ranked
    cols = [[1, t, t * t, t**3] for t in range(30)]
    ranked = sum(binom(30, k) for k in range(1, 6))
    with pytest.raises(BoundError, match="has %d column subsets to rank, limit" % ranked):
        linear_matroid(cols)


def test_the_limit_admits_the_largest_documented_inputs():
    # linear matrices of 11 columns and rank 4, and U(2,26)
    assert sum(binom(11, k) for k in range(1, 6)) <= ENUMERATION_LIMIT
    cols = [[1, t, t * t, t**3] for t in range(11)]
    assert linear_matroid(cols) == uniform_matroid(4, 11)
    assert len(uniform_matroid(2, 26).circuit_masks) == binom(26, 3)


def test_error_messages_list_mixed_labels_in_ground_order():
    ground = ("b", 2, "a", 1)
    with pytest.raises(InputError, match=r"^circuit \['c', 2, 7\] uses unknown labels \['c', 7\]$"):
        Matroid(ground, [["c", 2, 7]])
    with pytest.raises(InputError, match=r"^circuits \['b', 2\] and \['b', 2, 'a'\] are nested$"):
        Matroid(ground, [{2, "b"}, {"a", 2, "b"}])
    with pytest.raises(CircuitAxiomError) as err:
        Matroid(ground, [{"b", 2}, {2, "a"}])
    # circuits in their canonical order, each listed in ground order
    assert err.value.witness == ([2, "a"], ["b", 2], 2)
    m = Matroid(ground, [{"b", 2, "a"}])
    with pytest.raises(InputError, match=r"overlap: \['b', 1\]$"):
        m.minor(deleted={1, "b"}, contracted={"b", 1})
    assert repr(m) == "Matroid(n=4, r=3, circuits=[['b', 2, 'a']])"
    # label sets that do not compare still get one canonical order
    assert Matroid(ground, [{"b", 2}, {"a", 1}]).circuits == Matroid(ground, [{"a", 1}, {2, "b"}]).circuits
