"""Corpus-wide structural invariants that are not acceptance criteria."""

from itertools import combinations

import pytest

from bcres.complexes import bc_complex, f_h_vectors, independence_complex
from bcres.corpus import MAX_GROUND, connected_graphs, standard_corpus
from bcres.ideals import stanley_reisner_ideal
from bcres.matroid import direct_sum, uniform_matroid


@pytest.fixture(scope="module")
def corpus():
    return standard_corpus()


def test_corpus_members_valid(corpus):
    assert len(corpus) >= 200
    names = [name for name, _ in corpus]
    assert len(set(names)) == len(names)
    for _, m in corpus:
        assert m.is_simple and m.is_loopless
        assert 2 <= len(m.ground) <= 8


def test_duality_involution_corpus_wide(corpus):
    for name, m in corpus:
        assert m.dual().dual() == m, name


def test_basis_count_two_routes(corpus):
    for name, m in corpus:
        profile = m.independence_profile()
        assert m.tutte_polynomial().evaluate(1, 1) == profile[m.rank], name


def test_bc_f_vector_dominated(corpus):
    for name, m in corpus:
        fb = f_h_vectors(bc_complex(m)).f
        fi = f_h_vectors(independence_complex(m)).f
        bcs = m.broken_circuits()
        min_bc = min((len(b) for b in bcs), default=len(m.ground) + 1)
        for k, v in enumerate(fb):
            assert v <= fi[k], name
            if k < min_bc:
                assert v == fi[k], name


def test_sr_roundtrip_corpus(corpus):
    from bcres.ideals import complex_of_ideal

    for name, m in corpus:
        if len(m.ground) > 7:
            continue
        ideal = stanley_reisner_ideal(bc_complex(m))
        assert stanley_reisner_ideal(complex_of_ideal(ideal)) == ideal, name


def test_tutte_multiplicative_on_sums():
    parts = [uniform_matroid(2, 4), uniform_matroid(2, 3), uniform_matroid(1, 2)]
    total = direct_sum(parts)
    product = parts[0].tutte_polynomial()
    for p in parts[1:]:
        product = product * p.tutte_polynomial()
    assert total.tutte_polynomial() == product


def test_slinear_implies_hilbert_patterns(corpus):
    from bcres.hilbert import h_binomial_fit, hilbert_function, linear_value_criterion
    from bcres.resolutions import betti_table, classify_linearity

    checked = 0
    for name, m in corpus:
        ideal = stanley_reisner_ideal(bc_complex(m))
        v = classify_linearity(betti_table(ideal))
        if v.kind != "s-linear":
            continue
        assert linear_value_criterion(ideal, hilbert_function(ideal).codim) is True, name
        q = len(m.ground) - m.rank
        fit = h_binomial_fit(f_h_vectors(bc_complex(m)).h, q)
        assert fit["fits"] and fit["c"] == (1,) and fit["cutoff"] == v.s, (name, fit)
        checked += 1
    assert checked >= 100


def test_betti_hilbert_alternating_sum(corpus):
    from bcres.hilbert import hilbert_function
    from bcres.resolutions import betti_table
    from bcres.util import poly_mul, poly_trim

    for name, m in corpus:
        if len(m.ground) > 7:
            continue
        ideal = stanley_reisner_ideal(bc_complex(m))
        hd = hilbert_function(ideal)
        full = list(hd.numerator)
        for _ in range(ideal.nvars - hd.dim):
            full = poly_mul(full, [1, -1])
        alt = betti_table(ideal).alternating_sum_poly()
        expected = [-v for v in alt]
        expected[0] += 1
        assert poly_trim(full) == poly_trim(expected), name


def test_homology_field_comparison_reported(corpus):
    # characteristic comparisons on <= 6-vertex complexes: report-only check
    from bcres.complexes import reduced_homology_ranks

    mismatches = []
    for name, m in corpus:
        if len(m.ground) > 6:
            continue
        cx = bc_complex(m)
        r0 = reduced_homology_ranks(cx, 0)
        for p in (2, 3):
            if reduced_homology_ranks(cx, p) != r0:
                mismatches.append((name, p))
    # torsion may occur in general; for these shellable complexes it does not
    assert mismatches == []


def union_find_connected_graphs(nverts):
    """Connected simple graphs on 1..nverts with at most MAX_GROUND edges, by union-find."""
    verts = list(range(1, nverts + 1))
    all_edges = list(combinations(verts, 2))
    out = []
    for mask in range(1, 1 << len(all_edges)):
        edges = [all_edges[i] for i in range(len(all_edges)) if mask >> i & 1]
        if len(edges) > MAX_GROUND or len(edges) < nverts - 1:
            continue
        parent = {v: v for v in verts}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for u, v in edges:
            parent[find(u)] = find(v)
        if len({find(v) for v in verts}) == 1:
            out.append(edges)
    out.sort(key=lambda es: (len(es), es))
    return out


@pytest.mark.parametrize("nverts", [3, 4, 5])
def test_connected_graphs_match_union_find(nverts):
    assert connected_graphs(nverts) == union_find_connected_graphs(nverts)
