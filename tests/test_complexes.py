"""Broken-circuit/independence complexes, f/h-vectors, exact homology.

Oracle for bc_complex facets: filter all 2^n subsets against the broken
circuits and take maximal survivors.  Homology is pinned on complexes
whose answers are classical.
"""

import time
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bcres import complexes, util
from bcres.complexes import (
    SimplicialComplex,
    bc_complex,
    complex_from_nonfaces,
    f_h_vectors,
    f_to_h,
    h_to_f,
    independence_complex,
    induced_subcomplex,
    reduced_homology_ranks,
)
from bcres.corpus import standard_corpus
from bcres.errors import BoundError, InputError, LoopError
from bcres.hilbert import hilbert_function
from bcres.ideals import (
    Monomial,
    MonomialIdeal,
    broken_circuit_ideal,
    complex_of_ideal,
    stanley_reisner_ideal,
    var_name,
)
from bcres.matroid import uniform_matroid


def brute_bc_facets(matroid, order=None):
    bcs = matroid.broken_circuits(order)
    faces = []
    for k in range(len(matroid.ground) + 1):
        for sub in combinations(matroid.ground, k):
            if not any(b <= set(sub) for b in bcs):
                faces.append(frozenset(sub))
    return {f for f in faces if not any(f < g for g in faces)}


def test_bc_complex_u24(u24):
    c = bc_complex(u24)
    assert set(c.facets) == {frozenset({1, 2}), frozenset({1, 3}), frozenset({1, 4})}
    assert f_h_vectors(c).f == (1, 4, 3)


def test_bc_complex_free_simplex():
    c = bc_complex(uniform_matroid(3, 3))
    assert c.facets == (frozenset({1, 2, 3}),)


def test_bc_complex_golden(golden):
    c = bc_complex(golden)
    assert set(c.facets) == brute_bc_facets(golden)
    assert c.dim == 3
    # min element of the order lies in every facet
    assert all(1 in f for f in c.facets)
    assert f_h_vectors(c).f == (1, 6, 14, 15, 6)


def test_bc_facets_match_bruteforce_more():
    for m in (uniform_matroid(2, 5), uniform_matroid(3, 6), uniform_matroid(4, 5)):
        assert set(bc_complex(m).facets) == brute_bc_facets(m)


def test_bc_complex_rejects_loops():
    with pytest.raises(LoopError):
        bc_complex(uniform_matroid(0, 2))


@pytest.mark.parametrize("reverse", [False, True], ids=["ground-order", "reversed"])
def test_bc_facets_are_the_berge_routes(reverse):
    # the nbc bases against the facets Alexander duality derives from the minimal broken circuits
    for name, m in standard_corpus(0):
        if not m.is_loopless:
            continue
        order = m.ground[::-1] if reverse else None
        berge = complex_from_nonfaces(m.ground, m.broken_circuit_masks(order)).facet_masks
        assert bc_complex(m, order).facet_masks == berge, name


def test_bc_complex_bounds_its_nbc_bases(monkeypatch):
    # U(3,6): C(5,2) = 10 nbc bases, the bases through the least element
    u36 = uniform_matroid(3, 6)
    monkeypatch.setattr(util, "ENUMERATION_LIMIT", 10)
    assert len(bc_complex(u36).facet_masks) == 10
    monkeypatch.setattr(util, "ENUMERATION_LIMIT", 9)
    with pytest.raises(BoundError, match="^a rank-3 matroid on 6 elements has more than 9 nbc bases$"):
        bc_complex(u36)


def _trial_division_prime(n):
    return n > 1 and all(n % k for k in range(2, int(n**0.5) + 1))


def _accepts(characteristic):
    try:
        complexes._check_characteristic(characteristic)
    except InputError:
        return False
    return True


def test_characteristic_check_agrees_with_trial_division():
    assert [n for n in range(2, 10**5) if _accepts(n) != _trial_division_prime(n)] == []


def test_characteristic_check_rejects_strong_pseudoprimes():
    assert not _accepts(3215031751)  # strong pseudoprime to the bases 2, 3, 5, 7
    assert not _accepts(3825123056546413051)  # ... to every prime base up to 31


def test_characteristic_check_accepts_a_large_prime_at_once():
    start = time.perf_counter()
    assert _accepts(2**61 - 1)
    assert time.perf_counter() - start < 0.1
    assert reduced_homology_ranks(SimplicialComplex((1, 2), [{1}, {2}]), 2**61 - 1) == [0, 1]


def test_characteristic_check_refuses_past_its_proven_range():
    with pytest.raises(BoundError, match="318665857834031151167461"):
        complexes._check_characteristic(318665857834031151167461 + 2)


def test_independence_complex(u24, golden):
    c = independence_complex(u24)
    assert set(c.facets) == {frozenset(s) for s in combinations((1, 2, 3, 4), 2)}
    cg = independence_complex(golden)
    assert len(cg.facets) == 11  # spanning-tree count, cross-checked in test_matroid
    assert all(len(f) == 4 for f in cg.facets)


def test_independence_complex_loop_ghost():
    c = independence_complex(uniform_matroid(0, 1))
    assert c.facets == (frozenset(),)
    assert c.dim == -1


def test_induced_subcomplex(u24):
    c = bc_complex(u24)
    sub = induced_subcomplex(c, {2, 3, 4})
    assert set(sub.facets) == {frozenset({2}), frozenset({3}), frozenset({4})}
    empty = induced_subcomplex(c, set())
    assert empty.facets == (frozenset(),)
    full = SimplicialComplex((1, 2, 3), [{1, 2, 3}])
    assert induced_subcomplex(full, {1, 3}).facets == (frozenset({1, 3}),)
    with pytest.raises(InputError):
        induced_subcomplex(c, {9})


def test_f_h_vectors_u24(u24):
    fh_in = f_h_vectors(independence_complex(u24))
    assert fh_in.f == (1, 4, 6)
    assert fh_in.h == (1, 2, 3)
    fh_bc = f_h_vectors(bc_complex(u24))
    assert fh_bc.f == (1, 4, 3)
    assert fh_bc.h == (1, 2, 0)
    full = f_h_vectors(SimplicialComplex((1, 2, 3), [{1, 2, 3}]))
    assert full.h == (1, 0, 0, 0)


def test_f_h_roundtrip(golden, u24):
    for m in (golden, u24, uniform_matroid(3, 6)):
        for c in (bc_complex(m), independence_complex(m)):
            fh = f_h_vectors(c)
            assert h_to_f(fh.h, fh.dim) == fh.f
            assert f_to_h(fh.f, fh.dim) == fh.h
            assert sum(fh.h) == fh.f[-1]


def test_independence_complex_counts_faces_without_the_k_polynomial(monkeypatch):
    # U(2,26): 352 faces against 2,600 minimal nonfaces (its circuits)
    def no_pivot(masks):
        raise AssertionError("a complex built from facets needs no K-polynomial")

    monkeypatch.setattr(complexes, "k_polynomial", no_pivot)
    assert f_h_vectors(independence_complex(uniform_matroid(2, 26))).f == (1, 26, 325)


def test_complex_from_nonfaces_lists_no_face(monkeypatch, golden):
    def no_faces(facets):
        raise AssertionError("a complex built from nonfaces needs no face list")

    monkeypatch.setattr(complexes, "faces_by_size", no_faces)
    assert f_h_vectors(bc_complex(golden)).f == (1, 6, 14, 15, 6)
    hd = hilbert_function(broken_circuit_ideal(golden))
    assert hd.numerator == (1, 2, 2, 1) and hd.dim == 4


def test_homology_three_points():
    c = SimplicialComplex((1, 2, 3), [{1}, {2}, {3}])
    assert reduced_homology_ranks(c) == [0, 2]


def test_homology_hollow_triangle():
    c = SimplicialComplex((1, 2, 3), [{1, 2}, {1, 3}, {2, 3}])
    assert reduced_homology_ranks(c) == [0, 0, 1]
    assert reduced_homology_ranks(c, characteristic=2) == [0, 0, 1]


def test_homology_full_simplex():
    c = SimplicialComplex((1, 2, 3), [{1, 2, 3}])
    assert reduced_homology_ranks(c) == [0, 0, 0, 0]


def test_homology_empty_complex():
    c = SimplicialComplex((1,), [frozenset()])
    assert reduced_homology_ranks(c) == [1]


def test_homology_sphere_boundary():
    # boundary of the tetrahedron: H~_2 = 1
    c = SimplicialComplex((1, 2, 3, 4), [set(s) for s in combinations((1, 2, 3, 4), 3)])
    assert reduced_homology_ranks(c) == [0, 0, 0, 1]


def test_homology_euler_consistency(golden):
    for m in (golden, uniform_matroid(2, 5)):
        for cx in (bc_complex(m), independence_complex(m)):
            ranks = reduced_homology_ranks(cx)
            fh = f_h_vectors(cx)
            euler_h = sum((-1) ** (c - 1) * r for c, r in enumerate(ranks))
            euler_f = sum((-1) ** (c - 1) * v for c, v in enumerate(fh.f))
            assert euler_h == euler_f


def test_homology_field_independence_small(golden):
    for m in (uniform_matroid(2, 4), golden):
        cx = bc_complex(m)
        r0 = reduced_homology_ranks(cx, 0)
        assert r0 == reduced_homology_ranks(cx, 2) == reduced_homology_ranks(cx, 3)


def test_bc_f_below_independence_f(golden, u24):
    for m in (golden, u24, uniform_matroid(3, 6)):
        fb = f_h_vectors(bc_complex(m)).f
        fi = f_h_vectors(independence_complex(m)).f
        min_bc = min(len(b) for b in m.broken_circuits())
        for k, vb in enumerate(fb):
            assert vb <= fi[k]
            if k < min_bc:
                assert vb == fi[k]


def test_whitney_identity(golden, u24):
    # sum_i (-1)^i f_{i-1}(BC) t^(r-i) = (-1)^r T(1-t, 0)
    for m in (golden, u24, uniform_matroid(3, 5)):
        r = m.rank
        f = f_h_vectors(bc_complex(m)).f
        t = m.tutte_polynomial()
        lhs = [0] * (r + 1)
        for i, v in enumerate(f):
            lhs[r - i] += (-1) ** i * v
        # expand (-1)^r T(1-t, 0): terms (i,j) with j > 0 vanish at y=0
        rhs = [0] * (r + 1)
        from bcres.util import binom

        for (i, j), c in t.coeffs.items():
            if j == 0:
                for k in range(i + 1):
                    rhs[k] += (-1) ** r * c * binom(i, k) * (-1) ** k
        assert lhs == rhs


def test_tutte_h_identity(golden, u24):
    # T(x, 1) = sum_i h_i(In(X)) x^(r-i)
    for m in (golden, u24, uniform_matroid(2, 6)):
        r = m.rank
        h = f_h_vectors(independence_complex(m)).h
        t = m.tutte_polynomial()
        poly = [0] * (r + 1)
        for (i, j), c in t.coeffs.items():
            poly[i] += c
        expected = [0] * (r + 1)
        for i, v in enumerate(h):
            expected[r - i] += v
        assert poly == expected


def brute_stanley_reisner_ideal(complex_):
    """Walk all vertex subsets by size, keeping the nonfaces that contain no
    smaller nonface."""
    verts = complex_.vertices
    names = tuple(var_name(v) for v in verts)
    if complex_.is_void:
        return MonomialIdeal(names, [Monomial((0,) * len(names))])  # unit ideal
    facets = complex_.facets
    nonfaces = []
    for size in range(1, len(verts) + 1):
        for sub in combinations(verts, size):
            s = frozenset(sub)
            if not any(nf <= s for nf in nonfaces) and not any(s <= f for f in facets):
                nonfaces.append(s)
    return MonomialIdeal(
        names, [Monomial([1 if v in nf else 0 for v in verts]) for nf in nonfaces]
    )


# string labels whose repr order differs from their position order
LABELS = ("v10", "b", "v2", "a", "v1", "c", "v9")


@st.composite
def facet_families(draw):
    n = draw(st.integers(0, len(LABELS)))
    vertices = draw(st.permutations(LABELS[:n]))
    facets = draw(
        st.lists(st.sets(st.sampled_from(vertices)) if vertices else st.just(set()), max_size=6)
    )
    return vertices, facets


@given(facet_families())
@example((LABELS[:3], []))  # the void complex
@example((LABELS[:3], [set()]))  # {()}, every vertex a ghost
@example((LABELS, [{"v10", "v2"}, {"a"}, {"v2", "a", "v9"}]))
def test_mask_complex_matches_brute_force(family):
    vertices, facets = family
    c = SimplicialComplex(vertices, facets)
    assert set(c.facets) == {
        frozenset(f) for f in facets if not any(frozenset(f) < frozenset(g) for g in facets)
    }
    ideal = stanley_reisner_ideal(c)
    assert ideal == brute_stanley_reisner_ideal(c)
    # the same complex built from its nonfaces takes the K-polynomial route
    from_nonfaces = complex_of_ideal(ideal)
    for complex_ in (c, from_nonfaces):
        assert complex_.is_void == (not facets)
        if complex_.is_void:
            assert reduced_homology_ranks(complex_) == []
            with pytest.raises(InputError):
                f_h_vectors(complex_)
            continue
        faces = [
            frozenset(s)
            for k in range(len(vertices) + 1)
            for s in combinations(vertices, k)
            if any(set(s) <= f for f in facets)
        ]
        dim = max(len(f) for f in faces) - 1
        f = [sum(1 for face in faces if len(face) == k) for k in range(dim + 2)]
        fh = f_h_vectors(complex_)
        assert (fh.f, fh.h, fh.dim) == (tuple(f), f_to_h(f, dim), dim)
    assert from_nonfaces == c
    assert stanley_reisner_ideal(from_nonfaces) == ideal
