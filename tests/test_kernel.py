"""Exact kernel: rank routines, homology and Hochster sums against independent oracles.

Ranks must agree with plain Gaussian elimination over Fractions on random
matrices; homology ranks with the ranks of the uncollapsed boundary
matrices; Hochster sums with the Taylor oracle on the Stanley-Reisner
ideal.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcres import _kernel
from bcres.complexes import SimplicialComplex
from bcres.ideals import ideal_from_supports, stanley_reisner_ideal
from bcres.resolutions import TAYLOR_GENERATOR_LIMIT, betti_hochster, betti_taylor_oracle
from test_resolutions import squarefree_ideals

# a single kernel; its id keeps the `[python]` suffix of the existing test names
KERNEL = pytest.mark.parametrize("impl", [_kernel], ids=[_kernel.BACKEND])


def fraction_rank(rows):
    m = [[Fraction(v) for v in r] for r in rows]
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    pr = 0
    for pc in range(nc):
        piv = next((i for i in range(pr, nr) if m[i][pc]), None)
        if piv is None:
            continue
        m[pr], m[piv] = m[piv], m[pr]
        for i in range(pr + 1, nr):
            if m[i][pc]:
                f = m[i][pc] / m[pr][pc]
                m[i] = [a - f * b for a, b in zip(m[i], m[pr])]
        rank += 1
        pr += 1
        if pr == nr:
            break
    return rank


def fraction_rank_mod_p(rows, p):
    m = [[v % p for v in r] for r in rows]
    nr, nc = len(m), len(m[0])
    rank = 0
    pr = 0
    for pc in range(nc):
        piv = next((i for i in range(pr, nr) if m[i][pc]), None)
        if piv is None:
            continue
        m[pr], m[piv] = m[piv], m[pr]
        inv = pow(m[pr][pc], p - 2, p)
        m[pr] = [v * inv % p for v in m[pr]]
        for i in range(pr + 1, nr):
            if m[i][pc]:
                f = m[i][pc]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[pr])]
        rank += 1
        pr += 1
        if pr == nr:
            break
    return rank


def random_matrix(rng, nr, nc, lo=-3, hi=3):
    return [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]


@KERNEL
def test_rank_int_random(impl):
    rng = random.Random(1)
    for _ in range(60):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        m = random_matrix(rng, nr, nc)
        assert impl.rank_int(m) == fraction_rank(m)


@KERNEL
def test_rank_int_singular_structured(impl):
    m = [[1, 2, 3], [2, 4, 6], [1, 1, 1]]
    assert impl.rank_int(m) == 2
    assert impl.rank_int([[0, 0], [0, 0]]) == 0
    assert impl.rank_int([[5]]) == 1


@KERNEL
def test_rank_int_big_values(impl):
    # Bareiss minors of such entries overflow 64 bits; Python ints keep them exact
    big = 10**25
    m = [[big, 2 * big], [big, big]]
    assert impl.rank_int(m) == 2
    m2 = [[big, 2 * big], [2 * big, 4 * big]]
    assert impl.rank_int(m2) == 1


@KERNEL
@pytest.mark.parametrize("p", [2, 3, 5, 32003])
def test_rank_mod_p_random(impl, p):
    rng = random.Random(p)
    for _ in range(40):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        m = random_matrix(rng, nr, nc, -6, 6)
        assert impl.rank_mod_p(m, p) == fraction_rank_mod_p(m, p)


@KERNEL
def test_rank_characteristic_difference(impl):
    # rank drops mod 2 on a matrix whose determinant is even
    m = [[1, 1], [1, -1]]
    assert impl.rank_int(m) == 2
    assert impl.rank_mod_p(m, 2) == 1


@KERNEL
def test_rank_sparse_matches_dense(impl):
    rng = random.Random(9)
    for _ in range(40):
        nr, nc = rng.randint(1, 12), rng.randint(1, 12)
        m = [[rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(nc)] for _ in range(nr)]
        entries = {(r, c): m[r][c] for r in range(nr) for c in range(nc) if m[r][c]}
        assert impl.rank_sparse(entries, 0) == fraction_rank(m)
        assert impl.rank_sparse(entries, 3) == fraction_rank_mod_p(m, 3)


@st.composite
def sparse_matrices(draw, values, coefficients):
    """(dense rows, sparse entries) of a random matrix up to 40 x 40.

    Sparse base rows get entries from `values`; every row of the matrix is
    ca * base_a + cb * base_b for (ca, cb) in `coefficients`.  The rows thus
    depend on each other, and an elimination step with a wrong multiplier
    changes the rank.
    """
    nr = draw(st.integers(1, 40))
    nc = draw(st.integers(1, 40))
    cell = st.tuples(st.integers(0, nc - 1), st.sampled_from(values))
    base = []
    for _ in range(draw(st.integers(1, nr))):
        row = [0] * nc
        for c, v in draw(st.lists(cell, min_size=1, max_size=8)):
            row[c] = v
        base.append(row)
    index = st.integers(0, len(base) - 1)
    pick = st.tuples(index, index, st.sampled_from(coefficients))
    picks = draw(st.lists(pick, min_size=nr, max_size=nr))
    rows = [[ca * x + cb * y for x, y in zip(base[a], base[b])] for a, b, (ca, cb) in picks]
    entries = {(r, c): v for r, vs in enumerate(rows) for c, v in enumerate(vs) if v}
    return rows, entries


# entries vanishing mod 2, 3 or 32003 (6, 32003) exercise the reduction to GF(p)
@settings(max_examples=100, deadline=None)
@given(
    sparse_matrices(
        [1, -1, 1, -1, 2, -2, 3, 5, 6, 32003],
        [(1, 0), (1, 1), (1, -1), (1, 2), (2, 0), (3, 0)],
    ),
    st.sampled_from([0, 2, 3, 32003]),
)
def test_rank_sparse_property(matrix, p):
    rows, entries = matrix
    expected = fraction_rank_mod_p(rows, p) if p else fraction_rank(rows)
    assert _kernel.rank_sparse(entries, p) == expected


# no +-1 entry, so in characteristic 0 the whole matrix goes to the rank_int fallback
@settings(max_examples=50, deadline=None)
@given(sparse_matrices([2, -2, 3], [(1, 0), (-1, 0), (2, 2)]))
def test_rank_sparse_no_unit_fallback(matrix):
    rows, entries = matrix
    assert not any(v in (1, -1) for v in entries.values())
    assert _kernel.rank_sparse(entries, 0) == fraction_rank(rows)


def simplex_faces(vertices, facets):
    levels = {}
    for facet in facets:
        for k in range(len(facet) + 1):
            for sub in combinations(sorted(facet), k):
                mask = 0
                for v in sub:
                    mask |= 1 << v
                levels.setdefault(k, set()).add(mask)
    top = max(levels) + 1 if levels else 0
    return [sorted(levels.get(k, ())) for k in range(top)]


HOMOLOGY_CASES = [
    # (facets over integer vertices, expected reduced ranks by level)
    ([(0,), (1,), (2,)], [0, 2]),
    ([(0, 1), (0, 2), (1, 2)], [0, 0, 1]),
    ([(0, 1, 2)], [0, 0, 0, 0]),
    ([()], [1]),
    ([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], [0, 0, 0, 1]),
    # two hollow triangles sharing a vertex: H~_1 rank 2
    ([(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)], [0, 0, 2]),
]


@KERNEL
@pytest.mark.parametrize("facets,expected", HOMOLOGY_CASES)
def test_homology_known(impl, facets, expected):
    faces = simplex_faces(set().union(*[set(f) for f in facets]) or {0}, facets)
    assert impl.homology_ranks(faces, 0) == expected
    assert impl.homology_ranks(faces, 2) == expected


def random_complexes(seed, count, max_verts, max_facet):
    """(nverts, facets) of seeded random complexes on 3..max_verts vertices."""
    rng = random.Random(seed)
    for _ in range(count):
        nverts = rng.randint(3, max_verts)
        nfacets = rng.randint(1, 6)
        facets = [
            tuple(sorted(rng.sample(range(nverts), rng.randint(1, min(max_facet, nverts)))))
            for _ in range(nfacets)
        ]
        yield nverts, facets


def dense_two_complexes(seed, count):
    """Random 2-complexes on 9 vertices: about 71 of the 84 triangles, so large boundary matrices."""
    rng = random.Random(seed)
    for _ in range(count):
        facets = [t for t in combinations(range(9), 3) if rng.random() < 0.85]
        yield 9, facets


# facets of any size (mostly simplices), then at most three vertices (nontrivial homology)
COMPLEXES = list(random_complexes(3, 15, 7, 7)) + list(random_complexes(4, 40, 6, 3))


def boundary_homology_oracle(faces, rank):
    """Reduced homology ranks from the full boundary matrices, with no collapse."""
    top = len(faces)
    ranks = [0] * (top + 1)
    for c in range(1, top):
        index = {f: i for i, f in enumerate(faces[c - 1])}
        rows = [[0] * len(faces[c]) for _ in faces[c - 1]]
        for col, f in enumerate(faces[c]):
            verts = [v for v in range(f.bit_length()) if f >> v & 1]
            for pos, v in enumerate(verts):
                rows[index[f & ~(1 << v)]][col] = (-1) ** pos
        ranks[c] = rank(rows)
    return [len(faces[c]) - ranks[c] - ranks[c + 1] for c in range(top)]


def test_homology_ranks_match_boundary_matrix_oracle():
    for nverts, facets in COMPLEXES + list(dense_two_complexes(5, 3)):
        faces = simplex_faces(range(nverts), facets)
        assert _kernel.homology_ranks(faces, 0) == boundary_homology_oracle(faces, fraction_rank)
        for p in (2, 5):
            assert _kernel.homology_ranks(faces, p) == boundary_homology_oracle(
                faces, lambda rows: fraction_rank_mod_p(rows, p)
            )


def test_hochster_betti_matches_taylor_oracle():
    compared = 0
    for nverts, facets in COMPLEXES:
        ideal = stanley_reisner_ideal(SimplicialComplex(range(nverts), facets))
        if len(ideal.gens) > TAYLOR_GENERATOR_LIMIT:
            continue
        faces = simplex_faces(range(nverts), facets)
        sigmas = list(range(1, 1 << nverts))
        for p in (0, 2):
            assert _kernel.hochster_betti(nverts, faces, sigmas, p) == betti_taylor_oracle(ideal, p).entries
        compared += 1
    assert compared >= 50


@settings(max_examples=100, deadline=None)
@given(squarefree_ideals())
def test_betti_hochster_matches_taylor_property(ideal):
    for p in (0, 2):
        assert betti_hochster(ideal, p) == betti_taylor_oracle(ideal, p), ideal.render()


# minimal RP^2 triangulation: H~_1 has 2-torsion, so GF(2) ranks differ from Q
RP2_FACETS = [
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
]


def test_projective_plane_characteristic_dependence():
    faces = simplex_faces(range(6), RP2_FACETS)
    assert _kernel.homology_ranks(faces, 0) == [0, 0, 0, 0]
    assert _kernel.homology_ranks(faces, 2) == [0, 0, 1, 1]


def test_projective_plane_ideal_betti_depends_on_characteristic():
    ideal = stanley_reisner_ideal(SimplicialComplex(range(6), RP2_FACETS))
    assert len(ideal.gens) == 10  # the triangles that are not facets
    faces = simplex_faces(range(6), RP2_FACETS)
    sigmas = list(range(1, 1 << 6))
    tables = {p: _kernel.hochster_betti(6, faces, sigmas, p) for p in (0, 2)}
    assert tables[0] != tables[2]
    for p, table in tables.items():
        assert table == betti_taylor_oracle(ideal, p).entries


def test_hochster_one_generator_of_degree_12():
    # at sigma = the generator the induced subcomplex is the boundary of an
    # 11-simplex (4,095 faces, none free); its dual link is {empty face}
    ideal = ideal_from_supports(["x%d" % i for i in range(13)], [range(12)])
    for p in (0, 2):
        assert betti_hochster(ideal, p).entries == {(0, 12): 1}
