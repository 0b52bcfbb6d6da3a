"""Exact kernel: rank routines, homology and Hochster sums against independent oracles.

Ranks must agree with plain Gaussian elimination over Fractions on random
matrices; homology ranks with the ranks of the unreduced boundary
matrices; Hochster sums with the Taylor oracle on the Stanley-Reisner
ideal, and with the reference route below (every link built cell by cell
from a submask walk, free faces collapsed, the rest ranked densely).  The
kernel takes minimal nonfaces; tests derive them from face lists by brute
force at the call site.  `homology_ranks` without a memo is the oracle for
the per-call memo of collapsed cores that the Hochster sum uses.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcres import _kernel
from bcres._kernel.pykernel import _core_key, _strong_core
from bcres.complexes import SimplicialComplex, reduced_homology_ranks
from bcres.errors import BoundError
from bcres.ideals import ideal_from_supports, stanley_reisner_ideal
from bcres.resolutions import (
    TAYLOR_GENERATOR_LIMIT,
    _lcm_lattice_masks,
    betti_hochster,
    betti_taylor_oracle,
)
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
    # products of such entries overflow 64 bits; Python ints keep them exact
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


@st.composite
def combination_matrices(draw, p=1):
    """Rows that are integer combinations of one to three base rows.

    Base entries are small, above 2^64 in size, or multiples of p, and a
    coefficient may be p, so rank deficiency is common in every
    characteristic and the dense fold meets big and vanishing entries.
    """
    nc = draw(st.integers(1, 6))
    big = st.integers(2**64, 2**70)
    entry = st.one_of(
        st.integers(-4, 4), big, big.map(lambda v: -v), st.integers(-(2**70), 2**70).map(lambda k: k * p)
    )
    base = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=1, max_size=3))
    coefficient = st.one_of(st.integers(-3, 3), st.just(p))
    combos = draw(
        st.lists(st.lists(coefficient, min_size=len(base), max_size=len(base)), min_size=1, max_size=7)
    )
    return [[sum(c * row[k] for c, row in zip(cs, base)) for k in range(nc)] for cs in combos]


@settings(max_examples=200)
@given(combination_matrices())
def test_rank_int_matches_fraction_rank(rows):
    assert _kernel.rank_int(rows) == fraction_rank(rows)


@pytest.mark.parametrize("p", [2, 3, 32003])
@settings(max_examples=150)
@given(data=st.data())
def test_rank_mod_p_matches_fraction_rank_mod_p(p, data):
    rows = data.draw(combination_matrices(p))
    assert _kernel.rank_mod_p(rows, p) == fraction_rank_mod_p(rows, p)


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
@settings(max_examples=100)
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
@settings(max_examples=50)
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
    # the tetrahedron collapses to a vertex; dimensions it loses stay as zeros
    ([(0, 1, 2, 3), (4,)], [0, 1, 0, 0, 0]),
]


@KERNEL
@pytest.mark.parametrize("facets,expected", HOMOLOGY_CASES)
def test_homology_known(impl, facets, expected):
    masks = facet_masks(facets)
    assert impl.homology_ranks(masks, 0) == expected
    assert impl.homology_ranks(masks, 2) == expected


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
DENSE_FACETS = next(dense_two_complexes(5, 1))[1]


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
    closed_surfaces = [(6, RP2_FACETS), (6, OCTAHEDRON_FACETS)]
    for nverts, facets in COMPLEXES + list(dense_two_complexes(5, 3)) + closed_surfaces:
        faces = simplex_faces(range(nverts), facets)
        for p in (0, 2, 5):
            ranks = _kernel.homology_ranks(facet_masks(facets), p)
            assert ranks == boundary_homology_oracle(faces, dense_rank(p))


# minimal RP^2 triangulation: H~_1 has 2-torsion, so GF(2) ranks differ from Q
RP2_FACETS = [
    (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
]


def dense_rank(p):
    """Rank over Q (p = 0) or GF(p) of a dense matrix, 0 for an empty one."""

    def rank(rows):
        if not rows or not rows[0]:
            return 0
        return fraction_rank_mod_p(rows, p) if p else fraction_rank(rows)

    return rank


# OCTAHEDRON_FACETS and RP2_FACETS are closed surfaces; dense 2-complexes
# have every edge in several triangles.  None of them has a free face.
OCTAHEDRON_FACETS = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]


@st.composite
def cores_plus_random_facets(draw):
    """Facets of a complex without free faces (or none) plus up to four random facets."""
    base = draw(st.sampled_from([[], RP2_FACETS, OCTAHEDRON_FACETS, DENSE_FACETS]))
    facet = st.lists(st.integers(0, 8), min_size=1, max_size=4, unique=True).map(tuple)
    facets = list(base) + draw(st.lists(facet, max_size=4))
    return facets or [()]


@settings(max_examples=60, deadline=None)
@given(cores_plus_random_facets(), st.sampled_from([0, 2, 3]))
def test_homology_ranks_property(facets, p):
    faces = simplex_faces(None, facets)
    ranks = _kernel.homology_ranks(facet_masks(facets), p)
    assert ranks == boundary_homology_oracle(faces, dense_rank(p))


SMALL_ANTICHAINS = st.lists(
    st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True), min_size=1, max_size=7
).map(lambda facets: facet_masks(facets))  # facet_masks is defined below


def rename(facets, names):
    return facet_masks([[names[v] for v in range(7) if f >> v & 1] for f in facets])


@settings(max_examples=200, deadline=None)
@given(
    SMALL_ANTICHAINS,
    st.permutations(range(12)),
    st.lists(st.integers(0, 11), min_size=7, max_size=7, unique=True).map(sorted),
    SMALL_ANTICHAINS,
)
def test_homology_ranks_ignore_vertex_names(facets, shuffled, spread, other):
    """Any injective renaming keeps the ranks; an order-keeping one keeps the memo key too."""
    for p in (0, 2, 3):
        expected = _kernel.homology_ranks(facets, p)
        assert _kernel.homology_ranks(rename(facets, shuffled), p) == expected
        # one memo for all: the order-keeping image hits the original's entry,
        # and no complex is answered from another one's entry
        memo = {}
        assert _kernel.homology_ranks(facets, p, memo) == expected
        assert _kernel.homology_ranks(rename(facets, spread), p, memo) == expected
        assert len(memo) <= 1
        assert _kernel.homology_ranks(rename(facets, shuffled), p, memo) == expected
        assert _kernel.homology_ranks(other, p, memo) == _kernel.homology_ranks(other, p)


def test_memo_keeps_cores_with_equal_facet_sizes_apart():
    # six edges each, no dominated vertex, three homologies: two disjoint
    # hollow triangles, two sharing a vertex, a hexagon
    cores = [
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)],
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)],
    ]
    for p in (0, 2):
        memo = {}
        ranks = [_kernel.homology_ranks(facet_masks(facets), p, memo) for facets in cores + cores]
        assert ranks == [[0, 1, 2], [0, 0, 2], [0, 0, 1]] * 2
        assert len(memo) == len(cores)


def test_core_key_renumbers_in_vertex_order():
    # vertices 1, 3, 4 become 0, 1, 2; facets stay sorted
    assert _core_key([0b11000, 0b01010]) == (0b011, 0b110)
    assert _core_key([0b110, 0b011]) == (0b011, 0b110)


# -- the reference Hochster route: submask walk, then free-face collapse ------


def collapse_free_faces(faces_by_size):
    """Remove free face pairs: a face with exactly one live coface, which has none."""
    top = len(faces_by_size)
    live = [{f: [0, 0] for f in level} for level in faces_by_size]
    for c in range(1, top):
        below = live[c - 1]
        for g in faces_by_size[c]:
            rest = g
            while rest:
                low = rest & (-rest)
                cof = below[g ^ low]
                cof[0] += 1
                cof[1] ^= g
                rest ^= low

    queue = [(c, f) for c in range(top) for f in sorted(live[c]) if live[c][f][0] == 1]
    while queue:
        c, f = queue.pop()
        cof = live[c].get(f)
        if cof is None or cof[0] != 1 or live[c + 1][cof[1]][0] != 0:
            continue
        g = cof[1]
        del live[c][f]
        del live[c + 1][g]
        for level, face in ((c, f), (c + 1, g)):
            if level == 0:
                continue
            below = live[level - 1]
            rest = face
            while rest:
                low = rest & (-rest)
                sub = face ^ low
                cof = below.get(sub)
                if cof is not None:
                    cof[0] -= 1
                    cof[1] ^= face
                    if cof[0] == 1:
                        queue.append((level - 1, sub))
                rest ^= low
    return [sorted(level) for level in live]


def minimal_nonfaces(nvars, faces_by_size):
    """The kernel's input, by brute force over all 2^nvars masks: for each
    size, the nonfaces whose every mask one vertex smaller is a face."""
    faces = set().union(*faces_by_size)
    levels = [[] for _ in range(nvars + 1)]
    for mask in range(1 << nvars):
        if mask not in faces and all(mask ^ 1 << v in faces for v in range(nvars) if mask >> v & 1):
            levels[mask.bit_count()].append(mask)
    return levels


def faces_from_supports(nvars, supports):
    """Face lists of the Stanley-Reisner complex, by brute force: the masks holding no support."""
    faces = [[] for _ in range(nvars + 1)]
    for mask in range(1 << nvars):
        if not any(g & mask == g for g in supports):
            faces[mask.bit_count()].append(mask)
    return faces


def reference_hochster_betti(nvars, faces_by_size, sigmas, p):
    """Dual Hochster sum with every link built cell by cell from the submasks of sigma."""
    faces = set().union(*faces_by_size)
    betti = {}
    for sigma in sigmas:
        if sigma in faces:
            continue
        size = sigma.bit_count()
        link = [[] for _ in range(size)]
        sub = sigma
        while sub:
            if sub not in faces:
                link[size - sub.bit_count()].append(sigma ^ sub)
            sub = (sub - 1) & sigma
        ranks = boundary_homology_oracle(collapse_free_faces(link), dense_rank(p))
        for i, rk in enumerate(ranks):
            if rk:
                betti[(i, size)] = betti.get((i, size), 0) + rk
    return betti


def test_hochster_betti_matches_reference_route():
    for nverts, facets in COMPLEXES:
        faces = simplex_faces(range(nverts), facets)
        sigmas = list(range(1, 1 << nverts))
        nonfaces = minimal_nonfaces(nverts, faces)
        for p in (0, 2):
            expected = reference_hochster_betti(nverts, faces, sigmas, p)
            assert _kernel.hochster_betti(nverts, nonfaces, sigmas, p) == expected


@settings(max_examples=100, deadline=None)
@given(squarefree_ideals())
def test_hochster_betti_matches_reference_route_on_lcm_lattices(ideal):
    supports = ideal.support_masks()
    faces = faces_from_supports(ideal.nvars, supports)
    nonfaces = minimal_nonfaces(ideal.nvars, faces)
    # the generator supports of a minimal generating set are the minimal nonfaces
    assert [g for level in nonfaces for g in level] == sorted(supports, key=lambda g: (g.bit_count(), g))
    sigmas = _lcm_lattice_masks(supports)
    for p in (0, 2):
        expected = reference_hochster_betti(ideal.nvars, faces, sigmas, p)
        assert _kernel.hochster_betti(ideal.nvars, nonfaces, sigmas, p) == expected, ideal.render()


# -- strong collapse ----------------------------------------------------------


def facet_masks(facets):
    """The maximal masks among the given vertex tuples: an antichain, as the kernel takes."""
    masks = {sum(1 << v for v in f) for f in facets}
    return sorted(m for m in masks if not any(m != g and m & g == m for g in masks))


def mask_faces(masks):
    return simplex_faces(None, [[v for v in range(m.bit_length()) if m >> v & 1] for m in masks])


@settings(max_examples=200)
@given(st.lists(st.integers(1, (1 << 7) - 1), min_size=1, max_size=8))
def test_strong_core_keeps_homology_and_a_vertex(masks):
    facets = [m for m in set(masks) if not any(m != g and m & g == m for g in masks)]
    core = _strong_core(facets)
    # a dominated vertex leaves its dominating vertex behind: never the empty facet
    assert core and all(core)
    assert len(core) == 1 or len(core) == len(set(core))
    for p in (0, 2):
        # the core may lose top dimensions, whose ranks were 0
        expected = boundary_homology_oracle(mask_faces(facets), dense_rank(p))
        ranks = boundary_homology_oracle(mask_faces(core), dense_rank(p))
        assert ranks == expected[: len(ranks)] and not any(expected[len(ranks):])


def test_strong_core_of_a_cone_is_one_facet():
    apex = 6
    cone = facet_masks([f + (apex,) for f in RP2_FACETS])
    assert len(_strong_core(cone)) == 1
    # a path collapses onto one of its edges, never past its last vertex
    assert len(_strong_core(facet_masks([(0, 1), (1, 2), (2, 3)]))) == 1
    assert _strong_core(facet_masks([(0,)])) == [1]
    assert _strong_core(facet_masks([(0,), (1,)])) == [1, 2]
    # a hollow triangle and the octahedron have no dominated vertex
    hollow = facet_masks([(0, 1), (1, 2), (0, 2)])
    assert sorted(_strong_core(hollow)) == sorted(hollow)
    octahedron = facet_masks(OCTAHEDRON_FACETS)
    assert sorted(_strong_core(octahedron)) == sorted(octahedron)


def strong_core_oracle(facets):
    """The strong collapse with the full filter: each shrunk facet against every facet without v."""
    verts = 0
    for f in facets:
        verts |= f
    deleted = True
    while deleted and len(facets) > 1:
        deleted = False
        rest = verts
        while rest and len(facets) > 1:
            v = rest & (-rest)
            rest ^= v
            common = verts
            for f in facets:
                if f & v:
                    common &= f
            if common != v:
                keep = [g for g in facets if not g & v]
                shrunk = [f ^ v for f in facets if f & v]
                facets = keep + [f for f in shrunk if not any(not f & ~g for g in keep)]
                verts ^= v
                deleted = True
    return facets


@settings(max_examples=500, deadline=None)
@given(st.lists(st.integers(1, (1 << 10) - 1), min_size=1, max_size=12))
def test_strong_core_matches_the_full_filter(masks):
    # the same list in the same order, so the per-call memo keys do not move
    facets = [m for m in dict.fromkeys(masks) if not any(m != g and m & g == m for g in masks)]
    assert _strong_core(facets) == strong_core_oracle(facets)


def test_strong_core_drops_a_shrunk_facet_inside_a_facet_through_the_dominating_vertex():
    # vertex 0 is dominated by 1; {1, 2} lies in {1, 2, 3}, which holds 1
    facets = facet_masks([(0, 1, 2), (1, 2, 3)])
    assert _strong_core(facets) == strong_core_oracle(facets) == [0b1110]


def test_face_listing_is_bounded(monkeypatch):
    """A core that could have more faces than the enumeration limit is refused before any face is listed."""
    sphere = SimplicialComplex(range(14), combinations(range(14), 13))
    assert reduced_homology_ranks(sphere) == [0] * 13 + [1]  # 2^14 = 16,384 possible faces
    # 40 vertices but only 40 * 2^2 possible faces
    cycle = SimplicialComplex(range(40), [(i, (i + 1) % 40) for i in range(40)])
    for p in (0, 2):
        assert reduced_homology_ranks(cycle, p) == [0, 0, 1]

    def no_faces(facets):
        raise AssertionError("a refused core lists no face")

    monkeypatch.setattr(_kernel.pykernel, "faces_by_size", no_faces)
    sphere = SimplicialComplex(range(16), combinations(range(16), 15))
    with pytest.raises(BoundError, match="65536 possible faces, limit 20000"):
        reduced_homology_ranks(sphere)


def test_empty_link_gives_a_generator_without_homology(monkeypatch):
    # sigma = {x1, x2} is the support of the only generator x1*x2: L = {empty face}
    def no_faces(facets):
        raise AssertionError("a one-facet link lists no face")

    monkeypatch.setattr(_kernel.pykernel, "faces_by_size", no_faces)
    for p in (0, 2):
        assert _kernel.hochster_betti(2, [[], [], [3]], [3], p) == {(0, 2): 1}
        # cones: every sigma of (x1*x2, x1*x3) but the lcm has a one-facet link
        assert _kernel.hochster_betti(3, [[], [], [3, 5]], [3, 5], p) == {(0, 2): 2}


def test_hochster_betti_with_a_vertex_that_is_a_nonface():
    # x1 is a generator, so vertex 0 lies in no face of the complex of (x1, x2*x3)
    ideal = ideal_from_supports(("x1", "x2", "x3"), [{0}, {1, 2}])
    faces = faces_from_supports(3, ideal.support_masks())
    assert faces == [[0], [2, 4], [], []]
    nonfaces = minimal_nonfaces(3, faces)
    assert nonfaces == [[], [1], [6], []]
    sigmas = list(range(1, 8))
    for p in (0, 2):
        table = _kernel.hochster_betti(3, nonfaces, sigmas, p)
        assert table == betti_taylor_oracle(ideal, p).entries == {(0, 1): 1, (0, 2): 1, (1, 3): 1}
        assert table == reference_hochster_betti(3, faces, sigmas, p)


def test_hochster_betti_matches_taylor_oracle():
    compared = 0
    for nverts, facets in COMPLEXES:
        ideal = stanley_reisner_ideal(SimplicialComplex(range(nverts), facets))
        if len(ideal.gens) > TAYLOR_GENERATOR_LIMIT:
            continue
        nonfaces = minimal_nonfaces(nverts, simplex_faces(range(nverts), facets))
        sigmas = list(range(1, 1 << nverts))
        for p in (0, 2):
            assert _kernel.hochster_betti(nverts, nonfaces, sigmas, p) == betti_taylor_oracle(ideal, p).entries
        compared += 1
    assert compared >= 50


def test_hochster_lists_each_renumbered_core_once_per_call(monkeypatch):
    # test_hochster_betti_matches_reference_route and _matches_taylor_oracle
    # check the memo route on these complexes; here its face listings are
    # counted: one per distinct renumbered core in each call
    listed = []
    real = _kernel.pykernel.faces_by_size

    def counting(core):
        listed.append(_core_key(core))
        return real(core)

    monkeypatch.setattr(_kernel.pykernel, "faces_by_size", counting)
    saved = 0
    for nverts, facets in COMPLEXES:
        nonfaces = minimal_nonfaces(nverts, simplex_faces(range(nverts), facets))
        sigmas = list(range(1, 1 << nverts))
        links = ([s ^ n for level in nonfaces for n in level if not n & ~s] for s in sigmas)
        cores = [core for core in (_strong_core(link) for link in links if link) if len(core) > 1]
        del listed[:]
        _kernel.hochster_betti(nverts, nonfaces, sigmas, 0)
        assert sorted(listed) == sorted({_core_key(core) for core in cores})
        saved += len(cores) - len(listed)
    assert saved > 0


@settings(max_examples=100)
@given(squarefree_ideals())
def test_betti_hochster_matches_taylor_property(ideal):
    for p in (0, 2):
        assert betti_hochster(ideal, p) == betti_taylor_oracle(ideal, p), ideal.render()


def test_projective_plane_characteristic_dependence():
    facets = facet_masks(RP2_FACETS)
    assert _kernel.homology_ranks(facets, 0) == [0, 0, 0, 0]
    assert _kernel.homology_ranks(facets, 2) == [0, 0, 1, 1]


def test_cone_over_projective_plane_lists_no_face(monkeypatch):
    def no_faces(facets):
        raise AssertionError("a strong collapse to one facet lists no face")

    monkeypatch.setattr(_kernel.pykernel, "faces_by_size", no_faces)
    cone = SimplicialComplex(range(7), [f + (6,) for f in RP2_FACETS])
    for p in (0, 2):
        assert reduced_homology_ranks(cone, p) == [0, 0, 0, 0, 0]


def test_projective_plane_ideal_betti_depends_on_characteristic():
    ideal = stanley_reisner_ideal(SimplicialComplex(range(6), RP2_FACETS))
    assert len(ideal.gens) == 10  # the triangles that are not facets
    nonfaces = minimal_nonfaces(6, simplex_faces(range(6), RP2_FACETS))
    sigmas = list(range(1, 1 << 6))
    expected = {p: betti_taylor_oracle(ideal, p).entries for p in (0, 2)}
    assert expected[0] != expected[2]
    # calls in a row: a core memo leaking from one call into the next would
    # answer one characteristic with the other's ranks
    for p in (0, 2, 0):
        assert _kernel.hochster_betti(6, nonfaces, sigmas, p) == expected[p]


def test_hochster_one_generator_of_degree_12():
    # at sigma = the generator the induced subcomplex is the boundary of an
    # 11-simplex (4,095 faces, none free); its dual link is {empty face}
    ideal = ideal_from_supports(["x%d" % i for i in range(13)], [range(12)])
    for p in (0, 2):
        assert betti_hochster(ideal, p).entries == {(0, 12): 1}
