"""Pure-Python exact linear-algebra kernel.

The hot kernels of bcres: dense exact elimination, reduced simplicial
homology ranks of a complex given by its facet bitmasks, and the Hochster
summation over the lcm lattice.

`echelon_residue` is the one dense elimination step: it reduces one
integer vector against rows in echelon form, fraction-free with a gcd
division over the rationals, and against rows of pivot 1 over GF(p).
`rank_int` and `rank_mod_p` fold the rows of a matrix through it; a row
that leaves a residue joins the basis, and the rank is the basis size.
`linalg` folds columns through the same step.

`homology_ranks` is the one homology entry.  It strongly collapses the
facets (Barmak-Minian) before listing any face, removes coreduction pairs,
and ranks every remaining boundary matrix with `rank_sparse`: pivot on the
first live row holding a usable entry (any nonzero over GF(p), +-1 in
characteristic 0), at that row's column with the fewest live entries.
Characteristic 0 falls back to `rank_int` only on a core with no unit entry.

The Hochster summation takes the dual form of the formula: for each vertex
subset sigma it ranks the link of sigma's complement in the Alexander dual,
never the induced subcomplex.  The link goes to `homology_ranks` as its
facets, one per minimal nonface inside sigma; the minimal nonfaces are the
caller's generator supports, grouped by size, so no 2^n table is built.
Collapsed cores repeat across the sigmas of one call once their vertices
are renumbered, so `hochster_betti` hands `homology_ranks` a dict that
lives for that call only: each distinct core, keyed by its facets
renumbered to 0..v-1 in vertex order, is listed, coreduced and ranked
once.  Nothing is kept between calls.
"""

from math import gcd

from ..util import check_enumeration, faces_by_size

BACKEND = "python"


def echelon_residue(vec, basis, characteristic=0):
    """(pivot, row) of an integer vector reduced against echelon rows (pivot, row), or None.

    None means the vector lies in the span of the rows.  Over the
    rationals each step is fraction-free and the residue is divided by the
    gcd of its entries.  Over GF(p) the stored rows have pivot 1 and zeros
    left of it, so a step subtracts a multiple of the row from the entries
    from the pivot on, and the residue is scaled to pivot 1.
    """
    p = characteristic
    if p:
        vec = [a % p for a in vec]
    for piv, row in basis:
        g = vec[piv]
        if g:
            if p:
                vec[piv:] = [(a - g * b) % p for a, b in zip(vec[piv:], row[piv:])]
            else:
                f = row[piv]
                vec = [f * a - g * b for a, b in zip(vec, row)]
    lead = next((i for i, a in enumerate(vec) if a), None)
    if lead is None:
        return None
    if p:
        inv = pow(vec[lead], p - 2, p)
        return lead, [a * inv % p for a in vec]
    g = gcd(*vec)
    return lead, [a // g for a in vec]


def _fold_rank(rows, characteristic):
    """Rank as the size of the basis the rows fold into, one echelon_residue per row.

    A basis with one row per column spans every later row, so the fold
    stops there: linear_matroid ranks n columns of height r as n rows.
    """
    basis = []
    for row in rows:
        residue = echelon_residue(row, basis, characteristic)
        if residue:
            basis.append(residue)
            if len(basis) == len(row):
                break
    return len(basis)


def rank_int(rows):
    """Rank over the rationals of an integer matrix (list of equal-length rows)."""
    return _fold_rank(rows, 0)


def rank_mod_p(rows, p):
    """Rank of an integer matrix over GF(p), p prime."""
    return _fold_rank(rows, p)


def rank_sparse(entries, characteristic):
    """Exact rank of a sparse integer matrix given as {(row, col): value}.

    Pivot rule: each step pivots on the first live row holding a usable
    entry (any nonzero over GF(p), +-1 in characteristic 0), at that row's
    column with the fewest live entries.  Over GF(p) that is the first live
    row, so choosing a pivot costs one row scan.
    Elimination by unit pivots keeps all arithmetic in the integers; if no
    unit entry remains (impossible over GF(p)) the leftover core is handed
    to the dense rank_int.
    """
    p = characteristic
    rows = {}
    cols = {}
    for (r, c), v in entries.items():
        if p:
            v %= p
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)
    rank = 0
    while rows:
        r0 = None
        for r, row in rows.items():
            usable = row if p else [c for c, v in row.items() if v == 1 or v == -1]
            if usable:
                r0, c0 = r, min(usable, key=lambda c: len(cols[c]))
                break
        if r0 is None:
            # no unit pivot left: the dense fold ranks the remaining core
            live_rows = sorted(rows)
            live_cols = sorted({c for row in rows.values() for c in row})
            cix = {c: i for i, c in enumerate(live_cols)}
            dense = [[0] * len(live_cols) for _ in live_rows]
            for i, r in enumerate(live_rows):
                for c, v in rows[r].items():
                    dense[i][cix[c]] = v
            return rank + rank_int(dense)
        piv_row = rows.pop(r0)
        piv = piv_row[c0]
        inv = pow(piv, p - 2, p) if p else piv  # in characteristic 0, piv is +-1
        for c in piv_row:
            cols[c].discard(r0)
        for r in cols.pop(c0):
            row = rows[r]
            f = row.pop(c0) * inv
            if p:
                f %= p
            for c, v in piv_row.items():
                if c == c0:
                    continue
                cur = row.get(c, 0) - f * v
                if p:
                    cur %= p
                if cur:
                    row[c] = cur
                    cols[c].add(r)
                elif c in row:
                    del row[c]
                    cols[c].discard(r)
            if not row:
                del rows[r]
        rank += 1
    return rank


def _boundary_rank(lower, upper, characteristic):
    """Rank of the simplicial boundary map from faces `upper` to faces `lower` (bitmasks).

    Boundary faces missing from `lower` are skipped: after coreductions the
    boundary of what is left is the original boundary restricted to it.
    """
    if not lower or not upper:
        return 0
    index = {f: i for i, f in enumerate(lower)}
    entries = {}
    for col, f in enumerate(upper):
        sign = 1
        rest = f
        while rest:
            low = rest & (-rest)
            row = index.get(f ^ low)
            if row is not None:
                entries[(row, col)] = sign
            sign = -sign
            rest ^= low
    return rank_sparse(entries, characteristic) if entries else 0


def _coreduce(levels):
    """Remove coreduction pairs (Mrozek-Batko); homology is kept in every characteristic.

    A face g whose boundary holds exactly one live face f is removed
    together with f.  Each live face maps to [count, xor] of its live
    boundary faces; when the count is 1 the XOR of their masks is f itself.
    The empty face is the boundary of every vertex, so the first pair takes
    it with a vertex, as the augmented complex of reduced homology asks.
    The pair has incidence +-1 and nothing else of g's boundary is live, so
    the boundary of what is left is the original boundary restricted to it.
    """
    top = len(levels)
    vertices = levels[1] if top > 1 else []
    verts = 0
    for v in vertices:
        verts |= v
    # the c faces g ^ b of a face g with c vertices XOR to g for even c, to 0 for odd c
    live = [{g: [c, 0 if c & 1 else g] for g in level} for c, level in enumerate(levels)]

    queue = [(1, v) for v in vertices]
    while queue:
        c, g = queue.pop()
        cell = live[c].get(g)
        if cell is None or cell[0] != 1:
            continue
        f = cell[1]
        del live[c][g]
        del live[c - 1][f]
        for level, face in ((c - 1, f), (c, g)):
            if level + 1 == top:
                continue
            above = live[level + 1]
            rest = verts & ~face
            while rest:
                low = rest & (-rest)
                cof = above.get(face | low)
                if cof is not None:
                    cof[0] -= 1
                    cof[1] ^= face
                    if cof[0] == 1:
                        queue.append((level + 1, face | low))
                rest ^= low
    return [list(level) for level in live]


def _strong_core(facets):
    """Facets left once no vertex is dominated (a strong collapse, Barmak-Minian).

    A vertex v is dominated when the facets containing v share another
    vertex u; deleting v keeps the strong homotopy type, and u keeps at
    least one vertex alive.  Facets are pairwise incomparable, so a shrunk
    facet F - v can only lie inside a facet G without v: if v is in G and
    F - v is inside G, then F is inside G.  Every F - v holds u, the lowest
    vertex of the shared intersection besides v, so only the facets without
    v that hold u are tested.  The scan of v stops once the running
    intersection is v alone: intersecting further cannot bring a vertex back.
    """
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
                    if common == v:
                        break
            if common != v:
                other = common ^ v
                u = other & (-other)
                keep = [g for g in facets if not g & v]
                through = [g for g in keep if g & u]
                for f in facets:
                    if f & v:
                        f ^= v
                        for g in through:
                            if not f & ~g:
                                break
                        else:
                            keep.append(f)
                facets = keep
                verts ^= v
                deleted = True
    return facets


def _core_key(core):
    """The core's facets renumbered to vertices 0..v-1 in vertex order, as a sorted tuple."""
    verts = 0
    for f in core:
        verts |= f
    if verts & (verts + 1):  # a gap below the top vertex
        new = {}  # old vertex bit -> new vertex bit
        bit = 1
        rest = verts
        while rest:
            low = rest & (-rest)
            new[low] = bit
            bit <<= 1
            rest ^= low
        renumbered = []
        for f in core:
            g = 0
            while f:
                low = f & (-f)
                g |= new[low]
                f ^= low
            renumbered.append(g)
        core = renumbered
    return tuple(sorted(core))


def _core_ranks(core, characteristic):
    """Reduced homology ranks of a core of two or more facets, up to its largest face.

    Before any face is listed, the faces the core can have, at most
    2^(vertices) and at most the sum of 2^|F| over its facets, are checked
    against the enumeration limit (BoundError past it).
    """
    verts = 0
    for f in core:
        verts |= f
    bound = min(1 << verts.bit_count(), sum(1 << f.bit_count() for f in core))
    check_enumeration("a collapsed complex", "possible faces", bound)
    faces = _coreduce(faces_by_size(core))
    ranks = [0] * (len(faces) + 1)  # ranks[c] = rank of boundary C_c -> C_{c-1}
    for c in range(1, len(faces)):
        ranks[c] = _boundary_rank(faces[c - 1], faces[c], characteristic)
    return [len(faces[c]) - ranks[c] - ranks[c + 1] for c in range(len(faces))]


def homology_ranks(facets, characteristic, memo=None):
    """Reduced homology ranks of the complex whose facets are an antichain of bitmasks.

    Entry c is the rank in dimension c - 1, for c up to the largest facet
    size; [] (void) gives [], [0] (the empty complex) gives [1].  One facet
    left by the strong collapse is a simplex, acyclic unless it is empty;
    otherwise the core's faces are listed and coreduced, and boundary
    matrices are built only for what is left.  Dimensions lost to the
    collapse have rank 0.  A core that could have more faces than
    util.ENUMERATION_LIMIT raises BoundError before any face is listed.

    memo, a dict owned by the caller for calls in one characteristic,
    holds the ranks of the cores already seen.  A core of two or more
    facets is looked up under its facets renumbered to vertices 0..v-1 in
    vertex order, as a sorted tuple: homology does not depend on vertex
    names.  The padding to the largest facet is applied after the lookup.
    """
    if not facets:
        return []
    top = max(f.bit_count() for f in facets) + 1
    core = _strong_core(facets)
    if len(core) == 1:
        return [0 if core[0] else 1] + [0] * (top - 1)
    if memo is None:
        out = _core_ranks(core, characteristic)
    else:
        key = _core_key(core)
        out = memo.get(key)
        if out is None:
            out = memo[key] = _core_ranks(core, characteristic)
    return out + [0] * (top - len(out))


def hochster_betti(nvars, nonfaces_by_size, sigmas, characteristic):
    """Graded Betti numbers of a squarefree monomial ideal from its minimal nonfaces.

    nonfaces_by_size[k] lists the minimal nonfaces with k vertices (bit i =
    variable i): the generator supports of a minimal generating set.  sigmas
    lists the vertex-subset masks to visit (the caller restricts to the lcm
    lattice, where all Betti multidegrees live).
    nvars is unread; it stays first to keep the argument layout callers use.
    Each sigma is ranked by the dual Hochster formula (Miller-Sturmfels):
    the link L = {sigma - N : N a nonface inside sigma} of sigma's
    complement in the Alexander dual has reduced homology in dimension
    i - 1 equal to beta_{i, sigma}.  The facets of L are sigma - N for the
    minimal nonfaces N inside sigma, which can only sit on the levels up to
    |sigma|, and go to homology_ranks with a memo of the cores ranked so
    far in this call.  A sigma that is a face holds no nonface: its link is
    void and contributes nothing.
    """
    betti = {}
    memo = {}
    for sigma in sigmas:
        size = sigma.bit_count()
        link = [sigma ^ n for level in nonfaces_by_size[: size + 1] for n in level if not n & ~sigma]
        for i, rk in enumerate(homology_ranks(link, characteristic, memo)):
            if rk:
                betti[(i, size)] = betti.get((i, size), 0) + rk
    return betti
