"""Pure-Python exact linear-algebra kernel.

The hot kernels of bcres: exact integer matrix rank
(fraction-free Bareiss elimination), rank over GF(p), reduced simplicial
homology ranks from bitmask face lists, and the Hochster summation over
the lcm lattice.

The Hochster summation takes the dual form of the formula: for each vertex
subset sigma it ranks the link of sigma's complement in the Alexander dual,
never the induced subcomplex.  The link is built as its facets, one per
minimal nonface inside sigma, and strongly collapsed (dominated vertices
deleted) before any face is listed.

Homology removes coreduction pairs first and ranks every remaining
boundary matrix with `rank_sparse`.  Its pivot rule: a shortest live row
holding a usable entry (any nonzero over GF(p), +-1 in characteristic 0),
at that row's column with the fewest live entries.  Characteristic 0 falls
back to Bareiss only on a core with no unit entry left.
"""

BACKEND = "python"


def rank_int(rows):
    """Rank over the rationals of an integer matrix (list of equal-length rows).

    Fraction-free (Bareiss) elimination: every intermediate value is an
    exact minor of the input, so arbitrary-size integers are required in
    the worst case and Python ints are used throughout.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    prev = 1
    pr = 0
    for pc in range(nc):
        piv = -1
        for i in range(pr, nr):
            if m[i][pc]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != pr:
            m[pr], m[piv] = m[piv], m[pr]
        pivot = m[pr][pc]
        for i in range(pr + 1, nr):
            mi = m[i]
            mp = m[pr]
            f = mi[pc]
            if f:
                for j in range(pc, nc):
                    mi[j] = (mi[j] * pivot - f * mp[j]) // prev
            else:
                for j in range(pc, nc):
                    mi[j] = (mi[j] * pivot) // prev
        prev = pivot
        rank += 1
        pr += 1
        if pr == nr:
            break
    return rank


def rank_mod_p(rows, p):
    """Rank of an integer matrix over GF(p), p prime."""
    m = [[v % p for v in r] for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    pr = 0
    for pc in range(nc):
        piv = -1
        for i in range(pr, nr):
            if m[i][pc]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != pr:
            m[pr], m[piv] = m[piv], m[pr]
        inv = pow(m[pr][pc], p - 2, p)
        mp = m[pr]
        for j in range(pc, nc):
            mp[j] = mp[j] * inv % p
        for i in range(pr + 1, nr):
            f = m[i][pc]
            if f:
                mi = m[i]
                for j in range(pc, nc):
                    mi[j] = (mi[j] - f * mp[j]) % p
        rank += 1
        pr += 1
        if pr == nr:
            break
    return rank


def rank_sparse(entries, characteristic):
    """Exact rank of a sparse integer matrix given as {(row, col): value}.

    Pivot rule: live rows sit in buckets by length, and each step pivots on
    a shortest row holding a usable entry (any nonzero over GF(p), +-1 in
    characteristic 0), at that row's column with the fewest live entries.
    Choosing a pivot thus costs one row scan, not a pass over every entry.
    Elimination by unit pivots keeps all arithmetic in the integers; if no
    unit entry remains (impossible over GF(p)) the leftover core is handed
    to dense fraction-free elimination.
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
    buckets = {}
    for r, row in rows.items():
        buckets.setdefault(len(row), set()).add(r)

    def unbucket(r, length):
        bucket = buckets[length]
        bucket.discard(r)
        if not bucket:
            del buckets[length]

    rank = 0
    while rows:
        r0 = None
        for length in sorted(buckets):
            for r in buckets[length]:
                usable = rows[r] if p else [c for c, v in rows[r].items() if v == 1 or v == -1]
                if usable:
                    r0, c0 = r, min(usable, key=lambda c: len(cols[c]))
                    break
            if r0 is not None:
                break
        if r0 is None:
            # no unit pivot left: dense fraction-free pass on the remaining core
            live_rows = sorted(rows)
            live_cols = sorted({c for row in rows.values() for c in row})
            cix = {c: i for i, c in enumerate(live_cols)}
            dense = [[0] * len(live_cols) for _ in live_rows]
            for i, r in enumerate(live_rows):
                for c, v in rows[r].items():
                    dense[i][cix[c]] = v
            return rank + rank_int(dense)
        piv_row = rows.pop(r0)
        unbucket(r0, len(piv_row))
        piv = piv_row[c0]
        inv = pow(piv, p - 2, p) if p else piv  # in characteristic 0, piv is +-1
        for c in piv_row:
            cols[c].discard(r0)
        for r in cols.pop(c0):
            row = rows[r]
            unbucket(r, len(row))
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
            if row:
                buckets.setdefault(len(row), set()).add(r)
            else:
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


def _coreduce(faces_by_size):
    """Remove coreduction pairs (Mrozek-Batko); homology is kept in every characteristic.

    A face g whose boundary holds exactly one live face f is removed
    together with f.  Each live face maps to [count, xor] of its live
    boundary faces; when the count is 1 the XOR of their masks is f itself.
    The empty face is the boundary of every vertex, so the first pair takes
    it with a vertex, as the augmented complex of reduced homology asks.
    The pair has incidence +-1 and nothing else of g's boundary is live, so
    the boundary of what is left is the original boundary restricted to it.
    """
    top = len(faces_by_size)
    vertices = faces_by_size[1] if top > 1 else []
    verts = 0
    for v in vertices:
        verts |= v
    # the c faces g ^ b of a face g with c vertices XOR to g for even c, to 0 for odd c
    live = [{g: [c, 0 if c & 1 else g] for g in level} for c, level in enumerate(faces_by_size)]

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


def homology_ranks(faces_by_size, characteristic):
    """Reduced homology ranks of a simplicial complex given by bitmask face lists.

    faces_by_size[c] lists the faces with c vertices (c = 0 holds the empty
    face when the complex is non-void).  Entry c of the result is the rank
    of reduced homology in dimension c - 1.  Coreduction pairs are removed
    first; boundary matrices are only built for what is left.
    """
    top = len(faces_by_size)
    if top == 0:
        return []
    core = _coreduce(faces_by_size)
    ranks = [0] * (top + 1)  # ranks[c] = rank of boundary C_c -> C_{c-1}
    for c in range(1, top):
        ranks[c] = _boundary_rank(core[c - 1], core[c], characteristic)
    return [len(core[c]) - ranks[c] - ranks[c + 1] for c in range(top)]


def _minimal_nonfaces(nvars, faces_by_size):
    """Nonface bytes (one per vertex mask, 1 for a nonface) and the minimal nonfaces.

    A nonface is minimal when no mask one vertex smaller is a nonface.  With
    the bytes packed into one integer, a single shift per variable i moves
    every mask without i onto the mask with it, as util.nonface_sieve does.
    """
    size = 1 << nvars
    marks = bytearray(b"\x01") * size
    for level in faces_by_size:
        for f in level:
            marks[f] = 0
    nonface = int.from_bytes(marks, "little")
    covers_nonface = 0  # masks with a nonface one vertex smaller
    for i in range(nvars):
        step = 1 << i
        without_i = int.from_bytes((b"\x01" * step + b"\x00" * step) * (size >> (i + 1)), "little")
        covers_nonface |= (nonface & without_i) << 8 * step
    minimal_bytes = (nonface & ~covers_nonface).to_bytes(size, "little")
    minimal = []
    at = minimal_bytes.find(1)
    while at >= 0:
        minimal.append(at)
        at = minimal_bytes.find(1, at + 1)
    return marks, minimal


def _strong_core(facets):
    """Facets left once no vertex is dominated (a strong collapse, Barmak-Minian).

    A vertex v is dominated when the facets containing v share another
    vertex u; deleting v keeps the strong homotopy type, and u keeps at
    least one vertex alive.  Facets are pairwise incomparable, so a shrunk
    facet F - v can only lie inside a facet G without v: if v is in G and
    F - v is inside G, then F is inside G.
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
            if common != v:
                keep = [g for g in facets if not g & v]
                shrunk = [f ^ v for f in facets if f & v]
                facets = keep + [f for f in shrunk if not any(not f & ~g for g in keep)]
                verts ^= v
                deleted = True
    return facets


def _faces_of(facets):
    """Bitmask face lists, by size, of the complex with the given facets."""
    faces = set()
    for f in facets:
        sub = f
        while sub:
            faces.add(sub)
            sub = (sub - 1) & f
    levels = [[0]] + [[] for _ in range(max(f.bit_count() for f in facets))]
    for f in faces:
        levels[f.bit_count()].append(f)
    return levels


def hochster_betti(nvars, faces_by_size, sigmas, characteristic):
    """Graded Betti numbers of a squarefree monomial ideal from its Stanley-Reisner complex.

    faces_by_size describes the full, non-void complex on `nvars` vertices
    (bit i = variable i); sigmas lists the vertex-subset masks to visit (the
    caller restricts to the lcm lattice, where all Betti multidegrees live).
    Each sigma is ranked by the dual Hochster formula (Miller-Sturmfels):
    the link L = {sigma - N : N a nonface inside sigma} of sigma's
    complement in the Alexander dual has reduced homology in dimension
    i - 1 equal to beta_{i, sigma}.  The facets of L are sigma - N for the
    minimal nonfaces N inside sigma, found once per call; a sigma that is a
    face contributes nothing.  L is strongly collapsed on its facets: one
    facet left is a simplex, contractible unless it is the empty face
    (L = {empty face}, beta_{0, sigma} = 1); otherwise its faces go to
    homology_ranks.
    """
    nonface, minimal = _minimal_nonfaces(nvars, faces_by_size)
    betti = {}
    for sigma in sigmas:
        if not nonface[sigma]:
            continue  # the induced subcomplex is a simplex
        size = sigma.bit_count()
        facets = _strong_core([sigma ^ n for n in minimal if not n & ~sigma])
        if len(facets) == 1:
            if not facets[0]:
                betti[(0, size)] = betti.get((0, size), 0) + 1
            continue
        for i, rk in enumerate(homology_ranks(_faces_of(facets), characteristic)):
            if rk:
                betti[(i, size)] = betti.get((i, size), 0) + rk
    return betti
