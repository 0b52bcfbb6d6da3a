"""Pure-Python exact linear-algebra kernel.

The hot kernels of bcres: exact integer matrix rank
(fraction-free Bareiss elimination), rank over GF(p), reduced simplicial
homology ranks from bitmask face lists, and the Hochster summation over
the lcm lattice.

The Hochster summation takes the dual form of the formula: for each vertex
subset sigma it ranks the link of sigma's complement in the Alexander dual,
one cell per nonface inside sigma, never the induced subcomplex.

Homology collapses free faces first and ranks every remaining boundary
matrix with `rank_sparse`.  Its pivot rule: a shortest live row holding a
usable entry (any nonzero over GF(p), +-1 in characteristic 0), at that
row's column with the fewest live entries.  Characteristic 0 falls back to
Bareiss only on a core with no unit entry left.
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
    """Rank of the simplicial boundary map from faces `upper` to faces `lower` (bitmasks)."""
    if not lower or not upper:
        return 0
    index = {f: i for i, f in enumerate(lower)}
    entries = {}
    for col, f in enumerate(upper):
        sign = 1
        rest = f
        while rest:
            low = rest & (-rest)
            entries[(index[f ^ low], col)] = sign
            sign = -sign
            rest ^= low
    return rank_sparse(entries, characteristic)


def _collapse(faces_by_size):
    """Remove free face pairs (elementary collapses); homotopy type is preserved.

    A face f with exactly one one-level-up coface g, where g itself has
    none, is collapsed together with g.  Each live face maps to [count, xor]
    of its live one-level-up cofaces; when the count is 1 the XOR of their
    masks is the coface itself.  The surviving face sets stay closed under
    taking subsets, so boundary ranks on the remainder give the reduced
    homology of the original complex.
    """
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


def homology_ranks(faces_by_size, characteristic):
    """Reduced homology ranks of a simplicial complex given by bitmask face lists.

    faces_by_size[c] lists the faces with c vertices (c = 0 holds the empty
    face when the complex is non-void).  Entry c of the result is the rank
    of reduced homology in dimension c - 1.  Free faces are collapsed away
    first; matrices are only built for the core.
    """
    top = len(faces_by_size)
    if top == 0:
        return []
    core = _collapse(faces_by_size)
    ranks = [0] * (top + 1)  # ranks[c] = rank of boundary C_c -> C_{c-1}
    for c in range(1, top):
        ranks[c] = _boundary_rank(core[c - 1], core[c], characteristic)
    out = []
    for c in range(top):
        out.append(len(core[c]) - ranks[c] - ranks[c + 1])
    return out


def hochster_betti(nvars, faces_by_size, sigmas, characteristic):
    """Graded Betti numbers of a squarefree monomial ideal from its Stanley-Reisner complex.

    faces_by_size describes the full, non-void complex on `nvars` vertices
    (bit i = variable i); sigmas lists the vertex-subset masks to visit (the
    caller restricts to the lcm lattice, where all Betti multidegrees live).
    Each sigma is ranked by the dual Hochster formula (Miller-Sturmfels):
    the link L = {sigma - N : N a nonface inside sigma} of sigma's
    complement in the Alexander dual has reduced homology in dimension
    i - 1 equal to beta_{i, sigma}.  L has one cell per nonface inside
    sigma, and a sigma that is a face contributes nothing.
    """
    faces = set().union(*faces_by_size)
    betti = {}
    for sigma in sigmas:
        if sigma in faces:
            continue  # the induced subcomplex is a simplex
        size = sigma.bit_count()
        link = [[] for _ in range(size)]
        sub = sigma
        while sub:  # the empty set is a face, so it never yields a cell
            if sub not in faces:
                link[size - sub.bit_count()].append(sigma ^ sub)
            sub = (sub - 1) & sigma
        for i, rk in enumerate(homology_ranks(link, characteristic)):
            if rk:
                betti[(i, size)] = betti.get((i, size), 0) + rk
    return betti
