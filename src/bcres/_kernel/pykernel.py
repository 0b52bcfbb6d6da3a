"""Pure-Python exact linear-algebra kernel.

The hot kernels of bcres: exact integer matrix rank
(fraction-free Bareiss elimination), rank over GF(p), reduced simplicial
homology ranks from bitmask face lists, and the Hochster summation over
vertex subsets.
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

    Elimination prefers unit pivots with a Markowitz-style fill estimate,
    which keeps all arithmetic in the integers; if no unit entry remains
    (impossible over GF(p) after rescaling) the leftover core is handed to
    dense fraction-free elimination.
    """
    rows = {}
    cols = {}
    for (r, c), v in entries.items():
        if characteristic:
            v %= characteristic
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, set()).add(r)
    rank = 0
    while rows:
        best = None
        best_score = None
        for r, row in rows.items():
            rlen = len(row) - 1
            for c, v in row.items():
                if characteristic == 0 and v != 1 and v != -1:
                    continue
                score = rlen * (len(cols[c]) - 1)
                if best_score is None or score < best_score:
                    best = (r, c)
                    best_score = score
                    if score == 0:
                        break
            if best_score == 0:
                break
        if best is None:
            # no unit pivot left: dense fraction-free pass on the remaining core
            live_rows = sorted(rows)
            live_cols = sorted({c for row in rows.values() for c in row})
            cix = {c: i for i, c in enumerate(live_cols)}
            dense = [[0] * len(live_cols) for _ in live_rows]
            for i, r in enumerate(live_rows):
                for c, v in rows[r].items():
                    dense[i][cix[c]] = v
            return rank + rank_int(dense)
        r0, c0 = best
        piv_row = rows.pop(r0)
        piv = piv_row[c0]
        if characteristic:
            inv = pow(piv, characteristic - 2, characteristic)
        else:
            inv = piv  # piv is +-1
        for c in piv_row:
            cols[c].discard(r0)
        for r in list(cols.get(c0, ())):
            row = rows[r]
            f = row[c0] * inv
            if characteristic:
                f %= characteristic
            for c, v in piv_row.items():
                cur = row.get(c, 0) - f * v
                if characteristic:
                    cur %= characteristic
                if cur:
                    row[c] = cur
                    cols.setdefault(c, set()).add(r)
                else:
                    if c in row:
                        del row[c]
                        cols[c].discard(r)
            if not row:
                del rows[r]
        cols.pop(c0, None)
        rank += 1
    return rank


DENSE_BOUNDARY_LIMIT = 64  # side length above which the sparse path takes over


def _boundary_rank(lower, upper, characteristic):
    """Rank of the simplicial boundary map from faces `upper` to faces `lower` (bitmasks)."""
    if not lower or not upper:
        return 0
    index = {f: i for i, f in enumerate(lower)}
    if len(lower) > DENSE_BOUNDARY_LIMIT or len(upper) > DENSE_BOUNDARY_LIMIT:
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
    ncols = len(upper)
    rows = [[0] * ncols for _ in lower]
    for col, f in enumerate(upper):
        sign = 1
        rest = f
        while rest:
            low = rest & (-rest)
            rows[index[f ^ low]][col] = sign
            sign = -sign
            rest ^= low
    if characteristic:
        return rank_mod_p(rows, characteristic)
    return rank_int(rows)


def _collapse(faces_by_size):
    """Remove free face pairs (elementary collapses); homotopy type is preserved.

    A face f with exactly one one-level-up coface g, where g itself has
    none, is collapsed together with g.  The surviving face sets stay
    closed under taking subsets, so boundary ranks on the remainder give
    the reduced homology of the original complex.
    """
    top = len(faces_by_size)
    present = [set(level) for level in faces_by_size]
    counts = [dict.fromkeys(level, 0) for level in faces_by_size]
    nbits = 0
    for level in faces_by_size:
        for f in level:
            nbits = max(nbits, f.bit_length())
    for c in range(1, top):
        for g in present[c]:
            rest = g
            while rest:
                low = rest & (-rest)
                counts[c - 1][g ^ low] += 1
                rest ^= low

    def unique_coface(f, c):
        if c + 1 >= top:
            return None
        for b in range(nbits):
            bit = 1 << b
            if not f & bit and f | bit in present[c + 1]:
                return f | bit
        return None

    queue = [(c, f) for c in range(top) for f in sorted(present[c]) if counts[c][f] == 1]
    while queue:
        c, f = queue.pop()
        if f not in present[c] or counts[c][f] != 1:
            continue
        g = unique_coface(f, c)
        if g is None or counts[c + 1][g] != 0:
            continue
        present[c].remove(f)
        present[c + 1].remove(g)
        for level, face in ((c, f), (c + 1, g)):
            if level == 0:
                continue
            rest = face
            while rest:
                low = rest & (-rest)
                sub = face ^ low
                if sub in present[level - 1]:
                    counts[level - 1][sub] -= 1
                    if counts[level - 1][sub] == 1:
                        queue.append((level - 1, sub))
                rest ^= low
    return [sorted(level) for level in present]


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

    faces_by_size describes the full complex on `nvars` vertices (bit i =
    variable i); sigmas lists the vertex-subset masks to visit (the caller
    restricts to the lcm lattice, where all Betti multidegrees live).  For
    each sigma the reduced homology of the induced subcomplex in dimension
    |sigma| - i - 2 contributes to beta_{i, |sigma|}.
    """
    betti = {}
    top = len(faces_by_size)
    for sigma in sigmas:
        size = bin(sigma).count("1")
        if size == 0:
            continue
        if size == 1:
            # a single vertex reaches i = 0 only as a ghost (degree-1 generator)
            if faces_by_size[0] and (top <= 1 or sigma not in faces_by_size[1]):
                betti[(0, 1)] = betti.get((0, 1), 0) + 1
            continue
        induced = []
        for c in range(min(size + 1, top)):
            induced.append([f for f in faces_by_size[c] if f & ~sigma == 0])
        while induced and not induced[-1]:
            induced.pop()
        if not induced:
            continue
        hr = homology_ranks(induced, characteristic)
        for c, rk in enumerate(hr):
            if rk:
                i = size - c - 1
                if i >= 0:
                    key = (i, size)
                    betti[key] = betti.get(key, 0) + rk
    return betti
