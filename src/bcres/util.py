"""Shared combinatorics helpers: binomials, set families, polynomial arithmetic."""


def binom(a, b):
    """Combinatorial binomial: 1 for b == 0 (any a, including negative), else 0 outside 0 <= b <= a."""
    if b == 0:
        return 1
    if b < 0 or a < b:
        return 0
    num = 1
    for i in range(b):
        num = num * (a - i) // (i + 1)
    return num


def minimal_masks(masks):
    """Inclusion-minimal bitmasks of a family, deduplicated, fewest bits first."""
    keep = []
    for m in sorted(set(masks), key=int.bit_count):
        if not any(k & m == k for k in keep):
            keep.append(m)
    return keep


def _set_key(labels):
    return (len(labels), tuple(sorted(labels, key=repr)))


def sorted_sets(sets):
    """Canonical deterministic ordering for a family of element sets."""
    return tuple(sorted(sets, key=_set_key))


def sorted_masks(labels, masks):
    """Bitmasks over label positions, in the sorted_sets order of their label sets."""
    return sorted(masks, key=lambda m: _set_key([labels[i] for i in bits(m)]))


def minimal_transversals(masks):
    """Inclusion-minimal bitmasks meeting every bitmask of the family.

    Berge expansion: fold the family in, extending each partial transversal
    that misses the new mask by each of its bits and re-minimalizing.
    Exponential in the worst case; inputs here are small.
    """
    trans = [0]
    for s in masks:
        new = set()
        for t in trans:
            if t & s:
                new.add(t)
            else:
                new.update(t | 1 << i for i in bits(s))
        trans = minimal_masks(new)
    return trans


def nonface_sieve(nvars, masks):
    """One byte per vertex mask: 1 if the mask contains one of the given
    masks (a nonface, when they are generator supports), else 0.

    The masks are marked, then closed upwards one variable at a time.
    With the bytes packed into one integer, a single shift moves every mask
    without variable i onto the mask with it.
    """
    size = 1 << nvars
    marks = bytearray(size)
    for g in masks:
        marks[g] = 1
    sieve = int.from_bytes(marks, "little")
    for i in range(nvars):
        step = 1 << i
        without_i = int.from_bytes((b"\x01" * step + b"\x00" * step) * (size >> (i + 1)), "little")
        sieve |= (sieve & without_i) << 8 * step
    return sieve.to_bytes(size, "little")


def bits(mask):
    """Indices of the set bits of a mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# -- dense integer polynomials in one variable, lowest degree first ------------

def poly_trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return list(p)


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly_trim(out)


def poly_pow(p, k):
    out = [1]
    for _ in range(k):
        out = poly_mul(out, p)
    return out


def poly_divmod(p, q):
    """Exact polynomial division with remainder over the integers (monic-up-to-sign divisors only)."""
    p = list(p)
    q = poly_trim(q)
    lead = q[-1]
    if abs(lead) != 1:
        raise ValueError("divisor must have unit leading coefficient")
    dq = len(q) - 1
    quot = [0] * max(1, len(p) - dq)
    while len(poly_trim(p)) - 1 >= dq and any(p):
        p = poly_trim(p)
        if len(p) - 1 < dq:
            break
        c = p[-1] // lead
        k = len(p) - 1 - dq
        quot[k] = c
        for i, b in enumerate(q):
            p[k + i] -= c * b
    return poly_trim(quot), poly_trim(p)


def poly_shift_basis(p):
    """Rewrite sum(p[i] * t^i) as coefficients in the (1-t)-power basis.

    Returns c with sum(c[i] * (1-t)^i) == p(t).
    """
    # substitute t = 1 - u and read off coefficients of u
    out = [0] * max(1, len(p))
    pow_u = [1]  # (1-u)^i
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(pow_u):
                out[j] += a * b
        pow_u = poly_mul(pow_u, [1, -1])
    return poly_trim(out)
