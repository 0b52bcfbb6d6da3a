"""Deterministic corpus of small simple loopless matroids for sweep checks:
uniform matroids and their sums, cycle matroids of all small connected
graphs, and seeded random rational linear matroids.
"""

import random
from itertools import combinations

from .matroid import direct_sum, graphic_matroid, linear_matroid, uniform_matroid
from .util import bits, connected_unions

MAX_GROUND = 8
GRAPHIC_CAP = 160
RANDOM_LINEAR_COUNT = 25


def uniform_family():
    out = []
    for n in range(1, MAX_GROUND + 1):
        for p in range(2, n + 1):
            out.append(("U_%d_%d" % (p, n), uniform_matroid(p, n)))
    return out


def uniform_sum_family():
    out = []
    # uniform plus free: the shape the linearity theorem characterizes
    for s in range(2, MAX_GROUND):
        for m in range(s + 1, MAX_GROUND):
            for f in range(1, MAX_GROUND - m + 1):
                out.append(
                    (
                        "U_%d_%d+U_%d_%d" % (s, m, f, f),
                        direct_sum([uniform_matroid(s, m), uniform_matroid(f, f)]),
                    )
                )
    # sums of two non-free uniforms, including mixed-degree rows
    pairs = []
    for a in range(2, MAX_GROUND):
        for b in range(a + 1, MAX_GROUND + 1):
            pairs.append((a, b))
    for (a, b) in pairs:
        for (c, d) in pairs:
            if (a, b) <= (c, d) and b + d <= MAX_GROUND:
                out.append(
                    (
                        "U_%d_%d+U_%d_%d" % (a, b, c, d),
                        direct_sum([uniform_matroid(a, b), uniform_matroid(c, d)]),
                    )
                )
    return out


def connected_graphs(nverts):
    """All connected labeled simple graphs on nverts vertices with at most MAX_GROUND edges:
    the edges' vertex masks join into one union, which covers every vertex."""
    all_edges = list(combinations(range(1, nverts + 1), 2))
    every = sum(1 << v for v in range(1, nverts + 1))
    out = []
    for mask in range(1, 1 << len(all_edges)):
        if not nverts - 1 <= mask.bit_count() <= MAX_GROUND:
            continue
        edges = [all_edges[i] for i in bits(mask)]
        if connected_unions([1 << u | 1 << v for u, v in edges]) == [every]:
            out.append(edges)
    out.sort(key=lambda es: (len(es), es))
    return out


def graphic_family():
    out = []
    for nverts in (3, 4):
        for edges in connected_graphs(nverts):
            out.append(("G%d_%s" % (nverts, _edge_tag(edges)), graphic_matroid(edges)))
    five = connected_graphs(5)
    room = max(GRAPHIC_CAP - len(out), 0)
    if room and five:
        stride = max(len(five) // room, 1)
        for edges in five[::stride][:room]:
            out.append(("G5_%s" % _edge_tag(edges), graphic_matroid(edges)))
    return out


def _edge_tag(edges):
    return "-".join("%d%d" % (u, v) for u, v in edges)


def random_linear_family(seed=0):
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < RANDOM_LINEAR_COUNT and attempts < RANDOM_LINEAR_COUNT * 40:
        attempts += 1
        r = rng.randint(2, 4)
        n = rng.randint(r + 1, MAX_GROUND)
        cols = [tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(n)]
        if any(all(v == 0 for v in col) for col in cols):
            continue
        m = linear_matroid(cols)
        if not m.is_simple or m.rank < 2:
            continue
        out.append(("L%d_%d_%d" % (r, n, attempts), m))
    return out


def standard_corpus(seed=0):
    """The full deterministic corpus: (name, matroid) pairs, all simple and loopless."""
    corpus = []
    corpus.extend(uniform_family())
    corpus.extend(uniform_sum_family())
    corpus.extend(graphic_family())
    corpus.extend(random_linear_family(seed))
    return [(name, m) for name, m in corpus if m.is_simple and m.is_loopless]
