"""Shared instance builders and reference implementations for the test suite."""

import math
import random

from boundedchain import build_slice
from boundedchain.decomposition import TreeDecomposition
from boundedchain.generators import random_boundary, random_slice


def octahedron_tops():
    return [
        (0, 1, 2),
        (0, 1, 4),
        (0, 2, 3),
        (0, 3, 4),
        (1, 2, 5),
        (1, 4, 5),
        (2, 3, 5),
        (3, 4, 5),
    ]


def octahedron_slice(weights=None):
    return build_slice(octahedron_tops(), weights)


def punctured_octahedron():
    """Octahedron with (0,1,2) removed; its rim is kept as extra faces."""
    tops = [t for t in octahedron_tops() if t != (0, 1, 2)]
    rim = [(0, 1), (0, 2), (1, 2)]
    cslice = build_slice(tops, extra_faces=rim)
    return cslice, cslice.chain_from_faces(rim)


def random_problem(seed, max_top=10, dim=2, weights=None, max_vertices=9):
    """Seeded random slice plus a boundary that is always realizable."""
    rng = random.Random(seed)
    lo = dim + 1
    n_v = rng.randint(lo + 1, max_vertices)
    cap = math.comb(n_v, dim + 1)
    n_top = rng.randint(1, min(max_top, cap))
    if weights is None:
        weights = rng.choice(["unit", "random"])
    cslice = random_slice(n_top, n_v, dim=dim, seed=seed, weights=weights)
    boundary = random_boundary(cslice, seed=seed)
    return cslice, boundary


def reference_greedy_decomposition(graph, heuristic):
    """Rescore-everything elimination, the reference for greedy_decomposition.

    Every step takes min over all live vertices of (score, id) with the
    score computed from scratch, so it is quadratic but obviously right.
    """
    n = graph.n
    if n == 0:
        return TreeDecomposition([frozenset()], [()], 0)
    adj = [set(s) for s in graph.adj]
    alive = set(range(n))

    def fill(v):
        nbrs = adj[v]
        return sum(len(nbrs - adj[u]) - 1 for u in nbrs) // 2

    if heuristic == "min-degree":
        key = lambda v: (len(adj[v]), v)
    else:
        key = lambda v: (fill(v), v)
    bags = []
    elim_pos = {}
    while alive:
        v = min(alive, key=key)
        nbrs = sorted(adj[v])
        bags.append(frozenset([v] + nbrs))
        elim_pos[v] = len(bags) - 1
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                adj[a].add(b)
                adj[b].add(a)
        for a in nbrs:
            adj[a].discard(v)
        adj[v].clear()
        alive.remove(v)

    order = sorted(elim_pos, key=elim_pos.get)
    children = [[] for _ in bags]
    for j, bag in enumerate(bags[:-1]):
        rest = [elim_pos[u] for u in bag if u != order[j]]
        parent = min(rest) if rest else j + 1
        children[parent].append(j)
    return TreeDecomposition(bags, children, len(bags) - 1)
