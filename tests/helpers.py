"""Shared instance builders and reference implementations for the test suite."""

import math
import random
from collections import deque

from boundedchain import build_slice
from boundedchain.decomposition import TreeDecomposition
from boundedchain.generators import random_boundary, random_slice
from boundedchain.gf2 import Gf2System, indices_from_mask


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


def reference_min_coface_pivot(mask, cofdeg):
    """The least (coface degree, index) over the faces of a nonempty state,
    found by walking every face: the reference for the degree-mask pivot."""
    best = None
    m = mask
    while m:
        low = m & -m
        i = low.bit_length() - 1
        key = (cofdeg[i], i)
        if best is None or key < best:
            best = key
        m ^= low
    return best[1]


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


def canonical_optimum(matrix, target_rows):
    """The least (weight, column mask) over every solution of A x = u, as
    (weight, column set), or None when there is none. Enumerates one solution
    plus the kernel span, so it is exact for any weights: the reference for
    the treewidth DP's witness."""
    system = Gf2System(matrix.col_masks)
    x0 = system.solve(matrix.target_mask(target_rows))
    if x0 is None:
        return None
    best = None
    for pick in range(1 << len(system.kernel)):
        x = x0
        for i, vec in enumerate(system.kernel):
            if pick >> i & 1:
                x ^= vec
        cand = (matrix.weight_of(indices_from_mask(x)), x)
        if best is None or cand < best:
            best = cand
    return best[0], frozenset(indices_from_mask(best[1]))


def rerooted(td, root):
    """The same tree decomposition hung from another node."""
    nbrs = [set() for _ in range(td.n_nodes)]
    for t, kids in enumerate(td.children):
        for c in kids:
            nbrs[t].add(c)
            nbrs[c].add(t)
    children = [[] for _ in range(td.n_nodes)]
    seen = {root}
    queue = deque([root])
    while queue:
        t = queue.popleft()
        for c in sorted(nbrs[t] - seen):
            seen.add(c)
            children[t].append(c)
            queue.append(c)
    return TreeDecomposition(td.bags, children, root)



def assert_join_pairs_capped(td, nrows, join_bags):
    """A node with k children does k - 1 joins in its own bag, and each pairs
    at most 2^|bag cols| * 4^|bag rows| entries. ``join_bags`` is the (node,
    pairs) list of a ``detailed_stats`` solve on ``td``; returns its length."""
    assert sorted(t for t, _ in join_bags) == [
        t for t in range(td.n_nodes) if len(td.children[t]) > 1
    ]
    for t, pairs in join_bags:
        bag = td.bags[t]
        ncols = sum(v >= nrows for v in bag)
        cap = (len(td.children[t]) - 1) * 2**ncols * 4 ** (len(bag) - ncols)
        assert pairs <= cap, (t, pairs, cap)
    return len(join_bags)
