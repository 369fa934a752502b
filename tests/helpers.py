"""Shared instance builders and reference implementations for the test suite.

New randomized answer checks go through ``check_engines`` on problems drawn
from ``problems``: it runs every exact engine against ``canonical_optimum``
and returns how many problems of each dimension reached the kernel, the
search and the DP. Each test asserts its own floor on those counts for
each dimension it draws, because each kernel rule changes which random
problems reach an engine: a rule that solves more of them outright would
otherwise leave an engine untested without a failure.
"""

import math
import random
from collections import Counter, deque, namedtuple
from contextlib import contextmanager
from itertools import combinations

import pytest

from boundedchain import (
    Status,
    boundary_matrix,
    brute_force_mld,
    build_slice,
    dijkstra,
    hasse_graph,
    solve_mbc1,
    solve_mld_dijkstra,
    solve_mld_treewidth,
)
from boundedchain.complexes import Gf2Matrix
from boundedchain.decomposition import TreeDecomposition
from boundedchain.generators import random_boundary, random_slice
from boundedchain.gf2 import Gf2System, indices_from_mask, mask_from_indices
from boundedchain.kernel import backtrack, reduce


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


def reference_slice_tables(top_simplices, weights, extra_faces=()):
    """The (top, weights, faces, faces_of) tables of ``build_slice`` by the
    plain construction, for valid input: sort the tops with their weights,
    take each top's faces by slicing out one vertex, sort the face set, then
    sort each top's face indices."""
    tops = [tuple(t) for t in top_simplices]
    order = sorted(range(len(tops)), key=lambda i: tops[i])
    top = [tops[i] for i in order]
    top_faces = [[t[:i] + t[i + 1:] for i in range(len(t))] for t in top]
    face_set = {tuple(f) for f in extra_faces}
    for fs in top_faces:
        face_set.update(fs)
    faces = sorted(face_set)
    face_index = {s: i for i, s in enumerate(faces)}
    faces_of = [tuple(sorted(face_index[f] for f in fs)) for fs in top_faces]
    return tuple(top), tuple(weights[i] for i in order), tuple(faces), tuple(faces_of)


def reference_min_coface_pivot(mask, cofdeg):
    """The least (coface degree, index) over the faces of a nonempty state,
    found by walking every face: the reference for the search's pivot."""
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


def reference_max_step_pivot(mask, matrix, scale, hf):
    """The max-step pivot of a nonempty state, found by walking every face
    and every coface: the face of greatest least rise in f, L*w_c plus the
    bound terms of c's other rows minus its own, over its cofaces c, then
    least coface degree, then least index; a face with no coface first."""
    keys = []
    for r in indices_from_mask(mask):
        cols = matrix.row_cols[r]
        step = min(
            (scale * matrix.col_weights[c] + sum(hf[f] for f in matrix.col_rows[c] if f != r) - hf[r]
             for c in cols),
            default=0,
        )
        keys.append((bool(cols), -step, len(cols), r))
    return min(keys)[3]


# Row keys to stand in for ``dijkstra.pivot_keys``, which keys the rows by
# max-step without k and by min-coface with it: each of the two under the
# other kind of search too, and min-index, equal keys, under which the
# pivot is the state's least face. Any order keeps the search exact.
_search_keys = dijkstra.pivot_keys
PIVOT_ORDERS = {
    "min-index": lambda m, bounded, *b: [0] * m.nrows,
    "min-coface": lambda m, bounded, *b: _search_keys(m, True, *b),
    "max-step": lambda m, bounded, *b: _search_keys(m, False, *b),
}


@contextmanager
def pivot_order(name):
    """Run every search in the block with its rows keyed by
    ``PIVOT_ORDERS[name]``, bounded or not."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dijkstra, "pivot_keys", PIVOT_ORDERS[name])
        yield


def adjacency(n, edges=()):
    """The graph on vertices 0..n-1 with the given edges, as its list of
    neighbour sets."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def reference_greedy_decomposition(graph, heuristic):
    """Rescore-everything elimination, the reference for greedy_decomposition.

    Every step takes min over all live vertices of (score, id) with the
    score computed from scratch, so it is quadratic but obviously right.
    """
    n = len(graph)
    if n == 0:
        return TreeDecomposition([frozenset()], [()], 0)
    adj = [set(s) for s in graph]
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


# the copies of its lowest column that the j-th row over the same columns
# takes, j counted from 0: each holds an odd number of c2, c3 and c4, and
# three copies or more
TWIN_COPIES = (
    (0, 2, 3, 4), (2, 3, 4), (1, 2, 3, 4), (0, 1, 2, 3, 4), (0, 1, 2), (0, 1, 3), (0, 1, 4)
)


def irreducible(matrix):
    """A matrix that neither propagation nor the series rule reduces, with
    three times the optimum.
    Column c becomes five copies c0..c4, in that order where c was, and four
    new rows, after the old ones, over {c0, c2, c3}, {c0, c3, c4},
    {c0, c2, c4} and {c1, c2, c3}. Those rows force x_c0 = x_c1 = 0 and
    x_c2 = x_c3 = x_c4, which stands for x_c. An old row takes c0, c2, c3
    and c4 of each of its columns, except that the j-th row over the same
    columns takes ``TWIN_COPIES[j]`` of its lowest one: an odd number of
    c2..c4 still stands for x_c, so a solution selects c2, c3 and c4 for
    each column c of a solution of ``matrix``, at three times its weight,
    and the canonical witnesses correspond. Every row with a column then
    has three or more, so the series rule leaves the whole matrix. No two
    columns share their rows either (the new rows tell the copies apart),
    nor, up to seven rows over the same columns, two rows their columns:
    no kernel rule needs that now, but the copies keep this helper's
    matrices, and the widths measured on them, as they were. The number of
    solutions is ``matrix``'s, so the kernel is the whole matrix, and the
    DP runs on the whole incidence graph, only where the solutions
    outnumber the 5 ncols columns: otherwise the coset rule solves it
    outright. ``copied`` makes such inputs."""
    nrows, ncols = matrix.nrows, matrix.ncols
    col_rows = [[] for _ in range(5 * ncols)]
    seen = Counter()
    for r, cols in enumerate(matrix.row_cols):
        j = seen[cols] % len(TWIN_COPIES)
        seen[cols] += 1
        for i, c in enumerate(cols):
            for k in TWIN_COPIES[j if i == 0 else 0]:
                col_rows[5 * c + k].append(r)
    for c in range(ncols):
        g1, g2, g3, g4 = (nrows + 4 * c + i for i in range(4))
        for k, rows in enumerate([(g1, g2, g3), (g4,), (g1, g3, g4), (g1, g2, g4), (g2, g3)]):
            col_rows[5 * c + k] += rows
    weights = [w for w in matrix.col_weights for _ in range(5)]
    return Gf2Matrix(nrows + 4 * ncols, 5 * ncols, col_rows, weights)


def copied(matrix, k):
    """``matrix`` with each column k times, the copies in k blocks of ncols
    columns, at the same weights: column c's copies together stand for
    x_c, so each solution of ``matrix`` becomes 2^((k-1) ncols) of them,
    and the canonical witness is the same columns. Made irreducible, it
    has 5k ncols columns and more than that many solutions once
    2^((k-1) ncols) > 5k ncols: for every ncols at k = 6, and for
    ncols of 6 or more at k = 2. The kernel's coset rule then leaves it
    to the series rule."""
    return Gf2Matrix(matrix.nrows, k * matrix.ncols, matrix.col_rows * k, matrix.col_weights * k)


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


def best_by_size(mat, target):
    """Least weight of a solution with exactly s columns, for every s."""
    want = mask_from_indices(target)
    best = {}
    for size in range(mat.ncols + 1):
        for combo in combinations(range(mat.ncols), size):
            if mat.product_mask(combo) == want:
                w = mat.weight_of(combo)
                best[size] = min(best.get(size, w), w)
    return best


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
    pairs) list of a timed solve on ``td``; returns its length."""
    assert sorted(t for t, _ in join_bags) == [
        t for t in range(td.n_nodes) if len(td.children[t]) > 1
    ]
    for t, pairs in join_bags:
        bag = td.bags[t]
        ncols = sum(v >= nrows for v in bag)
        cap = (len(td.children[t]) - 1) * 2**ncols * 4 ** (len(bag) - ncols)
        assert pairs <= cap, (t, pairs, cap)
    return len(join_bags)


# (dim, tops, vertices) of the dense random slices, whose kernels the
# reductions mostly leave for the engines
DENSE_SHAPES = ((1, 14, 8), (2, 28, 8), (2, 30, 9), (2, 40, 10), (3, 25, 7))
FAMILIES = ("random", "dense", "twins")
Label = namedtuple("Label", "family dim seed signed random_target")


def with_twins(matrix, rng):
    """``matrix`` with one to three of its columns given a twin: a copy over
    the same rows, at the same weight, at a random place."""
    cols = list(zip(matrix.col_rows, matrix.col_weights))
    for c in rng.sample(range(matrix.ncols), min(rng.randint(1, 3), matrix.ncols)):
        cols.insert(rng.randrange(len(cols) + 1), (matrix.col_rows[c], matrix.col_weights[c]))
    return Gf2Matrix(matrix.nrows, len(cols), [rows for rows, _ in cols], [w for _, w in cols])


def _slices(family, seed):
    """(dim, slice, boundary) of one seed of a family: ``random_problem`` of
    dims 1-3 ("random"), the ``DENSE_SHAPES`` with unit weights on even
    seeds and random ones on odd seeds ("dense"), or both ("twins", before
    their twins go in)."""
    if family != "dense":
        for dim in (1, 2, 3):
            yield dim, *random_problem(seed, max_top=20, dim=dim)
    if family != "random":
        for dim, n_top, n_vertices in DENSE_SHAPES:
            cs = random_slice(n_top, n_vertices, dim=dim, seed=seed, weights=("unit", "random")[seed % 2])
            yield dim, cs, random_boundary(cs, seed=seed)


def problems(seeds, families=FAMILIES):
    """(label, dim, matrix, rows): the slices of each seed and family, the
    "twins" ones with injected twin columns (``with_twins``), each with its
    own weights and with weights redrawn from -3..3 (``label.signed``), and
    each against its boundary and a random row subset
    (``label.random_target``), which is mostly infeasible."""
    for seed in seeds:
        for family in families:
            for dim, cs, boundary in _slices(family, seed):
                rng = random.Random(f"{family}-{dim}-{seed}")
                own = boundary_matrix(cs)
                if family == "twins":
                    own = with_twins(own, rng)
                signed = Gf2Matrix(
                    own.nrows, own.ncols, own.col_rows, [rng.randint(-3, 3) for _ in own.col_rows]
                )
                some = sorted(rng.sample(range(own.nrows), rng.randint(0, own.nrows)))
                for mat in (own, signed):
                    for rows in (sorted(boundary), some):
                        label = Label(family, dim, seed, mat is signed, rows is some)
                        yield label, dim, mat, rows


def answer(result):
    """(weight, witness) of a solve, or None where it is infeasible."""
    return None if result.status is Status.INFEASIBLE else (result.weight, result.witness)


def searchable_kernel(matrix, rows, label=None):
    """``kernel.reduce``'s kernel of A x = u, asserted to weigh every column
    more than 0: the unbounded search runs on it, and a cost of 0 or less
    would let it cycle, so a broken kernel fails here instead of running
    the search out of memory."""
    kern = reduce(matrix, matrix.target_mask(rows))
    assert all(w > 0 for w in kern.matrix.col_weights), (label, kern.matrix.col_weights)
    return kern


def check_engines(cases):
    """Solve each (label, dim, matrix, rows) case with every exact engine and
    assert each answer is ``canonical_optimum``'s, None where infeasible:
    the brute-force oracle on ``kernel.reduce``'s kernel, decoded; the DP,
    computed, on a min-degree decomposition and on that hung from another
    node, which run on no vertex where the kernel is empty; the unbounded
    search under each of ``PIVOT_ORDERS``; and, on dim-1 cases with
    non-negative weights, mbc1, on status and weight. Every kernel column
    weighs more than 0 (``searchable_kernel``), and every search's frontier
    is monotone. Returns the reach counts per dimension:
    "left" kernels with a column, "searched" kernels (more than one state
    expanded), "tables" past the DP's empty one, and "infeasible" cases."""
    reach = {key: Counter() for key in ("left", "searched", "tables", "infeasible")}
    for label, dim, mat, rows in cases:
        want = canonical_optimum(mat, rows)
        reach["infeasible"][dim] += want is None
        kern = searchable_kernel(mat, rows, label)
        reach["left"][dim] += kern.matrix.ncols > 0
        brute = brute_force_mld(kern.matrix, indices_from_mask(kern.target), mode="kernel")
        got = None if brute.status is Status.INFEASIBLE else backtrack(mat, kern, brute.weight)
        assert got == want, (label, "brute")
        r = solve_mld_treewidth(mat, rows)
        assert answer(r) == want, (label, "treewidth")
        reach["tables"][dim] += r.stats["table_entries"] > 1
        td = reference_greedy_decomposition(hasse_graph(mat), "min-degree")
        for ntd in (td, rerooted(td, random.Random(repr(label)).randrange(td.n_nodes))):
            r = solve_mld_treewidth(mat, rows, ntd=ntd)
            assert answer(r) == want, (label, "treewidth", ntd.root)
            width = ntd.width if kern.matrix.nrows else -1  # contracted onto no vertex
            assert r.stats["nodes"] == ntd.n_nodes and r.stats["width"] <= width, label
        for order in PIVOT_ORDERS:
            with pivot_order(order):
                r = solve_mld_dijkstra(mat, rows)
            assert answer(r) == want, (label, "dijkstra", order)
            assert r.stats["monotone_frontier"], (label, order)
        reach["searched"][dim] += r.stats["states_expanded"] > 1  # under max-step, its own key
        if dim == 1 and min(mat.col_weights, default=0) >= 0:
            r = solve_mbc1(mat, rows)
            assert (r.status, r.weight) == (
                (Status.INFEASIBLE, None) if want is None else (Status.OPTIMAL, want[0])
            ), (label, "mbc1")
    return reach


def assert_floors(reach, floors):
    """Assert every reach count that ``floors`` names, {key: {dim: floor}},
    is at least its floor."""
    for key, per_dim in floors.items():
        for dim, floor in per_dim.items():
            assert reach[key][dim] >= floor, (key, dim, reach)

