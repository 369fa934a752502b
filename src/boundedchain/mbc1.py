"""Exact minimum bounded chain solver in dimension one.

Works on graph matrices: one row per vertex, one column per edge, two
rows per column, as in the boundary matrix of a 1-dimensional slice or a
graph given as .mld (parallel columns allowed). This is the T-join
problem: an optimal solution is a disjoint union of shortest paths
between a pairing of the target vertices, so the solver computes
single-source shortest paths from each target vertex, a minimum-weight
perfect matching on those distances per connected component, and
assembles the paired paths by symmetric difference. Feasible iff every
component contains an even number of target vertices.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import networkx as nx

from .complexes import Gf2Matrix
from .errors import ConsistencyError, UsageError
from .gf2 import indices_from_mask
from .results import SolveResult, Status

INF = float("inf")


def _check_graph(matrix: Gf2Matrix) -> None:
    """Every column is an edge (two rows) and no weight is negative."""
    if any(len(rs) != 2 for rs in matrix.col_rows):
        raise UsageError("mbc1 handles dimension 1 only: each column needs 2 rows")
    if any(w < 0 for w in matrix.col_weights):
        raise UsageError("negative edge weights are not supported here")


@dataclass
class DistanceClosure:
    """Shortest-path distances and predecessor edges from each source.

    dist[s] maps each vertex reached from s to its exact distance, and
    pred[s] maps it to the last edge (column) of a shortest path from s;
    a vertex that s does not reach is in neither, so a closure takes
    memory in the sources' components only. Among edges into v from
    vertices settled before v, the one from the smallest vertex id
    achieving the distance is kept, then the smallest edge index, which
    keeps ties deterministic, picks the lightest of parallel edges and
    keeps predecessor links acyclic even across zero-weight edges.
    """

    sources: tuple[int, ...]
    dist: dict[int, dict[int, int]]
    pred: dict[int, dict[int, int]]

    def distance(self, s: int, v: int):
        """The distance from source s to v, INF when s does not reach v."""
        return self.dist[s].get(v, INF)


def distance_closure(matrix: Gf2Matrix, sources: Sequence[int]) -> DistanceClosure:
    """Dijkstra from every source over the graph whose edges are the columns."""
    _check_graph(matrix)
    matrix.target_mask(sources)
    return _closure(matrix, sources)


def _closure(matrix: Gf2Matrix, sources: Sequence[int]) -> DistanceClosure:
    """distance_closure on input already checked, so a solve checks it once."""
    col_rows = matrix.col_rows
    weights = matrix.col_weights
    row_cols = matrix.row_cols
    all_dist: dict[int, dict[int, int]] = {}
    all_pred: dict[int, dict[int, int]] = {}
    for s in sources:
        dist = {s: 0}
        pred: dict[int, int] = {}
        settled: set[int] = set()
        heap: list[tuple[int, int]] = [(0, s)]
        while heap:
            d, v = heapq.heappop(heap)
            if v in settled:
                continue
            settled.add(v)
            for e in row_cols[v]:
                a, b = col_rows[e]
                u = a + b - v
                if u in settled:
                    continue
                nd = d + weights[e]
                old = dist.get(u, INF)
                if nd < old:
                    dist[u] = nd
                    pred[u] = e
                    heapq.heappush(heap, (nd, u))
                elif nd == old and v < sum(col_rows[pred[u]]) - u:
                    pred[u] = e  # row_cols is sorted: same v keeps the smaller edge
        all_dist[s] = dist
        all_pred[s] = pred
    return DistanceClosure(tuple(sources), all_dist, all_pred)


def min_weight_perfect_matching(
    nodes: Sequence[int], dist_of: Callable[[int, int], object]
) -> list[tuple[int, int]] | None:
    """Minimum-weight perfect matching on the complete graph over ``nodes``.

    Distances must be exact integers (or INF for "no edge"). Returns the
    pairs sorted, or None when no finite perfect matching exists. Solved
    with blossom matching on negated weights, which is exact for integer
    inputs.
    """
    nodes = sorted(nodes)
    if len(nodes) % 2 != 0:
        raise UsageError("perfect matching needs an even number of nodes")
    if not nodes:
        return []
    if len(nodes) == 2:
        a, b = nodes
        return [(a, b)] if dist_of(a, b) != INF else None
    g = nx.Graph()
    g.add_nodes_from(nodes)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            d = dist_of(a, b)
            if d != INF:
                g.add_edge(a, b, weight=-d)
    matching = nx.max_weight_matching(g, maxcardinality=True)
    if 2 * len(matching) != len(nodes):
        return None
    return sorted(tuple(sorted(pair)) for pair in matching)


def assemble_chain(
    pairing: Sequence[tuple[int, int]], closure: DistanceClosure, matrix: Gf2Matrix
) -> frozenset[int]:
    """Symmetric difference of one shortest path per matched pair, as columns.

    Shared edges between paths cancel; with non-negative weights the
    result still has the paired vertices as boundary and never weighs
    more than the sum of path distances.
    """
    col_rows = matrix.col_rows
    edges: set[int] = set()
    for s, t in pairing:
        if closure.distance(s, t) == INF:
            raise UsageError(f"vertex {t} is unreachable from {s}")
        pred = closure.pred[s]
        cur = t
        while cur != s:
            e = pred[cur]
            edges ^= {e}
            a, b = col_rows[e]
            cur = a + b - cur
    return frozenset(edges)


def solve_mbc1(matrix: Gf2Matrix, target_rows: Iterable[int]) -> SolveResult:
    """Minimum-weight column set of a graph matrix with the target rows as boundary."""
    _check_graph(matrix)
    u = indices_from_mask(matrix.target_mask(target_rows))
    n = matrix.nrows
    col_rows = matrix.col_rows
    row_cols = matrix.row_cols

    comp = [-1] * n
    n_comp = 0
    for start in range(n):
        if comp[start] != -1:
            continue
        stack = [start]
        comp[start] = n_comp
        while stack:
            v = stack.pop()
            for e in row_cols[v]:
                for nb in col_rows[e]:
                    if comp[nb] == -1:
                        comp[nb] = n_comp
                        stack.append(nb)
        n_comp += 1

    by_comp: dict[int, list[int]] = {}
    for v in u:
        by_comp.setdefault(comp[v], []).append(v)
    for c, members in sorted(by_comp.items()):
        if len(members) % 2 != 0:
            return SolveResult(
                Status.INFEASIBLE,
                stats={
                    "algorithm": "mbc1",
                    "reason": "odd boundary count in a component",
                    "component_witness": members[0],
                },
            )

    closure = _closure(matrix, u)
    dist_of = closure.distance

    pairing: list[tuple[int, int]] = []
    matching_value = 0
    for c, members in sorted(by_comp.items()):
        pairs = min_weight_perfect_matching(members, dist_of)
        if pairs is None:
            # a component is connected, so an even member set always pairs up
            raise ConsistencyError("no finite matching inside a connected component")
        pairing.extend(pairs)
        matching_value += sum(dist_of(a, b) for a, b in pairs)

    witness = assemble_chain(pairing, closure, matrix)
    weight = matrix.weight_of(witness)
    stats = {
        "algorithm": "mbc1",
        "matching_value": matching_value,
        "components": n_comp,
        "boundary_vertices": len(u),
        "pairs": len(pairing),
    }
    return SolveResult(Status.OPTIMAL, weight, witness, stats)
