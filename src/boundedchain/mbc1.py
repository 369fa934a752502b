"""Exact minimum bounded chain solver in dimension one.

Works on the graph view of a 1-dimensional slice: vertices are the
0-simplices, edges the 1-simplices. An optimal solution is a disjoint
union of shortest paths between a pairing of the boundary vertices, so
the solver computes single-source shortest paths from each boundary
vertex, a minimum-weight perfect matching on those distances per
connected component, and assembles the paired paths by symmetric
difference. Feasible iff every component contains an even number of
boundary vertices.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

import networkx as nx

from .chains import Chain, chain_weight
from .complexes import ComplexSlice
from .errors import UsageError
from .results import SolveResult, Status

INF = float("inf")


def _check_slice(cslice: ComplexSlice) -> None:
    if cslice.dim != 1:
        raise UsageError(f"this solver handles dimension 1 only, got {cslice.dim}")
    if any(w < 0 for w in cslice.weights):
        raise UsageError("negative edge weights are not supported here")


def _adjacency(cslice: ComplexSlice) -> list[list[tuple[int, int, int]]]:
    """Per vertex (face index): sorted list of (neighbour, edge index, weight)."""
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(cslice.n_faces)]
    for j, (a, b) in enumerate(cslice.faces_of):
        w = cslice.weights[j]
        adj[a].append((b, j, w))
        adj[b].append((a, j, w))
    for lst in adj:
        lst.sort()
    return adj


@dataclass
class DistanceClosure:
    """Shortest-path distances and predecessor trees from each source.

    dist[s][v] is the exact distance from s to v (INF when unreachable);
    pred[s][v] is the predecessor of v on a shortest path from s. Among
    predecessors settled before v, the smallest vertex id achieving the
    distance is kept, which keeps ties deterministic and predecessor
    links acyclic even across zero-weight edges.
    """

    sources: tuple[int, ...]
    dist: dict[int, list]
    pred: dict[int, list]


def distance_closure(cslice: ComplexSlice, sources: Sequence[int]) -> DistanceClosure:
    """Dijkstra from every source over the slice's graph view."""
    _check_slice(cslice)
    n = cslice.n_faces
    adj = _adjacency(cslice)
    all_dist: dict[int, list] = {}
    all_pred: dict[int, list] = {}
    for s in sources:
        if not (0 <= s < n):
            raise UsageError(f"source vertex {s} out of range")
        dist: list = [INF] * n
        pred: list = [None] * n
        settled = [False] * n
        dist[s] = 0
        heap: list[tuple[int, int]] = [(0, s)]
        while heap:
            d, v = heapq.heappop(heap)
            if settled[v]:
                continue
            settled[v] = True
            for u, _e, w in adj[v]:
                if settled[u]:
                    continue
                nd = d + w
                if nd < dist[u]:
                    dist[u] = nd
                    pred[u] = v
                    heapq.heappush(heap, (nd, u))
                elif nd == dist[u] and v < pred[u]:
                    pred[u] = v
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
    pairing: Sequence[tuple[int, int]], closure: DistanceClosure, cslice: ComplexSlice
) -> Chain:
    """Symmetric difference of one shortest path per matched pair.

    Shared edges between paths cancel; with non-negative weights the
    result still has the paired vertices as boundary and never weighs
    more than the sum of path distances.
    """
    edge_at = {fs: j for j, fs in enumerate(cslice.faces_of)}
    edges: set[int] = set()
    for s, t in pairing:
        pred = closure.pred[s]
        cur = t
        while cur != s:
            p = pred[cur]
            if p is None:
                raise UsageError(f"vertex {t} is unreachable from {s}")
            edges ^= {edge_at[(min(p, cur), max(p, cur))]}
            cur = p
    return Chain(1, tuple(sorted(edges)))


def solve_mbc1(cslice: ComplexSlice, boundary: Chain) -> SolveResult:
    """Minimum-weight 1-chain with the given 0-chain as boundary."""
    _check_slice(cslice)
    cslice.check_boundary(boundary)
    n = cslice.n_faces
    u = set(boundary.indices)

    adj = _adjacency(cslice)
    comp = [-1] * n
    n_comp = 0
    for start in range(n):
        if comp[start] != -1:
            continue
        stack = [start]
        comp[start] = n_comp
        while stack:
            v = stack.pop()
            for nb, _e, _w in adj[v]:
                if comp[nb] == -1:
                    comp[nb] = n_comp
                    stack.append(nb)
        n_comp += 1

    by_comp: dict[int, list[int]] = {}
    for v in sorted(u):
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

    closure = distance_closure(cslice, tuple(sorted(u)))

    def dist_of(a: int, b: int):
        return closure.dist[a][b]

    pairing: list[tuple[int, int]] = []
    matching_value = 0
    for c, members in sorted(by_comp.items()):
        pairs = min_weight_perfect_matching(members, dist_of)
        if pairs is None:
            return SolveResult(
                Status.INFEASIBLE,
                stats={"algorithm": "mbc1", "reason": "no finite matching"},
            )
        pairing.extend(pairs)
        matching_value += sum(dist_of(a, b) for a, b in pairs)

    witness = assemble_chain(pairing, closure, cslice)
    weight = chain_weight(witness, cslice.weights)
    stats = {
        "algorithm": "mbc1",
        "matching_value": matching_value,
        "components": n_comp,
        "boundary_vertices": len(u),
        "pairs": len(pairing),
    }
    return SolveResult(Status.OPTIMAL, weight, witness.as_set(), stats)
