"""Tree decompositions: greedy min-fill elimination, validation, nice form.

A graph on vertices 0..n-1 is its list of n neighbour sets, ``graph[v]``
the neighbours of v, as ``complexes.hasse_graph`` builds it; nothing here
checks it for self-loops or out-of-range ids. Decompositions are built by
eliminating vertices in min-fill order, ties by smallest vertex id; the
bag of an eliminated vertex is itself plus its current neighbourhood,
which is then turned into a clique. Each vertex's fill count, its missing
neighbour pairs, is counted once and kept in a heap keyed by (count,
vertex id), then updated exactly from three terms:
each neighbour a of the eliminated vertex v loses its pairs (v, x) with x
outside v's neighbourhood; each fill edge (a, b) closes one pair at every
common neighbour of a and b; and it opens at a the pairs (b, x) with x a
neighbour of a outside v's neighbourhood and not adjacent to b, and
likewise at b. No neighbour is rescored from scratch, and orders and
files are the same as with rescoring. Any other decomposition can be
given to the treewidth engine instead. Each bag's parent is the bag of
the member eliminated next, so the result is a rooted tree whose root is
the last bag. The nice form rewrites any rooted decomposition into leaf /
introduce / forget / join nodes with an empty root bag, never increasing
the width. It is a shape, not a type: a TreeDecomposition whose bags and
children obey the rules that ``validate_nice`` checks, so a node's kind
is read from its bag and its children's. It is a library utility: the
treewidth DP runs on the rooted decomposition it is given, in any shape,
and files hold plain decompositions.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from .errors import InputError, UsageError


class TreeDecomposition:
    """Rooted tree of bags. Node ids are 0..n_nodes-1; root has no parent."""

    def __init__(self, bags: Sequence[frozenset], children: Sequence[Sequence[int]], root: int):
        self.bags = tuple(frozenset(b) for b in bags)
        self.children = tuple(tuple(c) for c in children)
        self.root = root
        if len(self.children) != len(self.bags):
            raise InputError("children list must match bag list")
        if not (0 <= root < len(self.bags)):
            raise InputError("root node out of range")

    @property
    def n_nodes(self) -> int:
        return len(self.bags)

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=1) - 1

    def parents(self) -> list:
        par: list = [None] * self.n_nodes
        for t, kids in enumerate(self.children):
            for c in kids:
                par[c] = t
        return par


@dataclass
class Violation:
    """First decomposition property found broken, with a concrete witness."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def _fill_count(adj: list[set[int]], v: int) -> int:
    nbrs = adj[v]
    missing = 0
    for u in nbrs:
        missing += len(nbrs - adj[u]) - 1
    return missing // 2


def _eliminate_min_fill(adj: list[set[int]], score: list[int], v: int, nbrs: list[int]):
    """Eliminate v and update every fill count exactly; returns the vertices updated.

    With N = N(v) and out(a) = N(a) minus N and v, counted before any fill
    edge is added: each a in N loses its |out(a)| missing pairs (v, x); a
    fill edge (a, b) closes one missing pair at every common neighbour of
    a and b other than v, and opens the pairs (b, x), x in out(a) minus
    N(b), at a, and likewise at b. No other vertex's count changes.
    """
    nv = adj[v]
    for a in nbrs:
        adj[a].discard(v)
    changed = set(nbrs)
    fill = []
    if len(nbrs) > 1:
        out = [adj[a] - nv for a in nbrs]
        for i, a in enumerate(nbrs):
            adj_a, out_a = adj[a], out[i]
            score[a] -= len(out_a)
            for j in range(i + 1, len(nbrs)):
                b = nbrs[j]
                if b in adj_a:
                    continue
                adj_b = adj[b]
                common = adj_a & adj_b
                for w in common:
                    score[w] -= 1
                changed |= common
                score[a] += len(out_a - adj_b)
                score[b] += len(out[j] - adj_a)
                fill.append((a, b))
    else:
        for a in nbrs:
            score[a] -= len(adj[a])
    nv.clear()
    for a, b in fill:
        adj[a].add(b)
        adj[b].add(a)
    return changed


def greedy_decomposition(graph: Sequence[set[int]]) -> TreeDecomposition:
    """Elimination-ordering decomposition under min-fill, ties by smallest id.

    ``graph`` is left as it is: the elimination runs on a copy."""
    n = len(graph)
    if n == 0:
        return TreeDecomposition([frozenset()], [()], 0)
    adj = [set(s) for s in graph]
    score = [_fill_count(adj, v) for v in range(n)]
    heap = sorted(zip(score, range(n)))

    bags: list[frozenset] = []
    elim_pos: dict[int, int] = {}
    while heap:
        s, v = heapq.heappop(heap)
        if v in elim_pos or s != score[v]:
            continue  # stale entry: v is gone or was rescored since
        nbrs = sorted(adj[v])
        bags.append(frozenset([v] + nbrs))
        elim_pos[v] = len(bags) - 1
        for w in _eliminate_min_fill(adj, score, v, nbrs):
            heapq.heappush(heap, (score[w], w))

    order = sorted(elim_pos, key=elim_pos.get)
    children: list[list[int]] = [[] for _ in bags]
    for j, bag in enumerate(bags[:-1]):
        rest = [elim_pos[u] for u in bag if u != order[j]]
        parent = min(rest) if rest else j + 1
        children[parent].append(j)
    return TreeDecomposition(bags, children, len(bags) - 1)


def _tree_ok(td: TreeDecomposition) -> Violation | None:
    n = td.n_nodes
    par = [None] * n
    for t, kids in enumerate(td.children):
        for c in kids:
            if not (0 <= c < n):
                return Violation("structure", f"child id {c} out of range")
            if par[c] is not None or c == td.root:
                return Violation("structure", f"node {c} has two parents or is the root")
            par[c] = t
    seen = 0
    stack = [td.root]
    visited = [False] * n
    visited[td.root] = True
    while stack:
        t = stack.pop()
        seen += 1
        for c in td.children[t]:
            if visited[c]:
                return Violation("structure", f"cycle through node {c}")
            visited[c] = True
            stack.append(c)
    if seen != n:
        return Violation("structure", "tree does not reach every node")
    return None


def validate_decomposition(td: TreeDecomposition, graph: Sequence[set[int]]) -> Violation | None:
    """Check the three decomposition properties; None means valid.

    Edges are checked by u ascending, then v ascending, each once as u < v,
    so an uncovered edge reported is the first in that order."""
    bad = _tree_ok(td)
    if bad:
        return bad
    n = len(graph)
    where: list[list[int]] = [[] for _ in range(n)]
    for t, bag in enumerate(td.bags):
        for v in bag:
            if not (0 <= v < n):
                return Violation("coverage", f"bag {t} mentions unknown vertex {v}")
            where[v].append(t)
    for v in range(n):
        if not where[v]:
            return Violation("coverage", f"vertex {v} is in no bag")
    for u in range(n):
        for v in sorted(graph[u]):
            if u < v and not any(v in td.bags[t] for t in where[u]):
                return Violation("edge-coverage", f"edge ({u}, {v}) is in no bag")
    parents = td.parents()
    for v in range(n):
        nodes = set(where[v])
        start = where[v][0]
        reached = {start}
        stack = [start]
        while stack:
            t = stack.pop()
            for nb in list(td.children[t]) + [parents[t]]:
                if nb is not None and nb in nodes and nb not in reached:
                    reached.add(nb)
                    stack.append(nb)
        if reached != nodes:
            return Violation(
                "connectivity", f"bags containing vertex {v} are disconnected"
            )
    return None


def make_nice(td: TreeDecomposition, graph: Sequence[set[int]] | None = None) -> TreeDecomposition:
    """Rewrite a rooted decomposition into nice form with an empty root bag.

    Every node of the result is a leaf (no child, empty bag), introduces
    or forgets one vertex of its single child's bag, or joins two
    children that carry its own bag. Introduce and forget chains add and
    remove vertices one at a time in increasing id order. Ids are
    children-first (every child id is smaller than its parent's), so
    iterating ids in order is a valid bottom-up schedule. Passing the
    graph validates the input first.
    """
    if graph is not None:
        bad = validate_decomposition(td, graph)
        if bad:
            raise UsageError(f"input decomposition is invalid ({bad})")
    else:
        bad = _tree_ok(td)
        if bad:
            raise UsageError(f"input decomposition is invalid ({bad})")

    bags: list[frozenset] = []
    children: list[list[int]] = []

    def add(bag, kids: list[int]) -> int:
        bags.append(frozenset(bag))
        children.append(kids)
        return len(bags) - 1

    def adapt(node_id: int, from_bag: frozenset, to_bag: frozenset) -> int:
        cur, bag = node_id, set(from_bag)
        for v in sorted(from_bag - to_bag):
            bag.discard(v)
            cur = add(bag, [cur])
        for v in sorted(to_bag - from_bag):
            bag.add(v)
            cur = add(bag, [cur])
        return cur

    # children-first traversal without recursion (decompositions can be long chains)
    deliver: dict[int, int] = {}
    stack: list[tuple[int, bool]] = [(td.root, False)]
    while stack:
        node, ready = stack.pop()
        if not ready:
            stack.append((node, True))
            for c in td.children[node]:
                stack.append((c, False))
            continue
        bag = td.bags[node]
        kids = td.children[node]
        if not kids:
            cur = adapt(add((), []), frozenset(), bag)
        else:
            adapted = [adapt(deliver[c], td.bags[c], bag) for c in kids]
            cur = adapted[0]
            for extra in adapted[1:]:
                cur = add(bag, [cur, extra])
        deliver[node] = cur

    top = adapt(deliver[td.root], td.bags[td.root], frozenset())
    return TreeDecomposition(bags, children, top)


def validate_nice(td: TreeDecomposition) -> Violation | None:
    """Shape rules of the nice form; pair with validate_decomposition.

    The root bag is empty, and each node is a leaf (no child, empty bag),
    an introduce or forget node (one child whose bag differs from its own
    in exactly one vertex) or a join (two children that both carry its
    bag).
    """
    bad = _tree_ok(td)
    if bad:
        return bad
    if td.bags[td.root]:
        return Violation("nice-shape", "root bag is not empty")
    for t, (bag, kids) in enumerate(zip(td.bags, td.children)):
        if not kids:
            if bag:
                return Violation("nice-shape", f"leaf node {t} has a nonempty bag")
        elif len(kids) == 1:
            diff = len(bag ^ td.bags[kids[0]])
            if diff != 1:
                return Violation(
                    "nice-shape", f"node {t} differs from its child in {diff} vertices"
                )
        elif len(kids) == 2:
            if any(td.bags[c] != bag for c in kids):
                return Violation("nice-shape", f"join node {t} children bags differ")
        else:
            return Violation("nice-shape", f"node {t} has {len(kids)} children")
    return None
