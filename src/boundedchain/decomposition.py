"""Tree decompositions: greedy elimination heuristics, validation, nice form.

Decompositions are built by eliminating vertices in a heuristic order
(min-degree or min-fill, ties by smallest vertex id); the bag of an
eliminated vertex is itself plus its current neighbourhood, which is then
turned into a clique. Scores are kept incrementally in a heap keyed by
(score, vertex id): an elimination rescores only the vertices whose
degree or fill it can change, so the order is the one full rescoring
would give at every step. Each bag's parent is the bag of the member
eliminated next, so the result is a rooted tree whose root is the last
bag. The nice form rewrites any rooted decomposition into leaf /
introduce / forget / join nodes with an empty root bag, never increasing
the width; it is a TreeDecomposition whose nodes also carry a kind and,
for introduce and forget nodes, a vertex. It is a library utility: the
treewidth DP runs on the rooted decomposition it is given, in any shape,
and files hold plain decompositions.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError, UsageError

LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"

HEURISTICS = ("min-fill", "min-degree")


class Graph:
    """Simple undirected graph on vertices 0..n-1 with set adjacency."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InputError("vertex count must be non-negative")
        self.n = n
        self.adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise InputError(f"self-loop at vertex {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise InputError(f"edge ({u}, {v}) out of range")
        self.adj[u].add(v)
        self.adj[v].add(u)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]


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


class NiceTreeDecomposition(TreeDecomposition):
    """A nice decomposition: leaf/introduce/forget/join nodes, empty root bag.

    ``kinds[t]`` is one of LEAF, INTRODUCE, FORGET, JOIN and
    ``vertices[t]`` the vertex an introduce or forget node adds or drops
    (None otherwise). Nodes are stored children-first (every child id is
    smaller than its parent's), so iterating ids in order is a valid
    bottom-up schedule.
    """

    def __init__(self, bags, kinds, vertices, children, root):
        super().__init__(bags, children, root)
        self.kinds = tuple(kinds)
        self.vertices = tuple(vertices)
        if len(self.kinds) != len(self.bags) or len(self.vertices) != len(self.bags):
            raise InputError("kind and vertex lists must match bag list")


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


def greedy_decomposition(graph: Graph, heuristic: str = "min-fill") -> TreeDecomposition:
    """Elimination-ordering decomposition under min-fill or min-degree."""
    if heuristic not in HEURISTICS:
        raise UsageError(f"unknown heuristic {heuristic!r}")
    n = graph.n
    if n == 0:
        return TreeDecomposition([frozenset()], [()], 0)
    adj = [set(s) for s in graph.adj]
    min_fill = heuristic == "min-fill"
    rescore = (lambda v: _fill_count(adj, v)) if min_fill else (lambda v: len(adj[v]))
    score = [rescore(v) for v in range(n)]
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
        for a in nbrs:
            adj[a].discard(v)
        adj[v].clear()
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                if b in adj[a]:
                    continue
                if min_fill:
                    # a fill edge closes one missing pair around each common neighbour
                    for w in adj[a] & adj[b]:
                        score[w] -= 1
                        heapq.heappush(heap, (score[w], w))
                adj[a].add(b)
                adj[b].add(a)
        for a in nbrs:
            score[a] = rescore(a)
            heapq.heappush(heap, (score[a], a))

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


def validate_decomposition(td: TreeDecomposition, graph: Graph) -> Violation | None:
    """Check the three decomposition properties; None means valid."""
    bad = _tree_ok(td)
    if bad:
        return bad
    n = graph.n
    where: list[list[int]] = [[] for _ in range(n)]
    for t, bag in enumerate(td.bags):
        for v in bag:
            if not (0 <= v < n):
                return Violation("coverage", f"bag {t} mentions unknown vertex {v}")
            where[v].append(t)
    for v in range(n):
        if not where[v]:
            return Violation("coverage", f"vertex {v} is in no bag")
    for u, v in graph.edges():
        if not any(u in td.bags[t] and v in td.bags[t] for t in where[u]):
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


class _NiceBuilder:
    def __init__(self):
        self.bags: list[frozenset] = []
        self.kinds: list[str] = []
        self.vertices: list = []
        self.children: list[list[int]] = []

    def add(self, kind, bag, vertex, children) -> int:
        self.bags.append(frozenset(bag))
        self.kinds.append(kind)
        self.vertices.append(vertex)
        self.children.append(list(children))
        return len(self.bags) - 1


def make_nice(td: TreeDecomposition, graph: Graph | None = None) -> NiceTreeDecomposition:
    """Rewrite a rooted decomposition into nice form with an empty root bag.

    Introduce and forget chains add/remove vertices one at a time in
    increasing id order; joins are binary with both children carrying the
    parent bag. Passing the graph validates the input first.
    """
    if graph is not None:
        bad = validate_decomposition(td, graph)
        if bad:
            raise UsageError(f"input decomposition is invalid ({bad})")
    else:
        bad = _tree_ok(td)
        if bad:
            raise UsageError(f"input decomposition is invalid ({bad})")

    b = _NiceBuilder()

    def adapt(node_id: int, from_bag: frozenset, to_bag: frozenset) -> int:
        cur, bag = node_id, set(from_bag)
        for v in sorted(from_bag - to_bag):
            bag.discard(v)
            cur = b.add(FORGET, bag, v, [cur])
        for v in sorted(to_bag - from_bag):
            bag.add(v)
            cur = b.add(INTRODUCE, bag, v, [cur])
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
            cur = b.add(LEAF, frozenset(), None, [])
            cur = adapt(cur, frozenset(), bag)
        else:
            adapted = [adapt(deliver[c], td.bags[c], bag) for c in kids]
            cur = adapted[0]
            for extra in adapted[1:]:
                cur = b.add(JOIN, bag, None, [cur, extra])
        deliver[node] = cur

    top = adapt(deliver[td.root], td.bags[td.root], frozenset())
    return NiceTreeDecomposition(b.bags, b.kinds, b.vertices, b.children, top)


def validate_nice(ntd: NiceTreeDecomposition) -> Violation | None:
    """Shape rules of the nice form; pair with validate_decomposition."""
    bad = _tree_ok(ntd)
    if bad:
        return bad
    if ntd.bags[ntd.root]:
        return Violation("nice-shape", "root bag is not empty")
    for t in range(ntd.n_nodes):
        kind = ntd.kinds[t]
        bag = ntd.bags[t]
        kids = ntd.children[t]
        v = ntd.vertices[t]
        if kind == LEAF:
            if kids or bag:
                return Violation("nice-shape", f"leaf node {t} must be empty and childless")
        elif kind == INTRODUCE:
            if len(kids) != 1:
                return Violation("nice-shape", f"introduce node {t} needs one child")
            cb = ntd.bags[kids[0]]
            if v is None or v in cb or bag != cb | {v}:
                return Violation("nice-shape", f"introduce node {t} does not add exactly {v}")
        elif kind == FORGET:
            if len(kids) != 1:
                return Violation("nice-shape", f"forget node {t} needs one child")
            cb = ntd.bags[kids[0]]
            if v is None or v in bag or cb != bag | {v}:
                return Violation("nice-shape", f"forget node {t} does not drop exactly {v}")
        elif kind == JOIN:
            if len(kids) != 2:
                return Violation("nice-shape", f"join node {t} needs two children")
            if any(ntd.bags[c] != bag for c in kids):
                return Violation("nice-shape", f"join node {t} children bags differ")
        else:
            return Violation("nice-shape", f"unknown node kind {kind!r} at {t}")
    return None
