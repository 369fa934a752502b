"""Treewidth dynamic programming for minimum-weight GF(2) decoding.

Solves min weight(x) subject to A x = u over Z2 by dynamic programming on
a rooted tree decomposition of the row/column incidence graph, so the work
is exponential only in the decomposition width, linear in the instance.
The DP runs on the decomposition itself, computed greedily or supplied
and accepted by ``validate_decomposition``; nodes are scheduled by an
iterative post-order, so node ids may come in any order.

Kernel. Before any decomposition, ``kernel.reduce`` shrinks the instance
(see that module), and the DP runs on what is left, the kernel, with each
column weighed at its packed charge; ``kernel.backtrack`` decodes the root
value into the weight and the canonical witness. What is particular to this
engine is a supplied decomposition. It is validated against the whole
incidence graph and then contracted onto the kernel through the kernel's
``image``, with the same nodes, children and root: a series-merged column
and its series row map to the column they merged into, and a fixed column,
a dropped row, a column the parallel rule merges away, a row the twin-row
rule drops and a column the dominance rule drops, with its series rows and
the columns merged into it, leave with no image. Twins share no edge, so
contracting column b into its twin a could split a's bags, but a's bags
already meet all of rows(b), so deleting b loses no edge, and likewise
for twin rows. A dominated column is deleted outright, as a fixed one
is. Where the coset rule solves the live system, no vertex has an image,
and every bag contracts to the empty one; where it finds no solution,
the one infeasible row it keeps is the image of one live row. The
kernel's graph is a subgraph of what is left, a minor of the incidence
graph, so the result decomposes it, and its width can only fall. The
stats ``width``, ``nodes``, ``table_entries`` and ``join_pairs``
describe the DP on the kernel; an instance the passes reduce whole,
most random dim-3 slices among them, leaves the empty graph, whose
width is -1. The passes are timed as the ``kernel`` phase.

Key layout. One pre-order walk gives every vertex, at its topmost bag, the
least colour that no other vertex of that bag has. A vertex's bags form a
connected subtree, so two vertices that share a bag have distinct
colours, and at most width + 1 colours are used. Vertex v owns key bit
``1 << colour(v)`` for the whole solve. At a node t, a column's bit says
whether it is selected; a row's bit holds the parity of the selected
columns already forgotten below t; every row forgotten below t is already
met. A key never moves between layouts: forgetting a vertex clears its
bit, and a vertex introduced above may then reuse it. Missing keys mean
"no feasible completion", which doubles as infinity.

Each value is one int: the sum of the kernel weights of the forgotten
selected columns (bag columns are charged only when forgotten). Every
kernel solution's weight plus the root's constant is ``W << n | mask``,
with W the weight and mask the column set of the solution it stands for,
and ``0 <= mask < 2^n``. So int order is (weight, mask) order, negative
weights included, every min is a plain ``<``, and the DP minimises the
perturbed column weights ``w_c * 2^n + 2^c``. There are no ties to break
and no backpointers: the root value decodes to the optimum weight and the
canonical witness, the optimal column set with the smallest mask,
whatever the decomposition or the order tables are visited in.

The walk that colours the vertices new at a node t, ``bags[t]`` minus its
parent's bag, also builds t's ``Lift``: those are exactly the vertices
forgotten when t's table moves into its parent. One node step,
``process_bag``:
- lift each child's table into the node's bag. First forget the child's
  columns that leave scope: a selected one adds its kernel weight to the
  value, clears its bit and flips
  the bits of its rows in the child's bag; equal keys keep the min. Then
  forget the rows that leave scope: a row r survives only where the
  parity of its own bit and its bag columns' bits is u_r. By the
  decomposition properties every column of r is then in the bag or
  already forgotten, so this is the row's whole constraint. The row's
  bit is cleared before a vertex introduced above can reuse it.
- join the lifted children one after another. Two tables match on the
  columns both hold, and ``kL ^ kR ^ (kL & shared)`` is the union of the
  column bits and the xor of the row parities; the values add, since the
  two subtrees forget disjoint columns. The smaller table is indexed by
  its shared columns and the larger one streamed against it, with no sort.
- introduce the bag columns no child holds: each doubles the table on its
  bit. A bag row no child holds has no forgotten column yet, so its bit
  is 0.

A leaf starts from the one entry ``{0: 0}``. The root's table is lifted
once more, into an empty bag, which leaves the optimum at key 0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .complexes import Gf2Matrix, hasse_graph
from .decomposition import (
    TreeDecomposition,
    greedy_decomposition,
    make_nice,  # unused: stays only while perfbench/spans.py wraps treewidth.make_nice
    validate_decomposition,
)
from .errors import ConsistencyError, UsageError
from .kernel import backtrack, reduce
from .results import SolveResult, Status


@dataclass(slots=True)
class Lift:
    """What one child's table forgets as it moves into its parent's bag.

    ``cols`` holds ``(bit, bit | row flips, charge)`` per forgotten column,
    the row flips being the bits of its rows in the child's bag, and
    ``rows`` holds ``(check, u_r, ~bit)`` per forgotten row, check being the
    row's own bit and the bits of its columns in the child's bag. ``held``
    is the bits of the columns the child shares with its parent.
    """

    cols: list
    rows: list
    held: int


def _lift(lift: Lift, src: dict) -> dict:
    """A child's table forgotten down to what the parent holds."""
    cols, rows = lift.cols, lift.rows
    out: dict = {}
    for key, val in src.items():
        for bit, toggle, charge in cols:
            if key & bit:
                key ^= toggle
                val += charge
        for check, u, keep in rows:
            if (key & check).bit_count() & 1 != u:
                break
            key &= keep
        else:
            cur = out.get(key)
            if cur is None or val < cur:
                out[key] = val
    return out


def _join(left: dict, right: dict, shared: int) -> tuple[dict, int]:
    """Combine two tables of one bag that agree on the ``shared`` column bits.
    Returns (table, pairs combined)."""
    small, large = (left, right) if len(left) <= len(right) else (right, left)
    groups: dict[int, list] = {}
    for key, val in small.items():
        q = key & shared
        group = groups.get(q)
        if group is None:
            group = groups[q] = []
        group.append((key ^ q, val))
    out: dict = {}
    pairs = 0
    for key, val in large.items():
        members = groups.get(key & shared)
        if members is None:
            continue
        pairs += len(members)
        for skey, sval in members:
            out_key = key ^ skey
            cand = val + sval
            cur = out.get(out_key)
            if cur is None or cand < cur:
                out[out_key] = cand
    return out, pairs


def process_bag(lifts: Sequence[Lift], cols: int, child_tables: Sequence[dict]) -> tuple[dict, int]:
    """One node's table from its children's: ``lifts`` holds one lift per
    child, in the order the child tables come, and ``cols`` the bits of the
    bag's columns. Returns (table, join pairs).

    Values are sums of packed charges, so each min is one ``<`` and the
    table does not depend on the order children are joined in or on which
    side of a join is indexed.
    """
    table = None
    held = pairs = 0
    for lift, src in zip(lifts, child_tables):
        lifted = _lift(lift, src)
        if table is None:
            table = lifted
        else:
            table, n = _join(table, lifted, held & lift.held)
            pairs += n
        held |= lift.held
    if table is None:
        table = {0: 0}  # a leaf
    new = cols & ~held
    while new:
        bit = new & -new
        new ^= bit
        table.update([(key | bit, val) for key, val in table.items()])
    return table, pairs


def _contract(td: TreeDecomposition, image: dict[int, int]) -> TreeDecomposition:
    """The decomposition with each vertex v replaced by ``image[v]`` and the
    vertices with no image left out: the same nodes, children and root.

    Where every vertex's preimage is connected, the result decomposes the
    graph with each preimage contracted and the vertices with no image
    deleted, a minor, and so any subgraph of it, and its width can only
    fall. ``_series`` maps a series-merged column to its survivor, through
    the row that joins them, and gives a column the parallel rule merges
    away no image, since nothing joins it to its twin, and a dropped twin
    row and a dominated column, with its series rows, none either. A
    kernel the coset rule empties gives no vertex an image.
    """
    return TreeDecomposition(
        [{image[v] for v in bag if v in image} for bag in td.bags], td.children, td.root
    )


def _plan(
    td: TreeDecomposition, adj: Sequence[set[int]], matrix: Gf2Matrix, target: int
) -> tuple[list[int], list[Lift], list[int], list[int]]:
    """Colour every vertex and build every node's lift, in one pre-order walk.

    Returns the nodes children-first, each node's lift into its parent (the
    root's into an empty bag), the bits of each bag's columns and each
    vertex's key bit, ``1 << colour``. A forgotten selected column is
    charged its weight in ``matrix``: for the kernel, its packed charge.
    """
    nrows, weights = matrix.nrows, matrix.col_weights
    bags, children = td.bags, td.children
    bits = [0] * (nrows + matrix.ncols)  # 1 << colour, 0 until the vertex is coloured
    lifts: list = [None] * td.n_nodes
    bag_cols = [0] * td.n_nodes
    order = []
    stack = [td.root]
    while stack:
        t = stack.pop()
        order.append(t)
        stack.extend(children[t])
        bag = bags[t]
        # a vertex's bags are connected, so it is new here exactly when no
        # bag above has coloured it
        used = held = 0
        new = []
        for v in bag:
            b = bits[v]
            if b:
                used |= b
                if v >= nrows:
                    held |= b
            else:
                new.append(v)
        for v in new:
            bits[v] = b = ~used & (used + 1)  # the least colour free in the bag
            used |= b
        cols, rows = [], []
        mask = held
        for v in new:
            b = bits[v]
            if v >= nrows:
                mask |= b
                toggle = b
                for r in adj[v] & bag:
                    toggle |= bits[r]
                cols.append((b, toggle, weights[v - nrows]))
            else:
                check = b
                for u in adj[v] & bag:
                    check |= bits[u]
                rows.append((check, target >> v & 1, ~b))
        lifts[t] = Lift(cols, rows, held)
        bag_cols[t] = mask
    order.reverse()
    return order, lifts, bag_cols, bits


def solve_mld_treewidth(
    matrix: Gf2Matrix,
    target_rows: Iterable[int],
    *,
    ntd: TreeDecomposition | None = None,
    timing: bool = False,
) -> SolveResult:
    """Minimum-weight solution of A x = u via decomposition DP.

    Accepts any weights, including negative. ``kernel.reduce`` first
    reduces the instance to a kernel (see the module docstring). A
    decomposition of the whole incidence graph may be supplied, any rooted
    one (a nice one too); it is validated, and the DP runs on it contracted
    onto the kernel, node for node. Otherwise the kernel's min-fill one is
    computed.
    ``timing`` adds the wall seconds of the ``kernel``, ``decompose`` and
    ``dp`` phases, the largest node table, ``peak_table``, and
    ``join_bags``, the (node, join pairs) of every node with two or more
    children.
    """
    target = matrix.target_mask(target_rows)

    start = time.perf_counter()
    kern = reduce(matrix, target)
    reduced = time.perf_counter()
    if ntd is None:
        td_source = "min-fill"
    elif isinstance(ntd, TreeDecomposition):
        g = hasse_graph(matrix)
        bad = validate_decomposition(ntd, g)
        if bad:
            raise UsageError(f"input decomposition is invalid ({bad})")
        td_source = "given"
    else:
        raise UsageError("ntd must be a tree decomposition or None")
    g = hasse_graph(kern.matrix)
    td = greedy_decomposition(g) if ntd is None else _contract(ntd, kern.image)
    decomposed = time.perf_counter()

    order, lifts, bag_cols, _bits = _plan(td, g.adj, kern.matrix, kern.target)

    tables: list = [None] * td.n_nodes
    table_entries = 0
    join_pairs = 0
    peak_table = 0
    join_bags: list[tuple[int, int]] = []
    for t in order:
        kids = td.children[t]
        table, pairs = process_bag([lifts[c] for c in kids], bag_cols[t], [tables[c] for c in kids])
        tables[t] = table
        for c in kids:
            tables[c] = None  # only the root table is read after the DP
        table_entries += len(table)
        if len(table) > peak_table:
            peak_table = len(table)
        join_pairs += pairs
        if timing and len(kids) > 1:
            join_bags.append((t, pairs))
    top = _lift(lifts[td.root], tables[td.root])
    done = time.perf_counter()

    stats: dict = {
        "algorithm": "treewidth",
        "width": td.width,
        "nodes": td.n_nodes,
        "table_entries": table_entries,
        "join_pairs": join_pairs,
        "decomposition": td_source,
    }
    if timing:
        stats["phases"] = {
            "kernel": reduced - start, "decompose": decomposed - reduced, "dp": done - decomposed
        }
        stats["peak_table"] = peak_table
        stats["join_bags"] = join_bags

    if len(top) > 1:
        raise ConsistencyError("root table has entries beyond (empty, empty)")
    val = top.get(0)
    if val is None:
        return SolveResult(Status.INFEASIBLE, stats=stats)
    weight, witness = backtrack(matrix, kern, val)
    return SolveResult(Status.OPTIMAL, weight, witness, stats)
