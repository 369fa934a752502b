"""Treewidth dynamic programming for minimum-weight GF(2) decoding.

Solves min weight(x) subject to A x = u over Z2 by dynamic programming on
a rooted tree decomposition of the row/column incidence graph, so the work
is exponential only in the decomposition width, linear in the instance.
The DP runs on the decomposition itself, computed greedily or supplied
and accepted by ``validate_decomposition``; nodes are scheduled by an
iterative post-order, so node ids may come in any order.

Table semantics at a node t with bag X: each key packs two masks into one
int, ``Q | F << s``. Q fixes which bag columns are selected. F holds, for
each bag row, the parity of the selected columns already forgotten below
t; every row forgotten below t is already met. The shift s is one value
for the whole solve, one more than the widest bag's column count, so Q
never reaches F's bits. With ``above`` the bits of one field at or above
position i, ``key + (key & above)`` inserts a 0 bit at i and, when bit i
is clear, ``key - ((key & above) >> 1)`` drops it. Missing keys mean "no
feasible completion", which doubles as infinity.

Each value is one int that carries the partial witness with its weight:
``weight << ncols | mask``, where weight is the total weight of the
forgotten selected columns (bag columns are charged only when forgotten)
and mask is the set of those columns. Since ``0 <= mask < 2^ncols``, int
order is (weight, mask) order, negative weights included, so every min
is a plain ``<`` and the DP minimises the perturbed column weights
``w_c * 2^ncols + 2^c``. There are no ties to break and no backpointers:
the root value decodes to the optimum weight and the canonical witness,
the optimal column set with the smallest mask, whatever the
decomposition or the order tables are visited in.

One node step, ``process_bag``:
- lift each child's table into the node's bag. First forget the child's
  columns that leave scope: a selected one adds
  ``(w_c << ncols) + (1 << c)`` to the value and flips F on its bag rows,
  then equal keys keep the min. Then forget the rows that leave scope: a
  row r survives only where ``F_r ^ parity(Q & cols(r)) ^ u_r`` is 0. By
  the decomposition properties every column of r is then in the bag or
  already forgotten, so this is the row's whole constraint. The row's F
  bit is cleared before it is dropped. Last, the key is re-laid into the
  node's bit layout by inserting 0 bits.
- join the lifted children one after another. Two tables match on the
  columns both hold, and ``kL ^ kR ^ (kL & shared)`` is the union of the
  Q masks and the xor of the F masks; the values add, since the two
  subtrees forget disjoint columns. The smaller table is indexed by its
  shared columns and the larger one streamed against it, with no sort.
- introduce the bag columns no child holds: each doubles the table. A
  bag row no child holds has no forgotten column yet, so its F bit is 0.

A leaf starts from the one entry ``{0: 0}``. The root's table is lifted
once more, into an empty bag, which leaves the optimum at key 0.
"""

from __future__ import annotations

import time
from bisect import bisect_left
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
from .gf2 import indices_from_mask
from .results import SolveResult, Status


@dataclass
class Lift:
    """How one child's table moves into its parent's bag.

    ``cols`` holds ``(Q bit, Q bit | F flips, charge)`` per forgotten
    column and ``rows`` holds ``(check, u_r, ~F bit)`` per forgotten row,
    where check is the row's bag columns plus its own F bit, all in the
    child's layout. ``drops`` are the ``above`` masks of the bits to drop,
    highest first, and ``inserts`` those of the 0 bits to insert into the
    parent's layout, lowest first. ``held`` is the parent's Q-field mask of
    the columns the child holds.
    """

    cols: list
    rows: list
    drops: list
    inserts: list
    held: int


@dataclass
class BagContext:
    """Everything process_bag needs about one decomposition node: one lift
    per child, in the order the child tables come, and the number of bag
    columns."""

    lifts: Sequence[Lift]
    ncols: int


def _lift(lift: Lift, src: dict) -> dict:
    """A child's table forgotten down to what the parent holds, in its layout."""
    cols, rows, drops, inserts = lift.cols, lift.rows, lift.drops, lift.inserts
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
            for above in drops:
                key -= (key & above) >> 1
            for above in inserts:
                key += key & above
            cur = out.get(key)
            if cur is None or val < cur:
                out[key] = val
    return out


def _join(left: dict, right: dict, shared: int) -> tuple[dict, int]:
    """Combine two tables of one bag that agree on the ``shared`` Q bits.
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


def process_bag(ctx: BagContext, child_tables: Sequence[dict]) -> tuple[dict, int]:
    """One node's table from its children's. Returns (table, join pairs).

    Values are packed ``weight << ncols | mask`` ints, so each min is one
    ``<`` and the table does not depend on the order children are joined
    in or on which side of a join is indexed.
    """
    table = {0: 0}
    held = 0
    pairs = 0
    for i, (lift, src) in enumerate(zip(ctx.lifts, child_tables)):
        lifted = _lift(lift, src)
        if i:
            table, n = _join(table, lifted, held & lift.held)
            pairs += n
        else:
            table = lifted
        held |= lift.held
    for j in range(ctx.ncols):
        if not held >> j & 1:
            bit = 1 << j
            table.update([(key | bit, val) for key, val in table.items()])
    return table, pairs


def backtrack(value: int, ncols: int) -> tuple[int, frozenset[int]]:
    """Split a packed root value into (weight, witness column set)."""
    return value >> ncols, frozenset(indices_from_mask(value & ((1 << ncols) - 1)))


def _layout(bag: frozenset, nrows: int) -> tuple[list[int], list[int]]:
    """A bag's row vertices and column vertices, each in bit order."""
    vs = sorted(bag)
    split = bisect_left(vs, nrows)
    return vs[:split], vs[split:]


def _make_lift(
    child: frozenset,
    parent: frozenset,
    layouts: dict,
    matrix: Gf2Matrix,
    target: int,
    adj: Sequence[set[int]],
    s: int,
) -> Lift:
    """The lift of a child's table, bag ``child``, into bag ``parent``."""
    nrows, ncols, weights = matrix.nrows, matrix.ncols, matrix.col_weights
    crows, ccols = layouts[child]
    prows, pcols = layouts[parent]
    cols, rows, drops, inserts = [], [], [], []
    for j, v in enumerate(ccols):
        if v not in parent:
            nbrs = adj[v]
            toggle = 1 << j
            for i, r in enumerate(crows):
                if r in nbrs:
                    toggle |= 1 << (s + i)
            c = v - nrows
            cols.append((1 << j, toggle, (weights[c] << ncols) + (1 << c)))
            drops.append((1 << s) - (1 << j))
    for i, r in enumerate(crows):
        if r not in parent:
            nbrs = adj[r]
            check = fbit = 1 << (s + i)
            for j, v in enumerate(ccols):
                if v in nbrs:
                    check |= 1 << j
            rows.append((check, target >> r & 1, ~fbit))
            drops.append(-fbit)
    drops.reverse()  # F bits above Q bits, each field highest first
    held = 0
    for j, v in enumerate(pcols):
        if v in child:
            held |= 1 << j
        else:
            inserts.append((1 << s) - (1 << j))
    for i, r in enumerate(prows):
        if r not in child:
            inserts.append(-(1 << (s + i)))
    return Lift(cols, rows, drops, inserts, held)


def solve_mld_treewidth(
    matrix: Gf2Matrix,
    target_rows: Iterable[int],
    *,
    ntd: TreeDecomposition | None = None,
    heuristic: str = "min-fill",
    detailed_stats: bool = False,
    timing: bool = False,
) -> SolveResult:
    """Minimum-weight solution of A x = u via decomposition DP.

    Accepts any weights, including negative. A decomposition of the
    incidence graph may be supplied, any rooted one (a nice one too); it
    is validated and the DP runs on it as it is. Otherwise one is computed
    greedily. ``detailed_stats`` adds ``join_bags``, the (node, join pairs)
    of every node with two or more children. ``timing`` adds the wall
    seconds of the ``decompose`` and ``dp`` phases and the largest node
    table, ``peak_table``.
    """
    target = matrix.target_mask(target_rows)

    start = time.perf_counter()
    g = hasse_graph(matrix)
    if ntd is None:
        td = greedy_decomposition(g, heuristic)
        td_source = heuristic
    elif isinstance(ntd, TreeDecomposition):
        bad = validate_decomposition(ntd, g)
        if bad:
            raise UsageError(f"input decomposition is invalid ({bad})")
        td = ntd
        td_source = "given"
    else:
        raise UsageError("ntd must be a tree decomposition or None")
    decomposed = time.perf_counter()

    bags = td.bags
    nrows = matrix.nrows
    empty = frozenset()
    layouts = {bag: _layout(bag, nrows) for bag in bags}
    layouts[empty] = ([], [])
    # one shift for the whole solve, so Q never spills into F
    s = 1 + max(len(cols) for _rows, cols in layouts.values())

    # reversed pre-order: every node comes after all of its descendants
    order = []
    stack = [td.root]
    while stack:
        t = stack.pop()
        order.append(t)
        stack.extend(td.children[t])
    order.reverse()

    tables: list = [None] * td.n_nodes
    table_entries = 0
    join_pairs = 0
    peak_table = 0
    join_bags: list[tuple[int, int]] = []
    for t in order:
        bag = bags[t]
        kids = td.children[t]
        lifts = [_make_lift(bags[c], bag, layouts, matrix, target, g.adj, s) for c in kids]
        ctx = BagContext(lifts, len(layouts[bag][1]))
        table, pairs = process_bag(ctx, [tables[c] for c in kids])
        tables[t] = table
        for c in kids:
            tables[c] = None  # only the root table is read after the DP
        table_entries += len(table)
        if len(table) > peak_table:
            peak_table = len(table)
        join_pairs += pairs
        if detailed_stats and len(kids) > 1:
            join_bags.append((t, pairs))
    root = _make_lift(bags[td.root], empty, layouts, matrix, target, g.adj, s)
    top = _lift(root, tables[td.root])
    done = time.perf_counter()

    stats: dict = {
        "algorithm": "treewidth",
        "width": td.width,
        "nodes": td.n_nodes,
        "table_entries": table_entries,
        "join_pairs": join_pairs,
        "decomposition": td_source,
    }
    if detailed_stats:
        stats["join_bags"] = join_bags
    if timing:
        stats["phases"] = {"decompose": decomposed - start, "dp": done - decomposed}
        stats["peak_table"] = peak_table

    if len(top) > 1:
        raise ConsistencyError("root table has entries beyond (empty, empty)")
    val = top.get(0)
    if val is None:
        return SolveResult(Status.INFEASIBLE, stats=stats)
    weight, witness = backtrack(val, matrix.ncols)
    witness_weight = matrix.weight_of(witness)
    if witness_weight != weight:
        raise ConsistencyError(
            f"table optimum {weight} disagrees with witness weight {witness_weight}"
        )
    return SolveResult(Status.OPTIMAL, weight, witness, stats)
