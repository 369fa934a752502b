"""Treewidth dynamic programming for minimum-weight GF(2) decoding.

Solves min weight(x) subject to A x = u over Z2 by dynamic programming on
a nice tree decomposition of the row/column incidence graph, so the work
is exponential only in the decomposition width, linear in the instance.
Every decomposition, computed or supplied, reaches the DP through
``make_nice``, whose children-first node ids are the DP's schedule.

Table semantics at a node t with bag X: each key packs two masks into one
int, ``Q | P << s``. Q fixes which bag columns are selected; P marks the
bag rows whose current cover parity (from selected columns already out of
scope plus Q) still disagrees with the target u. The shift s is one value
for the whole solve, one more than the widest bag's column count, so Q
never reaches P's bits. A node moves a key between bags with int
arithmetic: with ``above`` the bits of one field at or above position i,
``key + (key & above)`` inserts a 0 bit at i and, when bit i is clear,
``key - ((key & above) >> 1)`` drops it. Missing keys mean "no feasible
completion", which doubles as infinity.

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

Per node kind (the decomposition's LEAF, INTRODUCE, FORGET and JOIN; an
introduce or forget node's context also says whether its vertex is a row
or a column):
- leaf: table {0: 0}, the key of (empty, empty).
- introduce column: each child entry splits two ways; selecting the new
  column flips the parity bits of its neighbours inside the bag.
- introduce row: the new row's parity bit is forced by Q and u, so each
  child entry extends uniquely.
- forget row: a row leaving scope must disagree nowhere, so only entries
  with its P bit clear survive.
- forget column: min over dropping or keeping the column; keeping it adds
  ``(w_c << ncols) + (1 << c)`` to the value.
- join: combine child entries sharing Q and add their values; the two
  subtrees forget disjoint columns, so the sum adds the weights and joins
  the masks. Parities add over Z2, so P = P_left xor P_right xor (rows
  covered oddly by Q) xor (u inside the bag), undoing the double count of
  Q and u. The smaller child is indexed by Q once and the larger one
  streamed against the index, with no sort.

The root bag is empty, so the optimum sits at key 0 there.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

from .complexes import Gf2Matrix, hasse_graph
from .decomposition import (
    FORGET,
    INTRODUCE,
    JOIN,
    LEAF,
    NiceTreeDecomposition,
    TreeDecomposition,
    greedy_decomposition,
    make_nice,
)
from .errors import ConsistencyError, UsageError
from .gf2 import indices_from_mask
from .results import SolveResult, Status


def _q_boundary(q: int, col_nbrs: Sequence[int]) -> int:
    """Bag rows covered an odd number of times by the columns in mask q."""
    acc = 0
    while q:
        low = q & -q
        acc ^= col_nbrs[low.bit_length() - 1]
        q ^= low
    return acc


@dataclass
class BagContext:
    """Everything process_bag needs about one decomposition node.

    ``kind`` is a decomposition node kind; ``is_col`` says whether the
    vertex an introduce or forget node adds or drops is a column.
    ``shift`` is the solve's key shift: a key is ``Q | P << shift``.
    ``charge`` is what keeping a forgotten column adds to a value.
    """

    kind: str
    children: tuple[int, ...]
    bag_rows: tuple[int, ...]
    bag_cols: tuple[int, ...]
    shift: int
    is_col: bool = False
    pos: int = -1
    nbr_mask: int = 0
    adj_cols_mask: int = 0
    in_target: bool = False
    charge: int = 0
    col_nbrs: tuple[int, ...] = ()
    target_mask: int = 0


def _above(ctx: BagContext) -> int:
    """Mask of the bits at or above ``ctx.pos`` in the field (Q or P) the
    node's vertex lives in. With bit ``pos`` clear, ``key + (key & above)``
    inserts a 0 bit there and ``key - ((key & above) >> 1)`` drops it."""
    s = ctx.shift
    if ctx.is_col:
        return (1 << s) - (1 << ctx.pos)
    return -(1 << (s + ctx.pos))


def _contexts(
    ntd: NiceTreeDecomposition, matrix: Gf2Matrix, target: int, adj: Sequence[set[int]]
) -> list[BagContext]:
    """Per-node contexts; ``target`` is the row mask of u and ``adj`` the
    incidence graph's adjacency (rows first, column c is vertex nrows + c)."""
    nrows = matrix.nrows
    rows_of = []
    cols_of = []
    for bag in ntd.bags:
        vs = sorted(bag)  # rows first, then columns
        split = bisect_left(vs, nrows)
        rows_of.append(tuple(vs[:split]))
        cols_of.append(tuple([v - nrows for v in vs[split:]]))
    # one shift for the whole solve, so Q never spills into P
    s = 1 + max(map(len, cols_of))

    ctxs: list[BagContext] = []
    for t in range(ntd.n_nodes):
        kind = ntd.kinds[t]
        kids = ntd.children[t]
        rows = rows_of[t]
        cols = cols_of[t]
        if kind == LEAF:
            ctxs.append(BagContext(LEAF, kids, rows, cols, s))
        elif kind == INTRODUCE:
            v = ntd.vertices[t]
            if v >= nrows:
                c = v - nrows
                nbr = 0
                for i, r in enumerate(rows):
                    if r in adj[v]:
                        nbr |= 1 << i
                ctxs.append(
                    BagContext(
                        INTRODUCE,
                        kids,
                        rows,
                        cols,
                        s,
                        is_col=True,
                        pos=cols.index(c),
                        nbr_mask=nbr,
                    )
                )
            else:
                adj_cols = 0
                for i, c in enumerate(cols):
                    if nrows + c in adj[v]:
                        adj_cols |= 1 << i
                ctxs.append(
                    BagContext(
                        INTRODUCE,
                        kids,
                        rows,
                        cols,
                        s,
                        pos=rows.index(v),
                        adj_cols_mask=adj_cols,
                        in_target=bool(target >> v & 1),
                    )
                )
        elif kind == FORGET:
            v = ntd.vertices[t]
            child = kids[0]
            if v >= nrows:
                c = v - nrows
                ctxs.append(
                    BagContext(
                        FORGET,
                        kids,
                        rows,
                        cols,
                        s,
                        is_col=True,
                        pos=cols_of[child].index(c),
                        charge=(matrix.col_weights[c] << matrix.ncols) + (1 << c),
                    )
                )
            else:
                ctxs.append(
                    BagContext(FORGET, kids, rows, cols, s, pos=rows_of[child].index(v))
                )
        else:  # join; make_nice emits no other kind
            col_nbrs = []
            for c in cols:
                m = 0
                for i, r in enumerate(rows):
                    if r in adj[nrows + c]:
                        m |= 1 << i
                col_nbrs.append(m)
            tmask = 0
            for i, r in enumerate(rows):
                if target >> r & 1:
                    tmask |= 1 << i
            ctxs.append(
                BagContext(
                    JOIN,
                    kids,
                    rows,
                    cols,
                    s,
                    col_nbrs=tuple(col_nbrs),
                    target_mask=tmask,
                )
            )
    return ctxs


def process_bag(ctx: BagContext, child_tables: Sequence[dict]) -> tuple[dict, int]:
    """One node's table from its children's. Returns (table, join pairs).

    Values are packed ``weight << ncols | mask`` ints, so each min is one
    ``<`` and the table does not depend on which join child is indexed.
    """
    kind = ctx.kind
    if kind == LEAF:
        return {0: 0}, 0

    s = ctx.shift
    if kind == INTRODUCE:
        src = child_tables[0]
        above = _above(ctx)
        out: dict = {}
        if ctx.is_col:
            flip = (1 << ctx.pos) | (ctx.nbr_mask << s)
            for key, val in src.items():
                key += key & above
                out[key] = val
                out[key ^ flip] = val
        else:
            adj = ctx.adj_cols_mask  # a Q-field mask, so it applies to the key
            u = 1 if ctx.in_target else 0
            ps = s + ctx.pos
            for key, val in src.items():
                key += key & above
                out[key | (((key & adj).bit_count() ^ u) & 1) << ps] = val
        return out, 0

    if kind == FORGET:
        src = child_tables[0]
        above = _above(ctx)
        out = {}
        if not ctx.is_col:
            pbit = 1 << (s + ctx.pos)
            for key, val in src.items():
                if not key & pbit:
                    out[key - ((key & above) >> 1)] = val
            return out, 0
        qbit = 1 << ctx.pos
        charge = ctx.charge
        for key, val in src.items():
            if key & qbit:
                key ^= qbit
                val += charge
            key -= (key & above) >> 1
            cur = out.get(key)
            if cur is None or val < cur:
                out[key] = val
        return out, 0

    # join: index the smaller child by Q, stream the larger one against it
    left, right = child_tables
    small, large = (left, right) if len(left) <= len(right) else (right, left)
    qmask = (1 << s) - 1
    col_nbrs = ctx.col_nbrs
    tmask = ctx.target_mask
    # columns with no bag row flip no parity; skipping them makes a
    # row-free bag's adjustment free
    touch = sum(1 << j for j, nbrs in enumerate(col_nbrs) if nbrs)
    groups: dict[int, tuple[int, list]] = {}
    for key, val in small.items():
        q = key & qmask
        group = groups.get(q)
        if group is None:
            # Q and the parity adjustment of every pair at this Q
            adjust = _q_boundary(q & touch, col_nbrs) ^ tmask
            group = groups[q] = (q | adjust << s, [])
        group[1].append((key, val))
    out = {}
    pairs = 0
    for key, val in large.items():
        group = groups.get(key & qmask)
        if group is None:
            continue
        fixed, members = group
        pairs += len(members)
        # (P_large ^ adjust) << s; xor with a small key adds Q and P_small
        base = key ^ fixed
        for skey, sval in members:
            out_key = base ^ skey
            cand = val + sval
            cur = out.get(out_key)
            if cur is None or cand < cur:
                out[out_key] = cand
    return out, pairs


def backtrack(value: int, ncols: int) -> tuple[int, frozenset[int]]:
    """Split a packed root value into (weight, witness column set)."""
    return value >> ncols, frozenset(indices_from_mask(value & ((1 << ncols) - 1)))


def solve_mld_treewidth(
    matrix: Gf2Matrix,
    target_rows: Iterable[int],
    *,
    ntd: TreeDecomposition | None = None,
    heuristic: str = "min-fill",
    detailed_stats: bool = False,
) -> SolveResult:
    """Minimum-weight solution of A x = u via decomposition DP.

    Accepts any weights, including negative. A decomposition of the
    incidence graph may be supplied, nice or not; it is validated and
    rebuilt in nice form by ``make_nice`` like a computed one. Otherwise
    one is computed greedily.
    """
    target = matrix.target_mask(target_rows)

    g = hasse_graph(matrix)
    if ntd is None:
        ntd = make_nice(greedy_decomposition(g, heuristic))
        ntd_source = heuristic
    elif isinstance(ntd, TreeDecomposition):
        ntd = make_nice(ntd, g)
        ntd_source = "given"
    else:
        raise UsageError("ntd must be a tree decomposition or None")

    ctxs = _contexts(ntd, matrix, target, g.adj)
    n = ntd.n_nodes
    tables: list = [None] * n
    table_entries = 0
    join_pairs = 0
    join_bags: list[tuple[int, int]] = []
    for t in range(n):
        ctx = ctxs[t]
        table, pairs = process_bag(ctx, [tables[c] for c in ctx.children])
        tables[t] = table
        for c in ctx.children:
            tables[c] = None  # only the root table is read after the DP
        table_entries += len(table)
        if ctx.kind == JOIN:
            join_pairs += pairs
            if detailed_stats:
                cap = (1 << len(ctx.bag_cols)) * (1 << (2 * len(ctx.bag_rows)))
                join_bags.append((pairs, cap))

    stats: dict = {
        "algorithm": "treewidth",
        "width": ntd.width,
        "nodes": n,
        "table_entries": table_entries,
        "join_pairs": join_pairs,
        "decomposition": ntd_source,
    }
    if detailed_stats:
        stats["join_bags"] = join_bags

    root_table = tables[ntd.root]
    if len(root_table) > 1:
        raise ConsistencyError("root table has entries beyond (empty, empty)")
    val = root_table.get(0)
    if val is None:
        return SolveResult(Status.INFEASIBLE, stats=stats)
    weight, witness = backtrack(val, matrix.ncols)
    witness_weight = matrix.weight_of(witness)
    if witness_weight != weight:
        raise ConsistencyError(
            f"table optimum {weight} disagrees with witness weight {witness_weight}"
        )
    return SolveResult(Status.OPTIMAL, weight, witness, stats)
