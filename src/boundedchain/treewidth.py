"""Treewidth dynamic programming for minimum-weight GF(2) decoding.

Solves min weight(x) subject to A x = u over Z2 by dynamic programming on
a nice tree decomposition of the row/column incidence graph, so the work
is exponential only in the decomposition width, linear in the instance.
Every decomposition, computed or supplied, reaches the DP through
``make_nice``, whose children-first node ids are the DP's schedule.

Table semantics at a node t with bag X: keys are mask pairs (Q, P). Q
fixes which bag columns are selected; P marks the bag rows whose current
cover parity (from selected columns already out of scope plus Q) still
disagrees with the target u. The value is the minimum total weight of
forgotten selected columns; bag columns are charged only when forgotten.
Missing keys mean "no feasible completion", which doubles as infinity, so
negative weights need no special casing.

Per node kind (the decomposition's LEAF, INTRODUCE, FORGET and JOIN; an
introduce or forget node's context also says whether its vertex is a row
or a column):
- leaf: table {(empty, empty): 0}.
- introduce column: each child entry splits two ways; selecting the new
  column flips the parity bits of its neighbours inside the bag.
- introduce row: the new row's parity bit is forced by Q and u, so each
  child entry extends uniquely.
- forget row: a row leaving scope must disagree nowhere, so only entries
  with its P bit clear survive.
- forget column: min over dropping or keeping the column, charging its
  weight when kept; the choice is recorded for backtracking.
- join: combine child entries sharing Q; parities add over Z2, so
  P = P_left xor P_right xor (rows covered oddly by Q) xor (u inside the
  bag), undoing the double count of Q and u.

The root bag is empty, so the optimum sits at key (empty, empty) there;
backtracking replays child keys top-down and reads the kept/dropped
decision at every forget-column node.
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
from .results import SolveResult, Status


def _drop_bit(mask: int, p: int) -> int:
    return ((mask >> (p + 1)) << p) | (mask & ((1 << p) - 1))


def _insert_bit(mask: int, p: int, bit: int) -> int:
    return ((mask >> p) << (p + 1)) | (bit << p) | (mask & ((1 << p) - 1))


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
    """

    kind: str
    children: tuple[int, ...]
    bag_rows: tuple[int, ...]
    bag_cols: tuple[int, ...]
    is_col: bool = False
    pos: int = -1
    nbr_mask: int = 0
    adj_cols_mask: int = 0
    in_target: bool = False
    col: int = -1
    weight: int = 0
    col_nbrs: tuple[int, ...] = ()
    target_mask: int = 0


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

    ctxs: list[BagContext] = []
    for t in range(ntd.n_nodes):
        kind = ntd.kinds[t]
        kids = ntd.children[t]
        rows = rows_of[t]
        cols = cols_of[t]
        if kind == LEAF:
            ctxs.append(BagContext(LEAF, kids, rows, cols))
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
                        is_col=True,
                        pos=cols_of[child].index(c),
                        col=c,
                        weight=matrix.col_weights[c],
                    )
                )
            else:
                ctxs.append(
                    BagContext(FORGET, kids, rows, cols, pos=rows_of[child].index(v))
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
                    col_nbrs=tuple(col_nbrs),
                    target_mask=tmask,
                )
            )
    return ctxs


def process_bag(ctx: BagContext, child_tables: Sequence[dict]) -> tuple[dict, dict, int]:
    """One node's table from its children's. Returns (table, backpointers, join pairs)."""
    kind = ctx.kind
    if kind == LEAF:
        return {(0, 0): 0}, {}, 0

    if kind == INTRODUCE:
        src = child_tables[0]
        p = ctx.pos
        out: dict = {}
        if ctx.is_col:
            nbr = ctx.nbr_mask
            for (q, pm), val in src.items():
                q0 = _insert_bit(q, p, 0)
                out[(q0, pm)] = val
                out[(q0 | (1 << p), pm ^ nbr)] = val
        else:
            adj = ctx.adj_cols_mask
            u = 1 if ctx.in_target else 0
            for (q, pm), val in src.items():
                bit = ((q & adj).bit_count() & 1) ^ u
                out[(q, _insert_bit(pm, p, bit))] = val
        return out, {}, 0

    if kind == FORGET:
        src = child_tables[0]
        p = ctx.pos
        pbit = 1 << p
        out = {}
        if not ctx.is_col:
            for (q, pm), val in src.items():
                if pm & pbit:
                    continue
                out[(q, _drop_bit(pm, p))] = val
            return out, {}, 0
        w = ctx.weight
        bp: dict = {}
        for (q, pm), val in src.items():
            taken = bool(q & pbit)
            key = (_drop_bit(q, p), pm)
            cand = val + w if taken else val
            cur = out.get(key)
            # ties prefer dropping the column, for determinism
            if cur is None or cand < cur or (cand == cur and bp[key] and not taken):
                out[key] = cand
                bp[key] = taken
        return out, bp, 0

    # join
    left, right = child_tables
    groups_l: dict[int, list] = {}
    for (q, pm), val in left.items():
        groups_l.setdefault(q, []).append((pm, val))
    groups_r: dict[int, list] = {}
    for (q, pm), val in right.items():
        groups_r.setdefault(q, []).append((pm, val))
    out = {}
    bp = {}
    pairs = 0
    for q in sorted(groups_l):
        lst_r = groups_r.get(q)
        if not lst_r:
            continue
        lst_l = sorted(groups_l[q])
        lst_r = sorted(lst_r)
        adjust = _q_boundary(q, ctx.col_nbrs) ^ ctx.target_mask
        pairs += len(lst_l) * len(lst_r)
        for pl, vl in lst_l:
            for pr, vr in lst_r:
                key = (q, pl ^ pr ^ adjust)
                cand = vl + vr
                cur = out.get(key)
                if cur is None or cand < cur:
                    out[key] = cand
                    bp[key] = pl
    return out, bp, pairs


def backtrack(
    ctxs: Sequence[BagContext], bps: Sequence[dict], root: int
) -> frozenset[int]:
    """Replay the winning entries top-down and collect kept columns."""
    chosen: set[int] = set()
    stack: list[tuple[int, tuple[int, int]]] = [(root, (0, 0))]
    while stack:
        t, (q, pm) = stack.pop()
        ctx = ctxs[t]
        kind = ctx.kind
        if kind == LEAF:
            continue
        if kind == INTRODUCE:
            if ctx.is_col:
                p = ctx.pos
                bit = (q >> p) & 1
                cq = _drop_bit(q, p)
                stack.append((ctx.children[0], (cq, pm ^ ctx.nbr_mask if bit else pm)))
            else:
                stack.append((ctx.children[0], (q, _drop_bit(pm, ctx.pos))))
        elif kind == FORGET:
            if ctx.is_col:
                taken = bps[t][(q, pm)]
                if taken:
                    chosen.add(ctx.col)
                stack.append(
                    (ctx.children[0], (_insert_bit(q, ctx.pos, 1 if taken else 0), pm))
                )
            else:
                stack.append((ctx.children[0], (q, _insert_bit(pm, ctx.pos, 0))))
        else:  # join
            pl = bps[t][(q, pm)]
            pr = pm ^ pl ^ _q_boundary(q, ctx.col_nbrs) ^ ctx.target_mask
            stack.append((ctx.children[0], (q, pl)))
            stack.append((ctx.children[1], (q, pr)))
    return frozenset(chosen)


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
    bps: list = [None] * n
    table_entries = 0
    join_pairs = 0
    join_bags: list[tuple[int, int]] = []
    for t in range(n):
        ctx = ctxs[t]
        table, bp, pairs = process_bag(ctx, [tables[c] for c in ctx.children])
        tables[t] = table
        bps[t] = bp
        for c in ctx.children:
            tables[c] = None  # backtracking reads only bps and the root table
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
    val = root_table.get((0, 0))
    if val is None:
        return SolveResult(Status.INFEASIBLE, stats=stats)
    witness = backtrack(ctxs, bps, ntd.root)
    weight = matrix.weight_of(witness)
    if weight != val:
        raise ConsistencyError(
            f"table optimum {val} disagrees with witness weight {weight}"
        )
    return SolveResult(Status.OPTIMAL, val, witness, stats)
