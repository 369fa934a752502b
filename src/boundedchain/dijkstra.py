"""Best-first search for minimum bounded chains in any dimension.

The search space has one state per (d-1)-chain. From a chain, pick one
pivot face in it; every top simplex containing the pivot gives a successor
chain by symmetric-differencing in that simplex's boundary, at the cost of
its weight. Restricting moves to cofaces of a single pivot keeps the
branching factor at the pivot's coface degree without losing optimality:
any bounding chain must cover each boundary face an odd number of times,
so it contains a coface of whatever pivot is current.

Any pivot keeps the search exact; a good one settles fewer states. The
search gives each face a key once per solve and takes the face of least
(key, index) in the state. Which key settles fewest states depends on
what prunes the search, so the key follows from whether k is given.
Without k, the cost prunes: a face is keyed by (-step, degree), where
step is the least rise in f = L*g + h (below) that a move from the face
makes, over its cofaces c: L*w_c plus the bound terms of c's rows, less
twice the face's own term, the rise when the face is the only row of c
in the state. A* settles every state with f below the optimum, so the
pivot whose every move raises f most ends the most branches early; a
face with no coface comes first, since it ends its branch at once. With
k, the size bound, not the cost, does most of the pruning, and a face is
keyed by its coface degree, so the fewest branches open at each state.
The pivot is found without walking the state: each search numbers the
rows once in ascending (key, index) and builds its masks in that
numbering, so the pivot is the state's lowest set bit. The bound and the
keys are computed on the rows' own order; only the search's masks are
renumbered, and the feasibility check runs on those same masks, as a
renumbering of the rows changes no rank.

The search runs on the decoding view only: a state is the bitmask of its
faces (rows) and a move is a column. A chain question reaches it through
``facade.solve(instance_from_complex(...), "dijkstra")``.

Without a bound, the search runs on the instance's GF(2) kernel, from
``kernel.reduce``, whose columns cost their packed charges; these never
tie, and they are positive, which the solve checks before it searches: a
cost of 0 or less would let a known state improve forever, so it raises
``ConsistencyError``. So the first empty chain settled is the least
(weight, mask) optimum, and ``kernel.backtrack`` decodes it into the
weight and the canonical witness, the one the treewidth DP returns. The
feasibility check, the search and its stats then run on the kernel; an
instance the passes solve whole, as the coset rule solves nearly every
random dim-3 slice, settles at once. The kernel's rows may repeat, and
its columns too, since only the series rule shrinks what the coset rule
leaves: the feasibility check finds twin rows with different target
bits infeasible. A bounded search runs on the whole matrix: a kernel
column can stand for several simplices, and k counts simplices.

States are settled in A* order (Hart, Nilsson and Raphael 1968): by
L*g + h, where g is the cost so far and h a lower bound on the cost still
to pay, both scaled by L, the lcm of the nonempty column sizes, so that
every value is an exact integer. h is the sum of per-face terms hf over
the faces of the state, and the terms pack the column weights: hf >= 0
and the terms of the rows of any column c sum to at most L*w_c (a
feasible solution of the dual of the covering LP). A move by c then
changes h by at least -L*w_c, so h is consistent: with non-negative
weights the first settled empty chain is an exact optimum, settled
priorities never decrease, and no settled state is ever reached more
cheaply, so a heap entry is stale exactly when its cost is no longer the
best known for its state. ``face_bounds`` starts every face from the even
split, the least w_c*L/|c| over its columns, and raises it by what its
columns leave unused. It also gives each column's lift, the sum of the
terms of its rows. A move by c adds the terms of c's rows outside the
state and takes off those inside, so h changes by lift[c] less twice the
terms of the overlap of c with the state: the update walks the overlap
beyond the pivot, not all of c.

The two kinds of search run in two loops. The unbounded one, ``_search``,
computes each column's step, L*w_c + lift[c], once per solve: a move by
c from the pivot p sets f to f less twice p's term plus step[c], less
twice the terms of the rest of the overlap. It orders its frontier by
(f, -g, mask): on the kernel, costs are packed charges, so g names the
columns taken and (f, g) names the state. It keeps only each state's
least known cost: its optimum is the packed cost, which
``kernel.backtrack`` decodes. The bounded one, ``_search_bounded``, is
short and computes f per move. It runs on whole-matrix weights, which
may tie, so it orders by (f, -g, steps, mask): ties go to the deeper
state, then to the smaller mask in the search's row numbering. Only it
keeps a parent pointer per state, to walk back to its witness.

An optional bound k restricts attention to solutions using at most k top
simplices. With uniform weights a chain never profits from being reached
in more steps, so states stay keyed by chain; with general weights the
key becomes (chain, steps), which is the layered view of the same graph.
One column flips at most cmax faces, the largest column size, so a state
with n faces after s steps is dropped when s + ceil(n / cmax) > k: no
solution within the bound passes through it.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Iterable, NamedTuple, Sequence

from .complexes import Gf2Matrix
from .errors import ConsistencyError, UsageError
from .gf2 import Gf2System, indices_from_mask
from .kernel import backtrack, reduce
from .results import SolveResult, Status

DEFAULT_MAX_STATES = 2_000_000


def pivot_keys(
    matrix: Gf2Matrix, bounded: bool, scale: int, hf: Sequence[int], lift: Sequence[int]
) -> list:
    """Each row's key; ``scale``, ``hf`` and ``lift`` are
    ``face_bounds(matrix)``. The search numbers the rows in ascending
    (key, index), so the pivot of a state is its lowest set bit.

    A bounded search keys a row by its coface degree; an unbounded one by
    (-step, degree), step being the least rise in f that a move from the
    row makes (see the module docstring), and a row with no column comes
    first.
    """
    row_cols = matrix.row_cols
    if bounded:
        return [len(cols) for cols in row_cols]
    # f rises by L*w_c + lift[c] - 2*hf[r] when c moves from r, no other row of c in the state
    rise = [scale * w + up for w, up in zip(matrix.col_weights, lift)]
    return [
        (2 * hf[r] - min(map(rise.__getitem__, cols)), len(cols)) if cols else (-math.inf, 0)
        for r, cols in enumerate(row_cols)
    ]


def row_order(keys: Sequence) -> list[int]:
    """The rows in ascending (key, index). The search gives row ``order[i]``
    bit i, so the pivot of a state is its lowest set bit."""
    return sorted(range(len(keys)), key=keys.__getitem__)


def face_bounds(matrix: Gf2Matrix) -> tuple[int, list[int], list[int]]:
    """The scale L, the per-face terms hf of the search's lower bound, and
    each column's lift, the sum of hf over its rows.

    L is the lcm of the nonempty column sizes. The terms pack the column
    weights: hf >= 0 and, for every column c, lift[c] is at most w_c*L. The
    bound of a state is the sum of hf over its faces, in units of 1/L; a
    move by c lowers it by at most lift[c] <= w_c*L, so it is consistent.

    hf starts from the even split, the least w_c*L/|c| over the columns c
    containing the face, and one pass over the rows in index order then
    raises each row by the least slack w_c*L - sum of hf over c among its
    columns, taking that amount off those columns' slack. Afterwards every
    row that lies in a column lies in one with no slack left. A face in no
    column keeps 0; a state holding one is a dead end anyway. With unit
    weights and equal column sizes every slack is 0, so the pass is
    skipped and the bound is the even split. lift[c] is w_c*L less c's
    slack.
    """
    col_rows = matrix.col_rows
    row_cols = matrix.row_cols
    scale = math.lcm(*map(len, filter(None, col_rows)))
    # w_c*L, each column's share of the bound
    cap = [w * scale for w in matrix.col_weights]
    split = [c // len(rs) if rs else 0 for c, rs in zip(cap, col_rows)]
    split_of = split.__getitem__
    hf = [min(map(split_of, cols)) if cols else 0 for cols in row_cols]
    hf_of = hf.__getitem__
    slack = [c - sum(map(hf_of, rs)) for c, rs in zip(cap, col_rows)]
    if any(slack):
        slack_of = slack.__getitem__
        for r, cols in enumerate(row_cols):
            if cols:
                d = min(map(slack_of, cols))
                if d:
                    hf[r] += d
                    for c in cols:
                        slack[c] -= d
    return scale, hf, [c - s for c, s in zip(cap, slack)]


class Numbering(NamedTuple):
    """One search's masks, in which row ``row_order(keys)[i]`` is bit i:
    each column's mask and the start mask. ``row_cols[i]`` and ``hf2[i]``
    are that row's columns and twice its bound term; ``scale`` and
    ``lift`` are ``face_bounds``'."""

    col_masks: list[int]
    start: int
    row_cols: list
    hf2: list[int]
    scale: int
    lift: list[int]


def number_rows(matrix: Gf2Matrix, start: int, bounded: bool) -> Numbering:
    """Number the rows of ``matrix`` for a search from the row mask
    ``start``, bounded or not, in ascending (key, index). The bound and the
    keys are computed on the rows' own order."""
    scale, hf, lift = face_bounds(matrix)
    order = row_order(pivot_keys(matrix, bounded, scale, hf, lift))
    row_cols = [matrix.row_cols[r] for r in order]
    col_masks = [0] * matrix.ncols
    numbered = 0
    for i, (r, cols) in enumerate(zip(order, row_cols)):
        b = 1 << i
        for c in cols:
            col_masks[c] |= b
        if start >> r & 1:
            numbered |= b
    hf2 = [2 * hf[r] for r in order]
    return Numbering(col_masks, numbered, row_cols, hf2, scale, lift)


def feasibility_check(col_masks: Sequence[int], target: int) -> bool:
    """Whether some set of the columns sums to ``target``, by elimination
    on masks in any row numbering the target shares: a renumbering of the
    rows changes no rank. The search's check goes through this name, which
    ``perfbench/spans.py`` times as ``complexes.feasibility``."""
    return Gf2System(col_masks).solve(target) is not None


def solve_mld_dijkstra(
    matrix: Gf2Matrix,
    target_rows: Iterable[int],
    *,
    k: int | None = None,
    max_states: int | None = None,
    timing: bool = False,
) -> SolveResult:
    """Run the search on the decoding view: rows are faces, columns moves.

    Without ``k``, the search runs on the instance's kernel, whose weights
    are all positive, so any weights are accepted, and decodes the
    canonical witness; with ``k``, on the whole matrix, whose weights must
    be non-negative (see the module docstring). The pivot key follows from
    whether ``k`` is given: the least rise in f without it, the coface
    degree with it. ``max_states`` (default ``DEFAULT_MAX_STATES``) caps
    the states stored; past it the search returns ``resource_limit``.
    Nothing else sets it. ``timing`` adds the wall seconds of the
    ``kernel`` (unbounded searches only), ``feasibility`` and ``search``
    phases to the stats.
    """
    if k is not None and k < 0:
        raise UsageError("k must be >= 0")
    if k is not None and any(w < 0 for w in matrix.col_weights):
        raise UsageError("a bounded search requires non-negative weights")
    if max_states is None:
        max_states = DEFAULT_MAX_STATES
    elif max_states < 1:
        raise UsageError(f"max_states must be >= 1, got {max_states}")

    start = matrix.target_mask(target_rows)

    stats: dict = {
        "algorithm": "dijkstra",
        "k": k,
        "states_expanded": 0,
        "pushes": 0,
        "frontier_peak": 0,
        "visited": 0,
        "monotone_frontier": True,
    }

    began = time.perf_counter()
    space = matrix
    if k is None:
        kern = reduce(matrix, start)
        space, start = kern.matrix, kern.target
        if min(space.col_weights, default=1) <= 0:
            raise ConsistencyError("kernel column weights must be positive")
    reduced = time.perf_counter()
    numbering = number_rows(space, start, k is not None)
    numbered = time.perf_counter()
    feasible = feasibility_check(numbering.col_masks, numbering.start)
    checked = time.perf_counter()
    if not feasible:
        result = SolveResult(Status.INFEASIBLE, stats=stats)
    elif k is None:
        result = _search(space, numbering, max_states, stats)
    else:
        result = _search_bounded(space, numbering, k, max_states, stats)
    if k is None and result.is_optimal:
        weight, witness = backtrack(matrix, kern, result.weight)
        result = SolveResult(Status.OPTIMAL, weight, witness, stats)
    if timing:
        phases = {"kernel": reduced - began} if k is None else {}
        phases["feasibility"] = checked - numbered
        # the numbering is the search's setup, which the check shares
        phases["search"] = numbered - reduced + time.perf_counter() - checked
        stats["phases"] = phases
    return result


def _search(matrix: Gf2Matrix, numbering: Numbering, max_states: int, stats: dict) -> SolveResult:
    """The unbounded search on ``matrix`` from the start mask of its
    ``numbering``, ``number_rows(matrix, ..., False)``; fills ``stats``.

    Each column's step, L*w_c + lift[c], is computed once: a move by c from
    the pivot p sets f to f - hf2[p] + step[c], less hf2 over the rest of
    c's overlap with the state. Heap entries are (f, -g, mask): on the
    kernel, costs are packed charges, so g names the columns taken and
    (f, g) the state. On a whole matrix, as some tests run it, ties in
    (f, g) go to the smaller mask. No parent pointers are kept: the
    optimum's weight is the packed kernel cost, which ``kernel.backtrack``
    decodes, and its witness is None.
    """
    col_masks, start, row_cols, hf2, scale, lift = numbering
    if start == 0:
        stats["visited"] = 1
        return SolveResult(Status.OPTIMAL, 0, frozenset(), stats)

    weights = matrix.col_weights
    step = [scale * w + up for w, up in zip(weights, lift)]
    heappop = heapq.heappop
    heappush = heapq.heappush

    # mask -> least known cost
    best = {start: 0}
    best_of = best.get
    # entries (f, -g, mask) with f = L*g + h
    heap = [(sum(map(hf2.__getitem__, indices_from_mask(start))) // 2, 0, start)]
    prev_f = 0
    # the counters live in locals and reach stats on every way out
    expanded = 0
    pushes = 1
    frontier_peak = 1
    monotone = True

    try:
        while heap:
            f, neg_cost, mask = heappop(heap)
            cost = -neg_cost
            # a cheaper entry for this state came first: the bound is
            # consistent, so a settled state is never improved or reopened
            if best[mask] != cost:
                continue
            expanded += 1
            if f < prev_f:
                monotone = False
            prev_f = f
            if mask == 0:
                return SolveResult(Status.OPTIMAL, cost, None, stats)

            low = mask & -mask
            p = low.bit_length() - 1
            rest = mask ^ low
            f -= hf2[p]
            for col in row_cols[p]:
                cm = col_masks[col]
                nmask = mask ^ cm
                ncost = cost + weights[col]
                old = best_of(nmask)
                if old is not None and old <= ncost:
                    continue
                if old is None and len(best) >= max_states:
                    return SolveResult(Status.RESOURCE_LIMIT, stats=stats)
                best[nmask] = ncost
                nf = f + step[col]
                both = rest & cm
                while both:
                    b = both & -both
                    nf -= hf2[b.bit_length() - 1]
                    both ^= b
                heappush(heap, (nf, -ncost, nmask))
                pushes += 1
            if len(heap) > frontier_peak:
                frontier_peak = len(heap)

        return SolveResult(Status.INFEASIBLE, stats=stats)
    finally:
        stats["states_expanded"] = expanded
        stats["pushes"] = pushes
        stats["frontier_peak"] = frontier_peak
        stats["visited"] = len(best)
        stats["monotone_frontier"] = monotone


def _search_bounded(
    matrix: Gf2Matrix, numbering: Numbering, k: int, max_states: int, stats: dict
) -> SolveResult:
    """The search for a solution of at most ``k`` columns on ``matrix``
    from the start mask of its ``numbering``, ``number_rows(matrix, ...,
    True)``; fills ``stats``.

    Heap entries are (f, -g, steps, mask): whole-matrix weights may tie,
    so ties go to the deeper state, then to the smaller mask. f is computed
    per move, as L*g + h: these searches are short, most settling fewer
    states than the matrix has columns, so a step per column would cost
    more than it saves. A state is keyed by its mask under
    uniform weights, else by (mask, steps), and the search walks its parent
    pointers back to the witness.
    """
    col_masks, start, row_cols, hf2, scale, lift = numbering
    if start == 0:
        stats["visited"] = 1
        return SolveResult(Status.OPTIMAL, 0, frozenset(), stats)

    weights = matrix.col_weights
    chain_keyed = matrix.has_uniform_weights
    cmax = max(map(len, matrix.col_rows), default=1)
    heappop = heapq.heappop
    heappush = heapq.heappush

    # key -> least known cost; a key is the mask, or (mask, steps)
    start_key = start if chain_keyed else (start, 0)
    best: dict = {start_key: 0}
    best_of = best.get
    # key -> (parent key, column)
    parents: dict = {start_key: None}
    # entries (f, -g, steps, mask) with f = L*g + h
    heap = [(sum(map(hf2.__getitem__, indices_from_mask(start))) // 2, 0, 0, start)]
    prev_f = 0
    # the counters live in locals and reach stats on every way out
    expanded = 0
    pushes = 1
    frontier_peak = 1
    monotone = True

    try:
        while heap:
            f, neg_cost, steps, mask = heappop(heap)
            key = mask if chain_keyed else (mask, steps)
            cost = -neg_cost
            # a cheaper entry for this state came first: the bound is
            # consistent, so a settled state is never improved or reopened
            if best[key] != cost:
                continue
            expanded += 1
            if f < prev_f:
                monotone = False
            prev_f = f

            if mask == 0:
                used = 0
                link = parents[key]
                while link is not None:
                    key, col = link
                    used ^= 1 << col
                    link = parents[key]
                witness = frozenset(indices_from_mask(used))
                weight = matrix.weight_of(witness)
                if weight != cost:
                    raise ConsistencyError(
                        f"path cost {cost} disagrees with witness weight {weight}"
                    )
                return SolveResult(Status.OPTIMAL, cost, witness, stats)

            if steps >= k:
                continue
            nsteps = steps + 1
            # the faces the remaining k - nsteps columns can still clear
            room = (k - nsteps) * cmax
            low = mask & -mask
            p = low.bit_length() - 1
            # a move by c adds c's rows outside the state and removes those
            # inside it, the pivot among them: h changes by lift[c] less twice
            # the terms of the overlap
            h = f - scale * cost - hf2[p]
            for col in row_cols[p]:
                cm = col_masks[col]
                nmask = mask ^ cm
                if nmask.bit_count() > room:
                    continue
                nkey = nmask if chain_keyed else (nmask, nsteps)
                ncost = cost + weights[col]
                old = best_of(nkey)
                if old is not None and old <= ncost:
                    continue
                if old is None and len(best) >= max_states:
                    return SolveResult(Status.RESOURCE_LIMIT, stats=stats)
                best[nkey] = ncost
                parents[nkey] = (key, col)
                nh = h + lift[col]
                both = mask & cm ^ low
                while both:
                    b = both & -both
                    nh -= hf2[b.bit_length() - 1]
                    both ^= b
                heappush(heap, (scale * ncost + nh, -ncost, nsteps, nmask))
                pushes += 1
            if len(heap) > frontier_peak:
                frontier_peak = len(heap)

        return SolveResult(Status.NOT_FOUND_WITHIN_BOUND, stats=stats)
    finally:
        stats["states_expanded"] = expanded
        stats["pushes"] = pushes
        stats["frontier_peak"] = frontier_peak
        stats["visited"] = len(best)
        stats["monotone_frontier"] = monotone
