"""Best-first search for minimum bounded chains in any dimension.

The search space has one state per (d-1)-chain. From a chain, pick one
pivot face in it; every top simplex containing the pivot gives a successor
chain by symmetric-differencing in that simplex's boundary, at the cost of
its weight. Restricting moves to cofaces of a single pivot keeps the
branching factor at the pivot's coface degree without losing optimality:
any bounding chain must cover each boundary face an odd number of times,
so it contains a coface of whatever pivot is current.

The default pivot is a face of least coface degree, ties to the smaller
index. It is found without walking the state: the rows are grouped into
one mask per distinct coface degree, built once per solve, and the pivot
is the lowest set bit of the state ANDed with the first of those masks, in
ascending degree, that meets it.

The search runs on the decoding view only: a state is the bitmask of its
faces (rows) and a move is a column. A chain question reaches it through
``facade.solve(instance_from_complex(...), "dijkstra")``.

States are settled in A* order (Hart, Nilsson and Raphael 1968): by
L*g + h, where g is the cost so far and h a lower bound on the cost still
to pay, both scaled by L, the lcm of the nonempty column sizes, so that
every value is an exact integer. Each face f of a state has to be cleared
by some column c containing it, and c clears at most |c| faces for w_c, so
hf[f] = min over c containing f of w_c*L/|c|, and h is the sum of hf over
the faces of the state. A move by c changes h by at least -L*w_c, so h is
consistent: with non-negative weights the first settled empty chain is an
exact optimum, and settled priorities never decrease. A move changes h only
on the rows of its column, so h is updated in O(|c|) and travels in the
heap entry. Ties go to the deeper state, then to the smaller mask.

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
import os
import time
from typing import Iterable, Sequence

from .complexes import Gf2Matrix, feasibility_check
from .errors import ConsistencyError, UsageError
from .gf2 import indices_from_mask
from .results import SolveResult, Status

PIVOT_MIN_INDEX = "min-index"
PIVOT_MIN_COFACE = "min-coface"
PIVOT_MAX_INDEX = "max-index"
PIVOT_STRATEGIES = (PIVOT_MIN_INDEX, PIVOT_MIN_COFACE, PIVOT_MAX_INDEX)

DEFAULT_MAX_STATES = 2_000_000
MAX_STATES_ENV = "MBC_MAX_STATES"


def degree_masks(cofdeg: Sequence[int]) -> list[int]:
    """One row mask per distinct coface degree, in ascending degree."""
    by_degree: dict[int, int] = {}
    for r, d in enumerate(cofdeg):
        by_degree[d] = by_degree.get(d, 0) | 1 << r
    return [by_degree[d] for d in sorted(by_degree)]


def _pivot_from_mask(mask: int, strategy: str, deg_masks: Sequence[int]) -> int:
    """The pivot row of a nonempty state; deg_masks come from degree_masks."""
    if strategy == PIVOT_MIN_INDEX:
        return (mask & -mask).bit_length() - 1
    if strategy == PIVOT_MAX_INDEX:
        return mask.bit_length() - 1
    for dm in deg_masks:
        m = mask & dm
        if m:
            return (m & -m).bit_length() - 1


def _default_max_states(max_states: int | None) -> int:
    source = "max_states"
    if max_states is None:
        env = os.environ.get(MAX_STATES_ENV)
        if not env:
            return DEFAULT_MAX_STATES
        source = MAX_STATES_ENV
        try:
            max_states = int(env)
        except ValueError:
            raise UsageError(f"{MAX_STATES_ENV} must be an integer, got {env!r}")
    if max_states < 1:
        raise UsageError(f"{source} must be >= 1, got {max_states}")
    return max_states


def face_bounds(matrix: Gf2Matrix) -> tuple[int, list[int]]:
    """The scale L and the per-face terms hf of the search's lower bound.

    L is the lcm of the nonempty column sizes and hf[f] the least
    w_c*L/|c| over the columns c containing f (0 for a face in no column;
    a state holding one is a dead end anyway). The bound of a state is the
    sum of hf over its faces, in units of 1/L.
    """
    col_rows = matrix.col_rows
    weights = matrix.col_weights
    scale = math.lcm(*(len(rs) for rs in col_rows if rs))
    hf = [
        min((weights[c] * scale // len(col_rows[c]) for c in cols), default=0)
        for cols in matrix.row_cols
    ]
    return scale, hf


def solve_mld_dijkstra(
    matrix: Gf2Matrix,
    target_rows: Iterable[int],
    *,
    k: int | None = None,
    pivot: str = PIVOT_MIN_COFACE,
    check_feasibility: bool = True,
    max_states: int | None = None,
    timing: bool = False,
) -> SolveResult:
    """Run the search on the decoding view: rows are faces, columns moves.

    ``timing`` adds the wall seconds of the ``feasibility`` and ``search``
    phases to the stats.
    """
    if pivot not in PIVOT_STRATEGIES:
        raise UsageError(f"unknown pivot strategy {pivot!r}")
    if any(w < 0 for w in matrix.col_weights):
        raise UsageError("this search requires non-negative weights")
    if k is not None and k < 0:
        raise UsageError("k must be >= 0")
    max_states = _default_max_states(max_states)

    rows = tuple(target_rows)
    start = matrix.target_mask(rows)

    stats: dict = {
        "algorithm": "dijkstra",
        "pivot": pivot,
        "k": k,
        "feasibility_checked": bool(check_feasibility),
        "states_expanded": 0,
        "pushes": 0,
        "frontier_peak": 0,
        "visited": 0,
        "monotone_frontier": True,
    }

    if timing:
        began = time.perf_counter()
    feasible = not check_feasibility or feasibility_check(matrix, rows)[0]
    if timing:
        checked = time.perf_counter()
    if feasible:
        result = _search(matrix, start, k, pivot, max_states, stats)
    else:
        result = SolveResult(Status.INFEASIBLE, stats=stats)
    if timing:
        stats["phases"] = {"feasibility": checked - began, "search": time.perf_counter() - checked}
    return result


def _search(
    matrix: Gf2Matrix, start: int, k: int | None, pivot: str, max_states: int, stats: dict
) -> SolveResult:
    """The best-first search from the target mask ``start``; fills ``stats``."""
    if start == 0:
        stats["visited"] = 1
        return SolveResult(Status.OPTIMAL, 0, frozenset(), stats)

    col_masks = matrix.col_masks
    col_rows = matrix.col_rows
    row_cols = matrix.row_cols
    weights = matrix.col_weights
    deg_masks = degree_masks([len(cs) for cs in row_cols])
    chain_keyed = k is None or matrix.has_uniform_weights
    scale, hf = face_bounds(matrix)
    cmax = max(map(len, col_rows), default=1)

    # key -> (cost, parent key, column); a key is the mask, or (mask, steps)
    start_key = start if chain_keyed else (start, 0)
    best: dict = {start_key: (0, None, None)}
    # entries (f, -g, steps, mask) with f = L*g + h
    heap = [(sum(hf[r] for r in indices_from_mask(start)), 0, 0, start)]
    stats["pushes"] = 1
    stats["frontier_peak"] = 1
    settled = set()
    prev_f = 0

    while heap:
        f, neg_cost, steps, mask = heapq.heappop(heap)
        key = mask if chain_keyed else (mask, steps)
        if key in settled:
            continue
        settled.add(key)
        stats["states_expanded"] += 1
        if f < prev_f:
            stats["monotone_frontier"] = False
        prev_f = f
        cost = -neg_cost

        if mask == 0:
            used = 0
            _, parent, col = best[key]
            while parent is not None:
                used ^= 1 << col
                _, parent, col = best[parent]
            witness = frozenset(indices_from_mask(used))
            weight = matrix.weight_of(witness)
            if weight != cost:
                raise ConsistencyError(
                    f"path cost {cost} disagrees with witness weight {weight}"
                )
            stats["visited"] = len(best)
            return SolveResult(Status.OPTIMAL, cost, witness, stats)

        if k is not None and steps >= k:
            continue
        h = f - scale * cost
        nsteps = steps + 1
        p = _pivot_from_mask(mask, pivot, deg_masks)
        for col in row_cols[p]:
            nmask = mask ^ col_masks[col]
            # the remaining k - nsteps columns must clear every face left
            if k is not None and nmask.bit_count() > (k - nsteps) * cmax:
                continue
            nkey = nmask if chain_keyed else (nmask, nsteps)
            if nkey in settled:
                continue
            ncost = cost + weights[col]
            old = best.get(nkey)
            if old is not None and old[0] <= ncost:
                continue
            if old is None and len(best) >= max_states:
                stats["visited"] = len(best)
                return SolveResult(Status.RESOURCE_LIMIT, stats=stats)
            best[nkey] = (ncost, key, col)
            nh = h
            for r in col_rows[col]:
                nh += -hf[r] if mask >> r & 1 else hf[r]
            heapq.heappush(heap, (scale * ncost + nh, -ncost, nsteps, nmask))
            stats["pushes"] += 1
        if len(heap) > stats["frontier_peak"]:
            stats["frontier_peak"] = len(heap)

    stats["visited"] = len(best)
    if k is None:
        return SolveResult(Status.INFEASIBLE, stats=stats)
    return SolveResult(Status.NOT_FOUND_WITHIN_BOUND, stats=stats)
