"""Ground-truth reference solvers: full enumeration, nothing clever.

These exist to pin down expected values for the real solvers, so they
favour obvious correctness over speed. Exhaustive mode walks all 2^n
column subsets in Gray-code order; kernel mode enumerates one solution
plus the span of the kernel, which is exact for any weights because every
solution is visited. Like every engine, both take a matrix and target rows
and an optional size bound k, and keep the least (weight, column mask)
solution with at most k columns, so the witness does not depend on the
enumeration order: without k it is the canonical witness that treewidth
and the unbounded search return. Over its enumeration limit the oracle
returns ``resource_limit``.
"""

from __future__ import annotations

from .complexes import Gf2Matrix
from .errors import UsageError
from .gf2 import Gf2System, indices_from_mask
from .results import SolveResult, Status

ENUMERATION_LIMIT = 20  # most columns (exhaustive) or kernel dimensions (kernel)
ORACLE_MODES = ("auto", "exhaustive", "kernel")


def _result(best_w, best_x, feasible: bool, stats: dict) -> SolveResult:
    if best_x is not None:
        return SolveResult(
            Status.OPTIMAL, best_w, frozenset(indices_from_mask(best_x)), stats
        )
    if feasible:
        return SolveResult(Status.NOT_FOUND_WITHIN_BOUND, stats=stats)
    return SolveResult(Status.INFEASIBLE, stats=stats)


def _exhaustive(matrix: Gf2Matrix, target: int, k: int, stats: dict) -> SolveResult:
    n = matrix.ncols
    masks = matrix.col_masks
    weights = matrix.col_weights
    best_w = None
    best_x = None
    feasible = target == 0
    if feasible:
        best_w, best_x = 0, 0
    x = 0
    bnd = 0
    w = 0
    for i in range(1, 1 << n):
        j = (i & -i).bit_length() - 1
        bit = 1 << j
        x ^= bit
        bnd ^= masks[j]
        w += weights[j] if x & bit else -weights[j]
        if bnd == target:
            feasible = True
            if (best_x is None or (w, x) < (best_w, best_x)) and x.bit_count() <= k:
                best_w, best_x = w, x
    stats.update(mode="exhaustive", enumerated=1 << n)
    return _result(best_w, best_x, feasible, stats)


def _kernel(matrix: Gf2Matrix, target: int, k: int, stats: dict) -> SolveResult:
    system = Gf2System(matrix.col_masks)
    x0 = system.solve(target)
    kdim = len(system.kernel)
    if x0 is None:
        stats.update(mode="kernel", kernel_dim=kdim, enumerated=0)
        return SolveResult(Status.INFEASIBLE, stats=stats)
    if kdim > ENUMERATION_LIMIT:
        stats["reason"] = (
            f"kernel dimension {kdim} exceeds enumeration limit {ENUMERATION_LIMIT}"
        )
        return SolveResult(Status.RESOURCE_LIMIT, stats=stats)
    weights = matrix.col_weights
    x = x0
    w = matrix.weight_of(indices_from_mask(x0))
    best_w, best_x = (w, x) if x.bit_count() <= k else (None, None)
    for i in range(1, 1 << kdim):
        j = (i & -i).bit_length() - 1
        basis = system.kernel[j]
        x ^= basis
        for t in indices_from_mask(basis):
            w += weights[t] if (x >> t) & 1 else -weights[t]
        if (best_x is None or (w, x) < (best_w, best_x)) and x.bit_count() <= k:
            best_w, best_x = w, x
    stats.update(mode="kernel", kernel_dim=kdim, enumerated=1 << kdim)
    return _result(best_w, best_x, True, stats)


def brute_force_mld(
    matrix: Gf2Matrix,
    target_rows,
    mode: str = "auto",
    k: int | None = None,
) -> SolveResult:
    """Minimum-weight solution of A x = u with at most k columns, by enumeration.

    mode: "exhaustive" (all 2^n subsets), "kernel" (one solution plus the
    kernel span), or "auto", which picks exhaustive for small n and falls
    back to kernel mode. Each mode enumerates at most 2^ENUMERATION_LIMIT
    candidates and returns ``resource_limit`` beyond that. With ``k``, a
    feasible instance whose solutions all have more than k columns is
    ``not_found_within_bound``; ``stats["k"]`` records the bound.
    """
    target = matrix.target_mask(target_rows)
    if mode not in ORACLE_MODES:
        raise UsageError(f"unknown oracle mode {mode!r}")
    if k is not None and k < 0:
        raise UsageError("k must be >= 0")
    stats: dict = {"algorithm": "brute"}
    if k is not None:
        stats["k"] = k
    bound = matrix.ncols if k is None else k
    if mode == "kernel" or (mode == "auto" and matrix.ncols > ENUMERATION_LIMIT):
        return _kernel(matrix, target, bound, stats)
    if matrix.ncols > ENUMERATION_LIMIT:
        stats["reason"] = (
            f"{matrix.ncols} columns exceed exhaustive limit {ENUMERATION_LIMIT}"
        )
        return SolveResult(Status.RESOURCE_LIMIT, stats=stats)
    return _exhaustive(matrix, target, bound, stats)
