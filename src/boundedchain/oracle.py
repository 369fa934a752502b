"""Ground-truth reference solvers: full enumeration, nothing clever.

These exist to pin down expected values for the real solvers, so they
favour obvious correctness over speed. Exhaustive mode walks all 2^n
column subsets in Gray-code order; kernel mode enumerates one solution
plus the span of the kernel, which is exact for any weights because every
solution is visited. Like every engine, both take a matrix and target rows.
"""

from __future__ import annotations

from .complexes import Gf2Matrix
from .errors import ResourceLimitError, UsageError
from .gf2 import Gf2System, indices_from_mask
from .results import SolveResult, Status

EXHAUSTIVE_LIMIT = 20
KERNEL_LIMIT = 20
ORACLE_MODES = ("auto", "exhaustive", "kernel")


def _exhaustive(matrix: Gf2Matrix, target: int) -> SolveResult:
    n = matrix.ncols
    masks = matrix.col_masks
    weights = matrix.col_weights
    best_w = None
    best_x = None
    x = 0
    bnd = 0
    w = 0
    if bnd == target:
        best_w, best_x = w, x
    for i in range(1, 1 << n):
        j = (i & -i).bit_length() - 1
        bit = 1 << j
        x ^= bit
        bnd ^= masks[j]
        w += weights[j] if x & bit else -weights[j]
        if bnd == target and (best_w is None or w < best_w):
            best_w, best_x = w, x
    stats = {"algorithm": "brute", "mode": "exhaustive", "enumerated": 1 << n}
    if best_w is None:
        return SolveResult(Status.INFEASIBLE, stats=stats)
    return SolveResult(
        Status.OPTIMAL, best_w, frozenset(indices_from_mask(best_x)), stats
    )


def _kernel(matrix: Gf2Matrix, target: int, kernel_limit: int) -> SolveResult:
    system = Gf2System(matrix.col_masks)
    x0 = system.solve(target)
    kdim = len(system.kernel)
    stats = {"algorithm": "brute", "mode": "kernel", "kernel_dim": kdim}
    if x0 is None:
        stats["enumerated"] = 0
        return SolveResult(Status.INFEASIBLE, stats=stats)
    if kdim > kernel_limit:
        raise ResourceLimitError(
            f"kernel dimension {kdim} exceeds enumeration limit {kernel_limit}"
        )
    weights = matrix.col_weights

    def weight_of_mask(m: int) -> int:
        return sum(weights[j] for j in indices_from_mask(m))

    x = x0
    w = weight_of_mask(x0)
    best_w, best_x = w, x
    for i in range(1, 1 << kdim):
        j = (i & -i).bit_length() - 1
        basis = system.kernel[j]
        x ^= basis
        for t in indices_from_mask(basis):
            w += weights[t] if (x >> t) & 1 else -weights[t]
        if w < best_w:
            best_w, best_x = w, x
    stats["enumerated"] = 1 << kdim
    return SolveResult(
        Status.OPTIMAL, best_w, frozenset(indices_from_mask(best_x)), stats
    )


def brute_force_mld(
    matrix: Gf2Matrix,
    target_rows,
    mode: str = "auto",
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
    kernel_limit: int = KERNEL_LIMIT,
) -> SolveResult:
    """Minimum-weight solution of A x = u by enumeration.

    mode: "exhaustive" (all 2^n subsets, n <= exhaustive_limit), "kernel"
    (one solution plus kernel span, dimension <= kernel_limit), or "auto"
    which picks exhaustive for small n and falls back to kernel mode.
    Raises ResourceLimitError when the chosen mode is over its limit.
    """
    target = matrix.target_mask(target_rows)
    if mode not in ORACLE_MODES:
        raise UsageError(f"unknown oracle mode {mode!r}")
    if mode == "exhaustive":
        if matrix.ncols > exhaustive_limit:
            raise ResourceLimitError(
                f"{matrix.ncols} columns exceed exhaustive limit {exhaustive_limit}"
            )
        return _exhaustive(matrix, target)
    if mode == "kernel":
        return _kernel(matrix, target, kernel_limit)
    if matrix.ncols <= exhaustive_limit:
        return _exhaustive(matrix, target)
    return _kernel(matrix, target, kernel_limit)

