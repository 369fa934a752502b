"""One entry point over all solvers, with mandatory post-solve verification.

Every instance is carried in its decoding form (a GF(2) matrix plus
target rows), and every engine solves that form. A chain instance also
keeps its slice, so results can be reported as simplices; its target
rows are the face indices of the boundary. Any optimal result is
re-checked against the instance before being returned; a failure there
is a bug and raises, never a silently wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

from .complexes import ComplexSlice, Gf2Matrix, boundary_matrix
from .dijkstra import PIVOT_MIN_COFACE, solve_mld_dijkstra
from .errors import ConsistencyError, ResourceLimitError, UsageError
from .gf2 import mask_from_indices
from .mbc1 import solve_mbc1
from .oracle import brute_force_mld
from .results import SolveResult, Status
from .treewidth import solve_mld_treewidth

ALGORITHMS = ("mbc1", "dijkstra", "treewidth", "brute")


@dataclass
class Instance:
    """A solvable problem: matrix view always, slice view when chain-backed."""

    matrix: Gf2Matrix
    target: frozenset[int]
    cslice: ComplexSlice | None = None

    @property
    def scale(self) -> int:
        return self.matrix.scale

    @property
    def boundary(self) -> frozenset[int] | None:
        """The boundary's face indices, which are the target rows; None without a slice."""
        return self.target if self.cslice is not None else None


def instance_from_complex(cslice: ComplexSlice, boundary: Iterable[int]) -> Instance:
    """Phrase a bounded-chain question as decoding: boundary matrix, faces as target."""
    instance = instance_from_matrix(boundary_matrix(cslice), boundary)
    instance.cslice = cslice
    return instance


def instance_from_matrix(matrix: Gf2Matrix, target: Iterable[int]) -> Instance:
    rows = frozenset(target)
    matrix.target_mask(rows)
    return Instance(matrix, rows)


def verify_witness(instance: Instance, result: SolveResult) -> None:
    """Re-check an optimal result against the instance; raises on any lie."""
    if result.status is not Status.OPTIMAL:
        return
    if result.witness is None or result.weight is None:
        raise ConsistencyError("optimal result without witness or weight")
    product = instance.matrix.product_mask(result.witness)
    if product != mask_from_indices(instance.target):
        raise ConsistencyError("witness does not hit the target")
    if instance.matrix.weight_of(result.witness) != result.weight:
        raise ConsistencyError("reported weight disagrees with the witness")


def solve(
    instance: Instance,
    algorithm: str,
    *,
    k: int | None = None,
    pivot: str = PIVOT_MIN_COFACE,
    ntd=None,
    td_heuristic: str = "min-fill",
    check_feasibility: bool = True,
    max_states: int | None = None,
    oracle_mode: str = "auto",
    timing: bool = False,
) -> SolveResult:
    """Dispatch to one solver and verify whatever it claims.

    Timing is opt-in so that default outputs stay byte-reproducible. It
    adds ``wall_time_s`` and ``phases``, the wall seconds of each phase:
    ``verify`` for every engine, ``decompose`` and ``dp`` for treewidth
    (which also reports ``peak_table``), ``feasibility`` and ``search``
    for dijkstra.
    """
    if algorithm not in ALGORITHMS:
        raise UsageError(f"unknown algorithm {algorithm!r}; pick from {ALGORITHMS}")
    if k is not None and algorithm != "dijkstra":
        raise UsageError(f"the size bound k applies to dijkstra only, not {algorithm}")
    if ntd is not None and algorithm != "treewidth":
        raise UsageError(f"a tree decomposition applies to treewidth only, not {algorithm}")
    start = time.perf_counter()
    if algorithm == "mbc1":
        result = solve_mbc1(instance.matrix, instance.target)
    elif algorithm == "dijkstra":
        result = solve_mld_dijkstra(
            instance.matrix,
            sorted(instance.target),
            k=k,
            pivot=pivot,
            check_feasibility=check_feasibility,
            max_states=max_states,
            timing=timing,
        )
    elif algorithm == "treewidth":
        result = solve_mld_treewidth(
            instance.matrix,
            sorted(instance.target),
            ntd=ntd,
            heuristic=td_heuristic,
            timing=timing,
        )
    else:
        try:
            result = brute_force_mld(instance.matrix, sorted(instance.target), mode=oracle_mode)
        except ResourceLimitError as exc:
            return SolveResult(
                Status.RESOURCE_LIMIT,
                stats={"algorithm": "brute", "reason": str(exc)},
            )
    solved = time.perf_counter()
    verify_witness(instance, result)
    if result.status is Status.OPTIMAL:
        result.stats["verified"] = True
    if timing:
        end = time.perf_counter()
        result.stats.setdefault("phases", {})["verify"] = end - solved
        result.stats["wall_time_s"] = end - start
    return result


def result_to_json_dict(instance: Instance, result: SolveResult) -> dict:
    """The documented JSON shape; deterministic for deterministic stats."""
    solution = None
    if result.status is Status.OPTIMAL:
        cols = sorted(result.witness)
        if instance.cslice is not None:
            solution = [list(instance.cslice.top[j]) for j in cols]
        else:
            solution = cols
    return {
        "status": result.status.value,
        "weight": result.weight if result.status is Status.OPTIMAL else None,
        "scale": instance.scale,
        "solution": solution,
        "stats": dict(result.stats),
    }
