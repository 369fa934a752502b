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
from .dijkstra import solve_mld_dijkstra
from .errors import ConsistencyError, UsageError
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
    if rows:
        for r in (min(rows), max(rows)):
            if not 0 <= r < matrix.nrows:
                raise UsageError(f"target row {r} out of range")
    return Instance(matrix, rows)


def verify_witness(instance: Instance, result: SolveResult) -> None:
    """Re-check an optimal result against the instance; raises on any lie."""
    if result.status is not Status.OPTIMAL:
        return
    if result.witness is None or result.weight is None:
        raise ConsistencyError("optimal result without witness or weight")
    parity: set[int] = set()  # the rows an odd number of witness columns hit
    col_rows = instance.matrix.col_rows
    for c in result.witness:
        parity.symmetric_difference_update(col_rows[c])
    if parity != instance.target:
        raise ConsistencyError("witness does not hit the target")
    if instance.matrix.weight_of(result.witness) != result.weight:
        raise ConsistencyError("reported weight disagrees with the witness")


def solve(
    instance: Instance,
    algorithm: str,
    *,
    k: int | None = None,
    ntd=None,
    max_states: int | None = None,
    timing: bool = False,
) -> SolveResult:
    """Dispatch to one solver and verify whatever it claims.

    ``k`` bounds the solution size for dijkstra and brute; dijkstra's
    pivot key follows from whether it is given, and no option picks it.
    Timing is opt-in so that default outputs stay byte-reproducible. It
    adds ``wall_time_s`` and ``phases``, the wall seconds of each phase:
    ``verify`` for every engine, ``kernel`` for treewidth and an unbounded
    search, ``decompose`` and ``dp`` for treewidth (which also reports
    ``peak_table`` and ``join_bags``), and ``feasibility`` and ``search``
    for dijkstra.
    """
    if algorithm not in ALGORITHMS:
        raise UsageError(f"unknown algorithm {algorithm!r}; pick from {ALGORITHMS}")
    if k is not None and algorithm not in ("dijkstra", "brute"):
        raise UsageError(f"the size bound k applies to dijkstra and brute, not {algorithm}")
    if ntd is not None and algorithm != "treewidth":
        raise UsageError(f"a tree decomposition applies to treewidth only, not {algorithm}")
    if max_states is not None and algorithm != "dijkstra":
        raise UsageError(f"a state budget applies to dijkstra only, not {algorithm}")
    start = time.perf_counter()
    if algorithm == "mbc1":
        result = solve_mbc1(instance.matrix, instance.target)
    elif algorithm == "dijkstra":
        result = solve_mld_dijkstra(
            instance.matrix, instance.target, k=k, max_states=max_states, timing=timing
        )
    elif algorithm == "treewidth":
        result = solve_mld_treewidth(instance.matrix, instance.target, ntd=ntd, timing=timing)
    else:
        result = brute_force_mld(instance.matrix, instance.target, k=k)
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
