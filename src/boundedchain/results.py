"""Solver result and status types shared by every algorithm."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    NOT_FOUND_WITHIN_BOUND = "not_found_within_bound"
    RESOURCE_LIMIT = "resource_limit"


# Process exit codes for the CLI; anything thrown (usage, input, bugs) is 1.
EXIT_CODES = {
    Status.OPTIMAL: 0,
    Status.INFEASIBLE: 2,
    Status.NOT_FOUND_WITHIN_BOUND: 3,
    Status.RESOURCE_LIMIT: 4,
}
# `mbc verify` when the oracle ran out of budget and nothing refutes the claim.
EXIT_UNDECIDED = 5


@dataclass
class SolveResult:
    """Outcome of one solver run.

    weight and witness are meaningful only when status is OPTIMAL; the
    witness is a set of column indices (equivalently top-simplex indices
    for chain instances). stats carries deterministic counters only, so
    serialized results are reproducible byte for byte.
    """

    status: Status
    weight: int | None = None
    witness: frozenset[int] | None = None
    stats: dict = field(default_factory=dict)

    @property
    def is_optimal(self) -> bool:
        return self.status is Status.OPTIMAL
