"""Exact solvers for minimum bounded chains and GF(2) decoding.

The package works with two equivalent views of the same problem. The
combinatorial view asks for a lightest d-chain whose boundary equals a
given (d-1)-chain in a simplicial complex. The algebraic view asks for a
lightest column subset of a GF(2) matrix whose sum hits a target vector.
`facade.solve` accepts either and dispatches to one of four engines, all
on the algebraic view: the polynomial matching solver for graph matrices
(dimension one), a best-first search over partial boundaries, a dynamic
program over a tree decomposition of the incidence graph, and a
brute-force oracle used for cross-checking.
"""

from .chains import Chain, Simplex, boundary_chain, boundary_simplex, chain_add, chain_weight
from .complexes import (
    ComplexSlice,
    Gf2Matrix,
    boundary_matrix,
    build_slice,
    feasibility_check,
    hasse_graph,
)
from .decomposition import (
    Graph,
    NiceTreeDecomposition,
    TreeDecomposition,
    greedy_decomposition,
    make_nice,
    validate_decomposition,
    validate_nice,
)
from .dijkstra import solve_mld_dijkstra
from .errors import (
    BoundedChainError,
    ConsistencyError,
    InputError,
    ResourceLimitError,
    UsageError,
)
from .facade import (
    ALGORITHMS,
    Instance,
    instance_from_complex,
    instance_from_matrix,
    result_to_json_dict,
    solve,
    verify_witness,
)
from .gf2 import Gf2System
from .mbc1 import distance_closure, min_weight_perfect_matching, solve_mbc1
from .oracle import brute_force_mld
from .results import EXIT_CODES, SolveResult, Status
from .treewidth import solve_mld_treewidth

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BoundedChainError",
    "Chain",
    "ComplexSlice",
    "ConsistencyError",
    "EXIT_CODES",
    "Gf2Matrix",
    "Gf2System",
    "Graph",
    "InputError",
    "Instance",
    "NiceTreeDecomposition",
    "ResourceLimitError",
    "Simplex",
    "SolveResult",
    "Status",
    "TreeDecomposition",
    "UsageError",
    "boundary_chain",
    "boundary_matrix",
    "boundary_simplex",
    "brute_force_mld",
    "build_slice",
    "chain_add",
    "chain_weight",
    "distance_closure",
    "feasibility_check",
    "greedy_decomposition",
    "hasse_graph",
    "instance_from_complex",
    "instance_from_matrix",
    "make_nice",
    "min_weight_perfect_matching",
    "result_to_json_dict",
    "solve",
    "solve_mbc1",
    "solve_mld_dijkstra",
    "solve_mld_treewidth",
    "validate_decomposition",
    "validate_nice",
    "verify_witness",
]
