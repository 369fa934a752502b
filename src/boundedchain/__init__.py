"""Exact solvers for minimum bounded chains and GF(2) decoding.

The question is the lightest d-chain whose boundary equals a given
(d-1)-chain in a simplicial complex. A simplex is a strictly increasing
tuple of vertex ids, and a chain is a frozenset of indices into a slice's
sorted simplex table (see `complexes.build_slice`). Every engine solves
the same question as GF(2) decoding: the lightest column subset of the
slice's boundary matrix whose sum hits the target rows, which are the
boundary's face indices. `facade.solve` accepts a chain instance or a
bare matrix and dispatches to one of four engines: the polynomial
matching solver for graph matrices (dimension one), a best-first search
over partial boundaries, a dynamic program over a tree decomposition of
the incidence graph, and a brute-force oracle used for cross-checking.
"""

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
    "SolveResult",
    "Status",
    "TreeDecomposition",
    "UsageError",
    "boundary_matrix",
    "brute_force_mld",
    "build_slice",
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
