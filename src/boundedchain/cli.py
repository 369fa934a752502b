"""Command line interface: gen, solve, decompose, verify, bench."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import generators
from .bench import rows_to_csv, run_suite
from .complexes import boundary_matrix, hasse_graph
from .decomposition import greedy_decomposition
from .dijkstra import DEFAULT_MAX_STATES
from .errors import BoundedChainError, InputError, UsageError
from .facade import (
    ALGORITHMS,
    instance_from_complex,
    instance_from_matrix,
    result_to_json_dict,
    solve,
    verify_witness,
)
from .fileio import (
    parse_boundary,
    parse_complex,
    parse_complex_text,
    parse_decomposition,
    parse_matrix,
    parse_matrix_text,
    read_text,
    sniff_format,
    write_boundary_text,
    write_complex_text,
    write_decomposition_text,
    write_text,
)
from .results import EXIT_CODES, EXIT_UNDECIDED, SolveResult, Status


def _load_instance(args):
    if getattr(args, "matrix", None):
        if getattr(args, "complex", None) or getattr(args, "boundary", None):
            raise UsageError("give either --matrix or --complex/--boundary, not both")
        matrix, target = parse_matrix(args.matrix)
        return instance_from_matrix(matrix, target)
    if not getattr(args, "complex", None):
        raise UsageError("an instance needs --matrix or --complex")
    cslice = parse_complex(args.complex)
    boundary = parse_boundary(args.boundary, cslice) if getattr(args, "boundary", None) else ()
    return instance_from_complex(cslice, boundary)


def _cmd_gen(args) -> int:
    out = args.out
    if args.shape == "strip":
        cslice, boundary = generators.triangle_strip(args.length)
        comments = [f"generated: strip length={args.length}"]
    elif args.shape == "cylinder":
        cslice, boundary = generators.cylinder(args.around, args.along)
        comments = [f"generated: cylinder around={args.around} along={args.along}"]
    elif args.shape == "octahedron":
        cslice, boundary = generators.octahedron(), None
        comments = ["generated: octahedron"]
    elif args.shape == "sphere":
        cslice, boundary = generators.sphere_subdivision(args.levels), None
        comments = [f"generated: sphere levels={args.levels}"]
    else:  # random
        cslice = generators.random_slice(
            args.top_simplices,
            args.vertices,
            dim=args.dim,
            seed=args.seed,
            weights=args.weights,
            weight_max=args.weight_max,
        )
        boundary = generators.random_boundary(cslice, seed=args.seed)
        comments = [
            "generated: random"
            f" top={args.top_simplices} vertices={args.vertices} dim={args.dim}"
            f" weights={args.weights}",
            f"seed {args.seed}",
        ]
    write_text(out + ".complex", write_complex_text(cslice, comments))
    print(f"wrote {out}.complex")
    if boundary is not None:
        write_text(out + ".boundary", write_boundary_text(cslice, boundary, comments))
        print(f"wrote {out}.boundary")
    return 0


def _cmd_solve(args) -> int:
    instance = _load_instance(args)
    ntd = parse_decomposition(args.td) if args.td else None
    result = solve(
        instance,
        args.algorithm,
        k=args.k,
        ntd=ntd,
        max_states=args.max_states,
        timing=args.timing,
    )
    payload = json.dumps(result_to_json_dict(instance, result), sort_keys=True, indent=2)
    if args.out:
        write_text(args.out, payload + "\n")
    print(payload)
    return EXIT_CODES[result.status]


def _cmd_decompose(args) -> int:
    text = read_text(args.input)
    fmt = sniff_format(text)
    if fmt == "complex":
        matrix = boundary_matrix(parse_complex_text(text))
    elif fmt == "mld":
        matrix, _target = parse_matrix_text(text)
    else:
        raise UsageError("decompose expects a complex or mld file")
    td = greedy_decomposition(hasse_graph(matrix))
    comments = ["decomposition: heuristic=min-fill"]
    write_text(args.out, write_decomposition_text(td, comments))
    print(f"wrote {args.out} (width {td.width}, {td.n_nodes} nodes)")
    return 0


def _cmd_verify(args) -> int:
    try:
        claimed = json.loads(read_text(args.result))
    except json.JSONDecodeError as exc:
        raise UsageError(f"{args.result} is not valid JSON: {exc}") from exc
    if not isinstance(claimed, dict):
        raise UsageError(f"{args.result} is not a JSON object")
    k = _claimed_bound(claimed)
    instance = _load_instance(args)
    status = claimed.get("status")
    if status == Status.RESOURCE_LIMIT.value:
        print("UNDECIDED: the result hit its resource limit and claims no answer")
        return EXIT_UNDECIDED
    reference = solve(instance, "brute", k=k)
    weight = claimed.get("weight")
    claims_optimal = status == Status.OPTIMAL.value
    # why the oracle cannot decide the claim, or None: it ran out of budget.
    # A claimed witness is checked either way.
    undecided = None
    if reference.status is Status.RESOURCE_LIMIT:
        unchecked = "optimality" if claims_optimal else "status"
        undecided = f"the oracle hit its resource limit ({unchecked} unchecked)"
    ok = True
    if undecided is None and status != reference.status.value:
        print(f"FAIL status: claimed {status}, oracle says {reference.status.value}")
        ok = False
    elif claims_optimal:
        if type(weight) is not int:  # bool is an int subclass and is refused
            print(f"FAIL weight: claimed {weight!r}, not an integer")
            ok = False
        elif undecided is None and weight != reference.weight:
            print(f"FAIL weight: claimed {weight}, oracle found {reference.weight}")
            ok = False
        witness = _witness_from_solution(instance, claimed.get("solution"))
        if witness is None:
            print("FAIL solution: missing or malformed")
            ok = False
        elif k is not None and len(witness) > k:
            print(f"FAIL solution: {len(witness)} columns, more than k={k}")
            ok = False
        else:
            try:
                verify_witness(
                    instance,
                    SolveResult(Status.OPTIMAL, weight, witness),
                )
            except BoundedChainError as exc:
                print(f"FAIL solution: {exc}")
                ok = False
    if not ok:
        return 1
    if undecided is not None:
        print(f"UNDECIDED: {undecided}")
        return EXIT_UNDECIDED
    print("PASS: result agrees with the brute-force oracle")
    return 0


def _claimed_bound(claimed: dict) -> int | None:
    """The size bound k the result was solved with, ``stats["k"]``, or None."""
    stats = claimed.get("stats")
    k = stats.get("k") if isinstance(stats, dict) else None
    if k is not None and (type(k) is not int or k < 0):
        raise UsageError(f"stats.k is {k!r}, not a non-negative integer")
    return k


def _witness_from_solution(instance, solution):
    if not isinstance(solution, list):
        return None
    # vertex ids and column indices are ints; bool is an int subclass and is refused
    if instance.cslice is not None:
        if not all(isinstance(v, list) and all(type(x) is int for x in v) for v in solution):
            return None
        try:
            return instance.cslice.chain_from_tops(tuple(sorted(v)) for v in solution)
        except BoundedChainError:
            return None
    ncols = instance.matrix.ncols
    if all(type(c) is int and 0 <= c < ncols for c in solution):
        cols = frozenset(solution)
        if len(cols) == len(solution):
            return cols
    return None


def _cmd_bench(args) -> int:
    algorithms = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algorithms:
        raise UsageError("--algos needs at least one algorithm")
    rows = run_suite(
        args.suite, algorithms, reps=args.reps, k=args.k, timing=not args.no_timing
    )
    csv_text = rows_to_csv(rows, timing=not args.no_timing)
    if args.out:
        write_text(args.out, csv_text)
        print(f"wrote {args.out} ({len(rows)} runs)")
    else:
        print(csv_text, end="")
    return 0


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as every other usage error does; exit 2 means infeasible."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mbc",
        description="Exact minimum bounded chain / GF(2) decoding solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate instance files")
    gsub = g.add_subparsers(dest="shape", required=True)
    p = gsub.add_parser("strip", help="triangle strip")
    p.add_argument("--length", type=int, required=True)
    p = gsub.add_parser("cylinder", help="open triangulated cylinder")
    p.add_argument("--around", type=int, required=True)
    p.add_argument("--along", type=int, required=True)
    gsub.add_parser("octahedron", help="closed octahedron surface")
    p = gsub.add_parser("sphere", help="subdivided octahedron sphere")
    p.add_argument("--levels", type=int, default=1)
    p = gsub.add_parser("random", help="seeded random slice")
    p.add_argument("--top-simplices", type=int, required=True)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weights", choices=("unit", "random"), default="unit")
    p.add_argument("--weight-max", type=int, default=9)
    for sp in gsub.choices.values():
        sp.add_argument("--out", required=True, help="output path prefix")
    g.set_defaults(func=_cmd_gen)

    s = sub.add_parser("solve", help="solve one instance")
    s.add_argument("--complex", help="complex file")
    s.add_argument("--boundary", help="boundary file (with --complex)")
    s.add_argument("--matrix", help="mld matrix file")
    s.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    s.add_argument(
        "--k", type=int, default=None, help="solution size bound (dijkstra and brute)"
    )
    s.add_argument("--td", help="tree decomposition file for --algorithm treewidth")
    s.add_argument(
        "--max-states",
        type=int,
        default=None,
        help=f"search state cap (dijkstra; default {DEFAULT_MAX_STATES})",
    )
    s.add_argument(
        "--timing", action="store_true", help="include wall and per-phase times in stats"
    )
    s.add_argument("--out", help="also write the JSON result here")
    s.set_defaults(func=_cmd_solve)

    d = sub.add_parser(
        "decompose",
        help="tree-decompose the incidence graph of a complex or mld file",
        description="Write a tree decomposition of the instance's row/column"
        " incidence graph, for solve --td.",
    )
    d.add_argument("--input", required=True, help="complex or mld file")
    d.add_argument("--out", required=True)
    d.set_defaults(func=_cmd_decompose)

    v = sub.add_parser("verify", help="check a result JSON against the oracle")
    v.add_argument("result", help="result JSON produced by solve")
    v.add_argument("--complex")
    v.add_argument("--boundary")
    v.add_argument("--matrix")
    v.set_defaults(func=_cmd_verify)

    b = sub.add_parser("bench", help="run algorithms over a directory of instances")
    b.add_argument("--suite", required=True, help="directory of .complex/.boundary/.mld files")
    b.add_argument("--algos", required=True, help="comma-separated algorithm list")
    b.add_argument("--reps", type=int, default=1)
    b.add_argument(
        "--k", type=int, default=None,
        help="solution size bound; mbc1 and treewidth record an error row",
    )
    b.add_argument("--no-timing", action="store_true", help="byte-reproducible CSV")
    b.add_argument("--out", help="CSV output path (default stdout)")
    b.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at interpreter exit
    except (UsageError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader left early (`mbc solve | head`): exit quietly, with stdout
        # on devnull so the interpreter's final flush does not raise again
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError):  # an in-process stand-in for stdout
            return 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
