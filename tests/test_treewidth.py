import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from boundedchain import (
    InputError,
    Status,
    UsageError,
    boundary_matrix,
    greedy_decomposition,
    hasse_graph,
    make_nice,
    solve_mld_dijkstra,
    solve_mld_treewidth,
    treewidth,
)
from boundedchain.complexes import Gf2Matrix
from boundedchain.decomposition import (
    TreeDecomposition,
    validate_decomposition,
    validate_nice,
)
from boundedchain.fileio import parse_decomposition_text, write_decomposition_text
from boundedchain.gf2 import mask_from_indices
from boundedchain.generators import (
    cylinder,
    random_boundary,
    random_slice,
    triangle_strip,
)
from boundedchain.kernel import Kernel, _propagate, _series, backtrack, reduce
from boundedchain.treewidth import Lift, _contract, _plan, process_bag
from helpers import (
    adjacency,
    answer,
    assert_floors,
    assert_join_pairs_capped,
    canonical_optimum,
    check_engines,
    copied,
    octahedron_slice,
    problems,
    punctured_octahedron,
    random_problem,
    irreducible,
    reference_greedy_decomposition,
    rerooted,
)


def test_two_column_diagonal():
    mat = Gf2Matrix(2, 2, [(0,), (1,)], [3, 5])
    r = solve_mld_treewidth(mat, (0,))
    assert r.status is Status.OPTIMAL
    assert r.weight == 3
    assert r.witness == frozenset((0,))
    both = solve_mld_treewidth(mat, (0, 1))
    assert both.weight == 8 and both.witness == frozenset((0, 1))
    none = solve_mld_treewidth(mat, ())
    assert none.weight == 0 and none.witness == frozenset()


def test_punctured_octahedron():
    cs, boundary = punctured_octahedron()
    r = solve_mld_treewidth(boundary_matrix(cs), sorted(boundary))
    assert r.status is Status.OPTIMAL
    assert r.weight == 7
    assert r.witness == frozenset(range(7))


def test_negative_weights_pick_the_whole_sphere():
    oc = octahedron_slice()
    mat = boundary_matrix(oc)
    neg = Gf2Matrix(mat.nrows, mat.ncols, mat.col_rows, [-1] * 8)
    r = solve_mld_treewidth(neg, ())
    assert r.status is Status.OPTIMAL
    assert r.weight == -8
    assert r.witness == frozenset(range(8))


def test_mixed_negative_weights_against_oracle():
    """The shared check on the signed random problems and dense slices of
    seeds 90-95: with weights from -3..3, every engine gives the least
    (weight, mask) optimum."""
    reach = check_engines(case for case in problems(range(90, 96), ["random", "dense"]) if case[0].signed)
    # measured, dims 1-3: left and tables 20, 12, 7; searched 17, 12, 7
    assert_floors(reach, {
        "left": {1: 14, 2: 8, 3: 5}, "searched": {1: 12, 2: 8, 3: 5}, "tables": {1: 14, 2: 8, 3: 5}
    })


def test_supplied_decompositions():
    cs, boundary = punctured_octahedron()
    mat = boundary_matrix(cs)
    g = hasse_graph(mat)
    td = reference_greedy_decomposition(g, "min-degree")
    plain = solve_mld_treewidth(mat, sorted(boundary), ntd=td)
    assert plain.weight == 7
    assert plain.stats["decomposition"] == "given"
    nice = solve_mld_treewidth(mat, sorted(boundary), ntd=make_nice(td, g))
    assert nice.weight == 7
    # the DP runs on a given decomposition contracted onto the kernel: the
    # computed one given back gives the same answer, and its nice form, a
    # bigger tree, too. Where every row has three columns or more and the
    # solutions outnumber the columns (``helpers.copied``), the kernel is
    # the whole matrix, and the computed one given back does the same work.
    for seed in range(20):
        cs, boundary = random_problem(seed)
        plain = boundary_matrix(cs)
        for mat, whole in ((plain, False), (irreducible(copied(plain, 6)), True)):
            assert not whole or all(len(cols) >= 3 for cols in mat.row_cols)
            g = hasse_graph(mat)
            computed = solve_mld_treewidth(mat, sorted(boundary))
            for heuristic, td in (
                ("min-fill", greedy_decomposition(g)),
                ("min-degree", reference_greedy_decomposition(g, "min-degree")),
            ):
                for ntd in (td, make_nice(td, g)):
                    given = solve_mld_treewidth(mat, sorted(boundary), ntd=ntd)
                    assert (given.status, given.weight, given.witness) == (
                        computed.status, computed.weight, computed.witness
                    ), (seed, heuristic)
                    assert given.stats["nodes"] == ntd.n_nodes
                    assert given.stats["width"] <= ntd.width
                    if whole and ntd is td and heuristic == "min-fill":
                        for key in ("width", "nodes", "table_entries", "join_pairs"):
                            assert given.stats[key] == computed.stats[key], (seed, heuristic, key)


def test_nice_decomposition_with_parents_before_children():
    """A valid nice decomposition whose ids run root-first, as read from a
    file, is solved as the plain tree it is."""
    mat = Gf2Matrix(1, 1, [(0,)], [1])
    g = hasse_graph(mat)  # row 0 is vertex 0, column 0 is vertex 1
    root_first = parse_decomposition_text(
        "td 5 1\nb 0\nb 1 0\nb 2 0 1\nb 3 1\nb 4\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n"
    )
    assert root_first.root == 0
    assert root_first.children == ((1,), (2,), (3,), (4,), ())
    assert validate_decomposition(root_first, g) is None
    assert validate_nice(root_first) is None
    for target in ([0], []):
        computed = solve_mld_treewidth(mat, target)
        given = solve_mld_treewidth(mat, target, ntd=root_first)
        assert given.stats["decomposition"] == "given"
        assert (given.status, given.weight, given.witness) == (
            computed.status, computed.weight, computed.witness
        )
        assert given.stats["nodes"] == 5


def test_rejects_unusable_decompositions():
    cs, boundary = punctured_octahedron()
    mat = boundary_matrix(cs)
    # decomposition of a different (too small) graph
    wrong = make_nice(greedy_decomposition(adjacency(3, [(0, 1), (1, 2)])))
    with pytest.raises(UsageError):
        solve_mld_treewidth(mat, sorted(boundary), ntd=wrong)
    with pytest.raises(UsageError):
        solve_mld_treewidth(mat, sorted(boundary), ntd="min-fill")
    with pytest.raises(UsageError):
        solve_mld_treewidth(mat, (99,))


def test_malformed_nice_decomposition_is_an_input_error():
    """A decomposition in any shape gets the root and children checks, and
    the DP runs on one that is not nice."""
    mat = Gf2Matrix(1, 1, [(0,)], [1])
    with pytest.raises(InputError, match="root"):
        solve_mld_treewidth(mat, [0], ntd=TreeDecomposition([frozenset()], [()], 5))
    with pytest.raises(InputError, match="children"):
        TreeDecomposition([frozenset()], [(), ()], 0)
    not_nice = TreeDecomposition([frozenset(), {0, 1}, frozenset()], [(1,), (2,), ()], 0)
    assert validate_nice(not_nice) is not None
    r = solve_mld_treewidth(mat, [0], ntd=not_nice)
    assert (r.weight, r.witness) == (1, frozenset((0,)))


CYLINDER_CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from boundedchain import boundary_matrix, solve_mld_treewidth
from boundedchain.generators import cylinder
from helpers import copied, irreducible
cs, boundary = cylinder(20, 20)
r = solve_mld_treewidth(irreducible(copied(boundary_matrix(cs), 2)), sorted(boundary))
print(json.dumps([r.status.value, r.weight, r.stats["width"]]))
"""


def test_wide_cylinder_solves_in_one_gib():
    """cylinder(20, 20) with every triangle twice (``helpers.copied``), made
    irreducible (``helpers.irreducible``): every row has three columns or
    more, no two columns share their rows and no two rows their columns,
    and the live system has 2^800 solutions, more than its 8,000 columns,
    so the kernel reductions leave it whole and the DP runs on a width-43
    decomposition of the whole incidence graph, for three times the plain
    optimum. (Propagation alone solves the plain cylinder, and the coset
    rule the irreducible one, whose solution is unique.) Run on the rooted
    decomposition, its tables stay small; padded to nice form, the plain
    cylinder's width-42 solve ran out of a 2 GB address space. Solved in a
    child process under a 1 GiB address-space cap, so a regression fails
    here and not the machine."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=f"{tests.parent / 'src'}{os.pathsep}{tests}")
    proc = subprocess.run(
        [sys.executable, "-c", CYLINDER_CHILD], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    status, weight, width = json.loads(proc.stdout.splitlines()[-1])
    assert (status, weight) == ("optimal", 2400)
    assert width >= 40


def test_infeasible_target():
    cs, _ = punctured_octahedron()
    mat = boundary_matrix(cs)
    r = solve_mld_treewidth(mat, (0,))
    assert r.status is Status.INFEASIBLE
    assert r.weight is None and r.witness is None


def test_target_row_with_no_column_is_infeasible():
    """Unit propagation alone proves these infeasible: row 1 has no column
    and is in the target, or is left with none once column 0, forced by
    row 0, flips it. The stats keep their keys, timed ones included, and a
    supplied decomposition keeps its node count."""
    empty_row = Gf2Matrix(3, 2, [(0, 2), (0, 2)], [1, 1])
    flipped = Gf2Matrix(2, 1, [(0, 1)], [1])
    for mat, rows in ((empty_row, [1]), (empty_row, [0, 1]), (flipped, [0]), (flipped, [1])):
        r = solve_mld_treewidth(mat, rows, timing=True)
        assert (r.status, r.weight, r.witness) == (Status.INFEASIBLE, None, None), (mat, rows)
        assert set(r.stats) == {
            "algorithm", "width", "nodes", "table_entries", "join_pairs", "decomposition",
            "phases", "peak_table", "join_bags",
        }
        td = greedy_decomposition(hasse_graph(mat))
        given = solve_mld_treewidth(mat, rows, ntd=td)
        assert given.status is Status.INFEASIBLE
        assert given.stats["nodes"] == td.n_nodes
    # out of the target, the row with no column is dropped
    r = solve_mld_treewidth(empty_row, [0, 2])
    assert (r.weight, r.witness) == (1, frozenset((0,)))


def test_row_left_empty_with_its_bit_set_stays_live():
    """Rows 0 and 1 both have column 0 alone, and with row 0 alone in the
    target they ask for different values of it. Row 1, queued last, fixes
    x_0 = 0, which leaves row 0 with no column and its bit set. Propagation
    keeps row 0 live, and the series pass reports it as the one-row kernel,
    which the DP finds infeasible at the same counts as a propagation that
    stops at that row."""
    mat = Gf2Matrix(5, 4, [(0, 1), (2, 3, 4), (2, 3), (3, 4)], [1, 2, 3, 4])
    u, rows, cols, fixed = _propagate(mat, mat.target_mask([0]))
    assert (list(u[:2]), rows, cols, fixed) == ([1, 0], [0, 2, 3, 4], [1, 2, 3], [])
    kern = _series(mat, u, rows, cols, fixed)
    assert (kern.matrix.nrows, kern.matrix.ncols, kern.target, kern.base, kern.image) == (
        1, 0, 1, 0, {0: 0}
    )
    g = hasse_graph(mat)
    td = greedy_decomposition(g)
    # (nodes, table_entries, join_pairs) computed, and on three supplied forms
    for ntd, counts in ((None, (1, 1, 0)), (td, (9, 3, 0)), (make_nice(td, g), (26, 12, 0)),
                        (rerooted(td, 0), (9, 9, 2))):
        r = solve_mld_treewidth(mat, [0], ntd=ntd)
        assert (r.status, r.weight, r.witness) == (Status.INFEASIBLE, None, None)
        assert r.stats["width"] == 0
        assert (r.stats["nodes"], r.stats["table_entries"], r.stats["join_pairs"]) == counts


def test_forced_columns_ignore_their_weight():
    """Column 0 is row 0's only column, so x_0 = u_0: at weight -5 it is
    selected exactly when row 0 is in the target, though leaving it out
    elsewhere forgoes 5. Row 1, flipped where column 0 is selected, then
    takes column 1 or 2 or neither."""
    mat = Gf2Matrix(2, 3, [(0, 1), (1,), (1,)], [-5, 2, -1])
    for rows in ([], [0], [1], [0, 1]):
        r = solve_mld_treewidth(mat, rows)
        assert (0 in r.witness) == (0 in rows), rows
        assert (r.weight, r.witness) == canonical_optimum(mat, rows), rows
    r = solve_mld_treewidth(mat, [0])
    assert (r.weight, r.witness) == (-6, frozenset((0, 2)))


def test_forcing_chains_solve_strips_and_cylinders_outright(monkeypatch):
    """A strip's and a cylinder's boundary edges have one coface each, and
    each fixed triangle leaves a neighbour's edge with one: propagation
    fixes every column. The coset rule solves a random dim-3 slice of the
    benchmark's shape, 35 tetrahedra on 8 vertices, outright. With the
    kernel empty, the solve builds no incidence graph, decomposition or
    table, and reports the stats of the empty graph's min-fill
    decomposition, one empty bag whose table is {0: 0}."""
    calls = []
    for name in ("hasse_graph", "greedy_decomposition", "process_bag"):
        monkeypatch.setattr(treewidth, name, lambda *args, name=name: calls.append(name))
    tetrahedra = random_slice(35, 8, dim=3, seed=1, weights="random")
    instances = (
        triangle_strip(40),
        cylinder(6, 5),
        (tetrahedra, random_boundary(tetrahedra, seed=1, require_nonempty=True)),
    )
    for cs, boundary in instances:
        mat = boundary_matrix(cs)
        rows = sorted(boundary)
        assert reduce(mat, mat.target_mask(rows)).matrix.nrows == 0
        r = solve_mld_treewidth(mat, rows)
        assert (r.weight, r.witness) == canonical_optimum(mat, rows)
        if cs is not tetrahedra:  # propagation selects every triangle
            assert (r.weight, r.witness) == (mat.ncols, frozenset(range(mat.ncols)))
        assert r.stats == {
            "algorithm": "treewidth", "width": -1, "nodes": 1, "table_entries": 1,
            "join_pairs": 0, "decomposition": "min-fill",
        }
        timed = solve_mld_treewidth(mat, rows, timing=True)
        assert (timed.weight, timed.witness) == (r.weight, r.witness)
        assert set(timed.stats) == set(r.stats) | {"phases", "peak_table", "join_bags"}
        assert set(timed.stats["phases"]) == {"kernel", "decompose", "dp"}
        assert (timed.stats["peak_table"], timed.stats["join_bags"]) == (1, [])
    assert calls == []


def test_supplied_decomposition_is_checked_on_the_whole_graph(monkeypatch):
    """Propagation fixes every column of a strip. A supplied decomposition is
    still validated against the whole incidence graph, with the same error,
    and a valid one runs the DP restricted to the empty kernel, one table
    per node."""
    bags = []

    def counted(lifts, cols, child_tables):
        bags.append(cols)
        return process_bag(lifts, cols, child_tables)

    monkeypatch.setattr(treewidth, "process_bag", counted)
    cs, boundary = triangle_strip(12)
    mat = boundary_matrix(cs)
    g = hasse_graph(mat)
    td = greedy_decomposition(g)
    column0 = mat.nrows
    broken = TreeDecomposition([bag - {column0} for bag in td.bags], td.children, td.root)
    bad = validate_decomposition(broken, g)
    assert bad is not None
    with pytest.raises(UsageError) as err:
        solve_mld_treewidth(mat, sorted(boundary), ntd=broken)
    assert str(err.value) == f"input decomposition is invalid ({bad})"
    for ntd in (td, make_nice(td, g), rerooted(td, 0)):
        bags.clear()
        r = solve_mld_treewidth(mat, sorted(boundary), ntd=ntd)
        assert (r.weight, r.witness) == (12, frozenset(range(12)))
        assert r.stats["nodes"] == r.stats["table_entries"] == ntd.n_nodes
        assert r.stats["width"] == -1
        assert bags == [0] * ntd.n_nodes


def test_witness_is_canonical_where_propagation_fixes_columns():
    """The shared check on the dense slices of seeds 100-105 where
    propagation fixes some columns: the witness is the least (weight, mask)
    optimum, fixed columns included, and many of their kernels are left for
    the DP."""
    partial = [
        (label, dim, mat, rows) for label, dim, mat, rows in problems(range(100, 106), ["dense"])
        if len(_propagate(mat, mat.target_mask(rows))[2]) < mat.ncols
    ]
    reach = check_engines(partial)
    # measured, dims 1-3: tables 4, 28, 10 (dense graphs seldom have a leaf)
    assert_floors(reach, {"tables": {1: 2, 2: 20, 3: 7}})


def reduced(mat, rows):
    """Both kernel passes, as the solve runs them: (the number of columns
    propagation leaves, kernel, the kernel vertex each vertex of ``mat``
    contracts to, if any)."""
    kern = reduce(mat, mat.target_mask(rows))
    return len(kern.cols), kern.matrix, kern.image


def unpropagated(mat, rows):
    """``_series``'s input where propagation fixes nothing: each row's
    target bit, every vertex live and no fixed column."""
    u, live_rows, cols, fixed = _propagate(mat, mat.target_mask(rows))
    assert live_rows == list(range(mat.nrows)) and cols == list(range(mat.ncols)) and not fixed
    assert list(u) == [r in rows for r in range(mat.nrows)]
    return u, live_rows, cols, fixed


def series(mat, rows):
    """``_series`` on ``unpropagated`` input: (kernel matrix, kernel
    target, base, image)."""
    kern = _series(mat, *unpropagated(mat, rows))
    return kern.matrix, kern.target, kern.base, kern.image


def test_propagation_unpacks_one_byte_per_row():
    """``_propagate`` starts from one byte per row, its target bit: for the
    empty target, the top row alone, every row and random targets, across
    word boundaries. A cycle of two-row columns gives every row two columns,
    so propagation changes no bit."""
    rng = random.Random(0)
    for nrows in (0, 2, 7, 8, 63, 64, 65, 200):
        cycle = [sorted({c, (c + 1) % nrows}) for c in range(nrows)]
        mat = Gf2Matrix(nrows, nrows, cycle, [1] * nrows)
        targets = [0, (1 << nrows) - 1, *(rng.getrandbits(nrows) for _ in range(5))]
        if nrows:
            targets.append(1 << nrows - 1)
        for target in targets:
            u, rows, cols, fixed = _propagate(mat, target)
            assert u == bytearray(target >> r & 1 for r in range(nrows)), (nrows, target)
            assert rows == cols == list(range(nrows)) and not fixed


def test_series_reduction_against_canonical_optimum():
    """The shared check on the random problems and dense slices of seeds
    110-117, and the rules after propagation, the coset rule or the series
    rule, shrink many of their kernels: fewer columns than propagation
    leaves."""
    cases = list(problems(range(110, 118), ["random", "dense"]))
    merged = Counter()
    for _label, dim, mat, rows in cases:
        left, kernel, _image = reduced(mat, rows)
        merged[dim] += kernel.ncols < left
    # measured, dims 1-3: merged 36, 106, 34; tables 44, 36, 18
    reach = check_engines(cases)
    assert_floors({"merged": merged, **reach}, {"merged": {1: 25, 2: 75, 3: 24}, "tables": {1: 30, 2: 25, 3: 12}})


def complemented(charges, col_rows):
    """What ``_series`` makes of kernel columns with these (on, off)
    charges and rows: (their weights, base, target flips). Each weighs
    |on - off| and adds the smaller charge to the base, and the target flips
    on the rows of each column whose 'on' is the smaller one."""
    flips = 0
    for (on, off), rows in zip(charges, col_rows):
        if on < off:
            flips ^= mask_from_indices(rows)
    return tuple(abs(on - off) for on, off in charges), sum(min(c) for c in charges), flips


def test_series_row_with_its_target_bit_set_adds_charges_crosswise():
    """Row 0 has columns 0 and 1 alone, so x_1 = x_0 ⊕ u_0; the series rule
    merges column 1 into column 0, and rows 1, 2 and 3 keep three columns
    or more for the DP, and the columns keep distinct rows. With u_0 = 1,
    column 0's state 'on' leaves column 1 out and 'off' takes it: its
    charges are on(0) + off(1) and off(0) + on(1), and the target flips on
    row 3, column 1's other row. A kernel column whose 'on' is the smaller
    charge is then complemented, so every kernel weight is positive."""
    cols = [(0, 1, 2), (0, 3), (1, 3), (2, 3), (1, 2)]
    for weights in ([1, 1, 1, 1, 1], [4, -2, 1, 0, 3], [-1, 5, -2, 2, -3], [0, 0, 1, 1, 0]):
        mat = Gf2Matrix(4, 5, cols, weights)
        for rest in range(8):
            rows = [0] + [r for r in (1, 2, 3) if rest >> (r - 1) & 1]
            kernel, ktarget, base, image = series(mat, rows)
            assert (kernel.nrows, kernel.ncols) == (3, 4)
            assert kernel.col_rows == ((0, 1, 2), (0, 2), (1, 2), (0, 1))
            on, off = (weights[0] << 5) + (1 << 0), (weights[1] << 5) + (1 << 1)
            charges = [(on, off)] + [((weights[c] << 5) + (1 << c), 0) for c in (2, 3, 4)]
            kweights, kbase, flips = complemented(charges, kernel.col_rows)
            assert (kernel.col_weights, base) == (kweights, kbase)
            assert ktarget == mat.target_mask([r - 1 for r in rows if r]) ^ 0b100 ^ flips
            assert image[0] == image[4] == image[5] == 3  # row 0, columns 0 and 1
            r = solve_mld_treewidth(mat, rows)
            assert answer(r) == canonical_optimum(mat, rows), (weights, rows)


def test_series_fixes_a_column_with_no_row_at_its_cheaper_side():
    """Columns 0 and 5 lie on no row, so each is free: ``_series`` fixes
    column 0, at weight -2, selected and column 5, at weight 3, clear, and
    neither has an image. Rows 0-2 keep three columns each, so the kernel
    is them over columns 1-4. Every target is feasible, and both engines
    take column 0 and leave column 5 out."""
    mat = Gf2Matrix(3, 6, [(), (0, 1, 2), (0, 1), (1, 2), (0, 2), ()], [-2, 1, 1, 1, 1, 3])
    for rest in range(8):
        rows = [r for r in range(3) if rest >> r & 1]
        kernel, _ktarget, _base, image = series(mat, rows)
        assert (kernel.nrows, kernel.ncols) == (3, 4)
        assert 3 + 0 not in image and 3 + 5 not in image
        weight, witness = canonical_optimum(mat, rows)
        assert 0 in witness and 5 not in witness, rows
        for r in (solve_mld_treewidth(mat, rows), solve_mld_dijkstra(mat, rows)):
            assert (r.weight, r.witness) == (weight, witness), rows


def test_series_survivor_on_a_row_count_tie_is_the_lower_id():
    """Row 0 has columns 1 and 8 alone, with four rows each, and every other
    row three columns or more. Column 1 survives, whichever of the two row
    sets it has, though a set of {1, 8} iterates 8 first: row 0 and column
    8 map to column 1's kernel vertex, which takes rows 2 and 5, the
    symmetric difference minus row 0."""
    nrows = 6
    for c1, c8 in (((0, 2, 3, 4), (0, 3, 4, 5)), ((0, 3, 4, 5), (0, 2, 3, 4))):
        cols = [(1, 4, 5), c1, (2, 3, 4), (2, 3, 5), (1, 2, 3), (1, 3, 4), (2, 4, 5), (1, 3, 5), c8]
        mat = Gf2Matrix(nrows, 9, cols, [3, 1, 4, 1, 5, 9, 2, 6, 5])
        for rows in ([], [0], [2, 5], [0, 1, 3]):
            kernel, _ktarget, _base, image = series(mat, rows)
            assert (kernel.nrows, kernel.ncols) == (5, 8)
            assert image[0] == image[nrows + 8] == image[nrows + 1] == 5 + 1
            assert kernel.col_rows[1] == (1, 4)  # rows 2 and 5
            r = solve_mld_treewidth(mat, rows)
            assert answer(r) == canonical_optimum(mat, rows), (c1, rows)


def test_supplied_decomposition_contracts_onto_the_kernel():
    """A merged column and its series row map to the column they merged
    into, and forced columns and dropped rows leave. The supplied
    decomposition so contracted decomposes the kernel's graph, at no larger
    width: greedy and star decompositions of the problems of seeds 0-11 of
    every family, with their own weights, the twin columns among them,
    which the kernel keeps side by side. Dropping the series rows instead
    breaks it: in a star decomposition the two columns a series row merges
    sit in separate leaves, which only the row's image in the root bag
    joins."""
    broken = 0
    for label, _dim, mat, rows in problems(range(12)):
        if label.signed:
            continue
        g = hasse_graph(mat)
        decompositions = [greedy_decomposition(g), reference_greedy_decomposition(g, "min-degree")]
        decompositions.append(star(mat, 0))
        _left, kernel, image = reduced(mat, rows)
        kg = hasse_graph(kernel)
        for td in decompositions:
            mapped = _contract(td, image)
            assert validate_decomposition(mapped, kg) is None, label
            assert mapped.width <= td.width, label
        dropped = {v: w for v, w in image.items() if v >= mat.nrows or w < kernel.nrows}
        broken += validate_decomposition(_contract(decompositions[-1], dropped), kg) is not None
    # measured: 124
    assert broken >= 80, broken


def test_twin_columns_against_canonical_optimum():
    """The shared check on the slices of seeds 130-137 with injected twin
    columns. Of a twin pair, an optimum takes both where their weights sum
    below 0 and the lighter one where it takes one, the lower index on a
    tie; the signed weights take each side of both comparisons many
    times."""
    cases = list(problems(range(130, 138), ["twins"]))
    branches = {"off": [0, 0], "on": [0, 0]}
    for label, _dim, mat, rows in cases:
        if label.random_target:  # the same weights as the boundary's case
            continue
        groups: dict = {}
        for c, col in enumerate(mat.col_rows):
            groups.setdefault(col, []).append(mat.col_weights[c])
        for pair in groups.values():
            if len(pair) == 2:
                w_first, w_second = pair
                branches["off"][w_first + w_second < 0] += 1
                branches["on"][w_second < w_first] += 1
    # measured: off 195 and 59, on 206 and 48
    assert min(branches["off"] + branches["on"]) >= 30, branches
    reach = check_engines(cases)
    # measured, dims 1-3: left 60, 48, 18; infeasible 14, 62, 30
    assert_floors(reach, {"left": {1: 42, 2: 33, 3: 12}, "infeasible": {1: 9, 2: 43, 3: 21}})


# rows 0 and 1 both lie on columns 0, 1 and 2 alone; every row has three
# columns or more, and no two columns share their rows
TWIN_ROWS = Gf2Matrix(
    5, 6, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3), (2, 4), (3, 4)], [3, 1, 4, 1, 5, 9]
)


def twin_row_solves(mat, rows):
    """(status, weight, witness) of both engines, the DP computing its own
    decomposition and on supplied ones of the whole incidence graph, each
    also read back from its ``.td`` text."""
    g = hasse_graph(mat)
    supplied = [
        greedy_decomposition(g), reference_greedy_decomposition(g, "min-degree"), star(mat, 0)
    ]
    supplied += [parse_decomposition_text(write_decomposition_text(td)) for td in supplied]
    results = [solve_mld_treewidth(mat, rows, ntd=td) for td in [None, *supplied]]
    results.append(solve_mld_dijkstra(mat, rows))
    return {(r.status, r.weight, r.witness) for r in results}


def test_twin_rows_with_differing_target_bits_are_infeasible():
    """Rows 0 and 1 are the one equation twice, so with one of them in the
    target and not the other, no x solves it. Both engines report it
    infeasible, the DP also on supplied decompositions of the whole
    incidence graph. With both twins in the target or neither, both give
    the least (weight, mask) optimum, or none where the targets of rows 0,
    2, 3 and 4, which sum to 0, have odd parity."""
    for rest in range(8):
        others = [r for r in (2, 3, 4) if rest >> (r - 2) & 1]
        for twins in ([0], [1], [], [0, 1]):
            rows = twins + others
            want = canonical_optimum(TWIN_ROWS, rows)
            assert len(twins) != 1 or want is None, rows
            status = Status.INFEASIBLE if want is None else Status.OPTIMAL
            assert twin_row_solves(TWIN_ROWS, rows) == {(status, *(want or (None, None)))}, rows


def test_join_table_size_is_bounded():
    """Each join pairs at most 2^|bag cols| * 4^|bag rows| entries, the bag
    being the join node's: on the random problems of seeds 0-29, against
    their boundary."""
    joins = 0
    for label, _dim, mat, rows in problems(range(30), ["random"]):
        if label.signed or label.random_target:
            continue
        td = greedy_decomposition(hasse_graph(mat))
        r = solve_mld_treewidth(mat, rows, ntd=td, timing=True)
        joins += assert_join_pairs_capped(td, mat.nrows, r.stats["join_bags"])
    assert joins


def first_candidate_join(left, right, shared):
    """``treewidth._join`` broken: each key keeps the first sum that reaches
    it, not the least."""
    out, pairs = {}, 0
    for lkey, lval in left.items():
        for rkey, rval in right.items():
            if not (lkey ^ rkey) & shared:
                pairs += 1
                out.setdefault(lkey ^ rkey ^ (lkey & shared), lval + rval)
    return out, pairs


def test_check_catches_a_join_that_keeps_its_first_candidate(monkeypatch):
    """The shared check has teeth: with the join keeping the first sum of
    each key instead of the least, the DP's answers on the pooled problems
    of seeds 0-2 fail it."""
    monkeypatch.setattr(treewidth, "_join", first_candidate_join)
    with pytest.raises(AssertionError, match="'treewidth'"):
        check_engines(problems(range(3)))


def value(weight, mask, ncols=8):
    """A table value: the forgotten selected columns' weight and mask."""
    return (weight << ncols) + mask


def same_bag(held):
    """The lift of a child whose bag is its parent's: nothing is forgotten."""
    return Lift([], [], held)


# Key bits of hand-built bags: a column C and rows R0, R1.
C, R0, R1 = 0b001, 0b010, 0b100


def test_process_bag_join_by_hand():
    """Two children holding the node's one row and one column: they match on
    the column, their forgotten parities add over Z2, weights add and the
    two sides' forgotten columns are joined."""
    left = {0: value(0, 0), C | R0: value(2, 0b01)}
    right = {0: value(0, 0), C | R0: value(5, 0b10)}
    table, pairs = process_bag([same_bag(C), same_bag(C)], C, [left, right])
    assert table == {0: value(0, 0), C: value(7, 0b11)}
    assert pairs == 2


@pytest.mark.parametrize("larger", ["left", "right"])
def test_join_table_does_not_depend_on_the_indexed_side(larger):
    """Two (parity left, parity right) pairs reach one key at one weight: the
    smaller mask wins, whichever child the join indexes and whichever it
    streams."""
    left = {R1: value(1, 0b0001), R0: value(1, 0b0010)}
    right = {R0 | R1: value(4, 0b0100), 0: value(4, 0b1000)}
    unmatched = {C: 0, C | R0: 0, C | R0 | R1: 0}
    if larger == "left":
        left.update(unmatched)
    else:
        right.update(unmatched)
    want = {R0: value(5, 0b0101), R1: value(5, 0b0110)}
    for children in ([left, right], [right, left]):
        table, pairs = process_bag([same_bag(C), same_bag(C)], C, children)
        assert table == want
        assert pairs == 4


def test_process_bag_leaf_and_forget():
    leaf, pairs = process_bag([], 0, [])
    assert leaf == {0: 0}
    assert pairs == 0
    # a child holding column 4 alone, under an empty bag: keep vs drop,
    # weight and bit charged on keep, and the column's bit cleared
    forget = Lift([(C, C, value(9, 1 << 4))], [], 0)
    table, _ = process_bag([forget], 0, [{0: value(3, 0b1), C: value(1, 0)}])
    assert table == {0: value(3, 0b1)}  # kept would cost 1 + 9 = 10
    cheap, _ = process_bag([forget], 0, [{0: value(12, 0b1), C: value(1, 0)}])
    assert cheap == {0: value(10, 1 << 4)}
    # one weight either way: the smaller mask, here dropping, wins
    tie, _ = process_bag([forget], 0, [{0: value(10, 0b1), C: value(1, 0)}])
    assert tie == {0: value(10, 0b1)}
    # a negative charge still orders by weight first, and decodes back
    forget.cols = [(C, C, value(-9, 1 << 4))]
    neg, _ = process_bag([forget], 0, [{0: value(0, 0), C: value(0, 0b1)}])
    assert neg == {0: value(-9, 0b10001)}
    eight = Gf2Matrix(1, 8, [(0,)] * 8, [0, 0, 0, 0, -9, 0, 0, 0])
    kern = Kernel(eight, 0, {}, 0, list(range(8)), [])
    assert backtrack(eight, kern, neg[0]) == (-9, frozenset((0, 4)))


def test_forgotten_row_parity_bit_is_cleared():
    """One node step by hand. The child holds column c (bit C) and rows r0,
    r1 (bits R0, R1); r0, on c with u = 0, leaves scope. The node holds c,
    r1, a new column x (bit 0b1000) and a new row that takes r0's free
    colour R0. An entry survives where r0's parity equals c's bit; where
    both are 1, r0's bit must be cleared, or the new row would start odd."""
    x = 0b1000
    lift = Lift(cols=[], rows=[(R0 | C, 0, ~R0)], held=C)
    child = {
        C | R0: 10,
        C | R0 | R1: 11,
        0: 12,
        R1: 13,
        R0: 14,  # r0 odd: dropped
        C | R1: 15,  # r0 odd: dropped
    }
    table, pairs = process_bag([lift], C | x, [child])
    want = {}
    for key, val in ((C, 10), (C | R1, 11), (0, 12), (R1, 13)):
        want[key] = want[key | x] = val
    assert table == want
    assert pairs == 0


def test_forgotten_row_colour_is_reused_by_a_column_introduced_above():
    """Row 0 leaves scope at node 1, and the root introduces column 0 on the
    row's freed colour. The row's parity bit is 1 wherever column 2,
    forgotten below, was taken; left set, it would read as column 0 selected
    in the root's table, and the solution of column 2 alone would be lost."""
    # vertices: row 0 is 0; columns 0, 1, 2 are 1, 2, 3. Column 0 has no rows.
    td = TreeDecomposition([{1, 2}, {0, 2}, {0, 3}], [(1,), (2,), ()], 0)
    for weights in ([-1, 5, 1], [1, 5, 1], [-1, 1, 5], [2, -3, -1], [0, 0, 0]):
        mat = Gf2Matrix(1, 3, [(), (0,), (0,)], weights)
        g = hasse_graph(mat)
        assert validate_decomposition(td, g) is None
        _order, _lifts, _cols, bits = _plan(td, g, mat, 0b1)
        assert bits[0] == bits[1]
        for rows in ([0], []):
            r = solve_mld_treewidth(mat, rows, ntd=td)
            assert answer(r) == canonical_optimum(mat, rows), (weights, rows)


def star(matrix, introduced):
    """A decomposition with every row and column ``introduced`` in the root
    bag, and one leaf per other column, holding it and its rows."""
    nrows = matrix.nrows
    others = [c for c in range(matrix.ncols) if c != introduced]
    bags = [frozenset(range(nrows)) | {nrows + introduced}]
    bags += [frozenset(matrix.col_rows[c]) | {nrows + c} for c in others]
    return TreeDecomposition(bags, [tuple(range(1, len(bags)))] + [()] * len(others), 0)


def test_star_decompositions():
    """Shapes nice form would pad away: a root with many children, a root bag
    that is not empty, and a column and rows that the root holds and no child
    does. Against the least (weight, mask) optimum."""
    for seed in range(40):
        rng = random.Random(seed)
        nrows, ncols = rng.randint(1, 6), rng.randint(3, 8)
        cols = [sorted(rng.sample(range(nrows), rng.randint(0, nrows))) for _ in range(ncols)]
        mat = Gf2Matrix(nrows, ncols, cols, [rng.randint(-2, 5) for _ in range(ncols)])
        td = star(mat, rng.randrange(ncols))
        assert validate_decomposition(td, hasse_graph(mat)) is None
        rows = sorted(rng.sample(range(nrows), rng.randint(0, nrows)))
        r = solve_mld_treewidth(mat, rows, ntd=td, timing=True)
        want = canonical_optimum(mat, rows)
        assert answer(r) == want, seed
        assert assert_join_pairs_capped(td, nrows, r.stats["join_bags"]) == (ncols > 2)


def relabelled(td):
    """The same rooted decomposition with ids in breadth-first order: the
    root is 0 and every parent's id is below its children's."""
    order = [td.root]
    for t in order:
        order.extend(td.children[t])
    new_id = {t: i for i, t in enumerate(order)}
    children = [tuple(new_id[c] for c in td.children[t]) for t in order]
    return TreeDecomposition([td.bags[t] for t in order], children, 0)


def test_root_first_ids():
    """Node ids need not run children first: the same tree under any root
    and with root-first ids gives the computed answer."""
    for seed in range(20):
        cs, boundary = random_problem(seed)
        mat = boundary_matrix(cs)
        computed = solve_mld_treewidth(mat, sorted(boundary))
        td = greedy_decomposition(hasse_graph(mat))
        for root in {0, td.n_nodes // 2, td.root}:
            ntd = relabelled(rerooted(td, root))
            assert all(c > t for t, kids in enumerate(ntd.children) for c in kids)
            given = solve_mld_treewidth(mat, sorted(boundary), ntd=ntd)
            assert (given.status, given.weight, given.witness) == (
                computed.status, computed.weight, computed.witness
            ), (seed, root)


def test_colouring_is_proper_and_uses_at_most_width_plus_one_colours():
    """On the incidence graphs of the random problems of seeds 0-39, for
    the min-fill and the reference min-degree decompositions, their nice
    forms, root-first relabellings and star decompositions: every vertex
    owns one key bit, vertices that share a bag own distinct bits, at most
    width + 1 colours are used and a bag's column bits are its columns'.
    Against a boundary and up to ten columns, ``helpers.irreducible`` of
    the matrix with each column six times (``helpers.copied``) gives every
    row three columns or more and its live system more solutions than
    columns, so the kernel is the whole matrix, and there a supplied greedy
    decomposition does the computed one's work. Every decomposition gives
    the same answer."""
    checked = 0
    for label, _dim, mat, rows in problems(range(40), ["random"]):
        if label.signed != label.random_target:  # one weighting per target
            continue
        rng = random.Random(repr(label))
        g = hasse_graph(mat)
        decompositions = [star(mat, rng.randrange(mat.ncols))]
        computed = solve_mld_treewidth(mat, rows)
        if mat.ncols <= 10 and not label.random_target:
            guard = irreducible(copied(mat, 6))
            assert all(len(cols) >= 3 for cols in guard.row_cols), label
            checked += 1
            own = solve_mld_treewidth(guard, rows)
            given = solve_mld_treewidth(guard, rows, ntd=greedy_decomposition(hasse_graph(guard)))
            for key in ("width", "nodes", "table_entries", "join_pairs"):
                assert given.stats[key] == own.stats[key], (label, key)
        for td in (greedy_decomposition(g), reference_greedy_decomposition(g, "min-degree")):
            root = rng.randrange(td.n_nodes)
            decompositions += [td, make_nice(td, g), relabelled(rerooted(td, root))]
        want = (computed.status, computed.weight, computed.witness)
        for td in decompositions:
            _order, _lifts, bag_cols, bits = _plan(td, g, mat, mat.target_mask(rows))
            assert all(b > 0 and b & (b - 1) == 0 for b in bits), label
            for t, bag in enumerate(td.bags):
                assert len({bits[v] for v in bag}) == len(bag), (label, t)
                assert bag_cols[t] == sum(bits[v] for v in bag if v >= mat.nrows), (label, t)
            used = 0
            for b in bits:
                used |= b
            assert used.bit_length() <= td.width + 1, label
            r = solve_mld_treewidth(mat, rows, ntd=td)
            assert (r.status, r.weight, r.witness) == want, label
    # measured: 88
    assert checked >= 60, checked


# (generator seed, weights, weight, witness, table_entries, join_pairs) of
# 30-tetrahedron slices on 8 vertices; "binary" redraws the weights from
# {0, 1}, so many optima tie and the witness is the one with the smallest
# column mask. The kernel reductions solve nearly all such slices outright,
# at counts (1, 0): the coset rule lists up to one solution per column, and
# of seeds 0-1499 only seed 1456's live system has more, so its counts pin
# DP work.
PINNED_DIM3 = [
    (0, "random", 45, [0, 2, 3, 6, 7, 9, 11, 12, 13, 14, 15, 18, 19, 20, 22, 28, 29], 1, 0),
    (1, "random", 68, [1, 2, 3, 4, 9, 12, 14, 19, 20, 23, 24, 25, 27], 1, 0),
    (2, "random", 74, [0, 1, 2, 3, 8, 10, 11, 12, 13, 16, 18, 20, 21, 23, 25, 27, 28, 29], 1, 0),
    (3, "binary", 8, [1, 2, 5, 6, 8, 9, 11, 13, 14, 17, 20, 21, 23, 24, 26, 27], 1, 0),
    (4, "binary", 5, [3, 11, 12, 14, 15, 16, 19, 20, 23, 25, 29], 1, 0),
    (5, "binary", 5, [0, 2, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 16, 18, 20, 25, 28], 1, 0),
    (18, "random", 44, [2, 7, 9, 16, 17, 18, 23, 24, 25, 26], 1, 0),
    (18, "binary", 5, [2, 7, 9, 15, 18, 21, 23, 24, 25, 26, 28], 1, 0),
    (144, "random", 32, [7, 8, 10, 15, 20, 24, 27], 1, 0),
    (144, "binary", 4, [4, 5, 6, 8, 11, 14, 17, 24, 26, 27], 1, 0),
    (547, "random", 47, [2, 5, 10, 13, 16, 18, 19, 20, 22, 24, 26], 1, 0),
    (547, "binary", 6, [2, 5, 10, 13, 16, 18, 19, 20, 22, 24, 26], 1, 0),
    (1456, "random", 35, [0, 2, 5, 6, 7, 17, 19, 28, 29], 176, 80),
    (1456, "binary", 3, [0, 2, 5, 6, 7, 17, 19, 28, 29], 176, 80),
]


@pytest.mark.parametrize(
    "seed, weights, weight, witness, entries, pairs",
    PINNED_DIM3,
    ids=[f"{pin[0]}-{pin[1]}" for pin in PINNED_DIM3],
)
def test_pinned_dim3_answers(seed, weights, weight, witness, entries, pairs):
    """Fixed witnesses and counts: a change of table layout or iteration order
    must not move a tied witness or the work done. Each pinned witness is the
    least (weight, mask) solution of a kernel-span enumeration."""
    cs = random_slice(30, 8, dim=3, seed=seed, weights="random")
    mat = boundary_matrix(cs)
    if weights == "binary":
        rng = random.Random(seed)
        mat = Gf2Matrix(
            mat.nrows, mat.ncols, mat.col_rows, [rng.randint(0, 1) for _ in range(mat.ncols)]
        )
    boundary = random_boundary(cs, seed=seed)
    assert canonical_optimum(mat, sorted(boundary)) == (weight, frozenset(witness))
    r = solve_mld_treewidth(mat, sorted(boundary))
    assert r.status is Status.OPTIMAL
    assert (r.weight, sorted(r.witness)) == (weight, witness)
    assert (r.stats["table_entries"], r.stats["join_pairs"]) == (entries, pairs)


def test_witness_is_the_least_weight_then_mask_optimum():
    """The shared check on the dense slices of seeds 170-175, whose unit
    and {-3..3} weights tie many optima: the witness is the optimum with
    the smallest column mask, and most kernels are left for the DP."""
    reach = check_engines(problems(range(170, 176), ["dense"]))
    # measured, dims 1-3: tables 24, 28, 12
    assert_floors(reach, {"tables": {1: 17, 2: 20, 3: 8}})


def test_stats_shape():
    """Without timing the stats keys are fixed; timing adds the phases, the
    largest node table and the join pairs of each join node, and nothing
    else."""
    cs, boundary = random_problem(3)
    mat = boundary_matrix(cs)
    r = solve_mld_treewidth(mat, sorted(boundary))
    assert set(r.stats) == {
        "algorithm", "width", "nodes", "table_entries", "join_pairs", "decomposition"
    }
    timed = solve_mld_treewidth(mat, sorted(boundary), timing=True)
    assert set(timed.stats) - set(r.stats) == {"phases", "peak_table", "join_bags"}
    assert set(timed.stats["phases"]) == {"kernel", "decompose", "dp"}
    assert all(s >= 0 for s in timed.stats["phases"].values())
    assert 0 < timed.stats["peak_table"] <= timed.stats["table_entries"]
    assert sum(pairs for _, pairs in timed.stats["join_bags"]) == timed.stats["join_pairs"]
    for key in r.stats:
        assert timed.stats[key] == r.stats[key], key
