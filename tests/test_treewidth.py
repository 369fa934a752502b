import random

import pytest

from boundedchain import (
    Graph,
    InputError,
    Status,
    UsageError,
    boundary_matrix,
    brute_force_mld,
    build_slice,
    greedy_decomposition,
    hasse_graph,
    make_nice,
    solve_mld_treewidth,
)
from boundedchain.complexes import Gf2Matrix
from boundedchain.decomposition import FORGET, JOIN, LEAF, NiceTreeDecomposition
from boundedchain.treewidth import BagContext, process_bag
from helpers import octahedron_slice, punctured_octahedron, random_problem


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
    rng = random.Random(13)
    for trial in range(60):
        cs, boundary = random_problem(trial, max_top=9, max_vertices=8)
        mat = boundary_matrix(cs)
        signed = [w if rng.random() < 0.5 else -w for w in mat.col_weights]
        mat = Gf2Matrix(mat.nrows, mat.ncols, mat.col_rows, signed)
        ref = brute_force_mld(mat, sorted(boundary), mode="exhaustive")
        got = solve_mld_treewidth(mat, sorted(boundary))
        assert got.status is ref.status, trial
        assert got.weight == ref.weight, trial
        acc = 0
        for j in got.witness:
            acc ^= mat.col_masks[j]
        want = 0
        for i in boundary:
            want |= 1 << i
        assert acc == want, trial


def test_oracle_sweep_and_heuristic_invariance():
    for seed in range(80):
        cs, boundary = random_problem(seed, max_top=10)
        mat = boundary_matrix(cs)
        ref = brute_force_mld(mat, sorted(boundary))
        for heuristic in ("min-fill", "min-degree"):
            r = solve_mld_treewidth(mat, sorted(boundary), heuristic=heuristic)
            assert r.status is ref.status, (seed, heuristic)
            if ref.is_optimal:
                assert r.weight == ref.weight, (seed, heuristic)


def test_supplied_decompositions():
    cs, boundary = punctured_octahedron()
    mat = boundary_matrix(cs)
    g = hasse_graph(mat)
    td = greedy_decomposition(g, "min-degree")
    plain = solve_mld_treewidth(mat, sorted(boundary), ntd=td)
    assert plain.weight == 7
    assert plain.stats["decomposition"] == "given"
    nice = solve_mld_treewidth(mat, sorted(boundary), ntd=make_nice(td, g))
    assert nice.weight == 7


def test_rejects_unusable_decompositions():
    cs, boundary = punctured_octahedron()
    mat = boundary_matrix(cs)
    # decomposition of a different (too small) graph
    wrong = make_nice(greedy_decomposition(Graph(3, [(0, 1), (1, 2)])))
    with pytest.raises(UsageError):
        solve_mld_treewidth(mat, sorted(boundary), ntd=wrong)
    with pytest.raises(UsageError):
        solve_mld_treewidth(mat, sorted(boundary), ntd="min-fill")
    with pytest.raises(UsageError):
        solve_mld_treewidth(mat, (99,))


def test_malformed_nice_decomposition_is_an_input_error():
    """A nice decomposition gets the plain class's root and children checks."""
    mat = Gf2Matrix(1, 1, [(0,)], [1])
    with pytest.raises(InputError, match="root"):
        solve_mld_treewidth(
            mat, [0], ntd=NiceTreeDecomposition([frozenset()], [LEAF], [None], [()], 5)
        )
    with pytest.raises(InputError, match="children"):
        NiceTreeDecomposition([frozenset()], [LEAF], [None], [(), ()], 0)
    with pytest.raises(InputError, match="kind"):
        NiceTreeDecomposition([frozenset()], [LEAF, LEAF], [None], [()], 0)


def test_infeasible_target():
    cs, _ = punctured_octahedron()
    mat = boundary_matrix(cs)
    r = solve_mld_treewidth(mat, (0,))
    assert r.status is Status.INFEASIBLE
    assert r.weight is None and r.witness is None


def test_join_table_size_is_bounded():
    """Each join combines at most 2^|bag cols| * 4^|bag rows| entry pairs."""
    for seed in range(30):
        cs, boundary = random_problem(seed)
        r = solve_mld_treewidth(
            boundary_matrix(cs), sorted(boundary), detailed_stats=True
        )
        for pairs, cap in r.stats["join_bags"]:
            assert pairs <= cap


def test_process_bag_join_by_hand():
    """One shared row and column; parities must cancel the double count."""
    ctx = BagContext(JOIN, (0, 1), (0,), (0,), col_nbrs=(0b1,), target_mask=0b1)
    left = {(0, 0): 0, (1, 1): 2}
    right = {(0, 0): 0, (1, 1): 5}
    table, bp, pairs = process_bag(ctx, [left, right])
    assert table == {(0, 1): 0, (1, 0): 7}
    assert bp == {(0, 1): 0, (1, 0): 1}
    assert pairs == 2


def test_process_bag_leaf_and_forget():
    leaf, _, _ = process_bag(BagContext(LEAF, (), (), ()), [])
    assert leaf == {(0, 0): 0}
    # forgetting a column: keep vs drop, weight charged on keep
    ctx = BagContext(FORGET, (0,), (), (), is_col=True, pos=0, col=4, weight=9)
    table, bp, _ = process_bag(ctx, [{(0, 0): 3, (1, 0): 1}])
    assert table == {(0, 0): 3}  # kept would cost 1 + 9 = 10
    assert bp == {(0, 0): False}
    cheap, bp2, _ = process_bag(ctx, [{(0, 0): 12, (1, 0): 1}])
    assert cheap == {(0, 0): 10}
    assert bp2 == {(0, 0): True}


def test_stats_shape():
    cs, boundary = random_problem(3)
    r = solve_mld_treewidth(boundary_matrix(cs), sorted(boundary))
    for key in ("width", "nodes", "table_entries", "join_pairs", "decomposition"):
        assert key in r.stats
    assert "join_bags" not in r.stats
