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
from boundedchain.decomposition import (
    FORGET,
    INTRODUCE,
    JOIN,
    LEAF,
    NiceTreeDecomposition,
    validate_decomposition,
    validate_nice,
)
from boundedchain.fileio import parse_decomposition_text
from boundedchain.generators import random_boundary, random_slice
from boundedchain.treewidth import BagContext, backtrack, process_bag
from helpers import (
    canonical_optimum,
    octahedron_slice,
    punctured_octahedron,
    random_problem,
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
    # make_nice rebuilds a nice decomposition node for node, so every count agrees
    for seed in range(20):
        cs, boundary = random_problem(seed)
        mat = boundary_matrix(cs)
        g = hasse_graph(mat)
        for heuristic in ("min-fill", "min-degree"):
            computed = solve_mld_treewidth(mat, sorted(boundary), heuristic=heuristic)
            for ntd in (
                greedy_decomposition(g, heuristic),
                make_nice(greedy_decomposition(g, heuristic), g),
            ):
                given = solve_mld_treewidth(mat, sorted(boundary), ntd=ntd)
                assert (given.status, given.weight, given.witness) == (
                    computed.status, computed.weight, computed.witness
                ), (seed, heuristic)
                for key in ("width", "nodes", "table_entries", "join_pairs"):
                    assert given.stats[key] == computed.stats[key], (seed, heuristic, key)


def test_nice_decomposition_with_parents_before_children():
    """A valid nice decomposition whose ids run root-first is re-made children-first."""
    mat = Gf2Matrix(1, 1, [(0,)], [1])
    g = hasse_graph(mat)  # row 0 is vertex 0, column 0 is vertex 1
    root_first = NiceTreeDecomposition(
        [frozenset(), {0}, {0, 1}, {1}, frozenset()],
        [FORGET, FORGET, INTRODUCE, INTRODUCE, LEAF],
        [0, 1, 0, 1, None],
        [(1,), (2,), (3,), (4,), ()],
        0,
    )
    assert validate_decomposition(root_first, g) is None
    assert validate_nice(root_first) is None
    plain = parse_decomposition_text(
        "td 5 1\nb 0\nb 1 0\nb 2 0 1\nb 3 1\nb 4\ne 0 1\ne 1 2\ne 2 3\ne 3 4\n"
    )
    for target in ([0], []):
        computed = solve_mld_treewidth(mat, target)
        for ntd in (root_first, plain):
            given = solve_mld_treewidth(mat, target, ntd=ntd)
            assert given.stats["decomposition"] == "given"
            assert (given.status, given.weight, given.witness) == (
                computed.status, computed.weight, computed.witness
            )
            assert given.stats["nodes"] == computed.stats["nodes"]


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
    """A nice decomposition gets the plain class's root and children checks;
    its kinds are not trusted, since the DP rebuilds the nice form from the bags."""
    mat = Gf2Matrix(1, 1, [(0,)], [1])
    with pytest.raises(InputError, match="root"):
        solve_mld_treewidth(
            mat, [0], ntd=NiceTreeDecomposition([frozenset()], [LEAF], [None], [()], 5)
        )
    with pytest.raises(InputError, match="children"):
        NiceTreeDecomposition([frozenset()], [LEAF], [None], [(), ()], 0)
    with pytest.raises(InputError, match="kind"):
        NiceTreeDecomposition([frozenset()], [LEAF, LEAF], [None], [()], 0)
    mislabelled = NiceTreeDecomposition(
        [frozenset(), {0, 1}, frozenset()], [JOIN, LEAF, FORGET], [None, None, 0],
        [(1,), (2,), ()], 0,
    )
    assert validate_nice(mislabelled) is not None
    r = solve_mld_treewidth(mat, [0], ntd=mislabelled)
    assert (r.weight, r.witness) == (1, frozenset((0,)))


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


def pack(q, p, shift=2):
    """A table key: bag-column mask q, bag-row parity mask p."""
    return q | p << shift


def value(weight, mask, ncols=8):
    """A table value: the forgotten selected columns' weight and mask."""
    return (weight << ncols) + mask


def test_process_bag_join_by_hand():
    """One shared row and column; parities must cancel the double count,
    weights add and the two sides' forgotten columns are joined."""
    ctx = BagContext(JOIN, (0, 1), (0,), (0,), shift=2, col_nbrs=(0b1,), target_mask=0b1)
    left = {pack(0, 0): value(0, 0), pack(1, 1): value(2, 0b01)}
    right = {pack(0, 0): value(0, 0), pack(1, 1): value(5, 0b10)}
    table, pairs = process_bag(ctx, [left, right])
    assert table == {pack(0, 1): value(0, 0), pack(1, 0): value(7, 0b11)}
    assert pairs == 2


@pytest.mark.parametrize("larger", ["left", "right"])
def test_join_table_does_not_depend_on_the_indexed_side(larger):
    """Two (P_left, P_right) pairs reach one key at one weight: the smaller
    mask wins, whichever child the join indexes and whichever it streams."""
    ctx = BagContext(JOIN, (0, 1), (0, 1), (0,), shift=2, col_nbrs=(0b11,))
    left = {pack(0, 0b10): value(1, 0b0001), pack(0, 0b01): value(1, 0b0010)}
    right = {pack(0, 0b11): value(4, 0b0100), pack(0, 0b00): value(4, 0b1000)}
    unmatched = {pack(1, 0b00): 0, pack(1, 0b01): 0, pack(1, 0b11): 0}
    if larger == "left":
        left.update(unmatched)
    else:
        right.update(unmatched)
    want = {pack(0, 0b01): value(5, 0b0101), pack(0, 0b10): value(5, 0b0110)}
    for children in ([left, right], [right, left]):
        table, pairs = process_bag(ctx, children)
        assert table == want
        assert pairs == 4


def test_process_bag_leaf_and_forget():
    leaf, pairs = process_bag(BagContext(LEAF, (), (), (), shift=2), [])
    assert leaf == {pack(0, 0): 0}
    assert pairs == 0
    # forgetting column 4: keep vs drop, weight and bit charged on keep
    ctx = BagContext(FORGET, (0,), (), (), shift=2, is_col=True, pos=0, charge=value(9, 1 << 4))
    table, _ = process_bag(ctx, [{pack(0, 0): value(3, 0b1), pack(1, 0): value(1, 0)}])
    assert table == {pack(0, 0): value(3, 0b1)}  # kept would cost 1 + 9 = 10
    cheap, _ = process_bag(ctx, [{pack(0, 0): value(12, 0b1), pack(1, 0): value(1, 0)}])
    assert cheap == {pack(0, 0): value(10, 1 << 4)}
    # one weight either way: the smaller mask, here dropping, wins
    tie, _ = process_bag(ctx, [{pack(0, 0): value(10, 0b1), pack(1, 0): value(1, 0)}])
    assert tie == {pack(0, 0): value(10, 0b1)}
    # a negative charge still orders by weight first, and decodes back
    ctx.charge = value(-9, 1 << 4)
    neg, _ = process_bag(ctx, [{pack(0, 0): value(0, 0), pack(1, 0): value(0, 0b1)}])
    assert neg == {pack(0, 0): value(-9, 0b10001)}
    assert backtrack(neg[pack(0, 0)], 8) == (-9, frozenset((0, 4)))


# (generator seed, weights, weight, witness, table_entries, join_pairs) of
# 30-tetrahedron slices on 8 vertices; "binary" redraws the weights from
# {0, 1}, so many optima tie and the witness is the one with the smallest
# column mask.
PINNED_DIM3 = [
    (0, "random", 45, [0, 2, 3, 6, 7, 9, 11, 12, 13, 14, 15, 18, 19, 20, 22, 28, 29], 32967, 1751),
    (1, "random", 68, [1, 2, 3, 4, 9, 12, 14, 19, 20, 23, 24, 25, 27], 4984, 380),
    (2, "random", 74, [0, 1, 2, 3, 8, 10, 11, 12, 13, 16, 18, 20, 21, 23, 25, 27, 28, 29], 8392, 607),
    (3, "binary", 8, [1, 2, 5, 6, 8, 9, 11, 13, 14, 17, 20, 21, 23, 24, 26, 27], 11324, 382),
    (4, "binary", 5, [3, 11, 12, 14, 15, 16, 19, 20, 23, 25, 29], 15253, 771),
    (5, "binary", 5, [0, 2, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 16, 18, 20, 25, 28], 4327, 249),
]


@pytest.mark.parametrize("seed, weights, weight, witness, entries, pairs", PINNED_DIM3)
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
    """On dim-2 and dim-3 slices with random and with {-1, 0, 1} weights,
    under both heuristics and a supplied decomposition hung from a random
    node, the witness is the optimum with the smallest column mask."""
    for dim, n_top, n_vertices in ((2, 16, 8), (3, 20, 7)):
        for seed in range(25):
            cs = random_slice(n_top, n_vertices, dim=dim, seed=seed, weights="random")
            mat = boundary_matrix(cs)
            rows = sorted(random_boundary(cs, seed=seed))
            rng = random.Random(seed)
            signed = Gf2Matrix(
                mat.nrows, mat.ncols, mat.col_rows, [rng.randint(-1, 1) for _ in range(mat.ncols)]
            )
            td = greedy_decomposition(hasse_graph(mat), "min-fill")
            given = rerooted(td, rng.randrange(td.n_nodes))
            for m in (mat, signed):
                want = canonical_optimum(m, rows)
                for how in ({"heuristic": "min-fill"}, {"heuristic": "min-degree"}, {"ntd": given}):
                    r = solve_mld_treewidth(m, rows, **how)
                    assert (r.weight, r.witness) == want, (dim, seed, m is signed, how)


def test_stats_shape():
    cs, boundary = random_problem(3)
    r = solve_mld_treewidth(boundary_matrix(cs), sorted(boundary))
    for key in ("width", "nodes", "table_entries", "join_pairs", "decomposition"):
        assert key in r.stats
    assert "join_bags" not in r.stats
