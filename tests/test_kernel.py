"""``kernel.reduce`` and ``kernel.backtrack`` on their own, apart from the
two engines that call them: the brute-force oracle solves the kernel."""

import random

import pytest

from boundedchain import (
    ConsistencyError,
    Status,
    boundary_matrix,
    brute_force_mld,
    hasse_graph,
    solve_mld_dijkstra,
    solve_mld_treewidth,
)
from boundedchain import kernel
from boundedchain.complexes import Gf2Matrix
from boundedchain.gf2 import indices_from_mask, mask_from_indices
from boundedchain.kernel import _coset, _propagate, _series, backtrack, reduce
from boundedchain.generators import random_boundary, random_slice
from helpers import (
    canonical_optimum,
    copied,
    irreducible,
    random_problem,
    reference_greedy_decomposition,
    rerooted,
)


def kernel_problems(seeds=80):
    """(label, matrix, rows): random problems of dims 1-3, ``seeds`` of
    each, plain and with weights redrawn from -3..3, each against its
    boundary and a random row subset as target (infeasible ones
    included)."""
    for dim in (1, 2, 3):
        for seed in range(seeds):
            cs, boundary = random_problem(seed, max_top=20, dim=dim)
            plain = boundary_matrix(cs)
            rng = random.Random(f"{dim}-{seed}")
            signed = Gf2Matrix(
                plain.nrows, plain.ncols, plain.col_rows,
                [rng.randint(-3, 3) for _ in range(plain.ncols)],
            )
            targets = (sorted(boundary), sorted(rng.sample(range(plain.nrows), rng.randint(0, plain.nrows))))
            for mat in (plain, signed):
                for rows in targets:
                    yield (dim, seed, mat is signed, rows), mat, rows


def series_kernel(mat, rows):
    """The kernel of the series rule alone, ``_series`` after
    ``_propagate``: what ``reduce`` returns where the coset rule declines."""
    return _series(mat, *_propagate(mat, mat.target_mask(rows)))


def oracle_on_kernel(mat, rows, kern=None):
    """The kernel of A x = u, ``reduce``'s unless ``kern`` is given, solved
    by the brute-force oracle and decoded: (weight, witness) on ``mat``, or
    None where the kernel is infeasible."""
    if kern is None:
        kern = reduce(mat, mat.target_mask(rows))
    r = brute_force_mld(kern.matrix, indices_from_mask(kern.target), mode="kernel")
    if r.status is Status.INFEASIBLE:
        return None
    return backtrack(mat, kern, r.weight)


def test_reduce_against_the_oracle():
    """A third engine on the kernel: its optimum decodes to the least
    (weight, mask) optimum of the whole matrix, and the kernel is infeasible
    exactly where the instance is."""
    left = infeasible = 0
    for label, mat, rows in kernel_problems():
        want = canonical_optimum(mat, rows)
        assert oracle_on_kernel(mat, rows) == want, label
        left += reduce(mat, mat.target_mask(rows)).matrix.ncols > 0
        infeasible += want is None
    assert left >= 80 and infeasible >= 200, (left, infeasible)


def test_coset_rule_against_the_series_rules():
    """On 2,400 random problems, ``reduce``'s kernel, which the coset rule
    empties where the live system has at most one solution per column,
    and the series rule's kernel, solved by the oracle, decode to the same
    answer, the least (weight, mask) optimum. The rule both solves and
    declines many of them."""
    fired = declined = 0
    for label, mat, rows in kernel_problems(seeds=200):
        want = canonical_optimum(mat, rows)
        assert oracle_on_kernel(mat, rows) == want, label
        assert oracle_on_kernel(mat, rows, series_kernel(mat, rows)) == want, label
        live = _propagate(mat, mat.target_mask(rows))
        if live[2]:  # with a live column
            kern = _coset(mat, *live)
            fired += kern is not None
            declined += kern is None
    assert fired >= 300 and declined >= 300, (fired, declined)


def shape(kern):
    """A ``Kernel``'s (rows, columns, target, image)."""
    return kern.matrix.nrows, kern.matrix.ncols, kern.target, kern.image


def fields(kern):
    """Every field of a ``Kernel``, its matrix's too, for comparison."""
    m = kern.matrix
    return m.col_rows, m.col_weights, *shape(kern), kern.base, kern.cols, kern.fixed


def coset_kernel(mat, rows):
    """The coset rule's kernel, checked to be ``reduce``'s, or None where
    the rule declines, checked to leave ``reduce`` the series rule's."""
    kern = _coset(mat, *_propagate(mat, mat.target_mask(rows)))
    want = series_kernel(mat, rows) if kern is None else kern
    assert fields(reduce(mat, mat.target_mask(rows))) == fields(want), rows
    return kern


def test_coset_rule_by_hand():
    """Rows 0 and 1 both lie on column 0 alone: against row 0, no live
    column is left and row 0 stays with its bit set, so the kernel is that
    row; against both rows, x_0 = 1 and the kernel is empty. Rows 0 and 1
    over columns 0, 1 and 2, 3 have 2^2 solutions for 4 columns, which the
    rule lists: the least packed charge, here of a negative weight, is the
    base of an empty kernel. Twin rows over 4 columns have 2^3, twice the
    columns, and the series rule gets them, to leave them whole for the
    engines; against one twin alone they have no solution, which the
    elimination finds first. A triangle's three edges,
    each a column over two of its three rows, cannot hit an odd number of
    rows: no solution, and the kernel is the last row of the target."""
    forced = Gf2Matrix(2, 1, [(0, 1)], [4])
    assert shape(coset_kernel(forced, [0])) == (1, 0, 1, {0: 0})
    assert answer(solve_mld_treewidth(forced, [0])) is None
    kern = coset_kernel(forced, [0, 1])
    assert (shape(kern), kern.base, kern.fixed) == ((0, 0, 0, {}), 0, [0])
    pairs = Gf2Matrix(2, 4, [(0,), (0,), (1,), (1,)], [2, 1, -3, -3])
    for rows in ([0, 1], [0], [1], []):
        kern = coset_kernel(pairs, rows)
        want = canonical_optimum(pairs, rows)
        assert shape(kern) == (0, 0, 0, {}), rows
        assert kern.base == (want[0] << 4) | mask_from_indices(want[1]), rows
        assert backtrack(pairs, kern, 0) == want, rows
        assert set(engine_answers(pairs, rows)) == {want}, rows
    assert coset_kernel(pairs, [0, 1]).base == (-2 << 4) | 0b0110
    twins = Gf2Matrix(2, 4, [(0, 1)] * 4, [3, 1, 4, 1])
    for rows in ([], [0, 1]):
        assert coset_kernel(twins, rows) is None, rows
        want = canonical_optimum(twins, rows)
        assert set(engine_answers(twins, rows)) == {want}, rows
    assert shape(coset_kernel(twins, [0])) == (1, 0, 1, {0: 0})
    triangle = Gf2Matrix(3, 3, [(0, 1), (1, 2), (0, 2)], [1, 1, 1])
    for rows in ([0], [1], [2], [0, 1, 2]):
        assert shape(coset_kernel(triangle, rows)) == (1, 0, 1, {max(rows): 0}), rows
        assert set(engine_answers(triangle, rows)) == {None}, rows


def test_coset_rule_skips_the_elimination(monkeypatch):
    """With no live column, or with more live columns than live rows by the
    bit length of the instance's column count or more, nothing is
    eliminated: the rule declines or solves without ``Gf2System``."""
    built = []
    real = kernel.Gf2System
    monkeypatch.setattr(kernel, "Gf2System", lambda cols: built.append(cols) or real(cols))

    def coset(mat, rows):
        return _coset(mat, *_propagate(mat, mat.target_mask(rows)))

    wide = Gf2Matrix(1, 4, [(0,)] * 4, [1, 2, 3, 4])  # 4 - 1 >= 3, the bit length of its 4 columns
    assert coset(wide, [0]) is None
    assert coset(Gf2Matrix(2, 1, [(0, 1)], [4]), [0, 1]) is not None
    assert built == []
    assert coset(Gf2Matrix(2, 4, [(0,), (0,), (1,), (1,)], [1] * 4), [0]) is not None
    assert len(built) == 1


def with_forced(mat, count):
    """``mat`` with ``count`` columns added, each alone on a new row, so
    that propagation fixes them and leaves ``mat``'s live system."""
    return Gf2Matrix(
        mat.nrows + count,
        mat.ncols + count,
        [*mat.col_rows, *((mat.nrows + i,) for i in range(count))],
        [*mat.col_weights, *range(1, count + 1)],
    )


def test_coset_gate_counts_every_column(monkeypatch):
    """The rule lists up to one solution per column of the instance, not
    per live column. One row over 4 columns has 2^3 solutions, and so have
    twin rows over them: more than the 4 live columns. With 4 more columns,
    which propagation fixes, 2^3 is at most the 8 in all, and the rule
    empties the kernel at the least (weight, mask) optimum. With 3 more,
    2^3 exceeds the 7 in all, and it declines: the row before any
    elimination, since 4 - 1 live rows is at least 3, the bit length of 7,
    and the twins after one, which finds d = 3 though 4 - 2 is less. Every
    engine gives the least (weight, mask) optimum either way."""
    built = []
    real = kernel.Gf2System
    monkeypatch.setattr(kernel, "Gf2System", lambda cols: built.append(cols) or real(cols))
    row = Gf2Matrix(1, 4, [(0,)] * 4, [3, 1, 4, 1])
    twins = Gf2Matrix(2, 4, [(0, 1)] * 4, [3, -1, 4, 1])
    for mat, live_targets, eliminated in ((row, ([], [0]), 0), (twins, ([], [0, 1]), 1)):
        for count in (4, 3):
            wide = with_forced(mat, count)
            for live in live_targets:
                rows = live + [mat.nrows + i for i in range(0, count, 2)]
                want = canonical_optimum(wide, rows)
                built.clear()
                kern = _coset(wide, *_propagate(wide, wide.target_mask(rows)))
                if count == 4:
                    assert kern is not None and shape(kern) == (0, 0, 0, {}), (mat, rows)
                    assert backtrack(wide, kern, 0) == want, (mat, rows)
                else:
                    assert kern is None and len(built) == eliminated, (mat, rows)
                assert (coset_kernel(wide, rows) is None) == (kern is None)  # and reduce agrees
                assert set(engine_answers(wide, rows)) == {want}, (mat, rows)


def test_supplied_decomposition_on_an_emptied_kernel():
    """Where the coset rule settles the kernel, a supplied decomposition,
    hung from either end, is contracted onto it: the same nodes, the
    canonical answer, and width -1 where the kernel is empty."""
    checked = 0
    for label, mat, rows in kernel_problems(seeds=10):
        if coset_kernel(mat, rows) is None:
            continue
        checked += 1
        g = hasse_graph(mat)
        td = reference_greedy_decomposition(g, "min-degree")
        for ntd in (td, rerooted(td, 0)):
            r = solve_mld_treewidth(mat, rows, ntd=ntd)
            assert answer(r) == canonical_optimum(mat, rows), label
            assert r.stats["nodes"] == ntd.n_nodes, label
            if r.status is Status.OPTIMAL:
                assert r.stats["width"] == -1, label
    assert checked >= 30, checked


def test_backtrack_checks_the_decoded_weight():
    """A value whose weight part disagrees with its column mask decodes to a
    witness of another weight: ``backtrack`` raises instead of returning it."""
    checked = 0
    for label, mat, rows in kernel_problems():
        kern = reduce(mat, mat.target_mask(rows))
        r = brute_force_mld(kern.matrix, indices_from_mask(kern.target), mode="kernel")
        if r.status is not Status.OPTIMAL:
            continue
        assert backtrack(mat, kern, r.weight) == canonical_optimum(mat, rows), label
        with pytest.raises(ConsistencyError, match="disagrees with witness weight"):
            backtrack(mat, kern, r.weight + (1 << len(kern.cols)))
        checked += 1
    assert checked >= 100, checked


def answer(result):
    """(weight, witness) of a solve, or None where it is infeasible."""
    return None if result.status is Status.INFEASIBLE else (result.weight, result.witness)


def engine_answers(mat, rows, td=None):
    """The answers of the DP, computed and on ``td`` if given, and of the
    unbounded search, which takes signed weights too."""
    got = [answer(solve_mld_treewidth(mat, rows))]
    if td is not None:
        got.append(answer(solve_mld_treewidth(mat, rows, ntd=td)))
    got.append(answer(solve_mld_dijkstra(mat, rows)))
    return got


# Series merges leave column 0 on row 0 alone, and later merges leave
# column 7 on row 0 alone too: a kernel that once filed columns by their row
# sets lost column 7 here, merging it into column 0 after column 0 had left.
REFILED = Gf2Matrix(
    7, 11,
    [[0, 3, 4, 6], [0, 6], [1, 2, 3], [4], [2, 6], [2, 5], [0, 5], [0, 1, 3, 5], [3, 6], [5], [4]],
    [-1, 3, 8, 8, 4, 4, 0, 2, 5, 1, 8],
)


def test_dominated_column_leaves_the_row_set_index():
    """On ``REFILED``, against rows 0 and 2 and every other target, the
    kernel solved by the oracle and both engines give the least (weight,
    mask) optimum."""
    want = (4, frozenset({5, 6}))
    assert oracle_on_kernel(REFILED, [0, 2]) == canonical_optimum(REFILED, [0, 2]) == want
    for target in range(1 << REFILED.nrows):
        rows = indices_from_mask(target)
        want = canonical_optimum(REFILED, rows)
        assert oracle_on_kernel(REFILED, rows) == want, rows
        assert set(engine_answers(REFILED, rows)) == {want}, rows


def dense_problems():
    """(label, slice, boundary): random problems of dims 1-3, and denser
    dim-2 and dim-3 slices, whose kernels the series rule merges into and
    leaves for the engines."""
    for dim in (1, 2, 3):
        for seed in range(40):
            yield (dim, seed), *random_problem(seed, max_top=24, dim=dim)
    for dim, n_top, n_vertices in ((2, 30, 9), (2, 40, 10), (3, 25, 7)):
        for seed in range(20):
            cs = random_slice(n_top, n_vertices, dim=dim, seed=seed, weights="random")
            yield (dim, n_top, seed), cs, random_boundary(cs, seed=seed)


def test_dense_slices_against_canonical_optimum():
    """The dense problems, with their own weights, weights from 0..3 and
    weights from -3..3, against their boundary and a random row subset:
    the DP, computed and on a supplied decomposition hung from a random
    node, and the search give the least (weight, mask) optimum, and are
    infeasible exactly where it is. Many of their kernels are left for the
    engines, the dim-3 slices' among them."""
    infeasible = left = 0
    for label, cs, boundary in dense_problems():
        plain = boundary_matrix(cs)
        rng = random.Random(f"dominance-{label}")
        redrawn = [
            Gf2Matrix(
                plain.nrows, plain.ncols, plain.col_rows, [rng.randint(lo, 3) for _ in plain.col_rows]
            )
            for lo in (0, -3)
        ]
        td = reference_greedy_decomposition(hasse_graph(plain), "min-degree")
        given = rerooted(td, rng.randrange(td.n_nodes))
        targets = (sorted(boundary), sorted(rng.sample(range(plain.nrows), rng.randint(0, plain.nrows))))
        for mat in (plain, *redrawn):
            for rows in targets:
                want = canonical_optimum(mat, rows)
                infeasible += want is None
                if label[:2] == (3, 25) and len(label) == 3:  # a dense dim-3 slice
                    left += reduce(mat, mat.target_mask(rows)).matrix.ncols > 0
                assert set(engine_answers(mat, rows, given)) == {want}, (label, rows)
    assert infeasible >= 100 and left >= 60, (infeasible, left)


def test_irreducible_keeps_its_whole_matrix():
    """``helpers.irreducible`` gives the series rule no row to start from:
    the series rule's kernel is the whole matrix. With each column six
    times (``helpers.copied``), its solutions outnumber its columns, the
    coset rule declines, and ``reduce`` keeps the whole matrix too."""
    for dim in (1, 2, 3):
        for seed in range(20):
            cs, boundary = random_problem(seed, max_top=12, dim=dim)
            plain = boundary_matrix(cs)
            whole, many = irreducible(plain), irreducible(copied(plain, 6))
            for rows in (sorted(boundary), []):
                for mat, kern in (
                    (whole, series_kernel(whole, rows)),
                    (many, reduce(many, many.target_mask(rows))),
                ):
                    assert (kern.matrix.nrows, kern.matrix.ncols) == (mat.nrows, mat.ncols), (dim, seed)
                    assert len(kern.cols) == mat.ncols
