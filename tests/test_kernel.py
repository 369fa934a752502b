"""``kernel.reduce`` and ``kernel.backtrack`` on their own, apart from the
two engines that call them: the brute-force oracle solves the kernel. The
shared check (``helpers.check_engines``) also runs every engine on the
same problems."""

from collections import Counter

import pytest

from boundedchain import ConsistencyError, Status, boundary_matrix, brute_force_mld, solve_mld_treewidth
from boundedchain import kernel
from boundedchain.complexes import Gf2Matrix
from boundedchain.gf2 import indices_from_mask, mask_from_indices
from boundedchain.kernel import _coset, _propagate, _series, backtrack, reduce
from helpers import (
    answer,
    assert_floors,
    canonical_optimum,
    check_engines,
    copied,
    irreducible,
    problems,
    random_problem,
)


def series_kernel(mat, rows):
    """The kernel of the series rule alone, ``_series`` after
    ``_propagate``: what ``reduce`` returns where the coset rule declines."""
    return _series(mat, *_propagate(mat, mat.target_mask(rows)))


def oracle_on_kernel(mat, rows, kern):
    """``kern``, a kernel of A x = u, solved by the brute-force oracle and
    decoded: (weight, witness) on ``mat``, or None where it is infeasible."""
    r = brute_force_mld(kern.matrix, indices_from_mask(kern.target), mode="kernel")
    if r.status is Status.INFEASIBLE:
        return None
    return backtrack(mat, kern, r.weight)


def test_reduce_against_the_oracle():
    """The shared check on seeds 0-59 of the random problems: the oracle on
    ``reduce``'s kernel, and every engine, give the least (weight, mask)
    optimum, and are infeasible exactly where the instance is. The kernel
    passes solve nearly every dim-3 problem of this size outright."""
    reach = check_engines(problems(range(60), ["random"]))
    # measured, dims 1-3: left 76, 12, 4; searched 56, 11, 4; infeasible 58, 104, 114
    assert_floors(reach, {
        "left": {1: 55, 2: 8, 3: 2}, "searched": {1: 40, 2: 8, 3: 2}, "infeasible": {1: 40, 2: 70, 3: 80}
    })


def test_coset_rule_against_the_series_rules():
    """On 2,400 random problems, ``reduce``'s kernel, which the coset rule
    empties where the live system has at most one solution per column,
    and the series rule's kernel, solved by the oracle, decode to the same
    answer, the least (weight, mask) optimum. The rule both solves and
    declines many of them."""
    fired = declined = 0
    for label, _dim, mat, rows in problems(range(200), ["random"]):
        want = canonical_optimum(mat, rows)
        assert oracle_on_kernel(mat, rows, reduce(mat, mat.target_mask(rows))) == want, label
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
        check_engines([("pairs", None, pairs, rows)])
    assert coset_kernel(pairs, [0, 1]).base == (-2 << 4) | 0b0110
    twins = Gf2Matrix(2, 4, [(0, 1)] * 4, [3, 1, 4, 1])
    for rows in ([], [0, 1]):
        assert coset_kernel(twins, rows) is None, rows
        check_engines([("twins", None, twins, rows)])
    assert shape(coset_kernel(twins, [0])) == (1, 0, 1, {0: 0})
    triangle = Gf2Matrix(3, 3, [(0, 1), (1, 2), (0, 2)], [1, 1, 1])
    for rows in ([0], [1], [2], [0, 1, 2]):
        assert shape(coset_kernel(triangle, rows)) == (1, 0, 1, {max(rows): 0}), rows
        assert check_engines([("triangle", None, triangle, rows)])["infeasible"][None] == 1, rows


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
                check_engines([((mat, rows), None, wide, rows)])


def test_supplied_decomposition_on_an_emptied_kernel():
    """The shared check on the random problems of seeds 60-79 that the
    coset rule settles: a supplied decomposition, hung from either of two
    nodes, is contracted onto the settled kernel, with the same nodes, the
    canonical answer, and width -1 where the kernel is empty."""
    settled = [
        (label, dim, mat, rows) for label, dim, mat, rows in problems(range(60, 80), ["random"])
        if coset_kernel(mat, rows) is not None
    ]
    per_dim = Counter(dim for _label, dim, _mat, _rows in settled)
    # measured, dims 1-3: 60, 76 and 80 of 80
    assert min(per_dim[dim] for dim in (1, 2, 3)) >= 45, per_dim
    check_engines(settled)


def test_backtrack_checks_the_decoded_weight():
    """A value whose weight part disagrees with its column mask decodes to a
    witness of another weight: ``backtrack`` raises instead of returning it."""
    checked = 0
    for label, _dim, mat, rows in problems(range(80), ["random"]):
        kern = reduce(mat, mat.target_mask(rows))
        r = brute_force_mld(kern.matrix, indices_from_mask(kern.target), mode="kernel")
        if r.status is not Status.OPTIMAL:
            continue
        assert backtrack(mat, kern, r.weight) == canonical_optimum(mat, rows), label
        with pytest.raises(ConsistencyError, match="disagrees with witness weight"):
            backtrack(mat, kern, r.weight + (1 << len(kern.cols)))
        checked += 1
    assert checked >= 100, checked


# Series merges leave column 0 on row 0 alone, and later merges leave
# column 7 on row 0 alone too: a kernel that once filed columns by their row
# sets lost column 7 here, merging it into column 0 after column 0 had left.
REFILED = Gf2Matrix(
    7, 11,
    [[0, 3, 4, 6], [0, 6], [1, 2, 3], [4], [2, 6], [2, 5], [0, 5], [0, 1, 3, 5], [3, 6], [5], [4]],
    [-1, 3, 8, 8, 4, 4, 0, 2, 5, 1, 8],
)


def test_series_merges_against_every_target():
    """On ``REFILED``, against rows 0 and 2 and every other target, the
    oracle on the kernel and every engine give the least (weight, mask)
    optimum."""
    assert canonical_optimum(REFILED, [0, 2]) == (4, frozenset({5, 6}))
    check_engines(
        (("REFILED", rows), None, REFILED, rows)
        for rows in map(indices_from_mask, range(1 << REFILED.nrows))
    )


def test_dense_slices_against_canonical_optimum():
    """The shared check on seeds 0-5 of the dense slices: every engine
    gives the least (weight, mask) optimum, and many of their kernels are
    left for the engines, in every dimension."""
    reach = check_engines(problems(range(6), ["dense"]))
    # measured, dims 1-3: left and tables 24, 26, 12; searched 17, 25, 12;
    # infeasible 4, 32, 12
    assert_floors(reach, {
        "left": {1: 17, 2: 18, 3: 8}, "searched": {1: 12, 2: 18, 3: 8},
        "tables": {1: 17, 2: 18, 3: 8}, "infeasible": {2: 22, 3: 8},
    })


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
