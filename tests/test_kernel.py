"""``kernel.reduce`` and ``kernel.backtrack`` on their own, apart from the
two engines that call them: the brute-force oracle solves the kernel."""

import random

import pytest

from boundedchain import ConsistencyError, Status, boundary_matrix, brute_force_mld
from boundedchain.complexes import Gf2Matrix
from boundedchain.gf2 import indices_from_mask
from boundedchain.kernel import backtrack, reduce
from helpers import canonical_optimum, random_problem


def kernel_problems():
    """(label, matrix, rows): random problems of dims 1-3, plain and with
    weights redrawn from -3..3, each against its boundary and a random row
    subset as target (infeasible ones included)."""
    for dim in (1, 2, 3):
        for seed in range(50):
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


def oracle_on_kernel(mat, rows):
    """The kernel of A x = u solved by the brute-force oracle and decoded:
    (weight, witness) on ``mat``, or None where the kernel is infeasible."""
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
