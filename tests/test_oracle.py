from itertools import combinations

import pytest

from boundedchain import (
    Status,
    UsageError,
    boundary_matrix,
    brute_force_mld,
    solve_mld_dijkstra,
)
from boundedchain.complexes import Gf2Matrix
from boundedchain.gf2 import mask_from_indices
from helpers import best_by_size, canonical_optimum, octahedron_slice, random_problem


def test_modes_agree_on_octahedron():
    mat = boundary_matrix(octahedron_slice())
    a = brute_force_mld(mat, (), mode="exhaustive")
    b = brute_force_mld(mat, (), mode="kernel")
    assert a.status is Status.OPTIMAL and b.status is Status.OPTIMAL
    assert a.weight == b.weight == 0
    assert a.witness == b.witness == frozenset()
    assert b.stats["kernel_dim"] == 1


def test_modes_agree_on_random_instances():
    for seed in range(200):
        cslice, boundary = random_problem(seed, max_top=9, max_vertices=8)
        mat = boundary_matrix(cslice)
        a = brute_force_mld(mat, boundary, mode="exhaustive")
        b = brute_force_mld(mat, boundary, mode="kernel")
        assert a.status is b.status, seed
        assert a.status is Status.OPTIMAL
        assert a.weight == b.weight, seed
        # both keep the least (weight, mask): the canonical witness
        assert a.witness == b.witness == canonical_optimum(mat, boundary)[1], seed
        tmask = 0
        for i in boundary:
            tmask |= 1 << i
        acc = 0
        for j in a.witness:
            acc ^= mat.col_masks[j]
        assert acc == tmask


def test_ties_go_to_the_least_mask():
    """Columns 0 and 1 are twins of equal weight, so {0, 3} and {1, 3} are
    both optimal; each mode keeps the least mask, whichever it meets first."""
    mat = Gf2Matrix(2, 4, [(1,), (1,), (0,), (0,)], [2, 2, 2, 1])
    for mode in ("exhaustive", "kernel"):
        for k in (None, 2):
            r = brute_force_mld(mat, (0, 1), mode=mode, k=k)
            assert (r.weight, r.witness) == (3, frozenset({0, 3})), (mode, k)


def test_negative_weights_favour_large_witnesses():
    mat = boundary_matrix(octahedron_slice())
    neg = Gf2Matrix(mat.nrows, mat.ncols, mat.col_rows, [-1] * 8)
    for mode in ("exhaustive", "kernel"):
        r = brute_force_mld(neg, (), mode=mode)
        assert r.weight == -8
        assert len(r.witness) == 8


def test_infeasible_target():
    mat = boundary_matrix(octahedron_slice())
    for mode in ("exhaustive", "kernel"):
        r = brute_force_mld(mat, (0,), mode=mode)
        assert r.status is Status.INFEASIBLE
        assert r.weight is None and r.witness is None


def test_limits_return_resource_limit():
    """Over its enumeration limit the oracle reports a status, as every
    engine does, with the reason in its stats."""
    mat = Gf2Matrix(1, 25, [(0,)] * 25, [1] * 25)
    r = brute_force_mld(mat, (0,), mode="exhaustive")
    assert r.status is Status.RESOURCE_LIMIT
    assert r.stats == {
        "algorithm": "brute",
        "reason": "25 columns exceed exhaustive limit 20",
    }
    r = brute_force_mld(mat, (0,), mode="kernel", k=3)
    assert r.status is Status.RESOURCE_LIMIT
    assert r.stats == {
        "algorithm": "brute",
        "k": 3,
        "reason": "kernel dimension 24 exceeds enumeration limit 20",
    }
    # an infeasible target is known before the kernel is enumerated
    r = brute_force_mld(Gf2Matrix(2, 25, [(0,)] * 25, [1] * 25), (1,))
    assert r.status is Status.INFEASIBLE and r.stats["kernel_dim"] == 24
    with pytest.raises(UsageError):
        brute_force_mld(mat, (0,), mode="fast")
    with pytest.raises(UsageError):
        brute_force_mld(mat, (5,))
    with pytest.raises(UsageError, match="k must be"):
        brute_force_mld(mat, (0,), k=-1)


def test_auto_mode_switches_to_kernel():
    """Above 20 columns auto mode enumerates the kernel: 11 pairs of twin
    columns leave a kernel of dimension 11 + 9."""
    mat = Gf2Matrix(2, 22, [(0,), (1,)] * 11, [1] * 22)
    r = brute_force_mld(mat, (0,), mode="auto")
    assert r.stats["mode"] == "kernel" and r.stats["kernel_dim"] == 20
    assert r.weight == 1
    assert brute_force_mld(mat, (0,), mode="auto", k=0).status is Status.NOT_FOUND_WITHIN_BOUND


def test_size_bound_sweep_matches_restricted_enumeration():
    """For every k, both enumerations keep the least (weight, mask) solution
    of size <= k, and agree with the bounded search in status and weight."""
    for trial in range(25):
        cs, boundary = random_problem(trial, max_top=8, max_vertices=8)
        mat = boundary_matrix(cs)
        target = sorted(boundary)
        best = best_by_size(mat, target)
        solutions = sorted(
            (mat.weight_of(cols), mask_from_indices(cols), len(cols))
            for size in range(mat.ncols + 1)
            for cols in combinations(range(mat.ncols), size)
            if mat.product_mask(cols) == mask_from_indices(target)
        )
        for k in range(mat.ncols + 1):
            fits = [w for s, w in best.items() if s <= k]
            search = solve_mld_dijkstra(mat, target, k=k)
            for mode in ("exhaustive", "kernel"):
                r = brute_force_mld(mat, target, mode=mode, k=k)
                assert r.status is search.status, (trial, k, mode)
                assert r.weight == search.weight, (trial, k, mode)
                assert r.stats["k"] == k
                if not fits:
                    assert r.status is Status.NOT_FOUND_WITHIN_BOUND, (trial, k, mode)
                    continue
                assert r.status is Status.OPTIMAL, (trial, k, mode)
                assert r.weight == min(fits), (trial, k, mode)
                assert len(r.witness) <= k, (trial, k, mode)
                least = next((w, m) for w, m, size in solutions if size <= k)
                assert (r.weight, mask_from_indices(r.witness)) == least, (trial, k, mode)
                assert mat.product_mask(r.witness) == mask_from_indices(target)
                assert mat.weight_of(r.witness) == r.weight
