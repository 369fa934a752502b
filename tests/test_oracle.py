import pytest

from boundedchain import (
    ResourceLimitError,
    Status,
    UsageError,
    boundary_matrix,
    brute_force_mld,
)
from boundedchain.complexes import Gf2Matrix
from helpers import octahedron_slice, random_problem


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
        # both witnesses must hit the target, not necessarily be equal
        tmask = 0
        for i in boundary:
            tmask |= 1 << i
        for r in (a, b):
            acc = 0
            for j in r.witness:
                acc ^= mat.col_masks[j]
            assert acc == tmask


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


def test_limits_raise():
    mat = Gf2Matrix(1, 25, [(0,)] * 25, [1] * 25)
    with pytest.raises(ResourceLimitError):
        brute_force_mld(mat, (0,), mode="exhaustive")
    with pytest.raises(ResourceLimitError):
        brute_force_mld(mat, (0,), mode="kernel", kernel_limit=10)
    with pytest.raises(UsageError):
        brute_force_mld(mat, (0,), mode="fast")
    with pytest.raises(UsageError):
        brute_force_mld(mat, (5,))


def test_auto_mode_switches_to_kernel():
    mat = Gf2Matrix(2, 22, [(0,), (1,)] * 11, [1] * 22)
    r = brute_force_mld(mat, (0,), mode="auto", kernel_limit=22)
    assert r.stats["mode"] == "kernel"
    assert r.weight == 1

