import random
from itertools import combinations

import pytest

from boundedchain import (
    Status,
    UsageError,
    boundary_matrix,
    brute_force_mld,
    build_slice,
    instance_from_complex,
    solve,
    solve_mld_dijkstra,
)
from boundedchain.complexes import Gf2Matrix
from boundedchain.dijkstra import _pivot_from_mask, face_bounds
from boundedchain.generators import random_boundary, random_slice
from boundedchain.gf2 import mask_from_indices
from helpers import punctured_octahedron, random_problem


PIVOTS = ("min-index", "min-coface", "max-index")


def search(cs, boundary, **options):
    return solve(instance_from_complex(cs, boundary), "dijkstra", **options)


def test_punctured_octahedron_needs_seven_triangles():
    cs, boundary = punctured_octahedron()
    for pivot in PIVOTS:
        r = search(cs, boundary, pivot=pivot)
        assert r.status is Status.OPTIMAL
        assert r.weight == 7
        assert r.witness == frozenset(range(7))
    short = search(cs, boundary, k=6)
    assert short.status is Status.NOT_FOUND_WITHIN_BOUND
    exact = search(cs, boundary, k=7)
    assert exact.status is Status.OPTIMAL and exact.weight == 7


def test_pivot_select():
    mask = mask_from_indices((2, 5, 7))
    cofdeg = [0, 0, 3, 0, 0, 1, 0, 1]
    assert _pivot_from_mask(mask, "min-index", cofdeg) == 2
    assert _pivot_from_mask(mask, "max-index", cofdeg) == 7
    # faces 5 and 7 tie on coface degree 1: the smaller index wins
    assert _pivot_from_mask(mask, "min-coface", cofdeg) == 5
    cs, boundary = punctured_octahedron()
    with pytest.raises(UsageError):
        search(cs, boundary, pivot="best")


def test_expand_state_two_triangle_fan():
    """A state's successors are the cofaces of its pivot face."""
    cs = build_slice([(1, 2, 3), (2, 3, 4)])
    # faces sorted: (1,2) (1,3) (2,3) (2,4) (3,4); triangle 0 is the first three
    rim = cs.boundary_of(frozenset({0}))
    assert rim == frozenset({0, 1, 2})
    for pivot, pushes in (("min-index", 2), ("min-coface", 2), ("max-index", 3)):
        # a lone pivot (1,2) has one successor, the shared pivot (2,3) has two
        r = search(cs, rim, pivot=pivot)
        assert r.witness == frozenset({0}) and r.weight == 1, pivot
        assert r.stats["states_expanded"] == 2, pivot
        assert r.stats["pushes"] == pushes, pivot
    empty = search(cs, frozenset())
    assert empty.stats["states_expanded"] == 0 and empty.witness == frozenset()


def test_branching_is_bounded_by_coface_degree():
    for seed in range(20):
        cs, boundary = random_problem(seed)
        if not boundary:
            continue
        r = search(cs, boundary)
        assert r.stats["pushes"] >= 2, seed
        assert r.stats["pushes"] - 1 <= cs.coface_degree * r.stats["states_expanded"], seed


def test_pivot_strategies_agree_with_oracle():
    for seed in range(60):
        cs, boundary = random_problem(seed, max_top=10)
        ref = brute_force_mld(boundary_matrix(cs), boundary)
        for pivot in PIVOTS:
            r = search(cs, boundary, pivot=pivot)
            assert r.status is ref.status, (seed, pivot)
            if ref.is_optimal:
                assert r.weight == ref.weight, (seed, pivot)


def _best_by_size(mat, target):
    """Least weight of a solution with exactly s columns, for every s."""
    want = mask_from_indices(target)
    best = {}
    for size in range(mat.ncols + 1):
        for combo in combinations(range(mat.ncols), size):
            if mat.product_mask(combo) == want:
                w = mat.weight_of(combo)
                best[size] = min(best.get(size, w), w)
    return best


def test_bounded_search_matches_restricted_enumeration():
    """For every k, the search equals the best solution of size <= k."""
    rng = random.Random(41)
    for trial in range(25):
        cs, boundary = random_problem(trial, max_top=8, max_vertices=8)
        mat = boundary_matrix(cs)
        best = _best_by_size(mat, sorted(boundary))
        for k in range(mat.ncols + 1):
            fits = [w for s, w in best.items() if s <= k]
            r = solve_mld_dijkstra(mat, sorted(boundary), k=k)
            if fits:
                assert r.status is Status.OPTIMAL, (trial, k)
                assert r.weight == min(fits), (trial, k)
                assert len(r.witness) <= k
            else:
                assert r.status is Status.NOT_FOUND_WITHIN_BOUND, (trial, k)


def test_infeasible_via_precheck_and_via_exhaustion():
    cs, _ = punctured_octahedron()
    lonely_edge = cs.chain_from_faces([(0, 1)])
    pre = search(cs, lonely_edge)
    assert pre.status is Status.INFEASIBLE
    assert pre.stats["states_expanded"] == 0
    post = search(cs, lonely_edge, check_feasibility=False)
    assert post.status is Status.INFEASIBLE
    assert post.stats["states_expanded"] > 0
    assert not post.stats["feasibility_checked"]


def test_empty_target_is_trivial():
    cs, _ = punctured_octahedron()
    r = search(cs, frozenset())
    assert r.status is Status.OPTIMAL
    assert r.weight == 0 and r.witness == frozenset()


def test_resource_limit_status():
    cs, boundary = punctured_octahedron()
    r = search(cs, boundary, max_states=2)
    assert r.status is Status.RESOURCE_LIMIT
    assert r.stats["visited"] <= 2


def test_max_states_env(monkeypatch):
    from boundedchain.dijkstra import MAX_STATES_ENV

    cs, boundary = punctured_octahedron()
    monkeypatch.setenv(MAX_STATES_ENV, "2")
    assert search(cs, boundary).status is Status.RESOURCE_LIMIT
    monkeypatch.setenv(MAX_STATES_ENV, "lots")
    with pytest.raises(UsageError):
        search(cs, boundary)
    # a cap below one state would end every search before it starts
    for bad in ("0", "-3"):
        monkeypatch.setenv(MAX_STATES_ENV, bad)
        with pytest.raises(UsageError):
            search(cs, boundary)
    monkeypatch.delenv(MAX_STATES_ENV)
    for bad in (0, -1):
        with pytest.raises(UsageError):
            search(cs, boundary, max_states=bad)


def test_frontier_is_monotone():
    """Settled priorities never decrease: the bound is consistent."""
    for seed in range(40):
        cs, boundary = random_problem(seed)
        r = search(cs, boundary)
        assert r.stats["monotone_frontier"], seed


def _bound(hf, mask):
    return sum(hf[r] for r in range(len(hf)) if mask >> r & 1)


def test_lower_bound_is_consistent():
    """No move lowers the scaled bound by more than L times its weight."""
    rng = random.Random(43)
    for seed in range(40):
        cs, _ = random_problem(seed, max_top=14, dim=2 + seed % 2, weights="random")
        mat = boundary_matrix(cs)
        scale, hf = face_bounds(mat)
        assert _bound(hf, 0) == 0
        for c, rows in enumerate(mat.col_rows):
            assert scale % len(rows) == 0
            for r in rows:
                assert hf[r] * len(rows) <= mat.col_weights[c] * scale
        for _ in range(200):
            m = rng.getrandbits(mat.nrows)
            c = rng.randrange(mat.ncols)
            step = _bound(hf, m ^ mat.col_masks[c]) - _bound(hf, m)
            assert scale * mat.col_weights[c] + step >= 0, (seed, m, c)


def test_exact_bound_walks_straight_to_the_goal():
    """Pairs of rows cost 2 together or 3 each alone: the bound is exact,
    so only the states on one optimal path are settled."""
    m = 8
    pairs = [(2 * i, 2 * i + 1) for i in range(m)]
    singles = [(r,) for r in range(2 * m)]
    mat = Gf2Matrix(2 * m, 3 * m, pairs + singles, [2] * m + [3] * (2 * m))
    r = solve_mld_dijkstra(mat, range(2 * m))
    assert r.weight == 2 * m
    assert r.witness == frozenset(range(m))
    assert r.stats["states_expanded"] == m + 1


def test_random_weight_oracle_sweep():
    """Unbounded and every k, with weights from 0 to 9, against the oracle."""
    rng = random.Random(44)
    for seed in range(40):
        dim = 2 + seed % 2
        cs = random_slice(rng.randint(6, 12), rng.randint(dim + 4, 8), dim=dim, seed=seed)
        boundary = random_boundary(cs, seed=seed, require_nonempty=True)
        base = boundary_matrix(cs)
        weights = [rng.randint(0, 9) for _ in range(base.ncols)]
        mat = Gf2Matrix(base.nrows, base.ncols, base.col_rows, weights)
        ref = brute_force_mld(mat, sorted(boundary), mode="exhaustive")
        r = solve_mld_dijkstra(mat, sorted(boundary))
        assert r.status is ref.status, seed
        assert r.weight == ref.weight, seed
        best = _best_by_size(mat, sorted(boundary))
        if ref.is_optimal:
            assert min(best.values()) == ref.weight, seed
        for k in range(mat.ncols + 1):
            fits = [w for s, w in best.items() if s <= k]
            r = solve_mld_dijkstra(mat, sorted(boundary), k=k)
            if fits:
                assert r.status is Status.OPTIMAL, (seed, k)
                assert r.weight == min(fits), (seed, k)
                assert len(r.witness) <= k, (seed, k)
                assert mat.weight_of(r.witness) == r.weight, (seed, k)
            else:
                assert r.status is Status.NOT_FOUND_WITHIN_BOUND, (seed, k)


def test_witness_weight_matches_cost():
    for seed in range(40):
        cs, boundary = random_problem(seed, weights="random")
        mat = boundary_matrix(cs)
        r = solve_mld_dijkstra(mat, sorted(boundary))
        if r.is_optimal:
            assert mat.weight_of(r.witness) == r.weight
            acc = 0
            for j in r.witness:
                acc ^= mat.col_masks[j]
            want = 0
            for i in boundary:
                want |= 1 << i
            assert acc == want


def test_usage_errors():
    mat = Gf2Matrix(2, 1, [(0,)], [-1])
    with pytest.raises(UsageError):
        solve_mld_dijkstra(mat, (0,))
    ok = Gf2Matrix(2, 1, [(0,)], [1])
    with pytest.raises(UsageError):
        solve_mld_dijkstra(ok, (5,))
    with pytest.raises(UsageError):
        solve_mld_dijkstra(ok, (0,), k=-1)
    with pytest.raises(UsageError):
        solve_mld_dijkstra(ok, (0,), pivot="best")
    cs, _ = punctured_octahedron()
    with pytest.raises(UsageError):
        search(cs, frozenset({99}))
