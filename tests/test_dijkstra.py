import math
import random
from contextlib import nullcontext

import pytest

from boundedchain import (
    Status,
    UsageError,
    boundary_matrix,
    brute_force_mld,
    build_slice,
    instance_from_complex,
    instance_from_matrix,
    solve,
    solve_mld_dijkstra,
    solve_mld_treewidth,
)
from boundedchain import dijkstra
from boundedchain.complexes import Gf2Matrix
from boundedchain.dijkstra import (
    DEFAULT_MAX_STATES,
    _search,
    face_bounds,
    number_rows,
    pivot_keys,
    row_order,
)
from boundedchain.generators import random_boundary, random_slice
from boundedchain.gf2 import mask_from_indices
from boundedchain.kernel import _propagate, _series, reduce
from helpers import (
    PIVOT_ORDERS,
    best_by_size,
    canonical_optimum,
    copied,
    irreducible,
    pivot_order,
    punctured_octahedron,
    random_problem,
    reference_max_step_pivot,
    reference_min_coface_pivot,
)


def search(cs, boundary, **options):
    return solve(instance_from_complex(cs, boundary), "dijkstra", **options)


def search_whole(matrix, rows):
    """The unbounded search run on ``matrix`` itself, with no kernel, its
    rows keyed as for a bounded search: the solve would reduce these
    instances first, some of them whole."""
    numbering = number_rows(matrix, matrix.target_mask(rows), True)
    return _search(matrix, numbering, None, DEFAULT_MAX_STATES, {})


def search_kernel(matrix, rows):
    """The unbounded search on the kernel of ``matrix``, as the solve runs
    it but with no feasibility check first: an infeasible kernel is searched
    until the frontier runs out."""
    kern = reduce(matrix, matrix.target_mask(rows))
    numbering = number_rows(kern.matrix, kern.target, False)
    return _search(kern.matrix, numbering, None, DEFAULT_MAX_STATES, {})


def search_irreducible(cs, boundary, **options):
    """The solve on ``helpers.irreducible`` of the slice's matrix with every
    column twice (``helpers.copied``), whose kernel is the whole matrix, at
    six columns or more: the search runs on every column."""
    matrix = irreducible(copied(boundary_matrix(cs), 2))
    return solve(instance_from_matrix(matrix, boundary), "dijkstra", **options)


def test_punctured_octahedron_needs_seven_triangles():
    cs, boundary = punctured_octahedron()
    for order in PIVOT_ORDERS:
        with pivot_order(order):
            r = search(cs, boundary)
        assert r.status is Status.OPTIMAL
        assert r.weight == 7
        assert r.witness == frozenset(range(7))
    short = search(cs, boundary, k=6)
    assert short.status is Status.NOT_FOUND_WITHIN_BOUND
    exact = search(cs, boundary, k=7)
    assert exact.status is Status.OPTIMAL and exact.weight == 7


def numbered_pivot(mask, order):
    """The search's pivot of a nonempty state with the rows numbered by
    ``order``: the lowest set bit of the renumbered state, mapped back to
    its row."""
    renumbered = sum(1 << i for i, r in enumerate(order) if mask >> r & 1)
    return order[(renumbered & -renumbered).bit_length() - 1]


def test_pivot_select():
    mask = mask_from_indices((2, 5, 7))
    # equal keys keep the rows' own order, and the least face of the state
    # wins
    assert row_order([0] * 8) == list(range(8))
    assert numbered_pivot(mask, row_order([0] * 8)) == 2
    # faces 5 and 7 tie on coface degree 1: the smaller index wins
    assert numbered_pivot(mask, row_order([0, 0, 3, 0, 0, 1, 0, 1])) == 5
    # ranked by (-step, degree): face 2 has the largest step, 9
    step_keys = [(0, 0), (0, 0), (-9, 3), (0, 0), (0, 0), (-4, 1), (0, 0), (-4, 1)]
    assert numbered_pivot(mask, row_order(step_keys)) == 2


def test_degree_mask_pivot_matches_face_walk():
    """The min-coface pivot is the least (coface degree, index) of the state."""
    rng = random.Random(45)
    for trial in range(200):
        n = rng.randint(1, 90)
        cofdeg = [rng.choice((0, 1, 1, 2, 3, 5)) for _ in range(n)]
        order = row_order(cofdeg)
        for _ in range(20):
            mask = rng.getrandbits(n) or 1 << rng.randrange(n)
            want = reference_min_coface_pivot(mask, cofdeg)
            assert numbered_pivot(mask, order) == want, (trial, mask)
    for seed in range(30):
        dim = 2 + seed % 2
        cs, _ = random_problem(seed, max_top=14, dim=dim)
        base = boundary_matrix(cs)
        # three rows in no column: faces of coface degree 0
        mat = Gf2Matrix(base.nrows + 3, base.ncols, base.col_rows, base.col_weights)
        cofdeg = [len(cs) for cs in mat.row_cols]
        assert cofdeg[-3:] == [0, 0, 0]
        bounds = face_bounds(mat)
        order = row_order(pivot_keys(mat, True, *bounds))
        index_order = row_order(PIVOT_ORDERS["min-index"](mat, True, *bounds))
        masks = [1 << r for r in range(mat.nrows)]
        masks += [rng.getrandbits(mat.nrows) or 1 for _ in range(100)]
        masks += [(1 << mat.nrows) - 1, (1 << base.nrows) - 1]
        for mask in masks:
            want = reference_min_coface_pivot(mask, cofdeg)
            assert numbered_pivot(mask, order) == want, (seed, mask)
            # min-index: the least face of the state
            assert numbered_pivot(mask, index_order) == (mask & -mask).bit_length() - 1, (seed, mask)


def test_max_step_pivot_matches_face_walk():
    """The max-step pivot is the face of greatest least rise in f over its
    cofaces, then least coface degree and index, with faces of no coface
    first: on dim-2 and dim-3 slices with weights from 0 to 3, where rises
    often tie, plus three rows in no column."""
    rng = random.Random(47)
    for seed in range(40):
        cs, _ = random_problem(seed, max_top=14, dim=2 + seed % 2)
        base = boundary_matrix(cs)
        weights = [rng.randint(0, 3) for _ in range(base.ncols)]
        extra = 3 * (seed % 2)
        mat = Gf2Matrix(base.nrows + extra, base.ncols, base.col_rows, weights)
        scale, hf, lift = face_bounds(mat)
        order = row_order(pivot_keys(mat, False, scale, hf, lift))
        masks = [1 << r for r in range(mat.nrows)]
        masks += [rng.getrandbits(mat.nrows) or 1 for _ in range(100)]
        masks += [(1 << mat.nrows) - 1, (1 << base.nrows) - 1]
        for mask in masks:
            want = reference_max_step_pivot(mask, mat, scale, hf)
            assert numbered_pivot(mask, order) == want, (seed, mask)


def test_expand_state_two_triangle_fan():
    """A state's successors are the cofaces of its pivot face."""
    cs = build_slice([(1, 2, 3), (2, 3, 4)])
    # faces sorted: (1,2) (1,3) (2,3) (2,4) (3,4); triangle 0 is the first three
    rim = cs.boundary_of(frozenset({0}))
    assert rim == frozenset({0, 1, 2})
    mat = boundary_matrix(cs)
    for order in PIVOT_ORDERS:
        # a lone pivot (1,2) has one successor, the shared pivot (2,3) has two;
        # every move of the rim raises f alike, so max-step takes the lone one
        with pivot_order(order):
            r = search_whole(mat, rim)
            # an unbounded search keeps no parents: the solve decodes the witness
            assert search(cs, rim).witness == frozenset({0}), order
        assert r.weight == 1, order
        assert r.stats["states_expanded"] == 2, order
        assert r.stats["pushes"] == 2, order
    empty = search(cs, frozenset())
    assert empty.stats["states_expanded"] == 0 and empty.witness == frozenset()


def test_branching_is_bounded_by_coface_degree():
    for seed in range(20):
        cs, boundary = random_problem(seed)
        if not boundary:
            continue
        r = search_whole(boundary_matrix(cs), boundary)
        assert r.stats["pushes"] >= 2, seed
        assert r.stats["pushes"] - 1 <= cs.coface_degree * r.stats["states_expanded"], seed


def test_default_pivot_depends_on_k(monkeypatch):
    """The search keys its rows as max-step without k and as min-coface
    with it, through the search and the facade, and the stats name no
    pivot: the key follows from ``stats["k"]``."""
    cs, boundary = punctured_octahedron()
    mat = boundary_matrix(cs)
    flags = []

    def spy(m, bounded, *bounds):
        flags.append(bounded)
        return pivot_keys(m, bounded, *bounds)

    monkeypatch.setattr(dijkstra, "pivot_keys", spy)
    for k in (None, 7):
        for r in (solve_mld_dijkstra(mat, sorted(boundary), k=k), search(cs, boundary, k=k)):
            assert r.weight == 7 and r.stats["k"] == k
            assert "pivot" not in r.stats
        assert flags == [k is not None] * 2, k
        flags.clear()


def settled_states(cases, order=None):
    """The states the dijkstra solves of ``cases``, (instance, k) pairs,
    settle in total, and their answers, with the rows keyed by the search's
    own key or by ``PIVOT_ORDERS[order]``."""
    with nullcontext() if order is None else pivot_order(order):
        runs = [solve(inst, "dijkstra", k=k) for inst, k in cases]
    return sum(r.stats["states_expanded"] for r in runs), runs


def test_max_step_settles_fewer_states():
    """Summed over random 55-triangle dim-2 slices with random weights, the
    shape of the benchmark's search workload, the unbounded search's own
    key, max-step, settles fewer states than min-coface, with the same
    answers."""
    cases = []
    for seed in range(12):
        cs = random_slice(55, 10, dim=2, seed=seed, weights="random")
        inst = instance_from_complex(cs, random_boundary(cs, seed=seed, require_nonempty=True))
        cases.append((inst, None))
    own, runs = settled_states(cases)
    other, other_runs = settled_states(cases, "min-coface")
    for seed, (a, b) in enumerate(zip(runs, other_runs)):
        assert (a.status, a.weight, a.witness) == (b.status, b.weight, b.witness), seed
    assert own < other, (own, other)


def test_min_coface_settles_fewer_states_with_k():
    """Summed over random 60-triangle dim-2 slices with random weights and
    k a third of the target plus two, the shape of the benchmark's bounded
    workload, the bounded search's own key, min-coface, settles fewer
    states than max-step, with the same statuses and weights."""
    cases = []
    for seed in range(1, 24, 2):
        cs = random_slice(60, 10, dim=2, seed=seed, weights="random")
        boundary = random_boundary(cs, seed=seed, require_nonempty=True)
        cases.append((instance_from_complex(cs, boundary), math.ceil(len(boundary) / 3) + 2))
    own, runs = settled_states(cases)
    other, other_runs = settled_states(cases, "max-step")
    for seed, (a, b) in zip(range(1, 24, 2), zip(runs, other_runs)):
        assert (a.status, a.weight) == (b.status, b.weight), seed
    assert own < other, (own, other)


def test_signed_weights_without_k_match_treewidth():
    """Without k the search runs on the kernel, whose weights are all
    positive, so any signed weights are solved: on random problems of dims
    1-3 with weights from -3 to 3, against their boundary and a random row
    subset, it gives the DP's status, weight and witness, also where the
    kernel is left to search."""
    infeasible = searched = 0
    for dim in (1, 2, 3):
        for seed in range(300):
            cs, boundary = random_problem(seed, max_top=24, dim=dim)
            base = boundary_matrix(cs)
            rng = random.Random(f"signed-{dim}-{seed}")
            weights = [rng.randint(-3, 3) for _ in range(base.ncols)]
            mat = Gf2Matrix(base.nrows, base.ncols, base.col_rows, weights)
            some = sorted(rng.sample(range(mat.nrows), rng.randint(0, mat.nrows)))
            for rows in (sorted(boundary), some):
                tw = solve_mld_treewidth(mat, rows)
                r = solve_mld_dijkstra(mat, rows)
                got, want = (r.status, r.weight, r.witness), (tw.status, tw.weight, tw.witness)
                assert got == want, (dim, seed, rows)
                infeasible += r.status is Status.INFEASIBLE
                searched += r.stats["states_expanded"] > 1
    assert infeasible >= 500 and searched >= 100, (infeasible, searched)


def test_pivot_strategies_agree_with_oracle():
    for seed in range(60):
        cs, boundary = random_problem(seed, max_top=10)
        ref = brute_force_mld(boundary_matrix(cs), boundary)
        for order in PIVOT_ORDERS:
            with pivot_order(order):
                r = search(cs, boundary)
            assert r.status is ref.status, (seed, order)
            if ref.is_optimal:
                assert r.weight == ref.weight, (seed, order)


def test_bounded_search_matches_restricted_enumeration():
    """For every k, the search equals the best solution of size <= k."""
    rng = random.Random(41)
    for trial in range(25):
        cs, boundary = random_problem(trial, max_top=8, max_vertices=8)
        mat = boundary_matrix(cs)
        best = best_by_size(mat, sorted(boundary))
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
    post = search_kernel(boundary_matrix(cs), lonely_edge)
    assert post.status is Status.INFEASIBLE
    assert post.stats["states_expanded"] > 0


def test_empty_target_is_trivial():
    cs, _ = punctured_octahedron()
    r = search(cs, frozenset())
    assert r.status is Status.OPTIMAL
    assert r.weight == 0 and r.witness == frozenset()


def test_resource_limit_status():
    cs, boundary = punctured_octahedron()
    r = search_irreducible(cs, boundary, max_states=2)
    assert r.status is Status.RESOURCE_LIMIT
    assert r.stats["visited"] <= 2
    # with room to finish, the same solve is optimal, at three times 7
    assert search_irreducible(cs, boundary).weight == 21


def test_max_states_env(monkeypatch):
    """The state budget is an argument only: ``MBC_MAX_STATES`` in the
    environment changes nothing, whatever it holds."""
    cs, boundary = punctured_octahedron()
    want = search_irreducible(cs, boundary)
    assert want.status is Status.OPTIMAL
    for env in ("2", "lots", "0"):
        monkeypatch.setenv("MBC_MAX_STATES", env)
        got = search_irreducible(cs, boundary)
        assert (got.status, got.weight, got.witness, got.stats) == (
            want.status, want.weight, want.witness, want.stats
        ), env
    # a cap below one state would end every search before it starts
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
    """The face terms pack every column's weight, which is exactly what makes
    the bound consistent, and the raise pass leaves no row that could grow."""
    rng = random.Random(43)
    for seed in range(40):
        cs, _ = random_problem(seed, max_top=14, dim=2 + seed % 2, weights="random")
        mat = boundary_matrix(cs)
        scale, hf, _ = face_bounds(mat)
        assert _bound(hf, 0) == 0
        assert min(hf) >= 0, seed
        slack = []
        for c, rows in enumerate(mat.col_rows):
            assert scale % len(rows) == 0
            slack.append(mat.col_weights[c] * scale - sum(hf[r] for r in rows))
            assert slack[c] >= 0, (seed, c)
        for r, cols in enumerate(mat.row_cols):
            if cols:
                assert min(slack[c] for c in cols) == 0, (seed, r)
                even = min(mat.col_weights[c] * scale // len(mat.col_rows[c]) for c in cols)
                assert hf[r] >= even, (seed, r)
        for _ in range(200):
            m = rng.getrandbits(mat.nrows)
            c = rng.randrange(mat.ncols)
            step = _bound(hf, m ^ mat.col_masks[c]) - _bound(hf, m)
            assert scale * mat.col_weights[c] + step >= 0, (seed, m, c)


def test_lift_is_the_sum_of_its_rows_terms():
    """``face_bounds``' lift[c] is the sum of hf over c's rows and at most
    L*w_c: the search updates h by the overlap of a move with the state on
    these two facts. On whole dense slices of dims 1-3 and on their kernels,
    signed weights included."""
    kernels = 0
    for dim, n_top, n_vertices in ((1, 14, 8), (2, 30, 9), (3, 35, 8)):
        for seed in range(30):
            weights = ("unit", "random")[seed % 2]
            base = boundary_matrix(random_slice(n_top, n_vertices, dim=dim, seed=seed, weights=weights))
            rng = random.Random(f"lift-{dim}-{seed}")
            signed = [rng.randint(-3, 3) for _ in range(base.ncols)]
            rows = sorted(rng.sample(range(base.nrows), rng.randint(0, base.nrows)))
            mats = [base]
            for mat in (base, Gf2Matrix(base.nrows, base.ncols, base.col_rows, signed)):
                kern = reduce(mat, mat.target_mask(rows))
                mats.append(kern.matrix)
                kernels += kern.matrix.ncols > 0
            for mat in mats:
                scale, hf, lift = face_bounds(mat)
                assert len(lift) == mat.ncols
                for c, col in enumerate(mat.col_rows):
                    assert lift[c] == sum(hf[r] for r in col), (dim, seed, c)
                    assert lift[c] <= mat.col_weights[c] * scale, (dim, seed, c)
    assert kernels >= 30, kernels


def test_exact_bound_walks_straight_to_the_goal():
    """Pairs of rows cost 2 together or 3 each alone: the bound is exact,
    so only the states on one optimal path are settled. Every row has two
    columns, so the solve's series rule reduces this whole; the search runs
    on the matrix itself."""
    m = 8
    pairs = [(2 * i, 2 * i + 1) for i in range(m)]
    singles = [(r,) for r in range(2 * m)]
    mat = Gf2Matrix(2 * m, 3 * m, pairs + singles, [2] * m + [3] * (2 * m))
    r = search_whole(mat, range(2 * m))
    assert r.weight == 2 * m
    assert r.stats["states_expanded"] == m + 1
    # an unbounded search keeps no parents: the solve decodes the witness
    assert solve_mld_dijkstra(mat, range(2 * m)).witness == frozenset(range(m))


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
        best = best_by_size(mat, sorted(boundary))
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


def test_treewidth_agrees_above_oracle_size():
    """Unbounded, with weights from 0 to 9, on slices too big for the oracle,
    where the raise pass lifts many faces above the even split."""
    rng = random.Random(46)
    raised = 0
    for seed in range(40):
        dim = 2 + seed % 2
        cs = random_slice(40, 9, dim=dim, seed=seed)
        boundary = sorted(random_boundary(cs, seed=seed, require_nonempty=True))
        base = boundary_matrix(cs)
        weights = [rng.randint(0, 9) for _ in range(base.ncols)]
        mat = Gf2Matrix(base.nrows, base.ncols, base.col_rows, weights)
        inst = instance_from_matrix(mat, boundary)
        ref = solve(inst, "treewidth")
        r = solve(inst, "dijkstra")
        assert r.status is ref.status, seed
        assert r.weight == ref.weight, seed
        scale, hf, _ = face_bounds(mat)
        split = [min(weights[c] * scale // len(mat.col_rows[c]) for c in cols)
                 for cols in mat.row_cols]
        raised += hf != split
    assert raised >= 20


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


def test_unbounded_witness_is_the_canonical_one():
    """On random slices of dims 1-3, dense enough that many kernels are left
    to search, with unit and random weights, against their boundary and a
    random row subset: the unbounded search's answer is treewidth's and the
    least (weight, mask) optimum, under every row order."""
    searched = infeasible = 0
    for dim, n_top, n_vertices in ((1, 14, 8), (2, 30, 9), (3, 35, 8)):
        for seed in range(100):
            weights = ("unit", "random")[seed % 2]
            cs = random_slice(n_top, n_vertices, dim=dim, seed=seed, weights=weights)
            mat = boundary_matrix(cs)
            rng = random.Random(seed)
            boundary = sorted(random_boundary(cs, seed=seed))
            for rows in (boundary, sorted(rng.sample(range(mat.nrows), rng.randint(0, mat.nrows)))):
                want = canonical_optimum(mat, rows)
                infeasible += want is None
                tw = solve_mld_treewidth(mat, rows)
                assert (None if tw.status is Status.INFEASIBLE else (tw.weight, tw.witness)) == want
                for order in PIVOT_ORDERS:
                    with pivot_order(order):
                        r = solve_mld_dijkstra(mat, rows)
                    got = None if r.status is Status.INFEASIBLE else (r.weight, r.witness)
                    assert got == want, (dim, seed, rows, order)
                    searched += r.stats["states_expanded"] > 1
    assert searched >= 300 and infeasible >= 100, (searched, infeasible)


def test_negative_kernel_columns_are_complemented(monkeypatch):
    """Row 0 has columns 0 and 1 alone, so the series rule merges column 1,
    at weight 5, into column 0, at weight 1, which has more rows. With row 0
    in the target, x_1 = 1 ⊕ x_0: the merged column's charges are 'on'
    (0 alone) and 'off' (1 alone), and it would weigh on - off < 0. The
    search sees it complemented: it weighs off - on, the kernel target
    flips on its rows, every kernel weight is non-negative, and the answer
    is still the oracle's and the canonical one. The instance has two
    solutions for five columns, so the coset rule would solve it outright:
    the search gets the series rules' kernel instead."""
    cols = [(0, 1, 2), (0, 3), (1, 3), (2, 3), (1, 2)]
    mat = Gf2Matrix(4, 5, cols, [1, 5, 1, 1, 1])
    on, off = (1 << 5) + (1 << 0), (5 << 5) + (1 << 1)
    assert on < off
    seen = []
    real_search = dijkstra._search

    def spy(space, numbering, *args):
        # a negative cost would make a cycle the search never leaves
        assert min(space.col_weights) >= 0, space.col_weights
        seen.append((space, numbering.start))
        return real_search(space, numbering, *args)

    monkeypatch.setattr(dijkstra, "_search", spy)
    monkeypatch.setattr(dijkstra, "reduce", lambda m, t: _series(m, *_propagate(m, t)))
    for rest in range(8):
        rows = [0] + [r for r in (1, 2, 3) if rest >> (r - 1) & 1]
        got = solve_mld_dijkstra(mat, rows)
        space, start = seen.pop()
        # original rows 1, 2 and 3 are kernel rows 0, 1 and 2
        assert space.col_rows == ((0, 1, 2), (0, 2), (1, 2), (0, 1))
        assert space.col_weights == (off - on, *((1 << 5) + (1 << c) for c in (2, 3, 4)))
        # the merge flips row 3, column 1's other row; complementing flips rows 1-3
        want = mat.target_mask([r - 1 for r in rows if r]) ^ 0b100 ^ 0b111
        # the search sees its start in its own row numbering
        assert start == number_rows(space, want, False).start
        ref = brute_force_mld(mat, rows)
        assert (got.status, got.weight) == (ref.status, ref.weight), rows
        assert (got.weight, got.witness) == canonical_optimum(mat, rows), rows


def test_infeasible_kernel_with_and_without_the_precheck():
    """Rows 0 and 1 both have column 0 alone, and with row 0 alone in the
    target they ask for different values of it: the kernel is row 0 alone,
    with its bit set and no column. The precheck on the kernel finds it
    infeasible before any state is expanded; without it the search expands
    the start state, which has no move."""
    mat = Gf2Matrix(5, 4, [(0, 1), (2, 3, 4), (2, 3), (3, 4)], [1, 2, 3, 4])
    checked = solve_mld_dijkstra(mat, [0])
    assert checked.status is Status.INFEASIBLE
    assert (checked.stats["states_expanded"], checked.stats["visited"]) == (0, 0)
    exhausted = search_kernel(mat, [0])
    assert exhausted.status is Status.INFEASIBLE
    assert (exhausted.stats["states_expanded"], exhausted.stats["pushes"]) == (1, 1)
    assert exhausted.stats["visited"] == 1


def test_usage_errors():
    mat = Gf2Matrix(2, 1, [(0,)], [-1])
    # a bounded search runs on the whole matrix: a negative column could cycle
    with pytest.raises(UsageError):
        solve_mld_dijkstra(mat, (0,), k=1)
    signed = solve_mld_dijkstra(mat, (0,))
    assert (signed.status, signed.weight, signed.witness) == (Status.OPTIMAL, -1, frozenset({0}))
    ok = Gf2Matrix(2, 1, [(0,)], [1])
    with pytest.raises(UsageError):
        solve_mld_dijkstra(ok, (5,))
    with pytest.raises(UsageError):
        solve_mld_dijkstra(ok, (0,), k=-1)
    # no caller picks the pivot: it follows from k
    with pytest.raises(TypeError):
        solve_mld_dijkstra(ok, (0,), pivot="max-step")
    cs, _ = punctured_octahedron()
    with pytest.raises(UsageError):
        search(cs, frozenset({99}))


# (seed, weights, row order, k) -> (status, weight, witness, states_expanded,
# pushes, frontier_peak, visited). The bounded rows were recorded after the
# bound's raise pass (face_bounds) went in: against the even split, every
# status and weight is the same, no row settles more states, the
# unit-weight rows did not change at all, and one witness moved to another
# of the same weight. The unbounded rows were recorded when the unbounded
# search moved onto the kernel: every status and weight is the same, the
# witness is the canonical one whatever the pivot, and the counts describe
# the kernel search, which is empty where the kernel passes solve the
# instance whole. Every unbounded row of seeds 0, 1 and 5, and seed 3's
# unit-weight ones, moved when the kernel began to drop dominated columns
# (columns two cheaper columns reproduce): the answers are the same, and all
# but seed 0's unit-weight kernels are now empty. The max-step rows were
# recorded when that strategy came in: its answers are the same, and with k
# it settles as many states as min-coface or more, which is why bounded
# searches keep min-coface by default. Three bounded rows, (4, 'unit',
# 'min-coface', 7), (0, 'random', 'max-step', 11) and (4, 'unit',
# 'max-step', 7), moved by one in frontier_peak alone when the search began
# to number the rows in pivot order: heap entries that tie on priority,
# cost and steps are ordered by their masks, which are now compared in that
# numbering. No unbounded row moved, since packed kernel costs never tie.
# k is the unit-weight optimum's size on even seeds and one less on odd
# seeds.
PINNED = {
    (0, 'unit', 'min-index', None): ('optimal', 11, (0, 1, 3, 5, 7, 8, 11, 12, 13, 17, 20), 2, 4, 3, 4),
    (0, 'unit', 'min-index', 11): ('optimal', 11, (0, 1, 3, 5, 7, 8, 11, 12, 13, 17, 20), 47, 50, 15, 50),
    (0, 'unit', 'min-coface', None): ('optimal', 11, (0, 1, 3, 5, 7, 8, 11, 12, 13, 17, 20), 2, 4, 3, 4),
    (0, 'unit', 'min-coface', 11): ('optimal', 11, (0, 2, 3, 7, 8, 11, 12, 13, 15, 17, 20), 24, 26, 8, 26),
    (0, 'random', 'min-index', None): ('optimal', 55, (0, 2, 3, 7, 8, 11, 12, 13, 15, 17, 20), 0, 0, 0, 1),
    (0, 'random', 'min-index', 11): ('optimal', 55, (0, 2, 3, 7, 8, 11, 12, 13, 15, 17, 20), 79, 87, 31, 85),
    (0, 'random', 'min-coface', None): ('optimal', 55, (0, 2, 3, 7, 8, 11, 12, 13, 15, 17, 20), 0, 0, 0, 1),
    (0, 'random', 'min-coface', 11): ('optimal', 55, (0, 2, 3, 7, 8, 11, 12, 13, 15, 17, 20), 31, 31, 11, 31),
    (1, 'unit', 'min-index', None): ('optimal', 8, (1, 2, 3, 4, 9, 12, 14, 18), 0, 0, 0, 1),
    (1, 'unit', 'min-index', 7): ('not_found_within_bound', None, None, 24, 24, 9, 24),
    (1, 'unit', 'min-coface', None): ('optimal', 8, (1, 2, 3, 4, 9, 12, 14, 18), 0, 0, 0, 1),
    (1, 'unit', 'min-coface', 7): ('not_found_within_bound', None, None, 6, 6, 3, 6),
    (1, 'random', 'min-index', None): ('optimal', 47, (1, 2, 3, 4, 9, 12, 14, 18), 0, 0, 0, 1),
    (1, 'random', 'min-index', 7): ('not_found_within_bound', None, None, 26, 26, 9, 26),
    (1, 'random', 'min-coface', None): ('optimal', 47, (1, 2, 3, 4, 9, 12, 14, 18), 0, 0, 0, 1),
    (1, 'random', 'min-coface', 7): ('not_found_within_bound', None, None, 6, 6, 3, 6),
    (2, 'unit', 'min-index', None): ('optimal', 8, (0, 1, 2, 3, 8, 16, 17, 22), 5, 11, 7, 11),
    (2, 'unit', 'min-index', 8): ('optimal', 8, (0, 1, 2, 3, 8, 16, 17, 22), 11, 13, 5, 13),
    (2, 'unit', 'min-coface', None): ('optimal', 8, (0, 1, 2, 3, 8, 16, 17, 22), 4, 9, 6, 9),
    (2, 'unit', 'min-coface', 8): ('optimal', 8, (0, 1, 2, 3, 8, 16, 17, 22), 12, 12, 3, 12),
    (2, 'random', 'min-index', None): ('optimal', 25, (0, 1, 2, 3, 8, 16, 17, 22), 8, 18, 11, 18),
    (2, 'random', 'min-index', 8): ('optimal', 25, (0, 1, 2, 3, 8, 16, 17, 22), 16, 18, 4, 17),
    (2, 'random', 'min-coface', None): ('optimal', 25, (0, 1, 2, 3, 8, 16, 17, 22), 7, 15, 9, 15),
    (2, 'random', 'min-coface', 8): ('optimal', 25, (0, 1, 2, 3, 8, 16, 17, 22), 15, 15, 4, 15),
    (3, 'unit', 'min-index', None): ('optimal', 7, (0, 3, 5, 7, 8, 17, 23), 0, 0, 0, 1),
    (3, 'unit', 'min-index', 6): ('not_found_within_bound', None, None, 3, 3, 2, 3),
    (3, 'unit', 'min-coface', None): ('optimal', 7, (0, 3, 5, 7, 8, 17, 23), 0, 0, 0, 1),
    (3, 'unit', 'min-coface', 6): ('not_found_within_bound', None, None, 4, 4, 2, 4),
    (3, 'random', 'min-index', None): ('optimal', 20, (0, 3, 5, 7, 8, 17, 23), 0, 0, 0, 1),
    (3, 'random', 'min-index', 6): ('not_found_within_bound', None, None, 3, 3, 2, 3),
    (3, 'random', 'min-coface', None): ('optimal', 20, (0, 3, 5, 7, 8, 17, 23), 0, 0, 0, 1),
    (3, 'random', 'min-coface', 6): ('not_found_within_bound', None, None, 4, 4, 2, 4),
    (4, 'unit', 'min-index', None): ('optimal', 7, (3, 10, 11, 16, 19, 20, 23), 0, 0, 0, 1),
    (4, 'unit', 'min-index', 7): ('optimal', 7, (3, 10, 11, 16, 19, 20, 23), 31, 52, 24, 52),
    (4, 'unit', 'min-coface', None): ('optimal', 7, (3, 10, 11, 16, 19, 20, 23), 0, 0, 0, 1),
    (4, 'unit', 'min-coface', 7): ('optimal', 7, (3, 10, 11, 16, 19, 20, 23), 12, 13, 3, 13),
    (4, 'random', 'min-index', None): ('optimal', 33, (3, 10, 11, 16, 19, 20, 23), 0, 0, 0, 1),
    (4, 'random', 'min-index', 7): ('optimal', 33, (3, 10, 11, 16, 19, 20, 23), 52, 61, 17, 60),
    (4, 'random', 'min-coface', None): ('optimal', 33, (3, 10, 11, 16, 19, 20, 23), 0, 0, 0, 1),
    (4, 'random', 'min-coface', 7): ('optimal', 33, (3, 10, 11, 16, 19, 20, 23), 11, 13, 4, 13),
    (5, 'unit', 'min-index', None): ('optimal', 9, (1, 2, 4, 5, 9, 11, 12, 15, 19), 0, 0, 0, 1),
    (5, 'unit', 'min-index', 8): ('not_found_within_bound', None, None, 117, 117, 48, 117),
    (5, 'unit', 'min-coface', None): ('optimal', 9, (1, 2, 4, 5, 9, 11, 12, 15, 19), 0, 0, 0, 1),
    (5, 'unit', 'min-coface', 8): ('not_found_within_bound', None, None, 15, 15, 4, 15),
    (5, 'random', 'min-index', None): ('optimal', 38, (1, 2, 4, 5, 9, 11, 12, 15, 19), 0, 0, 0, 1),
    (5, 'random', 'min-index', 8): ('not_found_within_bound', None, None, 156, 162, 55, 156),
    (5, 'random', 'min-coface', None): ('optimal', 38, (1, 2, 4, 5, 9, 11, 12, 15, 19), 0, 0, 0, 1),
    (5, 'random', 'min-coface', 8): ('not_found_within_bound', None, None, 19, 19, 6, 19),
    # recorded when max-step came in; the rows above did not change
    (0, 'unit', 'max-step', None): ('optimal', 11, (0, 1, 3, 5, 7, 8, 11, 12, 13, 17, 20), 2, 4, 3, 4),
    (0, 'unit', 'max-step', 11): ('optimal', 11, (0, 2, 3, 7, 8, 11, 12, 13, 15, 17, 20), 24, 26, 8, 26),
    (0, 'random', 'max-step', None): ('optimal', 55, (0, 2, 3, 7, 8, 11, 12, 13, 15, 17, 20), 0, 0, 0, 1),
    (0, 'random', 'max-step', 11): ('optimal', 55, (0, 2, 3, 7, 8, 11, 12, 13, 15, 17, 20), 47, 82, 36, 79),
    (1, 'unit', 'max-step', None): ('optimal', 8, (1, 2, 3, 4, 9, 12, 14, 18), 0, 0, 0, 1),
    (1, 'unit', 'max-step', 7): ('not_found_within_bound', None, None, 6, 6, 3, 6),
    (1, 'random', 'max-step', None): ('optimal', 47, (1, 2, 3, 4, 9, 12, 14, 18), 0, 0, 0, 1),
    (1, 'random', 'max-step', 7): ('not_found_within_bound', None, None, 9, 9, 3, 9),
    (2, 'unit', 'max-step', None): ('optimal', 8, (0, 1, 2, 3, 8, 16, 17, 22), 4, 10, 7, 10),
    (2, 'unit', 'max-step', 8): ('optimal', 8, (0, 1, 2, 3, 8, 16, 17, 22), 12, 12, 3, 12),
    (2, 'random', 'max-step', None): ('optimal', 25, (0, 1, 2, 3, 8, 16, 17, 22), 7, 14, 8, 14),
    (2, 'random', 'max-step', 8): ('optimal', 25, (0, 1, 2, 3, 8, 16, 17, 22), 97, 108, 28, 106),
    (3, 'unit', 'max-step', None): ('optimal', 7, (0, 3, 5, 7, 8, 17, 23), 0, 0, 0, 1),
    (3, 'unit', 'max-step', 6): ('not_found_within_bound', None, None, 4, 4, 2, 4),
    (3, 'random', 'max-step', None): ('optimal', 20, (0, 3, 5, 7, 8, 17, 23), 0, 0, 0, 1),
    (3, 'random', 'max-step', 6): ('not_found_within_bound', None, None, 8, 8, 4, 8),
    (4, 'unit', 'max-step', None): ('optimal', 7, (3, 10, 11, 16, 19, 20, 23), 0, 0, 0, 1),
    (4, 'unit', 'max-step', 7): ('optimal', 7, (3, 10, 11, 16, 19, 20, 23), 12, 13, 3, 13),
    (4, 'random', 'max-step', None): ('optimal', 33, (3, 10, 11, 16, 19, 20, 23), 0, 0, 0, 1),
    (4, 'random', 'max-step', 7): ('optimal', 33, (3, 10, 11, 16, 19, 20, 23), 16, 22, 10, 22),
    (5, 'unit', 'max-step', None): ('optimal', 9, (1, 2, 4, 5, 9, 11, 12, 15, 19), 0, 0, 0, 1),
    (5, 'unit', 'max-step', 8): ('not_found_within_bound', None, None, 15, 15, 4, 15),
    (5, 'random', 'max-step', None): ('optimal', 38, (1, 2, 4, 5, 9, 11, 12, 15, 19), 0, 0, 0, 1),
    (5, 'random', 'max-step', 8): ('not_found_within_bound', None, None, 36, 36, 12, 36),
}


def test_pinned_search_counts():
    """The search settles the same states in the same order as recorded:
    the rows under the search's own key, max-step without k and min-coface
    with it, through the plain solve, and the others with the key swapped."""
    slices = {}
    for (seed, weights, order, k), want in PINNED.items():
        if (seed, weights) not in slices:
            cs = random_slice(24, 8, dim=2, seed=seed, weights=weights)
            slices[seed, weights] = (cs, random_boundary(cs, seed=seed, require_nonempty=True))
        own = order == ("max-step" if k is None else "min-coface")
        with nullcontext() if own else pivot_order(order):
            r = search(*slices[seed, weights], k=k)
        s = r.stats
        witness = tuple(sorted(r.witness)) if r.witness is not None else None
        got = (r.status.value, r.weight, witness, s["states_expanded"], s["pushes"],
               s["frontier_peak"], s["visited"])
        assert got == want, (seed, weights, order, k)
