import pytest

from boundedchain import (
    ConsistencyError,
    SolveResult,
    Status,
    UsageError,
    build_slice,
    greedy_decomposition,
    hasse_graph,
    instance_from_complex,
    instance_from_matrix,
    result_to_json_dict,
    solve,
    verify_witness,
)
from boundedchain.complexes import Gf2Matrix, boundary_matrix
from boundedchain.generators import triangle_strip
from helpers import punctured_octahedron, random_problem


def test_all_algorithms_agree_on_the_punctured_octahedron():
    cs, boundary = punctured_octahedron()
    inst = instance_from_complex(cs, boundary)
    for algorithm in ("dijkstra", "treewidth", "brute"):
        r = solve(inst, algorithm)
        assert r.status is Status.OPTIMAL
        assert r.weight == 7
        assert r.stats["verified"] is True


def test_mbc1_dispatch_needs_dimension_one():
    edges = [(0, 1), (1, 2)]
    cs = build_slice(edges)
    inst = instance_from_complex(cs, cs.chain_from_faces([(0,), (2,)]))
    r = solve(inst, "mbc1")
    assert r.weight == 2
    cs2, boundary2 = punctured_octahedron()
    with pytest.raises(UsageError):
        solve(instance_from_complex(cs2, boundary2), "mbc1")
    # a graph given as a matrix is solved too
    mat = boundary_matrix(cs)
    r = solve(instance_from_matrix(mat, ()), "mbc1")
    assert r.status is Status.OPTIMAL and r.weight == 0
    assert solve(instance_from_matrix(mat, (0, 2)), "mbc1").weight == 2
    with pytest.raises(UsageError):
        solve(inst, "magic")


def test_mbc_to_mld_translation():
    """instance_from_complex phrases the bounded-chain question as decoding."""
    cs, boundary = punctured_octahedron()
    inst = instance_from_complex(cs, boundary)
    assert inst.matrix.nrows == 12 and inst.matrix.ncols == 7
    assert sorted(inst.target) == [0, 1, 4]
    assert inst.matrix.col_weights == cs.weights
    assert inst.boundary == inst.target
    assert instance_from_matrix(inst.matrix, inst.target).boundary is None
    with pytest.raises(UsageError):
        instance_from_complex(cs, frozenset({cs.n_faces}))


def test_brute_resource_limit_becomes_a_status():
    mat = Gf2Matrix(1, 25, [(0,)] * 25, [1] * 25)
    r = solve(instance_from_matrix(mat, (0,)), "brute")
    assert r.status is Status.RESOURCE_LIMIT
    assert "limit" in r.stats.get("reason", "")


def test_verify_witness_rejects_lies():
    cs, boundary = punctured_octahedron()
    inst = instance_from_complex(cs, boundary)
    with pytest.raises(ConsistencyError):
        verify_witness(inst, SolveResult(Status.OPTIMAL, 7, frozenset({0})))
    with pytest.raises(ConsistencyError):
        verify_witness(inst, SolveResult(Status.OPTIMAL, 6, frozenset(range(7))))
    with pytest.raises(ConsistencyError):
        verify_witness(inst, SolveResult(Status.OPTIMAL, None, None))
    # non-optimal results carry no witness and pass through
    verify_witness(inst, SolveResult(Status.INFEASIBLE))


def test_json_dict_for_complex_instances():
    cs, boundary = punctured_octahedron()
    inst = instance_from_complex(cs, boundary)
    r = solve(inst, "treewidth")
    d = result_to_json_dict(inst, r)
    assert d["status"] == "optimal"
    assert d["weight"] == 7
    assert d["scale"] == 1
    assert d["solution"] == [list(cs.top[j]) for j in sorted(r.witness)]
    assert d["stats"]["verified"] is True


def test_json_dict_for_matrix_instances_and_failures():
    mat = Gf2Matrix(2, 2, [(0,), (1,)], [3, 5])
    inst = instance_from_matrix(mat, (1,))
    d = result_to_json_dict(inst, solve(inst, "dijkstra"))
    assert d["solution"] == [1]
    assert d["weight"] == 5
    cs, _ = punctured_octahedron()
    bad = instance_from_complex(cs, cs.chain_from_faces([(0, 1)]))
    d2 = result_to_json_dict(bad, solve(bad, "treewidth"))
    assert d2["status"] == "infeasible"
    assert d2["weight"] is None and d2["solution"] is None


PHASES = {
    "mbc1": {"verify"},
    "dijkstra": {"feasibility", "search", "verify"},
    "treewidth": {"decompose", "dp", "verify"},
    "brute": {"verify"},
}


def test_timing_is_opt_in():
    """Timing adds the wall time, the per-phase wall times and, for
    treewidth, the largest table; without it the stats are unchanged."""
    path = build_slice([(0, 1), (1, 2)])
    for algorithm, phases in PHASES.items():
        if algorithm == "mbc1":
            inst = instance_from_complex(path, path.chain_from_faces([(0,), (2,)]))
        else:
            inst = instance_from_complex(*punctured_octahedron())
        plain = solve(inst, algorithm)
        timed = solve(inst, algorithm, timing=True)
        added = {"wall_time_s", "phases"} | ({"peak_table"} if algorithm == "treewidth" else set())
        assert not added & set(plain.stats), algorithm
        assert set(timed.stats) == set(plain.stats) | added, algorithm
        assert set(timed.stats["phases"]) == phases, algorithm
        assert all(s >= 0 for s in timed.stats["phases"].values())
        assert sum(timed.stats["phases"].values()) <= timed.stats["wall_time_s"]


def test_scale_travels_through():
    tops = [(0, 1, 2), (1, 2, 3)]
    cs = build_slice(tops, [5, 15], scale=10)
    boundary = cs.boundary_of(frozenset({0}))
    inst = instance_from_complex(cs, boundary)
    assert inst.scale == 10
    r = solve(inst, "treewidth")
    assert r.weight == 5
    d = result_to_json_dict(inst, r)
    assert d["scale"] == 10


def test_instance_from_matrix_validates_rows():
    mat = Gf2Matrix(2, 1, [(0,)], [1])
    with pytest.raises(UsageError):
        instance_from_matrix(mat, (4,))


def test_solver_specific_options_pass_through():
    for seed in range(10):
        cs, boundary = random_problem(seed)
        inst = instance_from_complex(cs, boundary)
        a = solve(inst, "dijkstra", pivot="max-index", check_feasibility=False)
        b = solve(inst, "treewidth", td_heuristic="min-degree")
        c = solve(inst, "brute", oracle_mode="kernel")
        assert a.status is b.status is c.status
        if a.is_optimal:
            assert a.weight == b.weight == c.weight


def test_size_bound_is_refused_outside_dijkstra():
    """k is a dijkstra option; the other engines would silently ignore it."""
    inst = instance_from_complex(*triangle_strip(10))
    for algorithm in ("treewidth", "brute"):
        assert solve(inst, algorithm).weight == 10
        with pytest.raises(UsageError):
            solve(inst, algorithm, k=3)
    assert solve(inst, "dijkstra", k=3).status is Status.NOT_FOUND_WITHIN_BOUND
    assert solve(inst, "dijkstra", k=10).weight == 10
    edges = build_slice([(0, 1), (1, 2)])
    path = instance_from_complex(
        edges, edges.chain_from_faces([(0,), (2,)])
    )
    with pytest.raises(UsageError):
        solve(path, "mbc1", k=3)


def test_decomposition_is_refused_outside_treewidth():
    """ntd is a treewidth option; the other engines would silently ignore it."""
    inst = instance_from_complex(*triangle_strip(10))
    td = greedy_decomposition(hasse_graph(inst.matrix))
    given = solve(inst, "treewidth", ntd=td)
    assert given.weight == 10 and given.stats["decomposition"] == "given"
    for algorithm in ("dijkstra", "brute"):
        with pytest.raises(UsageError, match="treewidth"):
            solve(inst, algorithm, ntd=td)
    edges = build_slice([(0, 1), (1, 2)])
    path = instance_from_complex(edges, edges.chain_from_faces([(0,), (2,)]))
    with pytest.raises(UsageError, match="treewidth"):
        solve(path, "mbc1", ntd=greedy_decomposition(hasse_graph(path.matrix)))
