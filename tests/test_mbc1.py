import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from boundedchain import (
    Status,
    UsageError,
    boundary_matrix,
    brute_force_mld,
    build_slice,
    distance_closure,
    instance_from_complex,
    instance_from_matrix,
    min_weight_perfect_matching,
    solve,
    solve_mbc1,
)
from boundedchain.complexes import Gf2Matrix
from boundedchain.fileio import write_matrix_text
from boundedchain.generators import random_boundary, random_slice
from boundedchain.mbc1 import INF, assemble_chain


def _edge(a, b):
    return (min(a, b), max(a, b))


def mbc1(cs, boundary):
    """solve_mbc1 on the decoding view of a slice and its boundary chain."""
    inst = instance_from_complex(cs, boundary)
    return solve_mbc1(inst.matrix, inst.target)


def four_cycle():
    return build_slice([_edge(0, 1), _edge(1, 2), _edge(2, 3), _edge(0, 3)])


def test_four_cycle_all_vertices():
    cs = four_cycle()
    boundary = cs.chain_from_faces((v,) for v in range(4))
    r = mbc1(cs, boundary)
    assert r.status is Status.OPTIMAL
    assert r.weight == 2
    # two opposite edges; edge table is sorted, so (0,1) and (2,3)
    assert r.witness == frozenset({0, 3})
    assert r.stats["matching_value"] == 2
    assert r.stats["pairs"] == 2


def test_shared_zero_edge_cancels():
    """Two path pairs share a zero-weight edge; the overlap must cancel."""
    edges = [_edge(0, 3), _edge(3, 4), _edge(1, 4), _edge(2, 3), _edge(4, 5)]
    weights = [1, 0, 1, 1, 1]
    cs = build_slice(edges, weights)
    boundary = cs.chain_from_faces((v,) for v in (0, 1, 2, 5))
    r = mbc1(cs, boundary)
    assert r.status is Status.OPTIMAL
    assert r.weight == 4
    assert r.weight == r.stats["matching_value"]
    assert cs.boundary_of(r.witness) == boundary


def test_single_pair_equals_graph_distance():
    """With |U| = 2 the optimum is the s-t shortest path distance."""
    rng = random.Random(17)
    for seed in range(40):
        n_v = rng.randint(4, 9)
        n_e = rng.randint(3, min(14, math.comb(n_v, 2)))
        cs = random_slice(n_e, n_v, dim=1, seed=seed, weights="random")
        g = nx.Graph()
        for j, (a, b) in enumerate(cs.faces_of):
            w = cs.weights[j]
            if not g.has_edge(a, b) or g[a][b]["weight"] > w:
                g.add_edge(a, b, weight=w)
        s, t = rng.sample(range(cs.n_faces), 2)
        boundary = frozenset((s, t))
        r = mbc1(cs, boundary)
        if nx.has_path(g, s, t):
            want = nx.dijkstra_path_length(g, s, t)
            assert r.status is Status.OPTIMAL
            assert r.weight == want, (seed, s, t)
        else:
            assert r.status is Status.INFEASIBLE


def _all_pairings(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for i, other in enumerate(rest):
        for sub in _all_pairings(rest[:i] + rest[i + 1:]):
            yield [(first, other)] + sub


def test_matching_against_pairing_enumeration():
    """Blossom matching agrees with trying every perfect pairing."""
    rng = random.Random(23)
    for trial in range(60):
        k = rng.choice((2, 4, 6))
        nodes = list(range(k))
        d = {}
        for i in range(k):
            for j in range(i + 1, k):
                d[(i, j)] = rng.randint(0, 20)

        def dist_of(a, b):
            return d[(min(a, b), max(a, b))]

        got = min_weight_perfect_matching(nodes, dist_of)
        got_value = sum(dist_of(a, b) for a, b in got)
        best = min(
            sum(dist_of(a, b) for a, b in pairing)
            for pairing in _all_pairings(nodes)
        )
        assert got_value == best, trial


def test_matching_edge_cases():
    assert min_weight_perfect_matching([], lambda a, b: 0) == []
    assert min_weight_perfect_matching([3, 1], lambda a, b: 5) == [(1, 3)]
    assert min_weight_perfect_matching([0, 1], lambda a, b: INF) is None
    with pytest.raises(UsageError):
        min_weight_perfect_matching([0, 1, 2], lambda a, b: 0)
    def gap(a, b):
        return 1 if (a, b) in ((0, 1), (2, 3)) or (b, a) in ((0, 1), (2, 3)) else INF
    assert min_weight_perfect_matching([0, 1, 2, 3], gap) == [(0, 1), (2, 3)]
    # forcing the unusable pairing leaves no perfect matching
    def cross_only(a, b):
        return 1 if {a, b} in ({0, 2}, {0, 3}) else INF
    assert min_weight_perfect_matching([0, 1, 2, 3], cross_only) is None


def test_against_brute_force_sweep():
    rng = random.Random(5)
    for trial in range(80):
        n_v = rng.randint(3, 8)
        n_e = rng.randint(1, min(12, math.comb(n_v, 2)))
        weights = rng.choice(["unit", "random"])
        cs = random_slice(n_e, n_v, dim=1, seed=trial, weights=weights)
        boundary = random_boundary(cs, seed=trial)
        inst = instance_from_complex(cs, boundary)
        ref = solve(inst, "brute")
        got = solve(inst, "mbc1")
        assert got.status is ref.status, trial
        if ref.is_optimal:
            assert got.weight == ref.weight, trial
            assert cs.boundary_of(got.witness) == boundary


def test_odd_parity_is_infeasible():
    cs = four_cycle()
    r = mbc1(cs, frozenset({0}))
    assert r.status is Status.INFEASIBLE
    assert r.stats["component_witness"] == 0


def test_cross_component_pairs_are_infeasible():
    cs = build_slice([_edge(0, 1), _edge(2, 3)])
    r = mbc1(cs, frozenset({0, 2}))
    assert r.status is Status.INFEASIBLE
    # but two pairs inside their own components are fine
    r2 = mbc1(cs, frozenset({0, 1, 2, 3}))
    assert r2.status is Status.OPTIMAL
    assert r2.weight == 2


def test_zero_weight_graph():
    cs = build_slice([_edge(0, 1), _edge(1, 2), _edge(0, 2)], [0, 0, 0])
    r = mbc1(cs, frozenset({0, 1}))
    assert r.status is Status.OPTIMAL
    assert r.weight == 0
    assert cs.boundary_of(r.witness) == frozenset({0, 1})


def test_empty_boundary_gives_empty_chain():
    r = mbc1(four_cycle(), frozenset())
    assert r.status is Status.OPTIMAL
    assert r.weight == 0
    assert r.witness == frozenset()


def test_usage_errors():
    cs = four_cycle()
    with pytest.raises(UsageError):
        mbc1(cs, frozenset({99}))
    with pytest.raises(UsageError):
        mbc1(build_slice([_edge(0, 1)], [-2]), frozenset())
    tri = build_slice([(0, 1, 2)])
    with pytest.raises(UsageError, match="dimension 1"):
        mbc1(tri, frozenset())
    with pytest.raises(UsageError):
        distance_closure(boundary_matrix(cs), (99,))


def test_multigraph_matrices_against_exhaustive_oracle():
    """Graphs given as matrices, parallel columns and zero weights allowed."""
    rng = random.Random(43)
    with_parallel = 0
    for trial in range(240):
        n_v = rng.randint(2, 7)
        n_e = rng.randint(0, 14)
        col_rows = [tuple(sorted(rng.sample(range(n_v), 2))) for _ in range(n_e)]
        with_parallel += len(set(col_rows)) < n_e
        mat = Gf2Matrix(n_v, n_e, col_rows, [rng.randint(0, 9) for _ in range(n_e)])
        target = [r for r in range(n_v) if rng.random() < 0.5]
        ref = brute_force_mld(mat, target, mode="exhaustive")
        got = solve(instance_from_matrix(mat, target), "mbc1")
        assert got.status is ref.status, trial
        if ref.is_optimal:
            assert got.weight == ref.weight, trial
    assert with_parallel >= 100


def test_parallel_columns_take_the_lightest():
    """Of two columns on the same two rows, the path uses the lighter one."""
    for weights, want in (([2, 5, 1], (0, 2)), ([5, 2, 1], (1, 2)), ([2, 2, 1], (0, 2))):
        mat = Gf2Matrix(3, 3, [(0, 1), (0, 1), (1, 2)], weights)
        r = solve_mbc1(mat, {0, 2})
        assert r.status is Status.OPTIMAL
        assert r.weight == 3
        assert r.witness == frozenset(want), weights


def test_distance_closure_predecessors_are_usable():
    """Predecessor chains always walk back to the source, even with ties."""
    rng = random.Random(31)
    for trial in range(30):
        n_v = rng.randint(4, 8)
        n_e = rng.randint(3, min(12, math.comb(n_v, 2)))
        cs = random_slice(n_e, n_v, dim=1, seed=100 + trial, weights="unit")
        # force some zero weights to stress tie handling
        weights = [rng.choice((0, 1)) for _ in range(cs.n_top)]
        cs = build_slice(list(cs.top), weights)
        sources = tuple(sorted(rng.sample(range(cs.n_faces), 2)))
        mat = boundary_matrix(cs)
        closure = distance_closure(mat, sources)
        for s in sources:
            for t in range(cs.n_faces):
                if closure.distance(s, t) == INF:
                    continue
                cols = assemble_chain([(s, t)], closure, mat)
                assert mat.weight_of(cols) == closure.distance(s, t)


CLOSURE_CHILD = """
import json, resource, sys
from boundedchain.cli import main
code = main(["solve", "--matrix", sys.argv[1], "--algorithm", "mbc1", "--out", sys.argv[2]])
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps([code, rss // (1 << 20) if sys.platform == "darwin" else rss // 1024]))
"""


def test_perfect_matching_closure_stays_small(tmp_path):
    """Each source's closure covers its own component only: a 3000-edge
    perfect matching with every row in the target solves in a small child
    process. A closure sized by all rows per source takes about 0.6 GB."""
    m = 3000
    mat = Gf2Matrix(2 * m, m, [(2 * i, 2 * i + 1) for i in range(m)], [1] * m)
    src = tmp_path / "matching.mld"
    src.write_text(write_matrix_text(mat, range(2 * m)))
    out = tmp_path / "matching.json"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CLOSURE_CHILD, str(src), str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, rss_mb = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert json.loads(out.read_text())["weight"] == m
    assert rss_mb < 150, rss_mb


LAZY_NETWORKX_CHILD = r"""
import os
import sys

from boundedchain import Gf2Matrix, instance_from_matrix, solve
from boundedchain.cli import main

# the path 0-1-2-3-4 and a chord 0-2 of weight 3
mat = Gf2Matrix(5, 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)], [1, 1, 1, 1, 3])
two = instance_from_matrix(mat, [0, 4])
for algorithm, options in [
    ("dijkstra", {}), ("dijkstra", {"k": 4}), ("treewidth", {}), ("brute", {}), ("mbc1", {}),
]:
    r = solve(two, algorithm, **options)
    assert (r.status.value, r.weight) == ("optimal", 4), (algorithm, options, r)
os.chdir(sys.argv[1])
instance = ["--complex", "s.complex", "--boundary", "s.boundary"]
for argv in (
    ["gen", "random", "--top-simplices", "12", "--vertices", "8", "--weights", "random",
     "--out", "s"],
    ["solve", *instance, "--algorithm", "dijkstra", "--out", "s.json"],
    ["decompose", "--input", "s.complex", "--out", "s.td"],
    ["verify", "s.json", *instance],
):
    assert main(argv) == 0, argv
assert "networkx" not in sys.modules
# four targets in one component: the blossom matching
four = solve(instance_from_matrix(mat, [0, 1, 3, 4]), "mbc1")
assert "networkx" in sys.modules
print(four.weight, sorted(four.witness), four.stats["pairs"])
"""


def test_networkx_is_loaded_only_for_the_blossom_matching(tmp_path):
    """Importing the package, every engine on a two-target graph and the
    gen, solve, decompose and verify commands leave networkx unloaded; it
    is loaded by an mbc1 solve that pairs four targets in one component.
    Other tests import networkx, so this runs in a child process."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_NETWORKX_CHILD, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # pairs (0, 1) and (3, 4), edges 0 and 3
    assert proc.stdout.splitlines()[-1] == "2 [0, 3] 2"

