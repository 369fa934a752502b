"""End-to-end acceptance checks; each test prints one verdict line."""

import gc
import json
import math
import random
import subprocess
import sys
import time

from boundedchain import (
    Status,
    boundary_matrix,
    brute_force_mld,
    build_slice,
    hasse_graph,
    instance_from_complex,
    solve,
    solve_mbc1,
    solve_mld_dijkstra,
    solve_mld_treewidth,
    verify_witness,
)
from boundedchain.complexes import Gf2Matrix
from boundedchain.decomposition import (
    Graph,
    greedy_decomposition,
    make_nice,
    validate_decomposition,
    validate_nice,
)
from boundedchain.fileio import (
    parse_boundary_text,
    parse_complex_text,
    write_boundary_text,
    write_complex_text,
)
from boundedchain.generators import (
    octahedron,
    random_boundary,
    random_slice,
    triangle_strip,
)
from helpers import (
    PIVOT_ORDERS,
    assert_join_pairs_capped,
    copied,
    irreducible,
    pivot_order,
    punctured_octahedron,
    reference_greedy_decomposition,
)


def test_acceptance_1_oracle_agreement(acceptance):
    """500 random feasible 2-dimensional instances, three engines, one answer."""
    with acceptance(1, "oracle agreement sweep"):
        rng = random.Random(1)
        start = time.perf_counter()
        for seed in range(500):
            n_v = rng.randint(6, 9)
            n_top = rng.randint(1, min(16, math.comb(n_v, 3)))
            wmode = "random" if seed % 2 else "unit"
            cs = random_slice(n_top, n_v, seed=seed, weights=wmode)
            boundary = random_boundary(cs, seed=seed)
            inst = instance_from_complex(cs, boundary)
            ref = solve(inst, "brute")
            assert ref.status is Status.OPTIMAL, seed
            for algorithm in ("dijkstra", "treewidth"):
                r = solve(inst, algorithm)
                assert r.status is Status.OPTIMAL, (seed, algorithm)
                assert r.weight == ref.weight, (seed, algorithm)
                assert cs.boundary_of(r.witness) == boundary, (seed, algorithm)
        elapsed = time.perf_counter() - start
        assert elapsed < 120, f"sweep took {elapsed:.1f}s"


def test_acceptance_2_dimension_one_correctness(acceptance):
    """Graphs against the full subset oracle, then the two-vertex case
    against plain shortest-path distances."""
    with acceptance(2, "dimension-one solver"):
        rng = random.Random(2)
        for seed in range(300):
            n_v = rng.randint(4, 10)
            n_e = rng.randint(1, min(18, math.comb(n_v, 2)))
            base = random_slice(n_e, n_v, dim=1, seed=seed)
            weights = [rng.randint(0, 9) for _ in range(base.n_top)]
            cs = build_slice(list(base.top), weights)
            boundary = random_boundary(cs, seed=seed)
            ref = brute_force_mld(boundary_matrix(cs), boundary, mode="exhaustive")
            got = solve_mbc1(boundary_matrix(cs), sorted(boundary))
            assert got.status is ref.status, seed
            if ref.is_optimal:
                assert got.weight == ref.weight, seed

        import networkx as nx

        checked = 0
        seed = 0
        while checked < 100:
            seed += 1
            n_v = rng.randint(5, 9)
            n_e = rng.randint(5, min(16, math.comb(n_v, 2)))
            cs = random_slice(n_e, n_v, dim=1, seed=seed, weights="random")
            g = nx.Graph()
            g.add_nodes_from(range(cs.n_faces))
            for j, (a, b) in enumerate(cs.faces_of):
                w = cs.weights[j]
                if not g.has_edge(a, b) or g[a][b]["weight"] > w:
                    g.add_edge(a, b, weight=w)
            s, t = rng.sample(range(cs.n_faces), 2)
            if not nx.has_path(g, s, t):
                continue
            r = solve_mbc1(boundary_matrix(cs), (s, t))
            assert r.status is Status.OPTIMAL, seed
            assert r.weight == nx.dijkstra_path_length(g, s, t), (seed, s, t)
            checked += 1


def test_acceptance_3_octahedron_family(acceptance):
    """Removing one face forces the other seven; the size-bounded search
    pins the threshold."""
    with acceptance(3, "octahedron family"):
        cs, boundary = punctured_octahedron()
        inst = instance_from_complex(cs, boundary)
        runs = []
        for order in PIVOT_ORDERS:
            with pivot_order(order):
                runs.append(solve(inst, "dijkstra"))
        min_degree = reference_greedy_decomposition(hasse_graph(inst.matrix), "min-degree")
        runs += [solve(inst, "treewidth", ntd=ntd) for ntd in (None, min_degree)]
        for m in ("exhaustive", "kernel"):
            runs.append(brute_force_mld(inst.matrix, sorted(inst.target), mode=m))
            verify_witness(inst, runs[-1])
        for r in runs:
            assert r.status is Status.OPTIMAL
            assert r.weight == 7
            assert r.witness == frozenset(range(7))
        assert solve(inst, "dijkstra", k=6).status is Status.NOT_FOUND_WITHIN_BOUND
        bounded = solve(inst, "dijkstra", k=7)
        assert bounded.weight == 7
        assert bounded.witness == frozenset(range(7))


def test_acceptance_4_negative_weights(acceptance):
    """All-negative weights on the closed surface: the empty target is met
    by the whole sphere, by the DP and by the unbounded search."""
    with acceptance(4, "negative weights"):
        mat = boundary_matrix(octahedron())
        neg = Gf2Matrix(mat.nrows, mat.ncols, mat.col_rows, [-1] * 8)
        for engine in (solve_mld_treewidth, solve_mld_dijkstra):
            r = engine(neg, ())
            assert r.status is Status.OPTIMAL, engine
            assert r.weight == -8, engine
            assert r.witness == frozenset(range(8)), engine
        ref = brute_force_mld(neg, ())
        assert ref.weight == -8 and ref.witness == frozenset(range(8))


def test_acceptance_5_bound_semantics(acceptance):
    """k one below the minimum cardinality misses; k at it finds the optimum."""
    with acceptance(5, "size bound semantics"):
        rng = random.Random(5)
        done = 0
        seed = 0
        while done < 100:
            seed += 1
            n_v = rng.randint(6, 9)
            n_top = rng.randint(2, min(12, math.comb(n_v, 3)))
            cs = random_slice(n_top, n_v, seed=seed)
            boundary = random_boundary(cs, seed=seed, require_nonempty=True)
            mat = boundary_matrix(cs)
            opt = brute_force_mld(mat, boundary)
            assert opt.status is Status.OPTIMAL
            mincard = opt.weight  # unit weights make weight = cardinality
            below = solve_mld_dijkstra(mat, sorted(boundary), k=mincard - 1)
            assert below.status is Status.NOT_FOUND_WITHIN_BOUND, seed
            exact = solve_mld_dijkstra(mat, sorted(boundary), k=mincard)
            assert exact.status is Status.OPTIMAL, seed
            assert exact.weight == mincard, seed
            done += 1


def test_acceptance_6_decomposition_validity(acceptance):
    """Nice form of 200 random graphs: all properties, empty root, width kept."""
    with acceptance(6, "decomposition validity"):
        rng = random.Random(6)
        for trial in range(200):
            n = rng.randint(1, 40)
            m = rng.randint(0, min(60, n * (n - 1) // 2))
            edges = set()
            while len(edges) < m:
                u, v = rng.sample(range(n), 2)
                edges.add((min(u, v), max(u, v)))
            g = Graph(n, sorted(edges))
            if trial % 2:
                td = greedy_decomposition(g)
            else:
                td = reference_greedy_decomposition(g, "min-degree")
            ntd = make_nice(td, g)
            assert validate_decomposition(ntd, g) is None, trial
            assert validate_nice(ntd) is None, trial
            assert not ntd.bags[ntd.root], trial
            assert ntd.width <= td.width, trial


def _strip_dp_time(length, reps=5):
    """The DP on a strip with every triangle twice (``helpers.copied``), made
    irreducible (``helpers.irreducible``): the kernel reductions solve a
    plain strip outright, and the coset rule an irreducible one, whose
    solution is unique; this one has 2^length solutions, and they leave it
    whole, at fixed width."""
    cs, boundary = triangle_strip(length)
    mat = irreducible(copied(boundary_matrix(cs), 2))
    g = hasse_graph(mat)
    ntd = greedy_decomposition(g)
    best = None
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = solve_mld_treewidth(mat, sorted(boundary), ntd=ntd)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    assert result.stats["width"] == ntd.width > 1
    return best, result


def test_acceptance_7_scaling(acceptance):
    """Linear growth at fixed width, plus the two hard combinatorial caps."""
    with acceptance(7, "scaling behaviour"):
        # hard cap on join work per bag
        rng = random.Random(7)
        for seed in range(30):
            n_v = rng.randint(6, 9)
            n_top = rng.randint(2, min(14, math.comb(n_v, 3)))
            cs = random_slice(n_top, n_v, seed=seed)
            boundary = random_boundary(cs, seed=seed)
            mat = boundary_matrix(cs)
            td = greedy_decomposition(hasse_graph(mat))
            r = solve_mld_treewidth(mat, sorted(boundary), ntd=td, timing=True)
            assert_join_pairs_capped(td, mat.nrows, r.stats["join_bags"])

        # hard cap on search size: sum of c^i for i <= k
        for seed in range(30):
            n_v = rng.randint(6, 9)
            n_top = rng.randint(2, min(12, math.comb(n_v, 3)))
            cs = random_slice(n_top, n_v, seed=100 + seed)
            boundary = random_boundary(cs, seed=seed, require_nonempty=True)
            mat = boundary_matrix(cs)
            opt = brute_force_mld(mat, boundary)
            k = opt.weight
            r = solve_mld_dijkstra(mat, sorted(boundary), k=k)
            c = max(cs.coface_degree, 1)
            bound = sum(c**i for i in range(k + 1))
            assert r.stats["states_expanded"] <= bound, seed

        # wall time on irreducible strips: quadrupling the length at fixed
        # width may cost at most 1.5x the linear prediction (best of 3
        # attempts, timing on shared machines is noisy)
        for attempt in range(3):
            t_small, r_small = _strip_dp_time(120)
            t_big, r_big = _strip_dp_time(480)
            assert r_small.stats["width"] == r_big.stats["width"]
            assert r_small.weight == 3 * 120 and r_big.weight == 3 * 480
            if t_big <= 1.5 * 4 * t_small:
                break
        else:
            raise AssertionError(
                f"superlinear growth: {t_small * 1e3:.1f}ms -> {t_big * 1e3:.1f}ms"
            )


def _assert_linear_on_strips(prepare, run, reps=3):
    """Quadrupling a strip from 240 to 960 triangles may cost at most 1.5x
    the linear prediction (best of 3 attempts).

    ``run(length, prepare(length))`` is timed in process time after a full
    collection, best of ``reps``; set-up is untimed. The two sizes take
    turns, so both see the same load on a shared machine.
    """
    for _ in range(3):
        best = {240: math.inf, 960: math.inf}
        for _ in range(reps):
            for length in best:
                arg = prepare(length)
                gc.collect()
                t0 = time.process_time()
                run(length, arg)
                best[length] = min(best[length], time.process_time() - t0)
        t_small, t_big = best[240], best[960]
        if t_big <= 1.5 * 4 * t_small:
            return
    raise AssertionError(
        f"superlinear growth: {t_small * 1e3:.1f}ms -> {t_big * 1e3:.1f}ms"
    )


def _strip_instance(length):
    return instance_from_complex(*triangle_strip(length))


def _solve_strip(length, instance):
    assert solve(instance, "treewidth").weight == length


def _strip_texts(length):
    cslice, boundary = triangle_strip(length)
    return write_complex_text(cslice), write_boundary_text(cslice, boundary)


def _read_strip(length, texts):
    cslice = parse_complex_text(texts[0])
    instance = instance_from_complex(cslice, parse_boundary_text(texts[1], cslice))
    assert len(instance.target) == length + 2


def test_strip_scaling_end_to_end():
    """Whole treewidth solves, decomposition included, grow linearly on strips.

    Acceptance 7 times the DP on a prebuilt decomposition; this times what
    a user waits for.
    """
    _assert_linear_on_strips(_strip_instance, _solve_strip)


def test_strip_reading_scales_linearly():
    """Reading a strip's complex and boundary text into an instance is linear."""
    _assert_linear_on_strips(_strip_texts, _read_strip)


def test_acceptance_8_determinism(acceptance, tmp_path):
    """Same inputs and seeds, byte-identical files, twice, in process and out."""
    with acceptance(8, "byte determinism"):
        from boundedchain.cli import main

        def run(*argv):
            assert main(list(argv)) in (0, 2, 3)

        outputs = []
        for tag in ("x", "y"):
            d = tmp_path / tag
            d.mkdir()
            prefix = str(d / "rnd")
            run(
                "gen", "random", "--top-simplices", "12", "--vertices", "8",
                "--seed", "9", "--weights", "random", "--out", prefix,
            )
            run(
                "solve", "--complex", prefix + ".complex",
                "--boundary", prefix + ".boundary",
                "--algorithm", "treewidth", "--out", str(d / "result.json"),
            )
            run(
                "decompose", "--input", prefix + ".complex",
                "--out", str(d / "rnd.td"),
            )
            run(
                "bench", "--suite", str(d), "--algos", "dijkstra,treewidth,brute",
                "--reps", "2", "--no-timing", "--out", str(d / "bench.csv"),
            )
            outputs.append(
                tuple(
                    (d / name).read_bytes()
                    for name in (
                        "rnd.complex", "rnd.boundary", "result.json",
                        "rnd.td", "bench.csv",
                    )
                )
            )
        assert outputs[0] == outputs[1]

        # same story across separate interpreter runs
        blobs = []
        for tag in ("p", "q"):
            d = tmp_path / tag
            d.mkdir()
            prefix = str(d / "oct")
            for args in (
                ["gen", "octahedron", "--out", prefix],
                [
                    "solve", "--complex", prefix + ".complex",
                    "--algorithm", "treewidth", "--out", str(d / "result.json"),
                ],
            ):
                proc = subprocess.run(
                    [sys.executable, "-m", "boundedchain.cli", *args],
                    capture_output=True,
                    text=True,
                )
                assert proc.returncode == 0, proc.stderr
            blobs.append((d / "result.json").read_bytes())
        assert blobs[0] == blobs[1]
