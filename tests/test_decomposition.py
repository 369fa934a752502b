import hashlib
import random

import pytest

from boundedchain import (
    TreeDecomposition,
    UsageError,
    greedy_decomposition,
    make_nice,
    validate_decomposition,
    validate_nice,
)
from boundedchain.complexes import boundary_matrix, hasse_graph
from boundedchain.fileio import parse_decomposition_text, write_decomposition_text
from boundedchain.generators import cylinder, random_slice, triangle_strip
from helpers import adjacency, reference_greedy_decomposition


def path_graph(n):
    return adjacency(n, [(i, i + 1) for i in range(n - 1)])


def clique(n):
    return adjacency(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_graph(rng, n, m):
    edges = set()
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return adjacency(n, sorted(edges))


def decompositions(g):
    """The min-fill decomposition and the reference's min-degree one."""
    return greedy_decomposition(g), reference_greedy_decomposition(g, "min-degree")


def test_known_widths():
    triangle = adjacency(3, [(0, 1), (1, 2), (0, 2)])
    star = adjacency(5, [(0, i) for i in range(1, 5)])
    graphs = ((path_graph(6), 1), (clique(5), 4), (triangle, 2), (star, 1), (adjacency(3), 0))
    for g, width in graphs:
        for td in decompositions(g):
            assert td.width == width


def test_three_by_three_grid_width():
    edges = []
    for r in range(3):
        for c in range(3):
            v = 3 * r + c
            if c + 1 < 3:
                edges.append((v, v + 1))
            if r + 1 < 3:
                edges.append((v, v + 3))
    g = adjacency(9, edges)
    for td in decompositions(g):
        assert validate_decomposition(td, g) is None
        assert td.width == 3


def test_validate_catches_broken_properties():
    g = path_graph(3)
    # vertex 2 missing entirely
    td = TreeDecomposition([frozenset({0, 1})], [()], 0)
    bad = validate_decomposition(td, g)
    assert bad is not None and bad.kind == "coverage"
    # edge (1, 2) in no bag
    td = TreeDecomposition([frozenset({0, 1}), frozenset({2})], [(1,), ()], 0)
    bad = validate_decomposition(td, g)
    assert bad is not None and bad.kind == "edge-coverage"
    # bags with vertex 0 are disconnected
    td = TreeDecomposition(
        [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})],
        [(1,), (2,), ()],
        0,
    )
    bad = validate_decomposition(td, g)
    assert bad is not None and bad.kind == "connectivity"
    # two parents
    td = TreeDecomposition(
        [frozenset({0, 1}), frozenset({1, 2}), frozenset({1})],
        [(2,), (2,), ()],
        0,
    )
    bad = validate_decomposition(td, g)
    assert bad is not None and bad.kind == "structure"


def test_validate_names_the_first_uncovered_edge():
    """Edges are checked by u, then v, ascending, whatever order each
    neighbour set iterates in: vertex 0's set below iterates 9 before 1."""
    g = adjacency(10, [(5, 6), (0, 9), (0, 1), (2, 7)])
    assert list(g[0]) == [9, 1]
    singles = TreeDecomposition([{v} for v in range(10)], [(v + 1,) for v in range(9)] + [()], 0)
    assert str(validate_decomposition(singles, g)) == "edge-coverage: edge (0, 1) is in no bag"
    bags = list(singles.bags)
    bags[0] = frozenset({0, 1})
    td = TreeDecomposition(bags, singles.children, 0)
    assert str(validate_decomposition(td, g)) == "edge-coverage: edge (0, 9) is in no bag"


def test_greedy_decomposition_leaves_its_input_unchanged():
    """The treewidth solve hands the same incidence graph to the DP after
    the elimination, which adds fill edges and empties the sets it eliminates."""
    rng = random.Random(5)
    graphs = [clique(6), path_graph(5), _hasse(cylinder(4, 3)[0])]
    graphs += [random_graph(rng, 12, 20) for _ in range(20)]
    for g in graphs:
        before = [set(s) for s in g]
        greedy_decomposition(g)
        assert g == before


def test_make_nice_single_bag_sequence():
    g = adjacency(2, [(0, 1)])
    td = TreeDecomposition([frozenset({0, 1})], [()], 0)
    ntd = make_nice(td, g)
    # leaf, introduce 0, introduce 1, forget 0, forget 1
    walk = [(sorted(ntd.bags[t]), ntd.children[t]) for t in range(ntd.n_nodes)]
    assert walk == [([], ()), ([0], (0,)), ([0, 1], (1,)), ([1], (2,)), ([], (3,))]
    assert ntd.root == 4
    assert validate_nice(ntd) is None
    assert validate_decomposition(ntd, g) is None


def test_make_nice_rejects_invalid_input():
    g = path_graph(3)
    td = TreeDecomposition([frozenset({0, 1})], [()], 0)
    with pytest.raises(UsageError):
        make_nice(td, g)
    loop = TreeDecomposition([frozenset({0}), frozenset({0})], [(1,), (0,)], 0)
    with pytest.raises(UsageError):
        make_nice(loop)


def test_make_nice_random_sweep():
    """Nice form stays valid and never wider than its input."""
    rng = random.Random(77)
    for trial in range(120):
        n = rng.randint(1, 16)
        m = rng.randint(0, min(24, n * (n - 1) // 2))
        g = random_graph(rng, n, m)
        for td in decompositions(g):
            assert validate_decomposition(td, g) is None, trial
            ntd = make_nice(td, g)
            assert validate_decomposition(ntd, g) is None, trial
            assert validate_nice(ntd) is None, trial
            assert not ntd.bags[ntd.root]
            assert ntd.width <= td.width
            # children-first ids let a single pass run bottom-up
            for t, kids in enumerate(ntd.children):
                assert all(c < t for c in kids)


def test_join_nodes_appear_for_branching_trees():
    g = adjacency(7, [(0, i) for i in range(1, 7)])
    td = reference_greedy_decomposition(g, "min-degree")
    ntd = make_nice(td, g)
    assert any(len(kids) == 2 for kids in ntd.children)
    assert validate_nice(ntd) is None


def test_validate_nice_shape_rules():
    ok = make_nice(greedy_decomposition(path_graph(4)))
    assert validate_nice(ok) is None
    # node 1 introduces a vertex into the empty leaf; emptying it leaves
    # a one-child node that adds nothing
    assert ok.children[1] == (0,) and len(ok.bags[1]) == 1
    bags = list(ok.bags)
    bags[1] = frozenset()
    bad = validate_nice(TreeDecomposition(bags, ok.children, ok.root))
    assert bad is not None and bad.kind == "nice-shape" and "node 1 " in bad.detail
    tilted = TreeDecomposition([frozenset({0})], [()], 0)
    assert validate_nice(tilted) is not None


def test_validate_nice_reads_the_shape_of_a_parsed_file():
    """Nice is a shape of any decomposition, so a nice form read back from
    a file passes; each broken shape names its node."""
    g = adjacency(7, [(0, i) for i in range(1, 7)] + [(1, 2), (3, 4)])
    ntd = make_nice(reference_greedy_decomposition(g, "min-degree"), g)
    back = parse_decomposition_text(write_decomposition_text(ntd))
    assert validate_nice(back) is None
    assert validate_decomposition(back, g) is None
    empty = frozenset()
    broken = {
        # node 1 adds two vertices at once
        1: TreeDecomposition([empty, {0, 1}, {0}, empty], [(), (0,), (1,), (2,)], 3),
        # leaf node 0 has a nonempty bag
        0: TreeDecomposition([{0}, empty], [(), (0,)], 1),
        # node 3 has three children
        3: TreeDecomposition([empty] * 4, [(), (), (), (0, 1, 2)], 3),
    }
    for t, td in broken.items():
        bad = validate_nice(td)
        assert bad is not None and bad.kind == "nice-shape", t
        assert f"node {t} " in bad.detail, (t, bad)


def test_empty_graph_decomposition():
    g = adjacency(0)
    td = greedy_decomposition(g)
    assert td.n_nodes == 1
    assert validate_decomposition(td, g) is None
    ntd = make_nice(td, g)
    assert validate_nice(ntd) is None


def test_parents_inverse_of_children():
    td = greedy_decomposition(path_graph(5))
    par = td.parents()
    assert par[td.root] is None
    for t, kids in enumerate(td.children):
        for c in kids:
            assert par[c] == t


def _hasse(cslice):
    return hasse_graph(boundary_matrix(cslice))


def test_incremental_elimination_matches_reference():
    """The heap-driven min-fill order is the one full rescoring picks."""
    rng = random.Random(2)
    graphs = []
    for _ in range(1000):
        n = rng.randint(1, 40)
        m = min(n * (n - 1) // 2, rng.randint(0, rng.choice((1, 3, 6)) * n))
        graphs.append(random_graph(rng, n, m))
    # denser graphs, where fill edges join vertices with common neighbours
    # both inside and outside the eliminated vertex's neighbourhood
    for density in (0.05, 0.1, 0.2, 0.35, 0.6):
        for _ in range(4):
            n = rng.randint(40, 80)
            graphs.append(random_graph(rng, n, int(density * n * (n - 1) / 2)))
    for seed in range(10):
        graphs.append(_hasse(random_slice(35, 8, dim=2, seed=seed)))
        graphs.append(_hasse(random_slice(35, 8, dim=3, seed=seed)))
    for seed in range(4):
        graphs.append(_hasse(random_slice(60, 9, dim=2, seed=seed)))
        graphs.append(_hasse(random_slice(40, 8, dim=3, seed=seed)))
    graphs += [_hasse(triangle_strip(length)[0]) for length in (60, 480)]
    graphs += [_hasse(cylinder(8, 4)[0]), _hasse(cylinder(12, 12)[0])]
    for i, g in enumerate(graphs):
        got = greedy_decomposition(g)
        want = reference_greedy_decomposition(g, "min-fill")
        assert (got.bags, got.children, got.root) == (want.bags, want.children, want.root), i


# sha256 of write_decomposition_text(greedy_decomposition(...)): `mbc decompose`
# files are byte-stable, so any change to an elimination order shows here.
GOLDEN_TD_SHA256 = {
    ("cylinder", "min-fill"): "bfa9de117f846dab4add909990d074176b675e1f6f36adb48059e4309da2dbf6",
    ("strip", "min-fill"): "d6d44c7566abc681dcbf1e7e88e9a85d54ec6b408d40125428235bf4a0c1996d",
}


@pytest.mark.parametrize("name,heuristic", sorted(GOLDEN_TD_SHA256))
def test_decomposition_files_are_pinned(name, heuristic):
    cslice = cylinder(12, 12)[0] if name == "cylinder" else triangle_strip(480)[0]
    text = write_decomposition_text(greedy_decomposition(_hasse(cslice)))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_TD_SHA256[name, heuristic]
