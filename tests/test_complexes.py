import random
from itertools import combinations

import pytest

from boundedchain import (
    InputError,
    UsageError,
    boundary_matrix,
    build_slice,
    hasse_graph,
)
from boundedchain.complexes import Gf2Matrix
from boundedchain.dijkstra import feasibility_check
from boundedchain.generators import cylinder, sphere_subdivision, triangle_strip
from helpers import (
    octahedron_slice,
    punctured_octahedron,
    random_problem,
    reference_slice_tables,
)


def test_octahedron_tables():
    oc = octahedron_slice()
    assert oc.n_top == 8
    assert oc.n_faces == 12
    assert oc.coface_degree == 2
    assert all(len(c) == 2 for c in boundary_matrix(oc).row_cols)
    full = oc.chain_from_tops(oc.top)
    assert oc.boundary_of(full) == frozenset()


def test_build_slice_sorts_tops_with_weights():
    tops = [(2, 3, 4), (0, 1, 2)]
    cs = build_slice(tops, [7, 3])
    assert cs.top == ((0, 1, 2), (2, 3, 4))
    assert cs.weights == (3, 7)


def test_build_slice_rejects_bad_input():
    with pytest.raises(InputError):
        build_slice([(0, 1, 2), (0, 1, 2)])
    with pytest.raises(InputError):
        build_slice([(0, 1, 2)], [1, 2])
    with pytest.raises(InputError):
        build_slice([(0, 1, 2), (3, 4)])
    with pytest.raises(UsageError):
        build_slice([])
    with pytest.raises(InputError):
        build_slice([(0, 1, 2)], extra_faces=[(3, 4, 5)])
    with pytest.raises(InputError):
        build_slice([(0, 1, 2)], extra_faces=[(3, 4), (3, 4)])


def _tables(cs):
    return cs.top, cs.weights, cs.faces, cs.faces_of


def _assert_lookups(cs):
    assert [cs.face_index(f) for f in cs.faces] == list(range(cs.n_faces))
    assert [cs.top_index(t) for t in cs.top] == list(range(cs.n_top))


def _shuffled_slice_input(dim, seed):
    """Distinct random tops in random order, signed weights, and extra faces
    some of which lie on vertices no top has."""
    rng = random.Random(seed)
    n_vertices = rng.randint(dim + 1, dim + 6)
    pool = list(combinations(range(n_vertices), dim + 1))
    tops = rng.sample(pool, rng.randint(1, min(len(pool), 30)))
    weights = [rng.randint(-9, 9) for _ in tops]
    face_pool = list(combinations(range(n_vertices + 2), dim))
    extras = rng.sample(face_pool, rng.randint(0, min(len(face_pool), 6)))
    return tops, weights, extras


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_build_slice_tables_match_the_plain_construction(dim):
    for seed in range(50):
        tops, weights, extras = _shuffled_slice_input(dim, seed)
        cs = build_slice(tops, weights, extras)
        assert _tables(cs) == reference_slice_tables(tops, weights, extras), seed
        _assert_lookups(cs)


def test_surface_tables_match_the_plain_construction():
    surfaces = [triangle_strip(40)[0], cylinder(5, 4)[0], sphere_subdivision(2)]
    for cs in surfaces:
        assert _tables(cs) == reference_slice_tables(cs.top, cs.weights)
        _assert_lookups(cs)
        tops = list(cs.top)
        random.Random(cs.n_top).shuffle(tops)
        weights = list(range(len(tops)))
        assert _tables(build_slice(tops, weights)) == reference_slice_tables(tops, weights)


def test_extra_faces_are_retained_even_if_uncovered():
    cs, boundary = punctured_octahedron()
    assert cs.n_faces == 12
    assert len(boundary) == 3
    # the rim edges exist although one of their cofaces was removed
    row_cols = boundary_matrix(cs).row_cols
    for v in ((0, 1), (0, 2), (1, 2)):
        assert len(row_cols[cs.face_index(v)]) == 1


def test_face_and_top_lookup_errors():
    oc = octahedron_slice()
    with pytest.raises(InputError):
        oc.face_index((0, 5))
    with pytest.raises(InputError):
        oc.top_index((0, 1, 3))


def test_boundary_matrix_agrees_with_chain_boundary():
    for seed in range(30):
        cslice, _ = random_problem(seed)
        mat = boundary_matrix(cslice)
        assert mat.nrows == cslice.n_faces
        assert mat.ncols == cslice.n_top
        assert mat.col_weights == cslice.weights
        for j in range(mat.ncols):
            assert mat.col_rows[j] == cslice.faces_of[j]


def test_matrix_products_and_weights():
    mat = Gf2Matrix(3, 2, [(0, 1), (1, 2)], [2, 5])
    assert mat.product_mask([0, 1]) == 0b101
    assert mat.weight_of([0, 1]) == 7
    assert not mat.has_uniform_weights
    assert mat.row_cols == ((0,), (0, 1), (1,))


def test_matrix_validation():
    with pytest.raises(InputError):
        Gf2Matrix(2, 1, [(0, 0)], [1])
    with pytest.raises(InputError):
        Gf2Matrix(2, 1, [(2,)], [1])
    with pytest.raises(InputError):
        Gf2Matrix(2, 2, [(0,)], [1, 1])


@pytest.mark.parametrize("bad", [1.5, 2.7, "3", True, None])
def test_non_int_weights_and_scales_are_refused(bad):
    """A truncated weight would be a false verdict: with weights [1.5, 1.2]
    and target row 0, int() made column 0 the optimum at weight 1."""
    with pytest.raises(InputError, match="integer"):
        Gf2Matrix(1, 2, [(0,), (0,)], [bad, 1])
    with pytest.raises(InputError, match="integer"):
        Gf2Matrix(1, 1, [(0,)], [1], scale=bad)
    with pytest.raises(InputError, match="integer"):
        Gf2Matrix(bad, 1, [()], [1])
    with pytest.raises(InputError, match="integer"):
        Gf2Matrix(1, bad, [(0,)], [1])
    with pytest.raises(InputError, match="integer"):
        build_slice([(0, 1, 2)], [bad])
    with pytest.raises(InputError, match="integer"):
        build_slice([(0, 1, 2)], scale=bad)
    with pytest.raises(InputError, match="integer"):
        build_slice([(0, 1, 2)], [1], scale=bad)


def test_hasse_graph_shape():
    mat = boundary_matrix(octahedron_slice())
    h = hasse_graph(mat)
    assert len(h) == 20
    assert sum(map(len, h)) == 2 * 24
    assert all(u in h[v] for u in range(20) for v in h[u])
    # rows first: vertices 0..11 are the 12 edges, 12..19 the 8 triangles
    assert all(v >= 12 for v in h[11])
    assert h[12] == set(mat.col_rows[0])
    # every column vertex of a triangle has degree 3
    assert all(len(h[12 + j]) == 3 for j in range(8))


def test_hasse_graph_keeps_a_zero_row_and_an_empty_column():
    """Row 1 and column 1 have no entry; each is still a vertex, with no neighbour."""
    mat = Gf2Matrix(3, 3, [(0, 2), (), (0,)], [1, 1, 1])
    assert hasse_graph(mat) == [{3, 5}, set(), {3}, {0, 2}, set(), {0}]


def test_feasibility_check_matches_solvability():
    oc = octahedron_slice()
    mat = boundary_matrix(oc)
    assert feasibility_check(mat.col_masks, mat.target_mask(()))
    # a single edge is never a Z2 boundary of triangles
    assert not feasibility_check(mat.col_masks, mat.target_mask((0,)))
    cs, boundary = punctured_octahedron()
    pm = boundary_matrix(cs)
    assert feasibility_check(pm.col_masks, pm.target_mask(boundary))
