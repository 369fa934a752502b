import pytest

from boundedchain import (
    InputError,
    UsageError,
    boundary_matrix,
    build_slice,
    feasibility_check,
    hasse_graph,
)
from boundedchain.complexes import Gf2Matrix
from helpers import octahedron_slice, punctured_octahedron, random_problem


def test_octahedron_tables():
    oc = octahedron_slice()
    assert oc.n_top == 8
    assert oc.n_faces == 12
    assert oc.coface_degree == 2
    assert all(len(c) == 2 for c in oc.cofaces)
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


def test_extra_faces_are_retained_even_if_uncovered():
    cs, boundary = punctured_octahedron()
    assert cs.n_faces == 12
    assert len(boundary) == 3
    # the rim edges exist although one of their cofaces was removed
    for v in ((0, 1), (0, 2), (1, 2)):
        assert len(cs.cofaces[cs.face_index(v)]) == 1


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
    assert sorted(mat.entries()) == [(0, 0), (1, 0), (1, 1), (2, 1)]
    assert mat.row_cols == ((0,), (0, 1), (1,))


def test_matrix_validation():
    with pytest.raises(InputError):
        Gf2Matrix(2, 1, [(0, 0)], [1])
    with pytest.raises(InputError):
        Gf2Matrix(2, 1, [(2,)], [1])
    with pytest.raises(InputError):
        Gf2Matrix(2, 2, [(0,)], [1, 1])


def test_hasse_graph_shape():
    mat = boundary_matrix(octahedron_slice())
    h = hasse_graph(mat)
    assert h.n == 20
    assert len(h.edges()) == 24
    # rows first: vertices 0..11 are the 12 edges, 12..19 the 8 triangles
    assert all(v >= 12 for v in h.adj[11])
    assert h.adj[12] == set(mat.col_rows[0])
    # every column vertex of a triangle has degree 3
    assert all(h.degree(12 + j) == 3 for j in range(8))


def test_feasibility_check_matches_solvability():
    oc = octahedron_slice()
    mat = boundary_matrix(oc)
    ok, witness = feasibility_check(mat, ())
    assert ok and witness == frozenset()
    # a single edge is never a Z2 boundary of triangles
    ok, witness = feasibility_check(mat, (0,))
    assert not ok and witness is None
    cs, boundary = punctured_octahedron()
    ok, witness = feasibility_check(boundary_matrix(cs), boundary)
    assert ok
    acc = 0
    pm = boundary_matrix(cs)
    for j in witness:
        acc ^= pm.col_masks[j]
    want = 0
    for i in boundary:
        want |= 1 << i
    assert acc == want
