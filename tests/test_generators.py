import pytest

from boundedchain import InputError, UsageError, boundary_matrix
from boundedchain.dijkstra import feasibility_check
from boundedchain.generators import (
    cylinder,
    octahedron,
    random_boundary,
    random_slice,
    sphere_subdivision,
    triangle_strip,
)


def test_strip_counts():
    cs, boundary = triangle_strip(1)
    assert cs.n_top == 1
    assert cs.top == ((0, 1, 2),)
    assert sorted(cs.faces[i] for i in sorted(boundary)) == [
        (0, 1), (0, 2), (1, 2),
    ]
    cs4, b4 = triangle_strip(4)
    assert cs4.n_top == 4
    assert cs4.n_faces == 9
    assert len(b4) == 6
    with pytest.raises(UsageError):
        triangle_strip(0)


def test_strip_boundary_is_a_boundary():
    cs, boundary = triangle_strip(5)
    mat = boundary_matrix(cs)
    assert feasibility_check(mat.col_masks, mat.target_mask(boundary))


def test_cylinder_counts_and_rim():
    cs, boundary = cylinder(3, 1)
    assert cs.n_top == 6
    assert cs.n_faces == 12
    rim = sorted(cs.faces[i] for i in sorted(boundary))
    assert rim == [
        (0, 1), (0, 2), (1, 2),
        (3, 4), (3, 5), (4, 5),
    ]
    big, bigb = cylinder(4, 3)
    assert big.n_top == 24
    assert len(bigb) == 8
    with pytest.raises(UsageError):
        cylinder(2, 1)
    with pytest.raises(UsageError):
        cylinder(3, 0)


def test_octahedron_is_closed():
    oc = octahedron()
    assert oc.n_top == 8 and oc.n_faces == 12
    assert all(len(c) == 2 for c in boundary_matrix(oc).row_cols)


def test_sphere_subdivision_counts():
    assert sphere_subdivision(0).n_top == 8
    sp = sphere_subdivision(1)
    assert sp.n_top == 32
    assert sp.n_faces == 48
    assert all(len(c) == 2 for c in boundary_matrix(sp).row_cols)
    with pytest.raises(UsageError):
        sphere_subdivision(-1)


def test_random_slice_is_deterministic():
    a = random_slice(8, 8, seed=5, weights="random")
    b = random_slice(8, 8, seed=5, weights="random")
    assert a.top == b.top and a.weights == b.weights
    c = random_slice(8, 8, seed=6, weights="random")
    assert a.top != c.top or a.weights != c.weights


def test_random_slice_validation():
    with pytest.raises(InputError):
        random_slice(12, 5)
    with pytest.raises(UsageError):
        random_slice(1, 5, dim=0)
    with pytest.raises(UsageError):
        random_slice(1, 2)
    with pytest.raises(UsageError):
        random_slice(1, 5, weights="heavy")
    for n_top in (-1, -2):
        with pytest.raises(UsageError, match="top simplices"):
            random_slice(n_top, 6)


def test_random_slice_refuses_a_weight_max_below_one():
    """random.randint(1, 0) would end in a ValueError traceback."""
    for weight_max in (0, -3):
        with pytest.raises(UsageError, match="weight_max"):
            random_slice(1, 5, weights="random", weight_max=weight_max)


def test_random_slice_with_no_top_simplices():
    """Zero top simplices give an empty slice of the asked dimension, with
    an empty boundary."""
    for dim in (1, 2, 3):
        cs = random_slice(0, 6, dim=dim)
        assert (cs.dim, cs.n_top, cs.n_faces) == (dim, 0, 0)
        assert random_boundary(cs) == frozenset()


def test_random_boundaries_are_feasible():
    for seed in range(40):
        cs = random_slice(seed % 9 + 1, 8, seed=seed)
        boundary = random_boundary(cs, seed=seed)
        mat = boundary_matrix(cs)
        assert feasibility_check(mat.col_masks, mat.target_mask(boundary)), seed


def test_random_boundary_nonempty_flag():
    cs = random_slice(5, 7, seed=1)
    b = random_boundary(cs, seed=1, require_nonempty=True)
    assert b


def test_random_graph_slice():
    g = random_slice(6, 6, dim=1, seed=2, weights="random")
    assert g.dim == 1
    assert g.n_top == 6
    assert all(w >= 1 for w in g.weights)
