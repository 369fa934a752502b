"""The chain view as plain data: simplices are vertex tuples, chains frozensets of indices."""

import random

import pytest

from boundedchain import InputError, UsageError, build_slice
from helpers import octahedron_slice, random_problem


def test_simplex_requires_increasing_vertices():
    build_slice([(0, 3, 7)])
    with pytest.raises(UsageError):
        build_slice([(3, 0, 7)])
    with pytest.raises(UsageError):
        build_slice([(0, 0, 1)])
    with pytest.raises(UsageError):
        build_slice([(-1, 2)])
    with pytest.raises(UsageError):
        build_slice([()])
    # extra faces are checked the same way
    with pytest.raises(UsageError):
        build_slice([(0, 1, 2)], extra_faces=[(4, 3)])
    # a lookup of an unchecked tuple classifies it like build_slice does
    oc = octahedron_slice()
    with pytest.raises(UsageError):
        oc.face_index((1, 0))
    with pytest.raises(UsageError):
        oc.chain_from_tops([(-1, 0, 1)])


def test_simplex_dim_and_order():
    assert build_slice([(4, 5)]).dim == 1
    assert build_slice([(1, 2, 3)]).dim == 2
    assert build_slice([(1, 2), (0, 3), (0, 2)]).top == ((0, 2), (0, 3), (1, 2))
    with pytest.raises(InputError, match=r"unknown 2-simplex \(1 2 3\)"):
        octahedron_slice().top_index((1, 2, 3))


def test_boundary_simplex_drops_one_vertex_at_a_time():
    cs = build_slice([(1, 2, 3)])
    assert cs.faces == ((1, 2), (1, 3), (2, 3))
    assert cs.faces_of == ((0, 1, 2),)
    cs = build_slice([(0, 4)])
    assert cs.faces == ((0,), (4,))
    with pytest.raises(UsageError):
        build_slice([(5,)])


def test_chain_from_indices_sorts_and_rejects_duplicates():
    oc = octahedron_slice()
    c = oc.chain_from_tops([(1, 2, 5), (0, 1, 4), (0, 2, 3)])
    assert c == frozenset({1, 2, 4})
    assert 2 in c and 3 not in c
    assert len(c) == 3
    with pytest.raises(UsageError):
        oc.chain_from_tops([(0, 1, 4), (0, 1, 4)])
    with pytest.raises(UsageError):
        oc.chain_from_faces([(0, 1), (0, 1)])


def test_boundary_of_boundary_is_empty():
    """del o del = 0 over Z2 on random slices, for d = 2 and d = 3."""
    for dim in (2, 3):
        for seed in range(25):
            cslice, _ = random_problem(seed, dim=dim, max_vertices=8)
            for j in range(cslice.n_top):
                bnd = cslice.boundary_of({j})
                acc = set()
                for i in bnd:
                    f = cslice.faces[i]
                    acc ^= {f[:k] + f[k + 1:] for k in range(len(f))}
                assert acc == set()


def test_boundary_is_linear():
    for seed in range(30):
        cslice, _ = random_problem(seed)
        rng = random.Random(seed)
        idx = range(cslice.n_top)
        a = frozenset(rng.sample(idx, rng.randint(0, cslice.n_top)))
        b = frozenset(rng.sample(idx, rng.randint(0, cslice.n_top)))
        lhs = cslice.boundary_of(a ^ b)
        rhs = cslice.boundary_of(a) ^ cslice.boundary_of(b)
        assert lhs == rhs


def test_boundary_chain_of_empty():
    cslice, _ = random_problem(0)
    assert cslice.boundary_of(()) == frozenset()
    for bad in (-1, cslice.n_top):
        with pytest.raises(UsageError):
            cslice.boundary_of([bad])
