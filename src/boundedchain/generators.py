"""Instance generators: surfaces with known structure and seeded random slices.

Every generated boundary is the boundary of an actual chain, so instances
are feasible by construction. Random generation is fully determined by
the seed; writers record it in a header comment, never a timestamp, so
regenerated files are byte-identical.
"""

from __future__ import annotations

import math
import random

from .complexes import ComplexSlice, build_slice
from .errors import InputError, UsageError


def _full_boundary(cslice: ComplexSlice) -> frozenset[int]:
    return cslice.boundary_of(range(cslice.n_top))


def triangle_strip(length: int) -> tuple[ComplexSlice, frozenset[int]]:
    """A strip of ``length`` triangles; boundary = the strip's perimeter."""
    if length < 1:
        raise UsageError("strip length must be >= 1")
    tops = [(i, i + 1, i + 2) for i in range(length)]
    cslice = build_slice(tops)
    return cslice, _full_boundary(cslice)


def cylinder(around: int, along: int) -> tuple[ComplexSlice, frozenset[int]]:
    """A triangulated open cylinder with 2*around*along triangles.

    Vertices sit on along+1 rings of ``around`` vertices. The boundary is
    the boundary of the full face set: both end circles.
    """
    if around < 3:
        raise UsageError("cylinder needs at least 3 vertices around")
    if along < 1:
        raise UsageError("cylinder needs at least 1 ring along")

    def v(j: int, i: int) -> int:
        return j * around + i % around

    tops = []
    for j in range(along):
        for i in range(around):
            tops.append(tuple(sorted((v(j, i), v(j, i + 1), v(j + 1, i)))))
            tops.append(tuple(sorted((v(j, i + 1), v(j + 1, i), v(j + 1, i + 1)))))
    cslice = build_slice(tops)
    return cslice, _full_boundary(cslice)


def octahedron() -> ComplexSlice:
    """The closed octahedron surface: 6 vertices, 12 edges, 8 triangles."""
    return build_slice(
        [(0, 1, 2), (0, 1, 4), (0, 2, 3), (0, 3, 4), (1, 2, 5), (1, 4, 5), (2, 3, 5), (3, 4, 5)]
    )


def sphere_subdivision(levels: int) -> ComplexSlice:
    """Octahedron sphere, each level splitting every triangle into four."""
    if levels < 0:
        raise UsageError("subdivision level must be >= 0")
    faces = list(octahedron().top)
    next_vertex = 6
    for _ in range(levels):
        midpoint: dict[tuple[int, int], int] = {}

        def mid(a: int, b: int) -> int:
            nonlocal next_vertex
            key = (min(a, b), max(a, b))
            if key not in midpoint:
                midpoint[key] = next_vertex
                next_vertex += 1
            return midpoint[key]

        new_faces = []
        for x, y, z in faces:
            mxy, mxz, myz = mid(x, y), mid(x, z), mid(y, z)
            new_faces.append(tuple(sorted((x, mxy, mxz))))
            new_faces.append(tuple(sorted((y, mxy, myz))))
            new_faces.append(tuple(sorted((z, mxz, myz))))
            new_faces.append(tuple(sorted((mxy, mxz, myz))))
        faces = new_faces
    return build_slice(faces)


def random_slice(
    n_top: int,
    n_vertices: int,
    dim: int = 2,
    seed: int = 0,
    weights: str = "unit",
    weight_max: int = 9,
) -> ComplexSlice:
    """``n_top`` distinct random d-simplices on ``n_vertices`` vertices."""
    if dim < 1:
        raise UsageError("dimension must be >= 1")
    if n_vertices < dim + 1:
        raise UsageError("not enough vertices for one simplex")
    if n_top > math.comb(n_vertices, dim + 1):
        raise InputError(
            f"cannot place {n_top} distinct {dim}-simplices on {n_vertices} vertices"
        )
    if weights not in ("unit", "random"):
        raise UsageError("weights must be 'unit' or 'random'")
    rng = random.Random(seed)
    chosen: set[tuple[int, ...]] = set()
    while len(chosen) < n_top:
        chosen.add(tuple(sorted(rng.sample(range(n_vertices), dim + 1))))
    tops = sorted(chosen)
    if weights == "unit":
        wts = None
    else:
        wts = [rng.randint(1, weight_max) for _ in tops]
    return build_slice(tops, wts)


def random_boundary(
    cslice: ComplexSlice, seed: int = 0, require_nonempty: bool = False
) -> frozenset[int]:
    """Boundary of a random chain of the slice, hence always feasible."""
    rng = random.Random(seed)
    for _attempt in range(1000):
        picked = [j for j in range(cslice.n_top) if rng.getrandbits(1)]
        boundary = cslice.boundary_of(picked)
        if boundary or not require_nonempty:
            return boundary
    raise InputError("could not draw a nonempty boundary; the slice may be too small")


def random_graph_slice(
    n_edges: int, n_vertices: int, seed: int = 0, weights: str = "unit", weight_max: int = 9
) -> ComplexSlice:
    """Random 1-dimensional slice (a graph); convenience wrapper."""
    return random_slice(n_edges, n_vertices, dim=1, seed=seed, weights=weights, weight_max=weight_max)
