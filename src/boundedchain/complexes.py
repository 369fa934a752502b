"""Weighted complex slices, boundary matrices, and the row/column incidence graph.

A "slice" is the d and (d-1) levels of a complex: the weighted top
d-simplices, every (d-1)-simplex that occurs as a face (plus any extra
declared ones), and the incidence between the two levels. Both tables are
sorted lexicographically by vertex tuple; all index-based tie-breaking in
the solvers relies on that order.

Input checks live here once: ``ComplexSlice.check_boundary`` for a
boundary chain and ``Gf2Matrix.target_mask`` for target rows. The
incidence graph is a plain ``decomposition.Graph`` with rows first.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .chains import Chain, Simplex, boundary_chain, boundary_simplex
from .decomposition import Graph
from .errors import InputError, UsageError
from .gf2 import Gf2System, indices_from_mask, mask_from_indices


class ComplexSlice:
    """Two adjacent levels of a weighted complex plus their incidence tables.

    Attributes:
        dim: dimension d of the top simplices.
        top: sorted tuple of d-simplices.
        weights: fixed-point integer weight per top simplex.
        scale: denominator the decimal weights were multiplied by.
        faces: sorted tuple of (d-1)-simplices.
        faces_of: per top simplex, the sorted tuple of its face indices.
        cofaces: per face, the sorted tuple of top indices containing it.
    """

    def __init__(self, dim, top, weights, faces, faces_of, cofaces, scale=1):
        self.dim = dim
        self.top = tuple(top)
        self.weights = tuple(weights)
        self.faces = tuple(faces)
        self.faces_of = tuple(tuple(f) for f in faces_of)
        self.cofaces = tuple(tuple(c) for c in cofaces)
        self.scale = scale
        self._face_index = {s: i for i, s in enumerate(self.faces)}
        self._top_index = {s: i for i, s in enumerate(self.top)}

    @property
    def n_top(self) -> int:
        return len(self.top)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def coface_degree(self) -> int:
        """Largest number of top simplices sharing one face."""
        return max((len(c) for c in self.cofaces), default=0)

    def face_index(self, simplex: Simplex) -> int:
        try:
            return self._face_index[simplex]
        except KeyError:
            raise InputError(f"unknown {self.dim - 1}-simplex {simplex}") from None

    def top_index(self, simplex: Simplex) -> int:
        try:
            return self._top_index[simplex]
        except KeyError:
            raise InputError(f"unknown {self.dim}-simplex {simplex}") from None

    def chain_from_faces(self, simplices: Iterable[Simplex]) -> Chain:
        return Chain.from_indices(self.dim - 1, (self.face_index(s) for s in simplices))

    def chain_from_tops(self, simplices: Iterable[Simplex]) -> Chain:
        return Chain.from_indices(self.dim, (self.top_index(s) for s in simplices))

    def check_boundary(self, boundary: Chain) -> None:
        """A boundary is a chain of faces: dimension d-1, indices in the face table."""
        if boundary.dim != self.dim - 1:
            raise UsageError(
                f"boundary dimension {boundary.dim} does not match a {self.dim}-slice"
            )
        if boundary.indices and boundary.indices[-1] >= self.n_faces:
            raise UsageError(f"boundary face index {boundary.indices[-1]} out of range")

    def boundary_of(self, chain: Chain) -> Chain:
        if chain.dim != self.dim:
            raise UsageError(f"expected a {self.dim}-chain, got dimension {chain.dim}")
        return boundary_chain(chain, self.faces_of)


def build_slice(
    top_simplices: Sequence[Simplex],
    weights: Sequence[int] | None = None,
    extra_faces: Sequence[Simplex] = (),
    *,
    dim: int | None = None,
    scale: int = 1,
) -> ComplexSlice:
    """Assemble a slice from top simplices, optional weights and extra faces.

    Weights are given in the order of ``top_simplices`` and are reordered
    together with them when the table is sorted. Extra faces that are a
    face of nothing are retained on purpose: a boundary that mentions them
    is then representable and correctly infeasible.
    """
    tops = list(top_simplices)
    if scale < 1:
        raise InputError(f"scale must be a positive integer, got {scale}")
    if dim is None:
        if tops:
            dim = tops[0].dim
        elif extra_faces:
            dim = extra_faces[0].dim + 1
        else:
            raise UsageError("cannot infer dimension of an empty slice; pass dim=")
    if dim < 1:
        raise UsageError(f"slice dimension must be >= 1, got {dim}")
    for t in tops:
        if t.dim != dim:
            raise InputError(f"top simplex {t} has dimension {t.dim}, expected {dim}")
    if weights is None:
        weights = [scale] * len(tops)
    if len(weights) != len(tops):
        raise InputError("one weight per top simplex required")
    if len(set(tops)) != len(tops):
        raise InputError("duplicate top simplex")

    order = sorted(range(len(tops)), key=lambda i: tops[i])
    tops = [tops[i] for i in order]
    weights = [int(weights[i]) for i in order]

    face_set = set()
    for t in tops:
        face_set.update(boundary_simplex(t))
    for f in extra_faces:
        if f.dim != dim - 1:
            raise InputError(f"extra face {f} has dimension {f.dim}, expected {dim - 1}")
    extras = list(extra_faces)
    if len(set(extras)) != len(extras):
        raise InputError("duplicate extra face")
    face_set.update(extras)
    faces = sorted(face_set)
    face_index = {s: i for i, s in enumerate(faces)}

    faces_of = [tuple(sorted(face_index[f] for f in boundary_simplex(t))) for t in tops]
    cofaces: list[list[int]] = [[] for _ in faces]
    for j, fs in enumerate(faces_of):
        for i in fs:
            cofaces[i].append(j)
    return ComplexSlice(dim, tops, weights, faces, faces_of, cofaces, scale)


class Gf2Matrix:
    """Sparse Z2 matrix stored column-wise, with integer column weights.

    This is the shared substrate of the chain and decoding views: for a
    slice, rows are faces and columns are top simplices.
    """

    def __init__(self, nrows, ncols, col_rows, col_weights, scale=1):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.col_rows = tuple(tuple(rs) for rs in col_rows)
        self.col_weights = tuple(int(w) for w in col_weights)
        self.scale = int(scale)
        if self.nrows < 0 or self.ncols < 0:
            raise InputError("matrix dimensions must be non-negative")
        if len(self.col_rows) != self.ncols:
            raise InputError("col_rows length must equal ncols")
        if len(self.col_weights) != self.ncols:
            raise InputError("one weight per column required")
        if self.scale < 1:
            raise InputError(f"scale must be a positive integer, got {self.scale}")
        for c, rs in enumerate(self.col_rows):
            if any(a >= b for a, b in zip(rs, rs[1:])):
                raise InputError(f"column {c} rows must be strictly increasing")
            if rs and (rs[0] < 0 or rs[-1] >= self.nrows):
                raise InputError(f"column {c} has a row index out of range")

    @cached_property
    def col_masks(self) -> tuple[int, ...]:
        return tuple(mask_from_indices(rs) for rs in self.col_rows)

    @cached_property
    def row_cols(self) -> tuple[tuple[int, ...], ...]:
        by_row: list[list[int]] = [[] for _ in range(self.nrows)]
        for c, rs in enumerate(self.col_rows):
            for r in rs:
                by_row[r].append(c)
        return tuple(tuple(cs) for cs in by_row)

    def entries(self) -> Iterator[tuple[int, int]]:
        for c, rs in enumerate(self.col_rows):
            for r in rs:
                yield (r, c)

    def product_mask(self, cols: Iterable[int]) -> int:
        """Row mask of A x for the 0/1 vector x supported on ``cols``."""
        acc = 0
        masks = self.col_masks
        for c in cols:
            acc ^= masks[c]
        return acc

    def target_mask(self, rows: Iterable[int]) -> int:
        """Row mask of a target given by row indices; every row must exist."""
        mask = 0
        for r in rows:
            if not (0 <= r < self.nrows):
                raise UsageError(f"target row {r} out of range")
            mask |= 1 << r
        return mask

    def weight_of(self, cols: Iterable[int]) -> int:
        return sum(self.col_weights[c] for c in cols)

    @property
    def has_uniform_weights(self) -> bool:
        return len(set(self.col_weights)) <= 1


def boundary_matrix(cslice: ComplexSlice) -> Gf2Matrix:
    """The boundary operator of a slice as a faces-by-tops GF(2) matrix."""
    return Gf2Matrix(
        cslice.n_faces,
        cslice.n_top,
        cslice.faces_of,
        cslice.weights,
        scale=cslice.scale,
    )


def hasse_graph(matrix: Gf2Matrix) -> Graph:
    """Bipartite incidence graph of a matrix: one vertex per row and column.

    Rows come first (0..nrows-1), then columns (nrows..nrows+ncols-1), so
    column c is vertex nrows + c.
    """
    nrows = matrix.nrows
    return Graph(nrows + matrix.ncols, ((r, nrows + c) for r, c in matrix.entries()))


def feasibility_check(
    matrix: Gf2Matrix, target_rows: Iterable[int]
) -> tuple[bool, frozenset[int] | None]:
    """Decide solvability of A x = u and return one witness column set.

    The witness is any solution, with no optimality promise; it is meant
    for feasibility screening and as a starting point for enumeration.
    """
    target = matrix.target_mask(target_rows)
    combo = Gf2System(matrix.col_masks).solve(target)
    if combo is None:
        return (False, None)
    return (True, frozenset(indices_from_mask(combo)))
