"""Weighted complex slices, boundary matrices, and the row/column incidence graph.

A "slice" is the d and (d-1) levels of a complex: the weighted top
d-simplices, every (d-1)-simplex that occurs as a face (plus any extra
declared ones), and the incidence between the two levels. A simplex is
its strictly increasing tuple of non-negative vertex ids, and a chain is
a frozenset of indices into one of the two tables. Both tables are
sorted lexicographically by vertex tuple; all index-based tie-breaking in
the solvers relies on that order.

Input checks live here once: ``build_slice`` checks every simplex it is
given, ``build_slice`` and ``Gf2Matrix`` refuse any weight, scale or
matrix size that is not an int (a truncated float weight would make a
false optimum), and ``Gf2Matrix.target_mask`` checks target rows. The
incidence graph is a list of neighbour sets with rows first, the graph
form that ``decomposition`` reads.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, combinations
from operator import ge
from typing import Iterable, Sequence

from .errors import InputError, UsageError
from .gf2 import mask_from_indices


def check_simplex(vertices: Iterable[int]) -> tuple[int, ...]:
    """The vertex tuple of a simplex; ids must be non-negative and strictly increasing."""
    vs = tuple(vertices)
    if not vs:
        raise UsageError("a simplex needs at least one vertex")
    if vs[0] < 0:
        raise UsageError(f"negative vertex id in {vs!r}")
    if any(map(ge, vs, vs[1:])):
        raise UsageError(f"vertex ids must be strictly increasing: {vs!r}")
    return vs


def _check_int(value, what: str) -> int:
    """An int weight, scale or matrix size; anything else, bool included,
    is refused, never truncated."""
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _check_ints(values: Sequence, what: str) -> Sequence:
    """``values`` when every one is an int; else the first that is not is
    refused as ``_check_int`` words it."""
    if set(map(type, values)) - {int}:
        for value in values:
            _check_int(value, what)
    return values


def simplex_name(vs: tuple[int, ...]) -> str:
    return "(" + " ".join(str(v) for v in vs) + ")"


class ComplexSlice:
    """Two adjacent levels of a weighted complex plus their incidence tables.

    Attributes:
        dim: dimension d of the top simplices.
        top: sorted tuple of d-simplices.
        weights: fixed-point integer weight per top simplex.
        scale: denominator the decimal weights were multiplied by.
        faces: sorted tuple of (d-1)-simplices.
        faces_of: per top simplex, the sorted tuple of its face indices.

    ``face_index`` is the dict from each face to its index that
    ``build_slice`` built the tables with.
    """

    def __init__(self, dim, top, weights, faces, faces_of, scale, face_index):
        self.dim = dim
        self.top = tuple(top)
        self.weights = tuple(weights)
        self.faces = tuple(faces)
        self.faces_of = tuple(map(tuple, faces_of))
        self.scale = scale
        self._face_index = face_index

    @cached_property
    def _top_index(self) -> dict[tuple[int, ...], int]:
        return dict(zip(self.top, range(len(self.top))))

    @property
    def n_top(self) -> int:
        return len(self.top)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def coface_degree(self) -> int:
        """Largest number of top simplices sharing one face."""
        return max(Counter(i for fs in self.faces_of for i in fs).values(), default=0)

    def _lookup(self, table: dict, dim: int, simplex: tuple[int, ...]) -> int:
        try:
            return table[simplex]
        except KeyError:
            check_simplex(simplex)
            raise InputError(f"unknown {dim}-simplex {simplex_name(simplex)}") from None

    def face_index(self, simplex: tuple[int, ...]) -> int:
        return self._lookup(self._face_index, self.dim - 1, simplex)

    def top_index(self, simplex: tuple[int, ...]) -> int:
        return self._lookup(self._top_index, self.dim, simplex)

    @staticmethod
    def _chain(indices: list[int]) -> frozenset[int]:
        chain = frozenset(indices)
        if len(chain) != len(indices):
            raise UsageError("repeated simplex in a chain (Z2 chains are sets)")
        return chain

    def chain_from_faces(self, simplices: Iterable[tuple[int, ...]]) -> frozenset[int]:
        return self._chain([self.face_index(s) for s in simplices])

    def chain_from_tops(self, simplices: Iterable[tuple[int, ...]]) -> frozenset[int]:
        return self._chain([self.top_index(s) for s in simplices])

    def boundary_of(self, indices: Iterable[int]) -> frozenset[int]:
        """Face indices lying in an odd number of the given top simplices."""
        acc: set[int] = set()
        faces_of = self.faces_of
        n_top = len(faces_of)
        for j in indices:
            if not (0 <= j < n_top):
                raise UsageError(f"top simplex index {j} out of range")
            acc.symmetric_difference_update(faces_of[j])
        return frozenset(acc)


def build_slice(
    top_simplices: Iterable[Iterable[int]],
    weights: Sequence[int] | None = None,
    extra_faces: Iterable[Iterable[int]] = (),
    *,
    dim: int | None = None,
    scale: int = 1,
) -> ComplexSlice:
    """Assemble a slice from top simplices, optional weights and extra faces.

    Every simplex given is checked here, once; the faces derived from the
    tops are sub-tuples of checked tuples. A checked top is sorted, so
    ``itertools.combinations(top, dim)`` yields its faces in lexicographic
    order, which is the order of the face table: each top's face indices
    come out increasing with no sort. Weights are given in the order of
    ``top_simplices`` and are reordered together with them when the table
    is sorted. Extra faces that are a face of nothing are retained on
    purpose: a boundary that mentions them is then representable and
    correctly infeasible.
    """
    tops = [check_simplex(t) for t in top_simplices]
    extras = [check_simplex(f) for f in extra_faces]
    if _check_int(scale, "scale") < 1:
        raise InputError(f"scale must be a positive integer, got {scale}")
    if dim is None:
        if tops:
            dim = len(tops[0]) - 1
        elif extras:
            dim = len(extras[0])
        else:
            raise UsageError("cannot infer dimension of an empty slice; pass dim=")
    if dim < 1:
        raise UsageError(f"slice dimension must be >= 1, got {dim}")
    for t in tops:
        if len(t) != dim + 1:
            raise InputError(
                f"top simplex {simplex_name(t)} has dimension {len(t) - 1}, expected {dim}"
            )
    if weights is None:
        weights = [scale] * len(tops)
    if len(weights) != len(tops):
        raise InputError("one weight per top simplex required")
    if len(set(tops)) != len(tops):
        raise InputError("duplicate top simplex")

    order = sorted(range(len(tops)), key=tops.__getitem__)
    tops = [tops[i] for i in order]
    weights = _check_ints([weights[i] for i in order], "weight")

    for f in extras:
        if len(f) != dim:
            raise InputError(
                f"extra face {simplex_name(f)} has dimension {len(f) - 1}, expected {dim - 1}"
            )
    face_set = set(extras)
    if len(face_set) != len(extras):
        raise InputError("duplicate extra face")
    top_faces = [tuple(combinations(t, dim)) for t in tops]
    face_set.update(chain.from_iterable(top_faces))
    faces = sorted(face_set)
    face_index = dict(zip(faces, range(len(faces))))

    faces_of = [tuple(map(face_index.__getitem__, fs)) for fs in top_faces]
    return ComplexSlice(dim, tops, weights, faces, faces_of, scale, face_index)


class Gf2Matrix:
    """Sparse Z2 matrix stored column-wise, with integer column weights.

    This is the shared substrate of the chain and decoding views: for a
    slice, rows are faces and columns are top simplices.
    """

    def __init__(self, nrows, ncols, col_rows, col_weights, scale=1):
        self.nrows = _check_int(nrows, "row count")
        self.ncols = _check_int(ncols, "column count")
        self.col_rows = tuple(map(tuple, col_rows))
        self.col_weights = _check_ints(tuple(col_weights), "column weight")
        self.scale = _check_int(scale, "scale")
        if self.nrows < 0 or self.ncols < 0:
            raise InputError("matrix dimensions must be non-negative")
        if len(self.col_rows) != self.ncols:
            raise InputError("col_rows length must equal ncols")
        if len(self.col_weights) != self.ncols:
            raise InputError("one weight per column required")
        if self.scale < 1:
            raise InputError(f"scale must be a positive integer, got {self.scale}")
        for c, rs in enumerate(self.col_rows):
            if any(map(ge, rs, rs[1:])):
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


def hasse_graph(matrix: Gf2Matrix) -> list[set[int]]:
    """Bipartite incidence graph of a matrix, as one neighbour set per row
    and column.

    Rows come first (0..nrows-1), then columns (nrows..nrows+ncols-1), so
    column c is vertex nrows + c.
    """
    rows: list[set[int]] = [set() for _ in range(matrix.nrows)]
    for v, rs in enumerate(matrix.col_rows, matrix.nrows):
        for r in rs:
            rows[r].add(v)
    return rows + [set(rs) for rs in matrix.col_rows]

