"""Exact GF(2) linear algebra on integer-bitmask columns."""

from __future__ import annotations

from typing import Iterable, Sequence


def mask_from_indices(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def indices_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Gf2System:
    """Column-space elimination of a GF(2) matrix given as column bitmasks.

    Columns are processed in index order. A column reduces by the pivot on
    its lowest set row, found by one dict lookup, until that row holds no
    pivot; a column left nonzero becomes the pivot on that row. Each pivot's
    lowest set row is its own, so each reduction raises the lowest set row.
    The pivot columns are the greedy basis in index order, whichever row
    each pivot sits on, so results are deterministic. Dependent columns
    yield kernel vectors, expressed as masks over the original column
    indices; each kernel vector's highest set column is unique to it
    (reduced form).
    """

    def __init__(self, columns: Sequence[int]):
        # lowest set row -> (reduced pivot column, its mask over the columns)
        pivots: dict[int, tuple[int, int]] = {}
        kernel: list[int] = []
        for j, col in enumerate(columns):
            cur = col
            combo = 1 << j
            while cur:
                row = (cur & -cur).bit_length() - 1
                pivot = pivots.get(row)
                if pivot is None:
                    pivots[row] = cur, combo
                    break
                cur ^= pivot[0]
                combo ^= pivot[1]
            else:
                kernel.append(combo)
        self._pivots = pivots
        self.kernel = tuple(kernel)
        self.rank = len(pivots)

    def solve(self, target: int) -> int | None:
        """One solution x (as a column mask) of A x = target, or None.

        Any other solution differs from the returned one by a sum of
        kernel vectors.
        """
        pivots = self._pivots
        cur = target
        combo = 0
        while cur:
            pivot = pivots.get((cur & -cur).bit_length() - 1)
            if pivot is None:
                return None
            cur ^= pivot[0]
            combo ^= pivot[1]
        return combo
