"""The exact GF(2) kernel that the treewidth DP and the unbounded search solve.

Exact passes shrink an instance A x = u before either engine runs, all
in the incidence graph's vertex ids, rows first, then columns.
``_propagate`` runs unit propagation over GF(2), on arrays: a row with
one live column c fixes x_c = u_r, a selected column flips the target
bits of its rows, and the column leaves; a row left with no column
leaves too, unless its target bit is set, which proves the target
infeasible. It lists the vertices left live. ``_coset`` then solves the
live system outright where it has few solutions: eliminated over GF(2),
its solutions are one solution x0 plus the null space, 2^d of them, and
where 2^d is at most the instance's column count, it walks them all and
keeps the least packed charge (below), which leaves an empty kernel; a
live system with no solution leaves one infeasible row. Where there are
more solutions, ``_series`` substitutes away every row of degree 2 or
less: a row r over columns a and b says x_b = x_a ⊕ u_r, so b merges into
a, whose rows become rows(a) Δ rows(b) minus r, and the target flips on
rows(b) minus r where u_r is set. Degree 1 and 0 are handled as in
propagation, and a column with no row, live from the start or left so by
a merge, is fixed at its cheaper side. This is the problem-level analogue
of the series rule among the safe reduction rules for treewidth
(Bodlaender and Koster).

Each column carries two packed charges, ``on`` and ``off``: the sum of
``(w_c << n) + (1 << i)`` over the live columns c that it selects when set
and when clear, n being the number of live columns and i c's rank among
them. A series merge adds b's charges to a's, crosswise where u_r is set.
What is left, the kernel, is the only part renumbered: its rows, then its
columns, each in increasing id order. It weighs each column at ``on -
off``, and the fixed charges and every ``off`` make up a constant
``base``, so the kernel weight of a kernel solution plus ``base`` is the
packed charge of one solution on the live columns. Each step is exact.
Every solution on the live columns has packed charge ``(W << n) | x``, W
its weight and x its ranks, so the least one the coset rule lists is the
canonical solution, and its charge is the empty kernel's ``base``. A
substitution maps solutions one to one, and a column left with no row is
free, so its cheaper side is the canonical choice. Ranks keep the column
order, so the witness, the ranked columns with propagation's fixed
selected columns added, is still the canonical one, whichever exact
engine finds the kernel's optimum. A column's ``on`` and ``off`` never
tie, since they select different columns, so no kernel weight is 0.

Complementing a kernel column c, x_c ↦ 1 ⊕ x_c, swaps its ``on`` and
``off`` and flips the kernel target on its rows: solutions map one to one
at the same packed charge. ``_series`` complements every column whose
``on`` is below its ``off``, so every kernel weight is positive, as the
search needs. The treewidth DP takes any weight and does the same work
either way: at each node, complementing c flips one fixed set of key bits
(c's own, or its rows' parity bits once c is forgotten), so every table
keeps its size.

An engine sees only two calls. ``reduce`` runs the passes and returns a
``Kernel``: the kernel matrix and target to solve, ``image`` for
contracting a decomposition, and what the decode needs. ``backtrack``
turns the kernel optimum back into (weight, witness) on the whole matrix
and checks the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .complexes import Gf2Matrix
from .errors import ConsistencyError
from .gf2 import Gf2System, indices_from_mask, mask_from_indices

_BITS = bytes.maketrans(b"01", b"\0\1")


@dataclass(frozen=True, slots=True)
class Kernel:
    """What ``reduce`` leaves of A x = u: the kernel ``matrix`` and
    ``target`` mask to solve, and ``image``, the kernel vertex each
    incidence-graph vertex contracts to, if any; an empty kernel, which
    the coset rule leaves, has an empty ``image``. ``base``, the live
    columns by rank (``cols``) and propagation's fixed selected columns
    (``fixed``) are for ``backtrack`` alone."""

    matrix: Gf2Matrix
    target: int
    image: dict[int, int]
    base: int
    cols: list[int]
    fixed: list[int]


def _propagate(
    matrix: Gf2Matrix, target: int
) -> tuple[bytearray, list[int], list[int], list[int]]:
    """Unit propagation over GF(2): fix every column that some row forces.

    A row with one live column c fixes it: x_c = u_r. A selected column
    flips the target bit of each of its rows, and the column leaves. A row
    with no live column leaves too, once its target bit is clear; with the
    bit set it has no solution, and it stays live for ``_coset`` to
    report. This repeats until every row left has no column or two or more.

    Returns (each row's target bit, the live rows, the live columns, the
    fixed selected columns), the rows and columns each in increasing order.
    A live column's rows are all live, since a row leaves only after all
    its columns, and a live row with no live column has its bit set.
    """
    nrows = matrix.nrows
    col_rows = matrix.col_rows
    # one byte per row, unpacked at C level: bin() lists the bits high first
    u = bytearray(bin(target)[:1:-1].encode().translate(_BITS)[:nrows].ljust(nrows, b"\0"))
    # per row, the number and the xor of its live columns: at degree 1 the
    # xor is the one column left
    deg = [0] * nrows
    xor = [0] * nrows
    for c, rs in enumerate(col_rows):
        for r in rs:
            deg[r] += 1
            xor[r] ^= c
    live = bytearray(b"\x01") * (nrows + matrix.ncols)
    # a row is queued once, when its degree first is 1 or less
    queue = [r for r in range(nrows) if deg[r] <= 1]
    fixed = []
    while queue:
        r = queue.pop()
        if not deg[r]:
            live[r] = u[r]  # with its bit set, no solution: the row stays
            continue
        live[r] = 0
        c = xor[r]
        live[nrows + c] = 0
        selected = u[r]
        if selected:
            fixed.append(c)
        for s in col_rows[c]:
            u[s] ^= selected
            xor[s] ^= c
            deg[s] -= 1
            if deg[s] == 1:
                queue.append(s)
    rows = list(compress(range(nrows), live))
    cols = list(compress(range(matrix.ncols), live[nrows:]))
    return u, rows, cols, fixed


def _series(
    matrix: Gf2Matrix, u: bytearray, rows: list[int], cols: list[int], fixed: list[int]
) -> Kernel:
    """Series reduction over GF(2) of the live rows and columns of
    ``matrix``, with target bits ``u``: substitute away every row of degree
    2 or less.

    A row r with no column leaves, once u_r is clear; with one column c it
    fixes x_c = u_r. With two columns a and b, a having more rows or, on a
    tie, the lower id, it says x_b = x_a ⊕ u_r, so b merges into a: rows(a)
    becomes rows(a) Δ rows(b) minus r, and where u_r is set the target
    flips on rows(b) minus r. Rows only lose columns, and one whose degree
    falls to 2 or less is queued.

    Each column carries two charges, ``on`` and ``off`` (see the module
    docstring). A series merge adds b's charges to a's, crosswise where u_r
    is set. A fixed column leaves with its charge in ``base``, and so does a
    column with no row, live from the start or left so by a merge, at its
    cheaper side. A kernel column whose ``on`` is below its ``off`` is
    complemented: the two swap, and the target flips on its rows.

    Returns the ``Kernel``, with the live columns by rank and ``fixed``
    for the decode. The kernel weighs each column at ``on - off``, which
    is positive, and ``base`` also holds every kernel column's ``off``.
    ``image`` maps each vertex that contracts into the kernel to its kernel
    vertex: a series-merged column and its series row map to the column
    they merged into, and a vertex that leaves, a fixed column with its
    series rows and merged columns, has no image. A row left with no column
    and its target bit set has no solution: the kernel is then that row
    alone, with its bit set and no column, which either engine finds
    infeasible.
    """
    nrows, weights = matrix.nrows, matrix.col_weights
    n = len(cols)
    row_cols: dict[int, set[int]] = {r: set() for r in rows}
    col_rows: dict[int, set[int]] = {}
    on: dict[int, int] = {}
    base = 0
    for i, c in enumerate(cols):
        rs = matrix.col_rows[c]
        charge = (weights[c] << n) + (1 << i)
        if not rs:  # a column with no row is free: fix it at its cheaper side
            base += min(charge, 0)
            continue
        col_rows[c] = set(rs)
        for r in rs:
            row_cols[r].add(c)
        on[c] = charge
    off = dict.fromkeys(col_rows, 0)
    u = bytearray(u)
    into: dict[int, int] = {}  # a series row or merged column: the column it merged into
    queue = [r for r, cs in row_cols.items() if len(cs) <= 2]
    while queue:
        r = queue.pop()
        cs = row_cols.pop(r, None)
        if cs is None:
            continue
        if len(cs) == 2:
            a, b = cs
            # a survives: the column with more rows, or the lower id on a tie
            if (len(col_rows[a]), b) < (len(col_rows[b]), a):
                a, b = b, a
            into[r] = into[nrows + b] = nrows + a
            flip = u[r]
            if flip:
                on[a], off[a] = on[a] + off[b], off[a] + on[b]
            else:
                on[a] += on[b]
                off[a] += off[b]
            rows_a = col_rows[a]
            rows_a.remove(r)
            for s in col_rows.pop(b):
                if s == r:
                    continue
                rc = row_cols[s]
                rc.remove(b)
                u[s] ^= flip
                if s in rows_a:
                    rows_a.remove(s)
                    rc.remove(a)
                    if len(rc) <= 2:
                        queue.append(s)
                else:
                    rows_a.add(s)
                    rc.add(a)
            if not rows_a:  # a merge left a with no row: fix it at its cheaper side
                base += min(on[a], off[a])
                del col_rows[a]
        elif cs:
            (c,) = cs
            flip = u[r]
            base += on[c] if flip else off[c]
            for s in col_rows.pop(c):
                if s != r:
                    rc = row_cols[s]
                    rc.remove(c)
                    u[s] ^= flip
                    if len(rc) <= 2:
                        queue.append(s)
        elif u[r]:  # no solution: the kernel is this row alone
            return _infeasible(r, cols, fixed)
    image = {r: i for i, r in enumerate(row_cols)}
    image.update((nrows + c, i) for i, c in enumerate(col_rows, len(row_cols)))
    for v, w in reversed(into.items()):  # w merged on later or not at all: its image is final
        if w in image:
            image[v] = image[w]
    for c, rs in col_rows.items():  # complement x_c where on - off < 0
        if on[c] < off[c]:
            on[c], off[c] = off[c], on[c]
            for s in rs:
                u[s] ^= 1
    kernel = Gf2Matrix(
        len(row_cols),
        len(col_rows),
        [sorted([image[s] for s in rs]) for rs in col_rows.values()],
        [on[c] - off[c] for c in col_rows],
    )
    base += sum([off[c] for c in col_rows])
    target = mask_from_indices(i for i, r in enumerate(row_cols) if u[r])
    return Kernel(kernel, target, image, base, cols, fixed)


def _infeasible(r: int, cols: list[int], fixed: list[int]) -> Kernel:
    """The kernel of a system with no solution: live row r alone, with its
    target bit set and no column, which either engine finds infeasible."""
    return Kernel(Gf2Matrix(1, 0, [], []), 1, {r: 0}, 0, cols, fixed)


def _coset(
    matrix: Gf2Matrix, u: bytearray, rows: list[int], cols: list[int], fixed: list[int]
) -> Kernel | None:
    """The live system solved outright where it has few solutions, or None.

    The solutions of the live rows are one solution x0 plus the null space
    that ``Gf2System`` spans, of dimension d: 2^d of them. Where 2^d is at
    most ``matrix.ncols``, at most one solution per column of the instance,
    they are walked in Gray-code order with a running weight W, and the
    least packed charge ``(W << n) | x``, x over the ranks of the n live
    columns, is the canonical solution: the kernel is then empty, and its
    ``base`` is that charge. The gate adds no constant: the instance's own
    column count bounds the walk, as it bounds a pass of ``_series``. Where
    the system has no solution, the kernel is one live row with its bit
    set. Otherwise None, and ``_series`` reduces the system. d is at least
    n less the number of live rows, so where that alone makes 2^d exceed
    ``matrix.ncols``, nothing is eliminated; with no live column, nothing
    is either.
    """
    n = len(cols)
    if not n:  # every live row is empty, with its bit set
        if rows:
            return _infeasible(rows[-1], cols, fixed)
        return Kernel(Gf2Matrix(0, 0, [], []), 0, {}, 0, cols, fixed)
    bound = matrix.ncols.bit_length()  # 2^d > ncols exactly where d >= bound
    if n - len(rows) >= bound:
        return None
    system = Gf2System([mask_from_indices(matrix.col_rows[c]) for c in cols])
    x = system.solve(mask_from_indices([r for r in rows if u[r]]))
    if x is None:  # the target is not 0, so a live row has its bit set
        return _infeasible(next(r for r in reversed(rows) if u[r]), cols, fixed)
    basis = system.kernel
    if len(basis) >= bound:
        return None
    weights = [matrix.col_weights[c] for c in cols]
    supports = [indices_from_mask(v) for v in basis]
    w = sum([weights[i] for i in indices_from_mask(x)])
    best = (w << n) | x
    for j in range(1, 1 << len(basis)):
        b = (j & -j).bit_length() - 1
        for i in supports[b]:
            w += -weights[i] if x >> i & 1 else weights[i]
        x ^= basis[b]
        packed = (w << n) | x
        if packed < best:
            best = packed
    return Kernel(Gf2Matrix(0, 0, [], []), 0, {}, best, cols, fixed)


def reduce(matrix: Gf2Matrix, target: int) -> Kernel:
    """The kernel of A x = ``target``: ``_propagate``, then ``_coset``,
    and where that declines, ``_series``, the two on the same live rows
    and columns. Where the live system has at most one solution per column
    of ``matrix``, or none, the kernel is empty, or one infeasible row."""
    live = _propagate(matrix, target)
    return _coset(matrix, *live) or _series(matrix, *live)


def backtrack(matrix: Gf2Matrix, kern: Kernel, value: int) -> tuple[int, frozenset[int]]:
    """Decode ``value``, the kernel weight of a kernel solution, into the
    (weight, witness) of the solution of ``matrix`` it stands for.

    ``value + base`` is a packed charge over the live columns: its high
    part is their weight and its low ``len(cols)`` bits their ranks. The
    fixed columns add their weight and join the witness. Raises
    ``ConsistencyError`` where the decoded weight is not the witness's:
    the fixed columns are no live column, so it compares the live parts.
    """
    cols = kern.cols
    n = len(cols)
    value += kern.base
    chosen = [cols[i] for i in indices_from_mask(value & ((1 << n) - 1))]
    weight = matrix.weight_of(chosen)
    fixed_weight = matrix.weight_of(kern.fixed)
    if weight != value >> n:
        raise ConsistencyError(
            f"kernel optimum {(value >> n) + fixed_weight} disagrees with witness weight "
            f"{weight + fixed_weight}"
        )
    return weight + fixed_weight, frozenset(chosen + kern.fixed)
