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
where 2^d is at most n, the number of live columns, it walks them all
and keeps the least packed charge (below), which leaves an empty kernel;
a live system with no solution leaves one infeasible row. Where there
are more solutions, ``_series`` applies three rules to the live vertices
until none applies, and a fourth, once, to what is left. The series rule
substitutes away every row of degree 2 or less: a row r over columns a
and b says x_b = x_a ⊕ u_r, so b merges into a, whose rows become
rows(a) Δ rows(b) minus r, and the target flips on rows(b) minus r where
u_r is set. Degree 1 and 0 are handled as in propagation, and a column a
merge leaves with no row is fixed at its cheaper side. The parallel rule
merges every two columns a and b with the same rows, found by a row-set
index: only x_a ⊕ x_b matters, so b leaves, and each of their rows loses
a column and may take the series rule next. The dominance rule is the
GF(2) triangle inequality: where rows(c) = rows(a) Δ rows(b) and c's two
sides differ by more in packed charge than a's and b's together,
|on_c - off_c| > |on_a - off_a| + |on_b - off_b|, c is fixed at its
cheaper side and leaves, and each of its rows loses a column and may
take the series rule next. In a graph (dimension 1) it is the fact that
an edge longer than a two-edge detour lies on no shortest path. It is
tried only when the other two rules are done, and only on the columns a
merge has made or changed since it last ran: each against every column
sharing a row with it, the third column found by the row-set index. Pure
columns of a dim-2 or dim-3 slice form no triangle (in dim 2
|rows(a) Δ rows(b)| is even, in dim 3 two tetrahedra share at most one
triangle), so an instance whose kernel ends empty pays it only a set pop
per merge. It need not find every dominated column; each it finds is
exact. The twin-row rule, the parallel rule's row dual, then drops every
row over the same columns as an earlier row: the two are one equation,
so with equal target bits the later row says nothing new, and with
different ones the target is infeasible. It cannot cascade: every column
holds both twins or neither, so dropping one changes no row's degree and
makes no two columns equal or a triangle, and one pass over the rows the
other rules leave is enough. These are the problem-level analogue of the
safe reduction rules for treewidth (Bodlaender and Koster).

Each column carries two packed charges, ``on`` and ``off``: the sum of
``(w_c << n) + (1 << i)`` over the live columns c that it selects when set
and when clear, n being the number of live columns and i c's rank among
them. A series merge adds b's charges to a's, crosswise where u_r is set;
a parallel merge keeps, for each parity of x_a ⊕ x_b, the smaller of its
two sums. What is left, the kernel, is the only part renumbered: its rows,
then its columns, each in increasing id order. It weighs each column at
``on - off``, and the fixed charges and every ``off`` make up a constant
``base``, so the kernel weight of a kernel solution plus ``base`` is the
packed charge of one solution on the live columns. Each step is exact.
Every solution on the live columns has packed charge ``(W << n) | x``, W
its weight and x its ranks, so the least one the coset rule lists is the
canonical solution, and its charge is the empty kernel's ``base``. A
substitution maps solutions one to one, a dropped twin row changes no
solution, a parallel merge keeps the least solution of each parity, which
the packed order makes the canonical one, and a column left with no row
is free, so its cheaper side is the canonical choice. So is a dominated
column's: flipping x_a, x_b and x_c together maps a solution to a
solution, since col_c = col_a ⊕ col_b on the live rows, and moves a
solution on c's dearer side by at most -|on_c - off_c| + |on_a - off_a| +
|on_b - off_b| < 0, so the canonical solution is not there. Ranks keep the
column order, so the witness, the ranked columns with propagation's fixed
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
    """Series-parallel reduction over GF(2) of the live rows and columns of
    ``matrix``, with target bits ``u``: substitute away every row of degree
    2 or less, merge every two columns with the same rows, drop every column
    that two cheaper columns reproduce, then drop every row with the same
    columns as an earlier one.

    Series rule. A row r with no column leaves, once u_r is clear; with one
    column c it fixes x_c = u_r. With two columns a and b, a having more
    rows or, on a tie, the lower id, it says x_b = x_a ⊕ u_r, so b merges
    into a: rows(a) becomes rows(a) Δ rows(b) minus r, and where u_r is set
    the target flips on rows(b) minus r. Rows only lose columns, and one
    whose degree falls to 2 or less is queued.

    Parallel rule. Two columns a and b with the same rows enter every row
    together, so only x_a ⊕ x_b matters: b leaves, and a stands for the
    pair. A row set index, refreshed for each column a series merge
    changes, finds such twins. Each of their rows loses b and is queued
    once its degree falls to 2 or less.

    Dominance rule. Three live columns with rows(c) = rows(a) Δ rows(b)
    form a triangle: flipping x_a, x_b and x_c together maps solutions to
    solutions. Where |on_c - off_c| > |on_a - off_a| + |on_b - off_b|, that
    flip lowers the packed charge of every solution on c's dearer side, so
    the canonical one takes c's cheaper side: c is fixed there, with the
    target flipped on its rows where that side is ``on``, and leaves, and
    each of its rows loses c and is queued once its degree falls to 2 or
    less. The rule is tried only once the queue is empty, and only on the
    columns a series or parallel merge has made or changed since (pure
    columns of a dim-2 or dim-3 slice form no triangle): each against every
    column y that shares a row with it, the third column being the one the
    row set index files under rows(x) Δ rows(y). One column leaves at a
    time, so each deletion rests on two live columns, and the other rules
    run again before the next. Its row set leaves the index with it: its
    rows stay live, so a later column over them would otherwise merge into
    a column that is gone.

    Twin-row rule. Once no other rule applies, two rows over the same
    columns are one equation: where their target bits are equal, the later
    row leaves, and where they differ, the target is infeasible. One pass
    over the rows left, in id order, is enough: every column holds both
    twins or neither, so a dropped twin changes no row's degree and makes
    no two columns equal or a triangle, and the complementing below flips
    the kept twin as it would have flipped both.

    Each column carries two charges, ``on`` and ``off`` (see the module
    docstring). A series merge adds b's charges to a's, crosswise where u_r
    is set. A parallel merge takes, for each parity of the pair, the
    cheaper of its two ways: ``off`` becomes min(off_a + off_b, on_a + on_b)
    and ``on`` min(on_a + off_b, off_a + on_b). A charge is a packed
    (weight, mask) value, so the min is the canonical choice for that
    parity. A fixed column, a dominated one and one left with no row at its
    cheaper side leave with their charge in ``base``. A kernel column whose
    ``on`` is below its ``off`` is complemented: the two swap, and the
    target flips on its rows.

    Returns the ``Kernel``, with the live columns by rank and ``fixed``
    for the decode. The kernel weighs each column at ``on - off``, which
    is positive, and ``base`` also holds every kernel column's ``off``.
    ``image`` maps each vertex that contracts into the kernel to its kernel
    vertex: a series-merged column and its series row map to the column
    they merged into, and a vertex that leaves, a dominated column with its
    series rows and merged columns and a dropped twin row too, has no
    image. A row left with no column and its target bit set has no
    solution, and neither have twin rows with different target bits: the
    kernel is then one such row alone, with its bit set and no column,
    which either engine finds infeasible.
    """
    nrows, weights = matrix.nrows, matrix.col_weights
    n = len(cols)
    row_cols: dict[int, set[int]] = {r: set() for r in rows}
    col_rows: dict[int, set[int]] = {}
    on: dict[int, int] = {}
    for i, c in enumerate(cols):
        rs = matrix.col_rows[c]
        col_rows[c] = set(rs)
        for r in rs:
            row_cols[r].add(c)
        on[c] = (weights[c] << n) + (1 << i)
    off = dict.fromkeys(cols, 0)
    u = bytearray(u)
    into: dict[int, int] = {}  # a series row or merged column: the column it merged into
    base = 0
    queue: list[int] = []
    # the row-set index: the column filed under each set of rows. An entry
    # goes stale only where its column's rows change or the column leaves,
    # and each such step retires one of those rows, except a dominated
    # column's, whose entry leaves with it; so a stale entry holds a row no
    # live column has and never matches
    twins: dict[frozenset, int] = {}
    # the columns a merge made or changed since the dominance rule last ran
    dirty: set[int] = set()

    def settle(a: int) -> int:
        """File column a under its rows, or merge it into the live column
        filed there already; with no row, fix it at its cheaper side.
        Returns the column that stands for a now."""
        nonlocal base
        rows_a = col_rows[a]
        if not rows_a:
            base += min(on[a], off[a])
            del col_rows[a]
            return a
        b = twins.setdefault(frozenset(rows_a), a)
        if b == a:
            return a
        on[b], off[b] = min(on[b] + off[a], off[b] + on[a]), min(off[b] + off[a], on[b] + on[a])
        del col_rows[a]
        for s in rows_a:
            rc = row_cols[s]
            rc.remove(a)
            if len(rc) <= 2:
                queue.append(s)
        return b

    def dominated(x: int) -> int | None:
        """A column of a triangle through live column x that the other two
        reproduce more cheaply, if there is one."""
        rows_x = col_rows.get(x)
        if rows_x is None:
            return None
        key = frozenset(rows_x)
        dx = abs(on[x] - off[x])
        seen = {x}
        for r in rows_x:
            for y in row_cols[r]:
                if y in seen:
                    continue
                seen.add(y)
                z = twins.get(key ^ col_rows[y])
                if z is None:
                    continue
                seen.add(z)
                dy, dz = abs(on[y] - off[y]), abs(on[z] - off[z])
                total = dx + dy + dz
                for c, d in ((x, dx), (y, dy), (z, dz)):
                    if 2 * d > total:
                        return c
        return None

    for c in cols:
        settle(c)
    queue += [r for r, cs in row_cols.items() if len(cs) <= 2]
    while queue or dirty:
        if not queue:  # the fixpoint: the dominance rule, on one changed column
            x = dirty.pop()
            c = dominated(x)
            if c is None:
                continue
            if c != x:
                dirty.add(x)
            flip = on[c] < off[c]
            base += on[c] if flip else off[c]
            rows_c = col_rows.pop(c)
            del twins[frozenset(rows_c)]
            for s in rows_c:
                rc = row_cols[s]
                rc.remove(c)
                u[s] ^= flip
                if len(rc) <= 2:
                    queue.append(s)
            continue
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
            dirty.add(settle(a))
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
    # the twin-row rule: rows over the same columns are one equation
    first: dict[frozenset, int] = {}
    for r, cs in list(row_cols.items()):
        t = first.setdefault(frozenset(cs), r)
        if t == r:
            continue
        if u[r] != u[t]:  # no solution: the kernel is this row alone
            return _infeasible(r, cols, fixed)
        del row_cols[r]
        for c in cs:
            col_rows[c].remove(r)
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
    that ``Gf2System`` spans, of dimension d: 2^d of them.
    Where 2^d is at most n, the number of live columns, they are walked in
    Gray-code order with a running weight W, and the least packed charge
    ``(W << n) | x``, x over the column ranks, is the canonical solution:
    the kernel is then empty, and its ``base`` is that charge. Where the
    system has no solution, the kernel is one live row with its bit set.
    Otherwise None, and ``_series`` reduces the system. d is at least n
    less the number of live rows, so where that alone makes 2^d exceed n,
    nothing is eliminated; with no live column, nothing is either.
    """
    n = len(cols)
    if not n:  # every live row is empty, with its bit set
        if rows:
            return _infeasible(rows[-1], cols, fixed)
        return Kernel(Gf2Matrix(0, 0, [], []), 0, {}, 0, cols, fixed)
    if n - len(rows) >= n.bit_length():
        return None
    system = Gf2System([mask_from_indices(matrix.col_rows[c]) for c in cols])
    x = system.solve(mask_from_indices([r for r in rows if u[r]]))
    if x is None:  # the target is not 0, so a live row has its bit set
        return _infeasible(next(r for r in reversed(rows) if u[r]), cols, fixed)
    basis = system.kernel
    if len(basis) >= n.bit_length():
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
    and columns. Where the live system has at most one solution per live
    column, or none, the kernel is empty, or one infeasible row."""
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
