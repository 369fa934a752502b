"""Text formats for complexes, boundaries, matrices and tree decompositions.

All formats share the same conventions: UTF-8, `#` starts a comment,
blank lines are ignored, and the first meaningful token names the format
(dim / mld / td). Weights are decimals; with a `scale <denom>`
header they are multiplied by the denominator and must land on integers,
so arithmetic stays exact downstream.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Iterable, Sequence

from .complexes import ComplexSlice, Gf2Matrix, build_slice, check_simplex, simplex_name
from .decomposition import TreeDecomposition, _tree_ok
from .errors import InputError


def _lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if toks:
            out.append((no, toks))
    return out


def _int(tok: str, no: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise InputError(f"line {no}: {what} must be an integer, got {tok!r}") from None


def _ints(toks: Sequence[str], no: int, what: str) -> list[int]:
    """The tokens read with ``int``; the first bad one is named by ``_int``."""
    try:
        return list(map(int, toks))
    except ValueError:
        return [_int(tok, no, what) for tok in toks]


def _scaled_weight(tok: str, scale: int, no: int) -> int:
    try:
        if tok.isascii() and tok.isdigit():
            return int(tok) * scale
        value = Fraction(tok) * scale
    except (ValueError, ZeroDivisionError):
        raise InputError(f"line {no}: bad weight {tok!r}") from None
    if value.denominator != 1:
        raise InputError(
            f"line {no}: weight {tok} is not an integer multiple of 1/{scale}"
        )
    return int(value)


def format_weight(value: int, scale: int) -> str:
    """Exact decimal rendering of a fixed-point weight."""
    if value % scale == 0:
        return str(value // scale)
    fr = Fraction(value, scale)
    if fr.denominator == 1:
        return str(fr.numerator)
    den = fr.denominator
    digits = 0
    while den % 2 == 0:
        den //= 2
        digits += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        raise InputError(
            f"weight {value}/{scale} has no finite decimal form; change the scale"
        )
    digits = max(digits, fives)
    scaled = abs(fr.numerator) * 10**digits // fr.denominator
    sign = "-" if fr.numerator < 0 else ""
    text = str(scaled).rjust(digits + 1, "0")
    whole, frac = text[:-digits], text[-digits:]
    return f"{sign}{whole}.{frac}".rstrip("0").rstrip(".")


def sniff_format(text: str) -> str:
    """Name of the format by its first meaningful token."""
    for _no, toks in _lines(text):
        head = toks[0]
        if head == "dim":
            return "complex"
        if head in ("mld", "td"):
            return head
        raise InputError(f"unrecognized leading token {head!r}")
    raise InputError("empty input")


# -- complexes --------------------------------------------------------------


def parse_complex_text(text: str) -> ComplexSlice:
    dim = None
    scale = 1
    tops: list[tuple[int, ...]] = []
    weights: list[int] = []
    extra: list[tuple[int, ...]] = []
    for no, toks in _lines(text):
        head, rest = toks[0], toks[1:]
        if head == "dim":
            if dim is not None:
                raise InputError(f"line {no}: repeated dim header")
            if len(rest) != 1:
                raise InputError(f"line {no}: dim takes one value")
            dim = _int(rest[0], no, "dim")
            continue
        if head == "scale":
            if tops or extra:
                raise InputError(f"line {no}: scale must precede simplex lines")
            if len(rest) != 1:
                raise InputError(f"line {no}: scale takes one value")
            scale = _int(rest[0], no, "scale")
            if scale < 1:
                raise InputError(f"line {no}: scale must be >= 1")
            continue
        if dim is None:
            raise InputError(f"line {no}: dim header must come first")
        if head == "s":
            if len(rest) == dim + 2:
                verts, wtok = rest[:-1], rest[-1]
            elif len(rest) == dim + 1:
                verts, wtok = rest, None
            else:
                raise InputError(
                    f"line {no}: a {dim}-simplex needs {dim + 1} vertices"
                )
            tops.append(tuple(sorted(_ints(verts, no, "vertex"))))
            weights.append(scale if wtok is None else _scaled_weight(wtok, scale, no))
        elif head == "f":
            if len(rest) != dim:
                raise InputError(f"line {no}: an extra face needs {dim} vertices")
            extra.append(tuple(sorted(_ints(rest, no, "vertex"))))
        else:
            raise InputError(f"line {no}: unknown directive {head!r}")
    if dim is None:
        raise InputError("missing dim header")
    return build_slice(tops, weights, extra, dim=dim, scale=scale)


def write_complex_text(cslice: ComplexSlice, comments: Sequence[str] = ()) -> str:
    declared = set().union(*cslice.faces_of)
    scale = cslice.scale
    out = [f"# {c}" for c in comments]
    out.append(f"dim {cslice.dim}")
    if scale != 1:
        out.append(f"scale {scale}")
    for s, w in zip(cslice.top, cslice.weights):
        verts = " ".join(map(str, s))
        if w == scale:
            out.append(f"s {verts}")
        else:
            out.append(f"s {verts} {format_weight(w, scale)}")
    for i, f in enumerate(cslice.faces):
        if i not in declared:
            out.append("f " + " ".join(map(str, f)))
    return "\n".join(out) + "\n"


# -- boundaries --------------------------------------------------------------


def parse_boundary_text(text: str, cslice: ComplexSlice) -> frozenset[int]:
    """The boundary as a frozenset of face indices."""
    seen: dict[tuple[int, ...], None] = {}  # a set that keeps the file's order
    for no, toks in _lines(text):
        if len(toks) != cslice.dim:
            raise InputError(
                f"line {no}: a boundary simplex needs {cslice.dim} vertex ids"
            )
        s = check_simplex(sorted(_ints(toks, no, "vertex")))
        if s in seen:
            raise InputError(f"line {no}: duplicate boundary simplex {simplex_name(s)}")
        seen[s] = None
    return frozenset(map(cslice.face_index, seen))


def write_boundary_text(
    cslice: ComplexSlice, chain: Iterable[int], comments: Sequence[str] = ()
) -> str:
    out = [f"# {c}" for c in comments]
    faces = cslice.faces
    out.extend(" ".join(map(str, faces[i])) for i in sorted(chain))
    return "\n".join(out) + "\n"


# -- matrices ----------------------------------------------------------------


def parse_matrix_text(text: str) -> tuple[Gf2Matrix, frozenset[int]]:
    header = None
    scale = 1
    entries: set[tuple[int, int]] = set()
    weights: list[int] | None = None
    target: frozenset[int] | None = None
    for no, toks in _lines(text):
        head, rest = toks[0], toks[1:]
        if head == "mld":
            if header is not None:
                raise InputError(f"line {no}: repeated mld header")
            if len(rest) != 2:
                raise InputError(f"line {no}: mld header needs rows and columns")
            header = (_int(rest[0], no, "rows"), _int(rest[1], no, "columns"))
            continue
        if header is None:
            raise InputError(f"line {no}: mld header must come first")
        m, n = header
        if head == "scale":
            if weights is not None:
                raise InputError(f"line {no}: scale must precede the weight line")
            if len(rest) != 1:
                raise InputError(f"line {no}: scale takes one value")
            scale = _int(rest[0], no, "scale")
            if scale < 1:
                raise InputError(f"line {no}: scale must be >= 1")
        elif head == "e":
            if len(rest) != 2:
                raise InputError(f"line {no}: entry lines are 'e row col'")
            try:
                r, c = map(int, rest)
            except ValueError:
                r, c = _int(rest[0], no, "row"), _int(rest[1], no, "column")
            if not (0 <= r < m and 0 <= c < n):
                raise InputError(f"line {no}: entry ({r}, {c}) out of range")
            if (r, c) in entries:
                raise InputError(f"line {no}: duplicate entry ({r}, {c})")
            entries.add((r, c))
        elif head == "w":
            if weights is not None:
                raise InputError(f"line {no}: repeated weight line")
            if len(rest) != n:
                raise InputError(f"line {no}: expected {n} weights")
            weights = [_scaled_weight(t, scale, no) for t in rest]
        elif head == "u":
            if target is not None:
                raise InputError(f"line {no}: repeated target line")
            rows = _ints(rest, no, "target row")
            if any(not (0 <= r < m) for r in rows):
                raise InputError(f"line {no}: target row out of range")
            if len(set(rows)) != len(rows):
                raise InputError(f"line {no}: duplicate target row")
            target = frozenset(rows)
        else:
            raise InputError(f"line {no}: unknown directive {head!r}")
    if header is None:
        raise InputError("missing mld header")
    m, n = header
    if weights is None:
        weights = [scale] * n
    col_rows: list[list[int]] = [[] for _ in range(n)]
    for r, c in sorted(entries):  # row order, so each column's rows increase
        col_rows[c].append(r)
    matrix = Gf2Matrix(m, n, col_rows, weights, scale=scale)
    return matrix, target if target is not None else frozenset()


def write_matrix_text(
    matrix: Gf2Matrix, target: Iterable[int] = (), comments: Sequence[str] = ()
) -> str:
    out = [f"# {c}" for c in comments]
    out.append(f"mld {matrix.nrows} {matrix.ncols}")
    if matrix.scale != 1:
        out.append(f"scale {matrix.scale}")
    for c, rs in enumerate(matrix.col_rows):
        out += [f"e {r} {c}" for r in rs]
    out.append(
        "w " + " ".join(format_weight(w, matrix.scale) for w in matrix.col_weights)
    )
    rows = sorted(set(target))
    if rows:
        out.append("u " + " ".join(map(str, rows)))
    return "\n".join(out) + "\n"


# -- tree decompositions -----------------------------------------------------


def parse_decomposition_text(text: str) -> TreeDecomposition:
    """Parse a rooted decomposition: a td header, b (bag) and e (edge) lines."""
    header = None
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    for no, toks in _lines(text):
        head, rest = toks[0], toks[1:]
        if head == "td":
            if header is not None:
                raise InputError(f"line {no}: repeated td header")
            if len(rest) != 2:
                raise InputError(f"line {no}: td header is 'td <nodes> <width>'")
            header = (_int(rest[0], no, "node count"), _int(rest[1], no, "width"))
            continue
        if header is None:
            raise InputError(f"line {no}: td header must come first")
        n_nodes, _width = header
        if head == "b":
            if not rest:
                raise InputError(f"line {no}: bag lines are 'b <node> [vertices]'")
            t = _int(rest[0], no, "node id")
            if not (0 <= t < n_nodes):
                raise InputError(f"line {no}: node id {t} out of range")
            if t in bags:
                raise InputError(f"line {no}: repeated bag for node {t}")
            bags[t] = frozenset(_ints(rest[1:], no, "vertex"))
        elif head == "e":
            if len(rest) != 2:
                raise InputError(f"line {no}: edge lines are 'e <parent> <child>'")
            p, c = _int(rest[0], no, "node id"), _int(rest[1], no, "node id")
            if not (0 <= p < n_nodes and 0 <= c < n_nodes):
                raise InputError(f"line {no}: edge ({p}, {c}) out of range")
            edges.append((p, c))
        else:
            raise InputError(f"line {no}: unknown directive {head!r}")
    if header is None:
        raise InputError("missing td header")
    n_nodes, width = header
    if n_nodes < 1:
        raise InputError("a decomposition needs at least one node")
    if len(bags) < n_nodes:  # before any per-node table: bag ids lie in range
        missing = next(t for t in range(len(bags) + 1) if t not in bags)
        raise InputError(f"node {missing} is missing its bag line")
    children: list[list[int]] = [[] for _ in range(n_nodes)]
    has_parent = [False] * n_nodes
    for p, c in edges:
        children[p].append(c)
        if has_parent[c]:
            raise InputError(f"node {c} has two parents")
        has_parent[c] = True
    roots = [t for t in range(n_nodes) if not has_parent[t]]
    if len(roots) != 1:
        raise InputError(f"expected one root, found {len(roots)}")
    td = TreeDecomposition(
        [bags[t] for t in range(n_nodes)], [sorted(c) for c in children], roots[0]
    )
    bad = _tree_ok(td)
    if bad:
        raise InputError(str(bad))
    if td.width != width:
        raise InputError(f"header claims width {width}, bags give {td.width}")
    return td


def write_decomposition_text(td: TreeDecomposition, comments: Sequence[str] = ()) -> str:
    out = [f"# {c}" for c in comments]
    out.append(f"td {td.n_nodes} {td.width}")
    for t, bag in enumerate(td.bags):
        out.append(("b " + str(t) + " " + " ".join(map(str, sorted(bag)))).rstrip())
    for t, kids in enumerate(td.children):
        for c in kids:
            out.append(f"e {t} {c}")
    return "\n".join(out) + "\n"


# -- path-level helpers -------------------------------------------------------


def read_text(path: str | os.PathLike) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc


def write_text(path: str | os.PathLike, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def parse_complex(path) -> ComplexSlice:
    return parse_complex_text(read_text(path))


def parse_boundary(path, cslice: ComplexSlice) -> frozenset[int]:
    return parse_boundary_text(read_text(path), cslice)


def parse_matrix(path) -> tuple[Gf2Matrix, frozenset[int]]:
    return parse_matrix_text(read_text(path))


def parse_decomposition(path) -> TreeDecomposition:
    return parse_decomposition_text(read_text(path))
