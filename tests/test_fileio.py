import hashlib
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest

from boundedchain import InputError, UsageError, build_slice, generators
from boundedchain.cli import main
from boundedchain.complexes import Gf2Matrix, boundary_matrix, hasse_graph
from boundedchain.decomposition import (
    TreeDecomposition,
    greedy_decomposition,
    make_nice,
)
from boundedchain.fileio import (
    _scaled_weight,
    format_weight,
    parse_boundary_text,
    parse_complex_text,
    parse_decomposition_text,
    parse_matrix_text,
    sniff_format,
    write_boundary_text,
    write_complex_text,
    write_decomposition_text,
    write_matrix_text,
)
from helpers import (
    adjacency,
    punctured_octahedron,
    random_problem,
    reference_greedy_decomposition,
)


def _fingerprint(*texts):
    """12 hex digits of the sha1 of the texts joined by NUL, the recipe of
    ``perfbench/workloads.fingerprint``."""
    return hashlib.sha1("\0".join(texts).encode()).hexdigest()[:12]


def _complex_and_boundary(cslice, boundary, comments=()):
    return (
        write_complex_text(cslice, comments),
        write_boundary_text(cslice, boundary, comments),
    )


def _scaled_signed_slice():
    return build_slice(
        [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 4, 5), (3, 5, 6)],
        [-35, 20, 7, -1, 60],
        [(7, 9), (3, 8), (1, 3)],
        scale=20,
    )


def _slice3():
    cslice = generators.random_slice(35, 8, dim=3, seed=0, weights="random")
    return cslice, generators.random_boundary(cslice, seed=0, require_nonempty=True)


def _slice2_mld():
    cslice = generators.random_slice(55, 10, dim=2, seed=0, weights="random")
    boundary = generators.random_boundary(cslice, seed=0, require_nonempty=True)
    return (write_matrix_text(boundary_matrix(cslice), boundary),)


def _cylinder_td():
    cslice, _ = generators.cylinder(5, 4)
    td = greedy_decomposition(hasse_graph(boundary_matrix(cslice)))
    return (write_decomposition_text(td, ["decomposition: heuristic=min-fill"]),)


@pytest.mark.parametrize(
    "texts, expected",
    [
        (
            lambda: _complex_and_boundary(
                *generators.triangle_strip(60), ["generated: strip length=60"]
            ),
            "a83f9f98ab9b",
        ),
        (lambda: _complex_and_boundary(*generators.cylinder(5, 4)), "0ee689ef5637"),
        (lambda: _complex_and_boundary(*_slice3()), "3ca28968b9b3"),
        (_slice2_mld, "b5e9213f30d4"),
        (
            lambda: _complex_and_boundary(
                _scaled_signed_slice(), frozenset([0, 2, 14]), ["scale 20"]
            ),
            "8109baa027e0",
        ),
        (
            lambda: (write_matrix_text(boundary_matrix(_scaled_signed_slice()), [0, 3]),),
            "dca6dac3c8e8",
        ),
        (_cylinder_td, "693018c60ec3"),
    ],
    ids=["strip60", "cylinder5x4", "slice3", "slice2-mld", "scale20-complex", "scale20-mld", "cylinder-td"],
)
def test_writer_bytes_are_pinned(texts, expected):
    """Generated and written texts are byte-stable: the generators' draws,
    the table order and every writer's rendering are pinned together."""
    assert _fingerprint(*texts()) == expected


def test_format_weight_exact_decimals():
    assert format_weight(7, 1) == "7"
    assert format_weight(5, 10) == "0.5"
    assert format_weight(-25, 100) == "-0.25"
    assert format_weight(125, 1000) == "0.125"
    assert format_weight(300, 100) == "3"
    with pytest.raises(InputError):
        format_weight(1, 3)


@pytest.mark.parametrize(
    "args, expected",
    [
        (
            ["random", "--top-simplices", "12", "--vertices", "8", "--dim", "2",
             "--seed", "4", "--weights", "random", "--weight-max", "20"],
            "a6b366dff7fb",
        ),
        (["sphere", "--levels", "1"], "78ad39c48a6e"),
    ],
    ids=["random", "sphere"],
)
def test_mbc_gen_bytes_are_pinned(args, expected, tmp_path, capsys):
    out = tmp_path / "g"
    assert main(["gen", *args, "--out", str(out)]) == 0
    paths = [out.with_suffix(ext) for ext in (".complex", ".boundary")]
    texts = [p.read_text(encoding="utf-8") for p in paths if p.exists()]
    assert _fingerprint(*texts) == expected


WEIGHT_TOKENS = ["0", "007", "-3", "+4", "1.5", "2.50", "1e2", "1_0", "\u0663", "x", "1/2", "9" * 5000]


@pytest.mark.parametrize("scale", [1, 2, 10])
@pytest.mark.parametrize("tok", WEIGHT_TOKENS, ids=lambda t: t if len(t) < 9 else f"{len(t)}-digits")
def test_scaled_weight_equals_the_fraction_reading(tok, scale):
    """Whatever this interpreter's ``Fraction`` makes of a token, times the
    scale, is the weight; what it refuses, or leaves off the 1/scale grid,
    is an InputError naming the line."""
    try:
        value = Fraction(tok) * scale
    except ValueError:
        with pytest.raises(InputError, match=r"^line 7: bad weight "):
            _scaled_weight(tok, scale, 7)
        return
    if value.denominator != 1:
        with pytest.raises(InputError, match=r"^line 7: weight .* not an integer multiple of 1/"):
            _scaled_weight(tok, scale, 7)
        return
    got = _scaled_weight(tok, scale, 7)
    assert type(got) is int and got == value


def _decimal_rendering(value, scale):
    fr = Fraction(value, scale)
    if fr.denominator == 1:
        return str(fr.numerator)
    return format(Decimal(fr.numerator) / Decimal(fr.denominator), "f")


@pytest.mark.parametrize("scale", [1, 2, 4, 5, 8, 10, 20, 25, 100])
def test_format_weight_equals_the_fraction_rendering(scale):
    for value in range(-400, 401):
        text = format_weight(value, scale)
        assert text == _decimal_rendering(value, scale), (value, scale)
        assert _scaled_weight(text, scale, 1) == value


def test_format_weight_refuses_a_scale_without_finite_decimals():
    for value in range(-400, 401):
        if value % 3:
            with pytest.raises(InputError, match="no finite decimal form"):
                format_weight(value, 3)
        else:
            assert format_weight(value, 3) == str(value // 3)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_complex_text, "dim q\n", "line 1: dim must be an integer, got 'q'"),
        (parse_complex_text, "dim 2\nscale z\n", "line 2: scale must be an integer, got 'z'"),
        (parse_complex_text, "dim 2\ns 0 x 2\n", "line 2: vertex must be an integer, got 'x'"),
        (parse_complex_text, "dim 2\ns 0 a b 4\n", "line 2: vertex must be an integer, got 'a'"),
        (parse_complex_text, "dim 2\ns 0 1 2 w\n", "line 2: bad weight 'w'"),
        (parse_complex_text, "dim 2\ns 0 1 2\n\nf 3 y\n", "line 4: vertex must be an integer, got 'y'"),
        (
            lambda text: parse_boundary_text(text, punctured_octahedron()[0]),
            "0 1\n# a comment\n1 z\n",
            "line 3: vertex must be an integer, got 'z'",
        ),
        (parse_matrix_text, "mld 2 x\n", "line 1: columns must be an integer, got 'x'"),
        (parse_matrix_text, "mld 2 2\ne r 0\n", "line 2: row must be an integer, got 'r'"),
        (parse_matrix_text, "mld 2 2\ne 0 c\n", "line 2: column must be an integer, got 'c'"),
        (parse_matrix_text, "mld 2 2\ne r c\n", "line 2: row must be an integer, got 'r'"),
        (parse_matrix_text, "mld 2 2\nw 1 1.x\n", "line 2: bad weight '1.x'"),
        (parse_matrix_text, "mld 2 2\nu 0 t\n", "line 2: target row must be an integer, got 't'"),
        (parse_decomposition_text, "td 1 0\nb n 1\n", "line 2: node id must be an integer, got 'n'"),
        (parse_decomposition_text, "td 1 0\nb 0 v\n", "line 2: vertex must be an integer, got 'v'"),
        (parse_decomposition_text, "td 2 0\nb 0 1\nb 1 1\ne 0 p\n", "line 4: node id must be an integer, got 'p'"),
    ],
)
def test_bad_tokens_name_their_line_and_token(parse, text, message):
    with pytest.raises(InputError) as err:
        parse(text)
    assert str(err.value) == message


def test_sniff_format():
    assert sniff_format("# hi\ndim 2\n") == "complex"
    assert sniff_format("mld 2 2\n") == "mld"
    assert sniff_format("td 1 0\n") == "td"
    with pytest.raises(InputError):
        sniff_format("what 1\n")
    with pytest.raises(InputError, match="graph"):
        sniff_format("graph 4\n")  # there is no graph format
    with pytest.raises(InputError):
        sniff_format("# only comments\n")


def test_parse_complex_basic():
    text = "# a two-triangle fan\ndim 2\ns 1 2 3\ns 2 3 4 2.5\nf 1 4\n"
    with pytest.raises(InputError):
        parse_complex_text(text)  # 2.5 needs a scale
    cs = parse_complex_text(text.replace("dim 2", "dim 2\nscale 2"))
    assert cs.scale == 2
    assert cs.weights == (2, 5)
    assert (1, 4) in cs.faces


def test_complex_round_trip_exact():
    for seed in range(20):
        cslice, _ = random_problem(seed)
        text = write_complex_text(cslice, ["round trip"])
        back = parse_complex_text(text)
        assert back.top == cslice.top
        assert back.weights == cslice.weights
        assert back.faces == cslice.faces
        assert back.scale == cslice.scale
        assert write_complex_text(back, ["round trip"]) == text


def test_complex_round_trip_with_scale_and_extras():
    # an extra face no top simplex covers must survive as an f line
    lonely = build_slice([(0, 1, 2)], extra_faces=[(3, 4)])
    text = write_complex_text(lonely)
    assert "f 3 4" in text.splitlines()
    assert parse_complex_text(text).faces == lonely.faces

    cs, _ = punctured_octahedron()
    back = parse_complex_text(write_complex_text(cs))
    assert back.faces == cs.faces
    scaled = build_slice(list(cs.top), [15, 25, 35, 45, 55, 65, 75], scale=10)
    back2 = parse_complex_text(write_complex_text(scaled))
    assert back2.weights == scaled.weights
    assert back2.scale == 10


def test_parse_complex_errors():
    with pytest.raises(InputError):
        parse_complex_text("s 0 1 2\n")
    with pytest.raises(InputError):
        parse_complex_text("dim 2\ndim 2\n")
    with pytest.raises(InputError):
        parse_complex_text("dim 2\ns 0 1\n")
    with pytest.raises(InputError):
        parse_complex_text("dim 2\nz 0 1 2\n")
    with pytest.raises(InputError):
        parse_complex_text("dim 2\ns 0 1 2\nscale 10\n")
    with pytest.raises(InputError):
        parse_complex_text("dim 2\nscale 0\n")
    with pytest.raises(InputError):
        parse_complex_text("dim 2\nf 0\n")
    with pytest.raises(InputError):
        parse_complex_text("dim 2\ns 0 1 2\ns 2 1 0\n")  # same triangle twice
    with pytest.raises(InputError):
        parse_complex_text("dim 2\ns 0 1 2\nf 3 4\nf 4 3\n")  # same extra face twice
    # vertex ids are checked once, when the slice is built
    with pytest.raises(UsageError):
        parse_complex_text("dim 2\ns 0 0 1\n")
    with pytest.raises(UsageError):
        parse_complex_text("dim 2\ns -1 0 1\n")
    with pytest.raises(UsageError):
        parse_complex_text("dim 2\ns 0 1 2\nf -3 4\n")


def test_boundary_round_trip():
    cs, boundary = punctured_octahedron()
    text = write_boundary_text(cs, boundary)
    assert parse_boundary_text(text, cs) == boundary
    assert parse_boundary_text("", cs) == frozenset()


def test_boundary_errors():
    cs, _ = punctured_octahedron()
    with pytest.raises(InputError):
        parse_boundary_text("0 1\n1 0\n", cs)  # same edge twice
    with pytest.raises(InputError):
        parse_boundary_text("0\n", cs)  # wrong arity
    with pytest.raises(InputError):
        parse_boundary_text("98 99\n", cs)  # not a face
    with pytest.raises(UsageError):
        parse_boundary_text("0 -1\n", cs)
    with pytest.raises(UsageError):
        parse_boundary_text("1 1\n", cs)


def test_matrix_round_trip():
    mat = Gf2Matrix(3, 4, [(0,), (0, 1), (1, 2), ()], [3, 1, 4, 1])
    text = write_matrix_text(mat, (0, 2), ["hand built"])
    back, target = parse_matrix_text(text)
    assert back.nrows == 3 and back.ncols == 4
    assert back.col_rows == mat.col_rows
    assert back.col_weights == mat.col_weights
    assert target == frozenset((0, 2))
    assert write_matrix_text(back, target, ["hand built"]) == text


def test_matrix_scale_weights():
    text = "mld 2 2\nscale 4\ne 0 0\ne 1 1\nw 0.25 1.75\nu 1\n"
    mat, target = parse_matrix_text(text)
    assert mat.scale == 4
    assert mat.col_weights == (1, 7)
    assert target == frozenset((1,))
    again, _ = parse_matrix_text(write_matrix_text(mat, target))
    assert again.col_weights == mat.col_weights


def test_matrix_errors():
    with pytest.raises(InputError):
        parse_matrix_text("e 0 0\n")
    with pytest.raises(InputError):
        parse_matrix_text("mld 2 2\ne 0 0\ne 0 0\n")
    with pytest.raises(InputError):
        parse_matrix_text("mld 2 2\ne 0 5\n")
    with pytest.raises(InputError):
        parse_matrix_text("mld 2 2\nw 1\n")
    with pytest.raises(InputError):
        parse_matrix_text("mld 2 2\nu 0 0\n")
    with pytest.raises(InputError):
        parse_matrix_text("mld 2 2\nu 7\n")
    with pytest.raises(InputError):
        parse_matrix_text("mld 2 2\nw 1 1\nscale 2\n")


def test_matrix_defaults():
    mat, target = parse_matrix_text("mld 2 1\ne 0 0\n")
    assert mat.col_weights == (1,)
    assert target == frozenset()


def test_decomposition_round_trip_plain():
    g = adjacency(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    td = greedy_decomposition(g)
    text = write_decomposition_text(td)
    back = parse_decomposition_text(text)
    assert type(back) is TreeDecomposition
    assert back.bags == td.bags
    assert back.children == td.children
    assert back.root == td.root
    assert write_decomposition_text(back) == text


def test_decomposition_round_trip_nice():
    """A nice decomposition is written and read in plain form; make_nice restores it."""
    g = adjacency(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    ntd = make_nice(reference_greedy_decomposition(g, "min-degree"), g)
    text = write_decomposition_text(ntd, ["nice form"])
    assert "kind" not in text
    back = parse_decomposition_text(text)
    assert type(back) is TreeDecomposition
    assert back.bags == ntd.bags
    assert back.children == ntd.children
    assert back.root == ntd.root
    again = make_nice(back, g)
    assert again.bags == ntd.bags
    assert again.children == ntd.children


def test_decomposition_errors():
    with pytest.raises(InputError):
        parse_decomposition_text("b 0 1\n")
    with pytest.raises(InputError):
        parse_decomposition_text("td 2 0\nb 0 1\nb 1 1\n")  # two roots
    with pytest.raises(InputError):
        parse_decomposition_text("td 1 5\nb 0 1\n")  # width mismatch
    with pytest.raises(InputError):
        parse_decomposition_text("td 2 0\nb 0 3\nb 1 3\ne 0 1\ne 1 0\n")
    # files hold plain decompositions: a kind line is an unknown directive
    with pytest.raises(InputError, match="line 5: unknown directive 'kind'"):
        parse_decomposition_text("td 2 0\nb 0\nb 1 4\ne 0 1\nkind 0 forget 4\n")
    with pytest.raises(InputError, match="line 3: unknown directive 'kind'"):
        parse_decomposition_text("td 1 -1\nb 0\nkind 0 leaf\nkind 7 join\n")
    with pytest.raises(InputError, match="line 2: edge \\(0, 7\\) out of range"):
        # a node the header does not have
        parse_decomposition_text("td 1 -1\ne 0 7\nb 0\n")
    with pytest.raises(InputError, match="node 1"):
        # node 1 has no bag line; an empty bag is written 'b 1'
        parse_decomposition_text("td 2 0\nb 0 1\ne 0 1\n")
    assert parse_decomposition_text("td 2 0\nb 0 1\nb 1\ne 0 1\n").bags[1] == frozenset()
    # every node needs a bag line, so they are counted before any table
    # sized by the header's node count is built: a million declared nodes
    # with one bag cost what the text does
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="node 1 is missing its bag line"):
            parse_decomposition_text("td 1000000 0\nb 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
