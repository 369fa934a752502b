import pytest

from boundedchain import InputError, UsageError, build_slice
from boundedchain.complexes import Gf2Matrix
from boundedchain.decomposition import (
    Graph,
    NiceTreeDecomposition,
    greedy_decomposition,
    make_nice,
)
from boundedchain.fileio import (
    format_weight,
    parse_boundary_text,
    parse_complex_text,
    parse_decomposition_text,
    parse_graph_text,
    parse_matrix_text,
    sniff_format,
    write_boundary_text,
    write_complex_text,
    write_decomposition_text,
    write_graph_text,
    write_matrix_text,
)
from helpers import punctured_octahedron, random_problem


def test_format_weight_exact_decimals():
    assert format_weight(7, 1) == "7"
    assert format_weight(5, 10) == "0.5"
    assert format_weight(-25, 100) == "-0.25"
    assert format_weight(125, 1000) == "0.125"
    assert format_weight(300, 100) == "3"
    with pytest.raises(InputError):
        format_weight(1, 3)


def test_sniff_format():
    assert sniff_format("# hi\ndim 2\n") == "complex"
    assert sniff_format("mld 2 2\n") == "mld"
    assert sniff_format("graph 4\n") == "graph"
    assert sniff_format("td 1 0\n") == "td"
    with pytest.raises(InputError):
        sniff_format("what 1\n")
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


def test_graph_round_trip():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    text = write_graph_text(g, ["tiny"])
    back = parse_graph_text(text)
    assert back.n == 5
    assert back.edges() == g.edges()
    with pytest.raises(InputError):
        parse_graph_text("graph 2\ne 0 5\n")
    with pytest.raises(InputError):
        parse_graph_text("e 0 1\n")


def test_decomposition_round_trip_plain():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    td = greedy_decomposition(g, "min-fill")
    text = write_decomposition_text(td)
    back = parse_decomposition_text(text)
    assert not isinstance(back, NiceTreeDecomposition)
    assert back.bags == td.bags
    assert back.children == td.children
    assert back.root == td.root
    assert write_decomposition_text(back) == text


def test_decomposition_round_trip_nice():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    ntd = make_nice(greedy_decomposition(g, "min-degree"), g)
    text = write_decomposition_text(ntd, ["nice form"])
    back = parse_decomposition_text(text)
    assert isinstance(back, NiceTreeDecomposition)
    assert back.bags == ntd.bags
    assert back.kinds == ntd.kinds
    assert back.vertices == ntd.vertices
    assert back.children == ntd.children


def test_decomposition_errors():
    with pytest.raises(InputError):
        parse_decomposition_text("b 0 1\n")
    with pytest.raises(InputError):
        parse_decomposition_text("td 2 0\nb 0 1\nb 1 1\n")  # two roots
    with pytest.raises(InputError):
        parse_decomposition_text("td 1 5\nb 0 1\n")  # width mismatch
    with pytest.raises(InputError):
        parse_decomposition_text("td 2 0\nb 0 3\nb 1 3\ne 0 1\ne 1 0\n")
    with pytest.raises(InputError):
        # one kind line present, the rest missing
        parse_decomposition_text("td 2 0\nb 0\nb 1 4\ne 0 1\nkind 0 forget 4\n")
    with pytest.raises(InputError):
        parse_decomposition_text("td 1 0\nb 0\nkind 0 leaf 3\n")
    with pytest.raises(InputError, match="line 4"):
        # a kind line for a node the header does not have
        parse_decomposition_text("td 1 -1\nb 0\nkind 0 leaf\nkind 7 join\n")
    with pytest.raises(InputError, match="node 1"):
        # node 1 has no bag line; an empty bag is written 'b 1'
        parse_decomposition_text("td 2 0\nb 0 1\ne 0 1\n")
    assert parse_decomposition_text("td 2 0\nb 0 1\nb 1\ne 0 1\n").bags[1] == frozenset()
