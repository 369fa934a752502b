"""The benchmark's tracer wraps package functions by name: a rename must fail here,
in the tier-1 suite, and not only when the benchmark itself runs."""

import importlib.util
from pathlib import Path

from boundedchain import facade, generators, treewidth
from boundedchain.complexes import boundary_matrix
from boundedchain.kernel import reduce

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patch_points_exist_and_record_treewidth_spans():
    spans = load_spans()
    for module, attr in spans.PATCH_POINTS:
        assert hasattr(module, attr), (module.__name__, attr)
    # a slice whose kernel is left for the DP (11 rows, 10 columns): on an
    # empty kernel the solve returns before any decomposition or DP span
    cslice = generators.random_slice(24, 8, dim=2, seed=0)
    boundary = generators.random_boundary(cslice, seed=0, require_nonempty=True)
    matrix = boundary_matrix(cslice)
    assert reduce(matrix, matrix.target_mask(sorted(boundary))).matrix.nrows > 0
    original = treewidth.process_bag
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.solve_id = 0
        result = facade.solve(facade.instance_from_complex(cslice, boundary), "treewidth")
    finally:
        tracer.remove()
    assert treewidth.process_bag is original
    assert result.is_optimal
    names = {span[0] for span in tracer.spans}
    # no CI tracer run reaches the incidence build or min-fill: strips and
    # slice3 stop at an empty kernel, and slice2 runs the search
    spans_wanted = {
        "complexes.incidence", "decomposition.elim", "treewidth.dp", "treewidth.backtrack"
    }
    assert spans_wanted <= names
    assert tracer.counts[0]["treewidth.peak_table"] > 0
