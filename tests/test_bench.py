"""The `mbc bench` harness: each repetition is timed on a fresh matrix."""

from boundedchain import bench
from boundedchain.facade import instance_from_complex
from boundedchain.fileio import write_boundary_text, write_complex_text, write_matrix_text
from boundedchain.generators import triangle_strip


def test_no_solve_starts_with_warm_matrix_caches(tmp_path, monkeypatch):
    """Solves may fill the lazy ``col_masks`` and ``row_cols`` caches of
    their matrix (the brute one does; the treewidth solve and the unbounded
    search read ``col_rows`` alone and build their kernel's caches). A
    matrix shared by the repetitions would hand later ones warm caches, and
    their wall times would not be comparable with the first."""
    cs, boundary = triangle_strip(3)
    (tmp_path / "s.complex").write_text(write_complex_text(cs))
    (tmp_path / "s.boundary").write_text(write_boundary_text(cs, boundary))
    inst = instance_from_complex(cs, boundary)
    (tmp_path / "m.mld").write_text(write_matrix_text(inst.matrix, inst.target))
    seen = []
    real_solve = bench.solve

    def spy(instance, algorithm, **kwargs):
        cached = {"col_masks", "row_cols"} & vars(instance.matrix).keys()
        seen.append((instance.matrix, algorithm, cached))
        return real_solve(instance, algorithm, **kwargs)

    monkeypatch.setattr(bench, "solve", spy)
    rows = bench.run_suite(tmp_path, ["dijkstra", "treewidth", "brute"], reps=3, timing=False)
    assert len(seen) == len(rows) == 2 * 3 * 3
    assert [cached for _, _, cached in seen] == [set()] * len(seen)
    assert len({id(matrix) for matrix, _, _ in seen}) == len(seen)
    assert all("col_masks" in vars(matrix) for matrix, algo, _ in seen if algo == "brute")
    # the repetitions of one (instance, algorithm) give the same untimed row
    for i in range(0, len(rows), 3):
        first = dict(rows[i], rep=None)
        assert all(dict(row, rep=None) == first for row in rows[i : i + 3])
