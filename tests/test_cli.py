import json
import subprocess
import sys

import pytest

from boundedchain.cli import main
from boundedchain.fileio import parse_decomposition


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_and_solve_round_trip(tmp_path, capsys):
    prefix = str(tmp_path / "strip")
    code, out, _ = run(capsys, "gen", "strip", "--length", "3", "--out", prefix)
    assert code == 0
    assert (tmp_path / "strip.complex").exists()
    assert (tmp_path / "strip.boundary").exists()
    code, out, _ = run(
        capsys,
        "solve",
        "--complex", prefix + ".complex",
        "--boundary", prefix + ".boundary",
        "--algorithm", "dijkstra",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "optimal"
    assert payload["weight"] == 3
    assert len(payload["solution"]) == 3
    # the default pivot depends on --k
    assert payload["stats"]["pivot"] == "max-step"
    code, out, _ = run(
        capsys,
        "solve",
        "--complex", prefix + ".complex",
        "--boundary", prefix + ".boundary",
        "--algorithm", "dijkstra",
        "--k", "3",
    )
    assert code == 0
    assert json.loads(out)["stats"]["pivot"] == "min-coface"


def test_gen_is_deterministic(tmp_path, capsys):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    for prefix in (a, b):
        code, _, _ = run(
            capsys,
            "gen", "random",
            "--top-simplices", "9", "--vertices", "8", "--seed", "12",
            "--weights", "random", "--out", prefix,
        )
        assert code == 0
    for ext in (".complex", ".boundary"):
        assert (tmp_path / ("a" + ext)).read_bytes() == (tmp_path / ("b" + ext)).read_bytes()


def test_solve_writes_result_file_and_reruns_identically(tmp_path, capsys):
    prefix = str(tmp_path / "oct")
    run(capsys, "gen", "octahedron", "--out", prefix)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out_file in (out_a, out_b):
        code, _, _ = run(
            capsys,
            "solve",
            "--complex", prefix + ".complex",
            "--algorithm", "treewidth",
            "--out", str(out_file),
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_solve_exit_codes(tmp_path, capsys):
    prefix = str(tmp_path / "cyl")
    run(capsys, "gen", "cylinder", "--around", "3", "--along", "1", "--out", prefix)
    # infeasible: a single edge as the target
    bad = tmp_path / "bad.boundary"
    bad.write_text("0 1\n")
    code, out, _ = run(
        capsys,
        "solve",
        "--complex", prefix + ".complex",
        "--boundary", str(bad),
        "--algorithm", "dijkstra",
    )
    assert code == 2
    assert json.loads(out)["status"] == "infeasible"
    # infeasible: rows 0 and 1 lie on the same three columns, and only row 0
    # is in the target; the kernel's twin-row rule finds it under both engines
    twins = tmp_path / "twins.mld"
    twins.write_text(
        "mld 5 6\ne 0 0\ne 1 0\ne 2 0\ne 0 1\ne 1 1\ne 3 1\ne 0 2\ne 1 2\ne 4 2\n"
        "e 2 3\ne 3 3\ne 2 4\ne 4 4\ne 3 5\ne 4 5\nw 3 1 4 1 5 9\nu 0\n"
    )
    td = str(tmp_path / "twins.td")
    assert run(capsys, "decompose", "--input", str(twins), "--out", td)[0] == 0
    for extra in (["--algorithm", "dijkstra"], ["--algorithm", "treewidth"],
                  ["--algorithm", "treewidth", "--td", td]):
        code, out, _ = run(capsys, "solve", "--matrix", str(twins), *extra)
        assert code == 2, extra
        assert json.loads(out)["status"] == "infeasible"
    # bound too small for the full rim
    code, out, _ = run(
        capsys,
        "solve",
        "--complex", prefix + ".complex",
        "--boundary", prefix + ".boundary",
        "--algorithm", "dijkstra", "--k", "5",
    )
    assert code == 3
    assert json.loads(out)["status"] == "not_found_within_bound"


def test_solve_matrix_input(tmp_path, capsys):
    mld = tmp_path / "toy.mld"
    mld.write_text("mld 3 2\ne 0 0\ne 1 0\ne 1 1\ne 2 1\nw 2 3\nu 0 2\n")
    code, out, _ = run(capsys, "solve", "--matrix", str(mld), "--algorithm", "treewidth")
    assert code == 0
    payload = json.loads(out)
    assert payload["weight"] == 5
    assert payload["solution"] == [0, 1]
    assert "phases" not in payload["stats"]
    code, out, _ = run(
        capsys, "solve", "--matrix", str(mld), "--algorithm", "treewidth", "--timing"
    )
    assert code == 0
    stats = json.loads(out)["stats"]
    assert set(stats["phases"]) == {"kernel", "decompose", "dp", "verify"}
    assert stats["peak_table"] > 0
    # mixing input styles is refused
    code, _, err = run(
        capsys,
        "solve", "--matrix", str(mld), "--complex", str(mld),
        "--algorithm", "brute",
    )
    assert code == 1
    assert "error:" in err


def test_verify_pass_and_fail(tmp_path, capsys):
    prefix = str(tmp_path / "oct")
    run(capsys, "gen", "octahedron", "--out", prefix)
    result = tmp_path / "r.json"
    run(
        capsys,
        "solve",
        "--complex", prefix + ".complex",
        "--algorithm", "dijkstra",
        "--out", str(result),
    )
    code, out, _ = run(
        capsys, "verify", str(result), "--complex", prefix + ".complex"
    )
    assert code == 0
    assert "PASS" in out
    tampered = json.loads(result.read_text())
    tampered["weight"] = 3
    tampered["status"] = "optimal"
    tampered["solution"] = [[0, 1, 2]]
    result.write_text(json.dumps(tampered))
    code, out, _ = run(
        capsys, "verify", str(result), "--complex", prefix + ".complex"
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_refuses_a_result_that_is_not_an_object(tmp_path, capsys):
    prefix = str(tmp_path / "oct")
    run(capsys, "gen", "octahedron", "--out", prefix)
    result = tmp_path / "r.json"
    for text in ("[1, 2]", "7", "null", '"optimal"'):
        result.write_text(text)
        code, out, err = run(
            capsys, "verify", str(result), "--complex", prefix + ".complex"
        )
        assert code == 1, text
        assert out == "" and err.startswith("error:") and "JSON object" in err, text


def test_verify_undecided_when_oracle_runs_out(tmp_path, capsys):
    """A correct result the oracle cannot re-solve is undecided, not a FAIL."""
    prefix = str(tmp_path / "r4")
    run(
        capsys,
        "gen", "random", "--top-simplices", "60", "--vertices", "10",
        "--seed", "4", "--out", prefix,
    )
    instance = ["--complex", prefix + ".complex", "--boundary", prefix + ".boundary"]
    result = tmp_path / "r4.json"
    code, _, _ = run(
        capsys, "solve", *instance, "--algorithm", "treewidth", "--out", str(result)
    )
    assert code == 0
    code, out, _ = run(capsys, "verify", str(result), *instance)
    assert code == 5
    assert "UNDECIDED" in out and "FAIL" not in out
    # the witness is still checked: a wrong weight is a real FAIL
    tampered = json.loads(result.read_text())
    tampered["weight"] += 1
    result.write_text(json.dumps(tampered))
    code, out, _ = run(capsys, "verify", str(result), *instance)
    assert code == 1
    assert "FAIL solution" in out


def test_verify_checks_bounded_results_within_k(tmp_path, capsys):
    """The oracle knows no k: a bounded answer heavier than its optimum, or
    none, is wrong only when that optimum fits in k, and undecided
    otherwise. On this slice the optimum, 43, has 12 triangles, and the
    search at --k 10 finds 44."""
    prefix = str(tmp_path / "s")
    run(
        capsys,
        "gen", "random", "--top-simplices", "40", "--vertices", "9", "--dim", "2",
        "--weights", "random", "--out", prefix,
    )
    instance = ["--complex", prefix + ".complex", "--boundary", prefix + ".boundary"]
    results = {}
    for k in (9, 10, 12):
        out = tmp_path / f"k{k}.json"
        run(
            capsys,
            "solve", *instance, "--algorithm", "dijkstra", "--k", str(k), "--out", str(out),
        )
        results[k] = json.loads(out.read_text())
    assert results[9]["status"] == "not_found_within_bound"
    assert (results[10]["weight"], results[12]["weight"]) == (44, 43)
    assert len(results[12]["solution"]) == 12

    def verify(claimed):
        path = tmp_path / "claim.json"
        path.write_text(json.dumps(claimed))
        code, out, _ = run(capsys, "verify", str(path), *instance)
        return code, out

    for k in (9, 10):
        code, out = verify(results[k])
        assert code == 5, (k, out)
        assert "UNDECIDED" in out and "FAIL" not in out, (k, out)
    code, out = verify(results[12])
    assert code == 0 and "PASS" in out, out
    # the 44 of --k 10 claimed at k=12, where the oracle's optimum fits
    heavier = dict(results[10], stats=dict(results[10]["stats"], k=12))
    code, out = verify(heavier)
    assert code == 1 and "FAIL weight: claimed 44, oracle found 43" in out, out
    missed = dict(results[9], stats=dict(results[9]["stats"], k=12))
    code, out = verify(missed)
    assert code == 1 and "FAIL status" in out, out
    # the optimum's 12 triangles claimed at k=11
    oversized = dict(results[12], stats=dict(results[12]["stats"], k=11))
    code, out = verify(oversized)
    assert code == 1 and "FAIL solution: 12 columns, more than k=11" in out, out
    for bad in (True, -1, "12"):
        path = tmp_path / "claim.json"
        path.write_text(json.dumps(dict(results[12], stats=dict(results[12]["stats"], k=bad))))
        code, out, err = run(capsys, "verify", str(path), *instance)
        assert code == 1 and out == "" and "stats.k" in err, bad


def test_verify_refuses_malformed_matrix_solutions(tmp_path, capsys):
    """Column lists must be distinct in-range ints: no wrap-around, no bools."""
    mld = tmp_path / "ones.mld"
    mld.write_text("mld 2 2\ne 0 0\ne 1 0\ne 0 1\ne 1 1\nw 5 2\nu 0 1\n")
    result = tmp_path / "r.json"
    code, _, _ = run(
        capsys, "solve", "--matrix", str(mld), "--algorithm", "brute", "--out", str(result)
    )
    assert code == 0
    claimed = json.loads(result.read_text())
    assert claimed["solution"] == [1]
    code, out, _ = run(capsys, "verify", str(result), "--matrix", str(mld))
    assert code == 0 and "PASS" in out
    for bad in ([-1], [True], [1, 1], [7]):
        claimed["solution"] = bad
        result.write_text(json.dumps(claimed))
        code, out, _ = run(capsys, "verify", str(result), "--matrix", str(mld))
        assert code == 1, bad
        assert "FAIL solution: missing or malformed" in out, bad


def test_verify_refuses_non_integer_weights_and_vertex_ids(tmp_path, capsys):
    """1.0 and True equal 1 in Python; a claimed weight or vertex id must be an int."""
    mld = tmp_path / "ones.mld"
    mld.write_text("mld 2 2\ne 0 0\ne 1 0\ne 0 1\ne 1 1\nw 5 1\nu 0 1\n")
    result = tmp_path / "r.json"
    code, _, _ = run(
        capsys, "solve", "--matrix", str(mld), "--algorithm", "brute", "--out", str(result)
    )
    assert code == 0
    claimed = json.loads(result.read_text())
    assert claimed["weight"] == 1 and claimed["solution"] == [1]
    for bad in (True, 1.0):
        claimed["weight"] = bad
        result.write_text(json.dumps(claimed))
        code, out, _ = run(capsys, "verify", str(result), "--matrix", str(mld))
        assert code == 1, bad
        assert "FAIL weight" in out, bad

    prefix = str(tmp_path / "strip")
    run(capsys, "gen", "strip", "--length", "3", "--out", prefix)
    instance = ["--complex", prefix + ".complex", "--boundary", prefix + ".boundary"]
    code, _, _ = run(
        capsys, "solve", *instance, "--algorithm", "treewidth", "--out", str(result)
    )
    assert code == 0
    claimed = json.loads(result.read_text())
    assert claimed["solution"][0] == [0, 1, 2]
    code, out, _ = run(capsys, "verify", str(result), *instance)
    assert code == 0 and "PASS" in out
    for first in ([0.0, 1.0, 2.0], [0, True, 2]):
        tampered = dict(claimed, solution=[first] + claimed["solution"][1:])
        result.write_text(json.dumps(tampered))
        code, out, _ = run(capsys, "verify", str(result), *instance)
        assert code == 1, first
        assert "FAIL solution: missing or malformed" in out, first


def test_solve_out_file_survives_closed_stdout(tmp_path, capsys, monkeypatch):
    """`mbc solve --out r.json | head` still writes r.json."""
    prefix = str(tmp_path / "oct")
    run(capsys, "gen", "octahedron", "--out", prefix)

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    result = tmp_path / "r.json"
    code = main(
        [
            "solve", "--complex", prefix + ".complex",
            "--algorithm", "dijkstra", "--out", str(result),
        ]
    )
    assert code == 1
    assert json.loads(result.read_text())["status"] == "optimal"


def test_solve_into_a_pipe_closed_after_one_line(tmp_path, capsys):
    """`mbc solve | head -1` exits 1 with nothing on stderr; --out is still written.

    The strip's JSON is larger than a pipe holds, so the solve is still
    writing when the reader closes its end."""
    prefix = str(tmp_path / "strip")
    run(capsys, "gen", "strip", "--length", "2500", "--out", prefix)
    result = tmp_path / "r.json"
    with subprocess.Popen(
        [
            sys.executable, "-m", "boundedchain.cli", "solve",
            "--complex", prefix + ".complex", "--boundary", prefix + ".boundary",
            "--algorithm", "treewidth", "--out", str(result),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert first == b"{\n"
    assert (code, err) == (1, "")
    assert json.loads(result.read_text())["status"] == "optimal"


def test_decompose_formats(tmp_path, capsys):
    """decompose reads what solve reads and writes the plain form solve --td takes."""
    prefix = str(tmp_path / "oct")
    run(capsys, "gen", "octahedron", "--out", prefix)
    oct_td = tmp_path / "oct.td"
    code, out, _ = run(
        capsys, "decompose", "--input", prefix + ".complex", "--out", str(oct_td)
    )
    assert code == 0
    td = parse_decomposition(oct_td)
    assert f"(width {td.width}, {td.n_nodes} nodes)" in out
    assert "kind" not in oct_td.read_text()
    # the emitted decomposition is accepted back by solve
    code, out, _ = run(
        capsys,
        "solve",
        "--complex", prefix + ".complex",
        "--algorithm", "treewidth",
        "--td", str(oct_td),
    )
    assert code == 0
    assert json.loads(out)["stats"]["decomposition"] == "given"
    # ... and by no other engine
    code, out, err = run(
        capsys,
        "solve",
        "--complex", prefix + ".complex",
        "--algorithm", "dijkstra",
        "--td", str(oct_td),
    )
    assert code == 1
    assert out == "" and "error:" in err and "treewidth" in err
    # graph files and decompositions are not decompose inputs
    graph = tmp_path / "g.graph"
    graph.write_text("graph 4\ne 0 1\ne 1 2\ne 2 3\n")
    for bad in (graph, oct_td):
        code, _, err = run(
            capsys, "decompose", "--input", str(bad), "--out", str(tmp_path / "x.td")
        )
        assert code == 1, bad
        assert "error:" in err, bad
    with pytest.raises(SystemExit):
        main(["decompose", "--help"])
    assert "--nice" not in capsys.readouterr().out


def test_decompose_mld_and_reruns(tmp_path, capsys):
    mld = tmp_path / "toy.mld"
    mld.write_text("mld 2 2\ne 0 0\ne 1 1\nw 1 1\n")
    a = tmp_path / "a.td"
    b = tmp_path / "b.td"
    for out_td in (a, b):
        code, _, _ = run(
            capsys, "decompose", "--input", str(mld), "--out", str(out_td)
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_csv(tmp_path, capsys):
    prefix = str(tmp_path / "strip")
    run(capsys, "gen", "strip", "--length", "2", "--out", prefix)
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    for out_csv in (csv_a, csv_b):
        code, _, _ = run(
            capsys,
            "bench", "--suite", str(tmp_path),
            "--algos", "dijkstra,treewidth,brute",
            "--reps", "2", "--no-timing", "--out", str(out_csv),
        )
        assert code == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()
    header = csv_a.read_text().splitlines()[0]
    assert "wall_time_s" not in header
    code, out, _ = run(
        capsys, "bench", "--suite", str(tmp_path), "--algos", "dijkstra"
    )
    assert code == 0
    assert "wall_time_s" in out.splitlines()[0]


def test_bench_refuses_no_reps_and_a_missing_suite(tmp_path, capsys):
    """A header-only CSV with exit 0 would report success on nothing."""
    run(capsys, "gen", "strip", "--length", "2", "--out", str(tmp_path / "strip"))
    for reps in ("0", "-2"):
        code, out, err = run(
            capsys, "bench", "--suite", str(tmp_path), "--algos", "dijkstra", "--reps", reps
        )
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "reps" in err
    code, out, err = run(
        capsys, "bench", "--suite", str(tmp_path / "nope"), "--algos", "dijkstra"
    )
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "nope" in err


def test_size_bound_outside_dijkstra_is_a_usage_error(tmp_path, capsys):
    prefix = str(tmp_path / "strip")
    run(capsys, "gen", "strip", "--length", "10", "--out", prefix)
    instance = ["--complex", prefix + ".complex", "--boundary", prefix + ".boundary"]
    for option in (["--k", "3"], ["--pivot", "max-step"]):
        code, out, err = run(capsys, "solve", *instance, "--algorithm", "treewidth", *option)
        assert code == 1
        assert out == "" and "error:" in err and "dijkstra" in err
    code, out, err = run(
        capsys, "solve", *instance, "--algorithm", "dijkstra", "--max-states", "0"
    )
    assert code == 1
    assert "error:" in err
    code, out, _ = run(
        capsys, "bench", "--suite", str(tmp_path),
        "--algos", "dijkstra,treewidth,brute", "--k", "3", "--no-timing",
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(r[1], r[3], r[4]) for r in rows] == [
        ("dijkstra", "not_found_within_bound", ""),
        ("treewidth", "error", "UsageError"),
        ("brute", "error", "UsageError"),
    ]


def test_errors_exit_one(tmp_path, capsys):
    code, _, err = run(
        capsys, "solve", "--complex", str(tmp_path / "nope.complex"),
        "--algorithm", "brute",
    )
    assert code == 1
    assert "error:" in err
    bad = tmp_path / "bad.complex"
    bad.write_text("dim 2\ns 0 1\n")
    code, _, err = run(capsys, "solve", "--complex", str(bad), "--algorithm", "brute")
    assert code == 1
    assert "line 2" in err
    code, _, err = run(
        capsys, "bench", "--suite", str(tmp_path), "--algos", " , "
    )
    assert code == 1


def test_choice_lists_come_from_the_package(capsys, monkeypatch):
    from boundedchain.decomposition import HEURISTICS
    from boundedchain.dijkstra import DEFAULT_MAX_STATES, MAX_STATES_ENV, PIVOT_STRATEGIES
    from boundedchain.facade import ALGORITHMS

    def help_text(*argv):
        with pytest.raises(SystemExit):
            main([*argv, "--help"])
        return " ".join(capsys.readouterr().out.split())

    # the help text is the same whatever the environment holds
    monkeypatch.setenv(MAX_STATES_ENV, "17")
    solve_help = help_text("solve")
    for choices in (ALGORITHMS, PIVOT_STRATEGIES, HEURISTICS):
        assert "{" + ",".join(choices) + "}" in solve_help
    assert f"default {DEFAULT_MAX_STATES}, or {MAX_STATES_ENV} if set" in solve_help
    assert "17" not in solve_help
    assert "{" + ",".join(HEURISTICS) + "}" in help_text("decompose")
    verify_help = help_text("verify")
    assert "--against" not in verify_help
    # the oracle mode follows from the input, and feasibility is always checked
    for removed in ("--oracle-mode", "--no-feasibility-check"):
        assert removed not in solve_help and removed not in verify_help
