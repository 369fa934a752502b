"""Self-test of the benchmark: its exact counts repeat across runs at one seed.

Runs ``run.py --trace 1`` twice per workload at the same seed, each in fresh
processes, and requires every count below to be identical between the two,
every answer to be correct and no solve to fail. It also requires both
kinds of run to print exactly the metrics ``BENCHMARK.json`` declares. Run
from the repository root (takes about five minutes):

    python3 perfbench/selftest.py [--seed 3] [--workload slice2_bounded ...]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import BOUNDED, WORKLOADS  # noqa: E402

COUNTS = (
    "decomposition.width",
    "decomposition.cost_bound",
    "treewidth.table_entries",
    "treewidth.join_pairs",
    "treewidth.peak_table",
    "dijkstra.states_expanded",
    "dijkstra.pushes",
    "dijkstra.frontier_peak",
    "dijkstra.visited",
    "status.optimal",
    "status.not_found_within_bound",
)

def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--workload", nargs="*", default=WORKLOADS)
    args = parser.parse_args()
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bad = []
    untraced = one_run(args.workload[0], args.seed, 0)
    if set(untraced["metrics"]) != {m["name"] for m in declared["end_to_end"]}:
        bad.append(f"end-to-end metrics {sorted(untraced['metrics'])} differ from BENCHMARK.json")
    if not untraced["correct"] or untraced["failed"]:
        bad.append(f"untraced run: correct={untraced['correct']} failed={untraced['failed']}")
    for workload in args.workload:
        first, second = one_run(workload, args.seed, 1), one_run(workload, args.seed, 1)
        # the status mix is printed only where it can be other than all optimal;
        # elsewhere the answer gate checks that every answer is optimal
        expected = {m["name"] for m in declared["per_layer"]}
        if workload in BOUNDED:
            expected |= {"status.optimal", "status.not_found_within_bound"}
        if set(first["metrics"]) != expected:
            bad.append(f"{workload}: per-layer metrics differ from BENCHMARK.json")
        for run in (first, second):
            if not run["correct"] or run["failed"]:
                bad.append(f"{workload}: correct={run['correct']} failed={run['failed']}")
        for name in (n for n in COUNTS if n in expected):
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                bad.append(f"{workload}: {name} {a} != {b}")
        shown = {n: v["value"] for n, v in first["metrics"].items() if n in COUNTS and v["value"]}
        print(f"{workload}: {json.dumps(shown)}")
    for line in bad:
        print("FAIL", line)
    print("selftest:", "FAIL" if bad else "ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
