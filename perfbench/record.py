"""Record a performance point: many seeded runs of every workload, summarised.

For each workload (by default those of ``BENCHMARK.json``) this runs
``run.py --trace 0`` once per seed and
``run.py --trace 1`` once, then writes a JSON file with, per end-to-end
metric, the median, the quartiles and their spread (interquartile range as a
share of the median), and the per-layer metrics of the traced run. It prints
the spreads as it goes. Run from the repository root:

    python3 perfbench/record.py --seeds 101-110 \
        --workload strip_treewidth slice3_treewidth slice2_dijkstra slice2_bounded \
        --out perfbench/baseline/BENCH_1.json
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}")
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "runs": values,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="101-110", help="a range lo-hi or a comma list")
    parser.add_argument("--workload", nargs="*")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    point = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "run_seconds": seconds,
        "seeds": seeds,
        "end_to_end": {},
        "per_layer": {},
    }
    for workload in workloads:
        runs = [run(workload, seed, seconds, 0) for seed in seeds]
        metrics = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            metrics[m["name"]] = dict(unit=m["unit"], bound=m["bound"], **summarise(values))
            print(
                f"{workload:18} {m['name']:14} median {metrics[m['name']]['median']:.6g}"
                f" {m['unit']:4} spread {metrics[m['name']]['spread']:.3f} (bound {m['bound']})",
                flush=True,
            )
        point["end_to_end"][workload] = metrics
        traced = run(workload, seeds[0], seconds, 1)
        point["per_layer"][workload] = {m: v["value"] for m, v in traced["metrics"].items()}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(point, indent=1) + "\n")


if __name__ == "__main__":
    main()
