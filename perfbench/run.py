"""Solve benchmark for boundedchain: four workloads, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload slice3_treewidth --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table each

Each workload runs in its own child process (perfbench/worker.py) under an
address-space limit, so a MemoryError or a killed child counts as failed
solves instead of ending the run; a killed child is restarted without the
instance it died on. ``--trace 0`` prints the end-to-end metrics, ``--trace
1`` the per-layer ones. The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 1 when
any answer was wrong or any solve failed, 2 when the benchmark itself could
not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_MEMORY_BYTES = 2 << 30
MAX_CHILDREN = 4

END_TO_END_UNITS = {
    "solve_s.p50": "s",
    "solve_s.p90": "s",
    "solves_per_s": "1/s",
    "fail_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY_BYTES, CHILD_MEMORY_BYTES))


def run_child(workload: str, seed: int, seconds: float, trace: int, skip: list[int]):
    """Run worker.py to completion; returns (events, peak RSS in MB, exit status)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--skip", ",".join(map(str, skip)),
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, preexec_fn=_limit_memory
    )
    events = []
    with proc.stdout:
        for line in proc.stdout:
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                pass  # a line cut short when the child was killed
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return events, usage.ru_maxrss / 1024, proc.returncode


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """All children of one run; returns solve events, set-up times, peak RSS, summary."""
    solves, skip, setup, summary = [], [], None, None
    peak_mb, wall, remaining = 0.0, 0.0, seconds
    for children in range(1, MAX_CHILDREN + 1):
        events, child_mb, code = run_child(workload, seed, remaining, trace, skip)
        peak_mb = max(peak_mb, child_mb)
        in_flight, last_elapsed = None, 0.0
        for ev in events:
            if ev["ev"] == "setup" and setup is None:
                setup = ev
            elif ev["ev"] == "begin":
                in_flight = ev["i"]
            elif ev["ev"] == "solve":
                in_flight = None
                solves.append(ev)
                last_elapsed = ev["elapsed"]
            elif ev["ev"] == "summary":
                summary = ev
        if code == 0 and summary is not None:
            wall += summary.get("wall", last_elapsed)
            break
        if in_flight is None:
            raise SystemExit(f"{workload}: worker exited with status {code} outside a solve")
        phase = solves[-1]["phase"] if solves else "timed"
        solves.append(
            {"ev": "solve", "phase": phase, "i": in_flight, "t": None, "status": None,
             "failure": f"child died with status {code}", "wrong": False}
        )
        wall += last_elapsed
        remaining = max(seconds - wall, 1.0)
        skip.append(in_flight)
    else:
        raise SystemExit(f"{workload}: {MAX_CHILDREN} children died; giving up")
    return {
        "solves": solves,
        "setup": setup,
        "peak_mb": peak_mb,
        "children": children,
        "wall": wall,
        "summary": summary,
    }


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics. Over six slice2_bounded runs its 90th percentile spread
    (interquartile range / median) was 0.15, against 0.20 for the usual
    interpolation between two order statistics."""
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(u: float) -> float:
        if u <= 0.0 or u >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(u) + (b - 1) * math.log1p(-u) - log_norm)

    steps = 32  # Simpson's rule on each cell [i/n, (i+1)/n]
    total = weight_sum = 0.0
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        cell = pdf(lo) + pdf(lo + steps * h)
        cell += sum((4 if k % 2 else 2) * pdf(lo + k * h) for k in range(1, steps))
        total += x[i] * cell
        weight_sum += cell
    return total / weight_sum


def end_to_end(run: dict, key: str) -> tuple[dict, dict]:
    """End-to-end metrics and their sample counts, from the times under
    ``key``: "t" (wall seconds) or "t_ref" (scaled to the reference speed)."""
    timed = [s for s in run["solves"] if s["phase"] == "timed"]
    # a failed solve is no answer, so its time is no sample of solve time
    times = [s[key] for s in timed if not s["failure"]]
    if not times:
        raise SystemExit("every timed solve failed")
    failed = sum(1 for s in timed if s["failure"])
    setup = run["setup"]["seconds_ref" if key == "t_ref" else "seconds"]
    metrics = {
        "solve_s.p50": quantile(times, 0.5),
        "solve_s.p90": quantile(times, 0.9),
        "solves_per_s": len(times) / sum(times),
        "fail_frac": failed / len(timed),
        "peak_rss_mb": run["peak_mb"],
        "setup_s": statistics.median(setup),
    }
    samples = {name: len(times) for name in metrics}
    samples["fail_frac"] = len(timed)
    samples["peak_rss_mb"] = run["children"]
    samples["setup_s"] = len(setup)
    return metrics, samples


def print_table(workload: str, rows: list[tuple[str, float, str, str]]) -> None:
    print(f"== {workload}")
    for name, value, unit, note in rows:
        print(f"  {name:<34} {value:>14.6g} {unit:<6} {note}")


def report(workload: str, run: dict, trace: int, solve_layers) -> dict:
    """Print the workload's table; returns its result object.

    ``solve_layers`` names the per-layer times that are shares of a solve."""
    solves = run["solves"]
    wrong = [s for s in solves if s["wrong"]]
    for s in solves:
        if s["failure"]:
            print(f"  FAIL {workload} item {s['i']}: {s['failure']}", file=sys.stderr)
    if not trace:
        metrics, samples = end_to_end(run, "t_ref")
        wall, _ = end_to_end(run, "t")
        units = END_TO_END_UNITS
        rows = []
        for m, v in metrics.items():
            note = f"n={samples[m]:<4}" + (f" wall {wall[m]:.6g}" if wall[m] != v else "")
            rows.append((m, v, units[m], note))
        print_table(workload, rows)
        # fail_frac is 0 on a healthy run and a tracked metric may never be 0;
        # failures are reported in "attempted" and "failed" and in the exit code.
        del metrics["fail_frac"]
        result_metrics = {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}
    else:
        layers = run["summary"]["layers"]
        solve_s = layers.pop("facade.solve_s")
        rows = []
        for name, value in layers.items():
            share = name in solve_layers and solve_s > 0
            note = f"{100 * value / solve_s:5.1f}% of traced solve time" if share else ""
            rows.append((name, value, layer_unit(name), note))
        traced = sum(1 for s in solves if s["phase"] == "traced")
        rows.append(("(traced solve time)", solve_s, "s", f"n={traced}"))
        print_table(workload, rows)
        result_metrics = {m: {"value": v, "unit": layer_unit(m)} for m, v in layers.items()}
    return {
        "correct": not wrong,
        "attempted": len(solves),
        "failed": sum(1 for s in solves if s["failure"]),
        "metrics": result_metrics,
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("dijkstra.useful_ratio", "trace.overhead"):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "boundedchain" / "__init__.py").is_file():
        print(f"boundedchain sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from spans import LAYER_TIMES
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS + ("all",):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        run = run_workload(workload, args.seed, args.seconds, args.trace)
        results[workload] = report(workload, run, args.trace, LAYER_TIMES)
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] and not final["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
