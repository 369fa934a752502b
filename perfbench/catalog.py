"""Rebuild catalog.json: the ranked instance populations of the slice workloads.

For each random-slice workload this solves generator seeds 0..N-1 with the
workload's engine, three times each on fresh instances, and records the
median wall time (which ranks the population), the work one solve did
(table entries or states expanded), and the expected answer from an
independent reference:

- slice3_treewidth: unbounded dijkstra on the same instance;
- slice2_dijkstra: treewidth on the same instance;
- slice2_bounded, unit weights: the unbounded optimum (treewidth); its
  cardinality decides between optimal and not_found_within_bound;
- slice2_bounded, random weights: dijkstra with the same k and
  pivot="min-index".

An instance on which the engine and its reference disagree stops the build.
Run from the repository root (takes a few minutes):

    python3 perfbench/catalog.py
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from boundedchain.facade import solve  # noqa: E402
from boundedchain.results import Status  # noqa: E402

import workloads as wl  # noqa: E402

POPULATION = 400
TIMED_SOLVES = 3


def reference(workload: str, gen_seed: int, instance, k):
    if workload == "slice3_treewidth":
        ref = solve(instance, "dijkstra")
    elif workload == "slice2_dijkstra":
        ref = solve(instance, "treewidth")
    elif wl.slice_weights(workload, gen_seed) == "unit":
        ref = solve(instance, "treewidth")
        if len(ref.witness) > k:
            return ("not_found_within_bound", None)
    else:
        ref = solve(instance, "dijkstra", k=k, pivot="min-index")
    return (ref.status.value, ref.weight if ref.status is Status.OPTIMAL else None)


def entry(workload: str, gen_seed: int) -> dict:
    texts = wl.generate_texts(workload, gen_seed)
    instance = wl.parse_texts(texts)
    k = wl.bound_k(workload, instance)
    times = []
    for _ in range(TIMED_SOLVES):
        fresh = wl.fresh(instance)
        gc.collect()
        start = time.perf_counter()
        result = solve(fresh, wl.ALGORITHM[workload], k=k)
        times.append(time.perf_counter() - start)
    expect = reference(workload, gen_seed, wl.parse_texts(texts), k)
    item = wl.Item(gen_seed, instance, k, expect)
    reason = wl.check(item, result)
    if reason:
        raise SystemExit(f"{workload} seed {gen_seed}: engine disagrees with reference: {reason}")
    work = result.stats["table_entries" if wl.ALGORITHM[workload] == "treewidth" else "states_expanded"]
    return {
        "spec": gen_seed,
        "seconds": round(statistics.median(times), 6),
        "work": work,
        "sha": wl.fingerprint(texts),
        "expect": list(expect),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", nargs="*", default=list(wl.SLICE_SHAPE), help="rebuild only these"
    )
    args = parser.parse_args()
    catalog = wl.load_catalog() if wl.CATALOG.exists() else {}
    for workload in args.workload:
        entries = [entry(workload, s) for s in range(POPULATION)]
        entries.sort(key=lambda e: (e["seconds"], e["spec"]))
        catalog[workload] = {"shape": list(wl.SLICE_SHAPE[workload]), "entries": entries}
        print(f"{workload}: {len(entries)} instances", file=sys.stderr)
    lines = ["{"]
    catalog = {w: catalog[w] for w in wl.SLICE_SHAPE}
    for wi, (workload, data) in enumerate(catalog.items()):
        lines.append(f'  "{workload}": {{"shape": {json.dumps(data["shape"])}, "entries": [')
        rows = [f"    {json.dumps(e, sort_keys=True)}" for e in data["entries"]]
        lines.append(",\n".join(rows))
        lines.append("  ]}" + ("," if wi < len(catalog) - 1 else ""))
    lines.append("}")
    wl.CATALOG.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
