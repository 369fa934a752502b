"""One benchmark run of one workload, in the child process run.py starts.

Builds the run's instance set once, warms up on it, builds it several more
times (the timed set-up), then solves in a closed loop: one client, no
threads, the next solve starts when the previous one returns. Every solve
gets a fresh instance object and its answer is checked. Events go to stdout
as one JSON object per line:

- ``{"ev": "setup", "seconds": [...], "seconds_ref": [...]}`` after the
  set-up repetitions;
- ``{"ev": "begin", "i": ...}`` before each solve, so that run.py knows
  which instance was in flight if this process is killed;
- ``{"ev": "solve", ...}`` after each solve;
- ``{"ev": "summary", ...}`` at the end, with the per-layer metrics when
  tracing.

With ``--trace 1`` each instance is solved untraced and then traced, back
to back, so the tracing overhead is measured in the same process.

The speed of the host this runs on drifts by a third and more from one
minute to the next, and every phase of a run slows together. So each solve
is preceded, and each set-up repetition bracketed, by a fixed pure-Python
reference loop that does not touch the package, and each time is also
reported scaled to the speed at which that loop takes ``REFERENCE_SECONDS``
(``t_ref = t * REFERENCE_SECONDS / loop time``).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from boundedchain import facade  # noqa: E402
from boundedchain.errors import BoundedChainError, ConsistencyError  # noqa: E402
from boundedchain.results import Status  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 3.0
WARMUP_SECONDS = 2.0
MIN_SOLVES = 100
SPAN_DIR = ROOT / ".perfbench_out"
# The reference loop's time on a 2-vCPU x86-64 VM; it only sets the scale.
REFERENCE_SECONDS = 0.006

# Counts taken from the result stats of each solve.
STAT_COUNTS = {
    "table_entries": "treewidth.table_entries",
    "join_pairs": "treewidth.join_pairs",
    "states_expanded": "dijkstra.states_expanded",
    "pushes": "dijkstra.pushes",
    "frontier_peak": "dijkstra.frontier_peak",
    "visited": "dijkstra.visited",
}
MAX_COUNTS = {"decomposition.width", "treewidth.peak_table", "dijkstra.frontier_peak"}
STATUSES = ("optimal", "not_found_within_bound")


def emit(**event) -> None:
    print(json.dumps(event), flush=True)


def reference_loop() -> float:
    """Seconds a fixed loop of the dict, set and int work a solve does takes
    now, without calling the package."""
    start = time.perf_counter()
    table, live, x = {}, set(), 1
    for i in range(8000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x % 2000
        table[key] = table.get(key, 0) + i
        live ^= {key, key + 1}
    sorted(table.items())
    return time.perf_counter() - start


def solve_one(item: wl.Item, algorithm: str):
    """Time one solve on a fresh instance; returns (seconds, result, failure, wrong)."""
    instance = wl.fresh(item.instance)
    start = time.perf_counter()
    try:
        result = facade.solve(instance, algorithm, k=item.k)
    except ConsistencyError as exc:
        # solve's own check of the witness against the reported weight
        return time.perf_counter() - start, None, f"ConsistencyError: {exc}", True
    except (BoundedChainError, MemoryError) as exc:
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}", False
    seconds = time.perf_counter() - start
    if result.status is Status.RESOURCE_LIMIT:
        return seconds, result, "resource_limit", False
    reason = wl.check(item, result)
    return seconds, result, reason, reason is not None


class Loop:
    """The closed loop over a run's set, in passes of seeded random order."""

    def __init__(self, items, algorithm, seed, skip):
        self.items = items
        self.algorithm = algorithm
        self.rng = random.Random(seed)
        self.order = [i for i in range(len(items)) if i not in skip]
        if not self.order:
            raise SystemExit("every instance of the set was skipped")
        self.next_id = 0
        self.started = time.perf_counter()

    def solve(self, phase, i, tracer=None):
        """One timed solve of item i, reported as events; returns its record."""
        sid = self.next_id
        self.next_id += 1
        emit(ev="begin", i=i)
        gc.collect()  # each solve starts on a clean heap, as in a fresh process
        ref = reference_loop()
        if tracer is not None:
            tracer.solve_id = sid
            tracer.install()
        try:
            t, result, failure, wrong = solve_one(self.items[i], self.algorithm)
        finally:
            if tracer is not None:
                tracer.remove()
        emit(
            ev="solve",
            phase=phase,
            i=i,
            t=t,
            t_ref=t * REFERENCE_SECONDS / ref,
            status=result.status.value if result else None,
            failure=failure,
            wrong=wrong,
            elapsed=time.perf_counter() - self.started,
        )
        return sid, i, t, result

    def run(self, seconds, min_solves=0, tracer=None):
        """Solve whole passes over the set: as many as fit ``seconds`` best,
        judged by the first pass, and enough for ``min_solves``. Whole passes
        weigh every instance equally, so the quantiles do not depend on where
        the time ran out.

        Without a tracer every solve is timed untraced ("timed"). With one,
        each instance is solved untraced ("base") and then traced ("traced"),
        back to back, so that drift in machine speed cancels out of the
        tracing overhead, the median ratio of the two. Returns the lists of
        (solve id, item, seconds, result) per phase and the wall time."""
        done: dict[str, list] = {}
        start = self.started = time.perf_counter()
        passes, target = 0, 1
        while passes < target:
            self.rng.shuffle(self.order)
            for i in self.order:
                if tracer is None:
                    done.setdefault("timed", []).append(self.solve("timed", i))
                else:
                    done.setdefault("base", []).append(self.solve("base", i))
                    done.setdefault("traced", []).append(self.solve("traced", i, tracer))
            passes += 1
            if passes == 1:
                first = time.perf_counter() - start
                target = max(round(seconds / first), math.ceil(min_solves / len(self.order)), 1)
        return done, time.perf_counter() - start


def warm_up(loop: Loop) -> None:
    """Solve for a while before timing, so the first timed solves do not run
    on a cold interpreter and CPU. Uses fresh instances like the timed loop."""
    start = time.perf_counter()
    while time.perf_counter() - start < WARMUP_SECONDS:
        for i in loop.order:
            emit(ev="begin", i=i)
            solve_one(loop.items[i], loop.algorithm)
            if time.perf_counter() - start >= WARMUP_SECONDS:
                break


def pass_counts(done, tracer, statuses) -> dict:
    """Counts over the distinct instances of the set, each solved once."""
    per_item = {}
    for sid, i, _t, result in done:
        if i in per_item or result is None:
            continue
        counts = dict(tracer.counts.get(sid, {}))
        for key, metric in STAT_COUNTS.items():
            if key in result.stats:
                counts[metric] = result.stats[key]
        counts[f"status.{result.status.value}"] = 1
        per_item[i] = counts
    names = set(STAT_COUNTS.values()) | {
        "decomposition.width",
        "decomposition.cost_bound",
        "treewidth.peak_table",
    } | {f"status.{s}" for s in statuses}
    out = {}
    for name in sorted(names):
        values = [c.get(name, 0) for c in per_item.values()] or [0]
        out[name] = max(values) if name in MAX_COUNTS else sum(values)
    pushes = out["dijkstra.pushes"]
    out["dijkstra.useful_ratio"] = out["dijkstra.states_expanded"] / pushes if pushes else 0.0
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--skip", default="", help="comma-separated item indices to leave out")
    args = parser.parse_args()
    skip = {int(s) for s in args.skip.split(",") if s}

    # The first build and the warm-up take the cold start (imports, first
    # touches of the allocator, CPU frequency) out of the timed set-up.
    items = wl.build_set(args.workload, args.seed)
    loop = Loop(items, wl.ALGORITHM[args.workload], args.seed, skip)
    warm_up(loop)

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    setup_seconds, setup_ref = [], []
    gc.collect()
    ref = reference_loop()
    while len(setup_seconds) < SETUP_MIN_REPS or sum(setup_seconds) < SETUP_MIN_SECONDS:
        if tracer:
            tracer.solve_id = -1 - len(setup_seconds)
        start = time.perf_counter()
        wl.build_set(args.workload, args.seed)
        setup_seconds.append(time.perf_counter() - start)
        gc.collect()  # so no repetition pays for collecting the previous one's set
        # a repetition lasts up to a second: scale by the loops on both sides
        ref_before, ref = ref, reference_loop()
        setup_ref.append(setup_seconds[-1] * REFERENCE_SECONDS * 2 / (ref_before + ref))
    emit(ev="setup", seconds=setup_seconds, seconds_ref=setup_ref)
    summary = {}
    if tracer:
        tracer.remove()
        summary["layers"] = tracer.setup_times([-1 - rep for rep in range(len(setup_seconds))])

    if not tracer:
        _done, summary["wall"] = loop.run(args.seconds, MIN_SOLVES)
    else:
        done, _wall = loop.run(args.seconds, tracer=tracer)
        base, traced = done["base"], done["traced"]
        layers = summary["layers"]
        layers.update(tracer.layer_times([sid for sid, *_ in traced]))
        statuses = STATUSES if args.workload in wl.BOUNDED else ()
        layers.update(pass_counts(traced, tracer, statuses))
        # base[j] and traced[j] are back-to-back solves of one instance
        layers["trace.overhead"] = (
            statistics.median(t[2] / b[2] for b, t in zip(base, traced)) - 1
        )
        tracer.write(SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
    emit(ev="summary", **summary)


if __name__ == "__main__":
    main()
