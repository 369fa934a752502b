"""Spans around the calls into each layer, recorded from outside the package.

The tracer replaces a module attribute with a timing wrapper, at the module
where the caller looks the name up (``treewidth.make_nice``, not
``decomposition.make_nice``), so the package source stays untouched.
Spans are kept in memory as (name, start, end, parent, solve id) and
written out when the run ends. A layer's self time is its span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import csv
import statistics
import time
from collections import defaultdict

from boundedchain import dijkstra, facade, fileio, generators, treewidth

# (module, attribute) -> span name. Each name is wrapped where its caller
# looks it up.
PATCH_POINTS = {
    (generators, "triangle_strip"): "generators.build",
    (generators, "random_slice"): "generators.build",
    (generators, "random_boundary"): "generators.build",
    (fileio, "parse_complex_text"): "fileio.parse",
    (fileio, "parse_boundary_text"): "fileio.parse",
    (fileio, "parse_matrix_text"): "fileio.parse",
    (facade, "solve"): "facade.solve",
    (facade, "verify_witness"): "facade.verify",
    (facade, "solve_mld_treewidth"): "treewidth.solve",
    (facade, "solve_mld_dijkstra"): "dijkstra.solve",
    (treewidth, "hasse_graph"): "complexes.incidence",
    (treewidth, "greedy_decomposition"): "decomposition.elim",
    (treewidth, "make_nice"): "decomposition.nice",
    (treewidth, "process_bag"): "treewidth.dp",
    (treewidth, "backtrack"): "treewidth.backtrack",
    (dijkstra, "feasibility_check"): "complexes.feasibility",
}

HOOK = "trace.hook"

# Per-layer time metrics, in seconds per traced solve: metric -> (span, use self time).
LAYER_TIMES = {
    "complexes.incidence_s": ("complexes.incidence", False),
    "decomposition.elim_s": ("decomposition.elim", False),
    "decomposition.nice_s": ("decomposition.nice", False),
    "treewidth.dp_s": ("treewidth.dp", False),
    "treewidth.backtrack_s": ("treewidth.backtrack", False),
    "treewidth.self_s": ("treewidth.solve", True),
    "complexes.feasibility_s": ("complexes.feasibility", False),
    "dijkstra.search_s": ("dijkstra.solve", True),
    "facade.verify_s": ("facade.verify", False),
    "facade.self_s": ("facade.solve", True),
}

SETUP_TIMES = {"generators.build_s": "generators.build", "fileio.parse_s": "fileio.parse"}


class Tracer:
    """Records spans while installed; ``solve_id`` tags the spans of one solve."""

    def __init__(self):
        self.spans: list = []
        self.solve_id = -1
        self.counts: dict = defaultdict(dict)
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> None:
        for (module, attr), name in PATCH_POINTS.items():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.solve_id)
            if hook is not None:
                hook(result, parent)
            return result

        return wrapper

    def _on_decomposition_nice(self, ntd, parent) -> None:
        start = time.perf_counter()
        counts = self.counts[self.solve_id]
        counts["decomposition.width"] = ntd.width
        counts["decomposition.cost_bound"] = sum(1 << len(bag) for bag in ntd.bags)
        self.spans.append((HOOK, start, time.perf_counter(), parent, self.solve_id))

    def _on_treewidth_dp(self, result, parent) -> None:
        counts = self.counts[self.solve_id]
        size = len(result[0])
        if size > counts.get("treewidth.peak_table", 0):
            counts["treewidth.peak_table"] = size

    def layer_times(self, solve_ids) -> dict:
        """Per-layer seconds per solve over the given solves, and the solve span itself."""
        wanted = set(solve_ids)
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, sid in self.spans:
            if sid in wanted and parent >= 0:
                child_time[parent] += end - start
        total: dict[tuple[str, bool], float] = defaultdict(float)
        for i, (name, start, end, parent, sid) in enumerate(self.spans):
            if sid in wanted:
                total[name, False] += end - start
                total[name, True] += end - start - child_time[i]
        n = len(wanted)
        out = {metric: total[key] / n for metric, key in LAYER_TIMES.items()}
        out["facade.solve_s"] = total["facade.solve", False] / n
        return out

    def setup_times(self, setup_ids) -> dict:
        """Median over set-up repetitions of the seconds spent in each set-up layer."""
        out = {}
        for metric, name in SETUP_TIMES.items():
            per_rep = [
                sum(end - start for n, start, end, _p, sid in self.spans if n == name and sid == rep)
                for rep in setup_ids
            ]
            out[metric] = statistics.median(per_rep)
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "name", "start", "end", "parent", "solve"))
            for i, (name, start, end, parent, sid) in enumerate(self.spans):
                out.writerow((i, name, f"{start:.9f}", f"{end:.9f}", parent, sid))
