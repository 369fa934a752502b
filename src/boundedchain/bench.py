"""Benchmark harness: run algorithms over an instance directory, emit CSV.

One CSV row per (instance, algorithm, repetition) run; aggregation is left
to scripts. Solver failures become status "error" rows so a sweep never
dies half way. Timing columns can be dropped for byte-reproducible output.
"""

from __future__ import annotations

import csv
import io
import time
from pathlib import Path

from .errors import BoundedChainError
from .facade import Instance, instance_from_complex, instance_from_matrix, solve
from .fileio import parse_boundary, parse_complex, parse_matrix
from .results import Status

CSV_COLUMNS = [
    "instance",
    "algorithm",
    "rep",
    "status",
    "weight",
    "scale",
    "width",
    "states_expanded",
    "table_entries",
    "join_pairs",
    "wall_time_s",
]


def discover_instances(suite_dir) -> list[tuple[str, Instance]]:
    """Load ``*.complex`` (paired with ``*.boundary``) and ``*.mld`` files."""
    suite = Path(suite_dir)
    found: list[tuple[str, Instance]] = []
    for path in sorted(suite.glob("*.complex")):
        cslice = parse_complex(path)
        bpath = path.with_suffix(".boundary")
        boundary = parse_boundary(bpath, cslice) if bpath.exists() else ()
        found.append((path.stem, instance_from_complex(cslice, boundary)))
    for path in sorted(suite.glob("*.mld")):
        matrix, target = parse_matrix(path)
        found.append((path.stem, instance_from_matrix(matrix, target)))
    return found


def run_suite(
    suite_dir,
    algorithms: list[str],
    reps: int = 1,
    *,
    k: int | None = None,
    timing: bool = True,
) -> list[dict]:
    """Run every algorithm on every instance; one result dict per run."""
    rows: list[dict] = []
    for name, instance in discover_instances(suite_dir):
        for algo in algorithms:
            for rep in range(reps):
                row = {
                    "instance": name,
                    "algorithm": algo,
                    "rep": rep,
                    "status": "",
                    "weight": "",
                    "scale": instance.scale,
                    "width": "",
                    "states_expanded": "",
                    "table_entries": "",
                    "join_pairs": "",
                    "wall_time_s": "",
                }
                start = time.perf_counter()
                try:
                    result = solve(instance, algo, k=k)
                except BoundedChainError as exc:
                    row["status"] = "error"
                    row["weight"] = type(exc).__name__
                else:
                    row["status"] = result.status.value
                    if result.status is Status.OPTIMAL:
                        row["weight"] = result.weight
                    for key in ("width", "states_expanded", "table_entries", "join_pairs"):
                        if key in result.stats:
                            row[key] = result.stats[key]
                if timing:
                    row["wall_time_s"] = f"{time.perf_counter() - start:.6f}"
                rows.append(row)
    return rows


def rows_to_csv(rows: list[dict], timing: bool = True) -> str:
    columns = CSV_COLUMNS if timing else CSV_COLUMNS[:-1]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
