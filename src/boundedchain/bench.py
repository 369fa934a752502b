"""Benchmark harness: run algorithms over an instance directory, emit CSV.

One CSV row per (instance, algorithm, repetition) run; aggregation is left
to scripts. A usage or input error becomes a status "error" row, so a sweep
does not die half way; a consistency error is a bug and propagates. Timing
columns can be dropped for byte-reproducible output.
"""

from __future__ import annotations

import csv
import io
import time
from pathlib import Path

from .complexes import Gf2Matrix
from .errors import InputError, UsageError
from .facade import Instance, instance_from_complex, instance_from_matrix, solve
from .fileio import parse_boundary, parse_complex, parse_matrix
from .results import Status

STAT_COLUMNS = ["width", "states_expanded", "table_entries", "join_pairs"]
CSV_COLUMNS = ["instance", "algorithm", "rep", "status", "weight", "scale", *STAT_COLUMNS, "wall_time_s"]


def discover_instances(suite_dir) -> list[tuple[str, Instance]]:
    """Load ``*.complex`` (paired with ``*.boundary``) and ``*.mld`` files."""
    suite = Path(suite_dir)
    if not suite.is_dir():
        raise InputError(f"suite {suite_dir} is not a directory")
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


def _fresh(instance: Instance) -> Instance:
    """An equal instance on a new matrix, so every repetition pays the lazy
    per-matrix caches (``col_masks``, ``row_cols``) inside its timed solve."""
    m = instance.matrix
    matrix = Gf2Matrix(m.nrows, m.ncols, m.col_rows, m.col_weights, m.scale)
    return Instance(matrix, instance.target, instance.cslice)


def run_suite(
    suite_dir,
    algorithms: list[str],
    reps: int = 1,
    *,
    k: int | None = None,
    timing: bool = True,
) -> list[dict]:
    """Run every algorithm on every instance; one result dict per run."""
    if reps < 1:
        raise UsageError(f"reps must be >= 1, got {reps}")
    rows: list[dict] = []
    for name, instance in discover_instances(suite_dir):
        for algo in algorithms:
            for rep in range(reps):
                run = _fresh(instance)
                row = dict.fromkeys(CSV_COLUMNS, "")
                row.update(instance=name, algorithm=algo, rep=rep, scale=instance.scale)
                start = time.perf_counter()
                try:
                    result = solve(run, algo, k=k)
                except (UsageError, InputError) as exc:
                    row["status"] = "error"
                    row["weight"] = type(exc).__name__
                else:
                    row["status"] = result.status.value
                    if result.status is Status.OPTIMAL:
                        row["weight"] = result.weight
                    row.update((key, result.stats[key]) for key in STAT_COLUMNS if key in result.stats)
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
