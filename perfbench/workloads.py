"""The four solve workloads: instance populations, seeded draws and answer checks.

Every instance is generated with ``boundedchain.generators``, written to the
package's text formats and parsed back, so a solve sees exactly what
``mbc gen`` followed by ``mbc solve`` would hand it.

Solve time on the random slices is heavy-tailed (the slowest of 400
instances does 12-27 times the median's work), so a plain random draw of one
run's set moves the median work by about 20% from seed to seed. Each run
therefore draws a stratified sample: ``catalog.json`` ranks a fixed
population of generator seeds by solve time measured when the catalog was
built, and a run takes one instance from each of ``set_size - 1``
equal-count strata plus the slowest kept instance, which is in every set so
that the tail and the peak memory do not depend on the seed. The slowest 1%
of the population is left out: one of those takes up to a fifth of a
pass. The ranking is data, so a seed gives the same instances whatever the
solver under test does.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from boundedchain import fileio, generators
from boundedchain.complexes import Gf2Matrix
from boundedchain.facade import Instance, instance_from_complex, instance_from_matrix

CATALOG = Path(__file__).with_name("catalog.json")

ALGORITHM = {
    "strip_treewidth": "treewidth",
    "slice3_treewidth": "treewidth",
    "slice2_dijkstra": "dijkstra",
    "slice2_bounded": "dijkstra",
}
WORKLOADS = tuple(ALGORITHM)
# Workloads solved with a bound k, whose answers are not all optimal.
BOUNDED = ("slice2_bounded",)

# Instances per run, sized so one pass over the set takes about 10 s on a
# 2-vCPU x86-64 VM: a 20 s run is two passes and at least 100 timed solves.
SET_SIZE = {
    "strip_treewidth": 52,
    "slice3_treewidth": 60,
    "slice2_dijkstra": 70,
    "slice2_bounded": 80,
}

# (top simplices, vertices, dimension) of the random slices. slice2_dijkstra
# uses 55 triangles: at 60 its mean solve is 0.37 s, too slow for 100 timed
# solves in one run.
SLICE_SHAPE = {
    "slice3_treewidth": (35, 8, 3),
    "slice2_dijkstra": (55, 10, 2),
    "slice2_bounded": (60, 10, 2),
}

STRIP_LENGTHS = (60, 300)
KEEP_FRACTION = 0.99


@dataclass
class Item:
    """One instance of a run's set, with the answer it must get."""

    spec: int
    instance: Instance
    k: int | None
    expect: tuple[str, int | None]


def slice_weights(workload: str, gen_seed: int) -> str:
    if workload == "slice2_bounded" and gen_seed % 2 == 0:
        return "unit"
    return "random"


def generate_texts(workload: str, spec: int) -> tuple[str, ...]:
    """Generate one instance and write it out as ``mbc gen`` would.

    ``spec`` is the strip length for strips and the generator seed otherwise.
    Complex-backed workloads give (.complex, .boundary) text; the dim-2
    slices are handed over as one .mld text, the decoding view.
    """
    if workload == "strip_treewidth":
        cslice, boundary = generators.triangle_strip(spec)
    else:
        n_top, n_vertices, dim = SLICE_SHAPE[workload]
        cslice = generators.random_slice(
            n_top, n_vertices, dim=dim, seed=spec, weights=slice_weights(workload, spec)
        )
        boundary = generators.random_boundary(cslice, seed=spec, require_nonempty=True)
    if workload in ("strip_treewidth", "slice3_treewidth"):
        return (
            fileio.write_complex_text(cslice),
            fileio.write_boundary_text(cslice, boundary),
        )
    inst = instance_from_complex(cslice, boundary)
    return (fileio.write_matrix_text(inst.matrix, inst.target),)


def parse_texts(texts: tuple[str, ...]) -> Instance:
    if len(texts) == 2:
        cslice = fileio.parse_complex_text(texts[0])
        return instance_from_complex(cslice, fileio.parse_boundary_text(texts[1], cslice))
    matrix, target = fileio.parse_matrix_text(texts[0])
    return instance_from_matrix(matrix, target)


def fingerprint(texts: tuple[str, ...]) -> str:
    return hashlib.sha1("\0".join(texts).encode()).hexdigest()[:12]


def bound_k(workload: str, instance: Instance) -> int | None:
    """The bounded workload's k: a third of the target size, plus two."""
    if workload not in BOUNDED:
        return None
    return math.ceil(len(instance.target) / 3) + 2


def fresh(instance: Instance) -> Instance:
    """An equal instance with a new matrix, so lazy per-matrix caches
    (``col_masks``, ``row_cols``) are paid inside the timed solve, as they
    are for a user solving a freshly loaded file."""
    if instance.cslice is not None:
        return instance_from_complex(instance.cslice, instance.boundary)
    m = instance.matrix
    return instance_from_matrix(
        Gf2Matrix(m.nrows, m.ncols, m.col_rows, m.col_weights, m.scale), instance.target
    )


def load_catalog() -> dict:
    return json.loads(CATALOG.read_text())


def draw(workload: str, seed: int, catalog: dict) -> list[dict]:
    """The run's stratified sample: catalog entries (or strip lengths)."""
    rng = random.Random(f"{workload}:{seed}")
    n = SET_SIZE[workload]
    if workload == "strip_treewidth":
        lo, hi = STRIP_LENGTHS
        lengths = [lo + int((i + rng.random()) * (hi - lo) / (n - 1)) for i in range(n - 1)]
        return [{"spec": length} for length in lengths + [hi]]
    ranked = catalog[workload]["entries"]
    kept = ranked[: math.ceil(KEEP_FRACTION * len(ranked))]
    rest = kept[:-1]
    strata = [rest[i * len(rest) // (n - 1) : (i + 1) * len(rest) // (n - 1)] for i in range(n - 1)]
    return [rng.choice(s) for s in strata] + [kept[-1]]


def build_set(workload: str, seed: int) -> list[Item]:
    """Generate, round-trip and build the run's instances (the timed set-up)."""
    items = []
    for entry in draw(workload, seed, load_catalog()):
        texts = generate_texts(workload, entry["spec"])
        if "sha" in entry and fingerprint(texts) != entry["sha"]:
            raise RuntimeError(
                f"{workload} instance {entry['spec']} no longer matches catalog.json; "
                "rebuild it with perfbench/catalog.py"
            )
        instance = parse_texts(texts)
        if workload == "strip_treewidth":
            expect = ("optimal", entry["spec"] * instance.scale)
        else:
            expect = tuple(entry["expect"])
        items.append(Item(entry["spec"], instance, bound_k(workload, instance), expect))
    return items


def check(item: Item, result) -> str | None:
    """None when the result is the expected answer, else the reason it is not."""
    status, weight = item.expect
    got = result.status.value
    if got != status:
        return f"wrong status {got}, expected {status}"
    if status == "optimal" and result.weight != weight:
        return f"wrong weight {result.weight}, expected {weight}"
    if item.k is not None and result.witness is not None and len(result.witness) > item.k:
        return f"witness of {len(result.witness)} columns exceeds k={item.k}"
    return None
