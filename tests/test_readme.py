"""The README's Python examples run as written and print true answers."""

import contextlib
import io
import re
from pathlib import Path

import pytest

import boundedchain
from boundedchain import Instance, brute_force_mld
from boundedchain.gf2 import mask_from_indices

README = Path(__file__).resolve().parent.parent / "README.md"
ENTRY_POINTS = ("solve", "solve_mbc1", "solve_mld_dijkstra", "solve_mld_treewidth")
# a printed solve: "<weight> [<sorted witness>]"
SOLVE_LINE = re.compile(r"^(-?\d+) \[([\d, ]*)\]$")


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def _recording(fn, calls):
    """Wrap an entry point so each call is kept as (matrix, target rows, result)."""

    def wrapper(first, *args, **kwargs):
        if isinstance(first, Instance):
            result = fn(first, *args, **kwargs)
            calls.append((first.matrix, first.target, result))
        else:
            rows = list(args[0])
            result = fn(first, rows, *args[1:], **kwargs)
            calls.append((first, frozenset(rows), result))
        return result

    return wrapper


def test_readme_has_python_examples():
    assert len(_python_blocks()) >= 2


@pytest.mark.parametrize("index", range(len(_python_blocks())))
def test_readme_python_block(index, monkeypatch):
    block = _python_blocks()[index]
    calls = []
    for name in ENTRY_POINTS:
        monkeypatch.setattr(boundedchain, name, _recording(getattr(boundedchain, name), calls))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, f"README.md python block {index}", "exec"), {"__name__": "readme"})
    printed = out.getvalue().splitlines()

    # a "# ..." comment on a print line is the output the README promises
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(prints) == len(printed)
    for source, line in zip(prints, printed):
        if "  # " in source:
            assert line == source.split("  # ", 1)[1], source

    for line in printed:
        m = SOLVE_LINE.match(line)
        if not m:
            continue
        weight = int(m[1])
        witness = [int(c) for c in m[2].split(",") if c.strip()]
        solves = [
            (matrix, target)
            for matrix, target, result in calls
            if result.weight == weight and sorted(result.witness) == witness
        ]
        assert solves, f"{line!r} is not the answer of any solve in the block"
        matrix, target = solves[-1]
        assert brute_force_mld(matrix, sorted(target)).weight == weight, line
        assert matrix.product_mask(witness) == mask_from_indices(target), line
        assert matrix.weight_of(witness) == weight, line
