import random

from boundedchain import Gf2System
from boundedchain.gf2 import indices_from_mask, mask_from_indices


def test_mask_round_trip():
    assert mask_from_indices((0, 3, 5)) == 0b101001
    assert indices_from_mask(0b101001) == (0, 3, 5)
    assert mask_from_indices(()) == 0
    assert indices_from_mask(0) == ()


def test_rank_and_kernel_of_identity():
    cols = [0b001, 0b010, 0b100]
    sys = Gf2System(cols)
    assert sys.rank == 3
    assert sys.kernel == ()
    assert sys.solve(0b101) == 0b101
    assert sys.solve(0) == 0


def test_dependent_columns_land_in_kernel():
    # third column is the sum of the first two
    cols = [0b011, 0b101, 0b110]
    sys = Gf2System(cols)
    assert sys.rank == 2
    assert len(sys.kernel) == 1
    assert sys.kernel[0] == 0b111


def test_solve_reports_infeasible_targets():
    cols = [0b011, 0b110]
    sys = Gf2System(cols)
    assert sys.solve(0b001) is None
    assert sys.solve(0b101) == 0b11


def _product(cols, combo):
    acc = 0
    for j in indices_from_mask(combo):
        acc ^= cols[j]
    return acc


def test_random_systems_are_consistent():
    """solve() witnesses multiply back to the target; kernel spans solutions."""
    rng = random.Random(3)
    for _ in range(120):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        cols = [rng.getrandbits(m) for _ in range(n)]
        sys = Gf2System(cols)
        assert sys.rank + len(sys.kernel) == n
        for basis in sys.kernel:
            assert _product(cols, basis) == 0
        # leading columns of the kernel basis are distinct
        leads = [max(indices_from_mask(b)) for b in sys.kernel]
        assert len(set(leads)) == len(leads)
        target = rng.getrandbits(m)
        combo = sys.solve(target)
        if combo is not None:
            assert _product(cols, combo) == target
        else:
            # exhaustive confirmation on these small sizes
            assert all(_product(cols, x) != target for x in range(1 << n))


def reference_elimination(columns):
    """The elimination ``Gf2System`` ran before it looked pivots up by row:
    each column tests every earlier pivot's row in turn. Returns (rank,
    kernel, solve)."""
    pivot_rows, reduced, combos, kernel = [], [], [], []
    for j, col in enumerate(columns):
        cur = col
        combo = 1 << j
        for r, pc, pcb in zip(pivot_rows, reduced, combos):
            if (cur >> r) & 1:
                cur ^= pc
                combo ^= pcb
        if cur == 0:
            kernel.append(combo)
        else:
            low = cur & -cur
            pivot_rows.append(low.bit_length() - 1)
            reduced.append(cur)
            combos.append(combo)

    def solve(target):
        cur = target
        combo = 0
        for r, pc, pcb in zip(pivot_rows, reduced, combos):
            if (cur >> r) & 1:
                cur ^= pc
                combo ^= pcb
        return combo if cur == 0 else None

    return len(pivot_rows), tuple(kernel), solve


def test_pivot_lookup_matches_the_reference_elimination():
    """Rank, kernel basis and the solution found are the reference's on
    random systems with dependent, repeated and empty columns: the pivot
    columns are the greedy basis in index order whichever row a pivot sits
    on, and every vector is written over that basis."""
    rng = random.Random(23)
    for trial in range(600):
        m = rng.randint(0, 70)
        cols = [rng.getrandbits(m) for _ in range(rng.randint(0, 12))]
        for _ in range(rng.randint(0, 6)):
            how = rng.randrange(3)
            if how == 0 and cols:  # a repeated column
                extra = rng.choice(cols)
            elif how == 1 and len(cols) >= 2:  # the sum of two others
                a, b = rng.sample(cols, 2)
                extra = a ^ b
            else:
                extra = 0
            cols.insert(rng.randrange(len(cols) + 1), extra)
        rank, kernel, solve = reference_elimination(cols)
        sys = Gf2System(cols)
        assert (sys.rank, sys.kernel) == (rank, kernel), trial
        targets = [0, rng.getrandbits(m)]
        targets += [_product(cols, rng.getrandbits(len(cols))) for _ in range(3)]
        for target in targets:
            assert sys.solve(target) == solve(target), (trial, target)
