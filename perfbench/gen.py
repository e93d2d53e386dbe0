"""Seeded instance generator for the benchmark workloads.

It does not import symten (in particular not `symten.sampling`), so a
change to the program cannot change the inputs.  Every instance is built
so that its verdict is known from the construction alone:

- built to vanish: the dimension is below the tallest column, so every
  first column is dependent; or one vector is repeated (up to a scalar)
  more than lambda_1 times, so two copies share a column in every filling;
- built not to vanish: the vectors in each column of one chosen filling
  are checked independent here, so that column system is a Gamas witness.

A workload is a stream of blocks from a fixed schedule.  Block `b` takes
its structure (shapes, which vectors repeat, which subsets are
independent) from a generator seeded by "<workload>:<b>", and its numbers
(a change of coordinates, the scale of each vector, the order of the
selfcheck commands) from one seeded by "<workload>:<seed>:<b>".  So every
seed gives other input bytes but the same combinatorial work, and runs on
different seeds measure the same thing; each block is independent of how
many were generated before it.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

NUMERATORS = (-3, -2, -1, 1, 2, 3)
DENOMINATORS = (1, 1, 2, 3)
SCALARS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(3), Fraction(1, 2))
MAX_DIM = 4


def partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n, largest first part first."""
    out: list[tuple[int, ...]] = []

    def rec(rest: int, cap: int, prefix: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(prefix)
        for p in range(min(rest, cap), 0, -1):
            rec(rest - p, p, prefix + (p,))

    rec(n, n, ())
    return out


def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def rank(rows: list[tuple[Fraction, ...]]) -> int:
    """Exact rank by Gaussian elimination (kept apart from symten.linalg)."""
    m = [list(r) for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def _vector(rng: random.Random, dim: int, support: int) -> tuple[Fraction, ...]:
    """A vector with exactly `support` nonzero coordinates."""
    places = set(rng.sample(range(dim), min(support, dim)))
    return tuple(
        Fraction(rng.choice(NUMERATORS), rng.choice(DENOMINATORS)) if i in places else Fraction(0)
        for i in range(dim)
    )


def _supports(rng: random.Random, n: int, dim: int, nnz: int | None) -> list[int]:
    """Per-vector support sizes whose product is at most nnz (dense if None)."""
    if nnz is None:
        return [dim] * n
    sizes = [1] * n
    product = 1
    order = list(range(n))
    rng.shuffle(order)
    grown = True
    while grown:
        grown = False
        for i in order:
            if sizes[i] < dim and product // sizes[i] * (sizes[i] + 1) <= nnz:
                product = product // sizes[i] * (sizes[i] + 1)
                sizes[i] += 1
                grown = True
    return sizes


def witnessed_family(
    rng: random.Random,
    lam: tuple[int, ...],
    dim: int,
    repeats: int = 0,
    low: bool = False,
    nnz: int | None = None,
) -> list[tuple[Fraction, ...]]:
    """A family whose symmetrized tensor is nonzero, by construction.

    One vector is repeated `repeats` (at most lambda_1) times, at the lowest
    indices when `low`, so that every column system putting two copies in
    one column is dependent.  A random filling with the copies in distinct
    columns is then made independent column by column.
    """
    n = sum(lam)
    heights = conjugate(lam)
    if len(lam) > dim or repeats > len(heights):
        raise ValueError(f"no witnessed family for {lam} in dimension {dim}")
    sizes = _supports(rng, n, dim, nnz)
    copies = list(range(repeats)) if low else rng.sample(range(n), repeats)
    others = [i for i in range(n) if i not in copies]
    rng.shuffle(others)
    columns: list[list[int]] = [[] for _ in heights]
    for col, i in zip(rng.sample(range(len(heights)), repeats), copies):
        columns[col].append(i)
    for col, height in enumerate(heights):
        while len(columns[col]) < height:
            columns[col].append(others.pop())
    shared = _vector(rng, dim, max(sizes[i] for i in copies) if copies else dim)
    vectors: list[tuple[Fraction, ...] | None] = [None] * n
    for i in copies:
        vectors[i] = shared
    for column in columns:
        free = [i for i in column if i not in copies]
        for _ in range(1000):
            for i in free:
                vectors[i] = _vector(rng, dim, sizes[i])
            if rank([vectors[i] for i in column]) == len(column):
                break
        else:
            raise RuntimeError(f"could not make a column of {lam} independent")
    return vectors


def vanishing_family(
    rng: random.Random, lam: tuple[int, ...], dim: int, nnz: int | None = None
) -> list[tuple[Fraction, ...]]:
    """A family whose symmetrized tensor is zero, by construction."""
    n = sum(lam)
    sizes = _supports(rng, n, dim, nnz)
    vectors = [_vector(rng, dim, s) for s in sizes]
    if dim < len(lam):
        return vectors
    if lam[0] >= n:
        raise ValueError(f"{lam} cannot vanish in dimension {dim}")
    # copy the sparsest vector, so that the nonzero count stays within nnz
    repeated = vectors[min(range(n), key=lambda i: sizes[i])]
    for i in rng.sample(range(n), lam[0] + 1):
        vectors[i] = repeated
    return vectors


def _scaled(rng: random.Random, vectors, unit_product: bool):
    scalars = [rng.choice(SCALARS) for _ in vectors]
    product = Fraction(1)
    for s in scalars:
        product *= s
    if unit_product:
        scalars[-1] /= product
    elif product == 1:
        scalars[-1] *= 2
    return [tuple(s * x for x in v) for s, v in zip(scalars, vectors)]


def _text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _disguise(values: random.Random, dim: int, *families):
    """The families under one random monomial change of coordinates, with
    vector i of every family scaled by the same random nonzero c_i.

    Which subsets are independent, which spans agree, the transition
    scalars between the families and the nonzero count all stay the same,
    so the verdict, the witnesses and the work do not depend on the seed.
    """
    order = values.sample(range(dim), dim)
    coords = [values.choice(SCALARS) for _ in range(dim)]
    scalars = [values.choice(SCALARS) for _ in families[0]]
    return [
        [tuple(c * d * vec[j] for d, j in zip(coords, order)) for c, vec in zip(scalars, fam)]
        for fam in families
    ]


def instance(values: random.Random, lam, dim, v, u=None) -> dict:
    """The instance file's content, with the numbers drawn from `values`."""
    v, *rest = _disguise(values, dim, v, *([u] if u is not None else []))
    obj = {"dim": dim, "lambda": list(lam), "v": [[_text(x) for x in vec] for vec in v]}
    if rest:
        obj["u"] = [[_text(x) for x in vec] for vec in rest[0]]
    return obj


def command(argv: list[str], data: dict | None, expect: dict) -> dict:
    """One CLI invocation; "{input}" in argv stands for the instance file,
    and `expect` holds the output fields its construction implies."""
    return {"argv": argv, "instance": data, "expect": expect}


def _fits(lam) -> bool:
    return len(lam) <= MAX_DIM


# ---------------------------------------------------------------------------
# workloads
#
# Each workload is a fixed schedule of short blocks of slots (shape, size
# class, kind of command).  Every block holds one slot from each cost
# stratum, and a run stops only at the end of a round of blocks, so every
# run has the same mix of cheap and costly commands.  Dimensions are fixed per slot (the smallest that lets the shape be
# witnessed) because the dimension sets the number of independent column
# systems and so much of a command's cost.


def _schedule(slots: list, cost, size: int, rounds: int = 1) -> list[list]:
    """Blocks of `size` slots, one from each cost stratum, in `rounds` rounds.

    Slots are sorted by a cost proxy and cut into `size` strata; block b
    takes the b-th slot of every stratum (cycling through short strata),
    so every slot appears at least once in the schedule.  Round q holds
    blocks q, q + rounds, q + 2 rounds, ..., so each round spans every
    stratum from its cheapest slots to its costliest.
    """
    ranked = sorted(slots, key=cost)
    strata = [ranked[k * len(ranked) // size:(k + 1) * len(ranked) // size] for k in range(size)]
    blocks = [[stratum[b % len(stratum)] for stratum in strata] for b in range(max(map(len, strata)))]
    return [block for q in range(rounds) for block in blocks[q::rounds]]


def column_systems(lam) -> int:
    """How many column systems a shape has: the decider's scan length."""
    heights = conjugate(lam)
    count = math.factorial(sum(lam))
    for h in heights:
        count //= math.factorial(h)
    for h in set(heights):
        count //= math.factorial(heights.count(h))
    return count


def _min_dim(lam) -> int:
    return max(2, len(lam))


def _symmetrize(rng, values, lam, nnz: int, vanish: bool) -> dict:
    argv = ["symmetrize", "--input", "{input}"]
    if vanish:
        dim = min(MAX_DIM, len(lam) - 1) if len(lam) >= 3 else MAX_DIM
        data = instance(values, lam, dim, vanishing_family(rng, lam, dim, nnz))
        return command(argv, data, {"entries": 0})
    dim = _min_dim(lam)
    data = instance(values, lam, dim, witnessed_family(rng, lam, dim, nnz=nnz))
    return command(argv, data, {"entries": "nonempty"})


def _oracle_slots(n: int, sizes: tuple[int, ...]) -> list[tuple]:
    """Every shape of n, once per nonzero count in `sizes`; shapes too tall
    for MAX_DIM vanish, and so does every third of the others."""
    slots = []
    for k, lam in enumerate(partitions(n)):
        for nnz in sizes:
            vanish = not _fits(lam) or (k % 3 == 2 and lam[0] < n)
            slots.append((lam, nnz, vanish))
    return slots


def oracle_block(rng: random.Random, values: random.Random, slots) -> list[dict]:
    """symmetrize on every shape of 6, 7, 8; apply_element dominates at 6
    and 7, the projector build at 8 (one nonzero per vector)."""
    return [_symmetrize(rng, values, lam, nnz, vanish) for lam, nnz, vanish in slots]


def _equal(rng, values, lam, mode: str, repeats: int) -> dict:
    dim = _min_dim(lam)
    v = witnessed_family(rng, lam, dim, repeats=min(repeats, lam[0]))
    argv = ["equal", "--input", "{input}"]
    if mode == "unrelated":
        u = vanishing_family(rng, lam, dim)
    else:
        u = _scaled(rng, v, unit_product=(mode == "unit"))
    if mode == "exhaustive":
        argv.append("--exhaustive-failures")
    expect = {"equal": True, "mode": "witnessed"} if mode == "unit" else {"equal": False}
    return command(argv, instance(values, lam, dim, v, u), expect)


# Shapes of 8 with more column systems take 0.7-1.5 s per witnessed
# verdict; leaving them out keeps a cycle of the schedule near a quarter of
# a run, so that every run covers whole cycles several times.
MAX_EQUALITY_SYSTEMS = 210


def _equality_slots(n: int) -> list[tuple]:
    """A unit-product scaling of every shape of n that fits; every fourth
    shape also gets one of the failing kinds."""
    slots = []
    failing = ("product", "unrelated", "exhaustive")
    shapes = [p for p in partitions(n) if _fits(p) and column_systems(p) <= MAX_EQUALITY_SYSTEMS]
    for k, lam in enumerate(shapes):
        slots.append((lam, "unit", k % 3))
        if k % 4 == 1:
            mode = failing[(k // 4 + n) % 3]
            slots.append((lam, mode if lam[0] < n or mode != "unrelated" else "product", 1))
    return slots


def equality_block(rng: random.Random, values: random.Random, slots) -> list[dict]:
    """equal at n = 6, 7, 8: mostly unit-product scalings (witnessed after a
    full scan), plus non-unit scalings, unrelated pairs (u built to vanish)
    and exhaustive-failures runs."""
    return [_equal(rng, values, lam, mode, repeats) for lam, mode, repeats in slots]


def _gamas(rng, values, lam, how: str) -> dict:
    argv = ["gamas", "--input", "{input}"]
    vanish = {"nonzero": False, "witness_system": None, "standard_witness": None}
    if how == "dim":
        dim = len(lam) - 1
        return command(argv, instance(values, lam, dim, vanishing_family(rng, lam, dim)), vanish)
    dim = _min_dim(lam)
    if how == "repeat":
        return command(argv, instance(values, lam, dim, vanishing_family(rng, lam, dim)), vanish)
    v = witnessed_family(rng, lam, dim, repeats=lam[0], low=True)
    return command(argv, instance(values, lam, dim, v), {"nonzero": True})


def _vanishing_slots(n: int) -> list[tuple]:
    """Vanishing by dimension for shapes 3 to MAX_DIM + 1 tall, by a repeat
    for shapes that fit, and twice a late witness per fitting shape."""
    slots = []
    for lam in partitions(n):
        if 3 <= len(lam) <= MAX_DIM + 1:
            slots.append((lam, "dim"))
        if _fits(lam) and lam[0] < n:
            slots.append((lam, "repeat"))
        if _fits(lam) and lam[0] > 1:
            slots.extend([(lam, "late"), (lam, "late")])
    return slots


def vanishing_block(rng: random.Random, values: random.Random, slots) -> list[dict]:
    """gamas at n = 7, 8: about half built to vanish (full scans), half
    nonvanishing with the witness late in the enumeration."""
    return [_gamas(rng, values, lam, how) for lam, how in slots]


# selfcheck draws its own instances from its --seed, so that seed decides
# the work (0.06-0.37 s a command).  The schedule is therefore a fixed pool
# of selfcheck seeds, one per slot, run again every round; the run's seed
# only shuffles each block.
SELFCHECK_POOL = 25


def selfcheck_block(rng: random.Random, values: random.Random, slots) -> list[dict]:
    """selfcheck --n 4 --trials 3, one command per pool slot."""
    seeds = [random.Random(f"selfcheck-pool:{slot}").randrange(10**6) for slot in slots]
    values.shuffle(seeds)
    return [
        command(["selfcheck", "--n", "4", "--trials", "3", "--seed", str(s)], None, {"ok": True})
        for s in seeds
    ]


def _scans_all(slot) -> bool:
    """Equality kinds that scan every column system (the others stop early)."""
    return slot[1] in ("unit", "exhaustive")


# workload -> (block maker, schedule, blocks per round).  A run stops only
# at the end of a round, so it runs the same mix of commands on every seed;
# a round is the whole schedule, except for oracle, whose schedule (every
# shape of 8 costs a projector build) is cut into three rounds of 5 blocks.
SCHEDULES = {
    "oracle": (
        oracle_block,
        _schedule(
            _oracle_slots(6, (12, 48)) + _oracle_slots(7, (2, 6)) + _oracle_slots(8, (1,)),
            lambda slot: math.factorial(sum(slot[0])) * slot[1],
            5,
            rounds=3,
        ),
        5,
    ),
    "equality": (
        equality_block,
        _schedule(
            _equality_slots(6) + _equality_slots(7) + _equality_slots(8),
            lambda slot: _scans_all(slot) * column_systems(slot[0]),
            5,
        ),
        7,
    ),
    "vanishing": (
        vanishing_block,
        _schedule(
            _vanishing_slots(7) + _vanishing_slots(8),
            lambda slot: column_systems(slot[0]),
            11,
        ),
        9,
    ),
    "selfcheck": (
        selfcheck_block,
        [list(range(b, b + 5)) for b in range(0, SELFCHECK_POOL, 5)],
        SELFCHECK_POOL // 5,
    ),
}


def round_start(workload: str, index: int) -> bool:
    """Whether block `index` starts a round: where a timed run may stop."""
    return index % SCHEDULES[workload][2] == 0


def block(workload: str, seed: int, index: int) -> list[dict]:
    """Block `index` of a workload's stream for one seed."""
    make, schedule, _ = SCHEDULES[workload]
    shape = random.Random(f"{workload}:{index}")
    values = random.Random(f"{workload}:{seed}:{index}")
    return make(shape, values, schedule[index % len(schedule)])
