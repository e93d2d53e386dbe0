"""Permutations, partitions, tableaux and column systems on {1..n}.

The commands use the lazy searches of column systems and standard
tableaux (`iter_column_systems`, `iter_standard`) and, for the oracle's
class table, `enumerate_permutations` and `cycle_type`.  Each search
takes a `keep` predicate and cuts every branch at a column, or top part
of a column, that fails it.  For a down-closed `keep` (a subset of a
kept column is kept) it yields, in the order of the full search, exactly
the systems or tableaux whose every column passes; `enumerate_standard`
and `enumerate_column_systems` list the full searches.  The fillings of
a shape, the row and column groups of a tableau and the sign of a
permutation serve only the Young symmetrizers that the tests check the
oracle against, and live with them.

Conventions fixed here, once:

- Permutations are tuples in one-line notation with 1-based entries:
  the entry at position i-1 is sigma(i).
- Composition is (sigma tau)(i) = sigma(tau(i)), so that the
  place-permutation action on tensors is a genuine right action.
- Tableaux are tuples of row tuples; entries are exactly {1..n}.
- A column system is the multiset of column sets of a tableau, stored
  canonically: each column sorted increasing, columns sorted by
  (size descending, content lexicographic).
"""
from __future__ import annotations

import itertools
from typing import Callable, Iterator, Sequence

Perm = tuple[int, ...]
Part = tuple[int, ...]
Rows = tuple[tuple[int, ...], ...]
ColumnSystem = tuple[tuple[int, ...], ...]
#: A column predicate: the increasing entries of a column, or of its top part.
Keep = Callable[[tuple[int, ...]], bool]


class SizeLimitError(Exception):
    """Raised when the work asked for is past a size guard."""


# ---------------------------------------------------------------------------
# permutations

def compose(sigma: Perm, tau: Perm) -> Perm:
    """Return sigma tau, acting as (sigma tau)(i) = sigma(tau(i))."""
    if len(sigma) != len(tau):
        raise ValueError(f"degree mismatch: {len(sigma)} != {len(tau)}")
    return tuple(sigma[t - 1] for t in tau)


def cycle_type(sigma: Perm) -> Part:
    """Cycle lengths, fixed points included, in decreasing order."""
    unseen = set(sigma)
    lengths = []
    while unseen:
        start = unseen.pop()
        length = 1
        i = sigma[start - 1]
        while i != start:
            unseen.discard(i)
            i = sigma[i - 1]
            length += 1
        lengths.append(length)
    lengths.sort(reverse=True)
    return tuple(lengths)


def enumerate_permutations(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic one-line order."""
    return iter(itertools.permutations(range(1, n + 1)))


# ---------------------------------------------------------------------------
# partitions

def is_partition(parts: Sequence[int]) -> bool:
    return all(p >= 1 for p in parts) and all(
        parts[k] >= parts[k + 1] for k in range(len(parts) - 1)
    )


def enumerate_partitions(n: int) -> list[Part]:
    """All partitions of n in reverse-lexicographic order, (n) first."""
    result: list[Part] = []

    def rec(remaining: int, max_part: int, prefix: list[int]) -> None:
        if remaining == 0:
            result.append(tuple(prefix))
            return
        for p in range(min(max_part, remaining), 0, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(n, n, [])
    return result


def conjugate(lam: Part) -> Part:
    """Column lengths of the Young diagram of lam."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


# ---------------------------------------------------------------------------
# tableaux

def tableau_shape(rows: Rows) -> Part:
    return tuple(len(r) for r in rows)


def is_filling(rows: Rows) -> bool:
    shape = tableau_shape(rows)
    entries = [x for r in rows for x in r]
    return is_partition(shape) and sorted(entries) == list(range(1, len(entries) + 1))


def iter_standard(lam: Part, keep: Keep) -> Iterator[Rows]:
    """Standard tableaux of shape lam (rows and columns increase), lazily.

    Values 1..n are placed in increasing order, each in turn at the end of
    every row that can take it, topmost first, so each column grows
    downwards in increasing order.  Every placement tests the column's
    top part so far with `keep`.
    """
    n = sum(lam)
    filled = [0] * len(lam)
    cols: list[tuple[int, ...]] = [()] * (lam[0] if lam else 0)

    def place(value: int) -> Iterator[Rows]:
        if value > n:
            yield tuple(tuple(col[i] for col in cols[:part]) for i, part in enumerate(lam))
            return
        for i in range(len(lam)):
            j = filled[i]
            if j < lam[i] and (i == 0 or filled[i - 1] > j):
                top = cols[j] + (value,)
                if keep(top):
                    cols[j] = top
                    filled[i] += 1
                    yield from place(value + 1)
                    filled[i] -= 1
                    cols[j] = top[:-1]

    return place(1)


def enumerate_standard(lam: Part) -> list[Rows]:
    """All standard tableaux of shape lam, in the order of `iter_standard`."""
    return list(iter_standard(lam, lambda column: True))


def tableau_columns(rows: Rows) -> list[tuple[int, ...]]:
    """Column sets of a tableau, each sorted increasing, in column order."""
    shape = tableau_shape(rows)
    conj = conjugate(shape)
    return [
        tuple(sorted(rows[i][j] for i in range(conj[j])))
        for j in range(len(conj))
    ]


def canonical_system(columns: Sequence[Sequence[int]]) -> ColumnSystem:
    cols = [tuple(sorted(c)) for c in columns]
    return tuple(sorted(cols, key=lambda c: (-len(c), c)))


def column_system_of(rows: Rows) -> ColumnSystem:
    return canonical_system(tableau_columns(rows))


def iter_column_systems(lam: Part, keep: Keep) -> Iterator[ColumnSystem]:
    """Every multiset of column sets arising from a filling of lam, once each.

    A depth-first search builds each system canonically, column by
    column: equal-size columns are disjoint, so they come in increasing
    order of their least entry, and a column's least entry leaves below
    it only as many unused entries as the smaller columns after its run
    can take.  Every branch thus completes, and systems come out in
    lexicographic order.  Every column is tested with `keep`.
    """
    n = sum(lam)
    sizes = conjugate(lam)
    if not sizes:
        return iter([()])
    last = len(sizes) - 1
    # room[j]: how many entries the columns smaller than column j can take
    room = [sum(s for s in sizes if s < size) for size in sizes]
    acc: list[tuple[int, ...]] = []

    def rec(remaining: tuple[int, ...], j: int) -> Iterator[ColumnSystem]:
        if j == last:  # the last column is whatever is left
            if keep(remaining):
                yield (*acc, remaining)
            return
        above = acc[-1][0] if j > 0 and sizes[j - 1] == sizes[j] else 0
        for i in range(room[j] + 1):
            lead = remaining[i]
            if lead <= above:
                continue
            for rest in itertools.combinations(remaining[i + 1:], sizes[j] - 1):
                column = (lead, *rest)
                if keep(column):
                    acc.append(column)
                    yield from rec(tuple([x for x in remaining if x not in column]), j + 1)
                    acc.pop()

    return rec(tuple(range(1, n + 1)), 0)


def enumerate_column_systems(lam: Part) -> list[ColumnSystem]:
    """All column systems of lam, canonical, in the order of `iter_column_systems`."""
    return list(iter_column_systems(lam, lambda column: True))
