import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symten.combinatorics import (
    column_system_of,
    compose,
    conjugate,
    cycle_type,
    enumerate_column_systems,
    enumerate_partitions,
    enumerate_permutations,
    enumerate_standard,
    is_filling,
    iter_column_systems,
    iter_standard,
    tableau_columns,
)
from tests.reference import (
    col_group,
    enumerate_fillings,
    hook_length_dimension,
    row_group,
    sign,
)

PAPER_TABLEAU = ((2, 3, 4), (1, 5))


def test_compose_examples():
    swap = (2, 1)
    assert compose(swap, swap) == (1, 2)
    tau = (3, 1, 2)
    assert compose((1, 2, 3), tau) == tau
    # hand-composed: sigma=(12), tau=(23) gives the 3-cycle 1->2->3->1
    assert compose((2, 1, 3), (1, 3, 2)) == (2, 3, 1)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


def test_sign_examples():
    assert sign((1, 2, 3, 4, 5)) == 1
    assert sign((2, 1, 3)) == -1
    assert sign((2, 3, 1)) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_compose_associative_and_sign_multiplicative_exhaustive(n):
    perms = list(enumerate_permutations(n))
    for s, t in itertools.product(perms, repeat=2):
        assert sign(compose(s, t)) == sign(s) * sign(t)
    for s, t, u in itertools.product(perms, repeat=3):
        assert compose(compose(s, t), u) == compose(s, compose(t, u))


@pytest.mark.parametrize("n", [5, 6])
def test_compose_associative_randomized(n):
    rng = random.Random(n)
    perms = list(enumerate_permutations(n))
    for _ in range(200):
        s, t, u = (rng.choice(perms) for _ in range(3))
        assert compose(compose(s, t), u) == compose(s, compose(t, u))
        assert sign(compose(s, t)) == sign(s) * sign(t)


def test_cycle_type_examples():
    assert cycle_type((1, 2, 3, 4)) == (1, 1, 1, 1)
    assert cycle_type((2, 1, 3)) == (2, 1)
    assert cycle_type((2, 3, 1, 5, 4)) == (3, 2)


def _orbit(sigma, i):
    orbit = {i}
    while (i := sigma[i - 1]) not in orbit:
        orbit.add(i)
    return frozenset(orbit)


@pytest.mark.parametrize("n", range(7))
def test_cycle_type_matches_cycle_decomposition(n):
    for p in enumerate_permutations(n):
        cycles = {_orbit(p, i) for i in p}
        assert cycle_type(p) == tuple(sorted(map(len, cycles), reverse=True))


def test_enumerate_permutations():
    assert list(enumerate_permutations(1)) == [(1,)]
    assert len(list(enumerate_permutations(3))) == 6
    perms = list(enumerate_permutations(5))
    assert len(perms) == 120
    assert len(set(perms)) == 120
    assert perms == sorted(perms)


def test_enumerate_partitions():
    assert enumerate_partitions(1) == [(1,)]
    assert len(enumerate_partitions(4)) == 5
    assert len(enumerate_partitions(6)) == 11
    parts = enumerate_partitions(5)
    assert parts == sorted(parts, reverse=True)
    assert all(sum(p) == 5 for p in parts)


def test_conjugate_involution():
    for n in range(1, 8):
        for lam in enumerate_partitions(n):
            assert conjugate(conjugate(lam)) == lam


def test_enumerate_fillings_counts():
    assert len(list(enumerate_fillings((1,)))) == 1
    assert len(list(enumerate_fillings((2, 1)))) == 6
    fillings = list(enumerate_fillings((2, 2)))
    assert len(fillings) == 24
    assert all(is_filling(f) for f in fillings)


def test_enumerate_standard():
    assert enumerate_standard((4,)) == [((1, 2, 3, 4),)]
    assert len(enumerate_standard((2, 1))) == 2
    assert len(enumerate_standard((2, 2))) == 2
    for rows in enumerate_standard((3, 2, 1)):
        for row in rows:
            assert list(row) == sorted(row)
        for col in tableau_columns(rows):
            assert list(col) == sorted(col)


@pytest.mark.parametrize("n", range(1, 7))
def test_standard_count_equals_hook_dimension(n):
    for lam in enumerate_partitions(n):
        assert len(enumerate_standard(lam)) == hook_length_dimension(lam)


def test_column_system_of_examples():
    assert column_system_of(PAPER_TABLEAU) == ((1, 2), (3, 5), (4,))
    assert column_system_of(((1, 3), (2, 4))) == ((1, 2), (3, 4))
    assert column_system_of(((1, 2),)) == ((1,), (2,))


def test_enumerate_column_systems_small():
    assert enumerate_column_systems((1, 1)) == [((1, 2),)]
    assert enumerate_column_systems((2,)) == [((1,), (2,))]
    systems = enumerate_column_systems((2, 1))
    assert len(systems) == 3
    assert {s[0] for s in systems} == {(1, 2), (1, 3), (2, 3)}


def _system_count(lam):
    conj = conjugate(lam)
    denominator = math.prod(math.factorial(c) for c in conj)
    for length in set(conj):
        denominator *= math.factorial(conj.count(length))
    return math.factorial(sum(lam)) // denominator


@pytest.mark.parametrize("n", range(1, 7))
def test_column_systems_match_dedup_of_fillings(n):
    for lam in enumerate_partitions(n):
        systems = enumerate_column_systems(lam)
        assert len(systems) == len(set(systems))
        assert len(systems) == _system_count(lam)
        from_fillings = {column_system_of(f) for f in enumerate_fillings(lam)}
        assert set(systems) == from_fillings


PRUNING_SHAPES = [()] + [
    lam for n in range(1, 8) for lam in enumerate_partitions(n)
] + [(3, 3, 1, 1), (2, 2, 2, 2)]


def _row_word(rows):
    """The row of each value 1..n: standard tableaux come in its lex order."""
    word = [0] * sum(map(len, rows))
    for i, row in enumerate(rows):
        for x in row:
            word[x - 1] = i
    return word


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_pruned_search_keeps_order(data):
    lam = data.draw(st.sampled_from(PRUNING_SHAPES))
    entries = st.integers(1, max(sum(lam), 2))
    # down-closed: no column holds a "zero" entry or two entries of one
    # forbidden set, so a failing column fails inside every larger column
    zeros = data.draw(st.frozensets(entries, max_size=2))
    forbidden = data.draw(st.lists(st.frozensets(entries, min_size=2), max_size=3))

    def keep(column):
        assert list(column) == sorted(column)
        return not zeros & set(column) and all(len(f & set(column)) < 2 for f in forbidden)

    systems = enumerate_column_systems(lam)
    assert list(iter_column_systems(lam, lambda column: True)) == systems
    assert systems == sorted(systems)
    assert list(iter_column_systems(lam, keep=keep)) == [
        s for s in systems if all(map(keep, s))
    ]
    tableaux = enumerate_standard(lam)
    assert list(iter_standard(lam, lambda column: True)) == tableaux
    words = [_row_word(t) for t in tableaux]
    assert words == sorted(words) and len(set(map(tuple, words))) == len(words)
    assert list(iter_standard(lam, keep)) == [
        t for t in tableaux if all(map(keep, tableau_columns(t)))
    ]


def test_row_and_col_group_sizes():
    assert len(row_group(PAPER_TABLEAU)) == 12
    assert len(col_group(PAPER_TABLEAU)) == 4
    single_col = ((1,), (2,), (3,))
    assert sorted(col_group(single_col)) == sorted(enumerate_permutations(3))
    assert row_group(single_col) == [(1, 2, 3)]
    assert col_group(((1, 2, 3),)) == [(1, 2, 3)]


@pytest.mark.parametrize("lam", [(2, 1), (2, 2), (3, 1)])
def test_row_and_col_groups_are_subgroups(lam):
    for rows in enumerate_fillings(lam):
        for group in (row_group(rows), col_group(rows)):
            # a finite set of permutations closed under composition is a group
            members = set(group)
            for p in members:
                for q in members:
                    assert compose(p, q) in members
        assert set(row_group(rows)) & set(col_group(rows)) == {tuple(range(1, sum(lam) + 1))}
