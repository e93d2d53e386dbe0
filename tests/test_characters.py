import math

import pytest

from symten.characters import character_table, class_size, hook_length_dimension, mn_character
from symten.combinatorics import cycle_type, enumerate_partitions, enumerate_standard
from tests import reference
from tests.reference import character_table_oracle


def test_hook_length_dimension_examples():
    assert hook_length_dimension((5,)) == 1
    assert hook_length_dimension((2, 1)) == 2
    assert hook_length_dimension((2, 2)) == 2
    assert hook_length_dimension((3, 2)) == 5


def test_mn_character_examples():
    for ct in enumerate_partitions(3):
        assert mn_character((3,), ct) == 1
    assert mn_character((1, 1, 1), (2, 1)) == -1
    # classes in the order (1,1,1), (2,1), (3); values frozen from the
    # Gram-Schmidt permutation-character oracle
    assert [mn_character((2, 1), ct) for ct in [(1, 1, 1), (2, 1), (3,)]] == [2, 0, -1]


def test_mn_character_size_mismatch():
    with pytest.raises(ValueError):
        mn_character((2, 1), (2, 2))


def test_trivial_and_sign_rows():
    for n in range(1, 7):
        for ct in enumerate_partitions(n):
            assert mn_character((n,), ct) == 1
            assert mn_character(tuple([1] * n), ct) == (-1) ** (n - len(ct))


def test_young_permutation_character_examples():
    # tabloids of shape lam fixed by sigma, as the character oracle counts them
    def fixed(lam, sigma):
        return reference._fixed_tabloid_count(lam, cycle_type(sigma))

    assert fixed((3,), (2, 3, 1)) == 1
    assert fixed((1, 1, 1), (1, 2, 3)) == 6
    assert fixed((2, 1), (2, 1, 3)) == 1


def test_class_sizes_sum_to_group_order():
    for n in range(1, 8):
        assert sum(class_size(ct, n) for ct in enumerate_partitions(n)) == math.factorial(n)


def test_oracle_small_tables():
    t2 = character_table_oracle(2)
    assert t2.values == ((1, 1), (-1, 1))  # classes ordered (2), (1,1)
    t3 = character_table_oracle(3)
    assert [row[-1] for row in t3.values] == [1, 2, 1]
    t4 = character_table_oracle(4)
    dims = [row[-1] for row in t4.values]
    assert dims == [1, 3, 2, 3, 1]
    assert sum(d * d for d in dims) == 24


@pytest.mark.parametrize("n", range(1, 7))
def test_mn_table_matches_oracle(n):
    assert character_table(n).values == character_table_oracle(n).values


@pytest.mark.parametrize("n", range(1, 7))
def test_row_orthogonality(n):
    table = character_table(n)
    n_fact = math.factorial(n)
    for i, row_i in enumerate(table.values):
        for j, row_j in enumerate(table.values):
            ip = sum(
                size * a * b
                for size, a, b in zip(table.class_sizes, row_i, row_j)
            )
            assert ip == (n_fact if i == j else 0)


@pytest.mark.parametrize("n", range(1, 7))
def test_column_orthogonality(n):
    table = character_table(n)
    classes = list(range(len(table.classes)))
    for c in classes:
        for d in classes:
            ip = sum(row[c] * row[d] for row in table.values)
            if c == d:
                assert ip == math.factorial(n) // table.class_sizes[c]
            else:
                assert ip == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_dimension_consistency(n):
    identity_class = tuple([1] * n)
    for lam in enumerate_partitions(n):
        dim = hook_length_dimension(lam)
        assert mn_character(lam, identity_class) == dim
        assert len(enumerate_standard(lam)) == dim


@pytest.mark.parametrize("n", range(1, 9))
def test_sum_of_squared_dimensions(n):
    assert sum(
        hook_length_dimension(lam) ** 2 for lam in enumerate_partitions(n)
    ) == math.factorial(n)


def test_oracle_refuses_non_integer_values(monkeypatch):
    # one extra fixed tabloid for the identity in S_2 makes the (1,1) row
    # of the Gram-Schmidt non-integral; the check must not be an assert
    real = reference._fixed_tabloid_count

    def perturbed(capacities, cycle_lengths):
        extra = capacities == (1, 1) and cycle_lengths == (1, 1)
        return real(capacities, cycle_lengths) + extra

    monkeypatch.setattr(reference, "_fixed_tabloid_count", perturbed)
    with pytest.raises(ArithmeticError):
        character_table_oracle(2)
