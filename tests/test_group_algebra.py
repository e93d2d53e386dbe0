import math
from fractions import Fraction

import pytest

from symten import combinatorics, group_algebra
from symten.characters import hook_length_dimension, mn_character
from symten.combinatorics import cycle_type, enumerate_partitions, enumerate_permutations
from symten.group_algebra import GroupAlgebraElement, _class_table, _members, isotypic_projector
from tests.reference import (
    column_antisymmetrizer,
    combination,
    element,
    enumerate_fillings,
    ga_multiply,
    row_symmetrizer,
    sum_young_symmetrizers,
    young_symmetrizer,
)

PAPER_TABLEAU = ((2, 3, 4), (1, 5))


def test_ga_multiply_examples():
    swap = (2, 1)
    minus = element(2, ((1, 2), 1), (swap, -1))
    plus = element(2, ((1, 2), 1), (swap, 1))
    assert ga_multiply(minus, plus) == GroupAlgebraElement(2)
    assert ga_multiply(plus, element(2, ((1, 2), 1))) == plus
    assert ga_multiply(minus, minus) == combination((2, minus))


def test_ga_multiply_degree_mismatch():
    with pytest.raises(ValueError):
        ga_multiply(element(2, ((1, 2), 1)), element(3, ((1, 2, 3), 1)))


def test_no_zero_coefficients_stored():
    x = element(2, ((1, 2), 1), ((2, 1), 0))
    assert (2, 1) not in x.terms
    assert element(2, ((1, 2), 0)).terms == {}


def test_paper_symmetrizers():
    # b_T = (1 - (12))(1 - (35)); a_T = (sum over S_{2,3,4})(1 + (15))
    one = (1, 2, 3, 4, 5)
    b = column_antisymmetrizer(PAPER_TABLEAU)
    minus_12 = element(5, (one, 1), ((2, 1, 3, 4, 5), -1))
    minus_35 = element(5, (one, 1), ((1, 2, 5, 4, 3), -1))
    assert b == ga_multiply(minus_12, minus_35)
    a = row_symmetrizer(PAPER_TABLEAU)
    row_sum = element(5, *(
        (p, 1) for p in enumerate_permutations(5)
        if all(p[i - 1] in {2, 3, 4} for i in (2, 3, 4)) and p[4] == 5 and p[0] == 1
    ))
    plus_15 = element(5, (one, 1), ((5, 2, 3, 4, 1), 1))
    assert a == ga_multiply(row_sum, plus_15)
    assert len(a.terms) == 12
    assert len(b.terms) == 4


def test_symmetrizer_degenerate_shapes():
    assert row_symmetrizer(((1,), (2,))) == element(2, ((1, 2), 1))
    assert row_symmetrizer(((1, 2),)) == element(2, ((1, 2), 1), ((2, 1), 1))
    assert column_antisymmetrizer(((1, 2),)) == element(2, ((1, 2), 1))
    assert column_antisymmetrizer(((1,), (2,))) == element(2, ((1, 2), 1), ((2, 1), -1))


def test_young_symmetrizer_examples():
    assert young_symmetrizer(((1,), (2,))) == element(2, ((1, 2), 1), ((2, 1), -1))
    assert young_symmetrizer(((1, 2),)) == element(2, ((1, 2), 1), ((2, 1), 1))
    # (1 - (13))(1 + (12)) = 1 + (12) - (13) - (13)(12), with
    # (13)(12) = [2,3,1] under the fixed composition convention
    expected = element(
        3,
        ((1, 2, 3), 1),
        ((2, 1, 3), 1),
        ((3, 2, 1), -1),
        ((2, 3, 1), -1),
    )
    assert young_symmetrizer(((1, 2), (3,))) == expected


def test_isotypic_projector_small():
    half = Fraction(1, 2)
    assert isotypic_projector((2,)) == element(2, ((1, 2), half), ((2, 1), half))
    assert isotypic_projector((1, 1)) == element(2, ((1, 2), half), ((2, 1), -half))
    expected = element(
        3,
        ((1, 2, 3), Fraction(2, 3)),
        ((2, 3, 1), Fraction(-1, 3)),
        ((3, 1, 2), Fraction(-1, 3)),
    )
    assert isotypic_projector((2, 1)) == expected


@pytest.mark.parametrize("n", range(7))
def test_isotypic_projector_matches_per_permutation_formula(n):
    partitions = enumerate_partitions(n)
    for lam in partitions:
        scale = Fraction(hook_length_dimension(lam), math.factorial(n))
        expected = {}
        for p in enumerate_permutations(n):
            chi = mn_character(lam, cycle_type(p))
            if chi:
                expected[p] = scale * chi
        terms = isotypic_projector(lam).terms
        assert terms == expected
        # one shared weight per class, not one Fraction per permutation
        assert len({id(w) for w in terms.values()}) <= len(partitions)


# the class table: every permutation once, under the index of its class,
# in permutation order within each class
@pytest.mark.parametrize("n", range(8))
def test_class_indices_follow_permutation_order(n):
    partitions = enumerate_partitions(n)
    table = _class_table(n)
    assert len(table) == len(partitions)
    seen = []
    for ct, flat in zip(partitions, table):
        members = list(_members(flat, n))
        assert bytes(i for p in members for i in p) == flat
        assert all(cycle_type(p) == ct for p in members)
        assert members == sorted(members)
        seen += members
    assert sorted(seen) == list(enumerate_permutations(n))


@pytest.mark.parametrize("n", range(7))
def test_projector_terms_come_class_by_class(n):
    partitions = enumerate_partitions(n)
    for lam in partitions:
        terms = isotypic_projector(lam).terms
        classes = [partitions.index(cycle_type(p)) for p in terms]
        assert classes == sorted(classes)
        # one shared Fraction per distinct weight
        assert len({id(w) for w in terms.values()}) == len(set(terms.values()))


def test_projectors_of_one_degree_share_one_class_table(monkeypatch):
    calls = 0

    def counted(sigma):
        nonlocal calls
        calls += 1
        return cycle_type(sigma)

    monkeypatch.setattr(combinatorics, "cycle_type", counted)
    monkeypatch.setattr(group_algebra, "cycle_type", counted)
    _class_table.cache_clear()
    isotypic_projector((4, 2, 2), max_n=8)
    first = calls
    isotypic_projector((5, 3), max_n=8)
    assert first <= math.factorial(8)
    assert calls == first


@pytest.mark.parametrize("n", [2, 3, 4])
def test_projectors_are_orthogonal_central_idempotents(n):
    partitions = enumerate_partitions(n)
    projectors = {lam: isotypic_projector(lam) for lam in partitions}
    for lam, p in projectors.items():
        assert ga_multiply(p, p) == p
        for mu, q in projectors.items():
            if mu != lam:
                assert ga_multiply(p, q) == GroupAlgebraElement(n)
    assert combination(*((1, p) for p in projectors.values())) == element(
        n, (tuple(range(1, n + 1)), 1)
    )
    for lam, p in projectors.items():
        for sigma in enumerate_permutations(n):
            s = element(n, (sigma, 1))
            assert ga_multiply(p, s) == ga_multiply(s, p)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_projector_fixes_young_symmetrizers(n):
    for lam in enumerate_partitions(n):
        projector = isotypic_projector(lam)
        for rows in enumerate_fillings(lam):
            c = young_symmetrizer(rows)
            assert ga_multiply(projector, c) == c


@pytest.mark.parametrize("n", [2, 3, 4])
def test_young_symmetrizer_quasi_idempotent(n):
    for lam in enumerate_partitions(n):
        kappa = Fraction(math.factorial(n), hook_length_dimension(lam))
        for rows in enumerate_fillings(lam):
            c = young_symmetrizer(rows)
            assert ga_multiply(c, c) == combination((kappa, c))


def _scalar_multiple_ratio(x, y):
    """The scalar q with x == q * y, or None."""
    if not y.terms:
        return None
    perm, coeff = next(iter(y.terms.items()))
    q = x.terms.get(perm, 0) / coeff
    return q if x == combination((q, y)) else None


def test_sum_young_symmetrizers_examples():
    assert sum_young_symmetrizers((2,)) == combination((4, isotypic_projector((2,))))
    assert sum_young_symmetrizers((1, 1)) == combination((4, isotypic_projector((1, 1))))
    ratio = _scalar_multiple_ratio(
        sum_young_symmetrizers((2, 1)), isotypic_projector((2, 1))
    )
    assert ratio is not None and ratio != 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sum_young_symmetrizers_is_multiple_of_projector(n):
    for lam in enumerate_partitions(n):
        ratio = _scalar_multiple_ratio(
            sum_young_symmetrizers(lam), isotypic_projector(lam)
        )
        assert ratio is not None and ratio != 0
