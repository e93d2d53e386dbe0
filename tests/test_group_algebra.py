import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from symten import combinatorics, group_algebra
from symten.characters import mn_character
from symten.combinatorics import cycle_type, enumerate_partitions, enumerate_permutations
from symten.group_algebra import _class_table, _members, isotypic_projector
from symten.sampling import random_family
from symten.tensor import SparseTensor, apply_element, decomposable
from tests.reference import (
    column_antisymmetrizer,
    combination,
    element,
    enumerate_fillings,
    ga_multiply,
    hook_length_dimension,
    of_terms,
    row_symmetrizer,
    sum_young_symmetrizers,
    young_symmetrizer,
)

PAPER_TABLEAU = ((2, 3, 4), (1, 5))


def test_ga_multiply_examples():
    swap = (2, 1)
    minus = element(2, ((1, 2), 1), (swap, -1))
    plus = element(2, ((1, 2), 1), (swap, 1))
    assert ga_multiply(minus, plus).terms == {}
    assert ga_multiply(plus, element(2, ((1, 2), 1))).terms == plus.terms
    assert ga_multiply(minus, minus).terms == combination((2, minus)).terms


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
    assert b.terms == ga_multiply(minus_12, minus_35).terms
    a = row_symmetrizer(PAPER_TABLEAU)
    row_sum = element(5, *(
        (p, 1) for p in enumerate_permutations(5)
        if all(p[i - 1] in {2, 3, 4} for i in (2, 3, 4)) and p[4] == 5 and p[0] == 1
    ))
    plus_15 = element(5, (one, 1), ((5, 2, 3, 4, 1), 1))
    assert a.terms == ga_multiply(row_sum, plus_15).terms
    assert len(a.terms) == 12
    assert len(b.terms) == 4


def test_symmetrizer_degenerate_shapes():
    assert row_symmetrizer(((1,), (2,))).terms == {(1, 2): 1}
    assert row_symmetrizer(((1, 2),)).terms == {(1, 2): 1, (2, 1): 1}
    assert column_antisymmetrizer(((1, 2),)).terms == {(1, 2): 1}
    assert column_antisymmetrizer(((1,), (2,))).terms == {(1, 2): 1, (2, 1): -1}


def test_young_symmetrizer_examples():
    assert young_symmetrizer(((1,), (2,))).terms == {(1, 2): 1, (2, 1): -1}
    assert young_symmetrizer(((1, 2),)).terms == {(1, 2): 1, (2, 1): 1}
    # (1 - (13))(1 + (12)) = 1 + (12) - (13) - (13)(12), with
    # (13)(12) = [2,3,1] under the fixed composition convention
    expected = {(1, 2, 3): 1, (2, 1, 3): 1, (3, 2, 1): -1, (2, 3, 1): -1}
    assert young_symmetrizer(((1, 2), (3,))).terms == expected


def test_isotypic_projector_small():
    half = Fraction(1, 2)
    assert isotypic_projector((2,)).terms == {(1, 2): half, (2, 1): half}
    assert isotypic_projector((1, 1)).terms == {(1, 2): half, (2, 1): -half}
    expected = {(1, 2, 3): Fraction(2, 3), (2, 3, 1): Fraction(-1, 3), (3, 1, 2): Fraction(-1, 3)}
    assert isotypic_projector((2, 1)).terms == expected


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
# in permutation order within each class, as its images and a 0 byte
@pytest.mark.parametrize("n", range(8))
def test_class_indices_follow_permutation_order(n):
    shapes, classes = _class_table(n)
    assert shapes == tuple(enumerate_partitions(n))
    assert len(classes) == len(shapes)
    seen = []
    for ct, flat in zip(shapes, classes):
        members = list(_members(flat, n))
        assert b"".join(bytes(p) + b"\0" for p in members) == flat
        assert flat.split(b"\0") == [bytes(p) for p in members] + [b""]
        assert all(cycle_type(p) == ct for p in members)
        assert members == sorted(members)
        seen += members
    assert sorted(seen) == list(enumerate_permutations(n))


def test_class_table_of_degree_0_is_one_separator():
    assert _class_table(0) == (((),), (b"\0",))
    assert list(_members(b"\0", 0)) == [()]


@pytest.mark.parametrize("n", range(7))
def test_projector_terms_come_class_by_class(n):
    partitions = enumerate_partitions(n)
    for lam in partitions:
        terms = isotypic_projector(lam).terms
        # (class, weight) per string of permutations of one class
        blocks = [
            (k, terms[next(perms)])
            for k, perms in itertools.groupby(terms, lambda p: partitions.index(cycle_type(p)))
        ]
        # each class whole, once; the classes of one weight side by side in
        # table order, the weights in the order the table first reaches them
        assert len(blocks) == len({k for k, _ in blocks})
        first: dict = {}
        for k, w in sorted(blocks):
            first.setdefault(w, k)
        assert blocks == sorted(blocks, key=lambda b: (first[b[1]], b[0]))
        # one shared Fraction per distinct weight
        assert len({id(w) for w in terms.values()}) == len(set(terms.values()))


# the nonzero classes split by character value: one run per value, of its
# classes in table order, the values in the order the table reaches them
@pytest.mark.parametrize("n", range(8))
def test_projector_runs_are_the_nonzero_classes_split_where_chi_changes(n):
    shapes, classes = _class_table(n)
    for lam in shapes:
        scale = Fraction(hook_length_dimension(lam), math.factorial(n))
        expected: dict[int, bytes] = {}  # chi -> its classes' bytes, in table order
        for ct, flat in zip(shapes, classes):
            chi = mn_character(lam, ct)
            if chi:
                expected[chi] = expected.get(chi, b"") + flat
        runs = isotypic_projector(lam).runs
        assert [(flat, w) for flat, w in runs] == [
            (flat, scale * chi) for chi, flat in expected.items()
        ]
        assert len({w for _, w in runs}) == len(runs)
        assert all(type(flat) is bytes for flat, _ in runs)


@pytest.mark.parametrize("n", range(7))
def test_projector_equals_the_element_of_its_terms(n):
    rng = random.Random(n)
    for lam in enumerate_partitions(n):
        projector = isotypic_projector(lam)
        # one run per term: every run of one permutation goes one sigma at a time
        built = of_terms(n, projector.terms)
        assert built.terms == projector.terms
        assert len(built.runs) == len(projector.terms)
        x = decomposable(random_family(rng, n, 3, adversarial=True))
        assert apply_element(x, built).entries == apply_element(x, projector).entries


def test_applying_a_projector_builds_no_terms():
    family = random_family(random.Random(3), 6, 3)
    for lam in enumerate_partitions(6):
        projector = isotypic_projector(lam)
        apply_element(decomposable(family), projector)
        assert "terms" not in vars(projector)


def test_projector_build_is_small_once_the_class_table_is_warm():
    # the 40,320 permutations of S_8 as a dict would take megabytes
    _class_table(8)
    tracemalloc.start()
    try:
        isotypic_projector((4, 2, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


def test_projectors_of_one_degree_share_one_class_table(monkeypatch):
    calls = 0

    def counted(sigma):
        nonlocal calls
        calls += 1
        return cycle_type(sigma)

    monkeypatch.setattr(combinatorics, "cycle_type", counted)
    monkeypatch.setattr(group_algebra, "cycle_type", counted)
    _class_table.cache_clear()
    isotypic_projector((4, 2, 2))
    first = calls
    isotypic_projector((5, 3))
    assert first <= math.factorial(8)
    assert calls == first


def test_one_degree_lists_its_shapes_once(monkeypatch):
    listed = []

    def counted(n):
        listed.append(n)
        return enumerate_partitions(n)

    monkeypatch.setattr(group_algebra, "enumerate_partitions", counted)
    _class_table.cache_clear()
    shapes, _ = _class_table(8)
    projectors = [isotypic_projector(lam) for lam in shapes]
    x = SparseTensor(2, 8, {(1,) * 7 + (2,): Fraction(1)})
    components = [apply_element(x, p) for p in projectors]
    assert len(projectors) == len(components) == 22
    assert listed == [8]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_projectors_are_orthogonal_central_idempotents(n):
    partitions = enumerate_partitions(n)
    projectors = {lam: isotypic_projector(lam) for lam in partitions}
    for lam, p in projectors.items():
        assert ga_multiply(p, p).terms == p.terms
        for mu, q in projectors.items():
            if mu != lam:
                assert ga_multiply(p, q).terms == {}
    assert combination(*((1, p) for p in projectors.values())).terms == {
        tuple(range(1, n + 1)): 1
    }
    for lam, p in projectors.items():
        for sigma in enumerate_permutations(n):
            s = element(n, (sigma, 1))
            assert ga_multiply(p, s).terms == ga_multiply(s, p).terms


@pytest.mark.parametrize("n", [2, 3, 4])
def test_projector_fixes_young_symmetrizers(n):
    for lam in enumerate_partitions(n):
        projector = isotypic_projector(lam)
        for rows in enumerate_fillings(lam):
            c = young_symmetrizer(rows)
            assert ga_multiply(projector, c).terms == c.terms


@pytest.mark.parametrize("n", [2, 3, 4])
def test_young_symmetrizer_quasi_idempotent(n):
    for lam in enumerate_partitions(n):
        kappa = Fraction(math.factorial(n), hook_length_dimension(lam))
        for rows in enumerate_fillings(lam):
            c = young_symmetrizer(rows)
            assert ga_multiply(c, c).terms == combination((kappa, c)).terms


def _scalar_multiple_ratio(x, y):
    """The scalar q with x == q * y, or None."""
    if not y.terms:
        return None
    perm, coeff = next(iter(y.terms.items()))
    q = x.terms.get(perm, 0) / coeff
    return q if x.terms == combination((q, y)).terms else None


def test_sum_young_symmetrizers_examples():
    assert sum_young_symmetrizers((2,)).terms == combination((4, isotypic_projector((2,)))).terms
    assert (
        sum_young_symmetrizers((1, 1)).terms
        == combination((4, isotypic_projector((1, 1)))).terms
    )
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
