import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symten.combinatorics import sign
from symten.linalg import (
    VectorFamily,
    determinant,
    format_rational,
    is_independent,
    parse_rational,
    rank,
    span_equal,
    transition_scalar,
)

F = Fraction


def fam(*vectors):
    return VectorFamily(len(vectors[0]), tuple(tuple(F(x) for x in v) for v in vectors))


E1 = (1, 0, 0)
E2 = (0, 1, 0)
E3 = (0, 0, 1)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def test_rank_examples():
    assert rank([[F(0), F(0)], [F(0), F(0)]]) == 0
    assert rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank([]) == 0


def test_determinant_examples():
    assert determinant([[F(1), F(0)], [F(0), F(1)]]) == 1
    assert determinant([[F(0), F(1)], [F(1), F(0)]]) == -1
    assert determinant([[F(2), F(0)], [F(1), F(1)]]) == 2
    with pytest.raises(ValueError):
        determinant([[F(1), F(2)]])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3))
def test_determinant_matches_cofactor_expansion(rows):
    def cofactor(m):
        if len(m) == 1:
            return m[0][0]
        total = F(0)
        for j in range(len(m)):
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * cofactor(minor)
        return total

    assert determinant(rows) == cofactor(rows)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(rationals, min_size=2, max_size=2), min_size=2, max_size=2),
    st.lists(st.lists(rationals, min_size=2, max_size=2), min_size=2, max_size=2),
)
def test_determinant_multiplicative(a, b):
    product = [
        [sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert determinant(product) == determinant(a) * determinant(b)


def test_is_independent_examples():
    family = fam(E1, E1)
    assert is_independent(family, set())
    assert not is_independent(family, {1, 2})
    family = fam(E1, E2, (1, 1, 0))
    assert is_independent(family, {1, 3})
    with pytest.raises(IndexError):
        is_independent(family, {0})
    with pytest.raises(IndexError):
        is_independent(family, {4})


def test_span_equal_examples():
    a = fam(E1, E2)
    assert span_equal(a, {1}, a, {1})
    assert span_equal(a, {1}, fam((2, 0, 0)), {1})
    assert not span_equal(a, {1}, a, {2})
    assert not span_equal(a, {1}, a, {1, 2})
    with pytest.raises(ValueError):
        span_equal(fam(E1, E1), {1, 2}, a, {1, 2})
    with pytest.raises(ValueError, match="dimension"):
        span_equal(fam((1, 0)), {1}, fam((1, 0, 5)), {1})


def test_transition_scalar_examples():
    a = fam(E1, E2)
    assert transition_scalar(a, {1, 2}, a, {1, 2}) == 1
    b = fam(E2, E1)
    assert transition_scalar(a, {1, 2}, b, {1, 2}) == -1
    assert transition_scalar(fam((2, 0, 0)), {1}, fam(E1), {1}) == 2
    assert transition_scalar(a, {1}, a, {2}) is None
    assert transition_scalar(a, {1}, a, {1, 2}) is None


def test_transition_scalar_rejects_dependent_selections():
    independent = fam(E1, E2)
    dependent = fam(E1, (2, 0, 0))  # inside the span of the other
    with pytest.raises(ValueError, match="independent"):
        transition_scalar(dependent, {1, 2}, independent, {1, 2})
    with pytest.raises(ValueError, match="independent"):
        transition_scalar(independent, {1, 2}, dependent, {1, 2})
    # independent, with a nonzero minor on b's pivot column, spans distinct
    assert transition_scalar(fam((1, 1, 0)), {1}, fam(E1), {1}) is None
    # a dependent selection raises even when the spans or sizes differ
    with pytest.raises(ValueError, match="independent"):
        transition_scalar(fam(E1, E1), {1, 2}, fam(E2, E3), {1, 2})
    with pytest.raises(ValueError, match="independent"):
        span_equal(dependent, {1, 2}, independent, {2})
    with pytest.raises(ValueError, match="independent"):
        transition_scalar(independent, {1}, dependent, {1, 2})


def _random_independent(rng, dim, count):
    while True:
        vectors = [
            tuple(F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(dim))
            for _ in range(count)
        ]
        if rank(vectors) == count:
            return vectors


def test_transition_scalar_inverse_and_chain():
    rng = random.Random(7)
    for _ in range(25):
        count = rng.choice((1, 2, 3))
        base = _random_independent(rng, 3, count)
        fam_a = VectorFamily(3, tuple(base))
        mix_b = [
            [F(rng.randint(-2, 2)) for _ in range(count)] for _ in range(count)
        ]
        while determinant(mix_b) == 0:
            mix_b = [
                [F(rng.randint(-2, 2)) for _ in range(count)] for _ in range(count)
            ]
        fam_b = VectorFamily(
            3,
            tuple(
                tuple(sum(row[i] * base[i][d] for i in range(count)) for d in range(3))
                for row in mix_b
            ),
        )
        idx = set(range(1, count + 1))
        ab = transition_scalar(fam_a, idx, fam_b, idx)
        ba = transition_scalar(fam_b, idx, fam_a, idx)
        assert ab * ba == 1
        # fam_b = mix_b . base, so wedge(b) = det(mix_b) wedge(a)
        assert ab == 1 / determinant(mix_b)
        ac = transition_scalar(fam_a, idx, fam_a, idx)
        assert ac == 1
        assert ab == transition_scalar(fam_a, idx, fam_b, idx)


def test_independence_matches_nonzero_minor():
    rng = random.Random(11)
    for _ in range(30):
        vectors = [
            tuple(F(rng.randint(-2, 2)) for _ in range(3)) for _ in range(4)
        ]
        family = VectorFamily(3, tuple(vectors))
        for size in (1, 2, 3):
            for subset in itertools.combinations(range(1, 5), size):
                selected = family.select(subset)
                has_minor = any(
                    determinant([[v[c] for c in cols] for v in selected]) != 0
                    for cols in itertools.combinations(range(3), size)
                )
                assert is_independent(family, subset) == has_minor


def test_reading_order_signs_cancel_in_products():
    # re-reading a column set in a different internal order flips the sign
    # of its wedge wherever the set occurs; since each set occurs once as a
    # source and once as a target, the scalar product is invariant
    rng = random.Random(3)
    idx = {1, 2, 3}
    for _ in range(20):
        base = _random_independent(rng, 3, 3)
        other = _random_independent(rng, 3, 3)
        while rank(base + other) != 3:
            other = _random_independent(rng, 3, 3)
        order = list(range(3))
        rng.shuffle(order)
        fam_base = VectorFamily(3, tuple(base))
        fam_other = VectorFamily(3, tuple(other))
        fam_reread = VectorFamily(3, tuple(base[i] for i in order))
        scalar_plain = transition_scalar(fam_base, idx, fam_other, idx)
        # set used as source and as target with the same re-reading
        scalar_reread = transition_scalar(fam_reread, idx, fam_other, idx)
        back_plain = transition_scalar(fam_other, idx, fam_base, idx)
        back_reread = transition_scalar(fam_other, idx, fam_reread, idx)
        assert scalar_reread == sign(tuple(i + 1 for i in order)) * scalar_plain
        assert scalar_plain * back_plain == scalar_reread * back_reread == 1


@settings(max_examples=50, deadline=None)
@given(rationals)
def test_rational_serialization_round_trip(q):
    text = format_rational(q)
    assert " " not in text
    assert parse_rational(text) == q


def test_rational_formatting():
    assert format_rational(F(3)) == "3"
    assert format_rational(F(-1, 2)) == "-1/2"
    assert parse_rational("7/3") == F(7, 3)
    assert parse_rational(-4) == -4
    assert parse_rational("-0/5") == 0


@pytest.mark.parametrize(
    "value",
    [True, False, 0.5, 1.0, float("inf"), None, [1], "0.1", "1e3", "1e10000000",
     " 1", "1 ", "+1", "1/-2", "1/0", "", "1/", "/2", "½", "１", "1" * 5000],
    ids=lambda value: repr(value)[:16],
)
def test_parse_rational_rejects(value):
    with pytest.raises(ValueError):
        parse_rational(value)


def test_vector_family_validation():
    with pytest.raises(ValueError):
        VectorFamily(2, ((F(1),),))
