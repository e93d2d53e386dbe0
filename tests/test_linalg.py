import gc
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symten.linalg import (
    VectorFamily,
    _scaled,
    determinant,
    format_rational,
    is_independent,
    parse_rational,
    rank,
    span_equal,
    span_key,
    transition_scalar,
)
from tests.reference import count_eliminations, fam, sign

F = Fraction


E1 = (1, 0, 0)
E2 = (0, 1, 0)
E3 = (0, 0, 1)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def test_rank_examples():
    assert rank([[F(0), F(0)], [F(0), F(0)]]) == 0
    assert rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank([]) == 0


def test_rank_refuses_rows_of_unequal_length():
    for rows in ([[1], [2, 3]], [[0, 0], [1]]):
        with pytest.raises(ValueError, match="unequal length"):
            rank(rows)


def _reference_scaled(values):
    """The lcm of the denominators and each value times it, by Fractions."""
    fractions = [F(x) for x in values]
    lcm = math.lcm(*(q.denominator for q in fractions))
    return [q * lcm for q in fractions], lcm


def _check_scaled(values):
    ints, lcm = _scaled(values)
    scaled, reference_lcm = _reference_scaled(values)
    assert type(ints) is tuple and all(type(x) is int for x in ints)
    assert type(lcm) is int and lcm == reference_lcm
    assert list(ints) == scaled
    return ints, lcm


def test_scaled_examples():
    assert _check_scaled([]) == ((), 1)
    assert _check_scaled({}.values()) == ((), 1)
    assert _check_scaled((3, -4, 0, 7)) == ((3, -4, 0, 7), 1)
    # repeated and mixed denominators, ints among them
    mixed = [F(1, 2), F(-2, 3), F(5, 6), F(1, 2), 7, F(1, 3), F(-1, 2)]
    assert _check_scaled(mixed) == ((3, -4, 5, 3, 42, 2, -3), 6)
    weights = {(1, 2): F(3, 4), (2, 1): 2, (1, 1): F(-1, 4), (2, 2): F(3, 4)}
    assert _check_scaled(weights.values()) == ((3, 8, -1, 3), 4)


@settings(max_examples=100, deadline=None)
@given(st.lists(rationals | st.integers(-50, 50), max_size=12))
def test_scaled_matches_fraction_reference(values):
    _check_scaled(values)
    _check_scaled(dict(enumerate(values)).values())


def test_determinant_examples():
    assert determinant([[F(1), F(0)], [F(0), F(1)]]) == 1
    assert determinant([[F(0), F(1)], [F(1), F(0)]]) == -1
    assert determinant([[F(2), F(0)], [F(1), F(1)]]) == 2
    with pytest.raises(ValueError):
        determinant([[F(1), F(2)]])


def test_rank_and_determinant_of_int_matrices_are_exact():
    ints = [[2, 1, 1], [1, 3, 2], [1, 0, 0]]
    mixed = [[F(1, 2), 3], [1, F(1, 3)]]
    singular = [[1, 2, 3], [2, 4, 6], [3, 1, 1]]
    assert rank(ints) == 3 and rank(mixed) == 2 and rank(singular) == 2
    for rows, expected in ((ints, F(-1)), (mixed, F(-17, 6)), (singular, F(0)),
                           ([[3, 1], [1, 3]], F(8))):
        det = determinant(rows)
        assert type(det) is Fraction
        assert det == expected


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
    with pytest.raises(IndexError, match=r"^index 0 out of range 1\.\.3$"):
        is_independent(family, {0})
    with pytest.raises(IndexError, match=r"^index 4 out of range 1\.\.3$"):
        is_independent(family, {4, 1})
    # a refused selection leaves nothing in the family's memo
    assert set(family._span_keys) == {(1, 3)}


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
    # independent selections in different ambient dimensions
    with pytest.raises(ValueError, match="dimension mismatch"):
        transition_scalar(independent, {1}, fam((1, 0)), {1})


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


def test_span_key_examples():
    a = fam(E1, E2, (1, 1, 0), (2, 0, 0))
    assert span_key(a, set()) == ((), 1)
    assert span_key(a, {1, 4}) is None
    assert span_key(a, {1, 2}) == ((E1, E2), 1)
    # two different bases of the xy-plane, each read in index order
    assert span_key(a, {2, 3}) == ((E1, E2), -1)
    assert span_key(a, {3, 4}) == ((E1, E2), -2)
    assert span_key(fam((0, 2, 4)), {1}) == (((0, 1, 2),), 2)


def _select(family, indices):
    """The vectors at the increasing 1-based indices."""
    return [family.vectors[i - 1] for i in indices]


def test_span_key_names_the_span():
    rng = random.Random(13)
    for _ in range(15):
        base = _random_independent(rng, 3, 2)
        pool = [*base, *(_random_independent(rng, 3, 1))]
        vectors = [
            tuple(rng.choice((-1, 1, 2)) * x for x in rng.choice(pool))
            if rng.random() < 0.5
            else tuple(
                rng.randint(-2, 2) * x + rng.randint(-2, 2) * y
                for x, y in zip(*base)
            )
            for _ in range(4)
        ]
        family = VectorFamily(3, tuple(vectors))
        subsets = [
            s for size in range(4) for s in itertools.combinations(range(1, 5), size)
        ]
        keys = {s: span_key(family, s) for s in subsets}
        for s, key in keys.items():
            assert (key is None) == (rank(_select(family, s)) < len(s))
        independent = [s for s in subsets if keys[s] is not None]
        for a in independent:
            for b in independent:
                union = _select(family, a) + _select(family, b)
                same = rank(union) == len(a) == len(b)
                assert (keys[a][0] == keys[b][0]) == same
                if not same:
                    continue
                pivots = [next(c for c, x in enumerate(row) if x) for row in keys[b][0]]
                minor_a, minor_b = (
                    determinant([[v[c] for c in pivots] for v in _select(family, s)])
                    for s in (a, b)
                )
                assert keys[a][1] / keys[b][1] == minor_a / minor_b
                assert transition_scalar(family, a, family, b) == minor_a / minor_b


def _reference_echelon(rows):
    """Plain rational Gauss-Jordan: reduced rows with pivots, pivot columns, minor."""
    m = [[F(x) for x in row] for row in rows]
    pivots, minor = [], F(1)
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            minor = -minor
        minor *= m[r][c]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return [tuple(row) for row in m[: len(pivots)]], pivots, minor


@st.composite
def matrices(draw):
    """k rows in dimension dim: zero columns, row swaps, dependent rows,
    int and Fraction entries with numerators up to 10**6, k = 0 and k > dim."""
    dim = draw(st.integers(1, 4))
    k = draw(st.integers(0, dim + 2))
    big = st.integers(-10**6, 10**6)
    entry = st.one_of(
        big, st.builds(F, big, st.integers(1, 97)), st.sampled_from((0, 0, 1, -1, F(1, 2)))
    )
    zero_cols = draw(st.sets(st.integers(0, dim - 1), max_size=dim - 1))
    rows = [[0 if c in zero_cols else draw(entry) for c in range(dim)] for _ in range(k)]
    for i in range(1, k):
        kind = draw(st.sampled_from(("free", "multiple", "combination")))
        if kind == "multiple":
            scale = draw(st.sampled_from((-1, 3, F(-2, 7), F(10**6, 3))))
            rows[i] = [scale * x for x in rows[draw(st.integers(0, i - 1))]]
        elif kind == "combination":
            coeffs = [draw(st.sampled_from((0, 1, -2, F(1, 3)))) for _ in range(i)]
            rows[i] = [sum(a * row[c] for a, row in zip(coeffs, rows)) for c in range(dim)]
    if k and draw(st.booleans()):  # the first row has no pivot where a later one does
        lead = next((c for c in range(dim) if any(row[c] for row in rows)), None)
        if lead is not None:
            rows[0][lead] = 0
    return dim, rows


@settings(max_examples=150, deadline=None, report_multiple_bugs=False)
@given(matrices())
def test_integer_elimination_matches_rational_reference(case):
    dim, rows = case
    reference = _reference_echelon(rows)
    assert rank(rows) == len(reference[1])
    if len(rows) == dim:
        assert determinant(rows) == (reference[2] if len(reference[1]) == dim else 0)
    family = VectorFamily(dim, tuple(map(tuple, rows)))
    subsets = [
        s for size in range(len(rows) + 1)
        for s in itertools.combinations(range(1, len(rows) + 1), size)
    ]
    by_key, by_reference = {}, {}
    for s in subsets:
        basis, pivots, minor = _reference_echelon(_select(family, s))
        key = span_key(family, s)
        assert (key is None) == (len(pivots) < len(s))
        if key is None:
            continue
        assert key[1] == minor and type(key[1]) is Fraction
        assert len(key[0]) == len(basis)
        for row, c, reduced in zip(key[0], pivots, basis):
            assert all(type(x) is int for x in row)
            assert math.gcd(*row) == 1
            assert next(x for x in row if x) == row[c] > 0
            assert tuple(F(x, row[c]) for x in row) == reduced
        by_key.setdefault(key[0], set()).add(s)
        by_reference.setdefault(tuple(basis), set()).add(s)
    assert sorted(map(sorted, by_key.values())) == sorted(map(sorted, by_reference.values()))


@pytest.mark.parametrize(
    "value", [0.1, 1.0, True, False, "1", "1e3", None],
    ids=lambda value: repr(value),
)
def test_inexact_entries_are_refused(value):
    with pytest.raises(TypeError):
        VectorFamily(2, ((1, value),))
    with pytest.raises(TypeError):
        rank([[1, value]])
    with pytest.raises(TypeError):
        determinant([[value]])
    with pytest.raises(TypeError):
        format_rational(value)


def test_vector_family_keeps_entries():
    q = F(2, 3)
    family = VectorFamily(2, [[q, 5]])
    assert family.vectors == ((q, 5),)
    assert family.vectors[0][0] is q
    assert family == VectorFamily(2, ((F(2, 3), F(5)),))
    assert "_scaled_rows" not in repr(family)
    twin = VectorFamily(2, [[q, 5]])
    # the span keys a family memoizes are not part of its value
    assert span_key(family, {1}) == (((2, 15),), F(2, 3))
    assert set(family._span_keys) == {(1,)} and not twin._span_keys
    assert family == twin and hash(family) == hash(twin)
    assert repr(family) == repr(twin) == "VectorFamily(dim=2, vectors=((Fraction(2, 3), 5),))"


def test_span_key_memo_holds_no_reference_to_its_family():
    family = fam(E1, E2, (1, 1, 0))
    span_key(family, {1, 3})
    memo = family._span_keys
    assert all(x is not family for x in gc.get_referents(memo))
    assert memo.rows is family._scaled_rows and memo.dim == family.dim


def test_span_key_memo_eliminates_each_selection_once(monkeypatch):
    eliminations = count_eliminations(monkeypatch)
    family = fam(E1, E2, (1, 1, 0), E3)
    for _ in range(2):
        for indices in ({1, 2}, [2, 1], (1, 2, 3), {1, 2, 3, 4}, {4, 3}, {4, 2, 1}):
            span_key(family, indices)
            is_independent(family, indices)
        assert transition_scalar(family, {1, 2}, family, {3, 2}) == -1
        assert span_equal(family, {1, 2}, family, {1, 3})
    # {1, 2, 3, 4} has more vectors than dimensions and needs no elimination;
    # keys of dim vectors read only the minor, so only the forward half runs
    assert [(len(rows), reduce) for rows, reduce in eliminations] == [
        (2, True), (3, False), (2, True), (3, False), (2, True), (2, True),
    ]
    assert span_key(family, {1, 2, 4}) == ((E1, E2, E3), 1)
    eliminations.clear()
    assert rank([E1, (1, 1, 0), E2]) == 2
    assert determinant([E1, (1, 1, 0), E3]) == 1
    assert [reduce for _, reduce in eliminations] == [False, False]


def test_identity_basis_is_built_with_the_first_key_of_dim_vectors():
    # an identity basis of dimension 3,000 holds 9,000,000 entries
    dim = 3000
    tracemalloc.start()
    try:
        family = VectorFamily(dim, [[1] + [0] * (dim - 1)])
        assert span_key(family, {1}) == (((1,) + (0,) * (dim - 1),), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024
    assert family._span_keys.identity is None
    square = fam(E1, (1, 1, 0), E2, E3)
    assert square._span_keys.identity is None
    assert span_key(square, {1, 2, 4}) == ((E1, E2, E3), 1)
    assert span_key(square, {2, 3, 4})[0] is square._span_keys.identity


def test_independence_matches_nonzero_minor():
    rng = random.Random(11)
    for _ in range(30):
        vectors = [
            tuple(F(rng.randint(-2, 2)) for _ in range(3)) for _ in range(4)
        ]
        family = VectorFamily(3, tuple(vectors))
        for size in (1, 2, 3):
            for subset in itertools.combinations(range(1, 5), size):
                selected = _select(family, subset)
                has_minor = any(
                    determinant([[v[c] for c in cols] for v in selected]) != 0
                    for cols in itertools.combinations(range(3), size)
                )
                assert is_independent(family, subset) == has_minor


def test_independence_agrees_with_span_key():
    # zero, repeated and parallel vectors, and selections past the dimension
    rng = random.Random(19)
    families = [fam((1, 2, 0), (0, 0, 0), (1, 2, 0), (-2, -4, 0), (0, 1, 1), (F(1, 2), 0, 3))]
    families += [
        fam(*(tuple(rng.randint(-1, 1) * rng.choice([1, F(1, 3)]) for _ in range(3))
              for _ in range(6)))
        for _ in range(20)
    ]
    for family in families:
        for size in range(len(family) + 1):
            for subset in itertools.combinations(range(1, len(family) + 1), size):
                assert is_independent(family, subset) == (span_key(family, subset) is not None)


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
    assert format_rational(-4) == "-4"
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
