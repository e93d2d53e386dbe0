import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from operator import itemgetter, mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symten import crosscheck, group_algebra, tensor
from symten.characters import mn_character
from symten.combinatorics import SizeLimitError, enumerate_partitions
from symten.group_algebra import (
    GroupAlgebraElement,
    _class_table,
    _class_weights,
    _members,
    isotypic_projector,
)
from symten.linalg import VectorFamily, _scaled
from symten.sampling import random_family
from symten.tensor import (
    SparseTensor,
    act,
    apply_element,
    decomposable,
    is_zero,
    project,
    tensor_add,
    tensor_equal,
    to_json_obj,
)
from tests.reference import (
    column_antisymmetrizer,
    combination,
    element,
    fam,
    from_json_obj,
    ga_multiply,
    of_terms,
    young_symmetrizer,
)

F = Fraction


def test_decomposable_examples():
    x = decomposable(fam((1, 0), (0, 1)))
    assert x.entries == {(1, 2): F(1)}
    x = decomposable(fam((2, 0), (1, 0)))
    assert x.entries == {(1, 1): F(2)}
    x = decomposable(fam((1, 1), (1, 0)))
    assert x.entries == {(1, 1): F(1), (2, 1): F(1)}


def _reference_decomposable(family):
    """decomposable written out with one Fraction product per entry."""
    entries = {}
    supports = [[(i, x) for i, x in enumerate(v, 1) if x] for v in family.vectors]
    for combo in itertools.product(*supports):
        coeff = F(1)
        for _, x in combo:
            coeff *= x
        entries[tuple(i for i, _ in combo)] = coeff
    return entries


_entries = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=6))


@st.composite
def _families(draw):
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(0, 4))
    vectors = [
        draw(st.one_of(st.just((0,) * dim), st.tuples(*[_entries] * dim)))
        for _ in range(n)
    ]
    return VectorFamily(dim, tuple(vectors))


@settings(max_examples=150, deadline=None)
@given(_families())
def test_decomposable_matches_fraction_reference(family):
    x = decomposable(family)
    assert (x.dim, x.order) == (family.dim, len(family))
    assert x.entries == _reference_decomposable(family)
    assert all(type(c) is F for c in x.entries.values())


def test_decomposable_of_empty_and_zero_families():
    assert decomposable(VectorFamily(2, ())).entries == {(): F(1)}
    assert is_zero(decomposable(VectorFamily(2, ((1, 2), (0, 0)))))


def test_act_examples():
    e12 = decomposable(fam((1, 0), (0, 1)))
    assert act(e12, (2, 1)).entries == {(2, 1): F(1)}
    assert tensor_equal(act(e12, (1, 2)), e12)
    e123 = decomposable(fam((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    # the 3-cycle with one-line images [2,3,1] moves e1@e2@e3 to e2@e3@e1
    assert act(e123, (2, 3, 1)).entries == {(2, 3, 1): F(1)}


def test_act_degree_mismatch():
    with pytest.raises(ValueError):
        act(decomposable(fam((1, 0), (0, 1))), (1, 2, 3))


def test_apply_element_examples():
    e12 = decomposable(fam((1, 0), (0, 1)))
    sym = apply_element(e12, isotypic_projector((2,)))
    assert sym.entries == {(1, 2): F(1, 2), (2, 1): F(1, 2)}
    alt = apply_element(e12, isotypic_projector((1, 1)))
    assert alt.entries == {(1, 2): F(1, 2), (2, 1): F(-1, 2)}
    e11 = decomposable(fam((1, 0), (1, 0)))
    assert is_zero(apply_element(e11, isotypic_projector((1, 1))))


def test_is_zero_and_equal_examples():
    assert is_zero(SparseTensor(2, 2))
    x = decomposable(fam((1, 0), (0, 1)))
    assert tensor_equal(x, x)
    sym = apply_element(x, isotypic_projector((2,)))
    sym_swapped = apply_element(decomposable(fam((0, 1), (1, 0))), isotypic_projector((2,)))
    assert tensor_equal(sym, sym_swapped)
    with pytest.raises(ValueError):
        tensor_equal(x, SparseTensor(2, 3))


def test_canonical_form_drops_zeros():
    x = SparseTensor(2, 1, {(1,): F(0), (2,): F(3)})
    assert x.entries == {(2,): F(3)}
    assert is_zero(tensor_add(x, SparseTensor(2, 1, {(2,): F(-3)})))


def test_public_paths_drop_zeros():
    x = SparseTensor(2, 2, {(1, 1): F(0), (1, 2): F(1, 2), (2, 2): F(-1)})
    assert x.entries == {(1, 2): F(1, 2), (2, 2): F(-1)}
    entries = [{"index": [1], "coeff": "0"}, {"index": [2], "coeff": "-2/3"}]
    loaded = from_json_obj({"dim": 2, "order": 1, "entries": entries})
    assert loaded.entries == {(2,): F(-2, 3)}
    y = SparseTensor(2, 2, {(1, 2): F(-1, 2), (2, 1): F(5)})
    assert tensor_add(x, y).entries == {(2, 1): F(5), (2, 2): F(-1)}
    plus = element(2, ((1, 2), 1), ((2, 1), 1))
    minus = element(2, ((1, 2), 1), ((2, 1), -1))
    assert ga_multiply(plus, minus).terms == {}


def test_builders_do_not_refilter_nonzero_entries(monkeypatch):
    family = fam((1, F(1, 2), 0), (0, 2, -1), (F(3, 4), 1, 1), (1, 0, 2))
    calls = []
    nonzero = F.__bool__

    def counted(self):
        calls.append(self)
        return nonzero(self)

    monkeypatch.setattr(F, "__bool__", counted)
    x = decomposable(family)
    result = apply_element(x, isotypic_projector((2, 1, 1)))
    moved = act(result, (2, 3, 4, 1))
    components = [apply_element(x, isotypic_projector(lam)) for lam in enumerate_partitions(4)]
    monkeypatch.undo()
    assert calls == []
    for t in (x, result, moved, *components):
        assert all(t.entries.values())


@pytest.mark.parametrize("n,r", [(2, 2), (3, 2), (3, 3), (4, 3)])
def test_right_action_law(monkeypatch, n, r):
    monkeypatch.setattr(crosscheck, "DIMS", (r,))
    props = dict(crosscheck.properties(n, 20, random.Random(n * 10 + r)))
    assert props["right_action_law"]() == 20


@pytest.mark.parametrize("n", [2, 3, 4])
def test_projector_idempotent_and_resolution_of_identity(n):
    props = dict(crosscheck.properties(n, 10, random.Random(100 + n)))
    assert props["projector_idempotent_and_complete"]() == 10 * len(enumerate_partitions(n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_apply_element_respects_products(n):
    rng = random.Random(n)
    x = decomposable(random_family(rng, n, 3))
    for lam in enumerate_partitions(n):
        g = isotypic_projector(lam)
        h = young_symmetrizer(tuple(tuple(range(sum(lam[:i]) + 1, sum(lam[:i + 1]) + 1)) for i in range(len(lam))))
        assert tensor_equal(
            apply_element(x, ga_multiply(g, h)),
            apply_element(apply_element(x, g), h),
        )
        assert tensor_equal(apply_element(x, element(n, (tuple(range(1, n + 1)), 1))), x)


def test_json_round_trip():
    rng = random.Random(5)
    x = apply_element(
        decomposable(random_family(rng, 3, 3)), isotypic_projector((2, 1))
    )
    obj = to_json_obj(x)
    indices = [tuple(e["index"]) for e in obj["entries"]]
    assert indices == sorted(indices)
    assert all(isinstance(e["coeff"], str) for e in obj["entries"])
    assert tensor_equal(from_json_obj(obj), x)


def _reference_apply(x, g):
    """apply_element written out term by term in Fraction arithmetic."""
    entries = {}
    for sigma, weight in g.terms.items():
        for index, coeff in x.entries.items():
            moved = tuple(index[s - 1] for s in sigma)
            entries[moved] = entries.get(moved, F(0)) + weight * coeff
    return {i: c for i, c in entries.items() if c != 0}


_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def _tensor_and_element(draw):
    order = draw(st.integers(0, 5))
    dim = draw(st.integers(1, 3))
    index = st.tuples(*[st.integers(1, dim)] * order)
    x = SparseTensor(dim, order, draw(st.dictionaries(index, _rationals, max_size=6)))
    perm = st.permutations(range(1, order + 1)).map(tuple)
    g = of_terms(order, draw(st.dictionaries(perm, _rationals, max_size=8)))
    if order >= 2 and draw(st.booleans()):
        # x fixed by a transposition tau is killed by (1 - tau) * h, so
        # every sum of that part cancels to zero inside the accumulator
        tau = (2, 1) + tuple(range(3, order + 1))
        x = tensor_add(x, act(x, tau))
        one = tuple(range(1, order + 1))
        g = combination((1, g), (1, ga_multiply(element(order, (one, 1), (tau, -1)), g)))
    return x, g


@settings(max_examples=150, deadline=None)
@given(_tensor_and_element())
def test_apply_element_matches_fraction_reference(case):
    x, g = case
    result = apply_element(x, g)
    assert (result.dim, result.order) == (x.dim, x.order)
    assert result.entries == _reference_apply(x, g)
    assert all(type(c) is F for c in result.entries.values())


@st.composite
def _tableau_elements(draw):
    """A column antisymmetrizer or Young symmetrizer of a random filling of
    order 0 to 5, scaled: equal weights that need not sit next to each other."""
    order = draw(st.integers(0, 5))
    lam = draw(st.sampled_from(enumerate_partitions(order)))
    labels = iter(draw(st.permutations(range(1, order + 1))))
    rows = tuple(tuple(itertools.islice(labels, part)) for part in lam)
    make = draw(st.sampled_from([column_antisymmetrizer, young_symmetrizer]))
    return combination((draw(_rationals.filter(bool)), make(rows)))


@settings(max_examples=150, deadline=None)
@given(_tableau_elements(), st.data())
@example(column_antisymmetrizer(((1, 2), (3, 4))), None)
@example(young_symmetrizer(()), None)
@example(young_symmetrizer(((1,),)), None)
def test_apply_element_matches_fraction_reference_on_tableau_elements(g, data):
    dim = 2
    if data is None:
        x = SparseTensor(dim, g.degree, {(1,) * g.degree: F(-5, 6)})
    else:
        index = st.tuples(*[st.integers(1, dim)] * g.degree)
        entries = data.draw(st.dictionaries(index, _rationals, max_size=8))
        x = SparseTensor(dim, g.degree, entries)
    assert apply_element(x, g).entries == _reference_apply(x, g)
    assert is_zero(apply_element(SparseTensor(dim, g.degree), g))


def _record_paths(monkeypatch):
    """The kernel's path per run, as it takes them, read after the call:
    ("count", k) for each entry of x on a counted run of k permutations,
    ("walk", k) for a run of k permutations walked one sigma at a time.
    Each counted update must hold at most one slice of words and its
    separator's empty word."""
    paths = []

    class Recorded(Counter):
        def __init__(self):
            super().__init__()
            paths.append(self)

        def update(self, words=None):
            assert words is None or len(words) <= tensor._SLICE + 1
            super().update(words)

    def walk(flat, n):
        paths.append(("walk", len(flat) // (n + 1)))
        return _members(flat, n)

    monkeypatch.setattr(tensor, "Counter", Recorded)
    monkeypatch.setattr(tensor, "_members", walk)
    return lambda: [("count", p.total()) if isinstance(p, Counter) else p for p in paths]


def test_apply_element_of_a_degree_7_projector_mixes_counted_and_per_sigma_runs(
    monkeypatch,
):
    # the projector of (7) has one run of 5,040 equal weights; perturbing
    # every other permutation from position 100 on leaves a first run of
    # 100, then runs of one, then a last run of 4,901
    p = isotypic_projector((7,))
    start = 100
    bumps = {start + 2 * i: F(i + 1, 2) for i in range(20)}
    weights = [w + bumps.get(k, 0) for k, w in enumerate(p.terms.values())]
    g = GroupAlgebraElement(7, tuple(
        (b"".join(bytes(sigma) + b"\0" for sigma, _ in run), w)
        for w, run in itertools.groupby(zip(p.terms, weights), itemgetter(1))
    ))
    # every index with at most two 2s: dense in those weight spaces, with
    # mixed denominators
    rng = random.Random(7)
    x = SparseTensor(2, 7, {
        index: F(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3, 7]))
        for index in itertools.product((1, 2), repeat=7)
        if index.count(2) <= 2
    })
    assert len(x.entries) == 29
    runs = [len(list(run)) for _, run in itertools.groupby(g.terms.values())]
    assert runs == [start] + [1] * 39 + [5040 - start - 39]
    paths = _record_paths(monkeypatch)
    result = apply_element(x, g)
    # runs of at least three permutations per entry are counted, entry by
    # entry, the last in two slices; the runs of one go one sigma at a time
    assert paths() == [
        step
        for k in runs
        for step in ([("count", k)] * 29 if k >= 3 * 29 else [("walk", k)])
    ]
    assert result.entries == _reference_apply(x, g)


def _run_of(n, k, weight=F(-2, 7)):
    """A group-algebra element of one run: the first k permutations of S_n
    in enumeration order, with one weight."""
    perms = itertools.islice(itertools.permutations(range(1, n + 1)), k)
    return GroupAlgebraElement(n, ((b"".join(bytes((*p, 0)) for p in perms), weight),))


_EDGE_X = {(255, 1, 255, 7): F(2, 3), (3, 255, 255, 255): F(-1, 4)}


@pytest.mark.parametrize(
    "x,g,path",
    [
        # index 255 is the last a byte table holds: the run of 24 is counted
        (SparseTensor(300, 4, _EDGE_X), isotypic_projector((4,)), "count"),
        (SparseTensor(300, 4, {**_EDGE_X, (1, 256, 2, 1): F(5)}), isotypic_projector((4,)),
         "walk"),
        # exactly three permutations per entry is counted; one fewer is not
        (SparseTensor(300, 4, _EDGE_X), _run_of(4, 6), "count"),
        (SparseTensor(300, 4, _EDGE_X), _run_of(4, 5), "walk"),
        # S_0 and S_1 hold only the identity
        (SparseTensor(2, 0, {(): F(-3, 4)}), element(0, ((), F(2, 3))), "walk"),
        (SparseTensor(300, 1, {(7,): F(1, 2), (256,): F(2, 3)}), element(1, ((1,), 5)), "walk"),
        # an empty x counts nothing, whatever the run
        (SparseTensor(3, 5), isotypic_projector((3, 2)), None),
    ],
    ids=["index-255", "index-256", "three-per-entry", "under-three-per-entry",
         "degree-0", "degree-1", "empty"],
)
def test_apply_element_kernel_edges(monkeypatch, x, g, path):
    paths = _record_paths(monkeypatch)
    result = apply_element(x, g)
    assert {p for p, _ in paths()} == ({path} if path else set())
    assert result.entries == _reference_apply(x, g)


@st.composite
def _kernel_cases(draw):
    """A tensor of order 0 to 8 on 1 to 4 letters, repeated in its
    indices, and an element of 1 to 3 runs, each a union of classes of
    S_n: a lone run is all of S_n, longer than one slice from n = 7 on.
    The letters may end at 255, the last a byte table holds, or at 256,
    which sends every run down the walked path."""
    n = draw(st.integers(0, 8))
    dim = draw(st.integers(1, 4))
    top = draw(st.sampled_from([dim, 255, 256]))
    letters = st.integers(top - dim + 1, top)
    index = st.tuples(*[letters] * n)
    x = SparseTensor(top, n, draw(st.dictionaries(index, _rationals, max_size=4)))
    _, classes = _class_table(n)
    k = draw(st.integers(1, 3))
    owner = draw(st.lists(st.integers(0, k - 1), min_size=len(classes), max_size=len(classes)))
    weights = draw(st.lists(_rationals.filter(bool), min_size=k, max_size=k))
    runs = [
        (b"".join(flat for flat, j in zip(classes, owner) if j == i), w)
        for i, w in enumerate(weights)
    ]
    return x, GroupAlgebraElement(n, tuple((flat, w) for flat, w in runs if flat))


@settings(max_examples=60, deadline=None)
@given(_kernel_cases())
@example((SparseTensor(255, 8, {(255, 1, 255, 2, 1, 2, 3, 3): F(2, 3), (1,) * 8: F(-1, 4)}),
          GroupAlgebraElement(8, ((b"".join(_class_table(8)[1]), F(5, 7)),))))
@example((SparseTensor(256, 7, {(256, 1, 256, 2, 1, 2, 3): F(2, 3)}),
          GroupAlgebraElement(7, ((b"".join(_class_table(7)[1]), F(-3)),))))
def test_apply_element_matches_fraction_reference_up_to_degree_8(case):
    x, g = case
    assert apply_element(x, g).entries == _reference_apply(x, g)


def test_apply_element_of_a_long_run_holds_one_slice_of_words():
    # S_8 in one run: the 40,320 images of a word of content (2,2,2,2) are
    # 2,520 distinct words, and slice by slice no more than 4,096 of them
    # are alive at once
    g = isotypic_projector((8,))
    assert len(g.runs) == 1
    x = SparseTensor(4, 8, {(1, 1, 2, 2, 3, 3, 4, 4): F(3, 5)})
    apply_element(x, g)
    tracemalloc.start()
    try:
        result = apply_element(x, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.entries) == 2520
    assert peak < 1024 * 1024, peak


@pytest.mark.parametrize("top", [255, 256])
def test_isotypic_components_past_a_byte_match_projectors(top):
    """Index 255 is the last a byte table holds, so the projectors' long
    runs are counted; 256 sends every run down the walked path."""
    x = SparseTensor(300, 4, {(top, 1, top, 7): F(2, 3), (3, top, 299 - top, top): F(-1, 4),
                              (top, top, top, 2): F(5)})
    for lam in enumerate_partitions(4):
        projector = isotypic_projector(lam)
        assert apply_element(x, projector).entries == _reference_apply(x, projector)


def test_projector_weights_are_scaled_once_per_run(monkeypatch):
    scaled = []

    def recorded(values):
        scaled.append(len(values))
        return _scaled(values)

    monkeypatch.setattr(tensor, "_scaled", recorded)
    x = SparseTensor(3, 6, {(1, 2, 1, 3, 1, 1): F(2, 3), (2, 2, 1, 1, 3, 1): F(-1, 4)})
    classes = enumerate_partitions(6)
    for lam in classes:
        chis = {chi for chi in (mn_character(lam, ct) for ct in classes) if chi}
        scaled.clear()
        apply_element(x, isotypic_projector(lam))
        # one weight per nonzero character value, and x's two entries: not
        # one weight per permutation or per class
        assert sorted(scaled) == sorted([len(chis), 2]), lam


@pytest.mark.parametrize("order", [0, 1, 2, 5])
def test_apply_element_zero_operands(order):
    x = SparseTensor(2, order, {(1,) * order: F(3, 4)})
    one = tuple(range(1, order + 1))
    assert apply_element(x, element(order, (one, 1))) == x
    assert is_zero(apply_element(x, GroupAlgebraElement(order, ())))
    assert is_zero(apply_element(SparseTensor(2, order), element(order, (one, 1))))
    assert apply_element(x, element(order, (one, F(2, 3)))).entries == {(1,) * order: F(1, 2)}


@st.composite
def _tensors(draw):
    """Sparse tensors of order at most 5: zero, decomposable or not, with
    entries of mixed denominators."""
    order = draw(st.integers(0, 5))
    dim = draw(st.integers(1, 3))
    index = st.tuples(*[st.integers(1, dim)] * order)
    return SparseTensor(dim, order, draw(st.dictionaries(index, _rationals, max_size=6)))


@settings(max_examples=150, deadline=None)
@given(_tensors())
@example(SparseTensor(2, 0))
@example(SparseTensor(2, 0, {(): F(-3, 4)}))
@example(SparseTensor(3, 1, {(1,): F(1, 2), (3,): F(2, 3)}))
@example(SparseTensor(2, 3, {(1, 2, 2): F(1, 6), (2, 1, 1): F(-3, 4), (1, 1, 1): F(5)}))
def test_isotypic_components_sum_to_the_tensor(x):
    total = SparseTensor(x.dim, x.order)
    for lam in enumerate_partitions(x.order):
        component = apply_element(x, isotypic_projector(lam))
        assert (component.dim, component.order) == (x.dim, x.order)
        assert all(type(c) is F for c in component.entries.values())
        total = tensor_add(total, component)
    assert tensor_equal(total, x)


@st.composite
def _family_pairs(draw):
    """Two families of n <= 6 vectors in dim 1..4 with mixed denominators:
    zero vectors, vectors repeated within a family and vectors shared by
    both.  At n >= 5 a vector has at most two nonzero entries, which keeps
    the projected tensors small."""
    n = draw(st.integers(0, 6))
    dim = draw(st.integers(1, 4))
    width = dim if n < 5 else min(dim, 2)
    fresh = st.builds(
        lambda entries: tuple(entries.get(i, 0) for i in range(dim)),
        st.dictionaries(st.integers(0, dim - 1), _entries, max_size=width),
    )
    v, u = [], []
    for _ in range(n):
        v.append(draw(st.one_of(fresh, st.sampled_from(v)) if v else fresh))
    for _ in range(n):
        u.append(draw(st.one_of(fresh, st.sampled_from(v), st.sampled_from(u)) if u else fresh))
    return VectorFamily(dim, tuple(v)), VectorFamily(dim, tuple(u))


@settings(max_examples=100, deadline=None)
@given(_family_pairs())
@example((VectorFamily(2, ()), VectorFamily(2, ())))
@example((fam((F(1, 2), 3)), fam((F(-2, 3), 0))))
@example((fam((0, 0)), fam((1, 1))))
@example((fam((1, F(1, 2)), (1, F(1, 2)), (2, 0)), fam((2, 1), (F(1, 3), 0), (0, 0))))
def test_gram_forms_match_the_projected_tensors(pair):
    """For every shape, scale * sum_k chi_k S_k / (s_v s_u), from the Gram
    class sums, is the inner product of the two projected tensors."""
    fv, fu = pair
    shapes, _ = _class_table(len(fv))
    sums = crosscheck._class_sums(fv, fu)
    s_v, s_u = map(crosscheck._scale, pair)
    x, y = decomposable(fv), decomposable(fu)
    for lam in shapes:
        scale, chis = _class_weights(lam, shapes)
        form = scale * F(sum(map(mul, chis, sums)), s_v * s_u)
        projector = isotypic_projector(lam)
        entries = apply_element(y, projector).entries
        assert form == sum(
            c * entries.get(i, 0) for i, c in apply_element(x, projector).entries.items()
        )


# at order 60 the backstop must come before listing the 966,467 shapes,
# and at 2000 the message must not need 2000!, past the int-to-str limit
@pytest.mark.parametrize("order", [11, 17, 60, 2000])
def test_isotypic_components_refuse_past_the_class_table(monkeypatch, order):
    def unlisted(n):
        raise AssertionError(f"listed the shapes of {n}")

    monkeypatch.setattr(group_algebra, "enumerate_partitions", unlisted)
    with pytest.raises(SizeLimitError) as refused:
        isotypic_projector((order,))
    assert str(refused.value) == (
        f"degree {order} is past the class table's limit of 67108864 bytes: "
        f"S_{order} by class takes {order}!*{order + 1} bytes"
    )


def _mixed(rng: random.Random) -> Fraction:
    """A nonzero rational with one of the denominators 1, 2, 3 and 6."""
    return F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3, 6)))


def _sparse_family(rng: random.Random, n: int, dim: int, wide: int) -> VectorFamily:
    """n vectors in dim with mixed denominators, the first `wide` with up to
    two nonzero entries and the rest with one, so the tensor has at most
    2**wide entries."""
    vectors = []
    for i in range(n):
        vector = [F(0)] * dim
        for slot in rng.sample(range(dim), min(dim, 2 if i < wide else 1)):
            vector[slot] = _mixed(rng)
        vectors.append(tuple(vector))
    rng.shuffle(vectors)
    return VectorFamily(dim, tuple(vectors))


def _projection_cases(n: int, rng: random.Random, wide: int):
    """Order-n tensors in dims 1 to 4: the zero tensor, one entry, a
    decomposable tensor and the sum of two, with mixed denominators."""
    for dim in (1, 2, 3, 4):
        yield SparseTensor(dim, n)
        yield SparseTensor(dim, n, {tuple(rng.choices(range(1, dim + 1), k=n)): _mixed(rng)})
        x = decomposable(_sparse_family(rng, n, dim, wide))
        yield x
        yield tensor_add(x, decomposable(_sparse_family(rng, n, dim, wide)))


@pytest.mark.parametrize("n", range(7))
def test_project_equals_the_projector_path_for_every_shape(n):
    rng = random.Random(600 + n)
    for x in _projection_cases(n, rng, wide=n):
        for lam in enumerate_partitions(n):
            assert project(x, lam) == apply_element(x, isotypic_projector(lam)), (x, lam)


@pytest.mark.parametrize("n", [7, 8])
def test_project_equals_the_projector_path_on_a_sample_past_6(n):
    rng = random.Random(700 + n)
    shapes = list(enumerate_partitions(n))
    for x in _projection_cases(n, rng, wide=3):
        for lam in rng.sample(shapes, 4):
            assert project(x, lam) == apply_element(x, isotypic_projector(lam)), (x, lam)


@pytest.mark.parametrize("n", range(1, 7))
def test_project_builds_no_projector_for_weights_the_shape_does_not_dominate(monkeypatch, n):
    """Every tensor when the shape has more rows than the dimension, and
    one entry of weight mu, in any order of its letters, when the shape
    does not dominate mu."""

    def unbuilt(lam):
        raise AssertionError(f"built the projector of {lam}")

    monkeypatch.setattr(tensor, "isotypic_projector", unbuilt)
    rng = random.Random(800 + n)
    shapes = list(enumerate_partitions(n))
    for dim in range(1, n):
        x = decomposable(random_family(rng, n, dim, adversarial=True))
        for lam in shapes:
            if len(lam) > dim:
                assert project(x, lam) == SparseTensor(dim, n)
    for mu in shapes:
        word = [letter for letter, count in enumerate(mu, 1) for _ in range(count)]
        rng.shuffle(word)
        x = SparseTensor(n, n, {tuple(word): _mixed(rng)})
        for lam in shapes:
            if any(sum(lam[:k]) < sum(mu[:k]) for k in range(1, n + 1)):
                assert project(x, lam) == SparseTensor(n, n), (lam, mu)


def test_project_refuses_a_shape_of_another_degree():
    with pytest.raises(ValueError, match="degree mismatch: 3 != order 2"):
        project(SparseTensor(2, 2), (2, 1))
