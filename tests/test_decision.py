import dataclasses
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Optional

import pytest

from symten import crosscheck, decision, linalg
from symten.cli import verdict_json
from symten.combinatorics import (
    SizeLimitError,
    compose,
    enumerate_column_systems,
    enumerate_partitions,
)
from symten.decision import (
    INDEPENDENCE_MISMATCH,
    NO_SPAN_MATCHING,
    PRODUCT_NOT_ONE,
    EqualityVerdict,
    SystemFailure,
    SystemWitness,
    columns_independent,
    decide_equality,
    gamas_nonvanishing,
    gamas_standard,
)
from symten.group_algebra import GroupAlgebraElement, isotypic_projector
from symten.linalg import VectorFamily, transition_scalar
from symten.sampling import random_family, scaled_family
from symten.tensor import apply_element, decomposable, is_zero, isotypic_components, tensor_equal
from tests.reference import combination, fam, sign

F = Fraction


E1 = (1, 0, 0)
E2 = (0, 1, 0)
E3 = (0, 0, 1)


def test_columns_independent_examples():
    basis = fam(E1, E2, E3)
    for lam in enumerate_partitions(3):
        for system in enumerate_column_systems(lam):
            assert columns_independent(basis, system)
    repeated = fam(E1, E1, E1)
    for system in enumerate_column_systems((2, 1)):
        assert not columns_independent(repeated, system)
    mixed = fam(E1, E1, E2)
    assert columns_independent(mixed, ((1, 3), (2,)))
    assert not columns_independent(mixed, ((1, 2), (3,)))
    with pytest.raises(ValueError):
        columns_independent(mixed, ((1, 2),))


def test_gamas_nonvanishing_examples():
    assert gamas_nonvanishing(fam(E1, E2, E3), (1, 1, 1)) == (True, ((1, 2, 3),))
    assert gamas_nonvanishing(fam(E1, E1, E1), (2, 1)) == (False, None)
    nonzero, witness = gamas_nonvanishing(fam(E1, E1, E2), (2, 1))
    assert nonzero and witness[0] in {(1, 3), (2, 3)}


def test_gamas_standard_examples():
    nonzero, _ = gamas_standard(fam(E1, E2, E3), (3,))
    assert nonzero
    nonzero, tableau = gamas_standard(fam(E1, E1, E2), (2, 1))
    assert nonzero
    assert tableau == ((1, 2), (3,))  # its first column {1,3} is independent
    assert gamas_standard(fam(E1, E1, E1), (2, 1)) == (False, None)


@pytest.mark.parametrize("decider", [gamas_nonvanishing, gamas_standard])
def test_gamas_deciders_honour_max_n(decider):
    nine = VectorFamily(1, ((F(1),),) * 9)
    with pytest.raises(SizeLimitError):
        decider(nine, (9,))
    assert decider(nine, (9,), max_n=9)[0]


class _CountingKeys(decision._SpanKeys):
    lookups = 0

    def __getitem__(self, column):
        type(self).lookups += 1
        return super().__getitem__(column)


@pytest.mark.parametrize("decider,bound", [
    # one per 4-subset at most; testing every system looks up 15,400 times
    (gamas_nonvanishing, math.comb(12, 4)),
    # fewer than one per standard tableau, of which there are 462
    (gamas_standard, 461),
])
def test_gamas_search_prunes_dependent_columns(monkeypatch, decider, bound):
    """Every 4-vector column of a 3-dimensional family is dependent, so
    the search cuts each branch at its first full column."""
    monkeypatch.setattr(decision, "_SpanKeys", _CountingKeys)
    monkeypatch.setattr(_CountingKeys, "lookups", 0)
    family = random_family(random.Random(9), 12, 3)
    assert decider(family, (3, 3, 3, 3), max_n=12) == (False, None)
    assert _CountingKeys.lookups <= bound


def test_gamas_size_mismatch():
    with pytest.raises(ValueError):
        gamas_nonvanishing(fam(E1, E2), (2, 1))


def test_decide_equality_spec_examples():
    # unimodular triangular change of basis on a wedge
    v = fam((1, 0), (0, 1))
    verdict = decide_equality(v, fam((1, 0), (1, 1)), (1, 1))
    assert verdict.equal and verdict.mode == "witnessed"
    assert verdict.witnesses[0].sigma == (1,)
    assert verdict.witnesses[0].scalars == (F(1),)

    # scaling one wedge vector by 2: wedge(v) = (1/2) wedge(u)
    verdict = decide_equality(v, fam((2, 0), (0, 1)), (1, 1))
    assert not verdict.equal and verdict.mode == "failed"
    assert verdict.failures[0].reason == PRODUCT_NOT_ONE
    assert verdict.failures[0].product == F(1, 2)

    # compensating scalings on a symmetric tensor
    verdict = decide_equality(v, fam((2, 0), (0, F(1, 2))), (2,))
    assert verdict.equal
    assert sorted(verdict.witnesses[0].scalars) == [F(1, 2), F(2)]
    assert verdict.witnesses[0].product == 1

    # swapping the vectors of a symmetric tensor
    verdict = decide_equality(v, fam((0, 1), (1, 0)), (2,))
    assert verdict.equal
    assert verdict.witnesses[0].sigma == (2, 1)
    assert verdict.witnesses[0].scalars == (F(1), F(1))

    # both alternating tensors vanish
    verdict = decide_equality(fam((1, 0), (1, 0)), fam((0, 1), (0, 2)), (1, 1))
    assert verdict.equal and verdict.mode == "both_vanish"
    assert verdict.witnesses == () and verdict.failures == ()


def test_decide_equality_independence_mismatch():
    verdict = decide_equality(fam((1, 0), (1, 0)), fam((1, 0), (0, 1)), (1, 1))
    assert not verdict.equal
    assert verdict.failures[0].reason == INDEPENDENCE_MISMATCH


def test_equality_divides_each_column_pair_once(monkeypatch):
    rng = random.Random(3)
    fv = random_family(rng, 6, 3)
    fu = scaled_family(rng, fv, unit_product=True)
    divisions = []
    divide = F.__truediv__

    def counted(a, b):
        divisions.append((a, b))
        return divide(a, b)

    monkeypatch.setattr(F, "__truediv__", counted)
    verdict = decide_equality(fv, fu, (3, 2, 1))
    monkeypatch.undo()
    assert verdict.mode == "witnessed"
    matched = [
        (column, w.system[s - 1])
        for w in verdict.witnesses
        for column, s in zip(w.system, w.sigma)
    ]
    assert len(divisions) == len(set(matched)) < len(matched)
    assert len({id(w.product) for w in verdict.witnesses}) == 1


def test_decide_equality_input_errors():
    v = fam((1, 0), (0, 1))
    with pytest.raises(ValueError):
        decide_equality(v, fam((1, 0, 0), (0, 1, 0)), (2,))
    with pytest.raises(ValueError):
        decide_equality(v, v, (2, 1))


def test_exhaustive_failures_collects_all_systems():
    v = fam(E1, E2, E3)
    u = fam((2, 0, 0), E2, E3)
    lazy = decide_equality(v, u, (1, 1, 1))
    full = decide_equality(v, u, (1, 1, 1), exhaustive=True)
    assert not lazy.equal and not full.equal
    assert len(full.failures) >= len(lazy.failures)


@pytest.mark.parametrize("lam", [(2,), (1, 1), (2, 1), (2, 2), (3, 1)])
def test_reflexivity_and_symmetry(lam):
    rng = random.Random(sum(lam))
    n = sum(lam)
    for _ in range(10):
        fv = random_family(rng, n, rng.choice((2, 3)), adversarial=True)
        fu = random_family(rng, n, fv.dim, adversarial=True)
        assert decide_equality(fv, fv, lam).equal
        assert decide_equality(fv, fu, lam).equal == decide_equality(fu, fv, lam).equal


def test_per_vector_scaling_single_column():
    rng = random.Random(17)
    for n in (2, 3):
        lam = tuple([1] * n)
        for _ in range(10):
            fv = random_family(rng, n, 3)
            scaled_equal = scaled_family(rng, fv, unit_product=True)
            scaled_off = scaled_family(rng, fv, unit_product=False)
            oracle_nonzero, _ = gamas_nonvanishing(fv, lam)
            verdict_eq = decide_equality(fv, scaled_equal, lam)
            verdict_off = decide_equality(fv, scaled_off, lam)
            assert verdict_eq.equal
            if oracle_nonzero:
                assert not verdict_off.equal
            else:
                assert verdict_off.equal and verdict_off.mode == "both_vanish"


def _unimodular(rng, dim, det):
    """A random integer dim x dim matrix of determinant det, 1 or -1: a
    signed permutation matrix, then two row additions, which keep det."""
    perm = rng.sample(range(dim), dim)
    signs = [rng.choice((1, -1)) for _ in range(dim)]
    g = [[signs[i] * (j == perm[i]) for j in range(dim)] for i in range(dim)]
    for _ in range(2):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-2, -1, 1, 2))
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
    if sign(tuple(p + 1 for p in perm)) * math.prod(signs) != det:
        g[0] = [-a for a in g[0]]
    return g


@pytest.mark.parametrize("lam", [(1, 1), (1, 1, 1), (2, 2), (2, 2, 2)], ids=str)
def test_equal_pairs_that_are_not_rescalings(lam):
    """u = g v with det(g)^k = 1 and lam = (k^d) in dimension d: g scales
    the wedge of each of the k columns by det(g), so the projections are
    equal.  Unlike u_i = c_i v_i, the two sides swap different rows when
    they eliminate, so a wrong swap sign in a minor shows."""
    dim, k = len(lam), lam[0]
    rng = random.Random(10 * sum(lam) + dim)
    for _ in range(12):
        fv = fam(*(
            [F(rng.choice((0, 0, 1, -1, 2, 3)), rng.choice((1, 1, 2))) for _ in range(dim)]
            for _ in range(k * dim)
        ))
        g = _unimodular(rng, dim, rng.choice((1, -1)) if k % 2 == 0 else 1)
        fu = fam(*([sum(a * x for a, x in zip(row, v)) for row in g] for v in fv.vectors))
        cv, cu = (isotypic_components(decomposable(f))[lam] for f in (fv, fu))
        assert tensor_equal(cv, cu)
        assert decide_equality(fv, fu, lam).equal


def test_matching_on_parallel_columns_is_linear(monkeypatch):
    # lambda = (9): one column system of nine singleton columns, all of one
    # span, and no matching of product 1; a search over matchings would
    # visit all 9! of them
    eliminations = []
    echelon = linalg._echelon

    def counted(rows):
        eliminations.append(rows)
        return echelon(rows)

    monkeypatch.setattr(linalg, "_echelon", counted)
    fv = fam(*((i, 2 * i) for i in range(1, 10)))
    fu = fam((2, 4), *((i, 2 * i) for i in range(2, 10)))
    verdict = decide_equality(fv, fu, (9,), max_n=9)
    assert not verdict.equal and verdict.witnesses == ()
    (failure,) = verdict.failures
    assert failure.reason == PRODUCT_NOT_ONE
    assert failure.scalars == (F(1, 2),) + (F(1),) * 8
    assert failure.product == F(1, 2)
    columns = {column for system in enumerate_column_systems((9,), 9) for column in system}
    assert len(eliminations) <= 2 * len(columns)


def _backtrack_matching(fv, fu, system):
    """The exhaustive matching search the greedy one replaced, kept as a
    reference: it backtracks over every span-compatible matching."""
    k = len(system)
    candidates: list[dict[int, Fraction]] = []
    for column in system:
        targets: dict[int, Fraction] = {}
        for t, target in enumerate(system):
            if len(target) == len(column):
                c = transition_scalar(fv, column, fu, target)
                if c is not None:
                    targets[t] = c
        if not targets:
            return None, SystemFailure(system, NO_SPAN_MATCHING)
        candidates.append(targets)

    fallback: Optional[SystemFailure] = None
    used = [False] * k
    assignment = [0] * k

    def backtrack(j: int, product: Fraction) -> Optional[SystemWitness]:
        nonlocal fallback
        if j == k:
            scalars = tuple(candidates[i][t] for i, t in enumerate(assignment))
            if product == 1:
                sigma = tuple(t + 1 for t in assignment)
                return SystemWitness(system, sigma, scalars, product)
            if fallback is None:
                fallback = SystemFailure(system, PRODUCT_NOT_ONE, scalars, product)
            return None
        for t, c in candidates[j].items():
            if not used[t]:
                used[t] = True
                assignment[j] = t
                found = backtrack(j + 1, product * c)
                used[t] = False
                if found is not None:
                    return found
        return None

    witness = backtrack(0, Fraction(1))
    if witness is not None:
        return witness, None
    if fallback is None:
        fallback = SystemFailure(system, NO_SPAN_MATCHING)
    return None, fallback


def _reference_equality(fv, fu, lam, exhaustive):
    failures, witnesses = [], []
    any_independent = False
    for system in enumerate_column_systems(lam):
        v_ind = columns_independent(fv, system)
        if v_ind != columns_independent(fu, system):
            failures.append(SystemFailure(system, INDEPENDENCE_MISMATCH))
            if not exhaustive:
                break
            continue
        if not v_ind:
            continue
        any_independent = True
        witness, failure = _backtrack_matching(fv, fu, system)
        if witness is not None:
            witnesses.append(witness)
        else:
            failures.append(failure)
            if not exhaustive:
                break
    if failures:
        return EqualityVerdict(False, "failed", tuple(failures), tuple(witnesses))
    if not any_independent:
        return EqualityVerdict(True, "both_vanish", (), ())
    return EqualityVerdict(True, "witnessed", (), tuple(witnesses))


def _shuffled(rng, family):
    vectors = list(family.vectors)
    rng.shuffle(vectors)
    return VectorFamily(family.dim, tuple(vectors))


def _parallel_family(rng, n, dim):
    """n multiples of two random vectors: few spans, many equal columns."""
    base = [random_family(rng, 1, dim).vectors[0] for _ in range(2)]
    return VectorFamily(
        dim,
        tuple(
            tuple(F(rng.choice((1, -1, 2))) * x for x in rng.choice(base))
            for _ in range(n)
        ),
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_greedy_matching_equals_exhaustive_search(n):
    rng = random.Random(100 + n)
    pairs = 0
    for lam in enumerate_partitions(n):
        dim = rng.choice((2, 3)) if n > 1 else 1
        fv = random_family(rng, n, dim, adversarial=True)
        parallel = _parallel_family(rng, n, dim)
        cases = [
            (random_family(rng, n, dim), random_family(rng, n, dim)),
            (fv, random_family(rng, n, dim, adversarial=True)),
            (fv, scaled_family(rng, fv, unit_product=True)),
            (fv, scaled_family(rng, fv, unit_product=False)),
            (fv, _shuffled(rng, scaled_family(rng, fv, unit_product=True))),
            (parallel, _shuffled(rng, scaled_family(rng, parallel, unit_product=True))),
            (parallel, _shuffled(rng, scaled_family(rng, parallel, unit_product=False))),
        ]
        for case, exhaustive in itertools.product(cases, (False, True)):
            greedy = decide_equality(*case, lam, exhaustive=exhaustive)
            reference = _reference_equality(*case, lam, exhaustive)
            assert json.dumps(verdict_json(greedy)) == json.dumps(verdict_json(reference))
            pairs += 1
    assert pairs == 14 * len(enumerate_partitions(n))


def _leaky_projector(lam, max_n):
    """Half the trivial projector moved onto the sign projector: the
    projectors still sum to 1, but neither of the two is idempotent."""
    n = sum(lam)
    projector, trivial = isotypic_projector(lam, max_n), isotypic_projector((n,), max_n)
    if lam == (n,):
        return combination((1, projector), (Fraction(-1, 2), trivial))
    if lam == (1,) * n:
        return combination((1, projector), (Fraction(1, 2), trivial))
    return projector


def _components_without_identity(x, max_n):
    """Every isotypic component with the identity's class left out of the
    sweep: the projector applied without its identity term."""
    components = {}
    for lam in enumerate_partitions(x.order):
        terms = dict(isotypic_projector(lam, max_n).terms)
        del terms[tuple(range(1, x.order + 1))]
        components[lam] = apply_element(x, GroupAlgebraElement(x.order, terms))
    return components


def _components_of_next_shape(x, max_n):
    """Each shape given the component of the shape after it."""
    components = isotypic_components(x, max_n)
    shapes = list(components)
    return {lam: components[shapes[(k + 1) % len(shapes)]] for k, lam in enumerate(shapes)}


def _reversed_rows(fam, lam, max_n):
    """The right standard-scan verdict with each row of its witness
    reversed: a tableau of the shape, but not a standard one."""
    standard, rows = gamas_standard(fam, lam, max_n)
    return standard, rows and tuple(row[::-1] for row in rows)


def _flip_verdict(fv, fu, lam, max_n):
    verdict = decide_equality(fv, fu, lam, max_n)
    return dataclasses.replace(verdict, equal=not verdict.equal)


@pytest.mark.parametrize(
    "name,target,broken",
    [
        ("right_action_law", "compose", lambda s, t: compose(t, s)),
        ("projector_idempotent_and_complete", "isotypic_projector", _leaky_projector),
        ("projector_idempotent_and_complete", "enumerate_partitions",
         lambda n: enumerate_partitions(n)[:-1]),
        ("gamas_matches_oracle", "is_zero", lambda x: not is_zero(x)),
        ("gamas_matches_oracle", "gamas_standard", lambda fam, lam, max_n: (False, None)),
        ("gamas_matches_oracle", "gamas_standard", _reversed_rows),
        ("gamas_matches_oracle", "columns_independent", lambda fam, system: False),
        ("equality_matches_oracle", "decide_equality", _flip_verdict),
        ("projector_idempotent_and_complete", "isotypic_components",
         _components_without_identity),
        ("projector_idempotent_and_complete", "isotypic_components", _components_of_next_shape),
        ("gamas_matches_oracle", "isotypic_components", _components_without_identity),
        ("gamas_matches_oracle", "isotypic_components", _components_of_next_shape),
        ("equality_matches_oracle", "isotypic_components", _components_without_identity),
        ("equality_matches_oracle", "isotypic_components", _components_of_next_shape),
    ],
    ids=["action", "idempotent", "complete", "oracle", "standard", "standard-witness",
         "witness", "equality",
         "sweep-class-idempotent", "sweep-shape-idempotent", "sweep-class-gamas",
         "sweep-shape-gamas", "sweep-class-equality", "sweep-shape-equality"],
)
def test_crosscheck_property_catches_a_broken_part(monkeypatch, name, target, broken):
    monkeypatch.setattr(crosscheck, target, broken)
    prop = dict(crosscheck.properties(3, 6, random.Random(1)))[name]
    assert prop() is None


def test_crosscheck_zero_trials_check_nothing_and_draw_nothing():
    rng = random.Random(1)
    state = rng.getstate()
    assert [prop() for _, prop in crosscheck.properties(3, 0, rng)] == [0, 0, 0, 0]
    assert rng.getstate() == state


@pytest.mark.parametrize(
    "name,target,broken,calls_per_trial",
    [
        ("right_action_law", "tensor_equal", lambda x, y: False, 1),
        ("projector_idempotent_and_complete", "tensor_equal", lambda x, y: False, 4),
        ("gamas_matches_oracle", "is_zero", lambda x: not is_zero(x), 3),
        ("equality_matches_oracle", "decide_equality", _flip_verdict, 3),
    ],
    ids=["action", "projector", "gamas", "equality"],
)
def test_crosscheck_property_catches_a_fault_in_its_last_trial(
    monkeypatch, name, target, broken, calls_per_trial
):
    trials = 4
    real = getattr(crosscheck, target)
    calls, healthy = 0, math.inf

    def late_fault(*args):
        nonlocal calls
        calls += 1
        return (broken if calls > healthy else real)(*args)

    def run():
        return dict(crosscheck.properties(3, trials, random.Random(1)))[name]()

    monkeypatch.setattr(crosscheck, target, late_fault)
    assert run() is not None
    assert calls == trials * calls_per_trial
    # the calls of the first trials - 1 trials go right, every later one wrong
    calls, healthy = 0, (trials - 1) * calls_per_trial
    assert run() is None


def test_equality_property_draws_every_kind_of_u(monkeypatch):
    """u unrelated to v, a unit-product rescaling of v and one of another
    product all occur, and unrelated ones reach unequal components."""
    draws, outcomes = [], Counter()

    def drawn_family(*args, **kwargs):
        draws.append("random")
        return random_family(*args, **kwargs)

    def drawn_scaling(rng, base, unit_product):
        draws.append("unit" if unit_product else "non-unit")
        return scaled_family(rng, base, unit_product)

    def compared(x, y):
        equal = tensor_equal(x, y)
        # each trial draws v with random_family first, then u
        kind = "unrelated" if draws[-2:] == ["random", "random"] else draws[-1]
        outcomes[kind, equal] += 1
        return equal

    monkeypatch.setattr(crosscheck, "random_family", drawn_family)
    monkeypatch.setattr(crosscheck, "scaled_family", drawn_scaling)
    monkeypatch.setattr(crosscheck, "tensor_equal", compared)
    prop = dict(crosscheck.properties(3, 25, random.Random(0)))["equality_matches_oracle"]
    assert prop() == 25 * 3
    assert {kind for kind, _ in outcomes} == {"unrelated", "unit", "non-unit"}
    assert outcomes["unrelated", False] >= 1
    assert outcomes["unit", False] == 0
