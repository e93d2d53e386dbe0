import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Optional

import pytest

from symten import cli, crosscheck, decision, linalg, tensor
from symten.combinatorics import (
    conjugate,
    enumerate_column_systems,
    enumerate_partitions,
    enumerate_permutations,
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
from symten.group_algebra import _class_table, isotypic_projector
from symten.linalg import VectorFamily, rank, transition_scalar
from symten.sampling import random_family, scaled_family, shifted_family
from symten.tensor import apply_element, decomposable, project, tensor_equal
from tests.reference import (
    column_system_count,
    combination,
    count_eliminations,
    edited,
    fam,
    in_subspace,
    of_terms,
    rescaled,
    sabotage,
    sign,
    transformed,
    vandermonde,
    verdict_json,
)
from tests.test_cli import DATA, SELFCHECK_SETTINGS

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
def test_gamas_deciders_honour_max_n(capsys, monkeypatch, decider):
    """The deciders take no size limit; `gamas` refuses degree 9 before
    it calls them, and runs them once `--max-n 9` admits it."""
    nine = VectorFamily(1, ((F(1),),) * 9)
    assert decider(nine, (9,))[0]
    calls = []

    def counted(*args):
        calls.append(args)
        return decider(*args)

    monkeypatch.setattr(decision, decider.__name__, counted)
    big = str(DATA / "big_instance.json")
    assert cli.main(["gamas", "--input", big]) == 3
    assert calls == []
    assert cli.main(["gamas", "--input", big, "--max-n", "9"]) == 0
    assert len(calls) == 1
    capsys.readouterr()


class _CountingKeys(linalg._SpanKeys):
    """A family's span-key memo that counts its lookups."""

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
    monkeypatch.setattr(linalg, "_SpanKeys", _CountingKeys)
    monkeypatch.setattr(_CountingKeys, "lookups", 0)
    family = random_family(random.Random(9), 12, 3)
    assert type(family._span_keys) is _CountingKeys
    assert decider(family, (3, 3, 3, 3)) == (False, None)
    assert _CountingKeys.lookups <= bound


def test_gamas_scans_share_the_family_span_keys(monkeypatch):
    """`gamas_standard` after `gamas_nonvanishing` eliminates only the
    columns the first scan left unkeyed, and fewer than on a fresh family."""
    eliminations = count_eliminations(monkeypatch)
    shared = fresh = 0
    for seed in range(10):
        family = random_family(random.Random(seed), 6, 3, adversarial=True)
        for lam in enumerate_partitions(6):
            gamas_nonvanishing(family, lam)
            keyed = set(family._span_keys)
            eliminations.clear()
            gamas_standard(family, lam)
            unkeyed = set(family._span_keys) - keyed
            assert len(eliminations) == sum(len(c) <= family.dim for c in unkeyed)
            shared += len(eliminations)
            eliminations.clear()
            gamas_standard(VectorFamily(family.dim, family.vectors), lam)
            fresh += len(eliminations)
    assert shared < fresh


def test_witness_checks_eliminate_nothing_after_the_decider(monkeypatch):
    """`transition_scalar` and `columns_independent` on a verdict's witness
    columns read the span keys `decide_equality` computed."""
    eliminations = count_eliminations(monkeypatch)
    rng = random.Random(4)
    witnesses = 0
    for _ in range(10):
        fv = random_family(rng, 5, 3)
        fu = scaled_family(rng, fv, unit_product=True)
        for u in (fu, VectorFamily(fu.dim, fu.vectors[1:] + fu.vectors[:1])):
            for lam in enumerate_partitions(5):
                verdict = decide_equality(fv, u, lam)
                eliminations.clear()
                for w in verdict.witnesses:
                    assert crosscheck._matching_witness(fv, u, w)
                    assert columns_independent(fv, w.system)
                    assert columns_independent(u, w.system)
                witnesses += len(verdict.witnesses)
                assert eliminations == []
    assert witnesses


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
        cv, cu = (apply_element(decomposable(f), isotypic_projector(lam)) for f in (fv, fu))
        assert tensor_equal(cv, cu)
        assert decide_equality(fv, fu, lam).equal


def test_equal_columns_of_proper_subspaces_that_are_not_rescalings():
    """lam = (1^k) in dimension k + 1 and k + 2: one column, whose k
    independent vectors span a proper subspace.  u_j = sum_i A_ij v_i spans
    it too, with wedge(u) = det(A) wedge(v): equal projections when
    det A = 1, and distinct ones when a column of A is doubled.  The two
    sides reach one span by different eliminations, so a basis that is not
    fully reduced shows."""
    for k in (2, 3, 4):
        for dim in (k + 1, k + 2):
            lam = (1,) * k
            projector = isotypic_projector(lam)
            rng = random.Random(10 * k + dim)
            numerators = (0, 0, 1, -1, 2, 3)
            for _ in range(5):
                vectors = []
                while rank(vectors) < k:
                    vectors = [
                        [F(rng.choice(numerators), rng.choice((1, 1, 2))) for _ in range(dim)]
                        for _ in range(k)
                    ]
                fv = fam(*vectors)
                a = _unimodular(rng, k, 1)
                doubled = [[2 * x if j == 0 else x for j, x in enumerate(row)] for row in a]
                cv = apply_element(decomposable(fv), projector)
                for matrix, equal in ((a, True), (doubled, False)):
                    fu = fam(*(
                        [sum(row[j] * v[c] for row, v in zip(matrix, vectors)) for c in range(dim)]
                        for j in range(k)
                    ))
                    cu = apply_element(decomposable(fu), projector)
                    assert tensor_equal(cv, cu) == equal
                    verdict = decide_equality(fv, fu, lam)
                    assert verdict.equal == equal
                    assert verdict.mode == ("witnessed" if equal else "failed")


def test_matching_on_parallel_columns_is_linear(monkeypatch):
    # lambda = (9): one column system of nine singleton columns, all of one
    # span, and no matching of product 1; a search over matchings would
    # visit all 9! of them
    eliminations = count_eliminations(monkeypatch)
    fv = fam(*((i, 2 * i) for i in range(1, 10)))
    fu = fam((2, 4), *((i, 2 * i) for i in range(2, 10)))
    verdict = decide_equality(fv, fu, (9,))
    assert not verdict.equal and verdict.witnesses == ()
    (failure,) = verdict.failures
    assert failure.reason == PRODUCT_NOT_ONE
    assert failure.scalars == (F(1, 2),) + (F(1),) * 8
    assert failure.product == F(1, 2)
    columns = {column for system in enumerate_column_systems((9,)) for column in system}
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
                return SystemWitness(system, sigma, scalars)
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


def _leaky_projector(lam):
    """Half the trivial projector moved onto the sign projector: the
    projectors still sum to 1, but neither of the two is idempotent."""
    n = sum(lam)
    projector, trivial = isotypic_projector(lam), isotypic_projector((n,))
    if lam == (n,):
        return combination((1, projector), (Fraction(-1, 2), trivial))
    if lam == (1,) * n:
        return combination((1, projector), (Fraction(1, 2), trivial))
    return projector


def _apply_without_identity(x, g):
    """The element applied without its identity term."""
    terms = dict(g.terms)
    del terms[tuple(range(1, g.degree + 1))]
    return apply_element(x, of_terms(g.degree, terms))


def _projector_of_next_shape(lam):
    """Each shape given the projector of the shape after it."""
    shapes, _ = _class_table(sum(lam))
    return isotypic_projector(shapes[(shapes.index(lam) + 1) % len(shapes)])


def _flip_verdict(fv, fu, lam):
    verdict = decide_equality(fv, fu, lam)
    return verdict._replace(equal=not verdict.equal)


# Faults that several tests put in, each one edit (`tests.reference.edited`).

#: Class sums 0 but for the identity's class, which is 1: every form is
#: then f^lam, so no projected tensor vanishes.
IDENTITY_CLASS_SUM = (
    crosscheck, "_class_sums",
    "sum(math.prod(map(getitem, columns, sigma)) for sigma in _members(flat, n))",
    "int(flat is classes[-1])",
)
#: The class sums with the identity's class, listed last, left out.
CLASS_SUMS_WITHOUT_IDENTITY = (
    crosscheck, "_class_sums", "for flat in classes", 'for flat in (*classes[:-1], b"")'
)
#: Each shape's Gram form taken with the character values of the shape after it.
WEIGHTS_OF_NEXT_SHAPE = (
    crosscheck, "properties",
    "weights = [_class_weights(lam, partitions) for lam in partitions]",
    "weights = [(_class_weights(lam, partitions)[0], _class_weights(mu, partitions)[1])"
    " for lam, mu in zip(partitions, partitions[1:] + partitions[:1])]",
)
#: A matching witness that reports the identity sigma with the right
#: scalars: only a witness whose sigma is not the identity shows it.
IDENTITY_SIGMA = (
    decision, "_search_matching",
    "tuple(sigma), tuple(scalars)", "tuple(range(1, len(system) + 1)), tuple(scalars)",
)
#: No two tensors equal.
UNEQUAL = (tensor, "tensor_equal", "return x.entries == y.entries", "return False")


@pytest.mark.parametrize(
    "name,fault,trials",
    [
        ("right_action_law",
         (crosscheck, "properties", "act(x, compose(s, t))", "act(x, compose(t, s))"), 6),
        ("projector_idempotent_and_complete", (tensor, "isotypic_projector", _leaky_projector),
         6),
        # the identity's shape, listed last, left off the shapes the checks read
        ("projector_idempotent_and_complete",
         (crosscheck, "properties", "partitions, _ = _class_table(n)",
          "partitions = _class_table(n)[0][:-1]"), 6),
        ("gamas_matches_oracle", IDENTITY_CLASS_SUM, 6),
        ("gamas_matches_oracle",
         (decision, "gamas_standard", "return rows is not None, rows", "return False, None"), 6),
        # a tableau of the shape, but not a standard one
        ("gamas_matches_oracle",
         (decision, "gamas_standard", "return rows is not None, rows",
          "return rows is not None, rows and tuple(row[::-1] for row in rows)"), 6),
        ("gamas_matches_oracle",
         (decision, "columns_independent",
          "return all(is_independent(family, column) for column in system)", "return False"),
         6),
        ("equality_matches_oracle", (crosscheck, "decide_equality", _flip_verdict), 6),
        ("projector_idempotent_and_complete", (tensor, "apply_element", _apply_without_identity),
         6),
        ("projector_idempotent_and_complete",
         (tensor, "isotypic_projector", _projector_of_next_shape), 6),
        ("gamas_matches_oracle", CLASS_SUMS_WITHOUT_IDENTITY, 6),
        ("gamas_matches_oracle", WEIGHTS_OF_NEXT_SHAPE, 6),
        ("equality_matches_oracle", CLASS_SUMS_WITHOUT_IDENTITY, 6),
        ("equality_matches_oracle", WEIGHTS_OF_NEXT_SHAPE, 6),
        # one weight too many left out: lam's own, which lam dominates
        ("projector_idempotent_and_complete",
         (tensor, "project", "all(map(ge, bounds, accumulate(mu)))",
          "all(map(ge, bounds, accumulate(mu))) and mu != list(lam)"), 6),
        # independent columns, but not a column system of the shape
        ("gamas_matches_oracle",
         (decision, "gamas_nonvanishing", "return system is not None, system",
          "return system is not None, system and tuple((i,) for i in system[0]) + system[1:]"),
         6),
        # the walked path acting by sigma^-1, which no class sum can tell from sigma
        ("right_action_law",
         (tensor, "apply_element", "itemgetter(*sigma) if",
          "itemgetter(*sorted(range(1, n + 1), key=lambda i: sigma[i - 1])) if"), 6),
        # scalars of product 1, but not the transition scalars of the matched columns
        ("equality_matches_oracle",
         (decision, "_search_matching", "SystemWitness(system, tuple(sigma), tuple(scalars))",
          "SystemWitness(system, tuple(range(1, len(system) + 1)), tuple(scalars[::-1]))"), 6),
        # the first witness whose sigma is not the identity comes in the
        # tenth trial, a unit-product one
        ("equality_matches_oracle", IDENTITY_SIGMA, 10),
    ],
    ids=["action", "idempotent", "complete", "oracle", "standard", "standard-witness",
         "witness", "equality",
         "sweep-class-idempotent", "sweep-shape-idempotent", "sweep-class-gamas",
         "sweep-shape-gamas", "sweep-class-equality", "sweep-shape-equality",
         "pruned-own-weight", "witness-shape", "kernel-convention", "witness-matching",
         "witness-identity"],
)
def test_crosscheck_property_catches_a_broken_part(monkeypatch, name, fault, trials):
    """Each fault, an edit or a replacement function, is caught within its
    number of trials."""
    if callable(fault[-1]):
        monkeypatch.setattr(*fault)
    else:
        sabotage(monkeypatch, *fault)
    prop = dict(crosscheck.properties(3, trials, random.Random(1)))[name]
    assert prop() is None


def test_selfcheck_catches_a_broken_counted_path(monkeypatch, capsys):
    """The counted path of `apply_element`, which `symmetrize` runs, with
    the first distinct image of each entry dropped, fails the projector
    property, and only it, at each of CI's selfcheck settings."""
    sabotage(monkeypatch, tensor, "apply_element",
             "for word, k in counts.items():", "for word, k in list(counts.items())[1:]:")
    for n, trials in SELFCHECK_SETTINGS:
        code = cli.main(["selfcheck", "--n", str(n), "--trials", str(trials), "--seed", "0"])
        results = json.loads(capsys.readouterr().out)["properties"]
        assert code == cli.EXIT_SELFCHECK_FAILED, n
        assert [r["name"] for r in results if not r["pass"]] == [
            "projector_idempotent_and_complete"
        ]


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize(
    "name,edits",
    [
        ("gamas_matches_oracle", [
            (decision, "gamas_nonvanishing", "return system is not None, system",
             "return True, None"),
            (decision, "gamas_standard", "return rows is not None, rows", "return True, None"),
        ]),
        # a matching of any product is a witness
        ("equality_matches_oracle", [
            (decision, "_search_matching", "if num != den:", "if False:"),
        ]),
        *[
            (name, [edit])
            for name in (
                "projector_idempotent_and_complete",
                "gamas_matches_oracle",
                "equality_matches_oracle",
            )
            for edit in (CLASS_SUMS_WITHOUT_IDENTITY, WEIGHTS_OF_NEXT_SHAPE)
        ],
    ],
    ids=["gamas-decider", "product-check",
         "class-projector", "shape-projector", "class-gamas", "shape-gamas",
         "class-equality", "shape-equality"],
)
def test_crosscheck_catches_sabotaged_deciders_and_gram_faults(monkeypatch, n, name, edits):
    """Deciders that agree with each other and leave no witness to check,
    and faults in the Gram forms, are each caught at n = 3, 4 and 5."""
    for edit in edits:
        sabotage(monkeypatch, *edit)
    prop = dict(crosscheck.properties(n, 8, random.Random(n)))[name]
    assert prop() is None


def test_crosscheck_zero_trials_check_nothing_and_draw_nothing():
    rng = random.Random(1)
    state = rng.getstate()
    assert [prop() for _, prop in crosscheck.properties(3, 0, rng)] == [0, 0, 0, 0]
    assert rng.getstate() == state


@pytest.mark.parametrize("n", range(1, 9))
def test_permutation_draw_is_rng_choice_of_the_list(n):
    """`right_action_law` draws each permutation as `rng.choice` of the
    list of S_n would, from the same rng state, on this Python version."""
    perms = list(enumerate_permutations(n))
    for seed in range(5):
        drawn, chosen = random.Random(seed), random.Random(seed)
        for _ in range(200):
            assert crosscheck._draw_permutation(drawn, n) == chosen.choice(perms)
        assert drawn.getstate() == chosen.getstate()


@pytest.mark.parametrize(
    "name,target,fault,calls_per_trial",
    [
        ("right_action_law", "tensor_equal", UNEQUAL, (1, 1, 1, 1)),
        ("projector_idempotent_and_complete", "tensor_equal", UNEQUAL, (4,) * 4),
        ("gamas_matches_oracle", "_class_sums", IDENTITY_CLASS_SUM, (1, 1, 1, 1)),
        # one call per shape of 3; the unit-product trial decides u and u rotated
        ("equality_matches_oracle", "decide_equality", _flip_verdict, (3, 6, 3, 3)),
    ],
    ids=["action", "projector", "gamas", "equality"],
)
def test_crosscheck_property_catches_a_fault_in_its_last_trial(
    monkeypatch, name, target, fault, calls_per_trial
):
    trials = len(calls_per_trial)
    real = getattr(crosscheck, target)
    broken = fault if callable(fault) else edited(*fault)
    calls, healthy = 0, math.inf

    def late_fault(*args):
        nonlocal calls
        calls += 1
        return (broken if calls > healthy else real)(*args)

    def run():
        return dict(crosscheck.properties(3, trials, random.Random(1)))[name]()

    monkeypatch.setattr(crosscheck, target, late_fault)
    assert run() is not None
    assert calls == sum(calls_per_trial)
    # the calls of the first trials - 1 trials go right, every later one wrong
    calls, healthy = 0, sum(calls_per_trial[:-1])
    assert run() is None


def test_equality_property_draws_every_kind_of_u(monkeypatch):
    """u unrelated to v, a unit-product rescaling of v, one of another
    product and v moved by a shift of determinant 1 all occur; unrelated
    ones reach unequal components, and shifted ones both unequal and
    equal nonzero components.  A unit-product rescaling rotated by one
    place reaches both unequal and equal nonzero components."""
    draws, outcomes, equal_nonzero = [], Counter(), Counter()
    scaled = []

    def drawn_family(*args, **kwargs):
        draws.append("random")
        return random_family(*args, **kwargs)

    def drawn_scaling(rng, base, unit_product):
        draws.append("unit" if unit_product else "non-unit")
        scaled.append(scaled_family(rng, base, unit_product))
        return scaled[-1]

    def drawn_shift(base):
        draws.append("shifted")
        return shifted_family(base)

    def compared(fv, fu, lam):
        verdict = decide_equality(fv, fu, lam)
        # each trial draws v with random_family first, then u
        kind = "unrelated" if draws[-2:] == ["random", "random"] else draws[-1]
        if kind == "unit" and fu is not scaled[-1]:
            kind = "rotated"
        outcomes[kind, verdict.equal] += 1
        # equal with a witness system: equal and nonzero, by Gamas' theorem
        equal_nonzero[kind] += verdict.mode == "witnessed"
        return verdict

    monkeypatch.setattr(crosscheck, "random_family", drawn_family)
    monkeypatch.setattr(crosscheck, "scaled_family", drawn_scaling)
    monkeypatch.setattr(crosscheck, "shifted_family", drawn_shift)
    monkeypatch.setattr(crosscheck, "decide_equality", compared)
    prop = dict(crosscheck.properties(3, 25, random.Random(0)))["equality_matches_oracle"]
    # the property passes, so every verdict counted is the Gram comparison's
    assert prop() == 25 * 3
    assert {kind for kind, _ in outcomes} == {
        "unrelated", "unit", "non-unit", "shifted", "rotated"
    }
    assert outcomes["unrelated", False] >= 1
    assert outcomes["unit", False] == 0
    assert outcomes["shifted", False] >= 1
    assert equal_nonzero["shifted"] >= 1
    assert outcomes["rotated", False] >= 1
    assert equal_nonzero["rotated"] >= 1


def test_shifted_family_is_a_change_of_coordinates_of_determinant_one():
    for dim in (1, 2, 3, 4):
        basis = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
        g = shifted_family(VectorFamily(dim, basis)).vectors  # the images g e_i
        det = sum(
            sign(p) * math.prod(g[i][p[i] - 1] for i in range(dim))
            for p in itertools.permutations(range(1, dim + 1))
        )
        assert det == 1
        assert dim == 1 or all(g[i][i] == 0 for i in range(dim))


def _tiny_sweep() -> Counter:
    """Every tiny family for both shapes of 2 against the projection
    oracle, with no seed to be lucky with: both Gamas deciders against
    whether the projection is nonzero, and for each ordered pair of
    families the equality verdict against whether the projections are
    equal, each witness, of failed verdicts too, checked by
    `crosscheck._matching_witness`.  Counts the checks, the checks that
    failed, the witnesses rejected and the witnesses whose sigma is not the
    identity.  The families are made anew, with no span key memoized by an
    earlier sweep."""
    # every family of two vectors of Q^2 with entries in {-1, 0, 1}: 81
    families = [
        VectorFamily(2, pair)
        for pair in itertools.product(itertools.product((F(-1), F(0), F(1)), repeat=2), repeat=2)
    ]
    counts = Counter()
    for lam in ((2,), (1, 1)):
        oracle = [(f, project(decomposable(f), lam)) for f in families]
        for f, x in oracle:
            nonzero = not tensor.is_zero(x)
            counts["checks"] += 1
            counts["failed"] += not (
                gamas_nonvanishing(f, lam)[0] == gamas_standard(f, lam)[0] == nonzero
            )
        for (fv, x), (fu, y) in itertools.product(oracle, repeat=2):
            verdict = decide_equality(fv, fu, lam)
            rejected = sum(
                not crosscheck._matching_witness(fv, fu, w) for w in verdict.witnesses
            )
            counts["checks"] += 1
            counts["failed"] += verdict.equal != tensor_equal(x, y) or rejected > 0
            counts["rejected"] += rejected
            counts["moved"] += sum(
                w.sigma != tuple(range(1, len(w.sigma) + 1)) for w in verdict.witnesses
            )
    return counts


def test_every_tiny_instance_agrees_with_the_oracle():
    counts = _tiny_sweep()
    assert counts["checks"] == 81 * 2 + 81 * 81 * 2
    assert counts["failed"] == counts["rejected"] == 0
    # witnesses that match the columns other than in order: no selfcheck draw has one
    assert counts["moved"] == 96


def test_tiny_sweep_rejects_a_witness_reported_with_the_identity_sigma(monkeypatch):
    sabotage(monkeypatch, *IDENTITY_SIGMA)
    counts = _tiny_sweep()
    assert counts["moved"] == 0
    assert counts["rejected"] == counts["failed"] == 96


#: The 32 shapes of 9 and 10 with at most 500 column systems.
CONSTRUCTED_SHAPES = [
    lam for n in (9, 10) for lam in enumerate_partitions(n) if column_system_count(lam) <= 500
]


def _invertible(rng: random.Random, dim: int) -> list[list[int]]:
    while True:
        g = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
        if rank(g) == dim:
            return g


def test_constructed_verdicts_past_the_oracle():
    """Verdicts that follow from the construction alone, at degrees 9 and
    10, which the oracle does not reach, in dimensions 2, 3 and 5: a
    Vandermonde family is nonzero exactly on the shapes of at most dim
    rows, and k vectors in a subspace of dimension w vanish when k is past
    the sum of min(column length, w).  A rescaling is witnessed exactly
    when its product is 1 (both vanish on a taller shape), and on the shape
    (n) rotated by one place too, with a witness that moves the columns;
    u = g v with det g = 1 is equal on the shape (k^dim).  The failing
    and rotated verdicts, and those of v against an unrelated family,
    stay field for field under a change of basis.  The equality checks run
    in dimension 5 only on (2^5): on each other shape of five rows, each
    family would eliminate over a hundred columns of five vectors."""
    rng = random.Random(9)
    counts = Counter()
    for lam, dim in itertools.product(CONSTRUCTED_SHAPES, (2, 3, 5)):
        n, sizes = sum(lam), conjugate(lam)
        nonzero = len(lam) <= dim
        v = vandermonde(rng, n, dim)
        assert gamas_nonvanishing(v, lam)[0] == gamas_standard(v, lam)[0] == nonzero, lam
        w = rng.randrange(1, dim)
        k = sum(min(size, w) for size in sizes) + 1
        if k <= n:
            z = in_subspace(rng, n, dim, k, w)
            assert not gamas_nonvanishing(z, lam)[0] and not gamas_standard(z, lam)[0], lam
            counts["subspace", "vanishing"] += 1
        if dim == 5 and lam != (2,) * 5:
            continue
        product = rng.choice((F(-1), F(2), F(1, 3)))
        cases = [
            ("unit", rescaled(rng, v, F(1)), "witnessed" if nonzero else "both_vanish"),
            ("product", rescaled(rng, v, product), "failed" if nonzero else "both_vanish"),
            ("unrelated", vandermonde(rng, n, dim), None),
        ]
        if len(lam) == 1:
            cases.append(("rotated", rescaled(rng, v, F(1), shift=1), "witnessed"))
        if sizes == (dim,) * lam[0]:
            cases.append(("det 1", shifted_family(v), "witnessed"))
        g = _invertible(rng, dim)
        gv = transformed(g, v)
        for name, u, mode in cases:
            verdict = decide_equality(v, u, lam, exhaustive=True)
            assert mode in (None, verdict.mode), (name, lam, dim)
            assert all(crosscheck._matching_witness(v, u, x) for x in verdict.witnesses)
            if name == "product" and nonzero:
                assert {(f.reason, f.product) for f in verdict.failures} == {
                    (PRODUCT_NOT_ONE, 1 / product)
                }
            if name == "rotated":
                assert all(x.sigma != tuple(range(1, n + 1)) for x in verdict.witnesses)
            if name in ("product", "rotated", "unrelated"):
                assert decide_equality(gv, transformed(g, u), lam, True) == verdict
            counts[name, verdict.mode] += 1
    assert counts == {
        ("subspace", "vanishing"): 85,
        ("unit", "witnessed"): 14,
        ("product", "failed"): 14,
        ("unrelated", "failed"): 14,
        ("rotated", "witnessed"): 4,
        ("det 1", "witnessed"): 2,
        ("unit", "both_vanish"): 51,
        ("product", "both_vanish"): 51,
        ("unrelated", "both_vanish"): 51,
    }
