"""Randomized cross-checks of the deciders against the brute-force oracle.

Each property draws random families (adversarial ones with repeated,
zero and parallel vectors among them), compares two independent
computations and returns its number of checks, or None at the first
disagreement; None rather than an assert, which `python -O` would strip.

The oracle side takes every projected tensor of a family from one
`isotypic_components` sweep over S_n, which sums x over each conjugacy
class and combines the class sums with the character table; it never
applies a projector element.  The projector elements of
`isotypic_projector` are applied, with `apply_element`, only to check
that sweep.

- right_action_law: (x.s).t = x.(st) for the place-permutation action.
- projector_idempotent_and_complete: each component of the sweep is
  fixed by its isotypic projector element, and the components sum to x.
  The first checks the sweep against the projector elements, the second
  the column orthogonality of the character table.
- gamas_matches_oracle: Gamas' theorem (Linear Algebra Appl. 108, 1988).
  The column-system scan, the standard-tableau scan and the swept
  component agree on vanishing, and a witness system has independent
  columns.
- equality_matches_oracle: the da Cruz-Dias da Silva column-system
  conditions agree with comparing the two families' swept components.

`selfcheck` runs every property once, and the tests call the same ones.
"""
from __future__ import annotations

import random

from .combinatorics import (
    DEFAULT_MAX_N,
    compose,
    enumerate_partitions,
    enumerate_permutations,
)
from .decision import (
    columns_independent,
    decide_equality,
    gamas_nonvanishing,
    gamas_standard,
)
from .group_algebra import isotypic_projector
from .sampling import random_family, scaled_family
from .tensor import (
    act,
    apply_element,
    decomposable,
    is_zero,
    isotypic_components,
    tensor_add,
    tensor_equal,
)


def properties(
    n: int,
    trials: int,
    rng: random.Random,
    max_n: int = DEFAULT_MAX_N,
    dims: tuple[int, ...] = (2, 3),
):
    """The named properties at degree n as [(name, fn)], all drawing from
    the one rng; each trial draws its tensor dimension from dims, and each
    fn returns its number of checks, or None at the first failure."""
    partitions = enumerate_partitions(n)
    projectors = {lam: isotypic_projector(lam, max_n) for lam in partitions}
    perms = list(enumerate_permutations(n, max_n))

    def right_action_law() -> int | None:
        checks = 0
        for _ in range(trials):
            fam = random_family(rng, n, rng.choice(dims), adversarial=True)
            x = tensor_add(
                decomposable(fam),
                decomposable(random_family(rng, n, fam.dim)),
            )
            s, t = rng.choice(perms), rng.choice(perms)
            if not tensor_equal(act(act(x, s), t), act(x, compose(s, t))):
                return None
            checks += 1
        return checks

    def projector_idempotent_and_complete() -> int | None:
        checks = 0
        for _ in range(trials):
            fam = random_family(rng, n, rng.choice(dims), adversarial=True)
            x = decomposable(fam)
            components = isotypic_components(x, max_n)
            total = None
            for lam in partitions:
                once = components[lam]
                if not tensor_equal(apply_element(once, projectors[lam]), once):
                    return None
                total = once if total is None else tensor_add(total, once)
                checks += 1
            if not tensor_equal(total, x):
                return None
        return checks

    def gamas_matches_oracle() -> int | None:
        checks = 0
        for _ in range(trials):
            fam = random_family(rng, n, rng.choice(dims), adversarial=True)
            components = isotypic_components(decomposable(fam), max_n)
            for lam in partitions:
                nonzero, witness = gamas_nonvanishing(fam, lam, max_n)
                standard, _ = gamas_standard(fam, lam, max_n)
                oracle_nonzero = not is_zero(components[lam])
                if nonzero != oracle_nonzero or standard != nonzero:
                    return None
                if witness is not None and not columns_independent(fam, witness):
                    return None
                checks += 1
        return checks

    def equality_matches_oracle() -> int | None:
        checks = 0
        for trial in range(trials):
            dim = rng.choice(dims)
            fv = random_family(rng, n, dim, adversarial=True)
            if trial % 3 == 0:
                fu = random_family(rng, n, dim, adversarial=True)
            else:
                fu = scaled_family(rng, fv, unit_product=(trial % 3 == 1))
            cv = isotypic_components(decomposable(fv), max_n)
            cu = isotypic_components(decomposable(fu), max_n)
            for lam in partitions:
                verdict = decide_equality(fv, fu, lam, max_n)
                oracle = tensor_equal(cv[lam], cu[lam])
                if verdict.equal != oracle:
                    return None
                checks += 1
        return checks

    return [
        ("right_action_law", right_action_law),
        ("projector_idempotent_and_complete", projector_idempotent_and_complete),
        ("gamas_matches_oracle", gamas_matches_oracle),
        ("equality_matches_oracle", equality_matches_oracle),
    ]
