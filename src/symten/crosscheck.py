"""Randomized cross-checks of the deciders against the brute-force oracle.

Each property draws random families (adversarial ones with repeated,
zero and parallel vectors among them), compares two independent
computations and returns its number of checks, or None at the first
disagreement; None rather than an assert, which `python -O` would strip.

- right_action_law: (x.s).t = x.(st) for the place-permutation action.
- projector_idempotent_and_complete: each isotypic projector is
  idempotent on decomposable tensors, and the projectors sum to x.
- gamas_matches_oracle: Gamas' theorem (Linear Algebra Appl. 108, 1988).
  The column-system scan, the standard-tableau scan and the projected
  tensor agree on vanishing, and a witness system has independent
  columns.
- equality_matches_oracle: the da Cruz-Dias da Silva column-system
  conditions agree with comparing the two projected tensors.

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
from .tensor import act, apply_element, decomposable, is_zero, tensor_add, tensor_equal


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
            total = None
            for lam in partitions:
                once = apply_element(x, projectors[lam])
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
            x = decomposable(fam)
            for lam in partitions:
                nonzero, witness = gamas_nonvanishing(fam, lam, max_n)
                standard, _ = gamas_standard(fam, lam, max_n)
                oracle_nonzero = not is_zero(apply_element(x, projectors[lam]))
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
            xv = decomposable(fv)
            xu = decomposable(fu)
            for lam in partitions:
                verdict = decide_equality(fv, fu, lam, max_n)
                oracle = tensor_equal(
                    apply_element(xv, projectors[lam]),
                    apply_element(xu, projectors[lam]),
                )
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
