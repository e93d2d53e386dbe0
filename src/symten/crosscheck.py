"""Randomized cross-checks of the deciders against the brute-force oracle.

Each property checks one trial: given the trial index, it draws random
families from the shared rng (adversarial ones with repeated, zero and
parallel vectors among them), compares two independent computations and
says whether they agreed.  One loop runs the trials and stops at the
first failing one, where the property returns None (not an assert, which
`python -O` would strip); else it returns trials times its checks per
trial.  To add a property, write one more function of the trial index and
list it in `properties` with its checks per trial.

The oracle side takes every projected tensor of a family from one
`isotypic_components` sweep over S_n, which sums x over each conjugacy
class and combines the class sums with the character table; it never
applies a projector element.  The projector elements of
`isotypic_projector` are applied, with `apply_element`, only to check
that sweep.

- right_action_law: (x.s).t = x.(st) for the place-permutation action;
  one check per trial, where the others make one per shape of n.
- projector_idempotent_and_complete: each component of the sweep is
  fixed by its isotypic projector element, and the components sum to x.
  The first checks the sweep against the projector elements, the second
  the column orthogonality of the character table.
- gamas_matches_oracle: Gamas' theorem (Linear Algebra Appl. 108, 1988).
  The column-system scan, the standard-tableau scan and the swept
  component agree on vanishing, a witness system has independent
  columns, and a witness tableau is a standard tableau of the shape
  with independent columns.
- equality_matches_oracle: the da Cruz-Dias da Silva column-system
  conditions agree with comparing the two families' swept components.
  Trials cycle through four kinds of u: unrelated to v, a rescaling of
  v with product 1, one with another product, and g.v for a g of
  determinant 1 (`shifted_family`), whose components are equal for the
  shapes (k^dim) without u being a rescaling of v.

`selfcheck` runs every property once, and the tests call the same ones.
"""
from __future__ import annotations

import functools
import random

from .combinatorics import (
    Part,
    Rows,
    column_system_of,
    compose,
    enumerate_permutations,
    is_filling,
    tableau_shape,
)
from .decision import (
    columns_independent,
    decide_equality,
    gamas_nonvanishing,
    gamas_standard,
)
from .group_algebra import _class_table, isotypic_projector
from .linalg import VectorFamily
from .sampling import random_family, scaled_family, shifted_family
from .tensor import (
    act,
    apply_element,
    decomposable,
    is_zero,
    isotypic_components,
    tensor_add,
    tensor_equal,
)

DIMS = (2, 3)  # the tensor dimensions a trial draws from


def _standard_witness(family: VectorFamily, lam: Part, rows: Rows) -> bool:
    """Whether rows is a standard tableau of shape lam (1..n, rows and
    columns strictly increasing) whose columns index independent vectors."""
    return (
        tableau_shape(rows) == lam
        and is_filling(rows)
        and all(a < b for row in rows for a, b in zip(row, row[1:]))
        and all(a < b for upper, lower in zip(rows, rows[1:]) for a, b in zip(upper, lower))
        and columns_independent(family, column_system_of(rows))
    )


def properties(n: int, trials: int, rng: random.Random):
    """The named properties at degree n as [(name, fn)], all drawing from
    the one rng; each trial draws its tensor dimension from DIMS, and each
    fn returns its number of checks, or None at the first failing trial."""
    partitions, _ = _class_table(n)
    projectors = {lam: isotypic_projector(lam) for lam in partitions}
    perms = list(enumerate_permutations(n))

    def adversarial_family():
        return random_family(rng, n, rng.choice(DIMS), adversarial=True)

    def right_action_law(trial: int) -> bool:
        fam = adversarial_family()
        x = tensor_add(decomposable(fam), decomposable(random_family(rng, n, fam.dim)))
        s, t = rng.choice(perms), rng.choice(perms)
        return tensor_equal(act(act(x, s), t), act(x, compose(s, t)))

    def projector_idempotent_and_complete(trial: int) -> bool:
        x = decomposable(adversarial_family())
        components = isotypic_components(x)
        once = [components[lam] for lam in partitions]
        return all(
            tensor_equal(apply_element(c, projectors[lam]), c) for lam, c in zip(partitions, once)
        ) and tensor_equal(functools.reduce(tensor_add, once), x)

    def gamas_matches_oracle(trial: int) -> bool:
        fam = adversarial_family()
        components = isotypic_components(decomposable(fam))
        for lam in partitions:
            nonzero, witness = gamas_nonvanishing(fam, lam)
            standard, tableau = gamas_standard(fam, lam)
            if nonzero != (not is_zero(components[lam])) or standard != nonzero:
                return False
            if witness is not None and not columns_independent(fam, witness):
                return False
            if tableau is not None and not _standard_witness(fam, lam, tableau):
                return False
        return True

    def equality_matches_oracle(trial: int) -> bool:
        kind = trial % 4
        if kind == 3:
            fv = random_family(rng, n, rng.choice(DIMS))
            fu = shifted_family(fv)
        elif kind == 0:
            fv = adversarial_family()
            fu = random_family(rng, n, fv.dim, adversarial=True)
        else:
            fv = adversarial_family()
            fu = scaled_family(rng, fv, unit_product=(kind == 1))
        cv = isotypic_components(decomposable(fv))
        cu = isotypic_components(decomposable(fu))
        return all(
            decide_equality(fv, fu, lam).equal == tensor_equal(cv[lam], cu[lam])
            for lam in partitions
        )

    def run(check, checks_per_trial: int) -> int | None:
        return trials * checks_per_trial if all(map(check, range(trials))) else None

    return [
        (check.__name__, functools.partial(run, check, checks_per_trial))
        for check, checks_per_trial in (
            (right_action_law, 1),
            (projector_idempotent_and_complete, len(partitions)),
            (gamas_matches_oracle, len(partitions)),
            (equality_matches_oracle, len(partitions)),
        )
    ]
