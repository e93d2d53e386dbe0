"""Randomized cross-checks of the deciders and of the projection path
against Gram forms.

Each property checks one trial: given the trial index, it draws random
families from the shared rng (adversarial ones with repeated, zero and
parallel vectors among them), compares two independent computations and
says whether they agreed.  One loop runs the trials and stops at the
first failing one, where the property returns None (not an assert, which
`python -O` would strip); else it returns trials times its checks per
trial.  To add a property, write one more function of the trial index and
list it in `properties` with its checks per trial.

The deciders are compared with Gram forms, not with tensors.  For
x = v_1 (x) ... (x) v_n and y = u_1 (x) ... (x) u_n, the isotypic
projector P_lam is self-adjoint and idempotent, so
<P_lam x, P_lam y> = (f^lam / n!) sum_sigma chi_lam(sigma) prod_i <v_sigma(i), u_i>,
Schur's generalized matrix function of the Gram matrix (Schur, 1918;
Merris, Multilinear Algebra, 1997).  Its class sums (`_class_sums`) are
taken once per pair of families, on the integer rows, and every shape
reads its form off them with the weights of `_class_weights`; no tensor
entry is formed.  The form is positive definite over Q, so P_lam x = 0
exactly when its form with itself is 0, and P_lam x = P_lam y exactly
when the form of x - y with itself is 0.

The projection path that `symmetrize` runs, `tensor.project` (Young's
rule's pruning of the weights the shape does not dominate, then
`apply_element` of the projector element of `isotypic_projector`), is
checked on its own, against the Gram forms.

- right_action_law: (x.s).t = x.(st) for the place-permutation action;
  one check per trial, where the others make one per shape of n.
  `tensor.act` applies sigma through `apply_element`, so the law checks
  the kernel's walked path and its convention, which the projectors, as
  class sums, cannot tell from sigma^-1.
- projector_idempotent_and_complete: each component project(x, lam)
  is fixed by project(., lam), its squared norm is its Gram form, and
  the components sum to x.  The norms check the projection path, the
  pruning included, against the Gram forms, the sum the column
  orthogonality of the character table.
- gamas_matches_oracle: Gamas' theorem (Linear Algebra Appl. 108, 1988).
  The column-system scan, the standard-tableau scan and the Gram form
  agree on vanishing, a witness system is a canonical column system of
  the shape (its columns partition 1..n, their lengths those of the
  conjugate) with independent columns, and a witness tableau is a
  standard tableau of the shape with independent columns.
- equality_matches_oracle: the da Cruz-Dias da Silva column-system
  conditions agree with the Gram form of the difference of the two
  families' tensors, and each witness, of a failed verdict too, matches
  the columns with product 1 and `linalg.transition_scalar`s as scalars,
  so between equal spans.  Trials cycle through four kinds of u:
  unrelated to v, a rescaling of v with product 1, one with another
  product, and g.v for a g of determinant 1 (`shifted_family`), whose
  components are equal for the shapes (k^dim) without u being a
  rescaling of v.  A unit-product trial also decides v against u rotated
  by one place, drawing nothing, for witnesses whose sigma moves columns.

`selfcheck` runs every property once, and the tests call the same ones.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from operator import getitem, mul

from .combinatorics import (
    Part,
    Perm,
    Rows,
    canonical_system,
    column_system_of,
    compose,
    conjugate,
    enumerate_permutations,
    is_filling,
    tableau_shape,
)
from .decision import (
    SystemWitness,
    columns_independent,
    decide_equality,
    gamas_nonvanishing,
    gamas_standard,
)
from .group_algebra import _class_table, _class_weights, _members
from .linalg import VectorFamily, _scaled, transition_scalar
from .sampling import random_family, scaled_family, shifted_family
from .tensor import act, decomposable, project, tensor_add, tensor_equal

DIMS = (2, 3)  # the tensor dimensions a trial draws from


def _class_sums(fv: VectorFamily, fu: VectorFamily) -> list[int]:
    """S_k = sum over sigma in class k of prod_i <V_sigma(i), U_i>, for each
    class k of `_class_table(n)`, in its order.

    V and U are the families' integer rows (`VectorFamily._scaled_rows`),
    so S_k is s_v * s_u times the sum for v and u, with s_v and s_u the
    products of the families' row scales.
    """
    n = len(fv)
    # column i of the Gram matrix <V_a, U_i>, padded so that sigma's
    # one-based images pick its entries
    columns = [
        (0, *(sum(map(mul, v, u)) for v, _ in fv._scaled_rows)) for u, _ in fu._scaled_rows
    ]
    _, classes = _class_table(n)
    return [
        sum(math.prod(map(getitem, columns, sigma)) for sigma in _members(flat, n))
        for flat in classes
    ]


def _scale(family: VectorFamily) -> int:
    """s: the product of the family's row scales."""
    return math.prod(scale for _, scale in family._scaled_rows)


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


def _matching_witness(fv: VectorFamily, fu: VectorFamily, w: SystemWitness) -> bool:
    """Whether w.sigma permutes w.system's columns and w.scalars, of product
    1, are the transition scalars of the matched columns (None: unequal spans)."""
    return (
        sorted(w.sigma) == list(range(1, len(w.system) + 1))
        and math.prod(w.scalars) == 1
        and w.scalars == tuple(
            transition_scalar(fv, column, fu, w.system[t - 1])
            for column, t in zip(w.system, w.sigma)
        )
    )


def _draw_permutation(rng: random.Random, n: int) -> Perm:
    """`rng.choice(list(enumerate_permutations(n)))` with no list of n!:
    `choice` draws the same index from a range as from a list, and the
    walk in lexicographic order unranks it."""
    index = rng.choice(range(math.factorial(n)))
    return next(itertools.islice(enumerate_permutations(n), index, None))


def properties(n: int, trials: int, rng: random.Random):
    """The named properties at degree n as [(name, fn)], all drawing from
    the one rng and each trial's tensor dimension from DIMS; each fn returns
    its number of checks, u rotated left out, or None at the first failing trial."""
    partitions, _ = _class_table(n)
    weights = [_class_weights(lam, partitions) for lam in partitions]

    def forms(fv: VectorFamily, fu: VectorFamily) -> list[int]:
        """sum_k chi_k S_k for each shape, in partitions' order: n!/f^lam
        times <P_lam x, P_lam y> times s_v s_u (see `_class_sums`)."""
        sums = _class_sums(fv, fu)
        return [sum(map(mul, chis, sums)) for _, chis in weights]

    def adversarial_family():
        return random_family(rng, n, rng.choice(DIMS), adversarial=True)

    def right_action_law(trial: int) -> bool:
        fam = adversarial_family()
        x = tensor_add(decomposable(fam), decomposable(random_family(rng, n, fam.dim)))
        s, t = _draw_permutation(rng, n), _draw_permutation(rng, n)
        return tensor_equal(act(act(x, s), t), act(x, compose(s, t)))

    def projector_idempotent_and_complete(trial: int) -> bool:
        fam = adversarial_family()
        x = decomposable(fam)
        once = [project(x, lam) for lam in partitions]
        s_v = _scale(fam)
        for c, (scale, _), form in zip(once, weights, forms(fam, fam)):
            # ||c||^2 = scale * form / s_v^2, each side over one denominator
            entries, d = _scaled(c.entries.values())
            if sum(map(mul, entries, entries)) * s_v * s_v * scale.denominator != (
                scale.numerator * form * d * d
            ):
                return False
        return all(
            tensor_equal(project(c, lam), c) for lam, c in zip(partitions, once)
        ) and tensor_equal(functools.reduce(tensor_add, once), x)

    def gamas_matches_oracle(trial: int) -> bool:
        fam = adversarial_family()
        for lam, form in zip(partitions, forms(fam, fam)):
            nonzero, witness = gamas_nonvanishing(fam, lam)
            standard, tableau = gamas_standard(fam, lam)
            if nonzero != (form != 0) or standard != nonzero:
                return False
            if witness is not None and not (
                witness == canonical_system(witness)
                and tuple(map(len, witness)) == conjugate(lam)
                and is_filling(witness)  # the columns partition 1..n
                and columns_independent(fam, witness)
            ):
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
        us = (fu, VectorFamily(fu.dim, fu.vectors[1:] + fu.vectors[:1])) if kind == 1 else (fu,)
        return all(agrees(fv, u) for u in us)

    def agrees(fv: VectorFamily, fu: VectorFamily) -> bool:
        s_v, s_u = _scale(fv), _scale(fu)
        # ||P x - P y||^2 times n!/f^lam s_v^2 s_u^2
        distances = [
            s_u * s_u * vv - 2 * s_v * s_u * vu + s_v * s_v * uu
            for vv, vu, uu in zip(forms(fv, fv), forms(fv, fu), forms(fu, fu))
        ]
        verdicts = (decide_equality(fv, fu, lam) for lam in partitions)
        return all(
            verdict.equal == (distance == 0)
            and all(_matching_witness(fv, fu, w) for w in verdict.witnesses)
            for verdict, distance in zip(verdicts, distances)
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
