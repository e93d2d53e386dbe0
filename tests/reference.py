"""Test oracles, which no command runs, and the builders the tests share.

The Young symmetrizers check `isotypic_projector` and `apply_element`
without characters, and the fillings check the column-system searches.
The Gram-Schmidt character table checks `mn_character`, and the hook
length formula its values on the identity.  `count_eliminations` counts
the span keys the deciders compute.  The families from `vandermonde` to
`transformed` fix the deciders' verdicts by construction, past the
degrees the oracle reaches.  `from_json_obj`
parses what `symmetrize` writes, and `verdict_json` is the payload whose
`json.dumps(..., indent=2)` `equal` writes.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Iterator

from symten import linalg
from symten.characters import CharacterTable, class_size
from symten.combinatorics import (
    Part,
    Perm,
    Rows,
    compose,
    conjugate,
    cycle_type,
    enumerate_partitions,
    tableau_columns,
    tableau_shape,
)
from symten.group_algebra import GroupAlgebraElement
from symten.decision import EqualityVerdict
from symten.linalg import VectorFamily, format_rational, parse_rational
from symten.tensor import SparseTensor


def fam(*vectors) -> VectorFamily:
    """The family of the given vectors, each entry made a Fraction."""
    return VectorFamily(len(vectors[0]), tuple(tuple(Fraction(x) for x in v) for v in vectors))


def count_eliminations(monkeypatch) -> list:
    """The rows of every `linalg._echelon` call from now on, in order."""
    calls = []
    echelon = linalg._echelon

    def counted(rows):
        calls.append(rows)
        return echelon(rows)

    monkeypatch.setattr(linalg, "_echelon", counted)
    return calls


def sign(sigma: Perm) -> int:
    """+1 or -1: the parity of n minus the number of cycles."""
    return -1 if (len(sigma) - len(cycle_type(sigma))) % 2 else 1


def enumerate_fillings(lam: Part) -> Iterator[Rows]:
    """All n! fillings of lam, in lexicographic order of the row-major word."""
    ends = list(itertools.accumulate(lam))
    for flat in itertools.permutations(range(1, sum(lam) + 1)):
        yield tuple(flat[end - part:end] for part, end in zip(lam, ends))


def _setwise_stabilizer(blocks: list[tuple[int, ...]], n: int) -> list[Perm]:
    perms = []
    for parts in itertools.product(*(itertools.permutations(b) for b in blocks)):
        images = list(range(1, n + 1))
        for block, permuted in zip(blocks, parts):
            for src, dst in zip(block, permuted):
                images[src - 1] = dst
        perms.append(tuple(images))
    return perms


def row_group(rows: Rows) -> list[Perm]:
    """All permutations stabilizing each row of the tableau setwise."""
    return _setwise_stabilizer([tuple(r) for r in rows], sum(tableau_shape(rows)))


def col_group(rows: Rows) -> list[Perm]:
    """All permutations stabilizing each column of the tableau setwise."""
    return _setwise_stabilizer(tableau_columns(rows), sum(tableau_shape(rows)))


def of_terms(degree: int, terms: dict[Perm, int | Fraction]) -> GroupAlgebraElement:
    """The element of a permutation -> coefficient map: one run per
    nonzero term, in the map's order."""
    return GroupAlgebraElement(
        degree, tuple((bytes(p) + b"\0", Fraction(c)) for p, c in terms.items() if c)
    )


def element(degree: int, *terms: tuple[Perm, int | Fraction]) -> GroupAlgebraElement:
    """The element with the given (permutation, coefficient) terms."""
    return of_terms(degree, dict(terms))


def combination(*terms: tuple[int | Fraction, GroupAlgebraElement]) -> GroupAlgebraElement:
    """The sum of c * x over the (c, x) pairs, all of one degree; the terms
    keep the order in which they first occur."""
    total: dict[Perm, Fraction] = {}
    for c, x in terms:
        for p, a in x.terms.items():
            total[p] = total.get(p, 0) + c * a
    return of_terms(terms[0][1].degree, total)


def ga_multiply(x: GroupAlgebraElement, y: GroupAlgebraElement) -> GroupAlgebraElement:
    """Convolution product: the term at sigma tau collects x_sigma * y_tau.

    Applying x and then y to a tensor by the right place-permutation
    action is applying this product once.
    """
    if x.degree != y.degree:
        raise ValueError(f"degree mismatch: {x.degree} != {y.degree}")
    terms: dict[Perm, Fraction] = {}
    for s, a in x.terms.items():
        for t, b in y.terms.items():
            st = compose(s, t)
            terms[st] = terms.get(st, 0) + a * b
    return of_terms(x.degree, terms)


def row_symmetrizer(rows: Rows) -> GroupAlgebraElement:
    """Sum over the row group of the tableau, all coefficients 1."""
    return of_terms(sum(tableau_shape(rows)), dict.fromkeys(row_group(rows), 1))


def column_antisymmetrizer(rows: Rows) -> GroupAlgebraElement:
    """Signed sum over the column group of the tableau."""
    return of_terms(sum(tableau_shape(rows)), {p: sign(p) for p in col_group(rows)})


def young_symmetrizer(rows: Rows) -> GroupAlgebraElement:
    """The product: column antisymmetrizer times row symmetrizer."""
    return ga_multiply(column_antisymmetrizer(rows), row_symmetrizer(rows))


def sum_young_symmetrizers(lam: Part) -> GroupAlgebraElement:
    """Sum of the Young symmetrizers over all fillings of lam."""
    return combination(*((1, young_symmetrizer(rows)) for rows in enumerate_fillings(lam)))


def hook_length_dimension(lam: Part) -> int:
    """n! over the product of hook lengths; the number of standard tableaux."""
    n = sum(lam)
    conj = conjugate(lam)
    product = 1
    for i, part in enumerate(lam):
        for j in range(part):
            product *= part - j + conj[j] - i - 1
    dim, rem = divmod(math.factorial(n), product)
    if rem:
        raise ArithmeticError(f"hook product {product} does not divide {n}!")
    return dim


@functools.cache
def _fixed_tabloid_count(capacities: tuple[int, ...], cycle_lengths: tuple[int, ...]) -> int:
    """Number of ways to fill ordered blocks of the given sizes with the cycles.

    Cycles are distinguishable even when equal in length; a block is fixed
    by the permutation exactly when it is a union of whole cycles.  With
    the row lengths of lam as capacities and the cycle type of sigma, this
    is the permutation character of the Young subgroup of lam at sigma.
    """
    if not cycle_lengths:
        return 1 if all(c == 0 for c in capacities) else 0
    length, rest = cycle_lengths[0], cycle_lengths[1:]
    total = 0
    for i, cap in enumerate(capacities):
        if cap >= length:
            total += _fixed_tabloid_count(
                capacities[:i] + (cap - length,) + capacities[i + 1:], rest
            )
    return total


def character_table_oracle(n: int) -> CharacterTable:
    """Character table built without the border-strip rule.

    Extracts irreducibles by Gram-Schmidt of the permutation characters
    in reverse-lexicographic shape order under the class-weighted inner
    product; each permutation character contains its own irreducible with
    multiplicity one, so no normalization is needed.
    """
    parts = tuple(enumerate_partitions(n))
    sizes = tuple(class_size(ct, n) for ct in parts)
    n_fact = math.factorial(n)

    rows: list[tuple[int, ...]] = []
    for lam in parts:
        vec = [Fraction(_fixed_tabloid_count(lam, ct)) for ct in parts]
        for prev in rows:
            ip = sum(Fraction(sz) * a * b for sz, a, b in zip(sizes, vec, prev)) / n_fact
            vec = [a - ip * b for a, b in zip(vec, prev)]
        if any(a.denominator != 1 for a in vec):
            raise ArithmeticError(f"non-integer character value in the row of {lam}")
        rows.append(tuple(int(a) for a in vec))
    return CharacterTable(n, parts, parts, sizes, tuple(rows))


def column_system_count(lam: Part) -> int:
    """n! over the orders of the column groups and of the permutations of
    equal columns: the number of column systems of lam."""
    sizes = conjugate(lam)
    return math.factorial(sum(lam)) // (
        math.prod(map(math.factorial, sizes))
        * math.prod(map(math.factorial, Counter(sizes).values()))
    )


def _scalars(rng: random.Random, n: int, product: Fraction) -> list[Fraction]:
    """n nonzero rationals drawn from rng, the last one chosen so that
    they multiply to product."""
    scalars = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2))) for _ in range(n)]
    scalars[-1] *= product / math.prod(scalars)
    return scalars


def vandermonde(rng: random.Random, n: int, dim: int) -> VectorFamily:
    """c_i (1, t_i, ..., t_i^(dim-1)) for n distinct integers t_i and
    nonzero integers c_i: any dim of these vectors are independent, so the
    tensor is nonzero exactly for the shapes of at most dim rows."""
    ts = rng.sample(range(-n, n + 1), n)
    cs = [rng.choice((-2, -1, 1, 2)) for _ in ts]
    return VectorFamily(dim, [[c * t**e for e in range(dim)] for c, t in zip(cs, ts)])


def in_subspace(rng: random.Random, n: int, dim: int, k: int, w: int) -> VectorFamily:
    """A Vandermonde family with k of its vectors, at drawn places,
    replaced by vectors of one subspace of dimension at most w.  A column
    holds at most w independent vectors of the subspace, so for k past the
    sum over the columns of min(column length, w) every column system has
    a dependent column and the tensor vanishes."""
    basis = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(w)]
    vectors = list(vandermonde(rng, n, dim).vectors)
    for i in rng.sample(range(n), k):
        coefficients = [rng.randint(-2, 2) for _ in range(w)]
        vectors[i] = [sum(a * b[j] for a, b in zip(coefficients, basis)) for j in range(dim)]
    return VectorFamily(dim, vectors)


def rescaled(
    rng: random.Random, family: VectorFamily, product: Fraction, shift: int = 0
) -> VectorFamily:
    """u_i = c_i v_(i + shift), indices mod n, for drawn nonzero rationals
    c_i that multiply to product.  The tensor of every shape is multiplied
    by product when shift is 0; for the shape (n), whose symmetrizer is
    commutative, by product whatever the shift."""
    n, v = len(family), family.vectors
    return VectorFamily(
        family.dim,
        [[c * x for x in v[(i + shift) % n]] for i, c in enumerate(_scalars(rng, n, product))],
    )


def transformed(g: list[list[int]], family: VectorFamily) -> VectorFamily:
    """The family g v_i.  For an invertible g, g^(tensor n) commutes with
    every isotypic projector and keeps every independence, span equality
    and wedge ratio, so each equality verdict is the same for (g v, g u)
    as for (v, u), field for field."""
    return VectorFamily(
        family.dim, [[sum(a * x for a, x in zip(row, v)) for row in g] for v in family.vectors]
    )


def from_json_obj(obj: dict) -> SparseTensor:
    """The tensor of `symten.tensor.to_json_obj`'s JSON form."""
    entries = {tuple(e["index"]): parse_rational(e["coeff"]) for e in obj["entries"]}
    return SparseTensor(obj["dim"], obj["order"], entries)


def verdict_json(verdict: EqualityVerdict) -> dict:
    """The JSON form of an equality verdict: `symten equal` writes
    `json.dumps(verdict_json(verdict), indent=2)`."""
    obj: dict = {"equal": verdict.equal, "mode": verdict.mode}
    obj["failures"] = []
    for failure in verdict.failures:
        entry: dict = {
            "system": [list(column) for column in failure.system],
            "reason": failure.reason,
        }
        if failure.scalars is not None:
            entry["scalars"] = [format_rational(s) for s in failure.scalars]
            entry["product"] = format_rational(failure.product)
        obj["failures"].append(entry)
    obj["witnesses"] = [
        {
            "system": [list(column) for column in w.system],
            "sigma": list(w.sigma),
            "scalars": [format_rational(s) for s in w.scalars],
            "product": "1",  # what makes it a witness
        }
        for w in verdict.witnesses
    ]
    return obj
