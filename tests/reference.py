"""Test oracles, which no command runs, and the builders the tests share.

The Young symmetrizers check `isotypic_projector` and `apply_element`
without characters, and the fillings check the column-system searches.
The Gram-Schmidt character table checks `mn_character`.  `from_json_obj`
parses what `symmetrize` writes.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterator

from symten.characters import CharacterTable, class_size
from symten.combinatorics import (
    Part,
    Perm,
    Rows,
    compose,
    cycle_type,
    enumerate_partitions,
    tableau_columns,
    tableau_shape,
)
from symten.group_algebra import GroupAlgebraElement
from symten.linalg import VectorFamily, parse_rational
from symten.tensor import SparseTensor


def fam(*vectors) -> VectorFamily:
    """The family of the given vectors, each entry made a Fraction."""
    return VectorFamily(len(vectors[0]), tuple(tuple(Fraction(x) for x in v) for v in vectors))


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


def element(degree: int, *terms: tuple[Perm, int | Fraction]) -> GroupAlgebraElement:
    """The element with the given (permutation, coefficient) terms."""
    return GroupAlgebraElement(degree, {p: Fraction(c) for p, c in terms})


def combination(*terms: tuple[int | Fraction, GroupAlgebraElement]) -> GroupAlgebraElement:
    """The sum of c * x over the (c, x) pairs, all of one degree; the terms
    keep the order in which they first occur."""
    total: dict[Perm, Fraction] = {}
    for c, x in terms:
        for p, a in x.terms.items():
            total[p] = total.get(p, 0) + c * a
    return GroupAlgebraElement(terms[0][1].degree, total)


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
    return GroupAlgebraElement(x.degree, terms)


def row_symmetrizer(rows: Rows) -> GroupAlgebraElement:
    """Sum over the row group of the tableau, all coefficients 1."""
    return GroupAlgebraElement(
        sum(tableau_shape(rows)), dict.fromkeys(row_group(rows), Fraction(1))
    )


def column_antisymmetrizer(rows: Rows) -> GroupAlgebraElement:
    """Signed sum over the column group of the tableau."""
    return GroupAlgebraElement(
        sum(tableau_shape(rows)), {p: Fraction(sign(p)) for p in col_group(rows)}
    )


def young_symmetrizer(rows: Rows) -> GroupAlgebraElement:
    """The product: column antisymmetrizer times row symmetrizer."""
    return ga_multiply(column_antisymmetrizer(rows), row_symmetrizer(rows))


def sum_young_symmetrizers(lam: Part) -> GroupAlgebraElement:
    """Sum of the Young symmetrizers over all fillings of lam."""
    return combination(*((1, young_symmetrizer(rows)) for rows in enumerate_fillings(lam)))


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


def from_json_obj(obj: dict) -> SparseTensor:
    """The tensor of `symten.tensor.to_json_obj`'s JSON form."""
    entries = {tuple(e["index"]): parse_rational(e["coeff"]) for e in obj["entries"]}
    return SparseTensor(obj["dim"], obj["order"], entries)
