"""Formal rational combinations of permutations.

Houses the row symmetrizer, column antisymmetrizer, Young symmetrizer
and the central isotypic projector of each shape.  Elements are sparse
maps from permutation to coefficient; zero coefficients are never
stored, so equality is map equality.

Multiplication convention: applying element x and then element y to a
tensor via the right place-permutation action corresponds to the single
element x * y.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Iterator

from .combinatorics import (
    DEFAULT_MAX_N,
    Part,
    Perm,
    Rows,
    SizeLimitError,
    check_limit,
    col_group,
    compose,
    cycle_type,
    enumerate_fillings,
    enumerate_partitions,
    enumerate_permutations,
    identity,
    row_group,
    sign,
    tableau_shape,
)
from .characters import hook_length_dimension, mn_character


def _canonical(terms: dict[Perm, Fraction]) -> dict[Perm, Fraction]:
    return {p: c for p, c in terms.items() if c}


@dataclass(frozen=True)
class GroupAlgebraElement:
    degree: int
    terms: dict[Perm, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "terms", _canonical(self.terms))

    @classmethod
    def _nonzero(cls, degree: int, terms: dict[Perm, Fraction]) -> "GroupAlgebraElement":
        """The element of terms that are all nonzero already: not re-filtered."""
        x = object.__new__(cls)
        x.__dict__.update(degree=degree, terms=terms)
        return x

    def _check(self, other: "GroupAlgebraElement") -> None:
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} != {other.degree}")

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        self._check(other)
        terms = dict(self.terms)
        for p, c in other.terms.items():
            terms[p] = terms.get(p, Fraction(0)) + c
        return GroupAlgebraElement(self.degree, terms)

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, GroupAlgebraElement):
            return ga_multiply(self, other)
        return self.scale(other)

    def __rmul__(self, scalar) -> "GroupAlgebraElement":
        return self.scale(scalar)

    def scale(self, scalar) -> "GroupAlgebraElement":
        scalar = Fraction(scalar)
        return GroupAlgebraElement(
            self.degree, {p: scalar * c for p, c in self.terms.items()}
        )

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, perm: Perm) -> Fraction:
        return self.terms.get(tuple(perm), Fraction(0))


def zero_element(n: int) -> GroupAlgebraElement:
    return GroupAlgebraElement(n, {})


def unit(n: int) -> GroupAlgebraElement:
    return GroupAlgebraElement(n, {identity(n): Fraction(1)})


def basis_element(perm: Perm) -> GroupAlgebraElement:
    return GroupAlgebraElement(len(perm), {tuple(perm): Fraction(1)})


def ga_multiply(x: GroupAlgebraElement, y: GroupAlgebraElement) -> GroupAlgebraElement:
    """Convolution product: the term at sigma tau collects x_sigma * y_tau."""
    x._check(y)
    terms: dict[Perm, Fraction] = {}
    for s, a in x.terms.items():
        for t, b in y.terms.items():
            st = compose(s, t)
            terms[st] = terms.get(st, Fraction(0)) + a * b
    return GroupAlgebraElement(x.degree, terms)


def row_symmetrizer(rows: Rows) -> GroupAlgebraElement:
    """Sum over the row group of the tableau, all coefficients 1."""
    n = sum(tableau_shape(rows))
    return GroupAlgebraElement._nonzero(
        n, {p: Fraction(1) for p in row_group(rows)}
    )


def column_antisymmetrizer(rows: Rows) -> GroupAlgebraElement:
    """Signed sum over the column group of the tableau."""
    n = sum(tableau_shape(rows))
    return GroupAlgebraElement._nonzero(
        n, {p: Fraction(sign(p)) for p in col_group(rows)}
    )


def young_symmetrizer(rows: Rows) -> GroupAlgebraElement:
    """The product: column antisymmetrizer times row symmetrizer."""
    return ga_multiply(column_antisymmetrizer(rows), row_symmetrizer(rows))


@functools.cache
def _class_table(n: int) -> tuple[bytes, ...]:
    """S_n by class in enumerate_partitions(n) order: each class's permutations
    in enumerate_permutations order, flat, n bytes each.  Degrees above 16
    (over 256 classes) raise SizeLimitError at once, whatever max_n allowed.
    """
    classes = enumerate_partitions(n)
    if len(classes) > 256:
        raise SizeLimitError(
            f"degree {n} has {len(classes)} conjugacy classes, more than the 256 "
            "of the class table (degree 16 at most)"
        )
    table = {ct: bytearray() for ct in classes}
    for p in enumerate_permutations(n, n):
        table[cycle_type(p)] += bytes(p)
    return tuple(map(bytes, table.values()))


def _members(flat: bytes, n: int) -> Iterator[Perm]:
    """The permutations of one class of `_class_table(n)`; S_0's has no bytes."""
    return zip(*[iter(flat)] * n) if n else iter([()])


def _class_weights(lam: Part, classes: list[Part]) -> tuple[Fraction, list[int]]:
    """(scale, chis): the isotypic projector of lam is the sum over k of
    scale * chis[k] times the sum of the class of cycle type classes[k].

    classes is enumerate_partitions(n), scale is dim/n! and chis[k] the
    character value on classes[k].
    """
    scale = Fraction(hook_length_dimension(lam), math.factorial(sum(lam)))
    return scale, [mn_character(lam, ct) for ct in classes]


def isotypic_projector(lam: Part, max_n: int = DEFAULT_MAX_N) -> GroupAlgebraElement:
    """The central idempotent projecting onto the isotypic component of lam.

    Coefficient of sigma is the `_class_weights` weight of sigma's class,
    classes of character 0 left out.  Terms go in class by class from
    `_class_table(n)`, one shared `Fraction` per character value, so the
    runs `apply_element` scales once each are found mostly by identity.
    """
    lam = tuple(lam)
    n = sum(lam)
    check_limit(n, max_n)
    scale, chis = _class_weights(lam, enumerate_partitions(n))
    weights = {chi: scale * chi for chi in set(chis) if chi}
    terms: dict[Perm, Fraction] = {}
    for chi, flat in zip(chis, _class_table(n)):
        if chi:
            terms.update(zip(_members(flat, n), repeat(weights[chi])))
    return GroupAlgebraElement._nonzero(n, terms)


def sum_young_symmetrizers(lam: Part) -> GroupAlgebraElement:
    """Sum of the Young symmetrizers over all fillings of lam."""
    lam = tuple(lam)
    total = zero_element(sum(lam))
    for rows in enumerate_fillings(lam):
        total = total + young_symmetrizer(rows)
    return total
