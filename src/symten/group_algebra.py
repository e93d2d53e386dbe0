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
def _class_indices(n: int) -> bytes:
    """Each permutation's position of its cycle type in enumerate_partitions(n).

    One byte per permutation, in enumerate_permutations order (n! bytes),
    built once per degree.  A byte holds the 231 classes of n = 16 but not
    the 297 of n = 17, so above 16 this raises SizeLimitError at once.
    """
    classes = enumerate_partitions(n)
    if len(classes) > 256:
        raise SizeLimitError(
            f"degree {n} has {len(classes)} conjugacy classes, more than the 256 "
            "of the class table (degree 16 at most)"
        )
    position = {ct: i for i, ct in enumerate(classes)}
    return bytes(position[cycle_type(p)] for p in enumerate_permutations(n, n))


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

    Coefficient of sigma is the `_class_weights` weight of sigma's class;
    the weight is computed once per cycle type and shared by the class,
    and classes where the character vanishes are left out.  Each
    permutation's class is read from a table of n! bytes built by the
    first projector of each degree in a process, so that first build
    costs what computing every cycle type costs and later ones skip it.
    """
    lam = tuple(lam)
    n = sum(lam)
    check_limit(n, max_n)
    scale, chis = _class_weights(lam, enumerate_partitions(n))
    weights = [scale * chi if chi else None for chi in chis]
    terms = {
        p: weight
        for p, k in zip(enumerate_permutations(n, max_n), _class_indices(n))
        if (weight := weights[k]) is not None
    }
    return GroupAlgebraElement._nonzero(n, terms)


def sum_young_symmetrizers(lam: Part) -> GroupAlgebraElement:
    """Sum of the Young symmetrizers over all fillings of lam."""
    lam = tuple(lam)
    total = zero_element(sum(lam))
    for rows in enumerate_fillings(lam):
        total = total + young_symmetrizer(rows)
    return total
