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

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .combinatorics import (
    DEFAULT_MAX_N,
    Part,
    Perm,
    Rows,
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


def row_symmetrizer(rows: Rows, max_n: int = DEFAULT_MAX_N) -> GroupAlgebraElement:
    """Sum over the row group of the tableau, all coefficients 1."""
    n = sum(tableau_shape(rows))
    return GroupAlgebraElement(
        n, {p: Fraction(1) for p in row_group(rows, max_n)}
    )


def column_antisymmetrizer(rows: Rows, max_n: int = DEFAULT_MAX_N) -> GroupAlgebraElement:
    """Signed sum over the column group of the tableau."""
    n = sum(tableau_shape(rows))
    return GroupAlgebraElement(
        n, {p: Fraction(sign(p)) for p in col_group(rows, max_n)}
    )


def young_symmetrizer(rows: Rows, max_n: int = DEFAULT_MAX_N) -> GroupAlgebraElement:
    """The product: column antisymmetrizer times row symmetrizer."""
    return ga_multiply(
        column_antisymmetrizer(rows, max_n), row_symmetrizer(rows, max_n)
    )


def isotypic_projector(lam: Part, max_n: int = DEFAULT_MAX_N) -> GroupAlgebraElement:
    """The central idempotent projecting onto the isotypic component of lam.

    Coefficient of sigma is dim/n! times the character value on sigma's
    class; the weight is computed once per cycle type and shared by the
    class, and classes where the character vanishes are left out.
    """
    lam = tuple(lam)
    n = sum(lam)
    check_limit(n, max_n)
    scale = Fraction(hook_length_dimension(lam), math.factorial(n))
    weights = {
        ct: scale * chi
        for ct in enumerate_partitions(n)
        if (chi := mn_character(lam, ct))
    }
    terms = {
        p: weight
        for p in enumerate_permutations(n, max_n)
        if (weight := weights.get(cycle_type(p))) is not None
    }
    return GroupAlgebraElement(n, terms)


def sum_young_symmetrizers(lam: Part, max_n: int = DEFAULT_MAX_N) -> GroupAlgebraElement:
    """Sum of the Young symmetrizers over all fillings of lam."""
    lam = tuple(lam)
    total = zero_element(sum(lam))
    for rows in enumerate_fillings(lam, max_n):
        total = total + young_symmetrizer(rows, max_n)
    return total
