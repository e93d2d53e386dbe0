"""Formal rational combinations of permutations, and the central
isotypic projector of each shape.

Elements are sparse maps from permutation to coefficient; zero
coefficients are never stored, so equality is map equality.
`tensor.apply_element` applies an element to a tensor.  The projector's
coefficients are character values, class by class (`_class_weights`,
`_class_table`); the tests check them against the Young symmetrizers,
which need no characters.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Iterator

from .combinatorics import (
    Part,
    Perm,
    SizeLimitError,
    cycle_type,
    enumerate_partitions,
    enumerate_permutations,
)
from .characters import mn_character


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


@functools.cache
def _class_table(n: int) -> tuple[bytes, ...]:
    """S_n by class in enumerate_partitions(n) order: each class's permutations
    in enumerate_permutations order, flat, n bytes each.  Degrees above 16
    raise SizeLimitError at once, whatever the command's size limit: the
    library's one guard, on the work, since S_17 alone has 17! (about
    3.6e14) permutations.
    """
    if n > 16:
        raise SizeLimitError(
            f"degree {n} is past the class table's limit of 16: "
            f"S_{n} has {math.factorial(n)} permutations"
        )
    classes = enumerate_partitions(n)
    table = {ct: bytearray() for ct in classes}
    for p in enumerate_permutations(n):
        table[cycle_type(p)] += bytes(p)
    return tuple(map(bytes, table.values()))


def _members(flat: bytes, n: int) -> Iterator[Perm]:
    """The permutations of one class of `_class_table(n)`; S_0's has no bytes."""
    return zip(*[iter(flat)] * n) if n else iter([()])


def _class_weights(lam: Part, classes: list[Part]) -> tuple[Fraction, list[int]]:
    """(scale, chis): the isotypic projector of lam is the sum over k of
    scale * chis[k] times the sum of the class of cycle type classes[k].

    classes is enumerate_partitions(n), chis[k] the character value on
    classes[k] and scale is dim/n!, the dimension read off the identity's
    class (1^n), which enumerate_partitions lists last.
    """
    chis = [mn_character(lam, ct) for ct in classes]
    return Fraction(chis[-1], math.factorial(sum(lam))), chis


def isotypic_projector(lam: Part) -> GroupAlgebraElement:
    """The central idempotent projecting onto the isotypic component of lam.

    Coefficient of sigma is the `_class_weights` weight of sigma's class,
    classes of character 0 left out.  Terms go in class by class from
    `_class_table(n)`, one shared `Fraction` per character value, so the
    runs `apply_element` scales once each are found mostly by identity.
    """
    lam = tuple(lam)
    n = sum(lam)
    table = _class_table(n)  # first: its backstop comes before any listing
    scale, chis = _class_weights(lam, enumerate_partitions(n))
    weights = {chi: scale * chi for chi in set(chis) if chi}
    terms: dict[Perm, Fraction] = {}
    for chi, flat in zip(chis, table):
        if chi:
            terms.update(zip(_members(flat, n), repeat(weights[chi])))
    return GroupAlgebraElement._nonzero(n, terms)
