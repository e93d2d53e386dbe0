"""Formal rational combinations of permutations, and the central
isotypic projector of each shape.

An element is stored as runs: each run is a string of permutations, as
one-line images packed n bytes each (n ints each past degree 255), that
share one nonzero weight.  `tensor.apply_element` reads only the runs,
one scaled weight per run.  The projector's weights are character
values, class by class (`_class_weights`), so its runs are the classes
of `_class_table` as they are stored; the tests check them against the
Young symmetrizers, which need no characters.  The permutation ->
coefficient map `terms`, and equality, which compares it, are derived
from the runs on first read.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, groupby
from operator import itemgetter
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

# a run's permutations as one-line images, and their one nonzero weight
Run = tuple[bytes | tuple[int, ...], Fraction]


@dataclass(frozen=True, init=False, eq=False)
class GroupAlgebraElement:
    """A rational combination of the permutations of 1..degree, as runs."""

    degree: int
    runs: tuple[Run, ...]

    def __init__(self, degree: int, terms: dict[Perm, Fraction] | None = None):
        """The element of the given terms: zeros are dropped, and adjacent
        terms of equal weight share one run."""
        pack = bytes if degree < 256 else tuple
        nonzero = [(p, c) for p, c in (terms or {}).items() if c]
        runs = tuple(
            (pack(chain.from_iterable(p for p, _ in run)), w)
            for w, run in groupby(nonzero, itemgetter(1))
        )
        self.__dict__.update(degree=degree, runs=runs)

    @classmethod
    def _of_runs(cls, degree: int, runs: tuple[Run, ...]) -> "GroupAlgebraElement":
        """The element of runs that are packed and nonzero already."""
        x = object.__new__(cls)
        x.__dict__.update(degree=degree, runs=runs)
        return x

    @functools.cached_property
    def terms(self) -> dict[Perm, Fraction]:
        """Permutation -> coefficient, in run order."""
        n = self.degree
        return {p: w for flat, w in self.runs for p in _members(flat, n)}

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return (self.degree, self.terms) == (other.degree, other.terms)


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


def _members(flat: bytes | tuple[int, ...], n: int) -> Iterator[Perm]:
    """The permutations of one run, or of one class of `_class_table(n)`,
    n images each; S_0's one permutation has none."""
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

    Coefficient of sigma is the `_class_weights` weight of sigma's class.
    The runs are the classes of `_class_table(n)` as stored, those of
    character 0 left out, one run per string of adjacent classes with
    one character value, and one shared `Fraction` per character value:
    no permutation is unpacked.
    """
    lam = tuple(lam)
    n = sum(lam)
    table = _class_table(n)  # first: its backstop comes before any listing
    scale, chis = _class_weights(lam, enumerate_partitions(n))
    weights = {chi: scale * chi for chi in set(chis) if chi}
    classes = [(chi, flat) for chi, flat in zip(chis, table) if chi]
    runs = tuple(
        (b"".join(flat for _, flat in run), weights[chi])
        for chi, run in groupby(classes, itemgetter(0))
    )
    return GroupAlgebraElement._of_runs(n, runs)
