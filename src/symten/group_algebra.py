"""Formal rational combinations of permutations, and the central
isotypic projector of each shape.

An element is stored as runs, and only as runs: each run is a string of
permutations, as one-line images packed n bytes each, that share one
nonzero weight.  `tensor.apply_element` reads only the runs, one scaled
weight per run.  The projector's weights are character values, class by
class (`_class_weights`), so its runs are the classes of `_class_table`
as they are stored; the tests check them against the Young
symmetrizers, which need no characters.  The permutation -> coefficient
map `terms` is derived from the runs on first read.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
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
Run = tuple[bytes, Fraction]


@dataclass(frozen=True, eq=False)
class GroupAlgebraElement:
    """A rational combination of the permutations of 1..degree, as runs."""

    degree: int
    runs: tuple[Run, ...]

    @functools.cached_property
    def terms(self) -> dict[Perm, Fraction]:
        """Permutation -> coefficient, in run order."""
        n = self.degree
        return {p: w for flat, w in self.runs for p in _members(flat, n)}


@functools.cache
def _class_table(n: int) -> tuple[tuple[Part, ...], tuple[bytes, ...]]:
    """(shapes, classes): the partitions of n in enumerate_partitions
    order, and S_n by class in that order, each class's permutations in
    enumerate_permutations order, flat, n bytes each.  Degrees above 16
    raise SizeLimitError at once, before any listing, whatever the
    command's size limit: the library's one guard, on the work, since S_17
    alone has 17! (about 3.6e14) permutations.
    """
    if n > 16:
        raise SizeLimitError(
            f"degree {n} is past the class table's limit of 16: "
            f"S_{n} has {math.factorial(n)} permutations"
        )
    shapes = tuple(enumerate_partitions(n))
    table = {ct: bytearray() for ct in shapes}
    for p in enumerate_permutations(n):
        table[cycle_type(p)] += bytes(p)
    return shapes, tuple(map(bytes, table.values()))


def _members(flat: bytes, n: int) -> Iterator[Perm]:
    """The permutations of one run, or of one class of `_class_table(n)`,
    n images each; S_0's one permutation has none."""
    return zip(*[iter(flat)] * n) if n else iter([()])


def _class_weights(lam: Part, shapes: tuple[Part, ...]) -> tuple[Fraction, list[int]]:
    """(scale, chis): the isotypic projector of lam is the sum over k of
    scale * chis[k] times the sum of the class of cycle type shapes[k].

    shapes is `_class_table(n)`'s, chis[k] the character value on
    shapes[k] and scale is dim/n!, the dimension read off the identity's
    class (1^n), which enumerate_partitions lists last.
    """
    chis = [mn_character(lam, ct) for ct in shapes]
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
    shapes, classes = _class_table(n)
    scale, chis = _class_weights(lam, shapes)
    weights = {chi: scale * chi for chi in set(chis) if chi}
    nonzero = [(chi, flat) for chi, flat in zip(chis, classes) if chi]
    runs = tuple(
        (b"".join(flat for _, flat in run), weights[chi])
        for chi, run in groupby(nonzero, itemgetter(0))
    )
    return GroupAlgebraElement(n, runs)
