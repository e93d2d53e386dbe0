"""Formal rational combinations of permutations, and the central
isotypic projector of each shape.

An element is stored as runs, and only as runs: each run is a string of
permutations that share one nonzero weight, each permutation its n
one-line images followed by a 0 byte, n + 1 bytes in all (S_0's one
permutation is the 0 byte alone).  No image is 0, so the separator
splits a run, or any byte-for-byte translation of it, into n-byte words.
`tensor.apply_element` reads only the runs, one scaled weight per run.
The projector's weights are character values, class by class
(`_class_weights`), so its runs are the classes of `_class_table` as
they are stored, one run per character value; the tests check them
against the Young symmetrizers, which need no characters.  The
permutation -> coefficient map `terms` is derived from the runs on first
read.
"""
from __future__ import annotations

import functools
import itertools
import math
import struct
from fractions import Fraction
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

# a run's permutations as one-line images, each ended by a 0 byte, and
# their one nonzero weight
Run = tuple[bytes, Fraction]

#: The most bytes `_class_table` may hold: S_n takes n!*(n + 1), which
#: is 39,916,800 at n = 10 and 479,001,600 at n = 11.
TABLE_BYTES = 1 << 26
# the largest degree whose class table fits in TABLE_BYTES
_TABLE_DEGREE = next(
    n for n in itertools.count() if math.factorial(n + 1) * (n + 2) > TABLE_BYTES
)


class GroupAlgebraElement:
    """A rational combination of the permutations of 1..degree, as runs."""

    def __init__(self, degree: int, runs: tuple[Run, ...]):
        self.degree = degree
        self.runs = runs

    @functools.cached_property
    def terms(self) -> dict[Perm, Fraction]:
        """Permutation -> coefficient, in run order."""
        n = self.degree
        return {p: w for flat, w in self.runs for p in _members(flat, n)}


def _check_table_degree(n: int) -> None:
    """Raise SizeLimitError for a degree whose class table would pass
    TABLE_BYTES (n > 10), whatever the command's size limit: the
    library's one guard, on the work and the memory, since S_11 by class
    takes 479 MB.  `_class_table` checks it before any listing, and
    `tensor.project` before it decides that a projection is 0."""
    if n > _TABLE_DEGREE:
        raise SizeLimitError(
            f"degree {n} is past the class table's limit of {TABLE_BYTES} bytes: "
            f"S_{n} by class takes {n}!*{n + 1} bytes"
        )


@functools.cache
def _class_table(n: int) -> tuple[tuple[Part, ...], tuple[bytes, ...]]:
    """(shapes, classes): the partitions of n in enumerate_partitions
    order, and S_n by class in that order, each class's permutations in
    enumerate_permutations order, flat, n images and a 0 byte each.  A
    table past TABLE_BYTES raises SizeLimitError at once, before any
    listing (`_check_table_degree`).
    """
    _check_table_degree(n)
    shapes = tuple(enumerate_partitions(n))
    table = {ct: bytearray() for ct in shapes}
    for p in enumerate_permutations(n):
        table[cycle_type(p)] += bytes((*p, 0))
    return shapes, tuple(map(bytes, table.values()))


def _members(flat: bytes, n: int) -> Iterator[Perm]:
    """The permutations of one run, or of one class of `_class_table(n)`,
    n images and a 0 byte each."""
    return struct.iter_unpack(f"{n}Bx", flat)


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
    character 0 left out: one run per nonzero character value, in the
    order the values first occur, holding that value's classes in table
    order, each run with one `Fraction`.  No permutation is unpacked.
    """
    lam = tuple(lam)
    n = sum(lam)
    shapes, classes = _class_table(n)
    scale, chis = _class_weights(lam, shapes)
    by_chi: dict[int, list[bytes]] = {}
    for chi, flat in zip(chis, classes):
        if chi:
            by_chi.setdefault(chi, []).append(flat)
    runs = tuple((b"".join(flats), scale * chi) for chi, flats in by_chi.items())
    return GroupAlgebraElement(n, runs)
