"""Irreducible characters of the symmetric group.

Values come from the Murnaghan-Nakayama border-strip recursion, memoized
per (shape, cycle type).  The tests check the table against a
structurally unrelated construction, the Gram-Schmidt of the permutation
characters of Young subgroups.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .combinatorics import Part, enumerate_partitions


def _border_strip_removals(lam: Part, length: int) -> list[tuple[Part, int]]:
    """All ways to remove a border strip of the given length from lam.

    Works on first-column hook lengths (beta numbers): removing a strip
    subtracts `length` from one beta number, provided the result is a
    fresh nonnegative value; the sign is (-1)^(rows spanned - 1), i.e.
    (-1)^(number of beta numbers jumped over).
    """
    k = len(lam)
    beta = [lam[i] + (k - 1 - i) for i in range(k)]
    beta_set = set(beta)
    removals = []
    for i in range(k):
        b = beta[i] - length
        if b < 0 or b in beta_set:
            continue
        new_beta = sorted([*beta[:i], b, *beta[i + 1:]], reverse=True)
        mu = tuple(nb - (k - 1 - pos) for pos, nb in enumerate(new_beta))
        mu = tuple(p for p in mu if p > 0)
        height = sum(1 for other in beta if b < other < beta[i])
        removals.append((mu, -1 if height % 2 else 1))
    return removals


@functools.cache
def mn_character(lam: Part, ct: Part) -> int:
    """Value of the irreducible character of shape lam on the class ct."""
    if sum(lam) != sum(ct):
        raise ValueError(f"size mismatch: |{lam}| != |{ct}|")
    if not lam:
        return 1
    length = max(ct)
    rest = list(ct)
    rest.remove(length)
    rest_ct = tuple(rest)
    return sum(
        strip_sign * mn_character(mu, rest_ct)
        for mu, strip_sign in _border_strip_removals(lam, length)
    )


def class_size(ct: Part, n: int) -> int:
    """Size of the conjugacy class with the given cycle type in S_n."""
    centralizer = 1
    for length in set(ct):
        m = ct.count(length)
        centralizer *= length ** m * math.factorial(m)
    return math.factorial(n) // centralizer


class CharacterTable(NamedTuple):
    n: int
    partitions: tuple[Part, ...]
    classes: tuple[Part, ...]
    class_sizes: tuple[int, ...]
    values: tuple[tuple[int, ...], ...]  # values[i][j] = chi^{partitions[i]}(classes[j])


def character_table(n: int) -> CharacterTable:
    """The full character table of S_n via the border-strip recursion."""
    parts = tuple(enumerate_partitions(n))
    values = tuple(
        tuple(mn_character(lam, ct) for ct in parts) for lam in parts
    )
    sizes = tuple(class_size(ct, n) for ct in parts)
    return CharacterTable(n, parts, parts, sizes, values)
