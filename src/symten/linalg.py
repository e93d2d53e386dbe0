"""Exact rational vectors and matrices.

Everything here is one fraction-free elimination, `_echelon`, on
integers: each rational row is scaled by the lcm of its denominators
first, and only a minor that `span_key` or `determinant` returns is a
`fractions.Fraction`.  A family memoizes each selection's `span_key`,
which `is_independent`, `span_equal` and `transition_scalar` read.
Entries are ints or Fractions and no floating point exists anywhere in
the package, so every result is exact and bit-reproducible.  Selections
of vectors are always read in increasing index order; the equality
decider relies on that single convention for sign consistency of wedge
products.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Collection, Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]
SpanKey = tuple[tuple[tuple[int, ...], ...], Fraction]  # see span_key


class VectorFamily:
    """An ordered family of n vectors in an ambient space of dimension dim.

    Entries are non-bool ints or Fractions, stored as given; anything
    else raises TypeError.  Families are equal when their dims and
    vectors are; the span keys a family has memoized play no part.
    """

    __slots__ = ("dim", "vectors", "_scaled_rows", "_span_keys")

    def __init__(self, dim: int, vectors: Iterable[Sequence]):
        vecs = _exact(tuple(map(tuple, vectors)))
        for v in vecs:
            if len(v) != dim:
                raise ValueError(f"vector of length {len(v)} in dimension {dim}")
        self.dim = dim
        self.vectors: tuple[Vector, ...] = vecs
        # each vector as `_scaled` gives it; the span-key memo holds these,
        # not the family, so that the two form no reference cycle
        self._scaled_rows = tuple(map(_scaled, vecs))
        self._span_keys = _SpanKeys(self._scaled_rows, dim)

    def __eq__(self, other) -> bool:
        if type(other) is not VectorFamily:
            return NotImplemented
        return (self.dim, self.vectors) == (other.dim, other.vectors)

    def __hash__(self) -> int:
        return hash((self.dim, self.vectors))

    def __repr__(self) -> str:
        return f"VectorFamily(dim={self.dim!r}, vectors={self.vectors!r})"

    def __len__(self) -> int:
        return len(self.vectors)


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(value) -> Fraction:
    """The rational a non-bool int or a "p" / "p/q" string stands for.

    Strings have the shape `format_rational` emits, an optional minus and
    digits with no spaces; floats, bools, exponents, decimal points and
    zero denominators raise ValueError.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        p, _, q = value.partition("/")
        try:
            return Fraction(int(p), int(q or 1))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r:.40}") from None
    raise ValueError(f"not an integer or a p/q string: {value!r:.40}")


def format_rational(q: Fraction) -> str:
    if type(q) is not Fraction:
        q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _scaled(values: Collection[Fraction]) -> tuple[tuple[int, ...], int]:
    """The values times the lcm of their denominators, and that lcm; values
    (a row or a dict view) is read twice, and ints are over 1."""
    lcm = math.lcm(*{x.denominator for x in values})
    return tuple([x.numerator * (lcm // x.denominator) for x in values]), lcm


def _echelon(
    rows: Sequence[tuple[Sequence[int], int]],
) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination on integer-scaled rows.

    rows are (integer row, scale) pairs as `_scaled` makes them, standing
    for the rational rows integer row / scale.  The integer rows are
    eliminated by Bareiss' rule (Math. Comp. 22, 1968), applied to the rows
    above each pivot as well as below:
    row <- (pivot * row - factor * pivot_row) // previous pivot, a division
    that is exact by Sylvester's identity.  Zero columns are skipped; the
    loop stops as soon as every row has a pivot.

    Returns the eliminated rows, the pivot column of each of the first
    len(pivots) rows, and the integer minor on the pivot columns (0 when
    some row has no pivot): the last pivot, signed by the row swaps.  Over
    the product of the scales, it is the minor of the rational rows; only
    `span_key` and `determinant` divide it into a `Fraction`.  The first
    len(pivots) rows are that integer pivot times the reduced row-echelon
    rows.
    """
    m = [list(row) for row, _ in rows]
    pivots: list[int] = []
    pivot, sign = 1, 1
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    for c in range(n_cols):
        r = len(pivots)
        if r == n_rows:
            break
        p = next((i for i in range(r, n_rows) if m[i][c]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        prev, piv = pivot, m[r]
        pivot = piv[c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(pivot * x - f * y) // prev for x, y in zip(row, piv)]
        pivots.append(c)
    return m, pivots, sign * pivot if len(pivots) == n_rows else 0


def _exact(rows: Sequence[Sequence]) -> Sequence[Sequence]:
    """The rows themselves, if every entry is a non-bool int or a Fraction."""
    for row in rows:
        for x in row:
            if not isinstance(x, (int, Fraction)) or isinstance(x, bool):
                raise TypeError(f"not an int or a Fraction: {x!r:.40}")
    return rows


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank; entries are non-bool ints or Fractions, else TypeError."""
    if len(set(map(len, rows))) > 1:
        raise ValueError("rank of rows of unequal length")
    return len(_echelon([_scaled(row) for row in _exact(rows)])[1])


def determinant(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square matrix; entries as for `rank`."""
    size = len(rows)
    if any(len(row) != size for row in rows):
        raise ValueError("determinant of a non-square matrix")
    scaled = [_scaled(row) for row in _exact(rows)]
    return Fraction(_echelon(scaled)[2], math.prod(scale for _, scale in scaled))


class _SpanKeys(dict):
    """Increasing 1-based column -> `span_key` of one family's integer rows
    and dim, each computed on first use; a key is truthy, None is not."""

    __slots__ = ("rows", "dim")

    def __init__(self, rows: Sequence[tuple[Sequence[int], int]], dim: int):
        self.rows, self.dim = rows, dim

    def __missing__(self, column: tuple[int, ...]) -> Optional[SpanKey]:
        for i in column:
            if not 1 <= i <= len(self.rows):
                raise IndexError(f"index {i} out of range 1..{len(self.rows)}")
        rows = [self.rows[i - 1] for i in column]
        # more vectors than dimensions are dependent, with no elimination
        m, pivots, minor = _echelon(rows) if len(rows) <= self.dim else ([], [], 0)
        if not minor:
            self[column] = None
            return None
        basis = []
        for row, c in zip(m, pivots):
            g = math.gcd(*row)
            if row[c] < 0:
                g = -g
            basis.append(tuple([x // g for x in row]))
        key = self[column] = tuple(basis), Fraction(minor, math.prod(scale for _, scale in rows))
        return key


def is_independent(family: VectorFamily, indices: Iterable[int]) -> bool:
    """Whether the selected vectors are independent: whether they have a `span_key`."""
    return span_key(family, indices) is not None


def span_key(family: VectorFamily, indices: Iterable[int]) -> Optional[SpanKey]:
    """(basis, d) for independent selected vectors; None for dependent ones.

    basis holds the reduced row-echelon basis of their span, each row
    scaled to coprime integers with a positive pivot; that renaming is one
    to one, so basis names the span alone.  d is their minor on its pivot
    columns, so two selections with one basis have
    wedge(a) = (d_a / d_b) * wedge(b).  The family memoizes each key.
    """
    return family._span_keys[tuple(sorted(indices))]


def span_equal(
    fam_a: VectorFamily,
    idx_a: Iterable[int],
    fam_b: VectorFamily,
    idx_b: Iterable[int],
) -> bool:
    """Whether two independent selections span the same subspace."""
    return transition_scalar(fam_a, idx_a, fam_b, idx_b) is not None


def transition_scalar(
    fam_a: VectorFamily,
    idx_a: Iterable[int],
    fam_b: VectorFamily,
    idx_b: Iterable[int],
) -> Optional[Fraction]:
    """The scalar c with wedge(fam_a at idx_a) = c * wedge(fam_b at idx_b).

    Returns None when the selections differ in size or span distinct
    subspaces; raises ValueError when either is dependent or the ambient
    dimensions differ.
    """
    key_a = span_key(fam_a, idx_a)
    key_b = span_key(fam_b, idx_b)
    if fam_a.dim != fam_b.dim:
        raise ValueError(f"dimension mismatch: {fam_a.dim} != {fam_b.dim}")
    if key_a is None or key_b is None:
        raise ValueError("span comparison requires independent selections")
    if key_a[0] != key_b[0]:
        return None
    return key_a[1] / key_b[1]
