"""Exact rational vectors and matrices.

Everything here is one Gaussian elimination over `fractions.Fraction`;
no floating point exists anywhere in the package, so every result is
bit-reproducible.  Selections of vectors are always read in increasing
index order; the equality decider relies on that single convention for
sign consistency of wedge products.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]
SpanKey = tuple[tuple[Vector, ...], Fraction]  # see span_key


@dataclass(frozen=True)
class VectorFamily:
    """An ordered family of n vectors in an ambient space of dimension dim."""

    dim: int
    vectors: tuple[Vector, ...]

    def __post_init__(self):
        vecs = tuple(tuple(Fraction(x) for x in v) for v in self.vectors)
        for v in vecs:
            if len(v) != self.dim:
                raise ValueError(f"vector of length {len(v)} in dimension {self.dim}")
        object.__setattr__(self, "vectors", vecs)

    def __len__(self) -> int:
        return len(self.vectors)

    def select(self, indices: Iterable[int]) -> list[Vector]:
        """Vectors at the given 1-based indices, in increasing index order."""
        out = []
        for i in sorted(indices):
            if not 1 <= i <= len(self.vectors):
                raise IndexError(f"index {i} out of range 1..{len(self.vectors)}")
            out.append(self.vectors[i - 1])
        return out


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
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r:.40}") from None
    raise ValueError(f"not an integer or a p/q string: {value!r:.40}")


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _echelon(
    rows: Sequence[Sequence[Fraction]],
) -> tuple[list[list[Fraction]], list[int], Fraction]:
    """Reduced row-echelon form by rational Gauss-Jordan elimination.

    Returns the eliminated rows, the pivot column of each of the first
    len(pivots) rows, and the minor of the given rows on the pivot
    columns when every row has a pivot (the swap sign times the pivots
    before they are scaled to 1).  Stops as soon as every row has a pivot.
    Entries must already be Fractions; the rows are copied, not converted.
    """
    m = [list(row) for row in rows]
    pivots: list[int] = []
    minor = Fraction(1)
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    for c in range(n_cols):
        r = len(pivots)
        if r == n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            minor = -minor
        row, scale = m[r], m[r][c]
        minor *= scale
        for j in range(c, n_cols):
            row[j] /= scale
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                for j in range(c, n_cols):
                    m[i][j] -= factor * row[j]
        pivots.append(c)
    return m, pivots, minor


def _fractions(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank by rational Gaussian elimination; entries may be ints."""
    return len(_echelon(_fractions(rows))[1])


def determinant(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square matrix; entries may be ints."""
    size = len(rows)
    if any(len(row) != size for row in rows):
        raise ValueError("determinant of a non-square matrix")
    _, pivots, minor = _echelon(_fractions(rows))
    return minor if len(pivots) == size else Fraction(0)


def is_independent(family: VectorFamily, indices: Iterable[int]) -> bool:
    """Whether the selected vectors are linearly independent."""
    return span_key(family, indices) is not None


def span_key(family: VectorFamily, indices: Iterable[int]) -> Optional[SpanKey]:
    """(basis, d) for independent selected vectors; None for dependent ones.

    basis is the reduced row-echelon basis of their span, so it names the
    span alone; d is their minor on its pivot columns, so two selections
    with one basis have wedge(a) = (d_a / d_b) * wedge(b).
    """
    selected = family.select(indices)
    m, pivots, minor = _echelon(selected)
    if len(pivots) < len(selected):
        return None
    return tuple(map(tuple, m)), minor


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
