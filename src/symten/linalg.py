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
) -> tuple[list[list[Fraction]], list[int], int]:
    """Row-echelon form by rational Gaussian elimination.

    Returns the eliminated rows, the pivot column of each of the first
    len(pivots) rows, and the sign of the row swaps made.  Stops as soon
    as every row has a pivot.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    swap_sign = 1
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
            swap_sign = -swap_sign
        for i in range(r + 1, n_rows):
            if m[i][c] != 0:
                factor = m[i][c] / m[r][c]
                for j in range(c, n_cols):
                    m[i][j] -= factor * m[r][j]
        pivots.append(c)
    return m, pivots, swap_sign


def _pivot_product(
    m: list[list[Fraction]], pivots: list[int], swap_sign: int
) -> Fraction:
    """The minor on the pivot columns of the rows `_echelon` was given."""
    product = Fraction(swap_sign)
    for r, c in enumerate(pivots):
        product *= m[r][c]
    return product


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank by rational Gaussian elimination."""
    return len(_echelon(rows)[1])


def determinant(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square matrix."""
    size = len(rows)
    if any(len(row) != size for row in rows):
        raise ValueError("determinant of a non-square matrix")
    m, pivots, swap_sign = _echelon(rows)
    if len(pivots) < size:
        return Fraction(0)
    return _pivot_product(m, pivots, swap_sign)


def is_independent(family: VectorFamily, indices: Iterable[int]) -> bool:
    """Whether the selected vectors are linearly independent."""
    selected = family.select(indices)
    return rank(selected) == len(selected)


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

    Both selections are read in increasing index order.  Returns None when
    they differ in size or span distinct subspaces; raises ValueError when
    either selection is dependent or the ambient dimensions differ.
    """
    sel_a = fam_a.select(idx_a)
    sel_b = fam_b.select(idx_b)
    if fam_a.dim != fam_b.dim:
        raise ValueError(f"dimension mismatch: {fam_a.dim} != {fam_b.dim}")
    k = len(sel_b)
    m, pivots, swap_sign = _echelon(sel_b)
    if len(pivots) < k:
        raise ValueError("span comparison requires independent selections")
    if len(sel_a) == k and rank(sel_b + sel_a) == k:
        # a lies in span(b), which maps one-to-one onto b's pivot coordinates,
        # so a's minor there is nonzero exactly when a is independent; and
        # wedge(a) = c * wedge(b) scales every maximal minor by c
        minor_a = determinant([[v[c] for c in pivots] for v in sel_a])
        if minor_a == 0:
            raise ValueError("span comparison requires independent selections")
        return minor_a / _pivot_product(m, pivots, swap_sign)
    if rank(sel_a) < len(sel_a):
        raise ValueError("span comparison requires independent selections")
    return None
