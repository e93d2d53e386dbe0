"""Sparse rational tensors and the right place-permutation action.

This is the brute-force side of every cross-check: decomposable tensors,
the symmetric-group action permuting tensor slots, and application of
group-algebra elements.  Entries map n-tuples of 1-based basis indices
to nonzero rationals; equality of tensors is equality of entry maps.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

from .combinatorics import Perm
from .group_algebra import GroupAlgebraElement
from .linalg import VectorFamily, format_rational, parse_rational

Index = tuple[int, ...]


def _canonical(entries: dict[Index, Fraction]) -> dict[Index, Fraction]:
    return {i: c for i, c in entries.items() if c != 0}


@dataclass(frozen=True)
class SparseTensor:
    dim: int
    order: int
    entries: dict[Index, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "entries", _canonical(self.entries))


def zero_tensor(dim: int, order: int) -> SparseTensor:
    return SparseTensor(dim, order, {})


def decomposable(family: VectorFamily) -> SparseTensor:
    """The tensor product of the family's vectors, in order."""
    supports = [
        [(i + 1, x) for i, x in enumerate(v) if x != 0] for v in family.vectors
    ]
    entries: dict[Index, Fraction] = {}
    for combo in itertools.product(*supports):
        index = tuple(i for i, _ in combo)
        coeff = Fraction(1)
        for _, x in combo:
            coeff *= x
        entries[index] = coeff
    return SparseTensor(family.dim, len(family.vectors), entries)


def act(x: SparseTensor, sigma: Perm) -> SparseTensor:
    """Right place-permutation action: slot i of the result is slot sigma(i)."""
    if len(sigma) != x.order:
        raise ValueError(f"degree mismatch: {len(sigma)} != order {x.order}")
    entries = {
        tuple(index[s - 1] for s in sigma): coeff
        for index, coeff in x.entries.items()
    }
    return SparseTensor(x.dim, x.order, entries)


def apply_element(x: SparseTensor, g: GroupAlgebraElement) -> SparseTensor:
    """Apply a group-algebra element: the weighted sum of permuted copies.

    Exact, on integers: the weights are scaled by the lcm of their
    denominators and the entries by the lcm of theirs, so every term is an
    `int` multiply-add, and each nonzero sum is divided by the product of
    the two lcms once, at the end.  The result equals the `Fraction` sum.
    """
    if g.degree != x.order:
        raise ValueError(f"degree mismatch: {g.degree} != order {x.order}")
    d_g = math.lcm(*{w.denominator for w in g.terms.values()})
    d_x = math.lcm(*{c.denominator for c in x.entries.values()})
    # a leading pad lets sigma's one-based images pick the slots directly
    padded = [(0, *index) for index in x.entries]
    coeffs = [c.numerator * (d_x // c.denominator) for c in x.entries.values()]
    # itemgetter returns a bare item for one position, and S_0 and S_1
    # hold only the identity, which drops the pad
    unpad = itemgetter(slice(1, None))
    sums: dict[Index, int] = {}
    get = sums.get
    for sigma, weight in g.terms.items():
        w = weight.numerator * (d_g // weight.denominator)
        move = itemgetter(*sigma) if x.order > 1 else unpad
        for moved, c in zip(map(move, padded), coeffs):
            sums[moved] = get(moved, 0) + w * c
    d = d_g * d_x
    return SparseTensor(
        x.dim, x.order, {i: Fraction(v, d) for i, v in sums.items() if v}
    )


def tensor_add(x: SparseTensor, y: SparseTensor) -> SparseTensor:
    if (x.dim, x.order) != (y.dim, y.order):
        raise ValueError("shape mismatch")
    entries = dict(x.entries)
    for index, coeff in y.entries.items():
        entries[index] = entries.get(index, Fraction(0)) + coeff
    return SparseTensor(x.dim, x.order, entries)


def tensor_scale(x: SparseTensor, scalar) -> SparseTensor:
    scalar = Fraction(scalar)
    return SparseTensor(x.dim, x.order, {i: scalar * c for i, c in x.entries.items()})


def is_zero(x: SparseTensor) -> bool:
    return not x.entries


def tensor_equal(x: SparseTensor, y: SparseTensor) -> bool:
    if (x.dim, x.order) != (y.dim, y.order):
        raise ValueError(f"shape mismatch: {(x.dim, x.order)} != {(y.dim, y.order)}")
    return x.entries == y.entries


def to_json_obj(x: SparseTensor) -> dict:
    """JSON form with entries sorted lexicographically by index."""
    return {
        "dim": x.dim,
        "order": x.order,
        "entries": [
            {"index": list(index), "coeff": format_rational(coeff)}
            for index, coeff in sorted(x.entries.items())
        ],
    }


def from_json_obj(obj: dict) -> SparseTensor:
    entries = {
        tuple(e["index"]): parse_rational(e["coeff"]) for e in obj["entries"]
    }
    return SparseTensor(obj["dim"], obj["order"], entries)
