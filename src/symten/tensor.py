"""Sparse rational tensors and the right place-permutation action.

This is the brute-force side of every cross-check: decomposable tensors,
the symmetric-group action permuting tensor slots, and application of
group-algebra elements.  Entries map n-tuples of 1-based basis indices
to nonzero rationals; equality of tensors is equality of entry maps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, groupby, islice, repeat
from operator import itemgetter, mul
from typing import Iterable

from .combinatorics import DEFAULT_MAX_N, Part, Perm, check_limit, enumerate_partitions
from .group_algebra import GroupAlgebraElement, _class_table, _class_weights, _members
from .linalg import VectorFamily, _scaled, format_rational, parse_rational

Index = tuple[int, ...]
_Run = tuple[Iterable[Perm], int, dict[Index, int]]


@dataclass(frozen=True)
class SparseTensor:
    dim: int
    order: int
    entries: dict[Index, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "entries", {i: c for i, c in self.entries.items() if c})

    @classmethod
    def _nonzero(
        cls, dim: int, order: int, entries: dict[Index, Fraction]
    ) -> "SparseTensor":
        """The tensor of entries that are all nonzero already: not re-filtered."""
        x = object.__new__(cls)
        x.__dict__.update(dim=dim, order=order, entries=entries)
        return x


def zero_tensor(dim: int, order: int) -> SparseTensor:
    return SparseTensor(dim, order, {})


def decomposable(family: VectorFamily) -> SparseTensor:
    """The tensor product of the family's vectors, in order.

    Multiplies the family's integer-scaled rows and divides each product
    by the product of their scales once, so each entry is one `Fraction`.
    """
    terms: dict[Index, int] = {(): 1}
    for row, _ in family._scaled_rows:
        support = [(i, x) for i, x in enumerate(row, 1) if x]
        terms = {
            index + (i,): c * x for index, c in terms.items() for i, x in support
        }
    d = math.prod(scale for _, scale in family._scaled_rows)
    return SparseTensor._nonzero(
        family.dim,
        len(family.vectors),
        {index: Fraction(c, d) for index, c in terms.items()},
    )


def act(x: SparseTensor, sigma: Perm) -> SparseTensor:
    """Right place-permutation action: slot i of the result is slot sigma(i)."""
    if len(sigma) != x.order:
        raise ValueError(f"degree mismatch: {len(sigma)} != order {x.order}")
    entries = {
        tuple(index[s - 1] for s in sigma): coeff
        for index, coeff in x.entries.items()
    }
    return SparseTensor._nonzero(x.dim, x.order, entries)


_BLOCK = 2048  # permutations per gather in `_permuted_sums`


def _permuted_sums(x: SparseTensor, runs: Iterable[_Run]) -> int:
    """For each run (perms, w, sums), add w times x acted on by each sigma
    in perms into sums, on integers; returns their denominator.

    `linalg._scaled` puts x's entries over one denominator d, so each sums
    holds numerators over d, and w times an entry is one `int` product per
    run.  A run's permutations go in blocks of `_BLOCK` (a bounded
    transient): one `itemgetter` of a block's images moves an entry by the
    whole block in one C call; with fewer than three permutations per entry
    of x (small n, dense x, short run) one `itemgetter` per sigma is cheaper.
    """
    coeffs, d_x = _scaled(x.entries.values())
    n = x.order
    # a leading pad lets sigma's one-based images pick the slots directly
    padded = [(0, *index) for index in x.entries]
    # itemgetter returns a bare item for one position, and S_0 and S_1
    # hold only the identity, which drops the pad
    unpad = itemgetter(slice(1, None))
    for perms, w, sums in runs:
        terms = [w * c for c in coeffs]
        get = sums.get
        perms = iter(perms)
        while block := list(islice(perms, _BLOCK)):
            if n < 2 or len(block) < 3 * len(padded):
                for sigma in block:
                    move = itemgetter(*sigma) if n > 1 else unpad
                    for word, t in zip(map(move, padded), terms):
                        sums[word] = get(word, 0) + t
                continue
            gather = itemgetter(*chain.from_iterable(block))
            for entry, t in zip(padded, terms):
                for word in zip(*[iter(gather(entry))] * n):
                    sums[word] = get(word, 0) + t
    return d_x


def apply_element(x: SparseTensor, g: GroupAlgebraElement) -> SparseTensor:
    """Apply a group-algebra element: the weighted sum of permuted copies.

    Exact, on integers: `linalg._scaled` scales the weights and the entries
    to integers over one denominator each, so the sums are `int`
    arithmetic, and each nonzero sum is divided by the product of the two
    denominators once, at the end.  The result equals the `Fraction` sum.
    The terms go to the kernel as runs of equal adjacent weights, one
    scaled weight each: a projector has one run per class, or per string
    of classes with one character value.
    """
    if g.degree != x.order:
        raise ValueError(f"degree mismatch: {g.degree} != order {x.order}")
    runs = [(w, len(list(run))) for w, run in groupby(g.terms.values())]
    scaled, d_g = _scaled([w for w, _ in runs])
    perms = iter(g.terms)
    slices = [islice(perms, k) for _, k in runs]
    sums: dict[Index, int] = {}
    d = d_g * _permuted_sums(x, zip(slices, scaled, repeat(sums)))
    return SparseTensor._nonzero(
        x.dim, x.order, {i: Fraction(v, d) for i, v in sums.items() if v}
    )


def isotypic_components(
    x: SparseTensor, max_n: int = DEFAULT_MAX_N
) -> dict[Part, SparseTensor]:
    """x's component in the isotypic subspace of every lam |- n, by shape.

    Equals `apply_element(x, isotypic_projector(lam))` for each lam, from
    one sweep over S_n instead of one per lam: each projector is a
    combination of the class sums C_k (see `_class_weights`), so each class
    of `_class_table(n)` is one run of weight 1 into its own target: the
    sweep collects every C_k x as integer sums over x's denominator, and
    each component adds them up with the integer character values.
    """
    n = x.order
    check_limit(n, max_n)
    shapes = enumerate_partitions(n)
    class_sums: list[dict[Index, int]] = [{} for _ in shapes]
    classes = (_members(flat, n) for flat in _class_table(n))
    d_x = _permuted_sums(x, zip(classes, repeat(1), class_sums))
    # one row of class sums per index any class reaches
    indices = list(set().union(*class_sums))
    rows = [[sums.get(i, 0) for sums in class_sums] for i in indices]
    components = {}
    for lam in shapes:
        scale, chis = _class_weights(lam, shapes)
        d = scale.denominator * d_x
        components[lam] = SparseTensor._nonzero(
            x.dim,
            n,
            {
                i: Fraction(scale.numerator * v, d)
                for i, row in zip(indices, rows)
                if (v := sum(map(mul, chis, row)))
            },
        )
    return components


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
