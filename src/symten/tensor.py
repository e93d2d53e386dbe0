"""Sparse rational tensors and the right place-permutation action.

This is the brute-force side of every cross-check: decomposable tensors,
the symmetric-group action permuting tensor slots, and application of
group-algebra elements.  Entries map n-tuples of 1-based basis indices
to nonzero rationals; equality of tensors is equality of entry maps.
"""
from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, groupby, islice, repeat
from operator import itemgetter, mul
from typing import Iterable, Sequence

from .combinatorics import DEFAULT_MAX_N, Part, Perm, check_limit, enumerate_partitions
from .group_algebra import GroupAlgebraElement, _class_table, _class_weights, _members
from .linalg import VectorFamily, _scaled, format_rational

Index = tuple[int, ...]
_Run = tuple[Sequence[int], int, dict[Index, int]]


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


def _permuted_sums(x: SparseTensor, runs: Iterable[_Run]) -> int:
    """For each run (flat, w, sums), add w times x acted on by each sigma
    of the run into sums, on integers; returns their denominator.

    flat holds the run's permutations as one-line images, n bytes each
    (S_0's one permutation has none; past degree 255, n ints each).
    `linalg._scaled` puts x's entries over one denominator d, so each sums
    holds numerators over d, and w times an entry is one `int` product
    per run.  Each run takes one of two paths:

    - counted, when 2 <= n <= 255, every index of x is below 256 and the
      run has at least three permutations per entry of x: the byte table
      of an entry's word a sends image j to letter a_j, so one
      `translate` gives the entry's image under every sigma of the
      run, and a `Counter` of those n-byte words tallies each distinct
      image, both in C.  The images repeat (an entry's image depends only
      on sigma's coset under the stabilizer of its word), and the Python
      work is one addition per distinct image of each entry: w c times
      its count.
    - walked, otherwise (small n, dense x, short run, an index past a
      byte): one `itemgetter` per sigma moves every entry, which is
      cheaper there.
    """
    coeffs, d_x = _scaled(x.entries.values())
    n = x.order
    # a leading pad lets sigma's one-based images pick the slots directly
    padded = [(0, *index) for index in x.entries]
    countable = 1 < n < 256 and max(map(max, x.entries), default=0) < 256
    unpack = struct.Struct(f"{n}s").iter_unpack
    # itemgetter returns a bare item for one position, and S_0 and S_1
    # hold only the identity, which drops the pad
    unpad = itemgetter(slice(1, None))
    for flat, w, sums in runs:
        terms = [w * c for c in coeffs]
        get = sums.get
        if countable and len(flat) >= 3 * n * len(padded):
            for entry, t in zip(padded, terms):
                table = bytes(entry).ljust(256, b"\0")
                counts = Counter(unpack(flat.translate(table)))
                # each key is a 1-tuple of one n-byte image word
                for word, k in zip(map(tuple, chain.from_iterable(counts)), counts.values()):
                    sums[word] = get(word, 0) + t * k
            continue
        for sigma in _members(flat, n):
            move = itemgetter(*sigma) if n > 1 else unpad
            for word, t in zip(map(move, padded), terms):
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
    of classes with one character value.  Each run's permutations are
    packed into one-line image bytes as the kernel reaches it, so a long
    run is counted in C, per distinct image of each entry (see
    `_permuted_sums`), and only one run's bytes exist at a time.
    """
    if g.degree != x.order:
        raise ValueError(f"degree mismatch: {g.degree} != order {x.order}")
    runs = [(w, len(list(run))) for w, run in groupby(g.terms.values())]
    scaled, d_g = _scaled([w for w, _ in runs])
    perms = iter(g.terms)
    # images past a byte's range stay ints, on the per-sigma path
    pack = bytearray if g.degree < 256 else tuple
    flats = (pack(chain.from_iterable(islice(perms, k))) for _, k in runs)
    sums: dict[Index, int] = {}
    d = d_g * _permuted_sums(x, zip(flats, scaled, repeat(sums)))
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
    of `_class_table(n)`, as its bytes, is one run of weight 1 into its own
    target: the sweep collects every C_k x as integer sums over x's
    denominator (a class of at least three permutations per entry counted
    per distinct image, see `_permuted_sums`), and each component adds
    them up with the integer character values.
    """
    n = x.order
    check_limit(n, max_n)
    shapes = enumerate_partitions(n)
    class_sums: list[dict[Index, int]] = [{} for _ in shapes]
    d_x = _permuted_sums(x, zip(_class_table(n), repeat(1), class_sums))
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
