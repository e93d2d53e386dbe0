"""Sparse rational tensors and the right place-permutation action.

Decomposable tensors; `apply_element`, the one kernel, which applies a
group-algebra element run by run; the slot action `act`, `apply_element`
of one permutation (its images fit a byte, as in every run), so
`selfcheck`'s action law checks the kernel; and `project`, the one
projection path, which `symmetrize` runs and `selfcheck` checks against
the Gram forms: Young's rule's pruning, then the isotypic projector.
Entries map n-tuples of 1-based basis indices to nonzero rationals;
equality of tensors is equality of entry maps.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from operator import ge, itemgetter

from .combinatorics import Part, Perm
from .group_algebra import (
    GroupAlgebraElement,
    _check_table_degree,
    _members,
    isotypic_projector,
)
from .linalg import VectorFamily, _scaled, format_rational

Index = tuple[int, ...]

# the permutations of a counted run whose image words are alive at once
_SLICE = 4096


class SparseTensor:
    """A tensor of the given order over Q^dim, as its nonzero entries;
    zeros given to the constructor are left out.  Tensors are equal when
    their dims, orders and entries are."""

    __slots__ = ("dim", "order", "entries")

    def __init__(self, dim: int, order: int, entries: dict[Index, Fraction] = {}):
        self.dim = dim
        self.order = order
        self.entries = {i: c for i, c in entries.items() if c}

    def __eq__(self, other) -> bool:
        if type(other) is not SparseTensor:
            return NotImplemented
        return (self.dim, self.order, self.entries) == (other.dim, other.order, other.entries)

    def __repr__(self) -> str:
        return f"SparseTensor(dim={self.dim!r}, order={self.order!r}, entries={self.entries!r})"

    @classmethod
    def _nonzero(
        cls, dim: int, order: int, entries: dict[Index, Fraction]
    ) -> "SparseTensor":
        """The tensor of entries that are all nonzero already: not re-filtered."""
        x = object.__new__(cls)
        x.dim, x.order, x.entries = dim, order, entries
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
    return apply_element(x, GroupAlgebraElement(len(sigma), ((bytes((*sigma, 0)), Fraction(1)),)))


def apply_element(x: SparseTensor, g: GroupAlgebraElement) -> SparseTensor:
    """Apply a group-algebra element: the sum over g's runs (flat, w) of w
    times x acted on by each sigma of the run.

    The runs are read as stored, n one-line images and a 0 byte per sigma
    (a projector's are its classes, one run per character value).  Exact,
    on integers: `linalg._scaled` puts the weights and the entries over
    one denominator each, so w times an entry is one `int` product per
    run, and each distinct nonzero sum becomes one `Fraction` at the end,
    shared by every entry with that sum; the result equals the `Fraction`
    sum.  Each run takes one of two paths:

    - counted, when n >= 2, every index of x is below 256 and the
      run has at least three permutations per entry of x: the byte table
      of an entry's word a sends image j to letter a_j and the separator
      0 to the pad 0, which no letter is, so `translate` and then `split`
      at the 0 byte give the entry's image under every sigma of the run
      as bare n-byte words, and a `Counter` tallies each distinct image,
      all in C.  A run is counted in slices of _SLICE permutations, so
      at most one slice of words is alive at a time.  The images repeat
      (an entry's image depends only on sigma's coset under the
      stabilizer of its word), and the Python work is one addition per
      distinct image of each entry: w c times its count, into a dict
      keyed by the words, each of which becomes an index tuple once, at
      the end.
    - walked, otherwise (small n, dense x, short run, an index past a
      byte): one `itemgetter` per sigma moves every entry, which is
      cheaper there.
    """
    if g.degree != x.order:
        raise ValueError(f"degree mismatch: {g.degree} != order {x.order}")
    weights, d_g = _scaled([w for _, w in g.runs])
    coeffs, d_x = _scaled(x.entries.values())
    n = x.order
    # a leading pad lets sigma's one-based images pick the slots directly
    padded = [(0, *index) for index in x.entries]
    countable = n > 1 and max(map(max, x.entries), default=0) < 256
    step = _SLICE * (n + 1)
    # itemgetter returns a bare item for one position, and S_0 and S_1
    # hold only the identity, which drops the pad
    unpad = itemgetter(slice(1, None))
    sums: dict[Index, int] = {}
    words: dict[bytes, int] = {}  # the counted runs' sums, by image word
    get, get_word = sums.get, words.get
    for (flat, _), w in zip(g.runs, weights):
        terms = [w * c for c in coeffs]
        if countable and len(flat) >= 3 * (n + 1) * len(padded):
            for entry, t in zip(padded, terms):
                table = bytes(entry).ljust(256, b"\0")
                counts = Counter()
                for start in range(0, len(flat), step):
                    counts.update(flat[start:start + step].translate(table).split(b"\0"))
                del counts[b""]  # after each slice's last separator
                for word, k in counts.items():
                    words[word] = get_word(word, 0) + t * k
            continue
        for sigma in _members(flat, n):
            move = itemgetter(*sigma) if n > 1 else unpad
            for word, t in zip(map(move, padded), terms):
                sums[word] = get(word, 0) + t
    for index, v in zip(map(tuple, words), words.values()):
        sums[index] = get(index, 0) + v
    d = d_g * d_x
    shared = {v: Fraction(v, d) for v in set(sums.values()) if v}
    return SparseTensor._nonzero(x.dim, x.order, {i: shared[v] for i, v in sums.items() if v})


def project(x: SparseTensor, lam: Part) -> SparseTensor:
    """P_lam x, the component of x in the isotypic component of lam: equal
    to `apply_element(x, isotypic_projector(lam))`, with the entries that
    P_lam sends to 0 left out first.

    The place permutations keep each weight space, the span of the
    indices of one multiset of letters.  The weight space of the letter
    counts mu, largest first, is the permutation module M^mu, which holds
    the isotypic component of lam iff lam dominates mu (Young's rule:
    James, LNM 682, 1978; Fulton, Young Tableaux, 1997), so P_lam is 0 on
    every entry of another weight.  Dominance is decided once per
    distinct sorted index.  When no entry is kept, as for every x when
    lam has more rows than x.dim, the result is the zero tensor and no
    projector is built; the class table's degree bound
    (`_check_table_degree`) is checked first, so a degree past it is
    refused either way.
    """
    lam = tuple(lam)
    n = sum(lam)
    if n != x.order:
        raise ValueError(f"degree mismatch: {n} != order {x.order}")
    _check_table_degree(n)
    bounds = list(accumulate(lam))
    dominated: dict[Index, bool] = {}  # by sorted index
    kept = {}
    for index, coeff in x.entries.items():
        word = tuple(sorted(index))
        keep = dominated.get(word)
        if keep is None:
            mu = sorted(map(word.count, set(word)), reverse=True)
            # map stops at the shorter, which decides: a longer lam sums
            # below n where mu's sums reach n; past a longer mu, lam's are n
            keep = dominated[word] = all(map(ge, bounds, accumulate(mu)))
        if keep:
            kept[index] = coeff
    if not kept:
        return SparseTensor._nonzero(x.dim, x.order, {})
    return apply_element(SparseTensor._nonzero(x.dim, x.order, kept), isotypic_projector(lam))


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
