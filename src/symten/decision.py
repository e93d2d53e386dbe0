"""Combinatorial deciders for vanishing and equality of symmetrized tensors.

Instead of iterating all n! fillings of a shape, the deciders search
column systems (multisets of column sets): independence, spans and the
determinant product only depend on column contents.  Within-column
reading order is fixed to increasing indices on both sides, so its sign
contribution cancels.  The search builds systems (or standard tableaux)
column by column and cuts every branch at a column that cannot occur in
a system the decider would use: a dependent one for Gamas, one dependent
on both sides for equality.  Each family memoizes each column's
`span_key`, one fraction-free integer elimination, for every decider call
on it; a column of dim vectors runs only its forward half, since its span
can only be all of Q^dim.  Independence is having a key, span equality is
equality of the keys' primitive integer bases, and a greedy column
matching within equal keys decides, with the ratios of the keys' rational
minors as its scalars.
Each (v column, u column) ratio is computed once per call, and the
product of a matching is decided on integers.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .combinatorics import ColumnSystem, Part, Rows, iter_column_systems, iter_standard
from .linalg import SpanKey, VectorFamily, is_independent

INDEPENDENCE_MISMATCH = "independence_mismatch"
NO_SPAN_MATCHING = "no_span_matching"
PRODUCT_NOT_ONE = "product_not_one"


class SystemWitness(NamedTuple):
    """A column permutation certifying equality on one column system: its
    scalars multiply to 1."""

    system: ColumnSystem
    sigma: tuple[int, ...]  # 1-based: column j is matched to column sigma[j-1]
    scalars: tuple[Fraction, ...]


class SystemFailure(NamedTuple):
    system: ColumnSystem
    reason: str
    # for product_not_one: the scalars of one representative matching
    scalars: Optional[tuple[Fraction, ...]] = None
    product: Optional[Fraction] = None


class EqualityVerdict(NamedTuple):
    equal: bool
    mode: str  # both_vanish | witnessed | failed
    failures: tuple[SystemFailure, ...]
    witnesses: tuple[SystemWitness, ...]


def columns_independent(family: VectorFamily, system: ColumnSystem) -> bool:
    """Whether every column of the system indexes independent vectors."""
    n = sum(len(c) for c in system)
    if len(family) != n:
        raise ValueError(f"family size {len(family)} != system size {n}")
    return all(is_independent(family, column) for column in system)


def gamas_nonvanishing(family: VectorFamily, lam: Part) -> tuple[bool, Optional[ColumnSystem]]:
    """Whether the symmetrized tensor of the family is nonzero for shape lam.

    Nonzero exactly when some column system has all columns independent;
    returns such a system as witness.
    """
    lam = tuple(lam)
    if len(family) != sum(lam):
        raise ValueError(f"family size {len(family)} != {sum(lam)}")
    system = next(iter_column_systems(lam, family._span_keys.__getitem__), None)
    return system is not None, system


def gamas_standard(family: VectorFamily, lam: Part) -> tuple[bool, Optional[Rows]]:
    """Same decision restricted to standard tableaux; witness is a tableau."""
    lam = tuple(lam)
    if len(family) != sum(lam):
        raise ValueError(f"family size {len(family)} != {sum(lam)}")
    rows = next(iter_standard(lam, family._span_keys.__getitem__), None)
    return rows is not None, rows


def _search_matching(
    system: ColumnSystem,
    pairs: list[tuple[SpanKey, SpanKey]],
    ratios: dict[tuple, Fraction],
) -> tuple[Optional[SystemWitness], Optional[SystemFailure]]:
    """Find a span-preserving column matching with determinant product 1.

    pairs holds each column's (v key, u key), both independent.  Span
    equality is an equivalence relation, so the matchable pairs form
    one complete bipartite block per span.  Each v-column takes the first
    free u-column of its span: this gets stuck only if no matching exists,
    and it is the first matching a search in column order reaches.  Every
    matching has the product (prod of all d_v) / (prod of all d_u).

    ratios maps a (v column, u column) pair to d_v / d_u for the whole
    decider call, so each pair's ratio is divided out once and shared by
    every system that matches that pair.  The ratios' integer numerators
    and denominators are multiplied separately, and the product is 1
    exactly when the two integers are equal; the product is a `Fraction`
    of its own only in a product_not_one failure.
    """
    free: dict[tuple, list[int]] = {}
    for t, (_, (basis, _)) in enumerate(pairs):
        free.setdefault(basis, []).append(t)
    sigma, scalars = [], []
    num = den = 1
    for column, ((basis, d_v), _) in zip(system, pairs):
        targets = free.get(basis)
        if not targets:
            return None, SystemFailure(system, NO_SPAN_MATCHING)
        t = targets.pop(0)
        sigma.append(t + 1)
        pair = column, system[t]
        ratio = ratios.get(pair)
        if ratio is None:
            ratio = ratios[pair] = d_v / pairs[t][1][1]
        scalars.append(ratio)
        num *= ratio.numerator
        den *= ratio.denominator
    if num != den:
        return None, SystemFailure(
            system, PRODUCT_NOT_ONE, tuple(scalars), Fraction(num, den)
        )
    return SystemWitness(system, tuple(sigma), tuple(scalars)), None


def decide_equality(
    fv: VectorFamily, fu: VectorFamily, lam: Part, exhaustive: bool = False
) -> EqualityVerdict:
    """Decide equality of the two symmetrized decomposable tensors.

    Per column system: independence on the v side must match the u side;
    on independent systems some column matching must preserve spans with
    determinant product exactly 1.  With no independent system on either
    side both tensors vanish and are trivially equal.
    """
    lam = tuple(lam)
    n = sum(lam)
    if len(fv) != n or len(fu) != n:
        raise ValueError(f"family sizes {len(fv)}, {len(fu)} != {n}")
    if fv.dim != fu.dim:
        raise ValueError(f"ambient dimension mismatch: {fv.dim} != {fu.dim}")

    failures: list[SystemFailure] = []
    witnesses: list[SystemWitness] = []
    v_keys, u_keys = fv._span_keys, fu._span_keys
    ratios: dict[tuple, Fraction] = {}  # see _search_matching

    def keep(column: tuple[int, ...]) -> bool:
        # a column dependent on both sides only leads to skipped systems
        return v_keys[column] is not None or u_keys[column] is not None

    for system in iter_column_systems(lam, keep):
        pairs = [(v_keys[column], u_keys[column]) for column in system]
        v_ind = all(v is not None for v, _ in pairs)
        u_ind = all(u is not None for _, u in pairs)
        if v_ind != u_ind:
            failures.append(SystemFailure(system, INDEPENDENCE_MISMATCH))
            if not exhaustive:
                break
            continue
        if not v_ind:
            continue
        witness, failure = _search_matching(system, pairs, ratios)
        if witness is not None:
            witnesses.append(witness)
        else:
            failures.append(failure)
            if not exhaustive:
                break

    if failures:
        return EqualityVerdict(False, "failed", tuple(failures), tuple(witnesses))
    if not witnesses:
        return EqualityVerdict(True, "both_vanish", (), ())
    return EqualityVerdict(True, "witnessed", (), tuple(witnesses))
