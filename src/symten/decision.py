"""Combinatorial deciders for vanishing and equality of symmetrized tensors.

Instead of iterating all n! fillings of a shape, the deciders iterate
column systems (multisets of column sets): independence, spans and the
determinant product only depend on column contents.  Within-column
reading order is fixed to increasing indices on both sides, so its sign
contribution cancels; equal-size columns are handled by searching over
all span-compatible column matchings.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .combinatorics import (
    DEFAULT_MAX_N,
    ColumnSystem,
    Part,
    Rows,
    column_system_of,
    enumerate_column_systems,
    enumerate_standard,
)
from .linalg import VectorFamily, is_independent, transition_scalar

INDEPENDENCE_MISMATCH = "independence_mismatch"
NO_SPAN_MATCHING = "no_span_matching"
PRODUCT_NOT_ONE = "product_not_one"


@dataclass(frozen=True)
class SystemWitness:
    """A column permutation certifying equality on one column system."""

    system: ColumnSystem
    sigma: tuple[int, ...]  # 1-based: column j is matched to column sigma[j-1]
    scalars: tuple[Fraction, ...]
    product: Fraction


@dataclass(frozen=True)
class SystemFailure:
    system: ColumnSystem
    reason: str
    # for product_not_one: the scalars of one representative matching
    scalars: Optional[tuple[Fraction, ...]] = None
    product: Optional[Fraction] = None


@dataclass(frozen=True)
class EqualityVerdict:
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


def gamas_nonvanishing(
    family: VectorFamily, lam: Part, max_n: int = DEFAULT_MAX_N
) -> tuple[bool, Optional[ColumnSystem]]:
    """Whether the symmetrized tensor of the family is nonzero for shape lam.

    Nonzero exactly when some column system has all columns independent;
    returns such a system as witness.
    """
    lam = tuple(lam)
    if len(family) != sum(lam):
        raise ValueError(f"family size {len(family)} != {sum(lam)}")
    for system in enumerate_column_systems(lam, max_n):
        if columns_independent(family, system):
            return True, system
    return False, None


def gamas_standard(
    family: VectorFamily, lam: Part, max_n: int = DEFAULT_MAX_N
) -> tuple[bool, Optional[Rows]]:
    """Same decision restricted to standard tableaux; witness is a tableau."""
    lam = tuple(lam)
    if len(family) != sum(lam):
        raise ValueError(f"family size {len(family)} != {sum(lam)}")
    for rows in enumerate_standard(lam):
        if columns_independent(family, column_system_of(rows)):
            return True, rows
    return False, None


def _search_matching(
    fv: VectorFamily, fu: VectorFamily, system: ColumnSystem
) -> tuple[Optional[SystemWitness], Optional[SystemFailure]]:
    """Find a span-compatible column matching with determinant product 1.

    One `transition_scalar` call per same-size column pair gives both.
    """
    k = len(system)
    # candidates[j]: span-preserving target column t -> its scalar
    candidates: list[dict[int, Fraction]] = []
    for column in system:
        targets: dict[int, Fraction] = {}
        for t, target in enumerate(system):
            if len(target) == len(column):
                c = transition_scalar(fv, column, fu, target)
                if c is not None:
                    targets[t] = c
        if not targets:
            return None, SystemFailure(system, NO_SPAN_MATCHING)
        candidates.append(targets)

    fallback: Optional[SystemFailure] = None
    used = [False] * k
    assignment = [0] * k

    def backtrack(j: int, product: Fraction) -> Optional[SystemWitness]:
        nonlocal fallback
        if j == k:
            scalars = tuple(candidates[i][t] for i, t in enumerate(assignment))
            if product == 1:
                sigma = tuple(t + 1 for t in assignment)
                return SystemWitness(system, sigma, scalars, product)
            if fallback is None:
                fallback = SystemFailure(system, PRODUCT_NOT_ONE, scalars, product)
            return None
        for t, c in candidates[j].items():
            if not used[t]:
                used[t] = True
                assignment[j] = t
                found = backtrack(j + 1, product * c)
                used[t] = False
                if found is not None:
                    return found
        return None

    witness = backtrack(0, Fraction(1))
    if witness is not None:
        return witness, None
    if fallback is None:
        # candidates exist per column but no system of distinct representatives
        fallback = SystemFailure(system, NO_SPAN_MATCHING)
    return None, fallback


def decide_equality(
    fv: VectorFamily,
    fu: VectorFamily,
    lam: Part,
    max_n: int = DEFAULT_MAX_N,
    exhaustive: bool = False,
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
    any_independent = False
    for system in enumerate_column_systems(lam, max_n):
        v_ind = columns_independent(fv, system)
        u_ind = columns_independent(fu, system)
        if v_ind != u_ind:
            failures.append(SystemFailure(system, INDEPENDENCE_MISMATCH))
            if not exhaustive:
                break
            continue
        if not v_ind:
            continue
        any_independent = True
        witness, failure = _search_matching(fv, fu, system)
        if witness is not None:
            witnesses.append(witness)
        else:
            failures.append(failure)
            if not exhaustive:
                break

    if failures:
        return EqualityVerdict(False, "failed", tuple(failures), tuple(witnesses))
    if not any_independent:
        return EqualityVerdict(True, "both_vanish", (), ())
    return EqualityVerdict(True, "witnessed", (), tuple(witnesses))
